"""Best-known EAQECC parameter tables: storage, expansion, compression.

A CodeRecord is one claim [[n, kappa, delta; c]]_q with purity and
source tags.  Stores key records by (q, n, kappa, c) and keep the best
delta.  Expansion closes a store under a chosen subset of the eight
single-step rules (bounded by a maximum length) in one walk over all of
its records at once; compression reads off the same walk which records
no other stored record can reach, so a compressed table is
dominance-free.  The walk gates each rule once per (q, delta), not once
per root, which matters when nearly every cell is a root (an expanded
table read back in).

Record line format: `q n kappa delta c purity source`, '#' comments
allowed.  Bundled transcriptions of the published qubit and qutrit
tables load through a checksum gate.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import re
from dataclasses import dataclass

from . import propagate
from .construct import EaqeccParams, is_pure_at
from .distance import DistanceFact
from .errors import BudgetError, DataIntegrityError, RecordParseError

DEFAULT_RULES = frozenset({1, 2, 3, 4, 5, 7})
# the most cells a closure may hold by `closure_cells`.  The bundled
# qubit table up to n = 64 needs 95,808 (it settles 45,755, in about
# 0.09 s on 2 vCPUs with CPython 3.11); one field passes the cap from
# n = 113 on
CLOSURE_CELL_CAP = 500_000


_setattr = object.__setattr__


@dataclass(frozen=True, slots=True)
class CodeRecord:
    q: int
    n: int
    kappa: int
    delta: int
    c: int
    purity: str = "unknown"
    source: str = "constructed"
    note: str | None = None

    # the generated frozen __init__ looks object.__setattr__ up once per
    # field; expanded tables build tens of thousands of records
    def __init__(self, q, n, kappa, delta, c, purity="unknown", source="constructed",
                 note=None):
        _setattr(self, "q", q)
        _setattr(self, "n", n)
        _setattr(self, "kappa", kappa)
        _setattr(self, "delta", delta)
        _setattr(self, "c", c)
        _setattr(self, "purity", purity)
        _setattr(self, "source", source)
        _setattr(self, "note", note)

    @property
    def key(self):
        return (self.q, self.n, self.kappa, self.c)

    def is_pure_at_delta(self) -> bool:
        return is_pure_at(self.purity, self.delta)

    def to_line(self) -> str:
        line = f"{self.q} {self.n} {self.kappa} {self.delta} {self.c} {self.purity} {self.source}"
        if self.note:
            line += f"  # {self.note}"
        return line

    @classmethod
    def from_line(cls, line: str, line_number: int | None = None) -> "CodeRecord":
        body, _, comment = line.partition("#")
        toks = body.split()
        if len(toks) < 5:
            raise RecordParseError(f"need at least 5 fields, got {len(toks)}", line_number)
        try:
            q, n, kappa, delta, c = (int(t) for t in toks[:5])
        except ValueError as exc:
            raise RecordParseError(f"non-integer parameter ({exc})", line_number) from None
        if min(q, n) < 1 or min(kappa, delta, c) < 0:
            raise RecordParseError("parameters out of range", line_number)
        purity = toks[5] if len(toks) > 5 else "unknown"
        if purity not in ("pure", "unknown") and not re.fullmatch(r"pure_to:[0-9]+", purity):
            raise RecordParseError(f"bad purity tag {purity!r}", line_number)
        source = toks[6] if len(toks) > 6 else "unknown"
        note = comment.strip() or None
        return cls(q, n, kappa, delta, c, purity, source, note)

    def to_params(self) -> EaqeccParams:
        """Parameter object for bound checking; delta becomes a citation fact."""
        return EaqeccParams(
            q=self.q,
            n=self.n,
            kappa=self.kappa,
            delta=DistanceFact(self.delta, "exact", "citation"),
            c=self.c,
            purity=self.purity,
            provenance=(self.source,),
        )


class TableStore:
    """Best record per (q, n, kappa, c), duplicates collapsed on ingest."""

    def __init__(self, records=()):
        self.records: dict = {}
        for r in records:
            self.add(r)

    def add(self, rec: CodeRecord):
        old = self.records.get(rec.key)
        if old is None or rec.delta > old.delta:
            self.records[rec.key] = rec

    def get(self, q, n, kappa, c) -> CodeRecord | None:
        return self.records.get((q, n, kappa, c))

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(sorted(self.records.values(), key=lambda r: r.key + (-r.delta,)))

    def max_n(self, q=None) -> int:
        ns = [r.n for r in self.records.values() if q is None or r.q == q]
        return max(ns) if ns else 0


def ingest(lines) -> TableStore:
    """Parse record lines into a store; malformed lines carry line numbers."""
    store = TableStore()
    for no, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        store.add(CodeRecord.from_line(line, no))
    return store


# --------------------------------------------------------------------------
# closure under the single-step rules
# --------------------------------------------------------------------------


def closure_cells(roots, n_max) -> int:
    """An upper bound on the cells of the roots' closure up to length n_max.

    No rule changes q or lowers c, and each keeps kappa >= 0, n >= 1 and
    kappa + c <= n.  So for roots that pass the structure check, every
    cell but the longer roots is one (n, kappa, c, pure) per field with
    n <= n_max: (n_max + 3 choose 3) - 1 triples, twice.
    """
    fields = len({rec.q for rec in roots})
    longer = sum(rec.n > n_max for rec in roots)
    return longer + 2 * fields * (math.comb(n_max + 3, 3) - 1)


def _rule_rows(rules, n_max, floor):
    """Each rule as ((least pure, q, delta), (rule, dn, dkappa, ddelta, dc,
    pure out, least n, most n, least kappa, least room)) for the walk.

    A limit the rule lacks becomes `floor`, an int at or below every
    coordinate in the closure; the most n keeps its output within n_max.
    """
    rows = []
    for rule in sorted(rules):
        entry = propagate.simple_rule(rule)
        pure_low, q_low, n_low, k_low, d_low, room_low = (
            max(low, floor) for low in entry.limits())
        dn, dk, dd, dc = entry.shift
        rows.append(((pure_low, q_low, d_low),
                     (rule, dn, dk, dd, dc, int(entry.pure_out), n_low, n_max - dn, k_low,
                      room_low)))
    return rows


def _walk(roots, rules, n_max, root_cells=None):
    """Close the union of the roots under the rules in one pass over classes.

    A class holds the cells offered at one (delta, root index).  Every
    rule keeps delta or lowers it by one, so taking classes in descending
    delta order, then ascending root index, and the cells of each class
    first come, first served, settles each cell at its best
    (delta, root) on first visit.  A class grows while it is walked, and
    its cells one delta lower wait in the next class of the same root,
    which no other class feeds.  The rule rows are gated once per
    (q, delta), and a move that leaves (n, kappa, c) and purity as they
    are is dropped there: it offers its own cell a lower delta, which
    never wins.  The one-step bests at the roots keep every row.

    root_cells holds each root's (q, n, kappa, c, pure) cell when the
    caller has it.  Returns three maps over (q, n, kappa, c, pure) cells:
    (delta, root_index) reachable in zero or more steps; the best delta
    reachable in one or more steps, at root cells only; and the
    (previous cell, rule) that settled each cell (None at a root).
    Raises BudgetError, before anything is allocated, when closure_cells
    exceeds CLOSURE_CELL_CAP.
    """
    bound = closure_cells(roots, n_max)
    if bound > CLOSURE_CELL_CAP:
        raise BudgetError(f"the closure up to n = {n_max} may hold {bound} cells, "
                          f"past the cap of {CLOSURE_CELL_CAP}")
    if root_cells is None:
        root_cells = [_root_cell(rec) for rec in roots]
    # no rule lowers a coordinate it does not limit
    floor = min([0] + [min(r.n, r.kappa, r.delta, r.n - r.kappa - r.c) for r in roots])
    rows = _rule_rows(rules, n_max, floor)
    cells, parent = {}, {}
    todo = []  # heap of classes (-delta, root index, cells in arrival order)
    for idx, (rec, cell) in enumerate(zip(roots, root_cells)):
        cur = cells.get(cell)
        if cur is None or rec.delta > cur[0]:
            cells[cell] = (rec.delta, idx)
            parent[cell] = None
            todo.append((-rec.delta, idx, [cell]))
    heapq.heapify(todo)
    # (q, delta) -> the moves from impure and from pure cells: a rule's
    # row past its gate, with its delta shift last
    gated = {}
    while todo:
        neg_delta, idx, fifo = heapq.heappop(todo)
        delta = -neg_delta
        here = (delta, idx)
        if len(fifo) == 1 and cells[fifo[0]] != here:
            continue  # most roots of a dense store are settled before their class
        q = roots[idx].q
        moves = gated.get((q, delta))
        if moves is None:
            moves = gated[q, delta] = ([], [])
            for (pure_low, q_low, d_low), (rule, dn, dk, dd, dc, pure2, *limits) in rows:
                if q >= q_low and delta >= d_low:
                    for pure in range(pure_low, 2):
                        if dn or dk or dc or pure2 != pure:
                            moves[pure].append((rule, dn, dk, dc, pure2, *limits, dd))
        below = []
        # by delta shift, 0 or -1: the delta offered, its value and the
        # class its cells join
        offers = ((delta, here, fifo), (delta - 1, (delta - 1, idx), below))
        for cell in fifo:
            if cells[cell] != here:
                continue
            _, n, kappa, c, pure = cell
            room = n - kappa - c
            for rule, dn, dk, dc, pure2, n_low, n_high, k_low, r_low, dd in moves[pure]:
                if n_low <= n <= n_high and kappa >= k_low and room >= r_low:
                    cell2 = (q, n + dn, kappa + dk, c + dc, pure2)
                    d2, value, target = offers[dd]
                    cur = cells.get(cell2)
                    if cur is None or d2 > cur[0] or (d2 == cur[0] and idx < cur[1]):
                        cells[cell2] = value
                        parent[cell2] = (cell, rule)
                        target.append(cell2)
        if below:
            heapq.heappush(todo, (1 - delta, idx, below))
    # each cell was expanded once, at its final value, so a root cell's
    # best one-step delta comes from the cells one move before it; a cell
    # settled by a step holds that best already
    stepped = {}
    for cell in set(root_cells):
        if parent[cell] is not None:
            stepped[cell] = cells[cell][0]
            continue
        q, n, kappa, c, pure = cell
        for (pure_low, q_low, d_low), (_, dn, dk, dd, dc, pure2, n_low, n_high, k_low,
                                       r_low) in rows:
            n1, k1, c1 = n - dn, kappa - dk, c - dc
            if pure2 != pure or q < q_low or not (n_low <= n1 <= n_high and k1 >= k_low
                                                  and n1 - k1 - c1 >= r_low):
                continue
            for pure1 in range(pure_low, 2):
                got = cells.get((q, n1, k1, c1, pure1))
                if got is not None and got[0] >= d_low and stepped.get(cell, -1) < got[0] + dd:
                    stepped[cell] = got[0] + dd
    return cells, stepped, parent


def _root_cell(rec):
    """The (q, n, kappa, c, pure) cell a record sits at."""
    return rec.key + (int(rec.is_pure_at_delta()),)


class ExpandedStore:
    """Closure of a store under a rule subset, from one multi-source walk.

    cells maps (q, n, kappa, c, pure) to (delta, root_index): the best
    delta reachable from the roots and the first root reaching it.
    stepped holds, at root cells only, the best delta reachable in one or
    more steps.  root_cells holds each root's cell, in root order.
    """

    def __init__(self, roots, rules, n_max):
        self.roots = list(roots)
        self.rules = frozenset(rules)
        self.n_max = n_max
        self.root_cells = [_root_cell(rec) for rec in self.roots]
        self.cells, self.stepped, self._parent = _walk(self.roots, self.rules, n_max,
                                                       self.root_cells)

    def _tag(self, cell, tags):
        """The comma-joined rule chain from its root to the cell, memoized in
        `tags`: each cell's tag is its parent's tag plus one rule."""
        path = []
        while cell not in tags:
            via = self._parent[cell]
            if via is None:
                tags[cell] = ""
                break
            path.append((cell, via[1]))
            cell = via[0]
        tag = tags[cell]
        for cell, rule in reversed(path):
            tag = f"{tag},{rule}" if tag else str(rule)
            tags[cell] = tag
        return tag

    def _records(self, items, with_chains):
        """Best records, one per (q, n, kappa, c) among the (cell, (delta,
        root index)) `items`, in key order.

        A root holding the best delta of its own cell is emitted as
        itself; any other record is derived from the first root reaching
        it, tagged with the rule chain from that root when asked.
        """
        best = {}
        for cell, (d, idx) in items:
            key, pure = cell[:4], cell[4]
            cur = best.get(key)
            if cur is None or d > cur[0] or (d == cur[0] and pure > cur[1]):
                best[key] = (d, pure, idx)
        own = {}
        for rec, cell in zip(self.roots, self.root_cells):
            own.setdefault(cell + (rec.delta,), rec)
        tags, out = {}, []
        for key in sorted(best):
            d, pure, idx = best[key]
            rec = own.get(key + (pure, d))
            if rec is None:
                q, n, kappa, c = key
                purity = f"pure_to:{d}" if pure else "unknown"
                tag = self._tag(key + (pure,), tags) if with_chains else "*"
                source = f"derived({self.roots[idx].source}:{tag})"
                rec = CodeRecord(q, n, kappa, d, c, purity, source)
            out.append(rec)
        return out

    def records(self, with_chains=False):
        """Materialized best records, one per (q, n, kappa, c) cell (see _records)."""
        return self._records(self.cells.items(), with_chains)


def expand(store, rules=DEFAULT_RULES, n_max=None) -> ExpandedStore:
    """Close the store under the chosen rules, up to length n_max."""
    roots = list(store)
    if n_max is None:
        n_max = max((r.n for r in roots), default=1)
    return ExpandedStore(roots, rules, n_max)


def compress(records, rules=DEFAULT_RULES, n_max=None):
    """Dominance-free subset: drop records the other records can derive.

    A record is dominated when the best delta that the other records
    reach at its cell covers its own; an impure record is also covered
    from the pure cell of its parameters.  Rule chains never return to
    their start, so the other records reach a cell either in one or more
    steps from any root, or in zero steps when they sit there with a
    different delta.  Any higher delta covers when rule 3 may lower it;
    otherwise only an equal one does, since cells keep only their best
    delta.  Copies of one record count once: the first survives.
    """
    exp = records if isinstance(records, ExpandedStore) else expand(records, rules, n_max)
    survivors, kept = [], set()
    for rec, cell in zip(exp.roots, exp.root_cells):
        if cell + (rec.delta,) in kept:
            continue
        top = exp.cells[cell][0]  # above the record's own delta only from others
        reached = top if top > rec.delta else exp.stepped.get(cell, -1)
        if not cell[4]:
            reached = max(reached, exp.cells.get(rec.key + (1,), (-1,))[0])
        if reached == rec.delta or (reached > rec.delta and 3 in exp.rules):
            continue
        kept.add(cell + (rec.delta,))
        survivors.append(rec)
    return survivors


def query(store, q=None, n=None, kappa=None, c=None, rules=DEFAULT_RULES, n_max=None):
    """Best records in the expansion closure matching the filter.

    Ties on delta break toward smaller c, then lexicographic source.
    """
    exp = store
    if not isinstance(store, ExpandedStore):
        if n_max is None:
            n_max = n if n is not None else max((r.n for r in store), default=1)
        exp = expand(store, rules, n_max)
    hits = {}
    items = [(cell, got) for cell, got in exp.cells.items()
             if (q is None or cell[0] == q) and (n is None or cell[1] == n)
             and (kappa is None or cell[2] == kappa) and (c is None or cell[3] == c)]
    for rec in exp._records(items, with_chains=False):
        sel = (rec.q, rec.n, rec.kappa)
        cur = hits.get(sel)
        if (
            cur is None
            or rec.delta > cur.delta
            or (rec.delta == cur.delta and (rec.c, rec.source) < (cur.c, cur.source))
        ):
            hits[sel] = rec
    return [hits[k] for k in sorted(hits)]


# --------------------------------------------------------------------------
# bound checking and formats
# --------------------------------------------------------------------------


def check_records(records, assume_route="hermitian"):
    """[(record, report)] for records violating any applicable bound.

    Records that fail the structural invariants (kappa or c out of
    range) are reported as violations too rather than aborting the scan.
    """
    from . import bounds
    from .bounds import BoundCheck, BoundReport
    from .errors import PreconditionError

    bad = []
    for rec in records:
        try:
            params = rec.to_params()
        except PreconditionError as exc:
            bad.append(
                (rec, BoundReport((BoundCheck("structure", True, str(exc), False, None),)))
            )
            continue
        report = bounds.check_all(params, assume_route=assume_route)
        if not report.ok:
            bad.append((rec, report))
    return bad


# --------------------------------------------------------------------------
# bundled table transcriptions
# --------------------------------------------------------------------------

BUNDLED_TABLES = {"qubit": "table_qubit.txt", "qutrit": "table_qutrit.txt"}


def _data_dir():
    from importlib.resources import files

    return files("eaqecc") / "data" / "paper"


def load_data_text(name: str, data_dir=None) -> str:
    """Checksum-gated read of a bundled data file."""
    import pathlib

    root = pathlib.Path(data_dir) if data_dir is not None else _data_dir()
    path = root / name
    try:
        raw = path.read_bytes()
    except (FileNotFoundError, OSError):
        raise DataIntegrityError(f"bundled data file {name!r} is missing") from None
    try:
        sums = (root / "CHECKSUMS.sha256").read_text()
    except (FileNotFoundError, OSError):
        raise DataIntegrityError("checksum manifest CHECKSUMS.sha256 is missing") from None
    want = None
    for line in sums.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1] == name:
            want = parts[0]
    if want is None:
        raise DataIntegrityError(f"no checksum recorded for {name!r}")
    got = hashlib.sha256(raw).hexdigest()
    if got != want:
        raise DataIntegrityError(f"checksum mismatch for {name!r}")
    return raw.decode()


def load_bundled(which: str, data_dir=None) -> TableStore:
    """One of the transcribed published tables ('qubit' or 'qutrit')."""
    if which not in BUNDLED_TABLES:
        raise KeyError(f"unknown table {which!r}; choose from {sorted(BUNDLED_TABLES)}")
    text = load_data_text(BUNDLED_TABLES[which], data_dir)
    return ingest(text.splitlines())
