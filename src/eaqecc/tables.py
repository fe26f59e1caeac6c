"""Best-known EAQECC parameter tables: storage, expansion, compression.

A CodeRecord is one claim [[n, kappa, delta; c]]_q with purity and
source tags.  Stores key records by (q, n, kappa, c) and keep the best
delta.  Expansion closes a store under a chosen subset of the eight
single-step rules (bounded by a maximum length) in one walk over all of
its records at once; compression reads off the same walk which records
no other stored record can reach, so a compressed table is
dominance-free.

Record line format: `q n kappa delta c purity source`, '#' comments
allowed.  Bundled transcriptions of the published qubit and qutrit
tables load through a checksum gate.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
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
# 0.5 s); one field passes the cap from n = 113 on
CLOSURE_CELL_CAP = 500_000


@dataclass(frozen=True)
class CodeRecord:
    q: int
    n: int
    kappa: int
    delta: int
    c: int
    purity: str = "unknown"
    source: str = "constructed"
    note: str | None = None

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


def _walk(roots, rules, n_max):
    """Close the union of the roots under the rules in one bucket pass.

    Every rule keeps or lowers delta, so taking cells in descending delta
    order, and by root index within one delta, settles each cell at its
    best (delta, root) on first visit.  Returns three maps over
    (q, n, kappa, c, pure) cells: (delta, root_index) reachable in zero or
    more steps, the best delta reachable in one or more steps, and the
    (previous cell, rule) that settled each cell (None at a root).
    Raises BudgetError, before anything is allocated, when closure_cells
    exceeds CLOSURE_CELL_CAP.
    """
    bound = closure_cells(roots, n_max)
    if bound > CLOSURE_CELL_CAP:
        raise BudgetError(f"the closure up to n = {n_max} may hold {bound} cells, "
                          f"past the cap of {CLOSURE_CELL_CAP}")
    transform = propagate.simple_rule_transform
    entries = {rule: propagate.simple_rule(rule) for rule in sorted(rules)}
    steps = [(rule, int(entry.pure_out)) + entry.limits() for rule, entry in entries.items()]
    cells, stepped, parent = {}, {}, {}
    buckets = [[] for _ in range(max((r.delta for r in roots), default=0) + 1)]
    order = itertools.count()  # first come, first settled, as in a breadth-first search

    def offer(cell, delta, idx, via):
        cur = cells.get(cell)
        if cur is None or delta > cur[0] or (delta == cur[0] and idx < cur[1]):
            cells[cell] = (delta, idx)
            parent[cell] = via
            heapq.heappush(buckets[delta], (idx, next(order), cell))

    for idx, rec in enumerate(roots):
        offer(rec.key + (int(rec.is_pure_at_delta()),), rec.delta, idx, None)
    for delta in range(len(buckets) - 1, -1, -1):
        heap = buckets[delta]
        while heap:
            idx, _, cell = heapq.heappop(heap)
            if cells[cell] != (delta, idx):
                continue
            q, n, kappa, c, pure = cell
            room = n - kappa - c
            for rule, pure2, pure_low, q_low, n_low, k_low, d_low, room_low in steps:
                if not (n >= n_low and kappa >= k_low and delta >= d_low and room >= room_low
                        and pure >= pure_low and q >= q_low):
                    continue
                n2, k2, d2, c2 = transform(rule, n, kappa, delta, c)
                if n2 > n_max:
                    continue
                cell2 = (q, n2, k2, c2, pure2)
                if stepped.get(cell2, -1) < d2:
                    stepped[cell2] = d2
                offer(cell2, d2, idx, (cell, rule))
    return cells, stepped, parent


class ExpandedStore:
    """Closure of a store under a rule subset, from one multi-source walk.

    cells maps (q, n, kappa, c, pure) to (delta, root_index): the best
    delta reachable from the roots and the first root reaching it.
    stepped holds the best delta reachable in one or more steps.
    """

    def __init__(self, roots, rules, n_max):
        self.roots = list(roots)
        self.rules = frozenset(rules)
        self.n_max = n_max
        self.cells, self.stepped, self._parent = _walk(self.roots, self.rules, n_max)

    def _chain(self, cell):
        rules = []
        while self._parent[cell] is not None:
            cell, rule = self._parent[cell]
            rules.append(rule)
        return rules[::-1]

    def records(self, with_chains=False):
        """Materialized best records, one per (q, n, kappa, c) cell.

        A root holding the best delta of its own cell is emitted as
        itself; any other record is derived from the first root reaching
        it, tagged with the rule chain from that root when asked.
        """
        best = {}
        for (q, n, kappa, c, pure), (d, idx) in self.cells.items():
            key = (q, n, kappa, c)
            cur = best.get(key)
            if cur is None or d > cur[0] or (d == cur[0] and pure > cur[1]):
                best[key] = (d, pure, idx)
        own = {}
        for rec in self.roots:
            own.setdefault(rec.key + (int(rec.is_pure_at_delta()), rec.delta), rec)
        out = []
        for key in sorted(best):
            d, pure, idx = best[key]
            rec = own.get(key + (pure, d))
            if rec is None:
                q, n, kappa, c = key
                purity = f"pure_to:{d}" if pure else "unknown"
                tag = ",".join(map(str, self._chain(key + (pure,)))) if with_chains else "*"
                source = f"derived({self.roots[idx].source}:{tag})"
                rec = CodeRecord(q, n, kappa, d, c, purity, source)
            out.append(rec)
        return out


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
    for rec in exp.roots:
        cell = rec.key + (int(rec.is_pure_at_delta()),)
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
    if n_max is None:
        n_max = n if n is not None else max((r.n for r in store), default=1)
    exp = store if isinstance(store, ExpandedStore) else expand(store, rules, n_max)
    hits = {}
    for rec in exp.records():
        if q is not None and rec.q != q:
            continue
        if n is not None and rec.n != n:
            continue
        if kappa is not None and rec.kappa != kappa:
            continue
        if c is not None and rec.c != c:
            continue
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
