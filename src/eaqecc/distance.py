"""Minimum-weight search over linear code spans.

Two walks cover every search, both built by one expansion step:

* the scalar-class walk (`span_blocks`) visits every codeword up to
  scalar multiples in a fixed order.  It serves the exact scan
  (`span_weight_scan`, while q^k stays below the enumeration cap) and,
  as value blocks (`span_values`), the word and column searches of the
  propagation rules and the all-nonzero search of the puncture space;
* the by-weight walk of the information-set loop enumerates several
  systematic generator matrices over (mostly) disjoint pivot sets by
  message weight, tightening a lower bound while low-weight witnesses
  tighten the upper bound, until the two meet or a budget runs out.

Codewords are handled as per-digit planes (base-p coefficients of each
symbol), private to this module, so that field addition becomes plain
integer addition with a deferred reduction; only tiny 256-entry lookup
tables appear in the inner loops.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, EaqeccError, PreconditionError
from .fields import FieldSpec

DEFAULT_ENUM_CAP = 10**8
DEFAULT_WORK_BUDGET = 10**8
_BLOCK_TARGET = 1 << 16
_TENSOR_ELEM_CAP = 1 << 28


@dataclass(frozen=True)
class DistanceFact:
    """One assertion about a minimum distance.

    certainty is 'exact', 'lower_bound' or 'upper_bound'; method records
    how the value was obtained ('enumeration', 'information_sets',
    'witness', 'citation', 'convention').  Computed exact facts carry a
    witness codeword of that weight; 'citation' and 'convention' facts
    do not.  A lower_bound fact may carry the best known upper bound and
    its witness alongside.
    """

    value: int
    certainty: str
    method: str
    witness: tuple | None = None
    upper: int | None = None
    upper_witness: tuple | None = None

    @property
    def exact(self) -> bool:
        return self.certainty == "exact"

    def __str__(self):
        if self.exact:
            return f"{self.value}"
        if self.certainty == "lower_bound":
            up = f", <= {self.upper}" if self.upper is not None else ""
            return f">= {self.value}{up}"
        return f"<= {self.value}"


@functools.cache
def _mod_tables(p: int):
    """(nonzero, value) lookup tables mod p for raw uint8 digit sums."""
    r = np.arange(256, dtype=np.uint16) % p
    nz8, val8 = (r != 0).astype(np.uint8), r.astype(np.uint8)
    nz8.flags.writeable = val8.flags.writeable = False
    return nz8, val8


def _row_multiple_planes(field: FieldSpec, row: np.ndarray) -> np.ndarray:
    """(q, s, n) planes of every scalar multiple of the row."""
    q = field.order
    vals = field.MUL[np.arange(q, dtype=np.uint8)[:, None], row[None, :]]
    return np.ascontiguousarray(field.DIGITS[vals].transpose(0, 2, 1))


def _planes_to_values(field: FieldSpec, planes: np.ndarray) -> np.ndarray:
    """(..., s, n) raw planes -> (..., n) encoded element values, reducing mod p."""
    _, val8 = _mod_tables(field.p)
    out = val8[planes[..., -1, :]]
    for j in range(field.s - 2, -1, -1):
        # every partial value is below the final one, so uint8 never wraps
        out = out * field.p + val8[planes[..., j, :]]
    return out


def _add_planes(field: FieldSpec, A: np.ndarray, B: np.ndarray, reduce_now: bool) -> np.ndarray:
    """A + B on digit planes; stays in uint8, widening when p could wrap."""
    if field.p > 128:
        # two reduced planes can sum past 255; widen, reduce, narrow
        return ((A.astype(np.uint16) + B) % field.p).astype(np.uint8)
    T = A + B
    return _mod_tables(field.p)[1][T] if reduce_now else T


def _symbol_weights(field: FieldSpec, block: np.ndarray) -> np.ndarray:
    """(B, s, n) raw planes -> (B,) nonzero-symbol counts."""
    nz8, _ = _mod_tables(field.p)
    nz = nz8[block]
    sym = nz[:, 0]
    for j in range(1, block.shape[1]):
        sym = sym | nz[:, j]
    return sym.sum(axis=1, dtype=np.int64)


@dataclass
class SpanScan:
    """Exact minimum weights from a full scan of a span."""

    min_weight: int | None
    witness: tuple | None
    outside_min: int | None
    outside_witness: tuple | None
    classes_scanned: int


def span_weight_scan(
    field: FieldSpec,
    rows: np.ndarray,
    sub_rows: int = 0,
    cap: int = DEFAULT_ENUM_CAP,
) -> SpanScan:
    """Minimum weights over span(rows), one word per scalar class.

    The first `sub_rows` rows generate a distinguished subcode;
    `outside_min` is the minimum weight over span \\ subcode.  With
    sub_rows=0 the subcode is {0} and outside_min equals min_weight.
    The scan is one fold over span_blocks with the subcode rows moved
    last, so a word lies outside the subcode exactly when its lead row
    does; each witness is the first lightest word in that walk.
    Raises BudgetError when q^k exceeds the cap.
    """
    k, n = rows.shape
    q = field.order
    if not 0 <= sub_rows <= k:
        raise PreconditionError("sub_rows out of range")
    if q**k > cap:
        raise BudgetError(f"q^k = {q}^{k} exceeds enumeration cap {cap}")
    order = list(range(sub_rows, k)) + list(range(sub_rows))
    best = {}  # "all", and "out" with a subcode: (weight, witness planes)
    scanned = 0
    for lead, block in span_blocks(field, rows[order]):
        wts = _symbol_weights(field, block)
        i = int(np.argmin(wts))
        for key in ("all", "out") if sub_rows and lead < k - sub_rows else ("all",):
            if key not in best or wts[i] < best[key][0]:
                best[key] = int(wts[i]), block[i].copy()
        scanned += len(block)

    def unpack(key):
        if key not in best:
            return None, None
        w, planes = best[key]
        return w, tuple(int(v) for v in _planes_to_values(field, planes))

    w_all, wit_all = unpack("all")
    w_out, wit_out = unpack("out") if sub_rows else (w_all, wit_all)
    return SpanScan(w_all, wit_all, w_out, wit_out, scanned)


def _block_split(q: int, count: int):
    """How many trailing free rows to expand as one tensor block."""
    b = 0
    while b < count and q ** (b + 1) <= _BLOCK_TARGET:
        b += 1
    return b


def _expand(field, T, mult, reduce_now) -> np.ndarray:
    """Every word of T plus every plane of mult, T's index varying slowest."""
    s, n = mult.shape[1:]
    return _add_planes(field, T[:, None], mult[None], reduce_now).reshape(-1, s, n)


def span_blocks(field: FieldSpec, rows: np.ndarray):
    """Yield (lead, (B, s, n) plane block) over span(rows), one word per scalar class.

    Each word is rows[lead] + sum_{r > lead} c_r rows[r]; leads ascend
    and, within a lead, the tails (c_{lead+1}, ..., c_{k-1}) come in
    lexicographic order.
    """
    k, n = rows.shape
    q, s = field.order, field.s
    mults = [_row_multiple_planes(field, rows[i]) for i in range(k)]
    built = None
    for lead in range(k):
        b = _block_split(q, k - lead - 1)
        reduce_levels = (field.p - 1) * (b + 2) > 255
        if built != b:  # the span of the trailing b rows, shared across leads
            T = np.zeros((1, s, n), dtype=np.uint8)
            for r in range(k - b, k):
                T = _expand(field, T, mults[r], reduce_levels)
            built = b
        prefix = range(lead + 1, k - b)
        for combo in itertools.product(range(q), repeat=len(prefix)):
            pw = mults[lead][1]
            for r, cf in zip(prefix, combo):
                pw = _add_planes(field, pw, mults[r][cf], True)
            yield lead, _add_planes(field, T, pw[None], reduce_levels)


def span_values(field: FieldSpec, rows: np.ndarray):
    """span_blocks with each block as (B, n) encoded field elements."""
    for lead, block in span_blocks(field, rows):
        yield lead, _planes_to_values(field, block)


# --------------------------------------------------------------------------
# information-set bounding loop
# --------------------------------------------------------------------------


@dataclass(eq=False)
class _SystematicForm:
    G: np.ndarray          # RREF'd generator, same row space as the input
    pivots: list           # pivot columns
    fresh: list            # pivots inside this form's fresh region
    deficit: int           # k - len(fresh)
    A: np.ndarray          # generator restricted to non-pivot columns
    mults: list            # per-row multiple planes of A
    r: int = 0             # message weights fully enumerated so far


def _systematic_forms(field: FieldSpec, G: np.ndarray):
    from .matrix import MatrixFq  # local import; matrix builds on fields only

    M = MatrixFq(field, G)
    k, n = G.shape
    remaining = set(range(n))
    forms = []
    while remaining:
        priority = sorted(remaining) + sorted(set(range(n)) - remaining)
        R, rank, pivots = M.rref(pivot_priority=priority)
        fresh = [c for c in pivots if c in remaining]
        if not fresh:
            break
        remaining -= set(fresh)
        nonpiv = [c for c in range(n) if c not in set(pivots)]
        A = R.array[:, nonpiv]
        mults = [_row_multiple_planes(field, A[i]) for i in range(k)]
        forms.append(_SystematicForm(R.array, pivots, fresh, k - len(fresh), A, mults))
    return forms


class _BudgetExhausted(Exception):
    pass


class _ISState:
    def __init__(self, field, G, budget, sub_checker=None):
        self.field = field
        self.G = G
        self.k, self.n = G.shape
        self.budget = budget
        self.work = 0
        self.ub = self.n + 1
        self.witness = None
        self.sub_checker = sub_checker
        self.ub_out = self.n + 1
        self.witness_out = None

    @property
    def threshold(self):
        return self.ub_out if self.sub_checker else self.ub

    def offer_message(self, form, support, coeffs, weight):
        if weight >= self.threshold:
            return
        msg = np.zeros(self.k, dtype=np.uint8)
        for i, c in zip(support, coeffs):
            msg[i] = c
        from .matrix import gf_matmul

        word = gf_matmul(msg[None, :], form.G, self.field)[0]
        if int((word != 0).sum()) != weight:
            raise EaqeccError(f"information-set word does not have weight {weight}")
        if weight < self.ub:
            self.ub = weight
            self.witness = tuple(int(v) for v in word)
        if self.sub_checker and weight < self.ub_out and not self.sub_checker(word):
            self.ub_out = weight
            self.witness_out = tuple(int(v) for v in word)

    def charge(self, count):
        self.work += count
        if self.work > self.budget:
            raise _BudgetExhausted()


def _bz_weight_pass(state: _ISState, form: _SystematicForm, w: int):
    """Enumerate all messages of weight w for one systematic form."""
    field = state.field
    q = field.order
    k = state.k
    if w > k:
        return
    if w >= state.threshold:
        # no codeword from this pass can beat the current upper bound
        # (its weight is at least the message weight); the pass still
        # counts as completed for the lower-bound bookkeeping
        state.charge(math.comb(k, w) * (q - 1) ** (w - 1))
        return
    if (q - 1) ** (w - 1) * form.A.shape[1] * field.s > _TENSOR_ELEM_CAP:
        raise BudgetError("weight-pass tensor would exceed the memory cap")
    mults = form.mults
    m = form.A.shape[1]
    s = field.s
    reduce_levels = (field.p - 1) * (w + 1) > 255

    def leaf(T, support):
        wts = w + _symbol_weights(field, T)
        state.charge(T.shape[0])
        # offer every word below the threshold, lightest first: a light
        # word of the subcode must not hide a light word outside it
        while True:
            i = int(np.argmin(wts))
            if int(wts[i]) >= state.threshold:
                return
            coeffs = []
            rest = i
            for _ in range(w - 1):
                coeffs.append(rest % (q - 1) + 1)
                rest //= q - 1
            # flat index enumerates later levels fastest; rebuild in order
            state.offer_message(form, support, [1] + coeffs[::-1], int(wts[i]))
            wts[i] = state.n + 1

    def rec(start, depth, T, support):
        remaining = w - depth
        for i in range(start, k - remaining + 1):
            if depth == 0:
                T2 = mults[i][1:2].copy()
            else:
                T2 = _expand(field, T, mults[i][1:], reduce_levels)
            if depth + 1 == w:
                leaf(T2, support + [i])
            else:
                rec(i + 1, depth + 1, T2, support + [i])

    rec(0, 0, np.zeros((0, s, m), dtype=np.uint8), [])


@dataclass
class ISResult:
    fact: DistanceFact
    outside_fact: DistanceFact | None
    work: int
    rounds: tuple


def information_set_bounds(
    field: FieldSpec,
    G: np.ndarray,
    target: int | None = None,
    work_budget: int = DEFAULT_WORK_BUDGET,
    sub_checker=None,
) -> ISResult:
    """Bound the minimum distance of the code generated by G.

    Stops as soon as the bounds meet (exact), the optional target lower
    bound is certified, or the work budget (enumerated messages) runs
    out.  sub_checker, if given, maps a codeword array to True when it
    lies in a distinguished subcode; the result then carries a second
    fact for the minimum weight outside that subcode, and the loop runs
    until the bounds outside the subcode meet (the whole code's bounds
    meet no later).
    """
    k, n = G.shape
    if k < 1:
        raise PreconditionError("information-set bounds need dimension >= 1")
    q = field.order
    forms = _systematic_forms(field, G)
    state = _ISState(field, G, work_budget, sub_checker)

    def lower_bound():
        lb = sum(max(0, f.r + 1 - f.deficit) for f in forms)
        if any(f.r >= k for f in forms):
            lb = max(lb, state.threshold)  # fully enumerated
        return min(lb, n + 1)

    def step_cost(f):
        # cost until this form's next contribution to the lower bound
        w_gain = max(f.r + 1, f.deficit)
        return sum(math.comb(k, w) * (q - 1) ** (w - 1) for w in range(f.r + 1, w_gain + 1))

    try:
        while True:
            lb = lower_bound()
            if state.threshold <= lb:
                break
            if target is not None and lb >= target:
                break
            candidates = [f for f in forms if f.r < k]
            if not candidates:
                break
            form = min(candidates, key=lambda f: (step_cost(f), f.r, forms.index(f)))
            _bz_weight_pass(state, form, form.r + 1)
            form.r += 1
    except _BudgetExhausted:
        pass

    lb = lower_bound()
    rounds = tuple(f.r for f in forms)
    if state.ub <= lb:
        fact = DistanceFact(state.ub, "exact", "information_sets", state.witness)
    else:
        fact = DistanceFact(
            lb,
            "lower_bound",
            "information_sets",
            None,
            upper=state.ub if state.witness else None,
            upper_witness=state.witness,
        )
    out = None
    if sub_checker is not None:
        if state.ub_out <= lb:
            out = DistanceFact(state.ub_out, "exact", "information_sets", state.witness_out)
        else:
            out = DistanceFact(
                lb,
                "lower_bound",
                "information_sets",
                None,
                upper=state.ub_out if state.witness_out else None,
                upper_witness=state.witness_out,
            )
    return ISResult(fact, out, state.work, rounds)
