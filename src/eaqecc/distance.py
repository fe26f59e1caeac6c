"""Minimum-weight search over linear code spans.

Two engines share a common vectorized core:

* full span scanning - every codeword up to scalar multiples, exact
  answer, feasible while q^k stays below the enumeration cap;
* an information-set bounding loop - several systematic generator
  matrices over (mostly) disjoint pivot sets are enumerated by message
  weight, tightening a lower bound while low-weight witnesses tighten
  the upper bound, until the two meet or a work budget runs out.

Codewords are handled as per-digit planes (base-p coefficients of each
symbol) so that field addition becomes plain integer addition with a
deferred reduction; only tiny 256-entry lookup tables appear in the
inner loops.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, PreconditionError
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
    """(s, n) raw planes -> encoded element values, reducing mod p."""
    _, val8 = _mod_tables(field.p)
    out = np.zeros(planes.shape[1], dtype=np.int64)
    for j in range(field.s - 1, -1, -1):
        out = out * field.p + val8[planes[j]]
    return out.astype(np.uint8)


def _reduce_planes(field: FieldSpec, planes: np.ndarray) -> np.ndarray:
    _, val8 = _mod_tables(field.p)
    return val8[planes]


def _add_planes(field: FieldSpec, A: np.ndarray, B: np.ndarray, reduce_now: bool) -> np.ndarray:
    """A + B on digit planes; stays in uint8, widening when p could wrap."""
    if field.p > 128:
        # two reduced planes can sum past 255; widen, reduce, narrow
        return ((A.astype(np.uint16) + B) % field.p).astype(np.uint8)
    T = A + B
    return _reduce_planes(field, T) if reduce_now else T


def _symbol_weights(field: FieldSpec, block: np.ndarray) -> np.ndarray:
    """(B, s, n) raw planes -> (B,) nonzero-symbol counts."""
    nz8, _ = _mod_tables(field.p)
    nz = nz8[block]
    sym = nz[:, 0]
    for j in range(1, block.shape[1]):
        sym = sym | nz[:, j]
    return sym.sum(axis=1, dtype=np.int64)


class _Best:
    """Running minimum with witness planes."""

    __slots__ = ("weight", "planes")

    def __init__(self):
        self.weight = None
        self.planes = None

    def offer(self, wts: np.ndarray, block: np.ndarray):
        if wts.size == 0:
            return
        i = int(np.argmin(wts))
        w = int(wts[i])
        if self.weight is None or w < self.weight:
            self.weight = w
            self.planes = block[i].copy()


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
    """Scan the span of `rows` (one representative per scalar class).

    The first `sub_rows` rows generate a distinguished subcode;
    `outside_min` is the minimum weight over span \\ subcode.  With
    sub_rows=0 the subcode is {0} and outside_min equals min_weight.
    Raises BudgetError when q^k exceeds the cap.
    """
    k, n = rows.shape
    q = field.order
    if not 0 <= sub_rows <= k:
        raise PreconditionError("sub_rows out of range")
    if q**k > cap:
        raise BudgetError(f"q^k = {q}^{k} exceeds enumeration cap {cap}")
    mults = [_row_multiple_planes(field, rows[i]) for i in range(k)]
    best_all = _Best()
    best_out = _Best()
    scanned = 0

    def scan(lead, free, best_targets):
        nonlocal scanned
        scanned += _scan_lead(field, mults, lead, free, best_targets)

    for lead in range(sub_rows, k):
        free = list(range(lead + 1, k)) + list(range(sub_rows))
        scan(lead, free, (best_all, best_out))
    for lead in range(sub_rows):
        scan(lead, list(range(lead + 1, sub_rows)), (best_all,))

    def unpack(b):
        if b.weight is None:
            return None, None
        return b.weight, tuple(int(v) for v in _planes_to_values(field, b.planes))

    w_all, wit_all = unpack(best_all)
    w_out, wit_out = unpack(best_out) if sub_rows else (w_all, wit_all)
    return SpanScan(w_all, wit_all, w_out, wit_out, scanned)


def _block_split(q: int, count: int):
    """How many trailing free rows to expand as one tensor block."""
    b = 0
    size = 1
    while b < count and size * q <= _BLOCK_TARGET:
        size *= q
        b += 1
    return b


def _scan_lead(field, mults, lead, free, best_targets) -> int:
    """Scan words lead_row + span(free rows), lead coefficient fixed to 1."""
    q, p, s = field.order, field.p, field.s
    n = mults[0].shape[2]
    b = _block_split(q, len(free))
    suffix, prefix = free[len(free) - b :], free[: len(free) - b]
    reduce_levels = (p - 1) * (b + 2) > 255

    T = np.zeros((1, s, n), dtype=np.uint8)
    for r in suffix:
        T = _add_planes(
            field, T[:, None, :, :], mults[r][None, :, :, :], reduce_levels
        ).reshape(-1, s, n)

    base = mults[lead][1]
    scanned = 0
    for combo in itertools.product(range(q), repeat=len(prefix)):
        pw = base
        for r, cf in zip(prefix, combo):
            pw = _add_planes(field, pw, mults[r][cf], True)
        block = _add_planes(field, T, pw[None, :, :], reduce_levels)
        wts = _symbol_weights(field, block)
        for tgt in best_targets:
            tgt.offer(wts, block)
        scanned += block.shape[0]
    return scanned


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
        assert int((word != 0).sum()) == weight
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
        i = int(np.argmin(wts))
        if int(wts[i]) < state.threshold:
            coeffs = [1]
            rest = i
            for _ in range(w - 1):
                coeffs.append(rest % (q - 1) + 1)
                rest //= q - 1
            # flat index enumerates later levels fastest; rebuild in order
            coeffs = [1] + list(reversed(coeffs[1:]))
            state.offer_message(form, support, coeffs, int(wts[i]))

    def rec(start, depth, T, support):
        remaining = w - depth
        for i in range(start, k - remaining + 1):
            if depth == 0:
                T2 = mults[i][1:2].copy()
            else:
                T2 = _add_planes(
                    field, T[:, None, :, :], mults[i][None, 1:, :, :], reduce_levels
                ).reshape(-1, s, m)
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
    fact for the minimum weight outside that subcode.
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
            lb = max(lb, state.ub)  # fully enumerated
        return min(lb, n + 1)

    def step_cost(f):
        # cost until this form's next contribution to the lower bound
        w_gain = max(f.r + 1, f.deficit)
        return sum(math.comb(k, w) * (q - 1) ** (w - 1) for w in range(f.r + 1, w_gain + 1))

    try:
        while True:
            lb = lower_bound()
            if state.ub <= lb:
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
