"""Minimum-weight search over linear code spans.

Two walks cover every search, both built by one expansion step
(`_prepend`, which adds every multiple of a row to a block of words):

* the scalar-class walk (`span_blocks`) visits every codeword up to
  scalar multiples in a fixed order.  It serves the exact scan
  (`span_weight_scan`, one word per scalar class) and, as value
  blocks (`span_values`), the word and column searches of the
  propagation rules and the all-nonzero search of the puncture space;
* the by-weight walk of the information-set loop enumerates several
  systematic generator matrices over (mostly) disjoint pivot sets by
  message weight, tightening a lower bound while low-weight witnesses
  tighten the upper bound, until the two meet or a budget runs out.
  Its pass order and lower-bound rule (`_next_form`, `_lower_bound`)
  also drive the cost estimate of `information_sets_if_cheaper`, which
  keeps the bound as a running sum and decides, for a code whose
  scalar classes fit the work budget, whether this walk or the scan
  settles a fact sooner.
  Forms whose pivot sets are cyclic rotations of each other share
  their passes once the code (and the subcode, for relative facts) is
  proved invariant under a cyclic shift; that proof runs once, before
  the first pass that enumerates more than one batch of messages.
  A pass of weight 1 reads the systematic form's own rows, weighing
  each row as it stands.  A pass of weight >= 2 splits a support into a
  head and a tail, builds the words of the heads and of the tails as
  tables, a bounded chunk at a time, and weighs each batch of supports
  from two gathers of those tables.

Inside this module codewords are held as planes, batch axis last, and
the layout depends on the characteristic p alone:

* p = 2 and p = 3 (`_BitPlanes`): packed bit planes in the narrowest
  unsigned word that holds a whole word (8, 16 or 32 symbols), or in
  uint64 words, 64 symbols each, past 32.  Addition is XOR for p = 2
  and six bitwise operations on one-hot trits for p = 3; a distance is
  a popcount of the OR of the planes' XORs.  numpy vectorizes only the
  byte popcount, and its uint16 popcount is the slowest of all widths,
  so 16-bit words are counted as bytes and each word's two byte counts
  added in place.
* p >= 5 (`_DigitPlanes`): one uint8 plane per base-p digit, added
  modulo p.

Both walks split a block of words into two halves, X and Y (the head
and the negated tail words of a pass), and weigh the sum set Y + X as
the distances from X to -Y, so their heaviest step never forms the
sums.  Distances come in the narrowest unsigned integer that holds the
weights they add up to.  Planes unpack to field values only for
witnesses and for `span_values`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, EaqeccError, PreconditionError
from .fields import FieldSpec
from .matrix import MatrixFq, gf_matmul, in_row_space

# the one bound on distance effort, in messages or scalar classes read
DEFAULT_WORK_BUDGET = 10**8
_BLOCK_TARGET = 1 << 16
# Words per batch of information-set supports, and the cap on a pass's
# tail table, head chunk and span.  Each batch is one weighing call, so
# small batches pay numpy's per-call costs more often and large ones
# leave the cache.  The paper pair (the [29,14]_9 code's distance and
# its dual's outside the hull) took a median 85 / 73 / 68 / 95 ms at
# 2^15 / 2^16 / 2^17 / 2^18 words, at a traced peak of 0.40 / 0.56 /
# 0.89 / 1.63 MiB (2 vCPUs, CPython 3.11, numpy 2.4).
_BATCH_WORDS = 1 << 17
# `information_set_bounds` runs its cyclic-shift test only before a pass
# of more messages than this: the unpermuted binary [47,24] QR code,
# whose weight-5 pass has 42,504 messages, charges 68,404 messages with
# the credit and 110,908 without it.
_SHIFT_TEST_WORDS = 1 << 15
_TENSOR_ELEM_CAP = 1 << 28
# The cost model of `information_sets_if_cheaper`, in microseconds, on 2
# vCPUs (CPython 3.11, numpy 2.4).  The per-class and per-message costs
# are the rates of large runs: scans of 4 * 10^5 to 5 * 10^6 classes
# over GF(2) to GF(25) took 2.0-5.9 ns a class, and information-set runs
# of 2.6 * 10^5 and 4.6 * 10^7 messages 9.0 and 7.7 ns a message.  The
# fixed costs, rounded, come from 723 exact facts with both engines timed
# on each (best of 3-5): the distance calls of two construct-propagate
# rounds (seeds 11 and 5) and 270 random codes over nine fields,
# 6 <= n <= 40.  Enumeration's is the median of the time left after the
# classes, and information sets' a least-squares fit of what is left
# after the messages.
_ENUM_CALL_US = 200        # per scan: set-up, the first blocks, witnesses
_ENUM_CLASS_US = 0.0035    # per scalar class walked
_IS_CALL_US = 210          # per run: state, subcode RREF, result
_IS_FORM_US = 21           # per systematic form: its RREF
_IS_PASS_US = 116          # per weight pass read: plane tables, batches
_IS_MESSAGE_US = 0.009     # per message read


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


class _BitPlanes:
    """Words of length m over GF(p^s), p in {2, 3}, as packed bit planes.

    Shape (P, W, *batch), batch last so that each plane op runs over
    contiguous words.  A plane word is the narrowest unsigned integer
    that holds m bits (uint8, uint16 or uint32), or uint64 past 32
    bits; W = max(1, ceil(m / bits)) and bit i of word j is symbol
    bits * j + i.  For p = 2 plane t holds digit t of each symbol
    (P = s) and field addition is XOR.  For p = 3 planes t and s + t
    flag digit t equal to 1 and to 2 (P = 2 s), a one-hot trit added in
    six bitwise operations.  Either way a symbol is nonzero, or two
    symbols differ, exactly when some plane has (or differs in) that
    bit.  Distances come in the narrowest unsigned integer that holds
    n + 1, n >= m the largest weight a caller forms from them.  A
    16-bit word is counted as two bytes whose counts are then added in
    place: numpy vectorizes only the byte popcount, and its uint16 one
    runs slower than its uint32 and uint64 ones, which the wider words
    keep (counted through bytes, they ran slower).
    """

    def __init__(self, field: FieldSpec, m: int, n: int):
        self.field, self.m = field, m
        self.counts = np.min_scalar_type(n + 1)
        self.bits = next(b for b in (8, 16, 32, 64) if m <= b or b == 64)
        # distance starts from word 0, so m = 0 keeps one all-zero word
        self.words = max(1, -(-m // self.bits))
        self.dtype = np.dtype(f"u{self.bits // 8}")
        self.packed = self.dtype.newbyteorder("<")  # byte order of packbits' output
        p, s = field.p, field.s
        # what a set bit of each plane adds to its symbol's value
        self.plane_values = [v * p**t for v in range(1, p) for t in range(s)]

    def encode(self, vals: np.ndarray) -> np.ndarray:
        """(*batch, m) field values -> (P, W, *batch) planes."""
        batch, P, N = vals.shape[:-1], len(self.plane_values), math.prod(vals.shape[:-1])
        digits = self.field.DIGITS[vals.reshape(N, self.m)].transpose(2, 0, 1)  # (s, N, m)
        onehot = digits == np.arange(1, self.field.p).reshape(-1, 1, 1, 1)  # (p-1, s, N, m)
        bits = np.zeros((P, N, self.bits * self.words), dtype=bool)
        bits[..., : self.m] = onehot.reshape(P, N, self.m)
        # each row is whole bytes, so packing the flat array packs every
        # row, far faster than packbits along a short axis
        packed = np.packbits(bits.reshape(-1), bitorder="little").view(self.packed)
        packed = packed.astype(self.dtype).reshape(P, N, self.words)
        return np.ascontiguousarray(packed.transpose(0, 2, 1)).reshape((P, self.words) + batch)

    def add(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if self.field.p == 2:
            return A ^ B
        h = len(A) // 2
        a1, a2, b1, b2 = A[:h], A[h:], B[:h], B[h:]
        t = a1 | b2
        t ^= a2 | b1
        # both halves are written in place and take t in one call
        out = np.empty((2,) + t.shape, dtype=t.dtype)
        np.bitwise_or(a2, b2, out=out[0])
        np.bitwise_or(a1, b1, out=out[1])
        out ^= t
        return out.reshape((2 * h,) + t.shape[1:])

    def neg(self, X: np.ndarray) -> np.ndarray:
        if self.field.p == 2:
            return X
        h = len(X) // 2
        return np.concatenate((X[h:], X[:h]))

    def distance(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Positions where the words of A and B differ, batch axes broadcast."""
        # one plane at a time: no temporary holds all P planes
        acc = A[0] ^ B[0]
        for a, b in zip(A[1:], B[1:]):
            acc |= a ^ b
        if self.bits == 16:
            # in place: with byte counts lo and hi, (lo + 256 hi) * 0x0101 >> 8 = lo + hi
            counts = np.ascontiguousarray(acc)
            np.bitwise_count(counts.view(np.uint8), out=counts.view(np.uint8))
            counts *= 0x0101
            counts >>= 8
        else:
            counts = np.bitwise_count(acc)
        # summed word by word: a reduction over W costs more than W adds
        out = counts[0].astype(self.counts, copy=False)
        for c in counts[1:]:
            out += c
        return out

    def values(self, X: np.ndarray) -> np.ndarray:
        """(P, W, *batch) planes -> (*batch, m) field values."""
        out = 0
        for plane, v in zip(X, self.plane_values):
            raw = np.ascontiguousarray(plane.transpose(*range(1, plane.ndim), 0), dtype=self.packed)
            raw = raw.view(np.uint8)
            # unpacked flat, as encode packs
            bits = np.unpackbits(raw.reshape(-1), bitorder="little")
            bits = bits.reshape(raw.shape[:-1] + (8 * raw.shape[-1],))
            out = out + v * bits
        return np.ascontiguousarray(out[..., : self.m])


class _DigitPlanes:
    """Words of length m over GF(p^s), p >= 5, as one uint8 plane per base-p digit.

    Shape (s, m, *batch); every plane holds reduced digits.  Distances
    come as in `_BitPlanes`.
    """

    def __init__(self, field: FieldSpec, m: int, n: int):
        self.field, self.m = field, m
        self.counts = np.min_scalar_type(n + 1)

    def encode(self, vals: np.ndarray) -> np.ndarray:
        digits = self.field.DIGITS[vals.reshape(math.prod(vals.shape[:-1]), self.m)]
        return np.ascontiguousarray(digits.transpose(2, 1, 0)).reshape(
            (self.field.s, self.m) + vals.shape[:-1])

    def add(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        # A + B mod p without leaving uint8: each branch is taken only
        # where it cannot wrap
        D = self.field.p - B
        return np.where(A >= D, A - D, A + B)

    def neg(self, X: np.ndarray) -> np.ndarray:
        return np.where(X == 0, X, self.field.p - X)

    def distance(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return (A != B).any(axis=0).sum(axis=0, dtype=self.counts)

    def values(self, X: np.ndarray) -> np.ndarray:
        out = X[-1]
        for t in range(self.field.s - 2, -1, -1):
            # every partial value is below the final one, so uint8 never wraps
            out = out * self.field.p + X[t]
        return np.ascontiguousarray(out.transpose(*range(1, out.ndim), 0))


def _planes(field: FieldSpec, m: int, n: int | None = None):
    """The plane layout for words of length m: bit planes for p <= 3.

    Distances may be added up to a weight of n (default m) without wrapping.
    """
    return (_BitPlanes if field.p <= 3 else _DigitPlanes)(field, m, m if n is None else n)


def _multiples(planes, rows: np.ndarray) -> np.ndarray:
    """(P, W, k, q) planes of c * rows[i] for every row i and scalar c."""
    q = planes.field.order
    return planes.encode(planes.field.MUL[np.arange(q)[None, :, None], rows[:, None, :]])


def _prepend(planes, mult: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Every word of mult plus every word of T, mult's index varying slowest.

    mult is (P, W, ..., c) and T (P, W, ..., B); the result is
    (P, W, ..., c * B).  Building a span by prepending rows keeps the
    large block as the innermost axis of every operation.
    """
    return planes.add(mult[..., :, None], T[..., None, :]).reshape(T.shape[:-1] + (-1,))


@dataclass
class SpanScan:
    """Exact minimum weights from a full scan of a span."""

    min_weight: int | None
    witness: tuple | None
    outside_min: int | None
    outside_witness: tuple | None
    classes_scanned: int


def scalar_classes(q: int, k: int) -> int:
    """(q^k - 1) / (q - 1) scalar classes of nonzero words in an [n, k]_q code."""
    return (q**k - 1) // (q - 1)


def span_weight_scan(field: FieldSpec, rows: np.ndarray, sub_rows: int = 0) -> SpanScan:
    """Minimum weights over span(rows), one word per scalar class.

    The first `sub_rows` rows generate a distinguished subcode;
    `outside_min` is the minimum weight over span \\ subcode.  With
    sub_rows=0 the subcode is {0} and outside_min equals min_weight.
    The scan is one fold over span_blocks with the subcode rows moved
    last, so a word lies outside the subcode exactly when its lead row
    does; each witness is the first lightest word in that walk.  The
    caller bounds the walk (`scalar_classes`).  Raises EaqeccError when a
    witness does not have the weight the scan measured for it.
    """
    k, n = rows.shape
    if not 0 <= sub_rows <= k:
        raise PreconditionError("sub_rows out of range")
    order = list(range(sub_rows, k)) + list(range(sub_rows))
    planes = _planes(field, n)
    best = {}  # "all", and "out" with a subcode: (weight, witness planes)
    scanned = 0
    for lead, X, Y in span_blocks(planes, rows[order]):
        # Y[i] + X[j] weighs as much as X[j] differs from -Y[i]
        wts = planes.distance(X[..., None, :], planes.neg(Y)[..., :, None]).ravel()
        t = int(np.argmin(wts))
        i, j = divmod(t, X.shape[-1])
        for key in ("all", "out") if sub_rows and lead < k - sub_rows else ("all",):
            if key not in best or wts[t] < best[key][0]:
                best[key] = int(wts[t]), planes.add(Y[..., i : i + 1], X[..., j : j + 1])
        scanned += len(wts)

    def unpack(key):
        if key not in best:
            return None, None
        w, word = best[key]
        witness = tuple(int(v) for v in planes.values(word)[0])
        if sum(1 for v in witness if v) != w:
            raise EaqeccError(f"span word does not have weight {w}")
        return w, witness

    w_all, wit_all = unpack("all")
    w_out, wit_out = unpack("out") if sub_rows else (w_all, wit_all)
    return SpanScan(w_all, wit_all, w_out, wit_out, scanned)


def _block_split(q: int, count: int):
    """How many trailing free rows to expand as one tensor block."""
    b = 0
    while b < count and q ** (b + 1) <= _BLOCK_TARGET:
        b += 1
    return b


def span_blocks(planes, rows: np.ndarray):
    """Yield (lead, X, Y) over span(rows), one word per scalar class.

    The block's words are Y[..., i] + X[..., j], i varying slowest, in
    the caller's plane layout `planes` (`_planes(field, n)`, which also
    weighs them); X and Y hold words batch axis last.  Each word is
    rows[lead] + sum_{r > lead} c_r rows[r]; leads ascend and, within a
    lead, the tails (c_{lead+1}, ..., c_{k-1}) come in lexicographic
    order.
    """
    k = len(rows)
    if not k:
        return
    q = planes.field.order
    mults = _multiples(planes, rows)
    zero = mults[..., 0, :1]  # 0 times row 0

    def span(rs):
        # the span of rows rs, in lexicographic order of their coefficients
        S = zero
        for r in reversed(rs):
            S = _prepend(planes, mults[..., r, :], S)
        return S

    # a block expands the last b rows: X spans the last b - y of them,
    # and Y is the shift plus the span of the other y.  The widest
    # block's B rows give X x = ceil(B/2) of them, and a narrower block
    # keeps up to x rows in X.  The span of the last rows of either set
    # is a prefix of the widest one, so both spans are built once
    B = _block_split(q, k - 1)
    x = (B + 1) // 2
    X, Z = span(range(k - x, k)), span(range(k - B, k - x))
    for lead in range(k):
        b = _block_split(q, k - lead - 1)
        y = max(0, b - x)
        prefix = range(lead + 1, k - b)
        for combo in itertools.product(range(q), repeat=len(prefix)):
            pw = mults[..., lead, 1, None]
            for r, cf in zip(prefix, combo):
                pw = planes.add(pw, mults[..., r, cf, None])
            yield lead, X[..., : q ** (b - y)], planes.add(Z[..., : q**y], pw) if y else pw


def span_values(field: FieldSpec, rows: np.ndarray):
    """span_blocks with each block as (B, n) encoded field elements."""
    planes = _planes(field, rows.shape[1])
    for lead, X, Y in span_blocks(planes, rows):
        yield lead, planes.values(_prepend(planes, Y, X))


# --------------------------------------------------------------------------
# information-set bounding loop
# --------------------------------------------------------------------------


@dataclass(eq=False)
class _SystematicForm:
    field: FieldSpec
    G: np.ndarray          # RREF'd generator, same row space as the input
    pivots: list           # pivot columns
    fresh: list            # pivots inside this form's fresh region
    deficit: int           # k - len(fresh)
    r: int = 0             # message weights enumerated or credited so far

    @functools.cached_property
    def orbit(self) -> int:  # the pivot set's rotation class: read only for the shift test
        return _rotation_class(self.pivots, self.G.shape[1])

    @functools.cached_property
    def multiples(self):
        """(planes, mults): the plane layout of the non-pivot columns, and
        every row multiple in it; built on the form's first pass of
        weight >= 2, as many forms never get one."""
        n = self.G.shape[1]
        nonpiv = sorted(set(range(n)) - set(self.pivots))
        planes = _planes(self.field, len(nonpiv), n)
        return planes, _multiples(planes, self.G[:, nonpiv])


def _systematic_forms(field: FieldSpec, G: np.ndarray):
    """Forms whose pivots favour the columns no earlier form took; the first is G's RREF."""
    M = MatrixFq(field, G)
    k, n = G.shape
    remaining = set(range(n))
    forms = []
    while remaining:
        priority = sorted(remaining) + sorted(set(range(n)) - remaining) if forms else None
        R, rank, pivots = M.rref(pivot_priority=priority)
        if rank < k:
            raise PreconditionError("information-set bounds need independent generator rows")
        fresh = [c for c in pivots if c in remaining]
        if not fresh:
            break
        remaining -= set(fresh)
        forms.append(_SystematicForm(field, R.array, pivots, fresh, k - len(fresh)))
    return forms


def _rotation_class(pivots, n: int) -> int:
    """The least of the n cyclic rotations of a pivot set, as an n-bit mask."""
    mask, full = sum(1 << c for c in pivots), (1 << n) - 1
    return min((mask << t | mask >> (n - t)) & full for t in range(n))


def _shift_invariant(field: FieldSpec, R: np.ndarray, pivots) -> bool:
    """Whether the row space of the RREF rows R is closed under a cyclic column shift."""
    R = R[: len(pivots)]
    return bool(in_row_space(np.roll(R, 1, axis=1), R, pivots, field).all())


class _BudgetExhausted(Exception):
    pass


class _ISState:
    def __init__(self, field, G, budget, subcode=None):
        self.field = field
        self.k, self.n = G.shape
        self.budget = budget
        self.work = 0
        self.ub = self.n + 1
        self.witness = None
        self.sub = None
        if subcode is not None:
            # a word lies in the subcode when its pivot entries rebuild it
            R, rank, pivots = MatrixFq(field, subcode).rref()
            self.sub = R.array[:rank], pivots
        self.ub_out = self.n + 1
        self.witness_out = None

    @property
    def threshold(self):
        return self.ub if self.sub is None else self.ub_out

    def charge(self, leaves, size):
        """Charge `leaves` leaves of `size` messages each, one at a time."""
        fit = (self.budget - self.work) // size
        if leaves > fit:
            self.work += (fit + 1) * size
            raise _BudgetExhausted()
        self.work += leaves * size

    def offer_leaves(self, form, supports, wts):
        """Charge the leaves in order and offer each one's words below the threshold.

        wts[j] holds the weights of the words of supports[j]; a leaf is
        charged before its words are offered, so a budget that runs out
        stops at the leaf where it ran out.  Most batches hold no word
        below the threshold, and one minimum over the batch settles them
        for less than a minimum per leaf.
        """
        if wts.min() >= self.threshold:
            self.charge(len(wts), wts.shape[1])
            return
        charged = 0
        mins = wts.min(axis=1)
        for j in np.flatnonzero(mins < self.threshold).tolist():
            if mins[j] < self.threshold:  # the threshold only falls
                self.charge(j + 1 - charged, wts.shape[1])
                charged = j + 1
                self._offer_leaf(form, supports[j], wts[j])
        self.charge(len(wts) - charged, wts.shape[1])

    def offer_rows(self, form):
        """The weight-1 pass: message i, coefficient 1 on pivot i, is row i of the form.

        Each row is a leaf of one message, charged in row order before
        it is offered, and weighed from the row itself; one product tests
        every light row for the subcode.
        """
        wts = np.count_nonzero(form.G, axis=1)
        light = np.flatnonzero(wts < self.threshold).tolist()
        inside = np.zeros(self.k, dtype=bool)
        if self.sub is not None and light:
            inside[light] = in_row_space(form.G[light], *self.sub, self.field)
        charged = 0
        for j in light:
            self.charge(j + 1 - charged, 1)
            charged = j + 1
            self._offer(form.G[j : j + 1], wts[j : j + 1], inside[j : j + 1])
        self.charge(self.k - charged, 1)

    def _offer_leaf(self, form, support, wts):
        """Offer every word below the threshold, lightest first.

        A light word of the subcode must not hide a light word outside
        it, so all of them are encoded and tested in one product each.
        """
        idx = np.flatnonzero(wts < self.threshold)
        idx = idx[np.argsort(wts[idx], kind="stable")]
        # the flat index enumerates later levels fastest
        q1, w = self.field.order - 1, len(support)
        msgs = np.zeros((len(idx), self.k), dtype=np.uint8)
        msgs[:, support[0]] = 1
        for level, i in enumerate(support[1:], 1):
            msgs[:, i] = idx // q1 ** (w - 1 - level) % q1 + 1
        words = gf_matmul(msgs, form.G, self.field)
        wrong = np.flatnonzero((words != 0).sum(axis=1) != wts[idx])
        if len(wrong):
            raise EaqeccError(f"information-set word does not have weight {wts[idx[wrong[0]]]}")
        inside = None if self.sub is None else in_row_space(words, *self.sub, self.field)
        self._offer(words, wts[idx], inside)

    def _offer(self, words, wts, inside):
        """Offer words in order until one reaches the threshold.

        A word lighter than ub becomes the witness; with a subcode, one
        lighter than ub_out and not `inside` it becomes the outside witness.
        """
        for t, weight in enumerate(wts.tolist()):
            if weight >= self.threshold:
                return
            if weight < self.ub:
                self.ub = weight
                self.witness = tuple(words[t].tolist())
            if self.sub is not None and weight < self.ub_out and not inside[t]:
                self.ub_out = weight
                self.witness_out = tuple(words[t].tolist())


@dataclass(eq=False)
class _Supports:
    """Message supports as pairs of rows: support j is heads[hi[j]] then tails[ti[j]]."""

    heads: np.ndarray
    tails: np.ndarray
    hi: np.ndarray
    ti: np.ndarray

    def __len__(self):
        return len(self.hi)

    def __getitem__(self, j):
        return np.concatenate((self.heads[self.hi[j]], self.tails[self.ti[j]]))


def _bz_weight_pass(state: _ISState, form: _SystematicForm, w: int):
    """Enumerate all messages of weight w for one systematic form.

    The k messages of weight 1 are the form's rows, offered as they
    stand (`_ISState.offer_rows`); the tables and the kernel below serve
    the passes of weight >= 2.  Supports come in combinations order, in
    batches of at most _BATCH_WORDS words (one support when its leaf
    alone is larger); each support's leaf holds its (q-1)^(w-1)
    messages, first coefficient 1 and later levels varying fastest.

    A support splits into a head, its first w - t columns, and a tail,
    its last t.  The negated words of every tail, and the words of the
    heads (level 0 with coefficient 1, plus the other head levels), are
    built as tables, and a message weighs as much as its head word
    differs from its tail word: the sums are never built.  In
    combinations order the tails that follow a head are the tails past
    its last column, a suffix of all tails, so a batch needs only index
    arithmetic, two gathers and one weighing.  Memory stays bounded: t
    is the largest up to w // 2 whose tail table fits in _BATCH_WORDS
    words, heads are read in chunks of at most _BATCH_WORDS words, and
    head words and support indices are built for one span of
    _BATCH_WORDS supports (one batch, when larger) at a time, so a
    budget that stops a pass early has built little more than its
    batches need.  Each batch is weighed in one kernel call: with
    2^17-word batches the paper code's weight-5 passes weigh 32 supports
    of 4096 messages a call, against 8 at 2^15 words.
    """
    field = state.field
    q = field.order
    k = state.k
    if w > k:
        return
    leaf = (q - 1) ** (w - 1)
    if w >= state.threshold:
        # no codeword from this pass can beat the current upper bound
        # (its weight is at least the message weight); the pass still
        # counts as completed for the lower-bound bookkeeping
        state.charge(1, _pass_size(q, k, w))
        return
    if w == 1:
        state.offer_rows(form)
        return
    planes, mults = form.multiples
    if leaf * planes.m * field.s > _TENSOR_ELEM_CAP:
        raise BudgetError("weight-pass tensor would exceed the memory cap")
    t = w // 2
    while t and math.comb(k - w + t, t) * (q - 1) ** t > _BATCH_WORDS:
        t -= 1
    a = w - t
    index = np.min_scalar_type(k)  # small support arrays keep peak memory flat
    # a tail starts past the first head's last column, at column a
    tails = np.array(list(itertools.combinations(range(a, k), t)), dtype=index)
    if t:
        neg = field.NEG[1:q]
        Y = mults[..., tails[:, -1, None], neg]
        for level in range(t - 2, -1, -1):
            Y = _prepend(planes, mults[..., tails[:, level, None], neg], Y)
    else:
        Y = mults[..., :1, :1]  # the zero word: 0 times row 0
    heads = itertools.combinations(range(k - t), a)  # each leaves room for a tail
    per_chunk = max(1, _BATCH_WORDS // (q - 1) ** (a - 1))
    batch = max(1, _BATCH_WORDS // leaf)
    span = max(batch, _BATCH_WORDS)
    rows = np.min_scalar_type(max(per_chunk, len(tails)))  # row indices into H and tails
    while True:
        H = np.fromiter(itertools.chain.from_iterable(itertools.islice(heads, per_chunk)),
                        dtype=index).reshape(-1, a)
        if not len(H):
            return
        # head i takes the tails past its last column, the last ones; its
        # supports end at ends[i], and support g takes tail
        # g - ends[i] + len(tails)
        ends = ((len(tails) - tails[:, 0].searchsorted(H[:, -1], "right")).cumsum()
                if t else np.arange(1, len(H) + 1))
        total = int(ends[-1])
        for g0 in range(0, total, span):
            g1 = min(g0 + span, total)
            # supports g0..g1 - 1 belong to heads h0..h1 - 1, lead[i] to head h0 + i
            h0, h1 = ends.searchsorted(g0, "right"), ends.searchsorted(g1 - 1, "right") + 1
            lead = np.minimum(ends[h0:h1], g1)
            lead[1:] -= lead[:-1]
            lead[0] -= g0
            hi = np.repeat(np.arange(h1 - h0, dtype=rows), lead)
            ti = np.arange(g0 + len(tails), g1 + len(tails))
            ti -= np.repeat(ends[h0:h1], lead)
            ti = ti.astype(rows)
            X = mults[..., H[h0:h1, 0], 1, None]
            for level in range(a - 1, 0, -1):
                X = _prepend(planes, mults[..., H[h0:h1, level], 1:], X)
            for b in range(0, g1 - g0, batch):
                hb, tb = hi[b : b + batch], ti[b : b + batch]
                wts = planes.distance(np.take(X, hb, axis=-2)[..., :, None],
                                      np.take(Y, tb, axis=-2)[..., None, :])
                wts += w
                state.offer_leaves(form, _Supports(H[h0:h1], tails, hb, tb),
                                   wts.reshape(len(wts), -1))


def _pass_size(q: int, k: int, w: int) -> int:
    """Messages of weight w on one form: supports times leaves, first coefficient 1."""
    return math.comb(k, w) * (q - 1) ** (w - 1)


@functools.lru_cache(maxsize=4096)
def _step_cost(q: int, k: int, r: int, deficit: int) -> int:
    """Messages a form that enumerated weights up to r, with `deficit`,
    enumerates until it next raises the lower bound."""
    return sum(_pass_size(q, k, w) for w in range(r + 1, max(r + 1, deficit) + 1))


def _lower_bound(forms, k: int, n: int, threshold: int) -> int:
    """The minimum weight that the forms' enumerated weights prove.

    A word missed by a form that enumerated weights up to r has at least
    r + 1 nonzeros on its k pivots, of which at least r + 1 - deficit
    are fresh, and fresh columns of different forms are disjoint.  A
    form enumerated up to k has seen every word, so nothing lies below
    the threshold, the lightest word found.
    """
    lb = sum(max(0, f.r + 1 - f.deficit) for f in forms)
    if any(f.r >= k for f in forms):
        lb = max(lb, threshold)  # fully enumerated
    return min(lb, n + 1)


def _next_form(forms, q: int, k: int):
    """The form whose pass runs next: the cheapest step to a raise of the
    lower bound, then the least r, then the first; None once all are done."""
    best = min(((_step_cost(q, k, f.r, f.deficit), f.r, i) for i, f in enumerate(forms) if f.r < k),
               default=None)
    return None if best is None else forms[best[2]]


@dataclass(eq=False)
class _Tally:
    """A generic form for the cost estimate: its deficit and enumerated weight."""

    deficit: int
    r: int = 0


def information_sets_if_cheaper(q: int, n: int, k: int, upper: int) -> int | None:
    """The messages of an exact information-set run, when its estimated
    time is below that of scalar-class enumeration; None otherwise.

    `upper` is the weight of a word of the measured set, so it bounds
    the answer from above.  Enumeration walks q^k / (q - 1) scalar
    classes.  The information-set loop is replayed on generic forms, form
    i with min(k, n - i k) fresh columns, in its own pass order
    (`_next_form`, `_lower_bound`): its first pass reads the rows that
    give `upper`, and it stops once the lower bound reaches `upper`.
    The messages are those it charges to its work budget.  The replay
    stops as soon as its time passes enumeration's.  Each pass raises
    one form's r by one, so the lower bound's sum is kept as it changes,
    not re-summed.

    No form reaches r = k (`_lower_bound`'s fully-enumerated case) within
    enumeration's time: its passes would read all (q^k - 1) / (q - 1)
    messages, each dearer than a scalar class, on top of a fixed cost
    above enumeration's.  Every pass is read, as it
    runs at r no greater than the lower bound, below `upper`; a form with
    a deficit never gets ahead of one without, which costs no more at
    equal r and comes first in `_next_form`.
    """
    budget_us = _ENUM_CALL_US + _ENUM_CLASS_US * q**k / (q - 1)
    forms = [_Tally(k - min(k, n - i * k)) for i in range(-(-n // k))]
    spent_us = _IS_CALL_US + _IS_FORM_US * len(forms)
    threshold, messages = n + 1, 0
    fresh = n // k  # _lower_bound's sum at r = 0: the forms with no deficit
    while spent_us < budget_us:
        if fresh >= threshold:
            return messages
        form = _next_form(forms, q, k)
        form.r += 1
        fresh += form.r >= form.deficit
        size = _pass_size(q, k, form.r)
        messages += size
        spent_us += _IS_PASS_US + _IS_MESSAGE_US * size
        threshold = upper
    return None


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
    subcode: np.ndarray | None = None,
) -> ISResult:
    """Bound the minimum distance of the code generated by G.

    Stops as soon as the bounds meet (exact), the optional target lower
    bound is certified, or the work budget (enumerated messages) runs
    out.  subcode, if given, holds generator rows of a distinguished
    subcode; the result then carries a second fact for the minimum
    weight outside that subcode, and the loop runs until the bounds
    outside the subcode meet (the whole code's bounds meet no later).

    `rounds` holds each form's r: the message weights it enumerated, or
    was credited with.  Passes weigh supports in batches of at most
    _BATCH_WORDS words; a batch sets only how many supports one weighing
    takes, as supports are charged and offered in combinations order.
    Just before the first pass that enumerates more than _SHIFT_TEST_WORDS
    messages, and only when two forms' pivot sets are cyclic rotations
    of each other, one test checks that a one-column cyclic shift maps
    the code (and the subcode) onto itself.  If it does, a pass on one
    form counts for every form in its rotation class, passes already run
    included: a word with at most r nonzeros on a rotated pivot set is
    the rotation of a word with at most r nonzeros on the enumerated
    one, of the same weight and inside the subcode exactly when that
    word is.
    """
    k, n = G.shape
    if k < 1:
        raise PreconditionError("information-set bounds need dimension >= 1")
    q = field.order
    forms = _systematic_forms(field, G)
    state = _ISState(field, G, work_budget, subcode)

    def lower_bound():
        return _lower_bound(forms, k, n, state.threshold)

    def credit(form):
        for f in forms:
            if f.orbit == form.orbit:
                f.r = max(f.r, form.r)

    unproved, cyclic = True, False
    try:
        while True:
            lb = lower_bound()
            if state.threshold <= lb:
                break
            if target is not None and lb >= target:
                break
            form = _next_form(forms, q, k)
            if form is None:
                break
            w = form.r + 1
            if unproved and _pass_size(q, k, w) > _SHIFT_TEST_WORDS:
                # a loop of small passes skips the test
                unproved = False
                cyclic = len({f.orbit for f in forms}) < len(forms) and _shift_invariant(
                    field, forms[0].G, forms[0].pivots) and (
                    state.sub is None or _shift_invariant(field, *state.sub))
                if cyclic:
                    for f in forms:
                        credit(f)
                continue
            _bz_weight_pass(state, form, w)
            form.r = w
            if cyclic:
                credit(form)
    except _BudgetExhausted:
        pass

    lb = lower_bound()

    def fact(ub, witness):
        if ub <= lb:
            return DistanceFact(ub, "exact", "information_sets", witness)
        return DistanceFact(
            lb, "lower_bound", "information_sets", None,
            upper=ub if witness else None, upper_witness=witness,
        )

    out = None if subcode is None else fact(state.ub_out, state.witness_out)
    return ISResult(fact(state.ub, state.witness), out, state.work, tuple(f.r for f in forms))
