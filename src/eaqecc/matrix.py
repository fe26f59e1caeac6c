"""Dense linear algebra over GF(q) and GF(q^2).

Matrices are immutable wrappers around uint8 numpy arrays whose entries
are encoded field elements.  Everything here is exact: row reduction,
rank, kernels, Hermitian transposes, and the congruence transform that
diagonalizes Hermitian matrices.  The kernels make whole-array table
lookups, not Python loops over entries.  `gf_matmul` gathers all
products MUL[a_it, b_tj] of a block of rows, shape (rows, k, n), then
sums over t: XOR for p = 2, integers mod p for prime fields, each base-p
digit (DIGITS) mod p otherwise; blocks hold a fixed number of entries.
`MatrixFq.rref` returns a matrix already in RREF as it is; otherwise a
Python scan of each pivot column finds the pivot and one NEG/MUL/ADD
lookup clears it from every other row.  `gf_ranks` ranks a stack of
matrices with one forward elimination over the whole stack.

Text format (one matrix per file)::

    q=9 rows=2 cols=3 kind=generator name=demo
    1 0 3
    0 1 7

The header carries the field order plus optional extra fields; rows are
space-separated encoded elements.  Writing then reading is bit-exact.
"""

from __future__ import annotations

import numpy as np

from .errors import EaqeccError, InvalidFieldError, PreconditionError, RecordParseError
from .fields import GF, FieldSpec


MAX_TEXT_DIM = 1 << 16  # larger text-format shapes are rejected before allocating
_GATHER_CAP = 1 << 18  # entries of the (rows, k, n) product table gf_matmul holds at once


def check_text_shape(rows: int, cols: int, line_number=None):
    """Raise RecordParseError unless 0 <= rows, cols <= MAX_TEXT_DIM."""
    if not (0 <= rows <= MAX_TEXT_DIM and 0 <= cols <= MAX_TEXT_DIM):
        raise RecordParseError(f"shape {rows}x{cols} outside [0, {MAX_TEXT_DIM}]", line_number)


def gf_matmul(A: np.ndarray, B: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Matrix product over the field; A is (m, k), B is (k, n)."""
    m, kk = A.shape
    k2, n = B.shape
    if kk != k2:
        raise PreconditionError(f"shape mismatch {A.shape} @ {B.shape}")
    p, q, s = field.p, field.order, field.s
    cols = np.arange(kk)[:, None] * q + B  # entry t*q + b of a row of MUL[A] is MUL[a_t, b]
    out = np.empty((m, n), dtype=np.uint8)
    step = max(1, _GATHER_CAP // max(1, kk * max(n, q)))
    for i in range(0, m, step):
        rows = A[i : i + step]
        terms = field.MUL.take(rows, axis=0).reshape(len(rows), kk * q).take(cols, axis=1)
        if p == 2:
            out[i : i + step] = np.bitwise_xor.reduce(terms, axis=1)
        elif s == 1:
            out[i : i + step] = terms.sum(axis=1) % p
        else:
            digits = field.DIGITS.T.take(terms, axis=1).sum(axis=2) % p  # (s, rows, n)
            out[i : i + step] = (p ** np.arange(s) @ digits.reshape(s, -1)).reshape(len(rows), n)
    return out


def gf_ranks(field: FieldSpec, stack: np.ndarray) -> np.ndarray:
    """Ranks of a (T, m, n) stack of matrices, by one forward elimination of all T.

    Each column's pivot is the first unused row with a nonzero entry there;
    it clears the column from the other unused rows.  Rank = rows used.
    """
    MUL, ADD, NEG, INV = field.MUL, field.ADD, field.NEG, field.INV
    S = np.asarray(stack, dtype=np.uint8)
    T, m, n = S.shape
    used, every = np.zeros((T, m), dtype=bool), np.arange(T)
    for c in range(n if m else 0):
        free = (S[:, :, c] != 0) & ~used
        piv = free.argmax(axis=1)
        used[every, piv] |= free.any(axis=1)
        rows = S[every, piv]  # (T, n); where no row is free the column is already clear
        factors = MUL[NEG[S[:, :, c]], INV[rows[:, c]][:, None]]
        factors[used] = 0
        S = ADD[S, MUL[factors[:, :, None], rows[:, None, :]]]
    return used.sum(axis=1)


def in_row_space(words: np.ndarray, R: np.ndarray, pivots, field: FieldSpec) -> np.ndarray:
    """Mask of the rows of `words` in the row space of the RREF rows R.

    A word lies in that space exactly when its entries at R's pivot
    columns, taken as coefficients of R's rows, rebuild it.
    """
    return (gf_matmul(words[:, pivots], R, field) == words).all(axis=1)


class MatrixFq:
    """Immutable dense matrix over a FieldSpec."""

    __slots__ = ("field", "array")

    def __init__(self, field: FieldSpec, data):
        arr = np.asarray(data, dtype=np.uint8)
        if arr.ndim != 2:
            raise PreconditionError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        if arr.size and int(arr.max()) >= field.order:
            raise PreconditionError(f"entry {int(arr.max())} out of range for GF({field.order})")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "array", arr)

    def __setattr__(self, *_):
        raise AttributeError("MatrixFq is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, field, n):
        return cls(field, np.eye(n, dtype=np.uint8))

    # -- basic shape/access ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, MatrixFq)
            and self.field == other.field
            and self.array.shape == other.array.shape
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self):
        return hash((self.field, self.array.tobytes(), self.array.shape))

    def __repr__(self):
        return f"MatrixFq(GF({self.field.order}), {self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not self.array.any()

    # -- algebra ---------------------------------------------------------------

    def __matmul__(self, other: "MatrixFq") -> "MatrixFq":
        if self.field != other.field:
            raise InvalidFieldError("matrix product across different fields")
        return MatrixFq(self.field, gf_matmul(self.array, other.array, self.field))

    def transpose(self) -> "MatrixFq":
        return MatrixFq(self.field, self.array.T)

    def conj(self) -> "MatrixFq":
        self.field._require_square()
        return MatrixFq(self.field, self.field.CONJ[self.array])

    def hermitian_transpose(self) -> "MatrixFq":
        """Entry-wise conjugation followed by transposition."""
        self.field._require_square()
        return MatrixFq(self.field, self.field.CONJ[self.array].T)

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and self == self.hermitian_transpose()

    def vstack(self, other: "MatrixFq") -> "MatrixFq":
        if self.field != other.field or self.cols != other.cols:
            raise PreconditionError("vstack needs matching fields and widths")
        return MatrixFq(self.field, np.vstack([self.array, other.array]))

    def hstack(self, other: "MatrixFq") -> "MatrixFq":
        if self.field != other.field or self.rows != other.rows:
            raise PreconditionError("hstack needs matching fields and heights")
        return MatrixFq(self.field, np.hstack([self.array, other.array]))

    def scale_cols(self, scalars) -> "MatrixFq":
        scalars = np.asarray(scalars, dtype=np.uint8)
        if scalars.shape != (self.cols,):
            raise PreconditionError("need one scalar per column")
        return MatrixFq(self.field, self.field.MUL[self.array, scalars[None, :]])

    def permute_cols(self, perm) -> "MatrixFq":
        perm = list(perm)
        if sorted(perm) != list(range(self.cols)):
            raise PreconditionError(f"not a permutation of 0..{self.cols - 1}: {perm}")
        return MatrixFq(self.field, self.array[:, perm])

    # -- elimination -------------------------------------------------------------

    def rref(self, pivot_priority=None):
        """Reduced row echelon form.

        pivot_priority optionally reorders the column scan (used by the
        information-set distance machinery); row operations still apply
        across the full width.  Returns (rref matrix, rank, pivot columns
        in scan order); with the default order, a matrix already in RREF
        is returned as it is.
        """
        if pivot_priority is None:
            reduced = self._reduced_pivots()
            if reduced is not None:
                return self, len(reduced), reduced
        R = self.array.copy()
        m, n = R.shape
        MUL, ADD, NEG, INV = self.field.MUL, self.field.ADD, self.field.NEG, self.field.INV
        order = list(pivot_priority) if pivot_priority is not None else list(range(n))
        if pivot_priority is not None:
            seen = set(order)
            order += [c for c in range(n) if c not in seen]
        pivots = []
        prow = 0
        for col in order:
            if prow >= m:
                break
            column = R[:, col].tolist()
            hit = next((r for r in range(prow, m) if column[r]), -1)
            if hit < 0:
                continue
            if hit != prow:
                R[[prow, hit]] = R[[hit, prow]]
                column[prow], column[hit] = column[hit], column[prow]
            pv, column[prow] = column[prow], 0
            if pv != 1:
                R[prow] = MUL[INV[pv]].take(R[prow])
            if any(column):  # clear the column from every other row at once
                R = ADD[R, MUL.take(NEG.take(column), axis=0).take(R[prow], axis=1)]
            pivots.append(col)
            prow += 1
        return MatrixFq(self.field, R), prow, pivots

    def _reduced_pivots(self):
        """Pivot columns if the matrix is in RREF already, else None."""
        rows, pivots = self.array.tolist(), []
        for row in rows:  # each row led by a 1, right of the lead above
            if next(filter(None, row), 0) != 1 or pivots and row.index(1) <= pivots[-1]:
                break
            pivots.append(row.index(1))
        if any(map(any, rows[len(pivots) :])):  # only zero rows follow
            return None
        unit = np.count_nonzero(self.array.take(pivots, axis=1)) == len(pivots)
        return pivots if unit else None

    def rank(self) -> int:
        return self.rref()[1]

    def inverse(self) -> "MatrixFq":
        """Inverse of a nonsingular square matrix (Gauss-Jordan)."""
        if self.rows != self.cols:
            raise PreconditionError("only square matrices invert")
        aug = MatrixFq(self.field, np.hstack([self.array, np.eye(self.rows, dtype=np.uint8)]))
        R, rank, _ = aug.rref()
        if rank < self.rows:
            raise PreconditionError("matrix is singular")
        return MatrixFq(self.field, R.array[:, self.rows :])

    def kernel(self) -> "MatrixFq":
        """Basis of the right null space, one vector per row."""
        R, rank, pivots = self.rref()
        n = self.cols
        pivot_set = set(pivots)
        free = [c for c in range(n) if c not in pivot_set]
        basis = np.zeros((len(free), n), dtype=np.uint8)
        basis[np.arange(len(free)), free] = 1
        basis[:, pivots] = self.field.NEG[R.array[:rank, free]].T
        return MatrixFq(self.field, basis)

    # -- text format ----------------------------------------------------------------

    def to_text(self, **extra) -> str:
        parts = [f"q={self.field.order}", f"rows={self.rows}", f"cols={self.cols}"]
        parts += [f"{k}={v}" for k, v in extra.items() if v is not None]
        lines = [" ".join(parts)]
        for r in range(self.rows):
            lines.append(" ".join(str(int(v)) for v in self.array[r]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str):
        """Parse the text format; returns (matrix, extra header fields)."""
        lines = [ln for ln in text.splitlines()]
        if not lines or not lines[0].strip():
            raise RecordParseError("missing header line", 1)
        header = {}
        for tok in lines[0].split():
            if "=" not in tok:
                raise RecordParseError(f"malformed header token {tok!r}", 1)
            k, v = tok.split("=", 1)
            header[k] = v
        try:
            q = int(header.pop("q"))
            rows = int(header.pop("rows"))
            cols = int(header.pop("cols"))
        except (KeyError, ValueError) as exc:
            raise RecordParseError(f"header needs integer q/rows/cols ({exc})", 1) from None
        check_text_shape(rows, cols, 1)
        field = GF(q)
        body = [ln for ln in lines[1:] if ln.strip()]
        if len(body) != rows:
            raise RecordParseError(f"expected {rows} rows, found {len(body)}", len(lines))
        data = np.zeros((rows, cols), dtype=np.uint8)
        for i, ln in enumerate(body):
            vals = ln.split()
            if len(vals) != cols:
                raise RecordParseError(f"expected {cols} entries, found {len(vals)}", i + 2)
            for j, v in enumerate(vals):
                try:
                    x = int(v)
                except ValueError:
                    raise RecordParseError(f"bad entry {v!r}", i + 2) from None
                if not 0 <= x < q:
                    raise RecordParseError(f"entry {x} out of range for GF({q})", i + 2)
                data[i, j] = x
        return cls(field, data), header


def hermitian_congruence_diagonalize(A: MatrixFq, rng=None):
    """Nonsingular D with D A D^dagger = Diag(1,...,1,0,...,0).

    A must be Hermitian over a square-order field; the number of ones
    equals rank(A).  With an rng, a random congruence is applied first,
    giving a different (still valid) D; the transform itself stays
    deterministic.  Returns (D, rank).
    """
    field = A.field
    field._require_square()
    if not A.is_hermitian():
        raise PreconditionError("matrix is not Hermitian")
    k = A.rows
    if rng is not None and k > 0:
        R = _random_nonsingular(field, k, rng)
        A2 = R @ A @ R.hermitian_transpose()
        D, s = hermitian_congruence_diagonalize(A2)
        return D @ R, s

    M = A.array.copy()
    D = np.eye(k, dtype=np.uint8)
    MUL, ADD, NEG, CONJ = field.MUL, field.ADD, field.NEG, field.CONJ

    def add_row(i, j, c):
        # row_i += c*row_j mirrored on columns; same row op on D
        M[i] = ADD[M[i], MUL[c, M[j]]]
        M[:, i] = ADD[M[:, i], MUL[CONJ[c], M[:, j]]]
        D[i] = ADD[D[i], MUL[c, D[j]]]

    def swap(i, j):
        M[[i, j]] = M[[j, i]]
        M[:, [i, j]] = M[:, [j, i]]
        D[[i, j]] = D[[j, i]]

    def scale(i, e):
        M[i] = MUL[e, M[i]]
        M[:, i] = MUL[CONJ[e], M[:, i]]
        D[i] = MUL[e, D[i]]

    t = 0
    while t < k:
        sub = M[t:, t:]
        if not sub.any():
            break
        pivot = -1
        for i in range(t, k):
            if M[i, i]:
                pivot = i
                break
        if pivot < 0:
            # all trailing diagonal entries vanish; manufacture one from an
            # off-diagonal entry via the nondegenerate trace form
            pos = np.argwhere(sub)
            i, j = int(pos[0][0]) + t, int(pos[0][1]) + t
            a = int(M[i, j])
            for c in field.nonzero_elements():
                val = field.add(field.mul(c, field.conj(a)), field.mul(field.conj(c), a))
                if val:
                    add_row(i, j, c)
                    break
            pivot = i
        if pivot != t:
            swap(t, pivot)
        d = int(M[t, t])
        e = field.solve_norm(field.inv(d))
        scale(t, e)
        for i in range(t + 1, k):
            f = int(M[i, t])
            if f:
                add_row(i, t, field.neg(f))
        t += 1

    s = t
    want = np.zeros((k, k), dtype=np.uint8)
    for i in range(s):
        want[i, i] = 1
    if not np.array_equal(M, want):
        raise EaqeccError("diagonalization postcondition failed")
    if not np.array_equal(gf_matmul(gf_matmul(D, A.array, field), field.CONJ[D].T, field), want):
        raise EaqeccError("congruence identity failed")
    return MatrixFq(field, D), s


def _random_nonsingular(field, k, rng) -> MatrixFq:
    """Random unit-triangular times permutation: cheap and nonsingular."""
    L = np.eye(k, dtype=np.uint8)
    idx = np.tril_indices(k, -1)
    L[idx] = rng.integers(0, field.order, size=len(idx[0]), dtype=np.uint8)
    perm = rng.permutation(k)
    return MatrixFq(field, L[:, perm])
