import numpy as np
import pytest

from eaqecc import matrix
from eaqecc.errors import PreconditionError, RecordParseError
from eaqecc.fields import GF
from eaqecc.matrix import (
    MatrixFq,
    _random_nonsingular,
    gf_matmul,
    gf_ranks,
    hermitian_congruence_diagonalize,
)
from oracles import brute_matmul, loop_rref
from test_fields import PRIME_POWERS

F9 = GF(9)
F4 = GF(4)
F3 = GF(3)


def test_rref_identity_and_zero():
    I = MatrixFq.identity(F9, 4)
    R, rank, pivots = I.rref()
    assert R == I and rank == 4 and pivots == [0, 1, 2, 3]
    Z = MatrixFq.zeros(F9, 3, 5)
    R, rank, pivots = Z.rref()
    assert R == Z and rank == 0 and pivots == []


def test_rref_standard_form_block():
    # (I_4 | B) with B the all-2 column is already reduced, rank 4
    G = MatrixFq(F9, np.hstack([np.eye(4, dtype=np.uint8), np.full((4, 1), 2, np.uint8)]))
    R, rank, pivots = G.rref()
    assert R == G and rank == 4 and pivots == [0, 1, 2, 3]


def test_rref_row_space_preserved():
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = MatrixFq(F9, rng.integers(0, 9, size=(4, 7), dtype=np.uint8))
        R, rank, _ = M.rref()
        stacked = M.vstack(R)
        assert stacked.rank() == rank == M.rank()


def test_hermitian_transpose_golden():
    M = MatrixFq(F9, [[3, 1]])  # (w, 1)
    H = M.hermitian_transpose()
    assert H.array.tolist() == [[7], [1]]  # (2w+1, 1)^T


def test_hermitian_transpose_on_subfield_matrix_is_transpose():
    M = MatrixFq(F9, [[0, 1, 2], [2, 1, 0]])
    assert M.hermitian_transpose() == M.transpose()


def test_hermitian_transpose_involution():
    rng = np.random.default_rng(2)
    for _ in range(10):
        M = MatrixFq(F4, rng.integers(0, 4, size=(4, 6), dtype=np.uint8))
        assert M.hermitian_transpose().hermitian_transpose() == M


def test_kernel_examples():
    assert MatrixFq.identity(F9, 3).kernel().rows == 0
    assert MatrixFq.zeros(F9, 2, 3).kernel().rows == 3
    K = MatrixFq(F3, [[1, 1]]).kernel()
    assert K.rows == 1
    # spans the same line as (1, 2)
    both = K.vstack(MatrixFq(F3, [[1, 2]]))
    assert both.rank() == 1


def test_kernel_annihilates():
    rng = np.random.default_rng(3)
    for _ in range(15):
        M = MatrixFq(F9, rng.integers(0, 9, size=(3, 6), dtype=np.uint8))
        K = M.kernel()
        assert K.rows == 6 - M.rank()
        if K.rows:
            prod = gf_matmul(M.array, K.array.T, F9)
            assert not prod.any()


def test_matmul_against_oracle(monkeypatch):
    rng = np.random.default_rng(4)
    for q in [q for q in PRIME_POWERS if q <= 27] + [256]:
        F = GF(q)
        shapes = [(3, 4, 2), (1, 1, 1), (0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (5, 7, 6)]
        if q >= 64:  # a row count past the block cap, cheap to check by brute force
            shapes.append((matrix._GATHER_CAP // (2 * q) + 2, 2, 1))
        for cap in (matrix._GATHER_CAP, 40):  # 40 entries: several blocks even for small shapes
            monkeypatch.setattr(matrix, "_GATHER_CAP", cap)
            for m, k, n in shapes:
                A = rng.integers(0, q, size=(m, k), dtype=np.uint8)
                B = rng.integers(0, q, size=(k, n), dtype=np.uint8)
                got = gf_matmul(A, B, F)
                want = np.array(brute_matmul(F, A.tolist(), B.tolist()) if m and k else
                                np.zeros((m, n)), dtype=np.uint8).reshape(m, n)
                assert got.dtype == np.uint8 and np.array_equal(got, want), (q, cap, m, k, n)


def _rref_cases(F, rng):
    """Random, rank-deficient, zero-row and already-reduced matrices."""
    for m, n in [(1, 1), (1, 6), (3, 5), (5, 3), (4, 4), (6, 9), (0, 4), (3, 0)]:
        A = rng.integers(0, F.order, size=(m, n), dtype=np.uint8)
        yield A
        if m >= 2:
            B = A.copy()
            B[-1] = F.ADD[B[0], F.MUL[rng.integers(1, F.order), B[1]]]  # dependent row
            B[m // 2] = 0  # zero row in the middle
            yield B
        yield loop_rref(F, A)[0]  # already reduced, zero rows last
    yield np.zeros((3, 4), dtype=np.uint8)
    yield np.array([[0, 1, 0], [1, 0, 0]], dtype=np.uint8)  # unit columns, falling leads
    yield np.array([[1, 1, 0], [0, 1, 0]], dtype=np.uint8)  # rising leads, not unit columns
    yield np.array([[0, 0, 0], [1, 0, 0]], dtype=np.uint8)  # zero row first


# the pivot step's three paths: XOR (p = 2), and ADD's flat table through
# 8-bit (odd q <= 13) or 16-bit (odd q >= 17) indices
@pytest.mark.parametrize("q", [q for q in PRIME_POWERS if q <= 27] + [243, 251, 256])
def test_rref_matches_row_at_a_time_loop(q):
    F = GF(q)
    rng = np.random.default_rng(q)
    for A in _rref_cases(F, rng):
        n = A.shape[1]
        priorities = [None, list(rng.permutation(n)), list(range(n - 1, -1, -1))[: n // 2]]
        for priority in priorities:
            R, rank, pivots = MatrixFq(F, A).rref(pivot_priority=priority)
            R0, rank0, pivots0 = loop_rref(F, A, priority)
            assert np.array_equal(R.array, R0) and rank == rank0 and pivots == pivots0


def test_rref_and_kernel_results_are_frozen_and_leave_the_input_alone():
    # rref and kernel wrap the arrays they compute without a copy; the
    # wrapped arrays are frozen like any other MatrixFq's
    rng = np.random.default_rng(5)
    for q in (2, 9, 251):
        F = GF(q)
        A = rng.integers(0, q, size=(4, 7), dtype=np.uint8)
        M = MatrixFq(F, A)
        for out in (M.rref()[0], M.rref(pivot_priority=[6, 5])[0], M.kernel()):
            assert out.field is F and out.array.dtype == np.uint8 and out.array.ndim == 2
            assert not out.array.flags.writeable and int(out.array.max()) < q
            with pytest.raises(ValueError):
                out.array[0, 0] = 1
            with pytest.raises(AttributeError):
                out.array = A
        assert np.array_equal(M.array, A)
    with pytest.raises(PreconditionError):
        MatrixFq(GF(9), [[0, 9]])  # an external entry is still range-checked


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16])
def test_gf_ranks_match_single_ranks(q):
    F = GF(q)
    rng = np.random.default_rng(20 + q)
    for T, m, n in [(0, 3, 3), (5, 0, 0), (7, 1, 1), (40, 3, 3), (40, 5, 5), (30, 4, 6), (30, 6, 4)]:
        stack = rng.integers(0, q, size=(T, m, n), dtype=np.uint8)
        if m >= 2:
            stack[::2, -1] = stack[::2, 0]  # rank-deficient half
            stack[::3, :, 0] = 0  # a cleared column
        stack[::5] = 0
        assert gf_ranks(F, stack).tolist() == [loop_rref(F, S)[1] for S in stack]


def test_congruence_identity_matrix():
    D, s = hermitian_congruence_diagonalize(MatrixFq.identity(F9, 3))
    assert s == 3 and D == MatrixFq.identity(F9, 3)


def test_congruence_zero_matrix():
    D, s = hermitian_congruence_diagonalize(MatrixFq.zeros(F9, 3, 3))
    assert s == 0 and D == MatrixFq.identity(F9, 3)


def _check_congruence(A, rng=None):
    D, s = hermitian_congruence_diagonalize(A, rng=rng)
    want = np.zeros((A.rows, A.rows), dtype=np.uint8)
    for i in range(s):
        want[i, i] = 1
    got = gf_matmul(gf_matmul(D.array, A.array, A.field), A.field.CONJ[D.array].T, A.field)
    assert np.array_equal(got, want)
    assert s == A.rank()
    assert D.rank() == A.rows


def test_congruence_hyperbolic_plane():
    _check_congruence(MatrixFq(F9, [[0, 1], [1, 0]]))


@pytest.mark.parametrize("field", [F4, F9])
def test_congruence_random_hermitian(field):
    rng = np.random.default_rng(7)
    for k in (2, 3, 5):
        for _ in range(10):
            B = MatrixFq(field, rng.integers(0, field.order, size=(k, k), dtype=np.uint8))
            for A in (B @ B.hermitian_transpose(),):
                _check_congruence(A)
                _check_congruence(A, rng=np.random.default_rng(11))


def test_congruence_rejects_non_hermitian():
    with pytest.raises(PreconditionError):
        hermitian_congruence_diagonalize(MatrixFq(F9, [[0, 1], [2, 0]]))


def test_rank_invariant_under_nonsingular_left_multiplication():
    rng = np.random.default_rng(8)
    for field in (F4, F9):
        for _ in range(25):
            M = MatrixFq(field, rng.integers(0, field.order, size=(5, 9), dtype=np.uint8))
            D = _random_nonsingular(field, 5, rng)
            assert (D @ M).rank() == M.rank()


def test_gram_rank_two_ways():
    rng = np.random.default_rng(9)
    for _ in range(15):
        M = MatrixFq(F9, rng.integers(0, 9, size=(4, 8), dtype=np.uint8))
        gram = M @ M.hermitian_transpose()
        assert gram.rank() == 4 - gram.transpose().kernel().rows


def test_text_round_trip_bit_exact():
    rng = np.random.default_rng(10)
    M = MatrixFq(F9, rng.integers(0, 9, size=(3, 5), dtype=np.uint8))
    text = M.to_text(kind="generator", name="demo")
    M2, extra = MatrixFq.from_text(text)
    assert M2 == M and extra == {"kind": "generator", "name": "demo"}
    assert M2.to_text(**extra) == text


def test_text_parse_errors_carry_line_numbers():
    with pytest.raises(RecordParseError) as e:
        MatrixFq.from_text("rows=2 cols=2\n0 0\n0 0\n")
    assert e.value.line_number == 1
    with pytest.raises(RecordParseError) as e:
        MatrixFq.from_text("q=9 rows=2 cols=2\n0 0\n0\n")
    assert e.value.line_number == 3
    with pytest.raises(RecordParseError) as e:
        MatrixFq.from_text("q=9 rows=1 cols=2\n0 9\n")
    assert e.value.line_number == 2


def test_matrix_immutability():
    M = MatrixFq.identity(F9, 2)
    with pytest.raises(AttributeError):
        M.field = F4
    with pytest.raises(ValueError):
        M.array[0, 0] = 5


def test_entry_range_validation():
    with pytest.raises(PreconditionError):
        MatrixFq(F4, [[0, 4]])
