from fractions import Fraction

import numpy as np
import pytest

from eaqecc import construct
from eaqecc.codes import LinearCode, random_code
from eaqecc.construct import EaqeccParams, css_construct, hermitian_construct, intersection
from eaqecc.distance import DistanceFact
from eaqecc.errors import InvalidFieldError, PreconditionError
from eaqecc.fields import GF
from eaqecc.matrix import MatrixFq, gf_matmul
from helpers import count_reductions

F2, F3, F4, F9 = GF(2), GF(3), GF(4), GF(9)

TETRACODE = np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8)  # ternary self-dual


def full_code(field, n):
    return LinearCode(field, np.eye(n, dtype=np.uint8))


def zero_code(field, n):
    return LinearCode(field, MatrixFq.zeros(field, 0, n))


def test_hermitian_arithmetic_invariants():
    rng = np.random.default_rng(50)
    for field in (F4, F9):
        for _ in range(20):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, n))
            C = random_code(field, n, k, rng)
            Q = hermitian_construct(C)
            assert Q.kappa - Q.c == n - 2 * k
            assert Q.c == C.gram_hermitian().rank() == k - C.hull_dim
            assert Q.q == field.subfield_order
            assert Q.net_rate == Q.rate - Fraction(Q.c, Q.n)


def test_hermitian_self_orthogonal_gives_stabilizer_parameters():
    C = LinearCode(F9, TETRACODE)  # subfield entries: G G^dagger = G G^T = 0
    assert C.gram_hermitian().is_zero()
    Q = hermitian_construct(C)
    assert Q.c == 0 and Q.kappa == 0 and Q.delta.value == 3
    assert Q.purity == "pure"


def test_hermitian_extremal_full_space():
    for field, q in ((F9, 3), (F4, 2)):
        Q = hermitian_construct(full_code(field, 5))
        assert (Q.n, Q.kappa, Q.delta.value, Q.c) == (5, 0, 6, 5)
        assert Q.purity == "pure"
        assert Q.delta.method == "convention"


def test_hermitian_zero_ingredient():
    Q = hermitian_construct(zero_code(F9, 4))
    assert (Q.n, Q.kappa, Q.delta.value, Q.c) == (4, 4, 1, 0)


def test_hermitian_known_distance_citation():
    C = LinearCode(F9, TETRACODE)
    Q = hermitian_construct(C, known_distance=3, known_pure=True)
    assert Q.delta.method == "citation" and Q.delta.value == 3
    assert Q.purity == "pure"


def test_hermitian_requires_square_field():
    with pytest.raises(InvalidFieldError):
        hermitian_construct(LinearCode(F3, [[1, 1, 1]]))


def test_css_zero_and_full_extremes():
    n = 5
    Qz = css_construct(zero_code(F3, n), zero_code(F3, n))
    assert (Qz.n, Qz.kappa, Qz.delta.value, Qz.c) == (n, n, 1, 0)
    Qf = css_construct(full_code(F3, n), full_code(F3, n))
    assert (Qf.n, Qf.kappa, Qf.delta.value, Qf.c) == (n, 0, n + 1, n)
    assert Qf.purity == "pure"


def test_css_steane_from_simplex_pair():
    H = np.array(
        [[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]], dtype=np.uint8
    )
    simplex = LinearCode(F2, H)
    Q = css_construct(simplex, simplex)
    assert (Q.n, Q.kappa, Q.delta.value, Q.c) == (7, 1, 3, 0)
    assert Q.purity == "pure"


def test_css_c_formula_crosscheck():
    rng = np.random.default_rng(51)
    for field in (F2, F3):
        for _ in range(25):
            n = int(rng.integers(3, 8))
            C1 = random_code(field, n, int(rng.integers(1, n)), rng)
            C2 = random_code(field, n, int(rng.integers(1, n)), rng)
            Q = css_construct(C1, C2)
            by_rank = MatrixFq(
                field, gf_matmul(C1.G.array, C2.G.array.T, field)
            ).rank()
            by_intersection = C1.k - intersection(C1, C2.euclidean_dual()).k
            assert Q.c == by_rank == by_intersection
            assert Q.kappa == n - C1.k - C2.k + Q.c


def test_css_requires_matching_spaces():
    with pytest.raises(PreconditionError):
        css_construct(full_code(F3, 4), full_code(F3, 5))
    with pytest.raises(PreconditionError):
        css_construct(full_code(F3, 4), full_code(F2, 4))


def test_css_matches_hermitian_on_subfield_dual_containing_codes():
    cases = [
        (F3, F9, TETRACODE),
        (F3, F9, np.array([[1, 1, 1, 0, 0], [0, 1, 2, 1, 0], [2, 1, 0, 0, 1]], dtype=np.uint8)),
        (F2, F4, np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]], dtype=np.uint8)),
    ]
    for base, ext, G in cases:
        Cb = LinearCode(base, G)
        if not Cb.contains_code(Cb.euclidean_dual()):
            continue
        Qc = css_construct(Cb, Cb)
        Qh = hermitian_construct(LinearCode(ext, G))
        assert (Qc.n, Qc.kappa, Qc.delta.value, Qc.c) == (Qh.n, Qh.kappa, Qh.delta.value, Qh.c)


def test_intersection_examples():
    rng = np.random.default_rng(52)
    C = random_code(F3, 6, 3, rng)
    assert intersection(C, C) == C
    # self-dual [2,1] code over GF(2): C cap C-perp = C
    C2 = LinearCode(F2, [[1, 1]])
    assert intersection(C2, C2.euclidean_dual()) == C2
    for _ in range(10):
        A = random_code(F3, 6, int(rng.integers(1, 6)), rng)
        B = random_code(F3, 6, int(rng.integers(1, 6)), rng)
        I = intersection(A, B)
        assert I.k >= A.k + B.k - 6
        for i in range(I.k):
            assert A.contains_vector(I.G.array[i]) and B.contains_vector(I.G.array[i])


def test_params_validation_and_record_line():
    with pytest.raises(PreconditionError):
        EaqeccParams(q=3, n=5, kappa=6, delta=DistanceFact(1, "exact", "citation"), c=0)
    with pytest.raises(PreconditionError):
        EaqeccParams(q=3, n=5, kappa=2, delta=DistanceFact(1, "exact", "citation"), c=4)
    p = EaqeccParams(
        q=3, n=6, kappa=1, delta=DistanceFact(5, "exact", "citation"), c=3, purity="pure"
    )
    assert p.record_line("constructed") == "3 6 1 5 3 pure constructed"
    assert str(p) == "[[6,1,5;3]]_3"
    assert p.rate == Fraction(1, 6) and p.net_rate == Fraction(-1, 3)


def test_purity_helper():
    base = dict(q=3, n=6, kappa=1, delta=DistanceFact(5, "exact", "citation"), c=3)
    assert EaqeccParams(purity="pure", **base).is_pure_at_delta()
    assert EaqeccParams(purity="pure_to:5", **base).is_pure_at_delta()
    assert not EaqeccParams(purity="pure_to:4", **base).is_pure_at_delta()
    assert not EaqeccParams(purity="unknown", **base).is_pure_at_delta()


def test_css_builds_each_intersection_once(monkeypatch):
    # C1 ∩ C2^perp gives c and, off the kappa = 0 extreme, the subcode of
    # C2^perp; the duals' own duals are C1 and C2, so only the two duals
    # and the intersections take a kernel
    kernels, intersections = [], []
    kernel, intersect = MatrixFq.kernel, construct.intersection
    monkeypatch.setattr(MatrixFq, "kernel", lambda M: kernels.append(M) or kernel(M))
    monkeypatch.setattr(construct, "intersection",
                        lambda A, B: intersections.append((A, B)) or intersect(A, B))
    rng = np.random.default_rng(53)
    branches = set()
    for field in (F2, F3):
        for trial in range(10):
            C1, C2 = (random_code(field, 7, int(rng.integers(1, 7)), rng) for _ in range(2))
            if trial % 2:  # C1 spans C2^perp and one more word: the kappa = 0 extreme
                rows = np.vstack([C2.G.kernel().array, C1.G.array[:1]])
                R, rank, _ = MatrixFq(field, rows).rref()
                C1 = LinearCode(field, R.array[:rank])
            contained = C2.contains_code(LinearCode(field, C1.G.kernel()))
            kernels.clear(), intersections.clear()
            Q = css_construct(C1, C2)
            assert len(intersections) == len(kernels) - 2 == (1 if contained else 2)
            assert intersections[0] == (C1, C2.euclidean_dual())
            assert Q.c == MatrixFq(field, gf_matmul(C1.G.array, C2.G.array.T, field)).rank()
            assert C1.euclidean_dual().euclidean_dual() is C1
            branches.add(contained)
    assert branches == {False, True}


def test_hermitian_construct_takes_the_hull_from_the_smaller_gram(monkeypatch):
    # a [15,13]_9 code with a 1-dimensional hull: the construction builds
    # the [15,2] Hermitian dual first and never reduces the 13 x 13 Gram matrix
    C = random_code(F9, 15, 13, np.random.default_rng(17))
    reductions = count_reductions(monkeypatch)
    Q = hermitian_construct(C)
    assert (Q.n, Q.kappa, Q.c) == (15, 1, 12)
    assert (13, 13) not in [M.array.shape for M, _ in reductions]
