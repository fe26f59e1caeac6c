import dataclasses
import functools
import itertools
import pathlib
import tracemalloc

import numpy as np
import pytest

import eaqecc
from eaqecc import propagate as prop
from eaqecc.codes import LinearCode, random_code
from eaqecc.construct import hermitian_construct
from eaqecc.errors import (
    BudgetError,
    EaqeccError,
    InvalidFieldError,
    PreconditionError,
    RuleNotApplicableError,
)
from eaqecc.fields import GF
from eaqecc.matrix import MatrixFq
from eaqecc.tables import CodeRecord
import oracles
from helpers import count_engine_runs, qualifying_word
from oracles import brute_encode, brute_matmul, brute_min_distance, scalar_class_messages

F3, F4, F9 = GF(3), GF(4), GF(9)
DATA = pathlib.Path(eaqecc.__file__).parent / "data" / "paper"


def lcd_54():
    G = np.hstack([np.eye(4, dtype=np.uint8), np.full((4, 1), 2, np.uint8)])
    return LinearCode(F9, G)


def codes_with_hull(rng, count, field=F9):
    """Random codes, hulls inflated by column extensions for variety."""
    out = []
    while len(out) < count:
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, min(n - 1, 4) + 1))
        C = random_code(field, n, k, rng)
        out.append(C)
        for _ in range(2):
            if C.hull_dim < min(C.k, C.n - C.k):
                C = prop.extend_column(C)
                out.append(C)
    return out[:count]


# -- hull reduction -------------------------------------------------------------


def test_hull_reduce_identity_when_target_is_current():
    C = lcd_54()
    assert prop.hull_reduce(C, 0) == C


def test_hull_reduce_hits_every_target():
    rng = np.random.default_rng(60)
    for C in codes_with_hull(rng, 12):
        d = C.min_distance().value
        for target in range(C.hull_dim + 1):
            C2 = prop.hull_reduce(C, target)
            assert (C2.n, C2.k) == (C.n, C.k)
            assert C2.hull_dim == target
            assert C2.min_distance().value == d


def test_hull_reduce_errors():
    C = lcd_54()
    with pytest.raises(PreconditionError):
        prop.hull_reduce(C, 1)  # above current hull dim
    G4 = LinearCode(F4, [[1, 0, 1], [0, 1, 1]])
    with pytest.raises(InvalidFieldError):
        prop.hull_reduce(G4, 0)  # q = 2 unsupported


# -- column extension -------------------------------------------------------------


def test_extend_column_constructive_contract():
    rng = np.random.default_rng(61)
    for C in codes_with_hull(rng, 15):
        if not C.hull_dim < min(C.k, C.n - C.k):
            continue
        d = C.min_distance().value
        C2 = prop.extend_column(C)
        assert (C2.n, C2.k) == (C.n + 1, C.k)
        assert C2.hull_dim == C.hull_dim + 1
        assert d <= C2.min_distance().value <= d + 1


def test_extend_column_precondition_boundary():
    C = LinearCode(F9, np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8))
    assert C.hull_dim == 2  # Hermitian self-orthogonal: at the boundary
    with pytest.raises(PreconditionError):
        prop.extend_column(C)


def test_extend_column_rejects_bad_explicit_column():
    C = lcd_54()
    with pytest.raises(PreconditionError):
        prop.extend_column(C, column=[0, 0, 0, 0])  # keeps hull at 0
    with pytest.raises(PreconditionError):
        prop.extend_column(C, column=[1, 2])


def test_extend_column_search_reaches_printed_gain():
    C = lcd_54()
    best = prop.extend_column(C, search=True, seed=0)
    assert best.min_distance().value == 3  # d + 1
    assert best.hull_dim == 1
    again = prop.extend_column(C, search=True, seed=0)
    assert again == best  # deterministic


def test_extend_column_search_never_loses_distance():
    rng = np.random.default_rng(62)
    for C in codes_with_hull(rng, 6):
        if not C.hull_dim < min(C.k, C.n - C.k):
            continue
        d = C.min_distance().value
        assert prop.extend_column(C, search=True, seed=0).min_distance().value >= d


def test_congruence_columns_are_the_hull_raising_columns():
    """The congruence test keeps exactly the class x norm-representative
    columns that extend_with_column's hull check accepts, in walk order."""
    rng = np.random.default_rng(68)
    checked = 0
    for q, n, k in [(4, 7, 4), (4, 8, 3), (9, 6, 3), (9, 7, 2), (16, 6, 2), (16, 7, 3), (25, 5, 2)]:
        F = GF(q)
        reps = [F.solve_norm(t) for t in F.subfield_nonzero_elements()]
        C = random_code(F, n, k, rng)
        while C.hull_dim < min(C.k, C.n - C.k):
            brute = []
            for msg in scalar_class_messages(q, k):
                for mu in reps:
                    col = tuple(F.mul(mu, v) for v in msg)
                    try:
                        prop.extend_with_column(C, col)
                    except PreconditionError:
                        continue
                    brute.append(col)
            assert brute
            assert [tuple(int(v) for v in x) for x in oracles.class_columns(C, reps)] == brute
            checked += 1
            C = prop.extend_column(C)
        words = np.random.default_rng(q).integers(0, q, size=(20, n))
        loop = [functools.reduce(F.add, (F.norm(int(v)) for v in w), 0) for w in words]
        assert prop.hermitian_self_product(F, words).tolist() == loop
    assert checked >= 10


# (q, n, k, default column, searched column) of seeded codes, as the
# per-candidate hull search chose them
PINNED_EXTENSIONS = [
    (4, 7, 3, (1, 0, 1), (1, 0, 1)),
    (4, 8, 4, (1, 0, 2, 1), (1, 0, 0, 2)),
    (4, 9, 4, (1, 0, 3, 3), (1, 0, 3, 3)),
    (9, 6, 2, (3, 6), (3, 6)),
    (9, 7, 3, (1, 3, 7), (3, 0, 4)),
    (9, 8, 3, (1, 4, 3), (1, 4, 3)),
]


def test_extend_column_pinned_columns():
    def columns(C):
        return tuple(prop.extend_column_step(C, search=search).certificate["column"]
                     for search in (False, True))

    rng = np.random.default_rng(91)
    for q, n, k, default, searched in PINNED_EXTENSIONS:
        C = random_code(GF(q), n, k, rng)
        while not C.hull_dim < min(C.k, C.n - C.k):
            C = random_code(GF(q), n, k, rng)
        assert columns(C) == (default, searched)
    # the dual of the benchmark's [[10,2,5;6]]_2 ingredient (exhaustive search)
    rows = ["1000000130", "0100000220", "0010000113", "0001000010",
            "0000100012", "0000010311", "0000001321"]
    C = LinearCode(F4, np.array([[int(ch) for ch in r] for r in rows], dtype=np.uint8))
    assert columns(C.hermitian_dual()) == ((1, 0, 0), (0, 0, 1))
    # the dual of the paper's [16,5]_9 code has 9^11 columns: sampled search
    E = LinearCode.from_text((DATA / "g16_5_9.txt").read_text()).hermitian_dual()
    col = (3, 8, 2, 1, 4, 4, 2, 0, 0, 4, 1)
    assert columns(E) == (col, col)


def test_extend_column_search_over_gf16():
    """GF(16)'s base subfield GF(4) is {0, 1, 6, 7}, not {0, 1, 2, 3}."""
    F16 = GF(16)
    rng = np.random.default_rng(69)
    C = random_code(F16, 6, 2, rng)
    while not C.hull_dim < min(C.k, C.n - C.k):
        C = random_code(F16, 6, 2, rng)
    C2 = prop.extend_column(C, search=True)
    assert (C2.n, C2.k, C2.hull_dim) == (7, 2, C.hull_dim + 1)


def test_best_column_matches_the_per_candidate_loop():
    """The one-walk scoring picks the column the loop of one extension and
    one scan per candidate picked, over codes with several minimum-weight
    classes, codes where no column gains, and codes whose first nonempty
    block of columns gains nothing while a later block does."""
    rng = np.random.default_rng(1)
    several = no_gain = later_block = 0
    for q, n, k, count in [(4, 5, 2, 40), (4, 6, 3, 30), (4, 9, 4, 6), (9, 5, 2, 12),
                           (9, 7, 3, 8), (16, 5, 2, 8), (16, 7, 3, 4), (25, 5, 2, 8)]:
        F = GF(q)
        reps = [F.solve_norm(t) for t in F.subfield_nonzero_elements()]
        for _ in range(count):
            C = random_code(F, n, k, rng)
            if not C.hull_dim < min(C.k, C.n - C.k):
                continue
            col, d = oracles.best_column_by_distance(C, oracles.class_columns(C, reps))
            assert tuple(int(v) for v in prop._best_column(C, 0)[0]) == col
            d0 = brute_min_distance(F, C.G.array)
            words = oracles.brute_codewords(F, C.G.array)
            several += sum(oracles.weight(w) == d0 for w in words) > q - 1
            no_gain += d == d0
            blocks = [set(map(tuple, X.tolist())) for X in prop._class_column_blocks(C, reps)]
            later_block += col not in next(b for b in blocks if b)
    assert several >= 10 and no_gain >= 3 and later_block >= 2


# -- row+column extension ------------------------------------------------------------


def test_extend_row_column_contract_and_distance_formula():
    rng = np.random.default_rng(63)
    done = 0
    for C in codes_with_hull(rng, 25):
        if not C.hull_dim < min(C.k, C.n - C.k):
            continue
        w = qualifying_word(C)
        if w is None:
            continue
        C2 = prop.extend_row_column(C, w)
        assert (C2.n, C2.k) == (C.n + 1, C.k + 1)
        assert C2.hull_dim == C.hull_dim + 1
        d = C.min_distance().value
        stacked = LinearCode(C.field, np.vstack([C.G.array, w[None, :]]))
        d0 = brute_min_distance(C.field, stacked.G.array)
        assert C2.min_distance().value == min(d, d0 + 1)
        done += 1
    assert done >= 10


def test_extend_row_column_word_validation():
    C = lcd_54()
    with pytest.raises(PreconditionError):
        prop.extend_row_column(C, np.array([1, 0, 0, 0, 0], dtype=np.uint8))  # not in dual
    # a dual word with zero Hermitian self-product must be rejected
    C3 = LinearCode(F9, np.array([[1, 0, 0, 0]], dtype=np.uint8))
    w = np.array([0, 1, 1, 1], dtype=np.uint8)  # norms sum to 1+1+1 = 0 mod 3
    assert C3.hermitian_dual().contains_vector(w)
    assert prop.hermitian_self_product(F9, w) == 0
    with pytest.raises(PreconditionError):
        prop.extend_row_column(C3, w)


def test_extend_row_column_hull_word_rejected():
    rng = np.random.default_rng(64)
    for C in codes_with_hull(rng, 10):
        if C.hull_dim == 0 or not C.hull_dim < min(C.k, C.n - C.k):
            continue
        hull_word = C.hull_code().G.array[0]
        with pytest.raises(PreconditionError):
            prop.extend_row_column(C, hull_word)
        return
    pytest.skip("no hull-bearing instance drawn")


# -- quantum rules --------------------------------------------------------------------


def q_from_dual_of(C):
    """Hermitian construction whose dual side is C itself."""
    return hermitian_construct(C.hermitian_dual())


def test_more_entanglement_golden_small():
    C = LinearCode(F9, np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8))
    Q = hermitian_construct(C)  # [[4,0,3;0]] from the self-dual tetracode
    out = prop.more_entanglement(Q, 2)
    assert (out.n, out.kappa, out.delta.value, out.c) == (4, 2, 3, 2)
    assert out.purity == "pure_to:3"
    assert out.net_rate == Q.net_rate


def test_more_entanglement_chains_after_rule():
    C = LinearCode(F9, np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8))
    Q = hermitian_construct(C)
    mid = prop.more_entanglement(Q, 1)
    out = prop.more_entanglement(mid, 1)
    assert (out.n, out.kappa, out.delta.value, out.c) == (4, 2, 3, 2)


def test_more_entanglement_preconditions():
    C = LinearCode(F9, np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8))
    Q = hermitian_construct(C)
    with pytest.raises(PreconditionError):
        prop.more_entanglement(Q, 3)  # beyond hull dim
    impure = prop.apply_simple_rule(Q, 1)  # purity unknown downstream
    with pytest.raises(PreconditionError):
        prop.more_entanglement(impure, 1)
    G4 = LinearCode(F4, [[1, 0, 1], [0, 1, 1]])
    Q4 = hermitian_construct(G4)
    if Q4.is_pure_at_delta():
        with pytest.raises(InvalidFieldError):
            prop.more_entanglement(Q4, 1)


def test_same_entanglement_golden():
    Q = q_from_dual_of(lcd_54())
    assert (Q.n, Q.kappa, Q.delta.value, Q.c) == (5, 4, 2, 1)
    out = prop.same_entanglement(Q)
    assert (out.n, out.kappa, out.c) == (6, 3, 1)
    assert 2 <= out.delta.value <= 3
    best = prop.same_entanglement(Q, search=True, seed=0)
    assert (best.n, best.kappa, best.delta.value, best.c) == (6, 3, 3, 1)
    assert best.purity == "pure"


def test_same_entanglement_impure_output_gains_more_than_one():
    # the pure [[10,2,5;6]]_2: the searched extension gives an impure code
    # whose distance outside the hull is 7 > 5 + 1
    rows = "1000000130 0100000220 0010000113 0001000010 0000100012 0000010311 0000001321"
    C = LinearCode(F4, [[int(ch) for ch in r] for r in rows.split()])
    Q = hermitian_construct(C)
    assert (str(Q), Q.purity) == ("[[10,2,5;6]]_2", "pure")
    step = prop.same_entanglement_step(Q, search=True)
    out = step.output_params
    assert (str(out), out.purity) == ("[[11,1,7;6]]_2", "pure_to:6")
    again = prop.replay_step(prop.step_from_text(prop.step_to_text(step)))
    assert (str(again), again.purity) == (str(out), out.purity)


def test_same_entanglement_preconditions():
    C = LinearCode(F9, np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8))
    Q = hermitian_construct(C)  # kappa = 0, c = 0
    with pytest.raises(PreconditionError):
        prop.same_entanglement(Q)


def test_less_entanglement_exhaustive_maximizes():
    rng = np.random.default_rng(65)
    for _ in range(20):
        C = random_code(F9, 6, 2, rng)
        Q = q_from_dual_of(C)
        if not (Q.is_pure_at_delta() and Q.c >= 1):
            continue
        E = Q.ingredient.hermitian_dual()
        if not E.hull_dim < min(E.k, E.n - E.k):
            continue
        out = prop.less_entanglement(Q, strategy="exhaustive", budget=10**5)
        assert (out.n, out.kappa, out.c) == (Q.n + 1, Q.kappa, Q.c - 1)
        assert out.delta.value <= Q.delta.value
        sampled = prop.less_entanglement(Q, strategy="sampled", seed=1, budget=200)
        assert sampled.delta.value <= out.delta.value
        return
    pytest.skip("no qualifying instance drawn")


def test_less_entanglement_needs_ebits():
    C = LinearCode(F9, np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8))
    Q = hermitian_construct(C)  # c = 0
    with pytest.raises(PreconditionError):
        prop.less_entanglement(Q)


# -- searches ----------------------------------------------------------------------


def test_min_entanglement_self_orthogonal():
    C = LinearCode(F9, np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8))
    res = prop.min_entanglement_search(C)
    assert res.c_min == 0 and res.exhaustive
    assert res.diagonal == (1, 1, 1, 1)


def test_min_entanglement_full_space():
    C = LinearCode(F9, np.eye(4, dtype=np.uint8))
    res = prop.min_entanglement_search(C)
    assert res.c_min == 4


def test_min_entanglement_bounds_and_permutation_invariance():
    rng = np.random.default_rng(66)
    for _ in range(10):
        C = random_code(F9, 6, 2, rng)
        res = prop.min_entanglement_search(C)
        assert res.c_min <= C.gram_hermitian().rank()
        perm = list(rng.permutation(6))
        res2 = prop.min_entanglement_search(C.permute_columns(perm))
        assert res2.c_min == res.c_min


def test_min_entanglement_diagonals_lie_in_the_base_subfield():
    F16 = GF(16)
    C = random_code(F16, 5, 2, np.random.default_rng(1))
    res = prop.min_entanglement_search(C)
    units = F16.subfield_nonzero_elements()
    assert units == [1, 6, 7]
    assert set(res.diagonal) <= set(units)
    brute = min(
        MatrixFq(F16, brute_matmul(
            F16, [[F16.mul(g, b) for g, b in zip(row, diag)] for row in C.G.array],
            [[F16.conj(int(v)) for v in row] for row in C.G.array.T],
        )).rank()
        for diag in itertools.product(units, repeat=C.n)
    )
    assert res.c_min == brute


def test_min_entanglement_matches_one_rank_per_diagonal():
    # exhaustive, first rank 0 at (1, 2, 1, 2, 1, ...): trial 1280, past the first chunk
    w = 3  # norm 2 in GF(9)
    C = LinearCode(F9, np.array([[1, 1] + [0] * 10, [0, 0, w, w] + [0] * 8], dtype=np.uint8))
    res = prop.min_entanglement_search(C)
    assert (res.c_min, res.diagonal, res.exhaustive) == (0, (1, 2, 1, 2) + (1,) * 8, True)
    assert res.diagonal == oracles.min_entanglement_by_diagonal(C)[1]
    assert 1280 > prop._MIN_ENT_CHUNK
    rng = np.random.default_rng(68)
    for q, n, k in [(9, 6, 2), (9, 7, 3), (16, 4, 2), (4, 5, 2), (9, 5, 0)]:
        C = random_code(GF(q), n, k, rng)
        res = prop.min_entanglement_search(C)
        assert (res.c_min, res.diagonal) == oracles.min_entanglement_by_diagonal(C)
    # randomized over several chunks: k > n/2 rules out rank 0, so the minimum ties
    C = random_code(F9, 6, 4, rng)
    res = prop.min_entanglement_search(C, mode="randomized", seed=5, budget=1500)
    want = oracles.min_entanglement_by_diagonal(C, mode="randomized", seed=5, budget=1500)
    assert (res.c_min, res.diagonal, res.exhaustive) == (*want, False)
    assert res.c_min > 0 and res.diagonal != (1,) * 6
    # the samples come from one (budget, n) draw, the oracle's from budget draws of n
    for q, n, k in [(9, 6, 2), (16, 5, 2), (4, 5, 2), (25, 4, 2)]:
        C2 = random_code(GF(q), n, k, rng)
        for seed, budget in [(0, 0), (1, 1), (2, 37), (3, 1100)]:
            res = prop.min_entanglement_search(C2, mode="randomized", seed=seed, budget=budget)
            want = oracles.min_entanglement_by_diagonal(C2, "randomized", seed, budget)
            assert (res.c_min, res.diagonal) == want
    with pytest.raises(BudgetError):
        prop.min_entanglement_search(C, cap=2**6 - 1)


def test_min_entanglement_randomized_budget_is_held_to_the_cap():
    C = random_code(F9, 6, 2, np.random.default_rng(69))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="outside 0..cap"):
            prop.min_entanglement_search(C, mode="randomized", budget=10**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(BudgetError):
        prop.min_entanglement_search(C, mode="randomized", budget=-1)
    # a certificate replays under its own budget and cap, with the same check
    step = prop.min_entanglement_search_step(C, mode="randomized", seed=2, budget=64, cap=64)
    text = prop.step_to_text(step)
    assert "cert budget int 64\n" in text
    prop.replay_step(prop.step_from_text(text))
    with pytest.raises(BudgetError, match="outside 0..cap"):
        prop.replay_step(prop.step_from_text(text.replace("cert budget int 64\n",
                                                          "cert budget int 65\n")))


def test_min_entanglement_modes_and_caps():
    rng = np.random.default_rng(67)
    C = random_code(F9, 6, 2, rng)
    from eaqecc.errors import BudgetError

    with pytest.raises(BudgetError):
        prop.min_entanglement_search(C, cap=3)
    r = prop.min_entanglement_search(C, mode="randomized", seed=0, budget=50)
    assert not r.exhaustive
    assert r.c_min >= prop.min_entanglement_search(C).c_min
    # the sampled bound never exceeds the do-nothing baseline
    assert r.c_min <= C.gram_hermitian().rank()
    with pytest.raises(PreconditionError):
        prop.min_entanglement_search(C, mode="guess")


def test_puncture_space_self_orthogonal_contains_all_ones():
    C = LinearCode(F9, np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8))
    space = prop.puncture_space(C)
    ones = np.ones(4, dtype=np.uint8)
    assert LinearCode(F3, space).contains_vector(ones)
    found, vec, exhaustive = prop.find_all_nonzero_vector(space)
    assert found and exhaustive and all(v != 0 for v in vec)


def test_find_all_nonzero_vector_is_first_hit_in_product_order():
    rng = np.random.default_rng(69)
    misses = 0
    for q in (2, 3, 5):
        field = GF(q)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            G = rng.integers(0, q, size=(k, n), dtype=np.uint8)
            if rng.random() < 0.3:
                G[:, int(rng.integers(0, n))] = 0  # no all-nonzero vector at all
            words = (brute_encode(field, m, G) for m in itertools.product(range(q), repeat=k))
            want = next((w for w in words if all(w)), None)
            found, vec, exhaustive = prop.find_all_nonzero_vector(MatrixFq(field, G))
            assert exhaustive and (found, vec) == (want is not None, want)
            misses += want is None
    assert misses >= 5


def test_puncture_space_full_space_has_no_witness():
    C = LinearCode(F9, np.eye(3, dtype=np.uint8))
    space = prop.puncture_space(C)
    assert space.rows == 0
    found, vec, exhaustive = prop.find_all_nonzero_vector(space)
    assert not found and exhaustive


def test_puncture_space_consistent_with_min_entanglement():
    rng = np.random.default_rng(68)
    hits = 0
    for _ in range(40):
        C = random_code(F9, 5, 2, rng)
        res = prop.min_entanglement_search(C)
        if res.c_min != 0:
            continue
        space = prop.puncture_space(C)
        b = np.array(res.diagonal, dtype=np.uint8)
        assert LinearCode(F3, space).contains_vector(b)
        hits += 1
    if hits == 0:
        pytest.skip("no c_min = 0 instance drawn")


# -- the eight printed rules ------------------------------------------------------------


def rec_params(q, n, kappa, delta, c, purity="unknown"):
    return CodeRecord(q, n, kappa, delta, c, purity).to_params()


def test_simple_rules_golden_transforms():
    out = prop.apply_simple_rule(rec_params(2, 3, 1, 3, 2), 1)
    assert (out.n, out.kappa, out.delta.value, out.c) == (4, 1, 3, 2)
    out = prop.apply_simple_rule(rec_params(3, 5, 2, 3, 1), 5)
    assert (out.n, out.kappa, out.delta.value, out.c) == (4, 2, 2, 1)
    out = prop.apply_simple_rule(rec_params(3, 6, 1, 5, 3, purity="pure"), 8)
    assert (out.n, out.kappa, out.delta.value, out.c) == (5, 2, 4, 3)


def test_simple_rule_conditions_match_oracle():
    # every (rule, q, n, kappa, delta, c, pure) up to these sizes, records with
    # c > n - kappa or delta = 0 included
    grid = itertools.product(
        prop.SIMPLE_RULES, (2, 3, 4), range(1, 7), range(8), range(5), range(8), (0, 1)
    )
    for rule, q, n, kappa, delta, c, pure in grid:
        want = oracles.rule_step(rule, q, n, kappa, delta, c, pure)
        if want is not None and want[0] < 1:
            want = None  # no code has length 0
        entry = prop.SIMPLE_RULES[rule]
        reason = entry.unmet(q, n, kappa, delta, c, pure)
        assert (reason == "") == (want is not None), (rule, q, n, kappa, delta, c, pure)
        if want is None:
            assert reason.startswith("needs ")
            continue
        got = prop.simple_rule_transform(rule, n, kappa, delta, c) + (int(entry.pure_out),)
        assert got == want
        if kappa <= n and c <= n - kappa:  # a record apply_simple_rule takes
            purity = "pure" if pure else "unknown"
            try:
                out = prop.apply_simple_rule(rec_params(q, n, kappa, delta, c, purity), rule)
            except EaqeccError as exc:  # the bound gate refuses what no code can have
                assert "violate bounds" in str(exc)
                continue
            assert (out.n, out.kappa, out.delta.value, out.c) == want[:4]
            assert out.is_pure_at_delta() == bool(want[4])


SIDE_CONDITION_CASES = [
    (5, (2, 1, 0, 2, 0), "needs n >= 2"),
    (2, (3, 6, 0, 5, 3), "needs kappa >= 1"),
    (3, (3, 6, 1, 1, 3), "needs delta >= 2"),
    (5, (3, 5, 2, 3, 3), "needs n - kappa - c >= 1"),
    (7, (3, 5, 2, 3, 2), "needs n - kappa - c >= 2"),
    (8, (3, 6, 1, 5, 3), "needs a pure input"),
    (6, (2, 6, 1, 3, 2, "pure"), "needs q >= 3"),
]


def test_simple_rule_side_conditions():
    for rule, record, reason in SIDE_CONDITION_CASES:
        name = prop.SIMPLE_RULES[rule].name
        with pytest.raises(RuleNotApplicableError, match=f"rule {rule} \\({name}\\): {reason}$"):
            prop.apply_simple_rule(rec_params(*record), rule)


def test_unknown_simple_rule():
    with pytest.raises(PreconditionError, match="unknown rule 9"):
        prop.apply_simple_rule(rec_params(2, 3, 1, 3, 2), 9)


def test_simple_rule_purity_tags():
    pure_in = rec_params(3, 6, 1, 5, 3, purity="pure")
    assert prop.apply_simple_rule(pure_in, 1).purity == "unknown"
    out6 = prop.apply_simple_rule(rec_params(3, 7, 1, 4, 2, purity="pure"), 6)
    assert out6.purity == "pure_to:4"
    assert out6.is_pure_at_delta()


# -- steps: serialization and replay ---------------------------------------------------


def test_step_round_trip_and_replay_each_kind():
    C = LinearCode(F9, np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8))
    Q = hermitian_construct(C)
    steps = [prop.more_entanglement_step(Q, 1)]
    Q2 = q_from_dual_of(lcd_54())
    steps.append(prop.same_entanglement_step(Q2))
    for step in steps:
        text = prop.step_to_text(step)
        back = prop.step_from_text(text)
        assert back.rule_id == step.rule_id
        out = prop.replay_step(back)
        assert (out.n, out.kappa, out.delta.value, out.c) == (
            step.output_params.n,
            step.output_params.kappa,
            step.output_params.delta.value,
            step.output_params.c,
        )
        assert prop.step_to_text(back) == text


def test_replay_detects_tampering():
    C = LinearCode(F9, np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8))
    step = prop.more_entanglement_step(hermitian_construct(C), 1)
    text = prop.step_to_text(step)
    assert "output 3 4 1 3 1 pure_to:3" in text
    bad = prop.step_from_text(text.replace("output 3 4 1 3 1", "output 3 4 1 3 0"))
    with pytest.raises(EaqeccError, match="replay mismatch for more_ent: recomputed"):
        prop.replay_step(bad)


def test_replay_rejects_simple_rule_steps():
    text = "#v1 step rule=simple_1\ninput 2 3 1 3 2 unknown x\noutput 2 4 1 3 2 unknown x\n"
    with pytest.raises(PreconditionError, match="cannot replay rule simple_1"):
        prop.replay_step(prop.step_from_text(text + "cert rule int 1\n"))


def test_classical_steps_round_trip_and_replay():
    rng = np.random.default_rng(80)
    C = lcd_54()
    steps = [
        prop.extend_column_step(C),
        prop.extend_column_step(C, search=True),
        prop.min_entanglement_search_step(C, mode="randomized", seed=3, budget=20),
    ]
    Chull = prop.extend_column(C)  # hull dim 1
    steps.append(prop.hull_reduce_step(Chull, 0))
    w = qualifying_word(C)
    steps.append(prop.extend_row_column_step(C, w))
    for step in steps:
        text = prop.step_to_text(step)
        back = prop.step_from_text(text)
        prop.replay_step(back)
        assert prop.step_to_text(back) == text


def one_step_per_table_rule():
    C = lcd_54()
    tetra = hermitian_construct(LinearCode(F9, [[1, 0, 1, 1], [0, 1, 1, 2]]))
    return [
        prop.hull_reduce_step(prop.extend_column(C), 0),
        prop.extend_column_step(C, search=True),
        prop.extend_row_column_step(C, qualifying_word(C)),
        prop.more_entanglement_step(tetra, 1),
        prop.same_entanglement_step(q_from_dual_of(C), search=True),
        prop.less_entanglement_step(q_from_dual_of(C)),
    ]


def test_every_table_rule_round_trips_and_replays():
    steps = one_step_per_table_rule()
    assert [s.rule_id for s in steps] == list(prop.RULES)
    for step in steps:
        text = prop.step_to_text(step)
        back = prop.step_from_text(text)
        rule = prop.RULES[back.rule_id]
        assert back.certificate["input"] == step.certificate["input"]
        assert rule.datum in back.certificate
        replayed = prop.replay_step(back)
        if rule.lifted:
            assert (str(replayed), replayed.purity) == (
                str(step.output_params), step.output_params.purity)
        else:
            assert replayed == step.certificate["output"]
        assert prop.step_to_text(back) == text


def test_old_step_files_replay_whatever_distance_budgets_they_record():
    """Older same-ent and less-ent files carry enum_cap and work_budget lines;
    replay ignores them, so a forged cap neither changes the output nor
    starts an enumeration of the whole dual."""
    Q = q_from_dual_of(lcd_54())
    for step in (prop.same_entanglement_step(Q), prop.less_entanglement_step(Q)):
        text = prop.step_to_text(step)
        assert "enum_cap" not in text and "work_budget" not in text
        for cap, budget in ((10**15, 10**6), (1, 1)):
            old = text + f"cert enum_cap int {cap}\ncert work_budget int {budget}\n"
            out = prop.replay_step(prop.step_from_text(old))
            assert (str(out), out.purity) == (str(step.output_params), step.output_params.purity)


def test_replay_rejects_a_recorded_input_delta_the_code_does_not_give():
    for step in one_step_per_table_rule():
        if not prop.RULES[step.rule_id].lifted:
            continue
        Q = step.input_params
        raised = dataclasses.replace(Q, delta=dataclasses.replace(Q.delta, value=Q.delta.value + 1))
        out = step.output_params
        if step.rule_id == "more_ent":  # the rule carries delta to its output
            out = dataclasses.replace(out, delta=raised.delta)
        forged = prop.PropagationStep(step.rule_id, raised, out, step.certificate)
        with pytest.raises(EaqeccError, match="input code gives delta"):
            prop.replay_step(prop.step_from_text(prop.step_to_text(forged)))


@pytest.mark.parametrize("rule_id", ["same_ent", "less_ent"])
def test_replay_from_cached_codes_still_detects_a_tampered_delta(monkeypatch, rule_id):
    """In-process replay reads every distance fact the certificate's codes
    cached while the step ran; replay from text measures fresh codes.  A
    recorded input or output delta one off is rejected either way."""
    Q = q_from_dual_of(lcd_54())
    step = (prop.same_entanglement_step(Q, search=True) if rule_id == "same_ent"
            else prop.less_entanglement_step(Q))
    runs = count_engine_runs(monkeypatch)
    prop.replay_step(step)
    assert runs == []
    prop.replay_step(prop.step_from_text(prop.step_to_text(step)))
    assert runs

    def off(p):
        return dataclasses.replace(p, delta=dataclasses.replace(p.delta, value=p.delta.value + 1))

    forged = [
        (prop.PropagationStep(rule_id, off(step.input_params), step.output_params,
                              step.certificate), "input code gives delta"),
        (prop.PropagationStep(rule_id, step.input_params, off(step.output_params),
                              step.certificate), "recomputed"),
    ]
    for bad, match in forged:
        for replayed in (bad, prop.step_from_text(prop.step_to_text(bad))):
            with pytest.raises(EaqeccError, match=f"replay mismatch for {rule_id}: .*{match}"):
                prop.replay_step(replayed)


def _forge(step, name, code):
    """Text of `step` with certificate code `name` replaced, read back."""
    cert = dict(step.certificate, **{name: code})
    return prop.step_from_text(prop.step_to_text(prop.PropagationStep(
        step.rule_id, step.input_params, step.output_params, cert)))


def test_replay_rejects_forged_more_ent_code():
    Q = hermitian_construct(LinearCode(F9, [[1, 0, 1, 1], [0, 1, 1, 2]]))
    step = prop.more_entanglement_step(Q, 1)
    assert str(prop.replay_step(prop.step_from_text(prop.step_to_text(step)))) == "[[4,1,3;1]]_3"
    forged = LinearCode(F9, [[1, 4, 4, 0], [0, 0, 0, 1]])  # d = 1
    assert forged.min_distance().value == 1
    with pytest.raises(EaqeccError):
        prop.replay_step(_forge(step, "code", forged))
    # an input code that does not give the recorded [[n, kappa; c]]
    with pytest.raises(EaqeccError):
        prop.replay_step(_forge(step, "input", lcd_54()))


def test_replay_rejects_forged_same_ent_code():
    step = prop.same_entanglement_step(q_from_dual_of(lcd_54()), search=True)
    assert str(step.output_params) == "[[6,3,3;1]]_3"
    G = step.certificate["code"].G.array.copy()
    G[:, [-2, -1]] = G[:, [-1, -2]]
    swapped = LinearCode(F9, G)
    assert swapped != step.certificate["code"]
    with pytest.raises(EaqeccError):
        prop.replay_step(_forge(step, "code", swapped))


@pytest.mark.parametrize("rule_id", list(prop.RULES))
def test_header_only_step_raises_eaqecc_error(rule_id):
    for params in ("none", "3 4 1 2 1 pure x"):
        step = prop.step_from_text(f"#v1 step rule={rule_id}\ninput {params}\noutput {params}\n")
        with pytest.raises(EaqeccError):
            prop.replay_step(step)


def test_replay_rejects_wrongly_typed_or_out_of_range_fields():
    for step in one_step_per_table_rule():
        rule = prop.RULES[step.rule_id]
        for name, value in (("input", (1, 2)), (rule.datum, 3), (rule.datum, (200,) * 4),
                            (rule.output, "x"), ("input", None)):
            bad = prop.PropagationStep(step.rule_id, step.input_params, step.output_params,
                                       dict(step.certificate, **{name: value}))
            with pytest.raises(EaqeccError):
                prop.replay_step(bad)


def test_classical_step_replay_detects_wrong_output():
    C = lcd_54()
    step = prop.extend_column_step(C)
    step.certificate["output"] = lcd_54()  # wrong code entirely
    with pytest.raises(EaqeccError):
        prop.replay_step(step)
