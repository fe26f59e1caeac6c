import numpy as np
import pytest

from eaqecc import distance as dist
from eaqecc.codes import (
    LinearCode,
    _adapted_rows,
    min_weight_outside,
    random_code,
    relative_distance,
)
from eaqecc.construct import hermitian_construct, intersection
from eaqecc.errors import BudgetError, PreconditionError
from eaqecc.fields import GF
from eaqecc.matrix import MatrixFq, gf_matmul
from helpers import count_engine_runs
from oracles import (
    brute_codewords,
    brute_min_distance,
    brute_min_outside,
    brute_weight_multiset,
    greedy_adapted_rows,
)

F2, F3, F4, F9 = GF(2), GF(3), GF(4), GF(9)


def test_repetition_and_even_weight_pair():
    rep = LinearCode(F2, [[1, 1, 1]])
    assert (rep.n, rep.k, rep.min_distance().value) == (3, 1, 3)
    even = rep.euclidean_dual()
    assert (even.n, even.k, even.min_distance().value) == (3, 2, 2)


def test_dual_of_full_space_is_zero_code():
    full = LinearCode(F3, np.eye(4, dtype=np.uint8))
    zero = full.euclidean_dual()
    assert zero.k == 0
    assert zero.min_distance().value == 5  # n + 1 convention
    assert zero.min_distance().method == "convention"


def test_hermitian_dual_of_zero_code_is_full_space():
    zero = LinearCode(F9, MatrixFq.zeros(F9, 0, 4))
    full = zero.hermitian_dual()
    assert full.k == 4


@pytest.mark.parametrize("field", [F4, F9])
def test_dual_dimension_and_involution(field):
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))
        C = random_code(field, n, k, rng)
        E = C.euclidean_dual()
        H = C.hermitian_dual()
        assert E.k == H.k == n - k
        assert E.euclidean_dual() == C
        assert H.hermitian_dual() == C


def test_repetition_distance_over_fields():
    for field in (F2, F3, F4, F9):
        C = LinearCode(field, [[1] * 6])
        fact = C.min_distance()
        assert fact.value == 6 and fact.exact and fact.witness is not None


@pytest.mark.parametrize("field", [F4, F9])
def test_hull_dim_matches_gram_rank_and_symmetry(field):
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, n))
        C = random_code(field, n, k, rng)
        gram = C.gram_hermitian()
        assert C.hull_dim == k - gram.rank()
        assert C.hermitian_dual().hull_dim == C.hull_dim
        hull = C.hull_code()
        assert C.contains_code(hull)
        assert C.hermitian_dual().contains_code(hull)


def test_membership_against_brute_span():
    rng = np.random.default_rng(31)
    for field in (F2, F3, F4, F9):
        for _ in range(6):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, n))
            C = random_code(field, n, k, rng)
            span = set(brute_codewords(field, C.G.array))
            for v in rng.integers(0, field.order, size=(40, n)):
                assert C.contains_vector(v) == (tuple(int(x) for x in v) in span)
            sub = LinearCode(field, C.G.array[: k // 2])
            assert C.contains_code(sub) and sub.contains_code(C) == (k // 2 == k)
            assert all(C.contains_vector(np.array(w, dtype=np.uint8)) for w in span)


def test_lcd_code_has_trivial_hull():
    C = LinearCode(F9, np.hstack([np.eye(4, dtype=np.uint8), np.full((4, 1), 2, np.uint8)]))
    assert C.hull_dim == 0


def test_min_distance_against_oracle():
    rng = np.random.default_rng(22)
    for field in (F2, F3, F4, F9):
        for _ in range(12):
            n = int(rng.integers(3, 8))
            k = int(rng.integers(1, min(n, 4)))
            C = random_code(field, n, k, rng)
            fact = C.min_distance()
            assert fact.exact
            assert fact.value == brute_min_distance(field, C.G.array)
            assert sum(1 for v in fact.witness if v) == fact.value
            assert C.contains_vector(np.array(fact.witness, dtype=np.uint8))


def test_singleton_on_exact_facts():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, n + 1))
        C = random_code(F9, n, k, rng)
        assert C.min_distance().value <= n - k + 1


def test_min_weight_outside_zero_subcode_equals_min_distance():
    rng = np.random.default_rng(24)
    C = random_code(F9, 7, 3, rng)
    zero = LinearCode(F9, MatrixFq.zeros(F9, 0, 7))
    assert min_weight_outside(C, zero).value == C.min_distance().value
    # past the cap both run the information-set loop, the zero subcode included
    for budget in (dist.DEFAULT_WORK_BUDGET, 1):
        # both calls cache their exact facts on the code they measure
        whole = LinearCode(F9, C.G).min_distance(enum_cap=1, work_budget=budget)
        out, allf = relative_distance(LinearCode(F9, C.G), zero, enum_cap=1, work_budget=budget)
        assert whole.method == "information_sets"
        for fact in (out, allf):
            assert (fact.value, fact.certainty, fact.method, fact.witness, fact.upper) == (
                whole.value, whole.certainty, whole.method, whole.witness, whole.upper
            )
    assert whole.certainty == "lower_bound"


def test_min_weight_outside_against_oracle():
    rng = np.random.default_rng(25)
    for field in (F3, F9):
        for _ in range(12):
            n = int(rng.integers(4, 8))
            k = int(rng.integers(2, min(n, 5)))
            C = random_code(field, n, k, rng)
            t = int(rng.integers(1, k))
            sub = LinearCode(field, C.G.array[:t])
            got = min_weight_outside(C, sub)
            want = brute_min_outside(
                field, C.G.array, lambda w: sub.contains_vector(np.array(w, dtype=np.uint8))
            )
            assert got.exact and got.value == want
            wit = np.array(got.witness, dtype=np.uint8)
            assert C.contains_vector(wit) and not sub.contains_vector(wit)


def test_min_weight_outside_preconditions():
    rng = np.random.default_rng(26)
    C = random_code(F9, 6, 3, rng)
    other = random_code(F9, 6, 4, rng)
    with pytest.raises(PreconditionError):
        min_weight_outside(C, other)
    with pytest.raises(PreconditionError):
        min_weight_outside(C, C)


def test_relative_distance_reports_both_facts():
    C = LinearCode(F3, [[1, 1, 0, 0], [0, 0, 1, 1]])
    sub = LinearCode(F3, [[1, 1, 0, 0]])
    out, allf = relative_distance(C, sub)
    assert allf.value == 2 and out.value == 2


def test_hermitian_construct_measures_a_code_once(monkeypatch):
    """A second construction on one code runs no engine, nor does d of its
    dual afterwards; the same code built afresh is measured again."""
    runs = count_engine_runs(monkeypatch)
    C = random_code(F9, 8, 3, np.random.default_rng(40))
    assert C.hull_dim < C.n - C.k  # delta is relative to the hull
    first = hermitian_construct(C)
    assert len(runs) == 1 and runs[0][1] is C.hull_code()
    assert hermitian_construct(C) == first and len(runs) == 1
    d = C.hermitian_dual().min_distance()
    assert len(runs) == 1
    assert hermitian_construct(LinearCode(F9, C.G)) == first and len(runs) == 2
    assert d.exact and d.value == brute_min_distance(F9, C.hermitian_dual().G.array)


def test_open_relative_facts_are_not_cached(monkeypatch):
    """Facts a budget leaves open are recomputed, and settle d only once exact."""
    runs = count_engine_runs(monkeypatch)
    C = random_code(F9, 7, 3, np.random.default_rng(24))
    sub = LinearCode(F9, C.G.array[:1])
    out, whole = relative_distance(C, sub, enum_cap=1, work_budget=1)
    assert not out.exact and not whole.exact
    assert not C.min_distance(enum_cap=1, work_budget=1).exact and len(runs) == 2
    out, whole = relative_distance(C, sub, enum_cap=1, work_budget=1)
    assert not out.exact and len(runs) == 3
    out, whole = relative_distance(C, sub, enum_cap=1)
    assert out.exact and whole.exact and len(runs) == 4
    assert relative_distance(C, sub, enum_cap=1, work_budget=1) == (out, whole)
    assert C.min_distance(enum_cap=1, work_budget=1) == whole and len(runs) == 4
    scan = dist.span_weight_scan(F9, _adapted_rows(C, sub), sub_rows=1)
    assert (out.value, whole.value) == (scan.outside_min, scan.min_weight)


def test_exact_relative_fact_settles_min_distance(monkeypatch):
    runs = count_engine_runs(monkeypatch)
    C = random_code(F4, 9, 4, np.random.default_rng(41))
    out, whole = relative_distance(C, LinearCode(F4, C.G.array[:2]))
    assert whole.exact and len(runs) == 1
    assert C.min_distance() is whole and C.min_distance(target=1) is whole
    assert len(runs) == 1
    assert whole.value == brute_min_distance(F4, C.G.array)


def test_cached_code_still_checks_its_subcode():
    rng = np.random.default_rng(42)
    C = random_code(F9, 6, 3, rng)
    sub = LinearCode(F9, C.G.array[:1])
    facts = relative_distance(C, sub)
    other = random_code(F9, 6, 1, rng)
    assert not C.contains_code(other)
    for bad in (other, LinearCode(F9, C.G), random_code(F9, 7, 1, rng)):
        with pytest.raises(PreconditionError):
            relative_distance(C, bad)
    assert relative_distance(C, LinearCode(F9, sub.G)) is facts


def test_relative_facts_are_cached_per_subcode():
    C = LinearCode(F3, [[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]])
    subs = [LinearCode(F3, [[1, 1, 0, 0, 0]]), LinearCode(F3, MatrixFq.zeros(F3, 0, 5))]
    for _ in range(2):
        assert [relative_distance(C, sub)[0].value for sub in subs] == [3, 2]


def test_hull_code_is_built_once():
    """hull_code returns one object, equal to the intersection with the
    Hermitian dual computed afresh, for trivial and nontrivial hulls."""
    rng = np.random.default_rng(43)
    cases = [LinearCode(F4, [[1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]])]
    cases += [random_code(field, 6, 2, rng) for field in (F4, F9) for _ in range(6)]
    dims = set()
    for C in cases:
        hull = C.hull_code()
        assert C.hull_code() is hull
        assert hull == intersection(C, C.hermitian_dual()) == C.hermitian_dual().hull_code()
        dims.add(hull.k)
    assert 0 in dims and 2 in dims


@pytest.mark.parametrize("order", ["hull, dual", "dual, hull", "dual, dual's hull"])
def test_code_and_hermitian_dual_share_one_hull_code(order):
    # whichever code builds the hull code, and before or after the dual
    # is built, the two codes hold one hull code
    rng = np.random.default_rng(44)
    for field in (F4, F9):
        C = random_code(field, 6, 2, rng)
        if order == "hull, dual":
            hull = C.hull_code()
            D = C.hermitian_dual()
        else:
            D = C.hermitian_dual()
            hull = (D if order == "dual, dual's hull" else C).hull_code()
        assert C.hull_code() is hull and D.hull_code() is hull
        assert C.hull_code() is C.hermitian_dual().hull_code()
        assert D.hermitian_hull() is C.hermitian_hull()


def test_scale_columns_identity_and_errors():
    rng = np.random.default_rng(27)
    C = random_code(F9, 6, 3, rng)
    assert C.scale_columns([1] * 6) == C
    with pytest.raises(PreconditionError):
        C.scale_columns([1, 1, 0, 1, 1, 1])
    with pytest.raises(PreconditionError):
        C.scale_columns([1, 1])


def test_scale_columns_preserves_weight_multiset():
    rng = np.random.default_rng(28)
    for _ in range(8):
        C = random_code(F9, 5, 2, rng)
        scalars = [int(rng.integers(1, 9)) for _ in range(5)]
        C2 = C.scale_columns(scalars)
        assert brute_weight_multiset(F9, C.G.array) == brute_weight_multiset(F9, C2.G.array)
        assert C2.min_distance().value == C.min_distance().value


def test_permute_columns_invariants():
    rng = np.random.default_rng(29)
    C = random_code(F9, 7, 3, rng)
    assert C.permute_columns(range(7)) == C
    for _ in range(10):
        perm = list(rng.permutation(7))
        C2 = C.permute_columns(perm)
        assert C2.min_distance().value == C.min_distance().value
        assert C2.hull_dim == C.hull_dim
    with pytest.raises(PreconditionError):
        C.permute_columns([0, 0, 1, 2, 3, 4, 5])


def test_rank_deficient_generator_rejected():
    with pytest.raises(PreconditionError):
        LinearCode(F3, [[1, 1, 0], [2, 2, 0]])


def test_code_text_round_trip():
    rng = np.random.default_rng(30)
    C = random_code(F9, 6, 3, rng)
    C2 = LinearCode.from_text(C.to_text())
    assert C2 == C
    with pytest.raises(PreconditionError):
        LinearCode.from_text(MatrixFq.identity(F9, 2).to_text(kind="paritycheck"))


def test_dual_weight_outside_hull_at_scale():
    # [16,11] dual of the bundled [16,5,8] code: the minimum weight outside
    # the shared [16,3,12] hull is 5, resolved by the information-set loop
    # (9^11 words are far out of enumeration reach)
    from eaqecc import tables

    C16 = LinearCode.from_text(tables.load_data_text("g16_5_9.txt"))
    dual = C16.hermitian_dual()
    hull = C16.hull_code()
    out, allf = relative_distance(dual, hull, enum_cap=10**6, work_budget=10**8)
    assert out.exact and out.value == 5
    assert allf.exact and allf.value == 5
    wit = np.array(out.witness, dtype=np.uint8)
    assert dual.contains_vector(wit) and not hull.contains_vector(wit)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_adapted_rows_match_the_greedy_scan(q):
    F = GF(q)
    rng = np.random.default_rng(70 + q)
    cases = 0
    while cases < 60:
        n = int(rng.integers(1, 10))
        big = random_code(F, n, int(rng.integers(1, n + 1)), rng)
        j = int(rng.integers(0, big.k))
        coeffs = rng.integers(0, q, size=(j, big.k), dtype=np.uint8)
        if MatrixFq(F, coeffs).rank() < j:
            continue
        sub = LinearCode(F, gf_matmul(coeffs, big.G.array, F))
        rows = _adapted_rows(big, sub)
        assert np.array_equal(rows, greedy_adapted_rows(big, sub))
        assert np.array_equal(rows[:j], sub.G.array) and MatrixFq(F, rows).rank() == big.k
        cases += 1


# (field, n, k, codes): small codes stay on enumeration, and the larger
# shape of each field is one the cost model sends to information sets
ENGINE_SWEEP = [(F2, 14, 7, 3), (F2, 30, 18, 2), (F3, 10, 5, 3), (F3, 20, 12, 2),
                (F4, 10, 4, 3), (F4, 17, 10, 2), (F9, 9, 4, 3), (F9, 11, 7, 3),
                (GF(25), 7, 3, 3), (GF(25), 10, 5, 2)]


def _assert_witness(C, witness, weight, sub=None):
    w = np.array(witness, dtype=np.uint8)
    assert np.count_nonzero(w) == weight and C.contains_vector(w)
    assert sub is None or not sub.contains_vector(w)


def test_engine_choice_matches_both_engines():
    """The cost-based choice, forced enumeration and forced information sets
    give equal facts: plain, outside a proper subcode, and outside {0}."""
    rng = np.random.default_rng(31)
    methods = {}
    for field, n, k, count in ENGINE_SWEEP:
        for _ in range(count):
            C = random_code(field, n, k, rng)
            j = int(rng.integers(1, k))
            coeffs = random_code(field, k, j, rng).G.array
            subs = [LinearCode(field, gf_matmul(coeffs, C.G.array, field)),
                    LinearCode(field, MatrixFq.zeros(field, 0, n))]
            fact = LinearCode(field, C.G).min_distance()
            scan = dist.span_weight_scan(field, C.G.array)
            isd = dist.information_set_bounds(field, C.G.array)
            assert fact.exact and isd.fact.exact
            assert fact.value == scan.min_weight == isd.fact.value
            for f in (fact, isd.fact):
                _assert_witness(C, f.witness, f.value)
            _assert_witness(C, scan.witness, scan.min_weight)
            methods.setdefault(fact.method, set()).add(field.order)
            for sub in subs:
                out, whole = relative_distance(LinearCode(field, C.G), sub)
                scan = dist.span_weight_scan(field, _adapted_rows(C, sub), sub_rows=sub.k)
                isd = dist.information_set_bounds(field, C.G.array, subcode=sub.G.array)
                assert out.exact and whole.exact and isd.fact.exact and isd.outside_fact.exact
                assert out.value == scan.outside_min == isd.outside_fact.value
                assert whole.value == scan.min_weight == isd.fact.value == fact.value
                assert out.method == whole.method
                for f, outside in ((out, sub), (whole, None), (isd.outside_fact, sub)):
                    _assert_witness(C, f.witness, f.value, outside)
                _assert_witness(C, scan.outside_witness, scan.outside_min, sub)
                methods.setdefault(out.method, set()).add(field.order)
    assert methods == {"enumeration": {2, 3, 4, 9, 25}, "information_sets": {2, 3, 4, 9, 25}}


def test_engine_choice_pins_information_sets_for_a_random_11_7_9_code(tmp_path, capsys):
    from eaqecc import cli

    C = random_code(F9, 11, 7, np.random.default_rng(5))
    path = tmp_path / "c.txt"
    path.write_text(C.to_text())
    assert cli.main(["distance", str(path), "--format", "machine"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    d = dist.span_weight_scan(F9, C.G.array).min_weight
    assert line.startswith(f"distance value={d} certainty=exact method=information_sets ")


@pytest.mark.parametrize("stop", ["budget", "tensor cap"])
def test_engine_choice_falls_back_to_enumeration(monkeypatch, stop):
    """A chosen information-set run that stops short of exact leaves the
    facts to enumeration.  Three zero columns make the code's second form
    lack three fresh columns, so the run overruns the messages estimated
    for generic forms; a pass past the tensor cap raises BudgetError."""
    base = random_code(F9, 11, 7, np.random.default_rng(0))
    C = LinearCode(F9, np.hstack([base.G.array, np.zeros((7, 3), dtype=np.uint8)]))
    runs = []
    real = dist.information_set_bounds

    def spy(*args, **kw):
        if stop == "tensor cap":
            runs.append(None)
            raise BudgetError("weight-pass tensor would exceed the memory cap")
        runs.append(real(*args, **kw))
        return runs[-1]

    monkeypatch.setattr(dist, "information_set_bounds", spy)
    sub = LinearCode(F9, C.G.array[:2])
    plain = LinearCode(F9, C.G).min_distance()
    out, whole = relative_distance(LinearCode(F9, C.G), sub)
    assert len(runs) == 2  # the model chose information sets both times
    if stop == "budget":
        assert not runs[0].fact.exact and not runs[1].outside_fact.exact
    for fact in (plain, out, whole):
        assert fact.exact and fact.method == "enumeration"
    scan = dist.span_weight_scan(F9, _adapted_rows(C, sub), sub_rows=2)
    assert plain.value == whole.value == scan.min_weight and out.value == scan.outside_min


def test_hermitian_dual_identities():
    """(C^perp_h)^perp_h is C itself, and C and its dual share one hull,
    whichever of the two computed it first."""
    rng = np.random.default_rng(32)
    for field in (F4, F9, GF(16)):
        for hull_first in (False, True):
            C = random_code(field, 8, 3, rng)
            if hull_first:
                C.hermitian_hull()
            D = C.hermitian_dual()
            assert D.hermitian_dual() is C
            for code in (C, D) if hull_first else (D, C):
                basis, ell = LinearCode(field, code.G).hermitian_hull()
                got, got_ell = code.hermitian_hull()
                assert got_ell == ell and got == basis
            assert D.hermitian_hull() is C.hermitian_hull()
