import numpy as np
import pytest

from eaqecc import tables
from eaqecc.codes import LinearCode, random_code, relative_distance
from eaqecc.distance import (
    DistanceFact,
    _BitPlanes,
    _planes,
    information_set_bounds,
    span_values,
    span_weight_scan,
)
from eaqecc.errors import BudgetError, EaqeccError
from eaqecc.fields import GF
from eaqecc.matrix import MatrixFq
from oracles import (
    brute_encode,
    brute_min_distance,
    brute_min_outside,
    scalar_class_messages,
    weight,
)

F2, F3, F4, F9 = GF(2), GF(3), GF(4), GF(9)


def walk(field, rows):
    """(lead, word) pairs of the scalar-class walk, in walk order."""
    return [(lead, tuple(int(v) for v in w))
            for lead, ws in span_values(field, rows) for w in ws]


def test_span_walk_matches_oracle_order():
    rng = np.random.default_rng(48)
    # GF(8) and GF(27) have s = 3 over both bit-plane layouts; the last
    # row set has n > 64, two words per bit plane
    shapes = [(q, k, None) for q in (2, 3, 4, 5, 9, 16, 8, 27)
              for k in range(1, 5 if q < 9 else 4)] + [(3, 3, 100)]
    for q, k, n in shapes:
        field = GF(q)
        n = n or int(rng.integers(1, 7))
        rows = rng.integers(0, q, size=(k, n), dtype=np.uint8)  # dependent rows too
        want = [(m.index(1), brute_encode(field, m, rows))
                for m in scalar_class_messages(q, k)]
        assert walk(field, rows) == want, (q, k, n)


def test_span_walk_order_across_blocks():
    # on the identity the words are the messages themselves.  count is
    # the number of tensor blocks, above k where a lead's free rows span
    # several blocks.  The widest block expands 8 rows for (4, 9), an
    # even split into sum-set halves, and 5 rows over GF(9), an odd one;
    # k = 6 and 7 are the hottest GF(9) scans of the constructions and
    # propagation rules
    cases = ((2, 18, 19), (3, 12, 14), (5, 8, 12), (4, 9, 9), (9, 6, 6), (9, 7, 15))
    for q, k, count in cases:
        blocks = list(span_values(GF(q), np.eye(k, dtype=np.uint8)))
        want = np.array(list(scalar_class_messages(q, k)), dtype=np.uint8)
        leads = np.concatenate([np.full(len(ws), lead) for lead, ws in blocks])
        assert len(blocks) == count, (q, k)
        assert np.array_equal(np.concatenate([ws for _, ws in blocks]), want)
        assert np.array_equal(leads, (want != 0).argmax(axis=1))


def test_span_scan_matches_oracle():
    rng = np.random.default_rng(40)
    for field in (F2, F3, F4, F9):
        for _ in range(10):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, min(n, 4)))
            C = random_code(field, n, k, rng)
            scan = span_weight_scan(field, C.G.array)
            assert scan.min_weight == brute_min_distance(field, C.G.array)
            assert sum(1 for v in scan.witness if v) == scan.min_weight
            total = (field.order**k - 1) // (field.order - 1)
            assert scan.classes_scanned == total


def test_span_scan_relative_matches_oracle():
    rng = np.random.default_rng(41)
    for field in (F3, F9):
        for _ in range(10):
            n = int(rng.integers(4, 8))
            k = int(rng.integers(2, min(n, 5)))
            C = random_code(field, n, k, rng)
            t = int(rng.integers(1, k))
            sub = LinearCode(field, C.G.array[:t])
            scan = span_weight_scan(field, C.G.array, sub_rows=t)
            want = brute_min_outside(
                field, C.G.array, lambda w: sub.contains_vector(np.array(w, dtype=np.uint8))
            )
            assert scan.outside_min == want
            assert scan.min_weight == brute_min_distance(field, C.G.array)


@pytest.mark.parametrize("field", [F2, F3, F4, F9], ids=lambda f: f"GF{f.order}")
def test_bit_plane_word_boundaries(field):
    # m bits fill a uint8, uint16, uint32 or uint64 word, or spill into
    # a second word of the next width
    rng = np.random.default_rng(52)
    q, k = field.order, 4 if field is F2 else 3
    for m in (8, 9, 16, 17, 32, 33, 64, 65):
        planes = _planes(field, m)
        x = rng.integers(0, q, size=(3, 5, m), dtype=np.uint8)
        assert np.array_equal(planes.values(planes.encode(x)), x), m
        rows = random_code(field, m, k, rng).G.array
        scan = span_weight_scan(field, rows)
        words = [brute_encode(field, msg, rows) for msg in scalar_class_messages(q, k)]
        lightest = min(words, key=weight)  # the first lightest word in walk order
        assert (scan.min_weight, scan.witness) == (weight(lightest), lightest), m
        # n - k = m columns outside each information set
        C = random_code(field, m + k, k, rng)
        res = information_set_bounds(field, C.G.array)
        want = span_weight_scan(field, C.G.array).min_weight
        assert res.fact.exact and res.fact.value == want, m
        assert weight(res.fact.witness) == want
        assert C.contains_vector(np.array(res.fact.witness, dtype=np.uint8))
    # n = k: no column outside an information set
    res = information_set_bounds(field, np.eye(3, dtype=np.uint8))
    assert res.fact.exact and res.fact.value == 1


def test_under_reporting_kernel_raises(monkeypatch):
    # each witness is weighed again, so a kernel that reports one less
    # than the true distance can never produce a false exact fact
    C = random_code(F4, 12, 4, np.random.default_rng(53))
    distance = _BitPlanes.distance
    monkeypatch.setattr(_BitPlanes, "distance", lambda self, A, B: distance(self, A, B) - 1)
    with pytest.raises(EaqeccError, match="does not have weight"):
        span_weight_scan(F4, C.G.array)
    with pytest.raises(EaqeccError, match="does not have weight"):
        information_set_bounds(F4, C.G.array)


def test_span_scan_cap():
    rng = np.random.default_rng(42)
    C = random_code(F9, 8, 5, rng)
    with pytest.raises(BudgetError):
        span_weight_scan(F9, C.G.array, cap=100)


def test_information_sets_match_enumeration():
    rng = np.random.default_rng(43)
    for field in (F2, F3, F4, F9):
        for _ in range(10):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(1, min(n, 5)))
            C = random_code(field, n, k, rng)
            res = information_set_bounds(field, C.G.array)
            scan = span_weight_scan(field, C.G.array)
            assert res.fact.exact, (field.order, n, k)
            assert res.fact.value == scan.min_weight
            assert sum(1 for v in res.fact.witness if v) == res.fact.value


def test_information_sets_budget_honesty():
    rng = np.random.default_rng(44)
    C = random_code(F9, 12, 5, rng)
    true_d = span_weight_scan(F9, C.G.array).min_weight
    res = information_set_bounds(F9, C.G.array, work_budget=50)
    fact = res.fact
    if fact.exact:
        assert fact.value == true_d
    else:
        assert fact.certainty == "lower_bound"
        assert fact.value <= true_d
        if fact.upper is not None:
            assert fact.upper >= true_d


def test_information_sets_target_mode_stops_early():
    rng = np.random.default_rng(45)
    C = random_code(F9, 14, 6, rng)
    res = information_set_bounds(F9, C.G.array, target=2)
    assert res.fact.value >= 2 or res.fact.exact


def test_information_sets_relative_tracking():
    rng = np.random.default_rng(46)
    C = random_code(F9, 7, 3, rng)
    sub = LinearCode(F9, C.G.array[:1])
    res = information_set_bounds(F9, C.G.array, subcode=sub.G.array)
    want = brute_min_outside(
        F9, C.G.array, lambda w: sub.contains_vector(np.array(w, dtype=np.uint8))
    )
    assert res.outside_fact is not None
    if res.outside_fact.exact:
        assert res.outside_fact.value == want
    else:
        assert res.outside_fact.value <= want


# (q, n, k, seed) of random_code, the call's options, then (fact, its
# witness or upper witness) for the whole code and outside the subcode,
# the work and the rounds.  The witnesses pin the walk order (supports in
# combinations order, first coefficient 1, later levels fastest) and the
# work pins the budget's leaf-by-leaf charging; "sub" names the subcode:
# the first rows, or the span of the whole code's lightest word.
IS_PINS = [
    ((2, 40, 20, 1), {},
     ("5", "0001000000100000000100000000000000101000"), None, 1560, (3, 2, 0)),
    ((2, 90, 10, 2), {},  # n - k > 64: two words per plane
     ("29", "0000011110000000001100010000000101000111010000000001"
            "00000011000101110001110001001111000001"), None, 735, (3, 3, 2, 2, 2, 2, 2, 2, 2)),
    ((3, 30, 15, 3), {},
     ("6", "001000020000000210020000000002"), None, 2270, (3, 2, 0)),
    ((4, 24, 12, 4), {},
     ("5", "000010200000000000230001"), None, 222, (2, 1)),
    ((5, 20, 10, 5), {},
     ("6", "30101100001002000000"), None, 380, (2, 2)),
    ((9, 18, 9, 6), {},
     ("6", "010600000500340400"), None, 5970, (3, 2, 0)),
    ((16, 14, 7, 7), {},
     ("6", "0100000c037e03"), None, 644, (2, 2)),
    ((9, 18, 9, 6), {"target": 5},
     (">= 5, <= 6", "010600000500340400"), None, 594, (2, 2, 0)),
    ((9, 18, 9, 6), {"work_budget": 50},
     (">= 3, <= 7", "000010000600444120"), None, 58, (1, 1, 0)),
    ((9, 18, 9, 6), {"work_budget": 500},
     (">= 4, <= 6", "010600000500340400"), None, 506, (2, 1, 0)),
    ((2, 40, 20, 1), {"work_budget": 1000},
     (">= 4, <= 5", "0001000000100000000100000000000000101000"), None, 1001, (2, 2, 0)),
    ((4, 20, 10, 8), {"sub": 9},
     ("5", "20022000100100000000"), ("6", "00010000031020003030"), 1370, (3, 2, 0)),
    ((4, 20, 10, 8), {"sub": 9, "work_budget": 150},
     (">= 3, <= 6", "02200303301000000000"), (">= 3, <= 6", "00010000031020003030"), 152,
     (1, 1, 0)),
    ((9, 18, 9, 6), {"sub": 8},
     ("6", "010600000500340400"), ("7", "000100003407024070"), 11346, (3, 3, 0)),
    ((3, 30, 15, 3), {"sub": "lightest"},
     ("6", "001000020000000210020000000002"), ("6", "000021001020000000000000010100"), 2270,
     (3, 2, 0)),
]


@pytest.mark.parametrize("shape, options, fact, outside, work, rounds", IS_PINS)
def test_information_sets_pinned_results(shape, options, fact, outside, work, rounds):
    q, n, k, seed = shape
    field = GF(q)
    C = random_code(field, n, k, np.random.default_rng(seed))
    options = dict(options)
    if "sub" in options:
        t = options.pop("sub")
        rows = ([information_set_bounds(field, C.G.array).fact.witness] if t == "lightest"
                else C.G.array[:t])
        sub = LinearCode(field, np.array(rows, dtype=np.uint8))
        options["subcode"] = sub.G.array

    def summary(f):
        w = f.witness or f.upper_witness
        return str(f), "".join("0123456789abcdef"[v] for v in w)

    res = information_set_bounds(field, C.G.array, **options)
    assert summary(res.fact) == fact
    assert (res.outside_fact and summary(res.outside_fact)) == outside
    assert (res.work, res.rounds) == (work, rounds)


def test_information_sets_paper_pair():
    # the paper's Hermitian self-orthogonal [29,14,12]_9 code, and its
    # [29,15]_9 Hermitian dual outside the hull (the code itself): the
    # weight-5 passes put two levels into each half of the sum-set blocks
    C = LinearCode(F9, MatrixFq.from_text(tables.load_data_text("g29_14_9.txt"))[0])
    res = information_set_bounds(F9, C.G.array)
    assert str(res.fact) == "12" and res.fact.method == "information_sets"
    assert "".join(map(str, res.fact.witness)) == "00100000000000200407383646508"
    assert (res.work, res.rounds) == (17473484, (5, 5, 0))
    D = C.hermitian_dual()
    res = information_set_bounds(F9, D.G.array, subcode=C.hull_code().G.array)
    assert (str(res.fact), str(res.outside_fact)) == ("11", "11")
    assert "".join(map(str, res.outside_fact.witness)) == "10001000000000040150345700023"
    assert (res.work, res.rounds) == (26058286, (5, 5))


def test_large_prime_field_enumeration():
    # p > 128: digit sums pass 255, so the digit planes must add without wrapping
    F = GF(251)
    rng = np.random.default_rng(47)
    C = random_code(F, 4, 2, rng)
    scan = span_weight_scan(F, C.G.array)
    assert scan.min_weight == brute_min_distance(F, C.G.array)
    res = information_set_bounds(F, C.G.array)
    assert res.fact.exact and res.fact.value == scan.min_weight


def test_distance_fact_rendering():
    f = DistanceFact(5, "exact", "enumeration", (1, 0, 1, 1, 1, 1))
    assert str(f) == "5" and f.exact
    g = DistanceFact(4, "lower_bound", "information_sets", None, upper=6)
    assert str(g) == ">= 4, <= 6"
    h = DistanceFact(7, "upper_bound", "witness", None)
    assert str(h) == "<= 7"


def test_hull_relative_information_sets_close_seed7_case():
    # case 16 of the seeded GF(9) [15,13] codes with a 1-dimensional hull:
    # the information-set loop once left the outside distance at >= 10, <= 13
    rng = np.random.default_rng(7)
    cases = []
    while len(cases) < 17:
        G = rng.integers(0, 9, size=(13, 15), dtype=np.uint8)
        if MatrixFq(F9, G).rank() == 13 and LinearCode(F9, G).hull_dim == 1:
            cases.append(LinearCode(F9, G))
    C = cases[16]
    D, H = C.hermitian_dual(), C.hull_code()
    out, whole = relative_distance(D, H, enum_cap=1)
    assert out.exact and out.value == 12
    assert whole.exact and whole.value == 10
    wit = np.array(out.witness, dtype=np.uint8)
    assert D.contains_vector(wit) and not H.contains_vector(wit)
    assert int((wit != 0).sum()) == 12


def test_hull_relative_information_sets_match_brute_force():
    rng = np.random.default_rng(49)
    for field in (F3, F4, F9):
        for _ in range(10):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, min(n, 3 if field is F9 else 4) + 1))
            big = random_code(field, n, k, rng)
            sub = LinearCode(field, big.G.array[: int(rng.integers(1, k))])
            out, whole = relative_distance(big, sub, enum_cap=1)
            member = lambda w: sub.contains_vector(np.array(w, dtype=np.uint8))  # noqa: E731
            assert out.exact and out.value == brute_min_outside(field, big.G.array, member)
            assert whole.exact and whole.value == brute_min_distance(field, big.G.array)
            assert not member(out.witness)
