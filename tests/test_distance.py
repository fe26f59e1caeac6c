import itertools
import math
import tracemalloc

import numpy as np
import pytest

from eaqecc import distance, tables
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
from eaqecc.matrix import MatrixFq, gf_matmul
from oracles import (
    brute_encode,
    brute_min_distance,
    brute_min_outside,
    recosting_next_form,
    resumming_information_sets_if_cheaper,
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


@pytest.mark.parametrize("field", [F2, F3, F4, F9], ids=lambda f: f"GF{f.order}")
def test_bit_plane_distance_counts_differing_symbols(field):
    # the kernel against a symbol-by-symbol count, for every word width
    # and in both broadcast shapes its callers use; n = 300 makes the
    # counts uint16
    rng = np.random.default_rng(54)
    q = field.order
    for m in (8, 9, 16, 17, 32, 33, 64, 65):
        for n in (m, 300):
            planes = _planes(field, m, n)
            assert planes.counts == (np.uint16 if n > 255 else np.uint8)
            x = rng.integers(0, q, size=(3, 5, m), dtype=np.uint8)
            y = rng.integers(0, q, size=(3, 7, m), dtype=np.uint8)
            y[:, 0] = x[:, 0]  # distance 0 too
            want = (y[:, :, None, :] != x[:, None, :, :]).sum(axis=-1)
            X, Y = planes.encode(x), planes.encode(y)
            # the scan: (..., |Y|, 1) against (..., 1, |X|)
            got = planes.distance(X[..., None, :], Y[..., :, None])
            assert got.dtype == planes.counts and np.array_equal(got, want), (m, n)
            # the weight pass: (batch, head, 1) against (batch, 1, tail)
            got = planes.distance(Y[..., :, None], X[..., None, :])
            assert got.dtype == planes.counts and np.array_equal(got, want), (m, n)


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


def pinned_run(shape, options):
    """(fact, outside fact, work, rounds) of one IS_PINS row, facts as pinned."""
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
    return summary(res.fact), res.outside_fact and summary(res.outside_fact), res.work, res.rounds


@pytest.mark.parametrize("shape, options, fact, outside, work, rounds", IS_PINS)
def test_information_sets_pinned_results(shape, options, fact, outside, work, rounds):
    assert pinned_run(shape, options) == (fact, outside, work, rounds)


def test_rotated_pivot_sets_of_random_codes_get_no_credit(monkeypatch):
    # the random codes' forms have pivot sets that are rotations of each
    # other, but the codes are not cyclic: with small batches the shift
    # test runs and fails, and every pin holds
    proofs = spy_shift_tests(monkeypatch)
    monkeypatch.setattr(distance, "_BATCH_WORDS", 64)
    for shape, options, *want in IS_PINS:
        assert pinned_run(shape, options) == tuple(want), (shape, options)
    assert proofs and not any(proofs)


def test_information_sets_paper_pair():
    # the paper's Hermitian self-orthogonal [29,14,12]_9 code, and its
    # [29,15]_9 Hermitian dual outside the hull (the code itself): the
    # weight-5 passes put two levels into each half of the sum-set blocks
    C = LinearCode(F9, MatrixFq.from_text(tables.load_data_text("g29_14_9.txt"))[0])
    res = information_set_bounds(F9, C.G.array)
    assert str(res.fact) == "12" and res.fact.method == "information_sets"
    assert "".join(map(str, res.fact.witness)) == "00100000000000200407383646508"
    # both codes are cyclic: the first form enumerates, and the forms over
    # its rotations share its passes
    assert (res.work, res.rounds) == (8760780, (5, 5, 5))
    D = C.hermitian_dual()
    res = information_set_bounds(F9, D.G.array, subcode=C.hull_code().G.array)
    assert (str(res.fact), str(res.outside_fact)) == ("11", "11")
    assert "".join(map(str, res.outside_fact.witness)) == "10001000000000040150345700023"
    assert (res.work, res.rounds) == (13059118, (5, 5))


def test_pass_order_matches_the_recosting_oracle(monkeypatch):
    # step costs are cached and each form is keyed once a pass; the pass
    # order, the cost estimates and whole runs stay as they were when
    # every form was re-costed on every pass
    rng = np.random.default_rng(49)
    for _ in range(400):
        q, k = int(rng.choice((2, 3, 4, 9))), int(rng.integers(1, 13))
        forms = [distance._Tally(int(rng.integers(0, k + 1)), int(rng.integers(0, k + 1)))
                 for _ in range(int(rng.integers(1, 8)))]
        assert distance._next_form(forms, q, k) is recosting_next_form(forms, q, k)
    grid = []
    for _ in range(300):
        q, n = int(rng.choice((2, 3, 4, 9))), int(rng.integers(2, 41))
        k = int(rng.integers(1, n))
        grid.append((q, n, k, int(rng.integers(1, n - k + 2))))
    codes = [random_code(GF(q), n, k, rng) for q, n, k in ((2, 24, 12), (4, 14, 6), (9, 12, 5))]
    estimates = [distance.information_sets_if_cheaper(*args) for args in grid]
    runs = [information_set_bounds(C.field, C.G.array) for C in codes]
    assert any(estimates) and None in estimates
    monkeypatch.setattr(distance, "_next_form", recosting_next_form)
    assert [distance.information_sets_if_cheaper(*args) for args in grid] == estimates
    assert [information_set_bounds(C.field, C.G.array) for C in codes] == runs


def test_cost_estimate_matches_the_resumming_replay():
    # the estimate keeps the lower bound's sum and flag as passes raise
    # one form's r; the replay that re-sums them over every form gives the
    # same messages on the pass-order test's seeded grid (the same draws)
    # and on every small case
    rng = np.random.default_rng(49)
    for _ in range(400):
        rng.choice((2, 3, 4, 9))
        k = int(rng.integers(1, 13))
        for _ in range(int(rng.integers(1, 8))):
            rng.integers(0, k + 1), rng.integers(0, k + 1)
    grid = []
    for _ in range(300):
        q, n = int(rng.choice((2, 3, 4, 9))), int(rng.integers(2, 41))
        k = int(rng.integers(1, n))
        grid.append((q, n, k, int(rng.integers(1, n - k + 2))))
    # an upper past the Singleton bound n - k + 1 lets a form finish first
    grid += [(q, n, k, upper) for q in (2, 3, 4, 9) for n in range(2, 21) for k in range(1, n)
             for upper in range(1, n + 1)]
    estimates = [distance.information_sets_if_cheaper(*args) for args in grid]
    assert any(estimates) and None in estimates
    assert estimates == [resumming_information_sets_if_cheaper(*args) for args in grid]


def leaf_messages(q, k, supports):
    """Every message of each support's leaf, in walk order: coefficient 1
    on the first column, later levels varying fastest."""
    msgs = []
    for support in supports:
        for cfs in itertools.product(range(1, q), repeat=len(support) - 1):
            m = [0] * k
            for col, c in zip(support, (1, *cfs)):
                m[col] = c
            msgs.append(m)
    return np.array(msgs, dtype=np.uint8).reshape(-1, k)


def spy_offers(monkeypatch):
    """A list that collects (supports, weights) of every offer_leaves call."""
    offers, offer = [], distance._ISState.offer_leaves

    def spy(self, form, supports, wts):
        offers.append(([tuple(int(c) for c in supports[j]) for j in range(len(supports))],
                       wts.copy()))
        return offer(self, form, supports, wts)

    monkeypatch.setattr(distance._ISState, "offer_leaves", spy)
    return offers


@pytest.mark.parametrize("batch_words", [0, 64, distance._BATCH_WORDS])
def test_weight_pass_order_and_charging(monkeypatch, batch_words):
    # each pass hands offer_leaves every support in combinations order,
    # in batches of at most _BATCH_WORDS words or one leaf, each leaf
    # weighed in walk order, and charges them all.  With 64-word batches
    # the [20,12]_2 passes split their heads over several chunks and
    # spans; in every pass with a tail, the heads that end past column
    # k - 1 - t would have no tail and lead no support
    monkeypatch.setattr(distance, "_BATCH_WORDS", batch_words)
    offers = spy_offers(monkeypatch)
    for field, n, k, seed in ((F2, 20, 12, 70), (F3, 10, 6, 71), (F9, 9, 5, 72)):
        q = field.order
        form = distance._systematic_forms(field, random_code(
            field, n, k, np.random.default_rng(seed)).G.array)[0]
        for w in range(1, k + 1):
            del offers[:]
            state = distance._ISState(field, form.G, 10**12)
            distance._bz_weight_pass(state, form, w)
            leaf = (q - 1) ** (w - 1)
            supports = [s for batch, _ in offers for s in batch]
            assert supports == list(itertools.combinations(range(k), w)), (q, w)
            assert all(len(batch) * leaf <= max(batch_words, leaf) for batch, _ in offers)
            assert state.work == math.comb(k, w) * leaf
            for batch, wts in offers:
                words = gf_matmul(leaf_messages(q, k, batch), form.G, field)
                assert np.array_equal(wts.ravel(), (words != 0).sum(axis=1)), (q, w)
    # a budget that runs out stops at the leaf where it ran out, whatever
    # the batch: 64 words a leaf over GF(9) (the last form above)
    del offers[:]
    state = distance._ISState(F9, form.G, 300)
    with pytest.raises(distance._BudgetExhausted):
        distance._bz_weight_pass(state, form, 3)
    supports = [s for batch, _ in offers for s in batch]
    assert supports == list(itertools.combinations(range(5), 3))[: len(supports)]
    assert len(supports) >= 5 and state.work == 5 * 64


def test_weight_pass_memory_stays_within_a_few_batches(monkeypatch):
    # head words and support indices are built a span of supports at a
    # time.  With 1024-word batches the [400,200]_2 code's weight-3 pass
    # would need C(200, 2) = 19,900 head words, 20 batches' worth, as one
    # table; the budget stops that pass in its second batch
    monkeypatch.setattr(distance, "_BATCH_WORDS", 1024)
    C = random_code(F2, 400, 200, np.random.default_rng(80))
    peaks, weight_pass = [], distance._bz_weight_pass

    def spy(state, form, w):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            weight_pass(state, form, w)
        finally:
            peaks.append((w, tracemalloc.get_traced_memory()[1] - start))

    monkeypatch.setattr(distance, "_bz_weight_pass", spy)
    budget = 2 * (200 + math.comb(200, 2)) + 1500
    tracemalloc.start()
    try:
        res = information_set_bounds(F2, C.G.array, work_budget=budget)
    finally:
        tracemalloc.stop()
    assert (res.work, res.rounds) == (budget + 1, (2, 2, 0))
    w, peak = peaks[-1]
    planes = _planes(F2, 200)  # the 200 columns outside an information set
    assert w == 3 and peak <= 8 * 1024 * planes.words * planes.dtype.itemsize


@pytest.mark.parametrize("field", [F2, F3, GF(5)], ids=lambda f: f"GF{f.order}")
def test_weights_past_a_byte(field):
    # every nonzero word of the [600,2] code with rows 1^600 and
    # 1^300 0^300 weighs at least 300: weights, and the information-set
    # loop's message weight plus distance, must not wrap in a byte
    rows = np.zeros((2, 600), dtype=np.uint8)
    rows[0], rows[1, :300] = 1, 1
    scan = span_weight_scan(field, rows)
    assert (scan.min_weight, weight(scan.witness)) == (300, 300)
    res = information_set_bounds(field, rows)
    assert res.fact.exact and (res.fact.value, weight(res.fact.witness)) == (300, 300)


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


# -- cyclic codes: a pass on one form counts for its rotations ------------------


def poly_divmod(field, num, den):
    """Quotient and remainder of num by the monic den, coefficients low to high."""
    rem, d = list(num), len(den) - 1
    quot = [0] * max(1, len(num) - d)
    for i in range(len(num) - 1 - d, -1, -1):
        c = rem[i + d]
        quot[i] = c
        for j, v in enumerate(den):
            rem[i + j] = field.sub(rem[i + j], field.mul(c, v))
    return quot, rem[:d]


def poly_mul(field, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def cyclic_factors(field, n):
    """Monic irreducible factors of x^n - 1, by trial division (p does not divide n)."""
    rest, found, d = [field.neg(1)] + [0] * (n - 1) + [1], [], 1
    while 2 * d < len(rest):
        for tail in itertools.product(range(field.order), repeat=d):
            quot, rem = poly_divmod(field, rest, list(tail) + [1])
            while not any(rem):
                found.append(list(tail) + [1])
                rest = quot
                quot, rem = poly_divmod(field, rest, list(tail) + [1])
        d += 1
    return found + ([rest] if len(rest) > 1 else [])


def cyclic_code(field, n, factors):
    """The cyclic code generated by the product g of factors: rows x^i g(x)."""
    g = [1]
    for f in factors:
        g = poly_mul(field, g, f)
    k = n - len(g) + 1
    G = np.zeros((k, n), dtype=np.uint8)
    for i in range(k):
        G[i, i : i + len(g)] = g
    return LinearCode(field, G)


def cyclic_codes(field, n, max_words):
    """(code, its generator's factors): one cyclic code of length n for each
    dimension 2 <= k < n with q^k <= max_words, fewest factors first."""
    factors, dims = cyclic_factors(field, n), set()
    for size in range(1, len(factors)):
        for chosen in itertools.combinations(factors, size):
            k = n - sum(len(f) - 1 for f in chosen)
            if k >= 2 and field.order**k <= max_words and k not in dims:
                dims.add(k)
                yield cyclic_code(field, n, chosen), list(chosen)


def spy_shift_tests(monkeypatch):
    """A list that collects the result of every cyclic-shift test."""
    proofs, test = [], distance._shift_invariant

    def spy(*args):
        proofs.append(test(*args))
        return proofs[-1]

    monkeypatch.setattr(distance, "_shift_invariant", spy)
    return proofs


CYCLIC = [(F2, 7), (F2, 15), (F2, 17), (F3, 11), (F3, 13), (F4, 5), (F4, 15), (F9, 8), (F9, 10)]


def test_cyclic_factors():
    # [7,4] Hamming and ternary [11,6] Golay generators are among the factors
    assert [1, 1, 0, 1] in cyclic_factors(F2, 7)
    assert [2, 0, 1, 2, 1, 1] in cyclic_factors(F3, 11)
    for field, n in CYCLIC:
        for C, _ in cyclic_codes(field, n, 1 << 12):
            assert C.contains_code(LinearCode(field, np.roll(C.G.array, 1, axis=1)))


@pytest.mark.parametrize("field, n", CYCLIC, ids=lambda v: str(getattr(v, "order", v)))
def test_cyclic_credit_matches_brute_force(monkeypatch, field, n):
    # with no batch to save, the shift test runs before the first pass;
    # every form's pivot set is a rotation of the first, so all forms end
    # with the same r
    proofs = spy_shift_tests(monkeypatch)
    monkeypatch.setattr(distance, "_BATCH_WORDS", 0)
    codes = list(cyclic_codes(field, n, 3000))
    assert codes
    for C, _ in codes:
        res = information_set_bounds(field, C.G.array)
        assert res.fact.exact and res.fact.value == brute_min_distance(field, C.G.array)
        assert weight(res.fact.witness) == res.fact.value
        assert C.contains_vector(np.array(res.fact.witness, dtype=np.uint8))
        assert len(res.rounds) > 1 and len(set(res.rounds)) == 1, res.rounds
    assert len(proofs) == len(codes) and all(proofs)


@pytest.mark.parametrize("field, n", [(F2, 15), (F3, 13), (F4, 15), (F9, 10)],
                         ids=lambda v: str(getattr(v, "order", v)))
def test_cyclic_credit_relative_facts(monkeypatch, field, n):
    proofs = spy_shift_tests(monkeypatch)
    factors, kinds = cyclic_factors(field, n), set()
    for C, chosen in cyclic_codes(field, n, 600):
        subs = [(LinearCode(field, C.G.array[:1]), False)]  # one word: not cyclic
        # the cyclic subcodes one more factor of x^n - 1 generates
        subs += [(cyclic_code(field, n, chosen + [f]), True) for f in factors
                 if f not in chosen and len(f) - 1 < C.k]
        for sub, cyclic in subs:
            del proofs[:]
            plain = information_set_bounds(field, C.G.array, subcode=sub.G.array)
            assert not proofs  # no pass of so small a loop fills a batch
            with monkeypatch.context() as patch:
                patch.setattr(distance, "_BATCH_WORDS", 0)
                res = information_set_bounds(field, C.G.array, subcode=sub.G.array)
            member = lambda w: sub.contains_vector(np.array(w, dtype=np.uint8))  # noqa: E731
            want = brute_min_outside(field, C.G.array, member)
            assert res.outside_fact.exact and res.outside_fact.value == want
            assert res.fact.exact and res.fact.value == brute_min_distance(field, C.G.array)
            assert not member(res.outside_fact.witness)
            assert proofs == [True, cyclic]
            kinds.add(cyclic)
            if cyclic:
                assert len(set(res.rounds)) == 1, res.rounds
            else:  # each form enumerated on its own
                assert (res.work, res.rounds) == (plain.work, plain.rounds)
    assert kinds == {True, False}


# -- MacWilliams: C's weights fix its dual's, far past brute force --------------


def weight_distribution(field, rows):
    """A_0..A_n of span(rows) from the scalar-class walk, q - 1 words a class."""
    A = [1] + [0] * rows.shape[1]
    for _, words in span_values(field, rows):
        for w, count in zip(*np.unique((words != 0).sum(axis=1), return_counts=True)):
            A[int(w)] += int(count) * (field.order - 1)
    return A


def macwilliams(q, k, A):
    """The dual's weight distribution, through Krawtchouk polynomials in exact integers."""
    n = len(A) - 1
    B = []
    for j in range(n + 1):
        total = sum(
            A[i] * sum((-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
                       for s in range(j + 1))
            for i in range(n + 1))
        coefficient, rest = divmod(total, q**k)
        assert rest == 0 and coefficient >= 0, (j, total)
        B.append(coefficient)
    assert B[0] == 1 and sum(B) == q ** (n - k)
    return B


def first_nonzero_weight(B):
    return next(w for w in range(1, len(B)) if B[w])


# (q, n, k): q^k <= 10^5 words of C, and a dual of 2^18 to 9^8 words,
# past brute force, with distance 3 to 5
MACWILLIAMS = [(2, 34, 16), (3, 22, 10), (4, 18, 8), (9, 13, 5), (25, 8, 3)]


@pytest.mark.parametrize("q, n, k", MACWILLIAMS, ids=lambda v: str(v))
def test_dual_distance_matches_macwilliams(q, n, k):
    # a kernel that over-reports the lightest words lets a heavier word
    # win with its true weight, so re-weighing witnesses cannot catch it
    field = GF(q)
    C = random_code(field, n, k, np.random.default_rng(60 + q))
    # conjugation keeps weights: the Hermitian dual weighs as the Euclidean one
    dual = C.hermitian_dual() if field.is_square_order else C.euclidean_dual()
    d = first_nonzero_weight(macwilliams(q, k, weight_distribution(field, C.G.array)))
    res = information_set_bounds(field, dual.G.array)
    assert res.fact.exact and res.fact.value == d
    assert weight(res.fact.witness) == d


def test_paper_16_5_dual_distances_match_macwilliams():
    C = LinearCode(F9, MatrixFq.from_text(tables.load_data_text("g16_5_9.txt"))[0])
    B = macwilliams(9, C.k, weight_distribution(F9, C.G.array))
    assert (first_nonzero_weight(B), B[5]) == (5, 3264)
    res = information_set_bounds(F9, C.hermitian_dual().G.array)
    assert res.fact.exact and res.fact.value == 5
    # the hull lies in the dual: taking its words away leaves the words
    # outside it
    hull = C.hull_code()
    outside = [b - h for b, h in zip(B, weight_distribution(F9, hull.G.array))]
    out, whole = relative_distance(C.hermitian_dual(), hull, enum_cap=1)
    assert out.exact and out.value == first_nonzero_weight(outside)
    assert whole.exact and whole.value == 5
