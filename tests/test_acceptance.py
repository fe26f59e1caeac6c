"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Budgets follow the stated limits (1 s golden
constructions, 60 s / 120 s distance certifications, 10 s table checks,
5 min round trip); the measured times are asserted, not just hoped for.
"""

import subprocess
import sys
import time

import numpy as np

from eaqecc import bounds, propagate as prop, tables
from eaqecc.codes import LinearCode, random_code
from eaqecc.construct import css_construct, hermitian_construct, intersection
from eaqecc.distance import information_set_bounds, span_weight_scan
from eaqecc.fields import GF
from eaqecc.matrix import MatrixFq, gf_matmul
from helpers import package_env, qualifying_word

F3, F9 = GF(3), GF(9)


def load_matrix(name):
    return MatrixFq.from_text(tables.load_data_text(name))[0]


def timed(fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, time.perf_counter() - t0


# -- criterion 1 -----------------------------------------------------------------


def test_criterion_1_golden_29_14_12():
    C29, t_load = timed(lambda: LinearCode(F9, load_matrix("g29_14_9.txt")))

    def fast_part():
        assert C29.gram_hermitian().is_zero()
        assert C29.hull_dim == 14
        return hermitian_construct(C29, known_distance=11, known_pure=True)

    Q, t_fast = timed(fast_part)
    assert t_fast < 1.0
    assert (Q.n, Q.kappa, Q.delta.value, Q.c) == (29, 1, 11, 0)
    assert Q.delta.method == "citation"  # certainty recorded honestly

    dual = C29.hermitian_dual()
    res_dual, t_dual = timed(
        information_set_bounds, F9, dual.G.array, target=10, work_budget=10**9
    )
    assert t_dual < 60.0
    assert res_dual.fact.value >= 10
    if res_dual.fact.exact:
        # the dual is cyclic: one enumerated form certifies all of d = 11
        assert res_dual.fact.value == 11
        assert sum(1 for v in res_dual.fact.witness if v) == 11
    else:
        assert res_dual.fact.certainty == "lower_bound"
        assert res_dual.fact.upper is not None and res_dual.fact.upper >= 11

    res_c, t_c = timed(information_set_bounds, F9, C29.G.array, target=10, work_budget=10**9)
    assert t_c < 60.0
    assert res_c.fact.value >= 10
    assert res_c.fact.upper is not None and res_c.fact.upper >= 12
    print(
        f"\nACCEPTANCE 1: PASS  [[29,1,11;0]]_3 in {t_fast:.2f}s; "
        f"dual d >= {res_dual.fact.value} in {t_dual:.1f}s, "
        f"C d >= {res_c.fact.value} in {t_c:.1f}s"
    )


# -- criterion 2 ------------------------------------------------------------------


def test_criterion_2_golden_extension_chain():
    G5 = np.hstack([np.eye(4, dtype=np.uint8), np.full((4, 1), 2, np.uint8)])
    C5 = LinearCode(F9, G5)
    assert C5.hull_dim == 0
    col = load_matrix("extcol_5_4.txt").array[:, 0]

    def pipeline():
        C6 = prop.extend_column(C5, column=col)
        fact = C6.min_distance()
        return C6, fact

    (C6, fact), t_enum = timed(pipeline)
    assert t_enum < 1.0
    assert (C6.n, C6.k, fact.value, C6.hull_dim) == (6, 4, 3, 1)
    assert fact.method == "enumeration" and fact.exact

    Q = hermitian_construct(C6)
    assert (Q.n, Q.kappa, Q.delta.value, Q.c) == (6, 1, 5, 3)
    assert Q.purity == "pure"
    report = bounds.check_all(Q)
    for bid in ("S3", "P", "GH"):
        entry = report.entry(bid)
        assert entry.applicable and entry.tight, bid
    print(f"\nACCEPTANCE 2: PASS  [6,4,3]_9 -> pure [[6,1,5;3]]_3, S3/P/GH tight ({t_enum:.2f}s)")


# -- criterion 3 ---------------------------------------------------------------------


def test_criterion_3_less_entanglement_pipeline():
    C16 = LinearCode(F9, load_matrix("g16_5_9.txt"))
    fact, t_d = timed(C16.min_distance)
    assert t_d < 1.0 and fact.value == 8 and fact.exact

    hull = C16.hull_code()
    assert (hull.n, hull.k) == (16, 3)
    assert hull.min_distance().value == 12
    dual = C16.hermitian_dual()
    assert dual.k == 11

    Q16 = hermitian_construct(dual)
    assert (Q16.n, Q16.kappa, Q16.delta.value, Q16.c) == (16, 2, 8, 8)
    assert Q16.purity == "pure"

    w15 = load_matrix("word16_w15.txt").array[0]
    step = prop.less_entanglement_step(Q16, word=w15)
    E2 = step.certificate["code"]
    assert (E2.n, E2.k, E2.min_distance().value) == (17, 6, 8)
    assert (step.output_params.n, step.output_params.kappa,
            step.output_params.delta.value, step.output_params.c) == (17, 2, 8, 7)

    w14 = load_matrix("word16_w14.txt").array[0]
    Qbad = prop.less_entanglement(Q16, word=w14)
    assert (Qbad.n, Qbad.kappa, Qbad.delta.value, Qbad.c) == (17, 2, 7, 7)

    res, t_dual = timed(information_set_bounds, F9, dual.G.array, target=4, work_budget=10**8)
    assert t_dual < 120.0
    assert res.fact.value >= 4
    assert res.fact.upper == 5 and res.fact.upper_witness is not None
    assert sum(1 for v in res.fact.upper_witness if v) == 5
    print(
        f"\nACCEPTANCE 3: PASS  [[16,2,8;8]] -> [[17,2,8;7]] / [[17,2,7;7]]; "
        f"dual d >= {res.fact.value} with weight-5 witness in {t_dual:.1f}s"
    )


# -- criterion 4 ----------------------------------------------------------------------


def test_criterion_4_tables_bounds_and_round_trip():
    t0 = time.perf_counter()
    qubit = tables.load_bundled("qubit")
    qutrit = tables.load_bundled("qutrit")
    assert tables.check_records(list(qubit)) == []
    assert tables.check_records(list(qutrit)) == []
    t_check = time.perf_counter() - t0
    assert t_check < 10.0

    # The published tables are dominance-free under rules {1,2,3,4,5} (the
    # rule set their own compression used); rule 7 was printed for expansion
    # only and genuinely dominates some entries, counted below.
    compression_rules = frozenset({1, 2, 3, 4, 5})
    t0 = time.perf_counter()
    for store, n_max in ((qutrit, 36), (qubit, 64)):
        exp = tables.expand(store, rules=compression_rules, n_max=n_max)
        survivors = tables.compress(exp)
        assert sorted(survivors, key=lambda r: r.key) == sorted(store, key=lambda r: r.key)
    t_round = time.perf_counter() - t0
    assert t_round < 300.0

    # frozen regression: with rule 7 added, exactly these many entries
    # become derivable from other entries
    with_rule7 = frozenset({1, 2, 3, 4, 5, 7})
    surv7_qutrit = tables.compress(tables.expand(qutrit, rules=with_rule7, n_max=36))
    assert len(qutrit) - len(surv7_qutrit) == 1
    print(
        f"\nACCEPTANCE 4: PASS  0 bound violations ({t_check:.1f}s); "
        f"compress(expand(T)) = T for both tables ({t_round:.1f}s)"
    )


# -- criterion 5: property suites ---------------------------------------------------------


def _codes_with_hull(rng, count, n_lo=4, n_hi=9, k_hi=4):
    out = []
    while len(out) < count:
        n = int(rng.integers(n_lo, n_hi))
        k = int(rng.integers(1, min(n - 1, k_hi) + 1))
        C = random_code(F9, n, k, rng)
        out.append(C)
        for _ in range(2):
            if C.hull_dim < min(C.k, C.n - C.k) and len(out) < count:
                C = prop.extend_column(C)
                out.append(C)
    return out[:count]


def test_criterion_5a_hull_dim_two_ways():
    rng = np.random.default_rng(100)
    for _ in range(200):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, n))
        C = random_code(F9, n, k, rng)
        by_rank = C.k - C.gram_hermitian().rank()
        by_intersection = intersection(C, C.hermitian_dual()).k
        assert C.hull_dim == by_rank == by_intersection
    print("\nACCEPTANCE 5a: PASS  hull dim by Gram rank == direct intersection (200 cases)")


def test_criterion_5b_hull_invariant_under_permutation():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, n))
        C = random_code(F9, n, k, rng)
        perm = list(rng.permutation(n))
        assert C.permute_columns(perm).hull_dim == C.hull_dim
    print("\nACCEPTANCE 5b: PASS  hull dimension permutation-invariant (200 cases)")


def test_criterion_5c_hull_reduce_hits_every_target():
    rng = np.random.default_rng(102)
    cases = 0
    for C in _codes_with_hull(rng, 120):
        d = C.min_distance().value
        for target in range(C.hull_dim + 1):
            C2 = prop.hull_reduce(C, target)
            assert (C2.n, C2.k) == (C.n, C.k)
            assert C2.hull_dim == target
            assert C2.min_distance().value == d
            cases += 1
    assert cases >= 200
    print(f"\nACCEPTANCE 5c: PASS  hull reduction reaches every target ({cases} cases)")


def test_criterion_5d_extend_column_contract():
    rng = np.random.default_rng(103)
    cases = 0
    while cases < 200:
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, min(n - 1, 4) + 1))
        C = random_code(F9, n, k, rng)
        if not C.hull_dim < min(C.k, C.n - C.k):
            continue
        d = C.min_distance().value
        C2 = prop.extend_column(C)
        assert (C2.n, C2.k) == (C.n + 1, C.k)
        assert C2.hull_dim == C.hull_dim + 1
        assert d <= C2.min_distance().value <= d + 1
        cases += 1
    print("\nACCEPTANCE 5d: PASS  column extension: d <= d' <= d+1 and hull +1 (200 cases)")


def test_criterion_5e_extend_row_column_contract():
    rng = np.random.default_rng(104)
    cases = 0
    while cases < 200:
        n = int(rng.integers(4, 8))
        k = int(rng.integers(1, min(n - 1, 3) + 1))
        C = random_code(F9, n, k, rng)
        if not C.hull_dim < min(C.k, C.n - C.k):
            continue
        w = qualifying_word(C)
        if w is None:
            continue
        d = C.min_distance().value
        d0 = LinearCode(F9, np.vstack([C.G.array, w[None, :]])).min_distance().value
        C2 = prop.extend_row_column(C, w)
        assert (C2.n, C2.k) == (C.n + 1, C.k + 1)
        assert C2.hull_dim == C.hull_dim + 1
        assert C2.min_distance().value == min(d, d0 + 1)
        cases += 1
    print("\nACCEPTANCE 5e: PASS  row+column extension: d' = min(d, d0+1), hull +1 (200 cases)")


def test_criterion_5f_min_entanglement_vs_puncture_space():
    rng = np.random.default_rng(105)
    cases = zero_cases = 0
    while cases < 200:
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, min(n, 3) + 1))
        C = random_code(F9, n, k, rng)
        res = prop.min_entanglement_search(C)
        assert res.c_min <= C.gram_hermitian().rank()
        if res.c_min == 0:
            space = prop.puncture_space(C)
            b = np.array(res.diagonal, dtype=np.uint8)
            assert LinearCode(F3, space).contains_vector(b)
            zero_cases += 1
        cases += 1
    assert zero_cases > 0
    print(
        f"\nACCEPTANCE 5f: PASS  exhaustive c_min <= rank(G G+), puncture-space "
        f"consistent on {zero_cases} c_min=0 instances (200 cases)"
    )


def test_criterion_5g_css_c_formulas_agree():
    rng = np.random.default_rng(106)
    for _ in range(200):
        field = F3 if rng.integers(2) else GF(2)
        n = int(rng.integers(3, 9))
        C1 = random_code(field, n, int(rng.integers(1, n)), rng)
        C2 = random_code(field, n, int(rng.integers(1, n)), rng)
        Q = css_construct(C1, C2)
        by_rank = MatrixFq(field, gf_matmul(C1.G.array, C2.G.array.T, field)).rank()
        by_int = C1.k - intersection(C1, C2.euclidean_dual()).k
        assert Q.c == by_rank == by_int
    print("\nACCEPTANCE 5g: PASS  CSS ebit count: intersection == rank(G1 G2^T) (200 cases)")


# -- criterion 6 -------------------------------------------------------------------------


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(107)
    mismatches = 0
    cases = 0
    while cases < 200:
        field = (GF(2), GF(3), GF(4), F9)[int(rng.integers(4))]
        n = int(rng.integers(3, 11))
        kmax = 1
        while field.order ** (kmax + 1) <= 10**5 and kmax + 1 <= n:
            kmax += 1
        k = int(rng.integers(1, kmax + 1))
        C = random_code(field, n, k, rng)
        exact = span_weight_scan(field, C.G.array).min_weight
        res = information_set_bounds(field, C.G.array)
        if not (res.fact.exact and res.fact.value == exact):
            mismatches += 1
        cases += 1
    assert mismatches == 0
    print("\nACCEPTANCE 6: PASS  information-set == exhaustive on 200 codes, 0 mismatches")


# -- criterion 7 -------------------------------------------------------------------------

BATTERY = [
    ["verify-paper", "--format", "machine"],
    ["table", "query", "--bundled", "qutrit", "--q", "3", "--n", "16", "--format", "machine"],
    ["table", "query", "--bundled", "qubit", "--n", "24", "--kappa", "3", "--format", "machine"],
    ["table", "compress", "--bundled", "qutrit", "--format", "machine"],
    ["simple-rule", "--rule", "5", "--record", "3 5 2 3 1 unknown paper-table",
     "--format", "machine"],
    ["bounds", "--record", "3 6 1 5 3 pure constructed", "--format", "machine"],
]


def _run_battery(tmp_path):
    import eaqecc, pathlib

    data = pathlib.Path(eaqecc.__file__).parent / "data" / "paper"
    tetra = tmp_path / "tetra.txt"
    tetra.write_text(
        LinearCode(F9, np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8)).to_text()
    )
    wide = tmp_path / "wide.txt"  # 2^12 diagonals: several chunks of the exhaustive search
    wide.write_text(random_code(F9, 12, 7, np.random.default_rng(7)).to_text())
    small = tmp_path / "small.txt"  # [8,4]_9: both column searches score every class
    small.write_text(random_code(F9, 8, 4, np.random.default_rng(4)).to_text())
    # [15,13]_9 with a 1-dimensional hull, which comes from its [15,2] dual's Gram matrix
    c15 = random_code(F9, 15, 13, np.random.default_rng(17))
    thin = {name: tmp_path / f"{name}.txt" for name in ("c15", "d15", "h15")}
    for name, code in zip(thin, (c15, c15.hermitian_dual(), c15.hull_code())):
        thin[name].write_text(code.to_text())
    g16, g29 = str(data / "g16_5_9.txt"), str(data / "g29_14_9.txt")
    cmds = BATTERY + [
        ["min-ent", str(tetra), "--mode", "randomized", "--seed", "7", "--budget", "64",
         "--format", "machine"],
        ["min-ent", str(wide), "--format", "machine"],
        ["distance", g16, "--format", "machine"],
        ["construct", g16, "--format", "machine"],
        ["distance", g29, "--format", "machine"],
        ["construct", g29, "--format", "machine"],
        ["propagate", g16, "--rule", "less-ent", "--format", "machine"],
        ["propagate", g16, "--rule", "same-ent", "--search", "--format", "machine"],
        ["propagate", str(small), "--rule", "extend-column", "--search", "--format", "machine"],
        ["propagate", str(small), "--rule", "same-ent", "--search", "--format", "machine"],
        ["construct", str(thin["c15"]), "--format", "machine"],
        ["distance", str(thin["d15"]), "--outside", str(thin["h15"]), "--format", "machine"],
    ]
    blob = b""
    for cmd in cmds:
        proc = subprocess.run(
            [sys.executable, "-m", "eaqecc", *cmd], capture_output=True, env=package_env()
        )
        assert proc.returncode == 0, (cmd, proc.stderr)
        blob += proc.stdout
    return blob


def test_criterion_7_byte_identical_machine_output(tmp_path):
    first = _run_battery(tmp_path)
    second = _run_battery(tmp_path)
    assert first == second
    assert first.startswith(b"#v1")
    print(f"\nACCEPTANCE 7: PASS  two seeded runs byte-identical ({len(first)} bytes)")
