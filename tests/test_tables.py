import dataclasses
import hashlib
import itertools
import pathlib
import pickle
import random
import shutil

import pytest

import oracles
from eaqecc import tables
from eaqecc.errors import BudgetError, DataIntegrityError, RecordParseError
from eaqecc.tables import (
    CLOSURE_CELL_CAP,
    DEFAULT_RULES,
    CodeRecord,
    TableStore,
    check_records,
    closure_cells,
    compress,
    expand,
    ingest,
    load_bundled,
    load_data_text,
    query,
)


def rec(q, n, kappa, delta, c, purity="unknown", source="test"):
    return CodeRecord(q, n, kappa, delta, c, purity, source)


def test_record_line_round_trip():
    r = rec(3, 6, 1, 5, 3, "pure", "constructed")
    assert CodeRecord.from_line(r.to_line()) == r
    noted = CodeRecord(3, 19, 0, 20, 19, "unknown", "paper-table", note="verbatim_flag: x")
    back = CodeRecord.from_line(noted.to_line())
    assert back.note == "verbatim_flag: x"


def test_record_is_a_frozen_value():
    r = CodeRecord(3, 19, 0, 20, 19, "pure_to:20", "paper-table", note="verbatim_flag: x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.delta = 21
    assert r.delta == 20
    same = CodeRecord(q=3, n=19, kappa=0, delta=20, c=19, purity="pure_to:20",
                      source="paper-table", note="verbatim_flag: x")
    assert same == r and hash(same) == hash(r)
    assert hash(r) == hash((3, 19, 0, 20, 19, "pure_to:20", "paper-table", "verbatim_flag: x"))
    assert CodeRecord(3, 19, 0, 20, 19) == CodeRecord(3, 19, 0, 20, 19, "unknown", "constructed")
    lower = dataclasses.replace(r, delta=19)
    assert (lower.delta, lower.purity, lower.note) == (19, "pure_to:20", "verbatim_flag: x")
    assert lower != r and r.delta == 20
    assert pickle.loads(pickle.dumps(r)) == r
    assert CodeRecord.from_line(r.to_line()) == r
    store = load_bundled("qutrit")
    exp = expand(store, n_max=12)
    assert all(type(x) is CodeRecord for x in exp.records(with_chains=True))
    assert all(type(x) is CodeRecord for x in query(exp, n=12))


def test_record_parse_errors_carry_line_numbers():
    with pytest.raises(RecordParseError) as e:
        ingest(["3 6 1 5", ""])
    assert e.value.line_number == 1
    with pytest.raises(RecordParseError) as e:
        ingest(["3 6 1 5 3 pure ok", "3 6 x 5 3"])
    assert e.value.line_number == 2
    with pytest.raises(RecordParseError):
        ingest(["3 6 1 5 3 shiny src"])
    for tag in ("pure_to:abc", "pure_to:", "pure_to:-1"):
        with pytest.raises(RecordParseError):
            CodeRecord.from_line(f"3 6 1 5 3 {tag} src")


def test_ingest_dedupes_keeping_max_delta():
    store = ingest(["3 6 1 4 3 unknown a", "3 6 1 5 3 unknown b", "# comment", ""])
    assert len(store) == 1
    assert store.get(3, 6, 1, 3).delta == 5


def test_ingest_of_empty_is_empty():
    assert len(ingest([])) == 0


def test_expand_rule1_example():
    store = TableStore([rec(2, 3, 1, 3, 2)])
    exp = expand(store, rules={1}, n_max=5)
    recs = {(r.n, r.kappa, r.delta, r.c) for r in exp.records()}
    assert recs == {(3, 1, 3, 2), (4, 1, 3, 2), (5, 1, 3, 2)}


def test_expand_chains_are_recorded():
    store = TableStore([rec(2, 3, 1, 3, 2)])
    exp = expand(store, rules={1, 3}, n_max=4)
    derived = [r for r in exp.records(with_chains=True) if r.source.startswith("derived")]
    assert derived
    assert all(":" in r.source for r in derived)
    by_key = {(r.n, r.kappa, r.delta, r.c): r for r in exp.records(with_chains=True)}
    assert by_key[(4, 1, 3, 2)].source == "derived(test:1)"


def test_rule6_fires_only_for_pure_records():
    impure = TableStore([rec(3, 6, 1, 4, 2)])
    exp = expand(impure, rules={6}, n_max=6)
    assert len(exp.records()) == 1
    pure = TableStore([rec(3, 6, 1, 4, 2, purity="pure")])
    exp2 = expand(pure, rules={6}, n_max=6)
    keys = {(r.n, r.kappa, r.delta, r.c) for r in exp2.records()}
    assert (6, 2, 4, 3) in keys
    # and never on q=2 records
    pure2 = TableStore([rec(2, 6, 1, 3, 2, purity="pure")])
    assert len(expand(pure2, rules={6}, n_max=6).records()) == 1


def test_compress_drops_rule1_shadow():
    survivors = compress([rec(3, 6, 1, 5, 3), rec(3, 7, 1, 5, 3)])
    assert [(r.n) for r in survivors] == [6]


def test_compress_idempotent():
    records = [rec(3, 6, 1, 5, 3), rec(3, 7, 1, 5, 3), rec(3, 7, 2, 4, 3)]
    once = compress(records)
    assert compress(once) == once


def test_compress_keeps_incomparable_records():
    records = [rec(3, 6, 1, 5, 3), rec(3, 6, 2, 4, 2)]
    assert sorted(compress(records), key=lambda r: r.key) == sorted(
        records, key=lambda r: r.key
    )


def test_compress_keeps_one_copy_of_a_repeated_record():
    r = rec(3, 6, 1, 5, 3)
    assert compress([r, r]) == [r]


def _cell(r):
    return r.key + (int(r.is_pure_at_delta()),)


def _random_records(seed, size=16, n_top=5):
    rng = random.Random(seed)
    out = []
    for i in range(size):
        if out and rng.random() < 0.15:
            out.append(rng.choice(out))  # a repeated record
            continue
        q, n = rng.choice((2, 3)), rng.randint(1, n_top)
        kappa = rng.randint(0, n)
        c = rng.randint(0, n - kappa)
        delta = rng.randint(1, 4)
        purity = rng.choice(("pure", "unknown", f"pure_to:{delta - 1}"))
        out.append(CodeRecord(q, n, kappa, delta, c, purity, f"r{i}"))
    return out


def _oracle_compress(records, rules, n_max):
    """Records that no other record reaches, from the worklist closure."""
    stepped = oracles.rule_closure(
        [s for r in records for s in oracles.rule_successors(_cell(r), r.delta, rules, n_max)],
        rules,
        n_max,
    )
    survivors, seen = [], set()
    for r in records:
        claim = _cell(r) + (r.delta,)
        if claim in seen:
            continue
        checked = {_cell(r), r.key + (1,)}  # an impure record is also covered by a pure one
        reached = max(
            [stepped.get(x, -1) for x in checked]
            + [o.delta for o in records if _cell(o) in checked and _cell(o) + (o.delta,) != claim]
        )
        if reached == r.delta or (3 in rules and reached > r.delta):
            continue
        seen.add(claim)
        survivors.append(r)
    return survivors


def _replay_chain(root, chain):
    (q, n, kappa, c, pure), delta = _cell(root), root.delta
    for rule in chain:
        n, kappa, delta, c, pure = oracles.rule_step(rule, q, n, kappa, delta, c, pure)
    return (q, n, kappa, c), delta, pure


RULE_SUBSETS = [{1}, {1, 3}, {6}, {1, 2, 3, 4, 5}, {1, 2, 4, 5, 7}, set(range(1, 9))]


@pytest.mark.parametrize("rules", RULE_SUBSETS, ids=str)
def test_closure_matches_worklist_oracle(rules):
    n_max = 7
    for seed in range(6):
        records = _random_records(seed)
        exp = expand(records, rules=rules, n_max=n_max)
        seeds = [(_cell(r), r.delta) for r in records]
        want = oracles.rule_closure(seeds, rules, n_max)
        assert {cell: d for cell, (d, _) in exp.cells.items()} == want
        singles = [oracles.rule_closure([s], rules, n_max) for s in seeds]
        for cell, (d, idx) in exp.cells.items():
            assert idx == min(i for i, s in enumerate(singles) if s.get(cell) == d)
        survivors = _oracle_compress(records, rules, n_max)
        assert compress(exp) == survivors
        assert compress(records, rules=rules, n_max=n_max) == survivors
        best = {}
        for (q, n, kappa, c, _), d in want.items():
            best[(q, n, kappa, c)] = max(d, best.get((q, n, kappa, c), -1))
        by_source = {r.source: r for r in records}
        chained = exp.records(with_chains=True)
        assert [(r.key, r.delta) for r in chained] == sorted(best.items())
        assert [(r.key, r.delta, r.purity) for r in exp.records()] == [
            (r.key, r.delta, r.purity) for r in chained
        ]
        for r in chained:
            if not r.source.startswith("derived("):
                assert r in records
                continue
            name, _, tag = r.source[len("derived("):-1].partition(":")
            chain = [int(t) for t in tag.split(",")]
            assert _replay_chain(by_source[name], chain) == (r.key, r.delta, r.is_pure_at_delta())


def _assert_walk_matches_heap_walk(roots, rules, n_max):
    cells, stepped, parent = tables._walk(roots, rules, n_max)
    want_cells, want_stepped, want_parent = oracles.heap_closure_walk(roots, rules, n_max)
    assert cells == want_cells
    assert parent == want_parent
    assert stepped == {cell: want_stepped[cell] for cell in map(_cell, roots)
                       if cell in want_stepped}


@pytest.mark.parametrize("rules", RULE_SUBSETS, ids=str)
def test_walk_settles_cells_as_the_heap_walk(rules):
    # same best (delta, root) and the same settling step at every cell, so
    # every chain tag is the same, and the same one-step best at the roots
    for seed in range(6):
        _assert_walk_matches_heap_walk(_random_records(seed), rules, 7)


@pytest.mark.parametrize("which", ["qubit", "qutrit"])
def test_walk_settles_bundled_cells_as_the_heap_walk(which):
    roots = list(load_bundled(which))
    for rules, n_max in itertools.product((DEFAULT_RULES, set(range(1, 9))), (16, 20)):
        _assert_walk_matches_heap_walk(roots, rules, n_max)


@pytest.mark.parametrize("rules", [DEFAULT_RULES, frozenset(range(1, 9))], ids=["default", "all"])
def test_walk_settles_dense_roots_as_the_heap_walk(rules):
    # every record of an expansion is a root, as when `table expand --out`
    # feeds `table compress --file`; pure copies two above their record's
    # delta win the impure cell of the same parameters by rule 3's move
    # from a pure cell, the one rule-3 move the walk keeps
    records = expand(load_bundled("qutrit"), rules=rules, n_max=12).records()
    roots = records + [dataclasses.replace(r, purity="pure", delta=r.delta + 2)
                       for r in records[::3]]
    _assert_walk_matches_heap_walk(roots, rules, 12)
    assert compress(roots, rules=rules, n_max=12) == _oracle_compress(roots, rules, 12)


@pytest.mark.parametrize("rule", range(1, 9))
def test_one_rule_closure_matches_oracle_on_any_record(rule):
    # every record up to these sizes, c > n - kappa, kappa > n and delta = 0 included
    grid = itertools.product(
        (2, 3, 4), range(1, 7), range(8), range(5), range(8), ("pure", "unknown")
    )
    records = [rec(*params) for params in grid]
    exp = expand(records, rules={rule}, n_max=7)
    want = oracles.rule_closure([(_cell(r), r.delta) for r in records], {rule}, 7)
    assert {cell: d for cell, (d, _) in exp.cells.items()} == want


def test_closure_cell_estimate_bounds_every_closure():
    # every record that passes the structure check, over two fields and
    # both purities, closed under all eight rules, fills at most the
    # estimate; the bundled tables close up to their longest records
    # under the cap
    grid = [rec(q, n, kappa, delta, c, purity)
            for q, n, kappa, c in itertools.product((2, 3), range(1, 7), range(7), range(7))
            if kappa + c <= n for delta in (1, 3) for purity in ("pure", "unknown")]
    for records, n_max in [(grid, 8)] + [(_random_records(seed), 7) for seed in range(6)]:
        exp = expand(records, rules=set(range(1, 9)), n_max=n_max)
        assert len(exp.cells) <= closure_cells(records, n_max)
    assert closure_cells([rec(2, 1, 0, 1, 0), rec(3, 4, 1, 2, 0)], 2) == 1 + 2 * 2 * (3 + 6)
    for which, n_max in (("qubit", 64), ("qutrit", 36)):
        store = load_bundled(which)
        assert store.max_n() == n_max and closure_cells(list(store), n_max) <= CLOSURE_CELL_CAP


def test_closure_past_the_cap_is_refused(monkeypatch):
    store = load_bundled("qubit")
    with pytest.raises(BudgetError, match="past the cap"):
        query(store, n=200)
    monkeypatch.setattr(tables, "CLOSURE_CELL_CAP", closure_cells(list(store), 12))
    assert expand(store, n_max=12).cells
    with pytest.raises(BudgetError):
        compress(store, n_max=13)


def test_query_prefers_higher_delta_then_smaller_c():
    store = TableStore([rec(3, 6, 1, 4, 3, source="b"), rec(3, 6, 1, 4, 2, source="a")])
    hits = query(store, q=3, n=6, kappa=1, rules=frozenset(), n_max=6)
    assert len(hits) == 1 and hits[0].c == 2


def _query_by_records(records, q, n, kappa, c):
    """The best record per (q, n, kappa) among all matching records."""
    hits = {}
    for r in records:
        if any(want not in (None, have) for want, have in zip((q, n, kappa, c), r.key)):
            continue
        cur = hits.get(r.key[:3])
        if cur is None or (-r.delta, r.c, r.source) < (-cur.delta, cur.c, cur.source):
            hits[r.key[:3]] = r
    return [hits[key] for key in sorted(hits)]


def test_query_matches_filtering_all_records():
    # a tie on delta at (4, 6, 1) breaks toward the smaller c before the
    # smaller source; delta and c never both tie, as the closure holds one
    # record per (q, n, kappa, c)
    tie = [rec(4, 6, 1, 4, 3, source="a"), rec(4, 6, 1, 4, 2, source="z")]
    exp = expand(_random_records(7, size=40, n_top=6) + tie, n_max=7)
    everything = exp.records()
    assert query(exp, q=4, n=6, kappa=1) == [tie[1]]
    for want in itertools.product((None, 2, 3, 4), (None, *range(1, 8)), (None, *range(8)),
                                  (None, *range(8))):
        assert query(exp, *want) == _query_by_records(everything, *want), want


def test_query_consults_closure():
    store = TableStore([rec(2, 3, 1, 3, 2)])
    hits = query(store, q=2, n=5, kappa=1, c=2, rules={1}, n_max=5)
    assert hits and hits[0].delta == 3


def test_query_empty_store():
    assert query(TableStore(), q=3, n=6) == []


def test_bundled_tables_load_and_counts():
    qubit = load_bundled("qubit")
    qutrit = load_bundled("qutrit")
    assert len(qubit) == 294
    assert len(qutrit) == 211
    assert qubit.max_n() == 64 and qutrit.max_n() == 36
    # the published qubit list keeps only assisted entries
    assert all(r.c > 0 for r in qubit)
    # normalized typographic entries keep their verbatim flags
    flagged = [r for r in qutrit if r.note]
    assert {(r.n, r.kappa, r.delta, r.c) for r in flagged} == {
        (19, 0, 20, 19),
        (27, 0, 27, 25),
    }


def test_bundled_golden_queries():
    qubit = load_bundled("qubit")
    hits = query(qubit, q=2, n=3, kappa=1, c=2)
    assert hits and hits[0].delta == 3
    # the thm10-style constructed record joins the store for this query
    qutrit = load_bundled("qutrit")
    qutrit.add(rec(3, 6, 1, 5, 3, purity="pure", source="constructed"))
    hits = query(qutrit, q=3, n=6, kappa=1, c=3)
    assert hits and hits[0].delta == 5


def test_bundled_tables_have_no_bound_violations():
    for which in ("qubit", "qutrit"):
        assert check_records(list(load_bundled(which))) == []


def test_checksum_gate(tmp_path):
    import eaqecc

    src = pathlib.Path(eaqecc.__file__).parent / "data" / "paper"
    work = tmp_path / "paper"
    shutil.copytree(src, work)
    # corruption trips the checksum
    p = work / "table_qutrit.txt"
    p.write_text(p.read_text().replace("3 6 2 4 2", "3 6 2 9 2"))
    with pytest.raises(DataIntegrityError):
        load_data_text("table_qutrit.txt", data_dir=work)
    # missing file is an explicit error
    (work / "g29_14_9.txt").unlink()
    with pytest.raises(DataIntegrityError):
        load_data_text("g29_14_9.txt", data_dir=work)
    # checksum manifest absent
    (work / "CHECKSUMS.sha256").unlink()
    with pytest.raises(DataIntegrityError):
        load_data_text("table_qubit.txt", data_dir=work)


def test_binary_data_files_are_integrity_errors(tmp_path):
    # bytes that are not text, in a data file whose checksum matches or
    # in the checksum manifest, are refused with a message
    raw = b"\xff\xfe q=9"
    (tmp_path / "g29_14_9.txt").write_bytes(raw)
    sums = tmp_path / "CHECKSUMS.sha256"
    sums.write_text(f"{hashlib.sha256(raw).hexdigest()}  g29_14_9.txt\n")
    with pytest.raises(DataIntegrityError, match="'g29_14_9.txt' is not text"):
        load_data_text("g29_14_9.txt", data_dir=tmp_path)
    sums.write_bytes(raw)
    with pytest.raises(DataIntegrityError, match="CHECKSUMS.sha256 is not text"):
        load_data_text("g29_14_9.txt", data_dir=tmp_path)


def test_corrupted_entry_with_fixed_checksum_fails_bounds(tmp_path):
    import eaqecc

    src = pathlib.Path(eaqecc.__file__).parent / "data" / "paper"
    work = tmp_path / "paper"
    shutil.copytree(src, work)
    p = work / "table_qutrit.txt"
    text = p.read_text().replace("3 6 2 4 2", "3 6 5 5 2")
    p.write_text(text)
    sums = work / "CHECKSUMS.sha256"
    lines = []
    for line in sums.read_text().splitlines():
        digest, name = line.split()
        if name == "table_qutrit.txt":
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}")
    sums.write_text("\n".join(lines) + "\n")
    store = load_bundled("qutrit", data_dir=work)
    bad = check_records(list(store))
    assert any(r.n == 6 and r.kappa == 5 for r, _ in bad)


def test_unknown_bundle_name():
    with pytest.raises(KeyError):
        load_bundled("ququart")


def test_expansion_from_pure_records_stays_bound_consistent():
    seeds = [
        rec(3, 6, 1, 5, 3, purity="pure", source="constructed"),
        rec(3, 5, 0, 5, 3, purity="pure", source="paper-table"),
        rec(2, 3, 1, 3, 2, purity="pure", source="paper-table"),
    ]
    exp = expand(TableStore(seeds), rules=frozenset(range(1, 9)), n_max=10)
    records = exp.records()
    assert len(records) > len(seeds)
    assert check_records(records) == []
