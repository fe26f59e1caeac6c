"""table-closure: build and read the closure of the bundled tables.

Only the closure under the single-step rules runs here; no distance is
computed.  expand and compress are the build path, query the read path.
"""

from __future__ import annotations

import numpy as np

import oracle
from common import Op, unexpected

ROUND_TRIP_RULES = frozenset({1, 2, 3, 4, 5})
ALL_RULES = frozenset(range(1, 9))
# Round trips run on the records up to these lengths; a round then takes
# about 4 s, so a run holds several rounds.
QUTRIT_N_MAX = 28
QUBIT_N_MAX = 24
QUERY_QUBIT_N = 24
QUERY_QUTRIT_N = 20
SLICE_N_MAX = 16          # the all-rules expansion runs on a seeded slice
SLICE_SIZE = 30


def _key_delta(records):
    return sorted((r.key, r.delta, r.purity) for r in records)


def _root(rec):
    return (rec.q, rec.n, rec.kappa, rec.delta, rec.c, rec.is_pure_at_delta())


class TableClosure:
    def __init__(self, ex, data, seed, tracer):
        self.ex = ex
        self._reference = {}   # oracle closures, computed once per run
        self._expanded = {}    # expand's output, handed to compress in the same round
        qutrit = data["qutrit"]
        qubit = data["qubit"]
        qubit_slice = [r for r in qubit if r.n <= QUBIT_N_MAX]
        rng = np.random.default_rng([seed, 303])
        small = [r for r in qutrit if r.n <= SLICE_N_MAX]
        pick = sorted(rng.choice(len(small), size=min(SLICE_SIZE, len(small)), replace=False))
        qutrit_slice = [small[i] for i in pick]
        kappa = int(rng.integers(1, 13))
        self.ops = [
            *self._round_trip_ops("qutrit", [r for r in qutrit if r.n <= QUTRIT_N_MAX]),
            *self._round_trip_ops("qubit", qubit_slice),
            self._records_op("qubit", qubit_slice),
            self._query_op("query.qubit", qubit, {"n": QUERY_QUBIT_N}),
            self._query_op("query.qutrit", qutrit, {"n": QUERY_QUTRIT_N, "kappa": kappa}),
            self._slice_op(qutrit_slice),
        ]

    def _closure(self, records, rules, n_max):
        key = (tuple(_root(r) for r in records), rules, n_max)
        if key not in self._reference:
            self._reference[key] = oracle.closure_cells([_root(r) for r in records], rules, n_max)
        return self._reference[key]

    def _check_cells(self, label, records, expanded, rules):
        want = self._closure(records, rules, expanded.n_max)
        got = {key: d for key, (d, _) in expanded.cells.items()}
        if got != want:
            diff = sorted(set(got.items()) ^ set(want.items()))[:4]
            return [f"{label}: {len(got)} cells, reference closure {len(want)}; differ at {diff}"]
        return []

    def _round_trip_ops(self, name, records):
        ex = self.ex

        def expand():
            self._expanded[name] = ex.tables.expand(ex.tables.TableStore(records),
                                                    rules=ROUND_TRIP_RULES)
            return self._expanded[name]

        def judge_expand(expanded, exc):
            if exc is not None:
                return unexpected(f"{name}.expand", exc)
            return False, self._check_cells(f"{name}.expand", records, expanded, ROUND_TRIP_RULES)

        def compress():
            return ex.tables.compress(self._expanded.pop(name))

        def judge_compress(kept, exc):
            if exc is not None:
                return unexpected(f"{name}.compress", exc)
            if _key_delta(kept) != _key_delta(records):
                return False, [f"{name}.compress: kept {len(kept)} of {len(records)} records"]
            return False, []

        return [Op(f"{name}.expand", expand, judge_expand),
                Op(f"{name}.compress", compress, judge_compress)]

    def _records_op(self, name, roots):
        ex = self.ex
        label = f"{name}.records"

        def run():
            expanded = ex.tables.expand(ex.tables.TableStore(roots), rules=ROUND_TRIP_RULES)
            return expanded.records(with_chains=True)

        def judge(recs, exc):
            if exc is not None:
                return unexpected(label, exc)
            want = {}
            for (q, n, kappa, c, _), d in self._closure(roots, ROUND_TRIP_RULES,
                                                        max(r.n for r in roots)).items():
                want[(q, n, kappa, c)] = max(d, want.get((q, n, kappa, c), 0))
            p = []
            if {r.key: r.delta for r in recs} != want or len(recs) != len(want):
                p.append(f"{label}: {len(recs)} records, reference closure has {len(want)} cells")
            bad = ex.tables.check_records(recs)
            if bad:
                p.append(f"{label}: {len(bad)} records violate bounds, first {bad[0][0].to_line()}")
            p += self._check_chains(label, recs, roots)
            return False, p

        return Op(label, run, judge)

    def _check_chains(self, label, recs, roots):
        """Each derived record's rule chain, replayed from a root, reaches it."""
        by_source = {}
        for r in roots:
            by_source.setdefault(r.source, []).append(r)
        for rec in recs:
            if not rec.source.startswith("derived(") or rec.source.endswith(":*)"):
                continue
            src, _, chain = rec.source[len("derived("):-1].rpartition(":")
            rules = [int(t) for t in chain.split(",")]
            if not any(self._replay_chain(root, rules) == (rec.n, rec.kappa, rec.delta, rec.c)
                       for root in by_source.get(src, ())):
                return [f"{label}: chain {chain} does not derive {rec.to_line()}"]
        return []

    @staticmethod
    def _replay_chain(root, rules):
        state = _root(root)
        q = state[0]
        cur = state[1:]
        for rule in rules:
            cur = oracle.rule_step(rule, q, *cur)
            if cur is None:
                return None
        n, kappa, delta, c, _ = cur
        return n, kappa, delta, c

    def _query_op(self, label, records, filters):
        ex = self.ex

        def run():
            return ex.tables.query(ex.tables.TableStore(records), **filters)

        def judge(hits, exc):
            if exc is not None:
                return unexpected(label, exc)
            cells = self._closure(records, ex.tables.DEFAULT_RULES, filters["n"])
            want = {}
            for (q, n, kappa, c, _), d in cells.items():
                if n == filters["n"] and filters.get("kappa", kappa) == kappa:
                    want[(q, n, kappa)] = max(d, want.get((q, n, kappa), 0))
            got = {(r.q, r.n, r.kappa): r.delta for r in hits}
            p = []
            if got != want or len(hits) != len(got):
                p.append(f"{label}: {len(hits)} answers differ from the reference closure")
            bundled = {}
            for r in records:
                bundled[(r.q, r.n, r.kappa)] = max(r.delta, bundled.get((r.q, r.n, r.kappa), 0))
            for r in hits:
                if r.delta < bundled.get((r.q, r.n, r.kappa), 0):
                    p.append(f"{label}: answer {r.to_line()} is below the bundled record")
            return False, p

        return Op(label, run, judge)

    def _slice_op(self, records):
        ex = self.ex
        label = "qutrit.slice.all_rules"

        def run():
            return ex.tables.expand(ex.tables.TableStore(records), rules=ALL_RULES)

        def judge(expanded, exc):
            if exc is not None:
                return unexpected(label, exc)
            return False, self._check_cells(label, records, expanded, ALL_RULES)

        return Op(label, run, judge)
