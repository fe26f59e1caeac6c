"""construct-propagate: enumeration-bound constructions and ebit rules.

Every distance here is in enumeration reach, so span scans and the
scoring of candidate words in less_entanglement do most of the work.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import numpy as np

import oracle
from common import Op, batch, check_witness, raised_in, random_full_rank, unexpected
from oracle import Field

# (q^2, n, k, count) of the seeded Hermitian-route ingredients, one batch
# per shape.  The less rule scans every word of C and scores each
# candidate by a scan of an (n-k+1)-dim code; the number of candidates
# depends on the code, so each timed operation averages several codes
# and no single code dominates a round (one more candidate on a [12,5]_9
# code would cost 5.4e6 scanned classes, 15% of a round).
HERMITIAN_SHAPES = [(4, 14, 6, 3), (4, 16, 7, 3), (9, 10, 4, 4), (9, 11, 5, 5)]
# (q, n, k1, k2) of the seeded CSS-route pairs, timed as one batch.
CSS_SHAPES = [(2, 16, 8, 8)] * 3 + [(2, 16, 6, 9)] * 2 + [(3, 12, 6, 6)] * 3 + [(3, 12, 5, 6)] * 2
MIN_ENT_SHAPE = (9, 8, 4)
MIN_ENT_CODES = 3

# same_entanglement(search=True) trips an assertion on some inputs (see
# the FOUND line on propagate.py in CHANGES.md), so it runs on a fixed set
# of ingredients that does not depend on --seed: the failure count then
# repeats exactly in every run.  The [[10,2,5;6]]_2 code below, whose
# extension is impure with delta' = delta + 2, is its own operation; the
# rest of the pool is timed as one batch, and one of its codes trips the
# assertion too.
SAME_FIXED_ROWS = ["1000000130", "0100000220", "0010000113", "0001000010",
                   "0000100012", "0000010311", "0000001321"]
SAME_POOL_SEED = 2022
SAME_POOL_SHAPES = [(4, 10, 7)] * 6 + [(9, 8, 4)] * 12


def _params(Q):
    return (Q.n, Q.kappa, Q.delta.value, Q.c, Q.purity)


class ConstructPropagate:
    def __init__(self, ex, data, seed, tracer):
        self.ex = ex
        self.tracer = tracer
        self.F = {q: Field(q) for q in (2, 3, 4, 9)}
        self.gf = {q: ex.GF(q) for q in self.F}
        self._expected = {}
        rng = np.random.default_rng([seed, 101])
        herm = [[random_full_rank(self.F[q], rng, k, n) for _ in range(count)]
                for q, n, k, count in HERMITIAN_SHAPES]
        css = [(q, random_full_rank(self.F[q], rng, k1, n), random_full_rank(self.F[q], rng, k2, n))
               for q, n, k1, k2 in CSS_SHAPES]
        q, n, k = MIN_ENT_SHAPE
        min_ent = [random_full_rank(self.F[q], rng, k, n) for _ in range(MIN_ENT_CODES)]
        pool_rng = np.random.default_rng(SAME_POOL_SEED)
        same = [(4, np.array([[int(ch) for ch in r] for r in SAME_FIXED_ROWS], dtype=np.uint8))]
        same += [(q, random_full_rank(self.F[q], pool_rng, k, n)) for q, n, k in SAME_POOL_SHAPES]

        self.ops = [batch(f"herm.gf{q}.n{n}k{k}",
                          [self._hermitian_op(f"herm.gf{q}.n{n}k{k}.{i}", q, G) for i, G in enumerate(Gs)])
                    for (q, n, k, _), Gs in zip(HERMITIAN_SHAPES, herm)]
        self.ops.append(batch("css", [self._css_op(f"css{i}.gf{q}", q, G1, G2)
                                      for i, (q, G1, G2) in enumerate(css)]))
        self.ops.append(batch("minent", [self._min_ent_op(f"minent{i}.gf9", G)
                                         for i, G in enumerate(min_ent)]))
        self.ops.append(self._same_op("same.fixed", same[0][0], same[0][1]))
        self.ops.append(batch("same.pool", [self._same_op(f"same{i}.gf{q}", q, G)
                                            for i, (q, G) in enumerate(same[1:], start=1)]))
        self.ops.append(Op("verify-paper", self._verify_paper, self._judge_verify))

    # -- expected values, computed once per run ----------------------------

    def _hermitian_expected(self, q, G, D):
        """Oracle parameters for the code G, or None past the span limit."""
        F = self.F[q]
        key = (q, G.tobytes(), G.shape)
        if key not in self._expected:
            n, k = G.shape[1], G.shape[0]
            small = F.order ** (n - k) <= oracle.SPAN_LIMIT
            self._expected[key] = oracle.hermitian_params(F, G, D) if small else None
        return self._expected[key]

    def _check_hermitian(self, label, q, C, Q):
        """Problems with Q = hermitian_construct(C)."""
        F = self.F[q]
        G = C.G.array
        n, k = G.shape[1], G.shape[0]
        D = C.hermitian_dual().G.array
        if not oracle.spans_dual(F, G, D, hermitian=True):
            return [f"{label}: hermitian_dual does not span the Hermitian dual"]
        problems = []
        c = F.rank(F.herm(G, G))
        if (Q.n, Q.kappa, Q.c) != (n, n - 2 * k + c, c):
            problems.append(f"{label}: (n, kappa, c) = {(Q.n, Q.kappa, Q.c)}, want {(n, n - 2 * k + c, c)}")
        if not Q.delta.exact:
            problems.append(f"{label}: delta {Q.delta} is not exact within enumeration reach")
        want = self._hermitian_expected(q, G, D)
        if want is not None and _params(Q) != want:
            problems.append(f"{label}: {_params(Q)} != brute force {want}")
        if Q.delta.exact:
            # outside the hull means outside C, unless the dual sits inside C
            contained = F.rank(np.vstack([G, D])) == k
            problems += check_witness(F, label, Q.delta, Q.delta.value, None,
                                      outside=None if contained else G, hermitian_dual_of=G)
        return problems

    def _check_report(self, label, Q):
        report = self.ex.bounds.check_all(Q)
        return [] if report.ok else [f"{label}: bounds violated: {[e.bound_id for e in report.violations]}"]

    def _check_step(self, label, step, replayed):
        Q, out = step.input_params, step.output_params
        rid = step.rule_id
        p = []
        if rid == "more_ent":
            i = step.certificate["i"]
            if (out.n, out.delta.value, out.kappa, out.c) != (Q.n, Q.delta.value, Q.kappa + i, Q.c + i):
                p.append(f"{label}: more_ent(i={i}) {out} from {Q}")
        elif rid == "same_ent":
            ok = (out.n, out.kappa, out.c) == (Q.n + 1, Q.kappa - 1, Q.c)
            ok = ok and out.delta.value >= Q.delta.value
            if out.is_pure_at_delta():
                ok = ok and out.delta.value <= Q.delta.value + 1
            if not ok:
                p.append(f"{label}: same_ent {out} from {Q}")
        elif rid == "less_ent":
            if ((out.n, out.kappa, out.c) != (Q.n + 1, Q.kappa, Q.c - 1)
                    or out.delta.value > Q.delta.value):
                p.append(f"{label}: less_ent {out} from {Q}")
        if _params(replayed) != _params(out):
            p.append(f"{label}: replay of {rid} gave {_params(replayed)}, recorded {_params(out)}")
        p += self._check_report(f"{label}.{rid}", out)
        C2 = out.ingredient
        q = C2.field.order
        if rid != "more_ent":
            return p + self._check_hermitian(f"{label}.{rid}", q, C2, out)
        # more_ent keeps delta from its input: C2 must be C diag(scalars), with
        # c + i ebits and a distance of at least delta
        F, G2 = self.F[q], C2.G.array
        scaled = F.MUL[Q.ingredient.G.array, np.array(step.certificate["scalars"], dtype=np.uint8)]
        if F.rank(np.vstack([scaled, G2])) != G2.shape[0] or F.rank(F.herm(G2, G2)) != out.c:
            p.append(f"{label}: more_ent code is not the scaled input with c = {out.c}")
        want = self._hermitian_expected(q, G2, C2.hermitian_dual().G.array)
        if want is not None and want[2] < out.delta.value:
            p.append(f"{label}: more_ent claims delta {out.delta.value}, brute force {want[2]}")
        return p

    # -- operations ------------------------------------------------------------

    def _hermitian_op(self, label, q, G):
        ex = self.ex

        def run():
            C = ex.LinearCode(self.gf[q], G)
            Q = ex.hermitian_construct(C)
            ex.bounds.check_all(Q)
            steps = []
            if Q.is_pure_at_delta():
                if q > 4 and C.hull_dim >= 1:
                    for i in sorted({1, C.hull_dim}):
                        steps.append(ex.propagate.more_entanglement_step(Q, i))
                if Q.c >= 1:
                    try:
                        steps.append(ex.propagate.less_entanglement_step(Q))
                    except ex.errors.RuleNotApplicableError:
                        pass  # the rule's own side condition on the dual's hull
            replays = [ex.propagate.replay_step(s) for s in steps]
            for s in steps:
                ex.bounds.check_all(s.output_params)
            return C, Q, steps, replays

        def judge(res, exc):
            if exc is not None:
                return unexpected(label, exc)
            C, Q, steps, replays = res
            p = self._check_hermitian(label, q, C, Q) + self._check_report(label, Q)
            for s, r in zip(steps, replays):
                p += self._check_step(label, s, r)
            return False, p

        return Op(label, run, judge)

    def _css_op(self, label, q, G1, G2):
        ex = self.ex
        F = self.F[q]
        key = ("css", label)

        def run():
            C1 = ex.LinearCode(self.gf[q], G1)
            C2 = ex.LinearCode(self.gf[q], G2)
            Q = ex.css_construct(C1, C2)
            ex.bounds.check_all(Q)
            return C1, C2, Q

        def judge(res, exc):
            if exc is not None:
                return unexpected(label, exc)
            C1, C2, Q = res
            D1, D2 = C1.euclidean_dual().G.array, C2.euclidean_dual().G.array
            if not (oracle.spans_dual(F, G1, D1, False) and oracle.spans_dual(F, G2, D2, False)):
                return False, [f"{label}: euclidean_dual does not span the dual"]
            if key not in self._expected:
                self._expected[key] = oracle.css_params(F, G1, G2, D1, D2)
            p = self._check_report(label, Q)
            if _params(Q) != self._expected[key] or not Q.delta.exact:
                p.append(f"{label}: {_params(Q)} != brute force {self._expected[key]}")
            return False, p

        return Op(label, run, judge)

    def _min_ent_op(self, label, G):
        ex = self.ex
        F = self.F[9]
        key = ("min_ent", label)

        def run():
            C = ex.LinearCode(self.gf[9], G)
            res = ex.propagate.min_entanglement_search(C, mode="exhaustive")
            space = ex.propagate.puncture_space(C)
            found = ex.propagate.find_all_nonzero_vector(space)
            return C, res, found

        def judge(res, exc):
            if exc is not None:
                return unexpected(label, exc)
            C, r, (found, vec, exhaustive) = res
            Gc = C.G.array
            if key not in self._expected:
                self._expected[key] = oracle.min_rank_diagonal(F, Gc)
            p = []
            diag = np.array(r.diagonal, dtype=np.uint8)
            scaled = F.MUL[Gc, diag[None, :]]
            if r.c_min != self._expected[key] or F.rank(F.herm(scaled, Gc)) != r.c_min:
                p.append(f"{label}: c_min {r.c_min}, brute force {self._expected[key]}")
            if not exhaustive or found != (r.c_min == 0):
                p.append(f"{label}: puncture space says found={found}, c_min={r.c_min}")
            if found:
                v = np.array(vec, dtype=np.uint8)
                if not v.all() or F.herm(F.MUL[Gc, v[None, :]], Gc).any():
                    p.append(f"{label}: all-nonzero vector {vec} does not solve the system")
            return False, p

        return Op(label, run, judge)

    def _same_op(self, label, q, G):
        ex = self.ex

        def run():
            C = ex.LinearCode(self.gf[q], G)
            Q = ex.hermitian_construct(C)
            step = ex.propagate.same_entanglement_step(Q, search=True)
            replayed = ex.propagate.replay_step(step)
            ex.bounds.check_all(step.output_params)
            return C, Q, step, replayed

        def judge(res, exc):
            if isinstance(exc, AssertionError) and raised_in(exc, "same_entanglement_step"):
                return True, []
            if exc is not None:
                return unexpected(label, exc)
            C, Q, step, replayed = res
            p = self._check_hermitian(label, q, C, Q)
            return False, p + self._check_step(label, step, replayed)

        return Op(label, run, judge)

    def _verify_paper(self):
        buf = io.StringIO()
        with self.tracer.span("cli.verify_paper"), redirect_stdout(buf):
            rc = self.ex.cli.main(["verify-paper", "--format", "machine"])
        return rc, buf.getvalue()

    def _judge_verify(self, res, exc):
        if exc is not None:
            return unexpected("verify-paper", exc)
        rc, text = res
        lines = text.splitlines()
        if rc != 0 or not lines or lines[-1] != "summary failures=0":
            return False, [f"verify-paper: exit {rc}, last line {lines[-1:]}"]
        return False, []
