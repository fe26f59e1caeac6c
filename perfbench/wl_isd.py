"""isd: distances past enumeration, all from the information-set loop.

Two regimes: over GF(9) each leaf of the loop is a block of
(q-1)^(w-1) rows and numpy does the work; over GF(2) each leaf is one
row and Python overhead sets the pace.
"""

from __future__ import annotations

import numpy as np

import oracle
from common import Op, batch, check_witness, unexpected
from oracle import Field

ISD_BUDGET = 10**9
# The hull-relative cases come from a fixed seed, not from --seed: a few
# of them hit the known incompleteness of the hull-relative loop (see
# the FOUND line on distance.py in CHANGES.md), and the failure count
# must repeat exactly in every run.
HULL_SEED = 7
HULL_CASES = 20
HULL_SHAPE = (15, 13)


def quadratic_residue_code(F2: Field, p: int) -> np.ndarray:
    """Generator rows of the binary [p, (p+1)/2] quadratic-residue code.

    The code is spanned by the cyclic shifts of sum_{r in QR} x^r, which
    generate the (p+1)/2-dimensional QR code for p = 47.
    """
    residues = {(i * i) % p for i in range(1, p)}
    word = np.array([1 if i in residues else 0 for i in range(p)], dtype=np.uint8)
    basis = np.array(F2.rref([np.roll(word, s) for s in range(p)]), dtype=np.uint8)
    if basis.shape[0] != (p + 1) // 2:
        raise ValueError(f"QR construction for p={p} gave dimension {basis.shape[0]}")
    return basis


class ISD:
    def __init__(self, ex, data, seed, tracer):
        self.ex = ex
        self.F2, self.F9 = Field(2), Field(9)
        self.gf2, self.gf9 = ex.GF(2), ex.GF(9)
        g29 = data["g29"]
        qr47 = quadratic_residue_code(self.F2, 47)
        qr48 = np.hstack([qr47, (qr47.sum(axis=1) % 2).astype(np.uint8)[:, None]])
        rng = np.random.default_rng([seed, 202])
        # monomially equivalent copies: over GF(2) a column permutation
        copies = [("qr47", qr47[:, rng.permutation(47)], 11),
                  ("qr48", qr48[:, rng.permutation(48)], 12)]

        self.ops = [self._paper_distance_op(g29), self._paper_dual_op(g29)]
        self.ops += [self._known_distance_op(f"{name}.copy", G, d) for name, G, d in copies]
        hull_rng = np.random.default_rng(HULL_SEED)
        n, k = HULL_SHAPE
        hull_cases = []
        while len(hull_cases) < HULL_CASES:
            G = hull_rng.integers(0, 9, size=(k, n), dtype=np.uint8)
            if self.F9.rank(G) == k and k - self.F9.rank(self.F9.herm(G, G)) == 1:
                hull_cases.append(G)
        # each case takes about 3 ms: timed as one batch
        self.ops.append(batch("hullrel", [self._hull_relative_op(f"hullrel{i}", G)
                                          for i, G in enumerate(hull_cases)]))

    def _paper_distance_op(self, G):
        ex, label = self.ex, "paper29.d"

        def run():
            return ex.LinearCode(self.gf9, G).min_distance(enum_cap=1, work_budget=ISD_BUDGET)

        def judge(fact, exc):
            if exc is not None:
                return unexpected(label, exc)
            # [29,14] Hermitian self-orthogonal code of the paper, d = 12
            if not fact.exact or fact.value != 12:
                return False, [f"{label}: distance {fact}, want exactly 12"]
            return False, check_witness(self.F9, label, fact, 12, G)

        return Op(label, run, judge)

    def _paper_dual_op(self, G):
        ex, label = self.ex, "paper29.dual"

        def run():
            return ex.hermitian_construct(ex.LinearCode(self.gf9, G), work_budget=ISD_BUDGET)

        def judge(Q, exc):
            if exc is not None:
                return unexpected(label, exc)
            delta = Q.delta
            if not delta.exact:
                honest = delta.value <= 11 and (delta.upper is None or delta.upper >= 11)
                return True, [] if honest else [f"{label}: bounds {delta} exclude 11"]
            want = (29, 1, 11, 0, "pure")
            got = (Q.n, Q.kappa, delta.value, Q.c, Q.purity)
            if got != want:
                return False, [f"{label}: {got}, want {want}"]
            return False, check_witness(self.F9, label, delta, 11, None, outside=G,
                                        hermitian_dual_of=G)

        return Op(label, run, judge)

    def _known_distance_op(self, label, G, d):
        ex = self.ex

        def run():
            return ex.LinearCode(self.gf2, G).min_distance(enum_cap=1, work_budget=ISD_BUDGET)

        def judge(fact, exc):
            if exc is not None:
                return unexpected(label, exc)
            if not fact.exact or fact.value != d:
                return False, [f"{label}: distance {fact}, want exactly {d}"]
            return False, check_witness(self.F2, label, fact, d, G)

        return Op(label, run, judge)

    def _hull_relative_op(self, label, G):
        """One hull-relative case; it fails when a bound stays open."""
        ex = self.ex
        expected = []

        def run():
            C = ex.LinearCode(self.gf9, G)
            D, H = C.hermitian_dual(), C.hull_code()
            return D, ex.codes.relative_distance(D, H, enum_cap=1)

        def judge(res, exc):
            if exc is not None:
                return unexpected(label, exc)
            Dc, (out, whole) = res
            D = Dc.G.array
            if not oracle.spans_dual(self.F9, G, D, hermitian=True):
                return False, [f"{label}: hermitian_dual does not span the Hermitian dual"]
            if not expected:
                # words of D outside the hull are the words outside C
                expected.extend(oracle.min_weights_outside(self.F9, D, D, True))
            p = []
            for name, fact, want in zip(("outside", "whole"), (out, whole), expected):
                if fact.exact:
                    if fact.value != want:
                        p.append(f"{label}: {name} distance {fact.value}, brute force {want}")
                elif not (fact.value <= want and (fact.upper is None or want <= fact.upper)):
                    p.append(f"{label}: {name} bounds {fact} exclude brute force {want}")
            if out.exact:
                p += check_witness(self.F9, label, out, out.value, None, outside=G,
                                   hermitian_dual_of=G)
            return not (out.exact and whole.exact), p

        return Op(label, run, judge)
