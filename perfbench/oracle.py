"""Reference arithmetic and brute-force answers, written apart from eaqecc.

Fields are rebuilt here from their defining polynomials with the same
element encoding as the package (base-p digits of the residue
polynomial, constant term least significant), so witnesses can be
compared symbol by symbol.  Nothing in this module imports eaqecc.
"""

from __future__ import annotations

import numpy as np

# Defining polynomials, little-endian and monic: GF(4) on x^2 + x + 1,
# GF(9) on x^2 + 2x + 2, as the package documents them.
POLYS = {2: (2, 1, None), 3: (3, 1, None), 4: (2, 2, (1, 1, 1)), 9: (3, 2, (2, 2, 1))}

# Largest span the brute-force enumerators walk.
SPAN_LIMIT = 1 << 20


class Field:
    """GF(p^s) by lookup tables, built from polynomial arithmetic."""

    def __init__(self, order: int):
        p, s, poly = POLYS[order]
        self.p, self.s, self.order = p, s, order

        def digits(a):
            return [(a // p**i) % p for i in range(s)]

        def encode(ds):
            return sum(d * p**i for i, d in enumerate(ds))

        def mul(a, b):
            da, db = digits(a), digits(b)
            prod = [0] * (2 * s - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for top in range(2 * s - 2, s - 1, -1):  # reduce by the monic poly
                c = prod[top]
                if c:
                    for i in range(s + 1):
                        prod[top - s + i] = (prod[top - s + i] - c * poly[i]) % p
            return encode(prod[:s])

        q = order
        self.ADD = np.array(
            [[encode([(x + y) % p for x, y in zip(digits(a), digits(b))]) for b in range(q)]
             for a in range(q)], dtype=np.uint8)
        self.MUL = np.array([[mul(a, b) for b in range(q)] for a in range(q)], dtype=np.uint8)
        self.NEG = np.array([encode([(-d) % p for d in digits(a)]) for a in range(q)],
                            dtype=np.uint8)
        self.INV = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            self.INV[a] = int(np.nonzero(self.MUL[a] == 1)[0][0])
        if s % 2 == 0:
            root = p ** (s // 2)  # Frobenius relative to the base subfield
            self.base = root
            self.CONJ = np.array([self.pow(a, root) for a in range(q)], dtype=np.uint8)
        else:
            self.base = None
            self.CONJ = None

    def pow(self, a, e):
        out = 1
        for _ in range(e):
            out = int(self.MUL[out, a])
        return out

    def matmul(self, A, B):
        """A @ B over the field (small matrices)."""
        A = np.asarray(A, dtype=np.uint8)
        B = np.asarray(B, dtype=np.uint8)
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
        for t in range(A.shape[1]):
            out = self.ADD[out, self.MUL[A[:, t][:, None], B[t][None, :]]]
        return out

    def herm(self, A, B):
        """A B^dagger: the Hermitian inner products of the rows of A and B."""
        return self.matmul(A, self.CONJ[np.asarray(B, dtype=np.uint8)].T)

    def rref(self, rows) -> list:
        """Nonzero rows of the reduced row echelon form, as int lists."""
        M = [list(int(v) for v in r) for r in np.asarray(rows, dtype=np.uint8)]
        rank = 0
        cols = len(M[0]) if M else 0
        for col in range(cols):
            piv = next((i for i in range(rank, len(M)) if M[i][col]), None)
            if piv is None:
                continue
            M[rank], M[piv] = M[piv], M[rank]
            inv = int(self.INV[M[rank][col]])
            M[rank] = [int(self.MUL[inv, v]) for v in M[rank]]
            for i in range(len(M)):
                if i != rank and M[i][col]:
                    f = int(self.NEG[M[i][col]])
                    M[i] = [int(self.ADD[a, self.MUL[f, b]]) for a, b in zip(M[i], M[rank])]
            rank += 1
        return M[:rank]

    def rank(self, rows) -> int:
        return len(self.rref(rows))

    def in_span(self, rows, word) -> bool:
        rows = np.asarray(rows, dtype=np.uint8)
        return self.rank(np.vstack([rows, np.asarray(word, dtype=np.uint8)[None, :]])) == self.rank(rows)

    def span(self, rows) -> np.ndarray:
        """Every word of the row space (q^k of them) as an array."""
        rows = np.asarray(rows, dtype=np.uint8)
        k, n = rows.shape
        if self.order**k > SPAN_LIMIT:
            raise ValueError(f"span of {self.order}^{k} words is past the oracle limit")
        words = np.zeros((1, n), dtype=np.uint8)
        scalars = np.arange(self.order, dtype=np.uint8)
        for r in rows:
            multiples = self.MUL[scalars[:, None], r[None, :]]
            words = self.ADD[words[:, None, :], multiples[None, :, :]].reshape(-1, n)
        return words


def weight(word) -> int:
    return int(np.count_nonzero(np.asarray(word)))


def spans_dual(F: Field, G, D, hermitian: bool) -> bool:
    """True when the rows of D span the (Hermitian or Euclidean) dual of rowspace(G)."""
    G = np.asarray(G, dtype=np.uint8)
    D = np.asarray(D, dtype=np.uint8)
    n = G.shape[1]
    if D.shape[0] != n - F.rank(G) or (D.shape[0] and F.rank(D) != D.shape[0]):
        return False
    if not D.shape[0]:
        return True
    prod = F.herm(G, D) if hermitian else F.matmul(G, D.T)
    return not prod.any()


def min_weights_outside(F: Field, D, S, hermitian: bool):
    """(min weight of span(D) outside S^perp, min nonzero weight of span(D)).

    S^perp is the Hermitian or Euclidean dual of rowspace(S).  Each word
    m D is enumerated together with its syndrome m (D S^T), so membership
    costs nothing extra.  The first value is None when every word lies
    in S^perp.
    """
    D = np.asarray(D, dtype=np.uint8)
    n = D.shape[1]
    syn = F.herm(D, S) if hermitian else F.matmul(D, np.asarray(S, dtype=np.uint8).T)
    words = F.span(np.hstack([D, syn]))
    w = np.count_nonzero(words[:, :n], axis=1)
    outside = words[:, n:].any(axis=1)
    nonzero = w > 0
    d_all = int(w[nonzero].min()) if nonzero.any() else None
    d_out = int(w[outside].min()) if outside.any() else None
    return d_out, d_all


def hermitian_params(F: Field, G, D):
    """Expected (n, kappa, delta, c, purity) of the Hermitian construction.

    G generates the [n, k] code C over GF(q^2) and D its Hermitian dual
    (checked by the caller).  delta is the minimum weight of D outside
    the hull, i.e. of dual words that are not Hermitian-orthogonal to D
    (those are exactly the words outside C); when the dual sits inside C
    it is the plain minimum and the code is pure.
    """
    G = np.asarray(G, dtype=np.uint8)
    k, n = G.shape
    c = F.rank(F.herm(G, G))
    d_out, d_all = min_weights_outside(F, D, D, hermitian=True)
    if d_out is None:
        return n, n - 2 * k + c, d_all, c, "pure"
    return n, n - 2 * k + c, d_out, c, "pure" if d_out == d_all else f"pure_to:{d_all}"


def css_params(F: Field, G1, G2, D1, D2):
    """Expected (n, kappa, delta, c, purity) of the CSS-like construction."""
    G1 = np.asarray(G1, dtype=np.uint8)
    G2 = np.asarray(G2, dtype=np.uint8)
    n = G1.shape[1]
    c = F.rank(F.matmul(G1, G2.T))
    kappa = n - G1.shape[0] - G2.shape[0] + c
    out1, all1 = min_weights_outside(F, D1, D2, hermitian=False)  # C1^perp outside C2
    out2, all2 = min_weights_outside(F, D2, D1, hermitian=False)  # C2^perp outside C1
    d_all = min(v for v in (all1, all2) if v is not None)
    outs = [v for v in (out1, out2) if v is not None]
    if not outs:
        return n, kappa, d_all, c, "pure"
    delta = min(outs)
    return n, kappa, delta, c, "pure" if delta == d_all else f"pure_to:{d_all}"


def min_rank_diagonal(F: Field, G) -> int:
    """min over diagonals b in (GF(q)*)^n of rank(G diag(b) G^dagger)."""
    G = np.asarray(G, dtype=np.uint8)
    n = G.shape[1]
    base = [a for a in range(1, F.order) if F.pow(a, F.base) == a]
    best = None
    for idx in range(len(base) ** n):
        diag = []
        for _ in range(n):
            diag.append(base[idx % len(base)])
            idx //= len(base)
        scaled = F.MUL[G, np.array(diag, dtype=np.uint8)[None, :]]
        r = F.rank(F.herm(scaled, G))
        best = r if best is None else min(best, r)
        if best == 0:
            break
    return best


# -- the paper's eight single-step rules on plain parameters ------------------

def rule_step(rule, q, n, kappa, delta, c, pure):
    """The record a rule derives, as (n, kappa, delta, c, pure), or None."""
    if rule == 1:
        return n + 1, kappa, delta, c, False
    if rule == 2 and kappa >= 1:
        return n, kappa - 1, delta, c, False
    if rule == 3 and delta >= 2:
        return n, kappa, delta - 1, c, False
    if rule == 4 and c + 1 <= n - kappa:
        return n, kappa, delta, c + 1, False
    if rule == 5 and delta >= 2 and c < n - kappa:
        return n - 1, kappa, delta - 1, c, False
    if rule == 6 and pure and q > 2 and c <= n - kappa - 2:
        return n, kappa + 1, delta, c + 1, True
    if rule == 7 and c <= n - kappa - 2:
        return n - 1, kappa, delta, c + 1, False
    if rule == 8 and pure and delta >= 2 and c <= n - kappa - 2:
        return n - 1, kappa + 1, delta - 1, c, False
    return None


def closure_cells(roots, rules, n_max):
    """Best delta per (q, n, kappa, c, pure) reachable from the roots.

    roots are (q, n, kappa, delta, c, pure) tuples.  A plain worklist
    relaxation: a cell is revisited whenever its best delta improves.
    """
    best = {}
    work = []
    for q, n, kappa, delta, c, pure in roots:
        key = (q, n, kappa, c, int(pure))
        if best.get(key, -1) < delta:
            best[key] = delta
            work.append(key)
    while work:
        q, n, kappa, c, pure = key = work.pop()
        delta = best[key]
        for rule in rules:
            out = rule_step(rule, q, n, kappa, delta, c, bool(pure))
            if out is None or not 1 <= out[0] <= n_max:
                continue
            n2, k2, d2, c2, p2 = out
            key2 = (q, n2, k2, c2, int(p2))
            if best.get(key2, -1) < d2:
                best[key2] = d2
                work.append(key2)
    return best
