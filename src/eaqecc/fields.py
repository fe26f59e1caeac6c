"""Exact arithmetic in small finite fields GF(p^s).

Elements are plain Python ints in [0, p^s).  The int encodes the
coefficient vector of the residue polynomial in base p, least
significant digit first::

    value = c0 + c1*p + c2*p^2 + ...   for  c0 + c1*x + c2*x^2 + ...

GF(4) is built on x^2 + x + 1 and GF(9) on x^2 + 2x + 2.  Writing w for
the class of x in GF(9), the encoding gives

    w = 3,  w+1 = 4,  w+2 = 5,  2w = 6,  2w+1 = 7,  2w+2 = 8,

and the powers of w run 1, 3, 4, 7, 2, 6, 8, 5 (w is primitive).

Fields of square order q^2 carry the conjugation a -> a^q used by the
Hermitian inner product; `norm` maps onto the base subfield GF(q).

Every operation is a lookup in q x q (or length-q) uint8 tables, so
fields are cheap to use but bounded to order <= 256.  The tables are
built in one vectorised pass: ADD and NEG act on the digit table
DIGITS, a map X[a] = x*a shifts a's digits up and folds the top digit
back through the defining polynomial, and MUL is Horner's rule over the
digits of one factor, s lookup passes over the q x q table.  The
polynomial is accepted exactly when MUL has no zero divisors (every
nonzero row holds a 1), and INV is read off those same rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidFieldError

MAX_ORDER = 256

# Defining polynomials pinned per field (little-endian coefficients,
# monic).  GF(9) must stay on x^2 + 2x + 2: all worked matrices in the
# bundled data are written in that basis.
DEFAULT_POLYS = {
    (2, 2): (1, 1, 1),
    (3, 2): (2, 2, 1),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(value, p, width):
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


class FieldSpec:
    """The finite field GF(p^s) with a fixed defining polynomial.

    Immutable after construction; all operations are pure functions of
    their int arguments, so instances can be shared freely.
    """

    def __init__(self, p: int, s: int = 1, poly=None):
        if not _is_prime(p):
            raise InvalidFieldError(f"characteristic {p} is not prime")
        if s < 1:
            raise InvalidFieldError(f"extension degree must be >= 1, got {s}")
        order = p**s
        if order > MAX_ORDER:
            raise InvalidFieldError(f"field order {order} exceeds supported maximum {MAX_ORDER}")
        self.p = p
        self.s = s
        self.order = order
        self._build_tables(poly)
        self.generator = self._find_generator()
        # Freeze numpy tables against accidental mutation.
        for t in (self.ADD, self.MUL, self.NEG, self.INV, self.DIGITS):
            t.setflags(write=False)
        if self.CONJ is not None:
            self.CONJ.setflags(write=False)
            self.NORM.setflags(write=False)

    def _build_tables(self, poly):
        p, s, q = self.p, self.s, self.order
        weights = p ** np.arange(s)
        D = np.arange(q)[:, None] // weights % p
        self.DIGITS = D.astype(np.uint8)
        self.ADD = ((D[:, None] + D) % p @ weights).astype(np.uint8)
        self.NEG = (-D % p @ weights).astype(np.uint8)
        scale = (np.arange(p)[:, None, None] * D) % p @ weights  # scale[d, a] = d*a
        if s == 1:
            candidates = [(0, 1)]  # the class of x is 0; arithmetic is mod p
        elif poly is None and (p, s) not in DEFAULT_POLYS:
            # the first monic polynomial of degree s in encoding order that gives a field
            candidates = [(*D[enc].tolist(), 1) for enc in range(q)]
        else:
            poly = tuple(int(c) % p for c in (DEFAULT_POLYS[p, s] if poly is None else poly))
            if len(poly) != s + 1 or poly[-1] != 1:
                raise InvalidFieldError(f"defining polynomial must be monic of degree {s}")
            candidates = [poly]
        for poly in candidates:
            # X[a] = x*a: a's digits shift up one place and the top digit
            # folds back through x^s = -(c0 + c1 x + ... + c_{s-1} x^(s-1)).
            Xd = -D[:, -1:] * np.array(poly[:s])
            Xd[:, 1:] += D[:, :-1]
            X = Xd % p @ weights
            # Horner's rule over the digits of b: M <- x*M + b_i*a.
            MUL = np.zeros((q, q), dtype=np.uint8)
            for i in reversed(range(s)):
                MUL = self.ADD.ravel()[X[MUL] * q + scale[D[:, i]]]
            if (MUL[1:] == 1).any(axis=1).all():
                break
        else:
            raise InvalidFieldError(f"defining polynomial {poly} is reducible over GF({p})")
        self.defining_poly = poly
        self.MUL = MUL
        self.INV = np.argmax(MUL == 1, axis=1).astype(np.uint8)
        if s % 2 == 0:
            q0 = p ** (s // 2)
            self.CONJ = np.array([self.pow_(a, q0) for a in range(q)], dtype=np.uint8)
            self.NORM = np.array([self.pow_(a, q0 + 1) for a in range(q)], dtype=np.uint8)
        else:
            self.CONJ = None
            self.NORM = None

    def _find_generator(self):
        if self.order == 2:
            return 1
        for g in range(2, self.order):
            x, k = g, 1
            while x != 1:
                x = int(self.MUL[x, g])
                k += 1
            if k == self.order - 1:
                return g
        raise InvalidFieldError("no generator found")  # pragma: no cover

    # -- scalar operations -------------------------------------------------

    def add(self, a, b):
        return int(self.ADD[a, b])

    def sub(self, a, b):
        return int(self.ADD[a, self.NEG[b]])

    def neg(self, a):
        return int(self.NEG[a])

    def mul(self, a, b):
        return int(self.MUL[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.INV[a])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        out, base = 1, a
        while e:
            if e & 1:
                out = int(self.MUL[out, base])
            base = int(self.MUL[base, base])
            e >>= 1
        return out

    def elements(self):
        return range(self.order)

    def nonzero_elements(self):
        return range(1, self.order)

    # -- Hermitian structure -----------------------------------------------

    @property
    def is_square_order(self) -> bool:
        return self.s % 2 == 0

    @property
    def subfield_order(self) -> int:
        self._require_square()
        return self.p ** (self.s // 2)

    def _require_square(self):
        if not self.is_square_order:
            raise InvalidFieldError(
                f"GF({self.order}) has no square-order structure (extension degree {self.s} is odd)"
            )

    def conj(self, a):
        """Frobenius a -> a^q relative to the base subfield GF(q)."""
        self._require_square()
        return int(self.CONJ[a])

    def norm(self, a):
        """a -> a^(q+1); lands in the base subfield GF(q)."""
        self._require_square()
        return int(self.NORM[a])

    def in_base_subfield(self, a) -> bool:
        self._require_square()
        return int(self.CONJ[a]) == a

    def subfield_nonzero_elements(self) -> list:
        """The nonzero a of the base subfield GF(q), those with a^q == a, ascending.

        They are 1..p-1 only when q = p; in GF(16), GF(4) is {0, 1, 6, 7}.
        """
        return [a for a in self.nonzero_elements() if self.in_base_subfield(a)]

    def base_subfield(self) -> "FieldSpec":
        """The subfield GF(q) inside GF(q^2).

        Only supported when the subfield is the prime field (s == 2):
        there the subfield elements are exactly the ints < p under this
        encoding, so values carry over unchanged.
        """
        self._require_square()
        if self.s != 2:
            raise InvalidFieldError("base subfield extraction implemented for s == 2 only")
        return GF(self.p)

    def solve_norm(self, target):
        """Smallest alpha with alpha^(q+1) == target (target in GF(q))."""
        self._require_square()
        if not self.in_base_subfield(target):
            raise InvalidFieldError(f"element {target} is not in the base subfield")
        for a in range(self.order):
            if int(self.NORM[a]) == target:
                return a
        raise InvalidFieldError("norm is onto GF(q); unreachable")  # pragma: no cover

    # -- presentation --------------------------------------------------------

    def element_poly_str(self, a) -> str:
        if self.s == 1:
            return str(a)
        terms = []
        for i, c in enumerate(_digits(a, self.p, self.s)):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "w" if i == 1 else f"w^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(reversed(terms)) if terms else "0"

    def element_table(self):
        """(int value, polynomial string) for every element, for docs."""
        return [(a, self.element_poly_str(a)) for a in self.elements()]

    def __repr__(self):
        return f"GF({self.order})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.s, self.defining_poly) == (other.p, other.s, other.defining_poly)
        )

    def __hash__(self):
        return hash((self.p, self.s, self.defining_poly))


@functools.lru_cache(maxsize=None)
def _gf_cached(p, s, poly):
    return FieldSpec(p, s, poly)


def GF(order: int, poly=None) -> FieldSpec:
    """Field of the given order, cached.  GF(9) == GF(9) is one object."""
    p, s = _factor_prime_power(order)
    return _gf_cached(p, s, tuple(poly) if poly is not None else None)


def _factor_prime_power(order):
    if order < 2:
        raise InvalidFieldError(f"{order} is not a prime power")
    for p in range(2, order + 1):
        if not _is_prime(p):
            continue
        if order % p == 0:
            s = 0
            n = order
            while n % p == 0:
                n //= p
                s += 1
            if n != 1:
                raise InvalidFieldError(f"{order} is not a prime power")
            return p, s
    raise InvalidFieldError(f"{order} is not a prime power")  # pragma: no cover


@dataclass(frozen=True)
class FieldElement:
    """Convenience wrapper pairing a value with its field.

    The numeric kernels all work on raw ints; this class exists for
    interactive use and readable demos.
    """

    field: FieldSpec
    value: int

    def _check(self, other):
        if self.field != other.field:
            raise InvalidFieldError("elements live in different fields")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.add(self.value, other.value))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.sub(self.value, other.value))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.mul(self.value, other.value))

    def __truediv__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.div(self.value, other.value))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def __pow__(self, e):
        return FieldElement(self.field, self.field.pow_(self.value, e))

    def conj(self):
        return FieldElement(self.field, self.field.conj(self.value))

    def norm(self):
        return FieldElement(self.field, self.field.norm(self.value))

    def __repr__(self):
        return self.field.element_poly_str(self.value)
