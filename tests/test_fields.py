import numpy as np
import pytest

from eaqecc.errors import InvalidFieldError
from eaqecc.fields import GF, FieldElement, FieldSpec

SQUARE_ORDERS = [4, 9, 25, 49]


def _is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


PRIME_POWERS = [q for q in range(2, 257) if _is_prime_power(q)]

# Defining polynomials (little-endian) that the first irreducible monic
# polynomial in encoding order gives; changing them re-encodes every field.
SEARCHED_POLYS = {
    8: (1, 1, 0, 1), 16: (1, 1, 0, 0, 1), 25: (2, 0, 1), 27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1), 49: (1, 0, 1), 64: (1, 1, 0, 0, 0, 0, 1), 81: (2, 1, 0, 0, 1),
    121: (1, 0, 1), 125: (1, 1, 0, 1), 128: (1, 1, 0, 0, 0, 0, 0, 1), 169: (2, 0, 1),
    243: (1, 2, 0, 0, 0, 1), 256: (1, 1, 0, 1, 1, 0, 0, 0, 1),
}


def test_prime_powers_up_to_the_order_cap():
    assert len(PRIME_POWERS) == 70 and PRIME_POWERS[-1] == 256


@pytest.mark.parametrize("order", PRIME_POWERS)
def test_tables_satisfy_the_field_axioms(order):
    F = GF(order)
    ADD, MUL = F.ADD.astype(np.intp), F.MUL.astype(np.intp)
    if order <= 81:
        a, b, c = np.ix_(*[np.arange(order)] * 3)
    else:
        a, b, c = np.random.default_rng(order).integers(0, order, size=(3, 200_000))
    # With ADD digitwise, these checks leave one MUL for a given defining polynomial.
    D = F.DIGITS.astype(np.intp)
    assert (D @ F.p ** np.arange(F.s) == np.arange(order)).all()
    assert (D[ADD[a, b]] == (D[a] + D[b]) % F.p).all()
    assert (MUL[a, b] == MUL[b, a]).all()
    assert (MUL[MUL[a, b], c] == MUL[a, MUL[b, c]]).all()
    assert (MUL[a, ADD[b, c]] == ADD[MUL[a, b], MUL[a, c]]).all()
    nonzero = np.arange(1, order)
    assert (np.sort(MUL[1:], axis=1) == np.arange(order)).all()
    assert (MUL[nonzero, F.INV[1:]] == 1).all() and (ADD[np.arange(order), F.NEG] == 0).all()
    # x is encoded as p (as 0 in a prime field, where the defining polynomial is x)
    x, power, value = F.p % order, 1, 0
    for k, coeff in enumerate(F.defining_poly):
        if k < F.s:
            assert power == F.p**k
        value = ADD[value, MUL[coeff, power]]
        power = MUL[power, x]
    assert value == 0
    if order in SEARCHED_POLYS:
        assert F.defining_poly == SEARCHED_POLYS[order]


def test_gf9_encoding_table():
    F = GF(9)
    assert F.element_table() == [
        (0, "0"), (1, "1"), (2, "2"), (3, "w"), (4, "w+1"),
        (5, "w+2"), (6, "2w"), (7, "2w+1"), (8, "2w+2"),
    ]


def test_gf9_generator_cycle():
    F = GF(9)
    w = F.generator
    assert w == 3
    assert [F.pow_(w, i) for i in range(8)] == [1, 3, 4, 7, 2, 6, 8, 5]


def test_pinned_defining_polys():
    assert GF(9).defining_poly == (2, 2, 1)  # x^2 + 2x + 2
    assert GF(4).defining_poly == (1, 1, 1)  # x^2 + x + 1


def test_gf_cache_identity():
    assert GF(9) is GF(9)
    assert GF(9) == FieldSpec(3, 2)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 8, 9, 16, 25, 27, 49, 81])
def test_inverses_exhaustive(order):
    F = GF(order)
    for a in F.nonzero_elements():
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("order", [4, 9, 16, 25, 49, 81])
def test_frobenius_is_homomorphism(order):
    F = GF(order)
    for a in F.elements():
        for b in F.elements():
            assert F.conj(F.mul(a, b)) == F.mul(F.conj(a), F.conj(b))
            assert F.conj(F.add(a, b)) == F.add(F.conj(a), F.conj(b))
        assert F.conj(F.conj(a)) == a


def test_conj_golden_values():
    F9 = GF(9)
    assert F9.conj(0) == 0
    assert F9.conj(1) == 1
    # conj(w) = w^3 = 2w + 1, encoded 7
    assert F9.conj(3) == 7


@pytest.mark.parametrize("order", SQUARE_ORDERS)
def test_norm_maps_onto_subfield(order):
    F = GF(order)
    q = F.subfield_order
    images = {F.norm(a) for a in F.nonzero_elements()}
    assert images == set(range(1, q))
    for a in F.elements():
        assert F.in_base_subfield(F.norm(a))
        for b in F.elements():
            assert F.norm(F.mul(a, b)) == F.mul(F.norm(a), F.norm(b))


def test_norm_golden_values():
    assert GF(9).norm(0) == 0
    assert GF(9).norm(3) == 2  # norm(w) = w^4 = 2 = -1
    assert GF(4).norm(2) == 1  # GF(4)* has order 3


@pytest.mark.parametrize("order", [4, 9])
def test_norm_preimage_counts(order):
    F = GF(order)
    q = F.subfield_order
    for t in range(1, q):
        assert sum(1 for a in F.elements() if F.norm(a) == t) == q + 1


@pytest.mark.parametrize("order", SQUARE_ORDERS)
def test_solve_norm_contract(order):
    F = GF(order)
    assert F.solve_norm(0) == 0
    for t in range(1, F.subfield_order):
        a = F.solve_norm(t)
        assert F.norm(a) == t
        # canonical: no smaller solution exists
        assert all(F.norm(b) != t for b in range(a))


def test_solve_norm_minus_one_gf9():
    F = GF(9)
    assert F.solve_norm(F.neg(1)) == 3  # w itself has norm 2 = -1


def test_solve_norm_rejects_outside_subfield():
    with pytest.raises(InvalidFieldError):
        GF(9).solve_norm(3)


def test_square_order_gate():
    F3 = GF(3)
    with pytest.raises(InvalidFieldError):
        F3.conj(1)
    with pytest.raises(InvalidFieldError):
        F3.norm(2)


def test_field_construction_errors():
    with pytest.raises(InvalidFieldError):
        FieldSpec(4, 1)  # not prime
    with pytest.raises(InvalidFieldError, match="reducible"):
        FieldSpec(3, 2, poly=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(InvalidFieldError, match="reducible"):
        FieldSpec(2, 2, poly=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(InvalidFieldError, match="reducible"):
        FieldSpec(2, 4, poly=(1, 0, 1, 0, 1))  # (x^2 + x + 1)^2, no root in GF(2)
    for poly in ((1, 1, 2), (1, 1), (2, 0, 1, 0)):
        with pytest.raises(InvalidFieldError, match="monic of degree 2"):
            FieldSpec(3, 2, poly=poly)
    with pytest.raises(InvalidFieldError):
        GF(512)  # above the supported order cap
    with pytest.raises(InvalidFieldError):
        GF(6)  # not a prime power


def test_alternative_poly_allowed():
    F = FieldSpec(3, 2, poly=(1, 0, 1))  # x^2 + 1
    assert F.order == 9
    assert F != GF(9)


def test_field_element_wrapper():
    F = GF(9)
    w = FieldElement(F, 3)
    one = FieldElement(F, 1)
    assert (w + one).value == 4
    assert (w * w).value == 4  # w^2 = w + 1
    assert (-w).value == 6
    assert (w / w).value == 1
    assert (w**4).value == 2
    assert w.conj().value == 7
    assert w.norm().value == 2
    assert repr(w) == "w"
    with pytest.raises(InvalidFieldError):
        w + FieldElement(GF(4), 1)


def test_subtraction_and_division():
    for order in (2, 3, 4, 9, 25):
        F = GF(order)
        for a in F.elements():
            for b in F.nonzero_elements():
                assert F.add(F.sub(a, b), b) == a
                assert F.mul(F.div(a, b), b) == a
