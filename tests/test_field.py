"""Field construction and arithmetic.

The constructors verify the axioms themselves at build time, so the
tests here lean on independently derived values: hand-reduced products
in small extensions, the standard least irreducible moduli, and pure
Python re-checks of the axioms that do not share code with the builtin
verification.
"""

from __future__ import annotations

import pickle
import tracemalloc

import pytest

from constrank import (
    DivisionByZero,
    FieldSpec,
    InternalVerificationFailed,
    NonPrimeCharacteristic,
    OrderTooLarge,
    ParseError,
    ReducibleModulus,
    make_field,
    parse_field_descriptor,
)


def test_prime_field_matches_integer_arithmetic():
    F = make_field(7)
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.mul(a, b) == (a * b) % 7
            assert F.sub(a, b) == (a - b) % 7


@pytest.mark.parametrize("p,e,modulus", [
    (2, 2, (1, 1, 1)),        # x^2 + x + 1
    (2, 3, (1, 1, 0, 1)),     # x^3 + x + 1
    (2, 4, (1, 1, 0, 0, 1)),  # x^4 + x + 1
    (3, 2, (1, 0, 1)),        # x^2 + 1
])
def test_default_modulus_is_least_irreducible(p, e, modulus):
    assert make_field(p, e).modulus == modulus


def test_gf4_multiplication_by_hand():
    # codes: 0, 1, 2 = x, 3 = x + 1; x*x = x^2 = x + 1 mod x^2 + x + 1
    F = make_field(2, 2)
    assert F.mul(2, 2) == 3
    assert F.mul(2, 3) == 1
    assert F.mul(3, 3) == 2


def test_small_prime_products_by_hand():
    assert make_field(3).mul(2, 2) == 1
    assert make_field(5).inv(3) == 2
    assert make_field(5).div(4, 3) == make_field(5).mul(4, 2)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_axioms_reverified_in_python(p, e):
    """Associativity, distributivity, commutativity, inverses.

    Exhaustive over the whole field; deliberately reimplemented here
    rather than calling anything in the package beyond add/mul.
    """
    F = make_field(p, e)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els[:4]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)


def test_axiom_check_memory_is_quadratic_in_q():
    # a q x q x q check would need about 47 MB at q = 251
    tracemalloc.start()
    try:
        FieldSpec(251)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("entries", [[(2, 3)], [(2, 3), (3, 2)]],
                         ids=["one entry", "symmetric pair"])
def test_axiom_check_rejects_a_wrong_product(entries):
    F = FieldSpec(5)
    F._verify_axioms()
    mul = list(F._mul_flat)
    for a, b in entries:
        mul[a * 5 + b] = 2
    F._mul_flat = tuple(mul)
    with pytest.raises(InternalVerificationFailed):
        F._verify_axioms()


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
def test_frobenius_is_additive(p, e):
    F = make_field(p, e)

    def frob(a):
        out = a
        for _ in range(p - 1):
            out = F.mul(out, a)
        return out

    for a in F.elements():
        for b in F.elements():
            assert frob(F.add(a, b)) == F.add(frob(a), frob(b))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 4), (3, 2), (5, 1)])
def test_nonzero_elements_have_order_dividing_q_minus_1(p, e):
    F = make_field(p, e)
    for a in F.nonzero_elements():
        acc = 1
        for _ in range(F.q - 1):
            acc = F.mul(acc, a)
        assert acc == 1


def test_descriptor_round_trip():
    for F in (make_field(2), make_field(7), make_field(2, 2), make_field(3, 2)):
        assert parse_field_descriptor(F.descriptor) == F


def test_descriptor_with_explicit_modulus():
    F = parse_field_descriptor("GF(2^2)[1,1,1]")
    assert F.modulus == (1, 1, 1)
    assert F == make_field(2, 2)


def test_explicit_reducible_modulus_rejected():
    # x^2 + 1 = (x + 1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [1, 0, 1])


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, -3])
def test_nonprime_characteristic_rejected(p):
    with pytest.raises(NonPrimeCharacteristic):
        make_field(p)


def test_order_cap_enforced():
    with pytest.raises(OrderTooLarge):
        make_field(2, 17)
    # 2^16 itself is allowed
    assert make_field(2, 16).q == 1 << 16


def test_division_by_zero():
    F = make_field(3)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.div(2, 0)
    assert isinstance(DivisionByZero("x"), ZeroDivisionError)


@pytest.mark.parametrize("text", [
    "GF", "GF()", "GF(x)", "GF(2", "GF(2)]", "GF(2^)", "GF(2^2)[1,1",
    "GF(2^2)[1;1;1]", "gf(2)x",
])
def test_descriptor_parse_errors_carry_position(text):
    with pytest.raises(ParseError) as info:
        parse_field_descriptor(text)
    assert info.value.line == 1
    assert info.value.col >= 1


def test_field_pickles_to_equal_field():
    for F in (make_field(5), make_field(2, 3)):
        G = pickle.loads(pickle.dumps(F))
        assert G == F
        assert G.mul(2, 2) == F.mul(2, 2)
