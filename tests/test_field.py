"""Field construction and arithmetic.

The constructors verify the axioms themselves at build time, so the
tests here lean on independently derived values: hand-reduced products
in small extensions, the standard least irreducible moduli, and pure
Python re-checks of the axioms that do not share code with the builtin
verification.
"""

from __future__ import annotations

import gc
import math
import pickle
import random
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
from conftest import ref_add, ref_mul


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


@pytest.mark.parametrize("pe", [(251, 1), (2, 8)], ids=["GF(251)", "GF(2^8)"])
def test_built_field_keeps_only_linear_tables(pe):
    # q x q tables would hold about 1.5 MB at these orders
    gc.collect()
    tracemalloc.start()
    try:
        F = FieldSpec(*pe)
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert F.q > 250
    assert current < 256 * 2 ** 10


# GF(5) is generated by g = 2, with g^1 = 2 and g^2 = 4; the exp table
# holds g^k at k and again at k + 4
@pytest.mark.parametrize("pe,changes", [
    ((5, 1), {"exp_table": [(1, 3)]}),
    # 2 and 4 swapped in both copies of exp and in log: the tables stay
    # consistent with each other, but now 2 * 2 = 1
    ((5, 1), {"exp_table": [(1, 4), (2, 2), (5, 4), (6, 2)],
              "log_table": [(2, 2), (4, 1)]}),
    ((5, 1), {"_sums": [(6, 2)]}),
    ((3, 2), {"_sums": [(1, 0)]}),
], ids=["one entry", "symmetric pair", "residue table", "Zech table"])
def test_axiom_check_rejects_a_wrong_product(pe, changes):
    F = FieldSpec(*pe)
    F._verify_axioms()
    for table, entries in changes.items():
        values = list(getattr(F, table))
        for k, v in entries:
            values[k] = v
        setattr(F, table, tuple(values))
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


# the least primitive code g = exp[1] of some fields, pinned; x (code p)
# is not primitive under GF(2^8)'s default modulus
_LEAST_PRIMITIVE = {(2, 8, None): 3, (2, 9, None): 7, (3, 10, None): 34,
                    (251, 1, None): 6, (257, 1, None): 3, (65521, 1, None): 17,
                    (2, 4, (1, 1, 1, 1, 1)): 3, (7, 2, None): 9}
_EXP_FIELDS = [
    (2, 16, None), (3, 10, None), (65521, 1, None), (2, 9, None), (3, 6, None),
    (7, 2, None), (2, 4, (1, 1, 1, 1, 1)), (3, 2, (2, 2, 1)),
]
# and every order up to 512 with its default modulus
_EXP_FIELDS += [(p, e, None) for p in range(2, 513) for e in range(1, 10)
                if p ** e <= 512 and all(p % d for d in range(2, p))
                and (p, e, None) not in _EXP_FIELDS]


def _field_id(p, e, modulus):
    name = f"GF({p})" if e == 1 else f"GF({p}^{e})"
    return name + (f"[{','.join(map(str, modulus))}]" if modulus else "")


@pytest.mark.parametrize("p,e,modulus", _EXP_FIELDS,
                         ids=[_field_id(*f) for f in _EXP_FIELDS])
def test_exp_table_lists_the_powers_of_a_primitive_element(p, e, modulus):
    # each power is the one before times g = exp[1], by the schoolbook
    # product of the reference, on every step for q <= 4096 and on 3000
    # seeded steps otherwise; g is primitive when the first q - 1 powers
    # are the q - 1 nonzero codes, and it is the least primitive code when
    # every c < g, which is g^log[c], has gcd(log[c], q - 1) > 1
    F = make_field(p, e, modulus)
    q, exp = F.q, F.exp_table
    assert exp[0] == 1
    assert sorted(exp[: q - 1]) == list(range(1, q))
    assert all(math.gcd(F.log_table[c], q - 1) > 1 for c in range(1, exp[1]))
    if (p, e, modulus) in _LEAST_PRIMITIVE:
        assert exp[1] == _LEAST_PRIMITIVE[p, e, modulus]
    steps = range(q - 2) if q <= 4096 else random.Random(q).sample(range(q - 2), 3000)
    for k in steps:
        assert exp[k + 1] == ref_mul(F, exp[k], exp[1]), k


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
    for F in (make_field(5), make_field(2, 3), make_field(3, 2), make_field(257)):
        G = pickle.loads(pickle.dumps(F))
        assert G == F
        assert G.mul(2, 2) == F.mul(2, 2)
        for a, b in [(2, 2), (3, 4), (F.q - 1, 1), (F.q - 1, F.q - 2), (0, F.q - 1)]:
            assert G.add(a, b) == ref_add(F, a, b)
            assert G.mul(a, b) == ref_mul(F, a, b)
