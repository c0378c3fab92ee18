"""Shared fixtures and small builders used across the test modules."""

from __future__ import annotations

import random

import pytest

from constrank import MatGF, SubspaceBasis, make_field, make_subspace


@pytest.fixture(scope="session")
def gf2():
    return make_field(2)


@pytest.fixture(scope="session")
def gf3():
    return make_field(3)


@pytest.fixture(scope="session")
def gf4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def gf5():
    return make_field(5)


def mat(field, rows):
    """Build a MatGF from a list of row lists."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    return MatGF(field, m, n, [x for row in rows for x in row])


def col(field, entries):
    return MatGF.column(field, entries)


def random_basis_change(S: SubspaceBasis, rng: random.Random) -> SubspaceBasis:
    """Rewrite S over a random invertible coefficient matrix.

    The span is unchanged, so any property of the span itself must be
    invariant under this.
    """
    F, d = S.field, S.d
    while True:
        coeffs = [[rng.randrange(F.q) for _ in range(d)] for _ in range(d)]
        C = MatGF(F, d, d, [x for row in coeffs for x in row])
        if C.rank() == d:
            break
    new_basis = []
    for i in range(d):
        acc = MatGF.zero(F, S.m, S.n)
        for j, B in enumerate(S.basis):
            if coeffs[i][j]:
                acc = acc + B.scale(coeffs[i][j])
        new_basis.append(acc)
    return make_subspace(new_basis)


def ref_rref(F, rows):
    """(reduced echelon rows, pivot columns), the nonzero rows only.

    Plain elimination through the field's scalar add, sub, mul and inv,
    the reference for the batched kernels.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0])):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        s = F.inv(rows[rank][c])
        rows[rank] = [F.mul(s, x) for x in rows[rank]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != rank and f:
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def ref_rank(F, rows) -> int:
    return len(ref_rref(F, rows)[1])


def _ref_digits(F, a):
    return [(a // F.p ** i) % F.p for i in range(F.e)]


def ref_add(F, a, b) -> int:
    """Sum of two codes as digit-wise addition mod p, with no field table."""
    return sum((x + y) % F.p * F.p ** i
               for i, (x, y) in enumerate(zip(_ref_digits(F, a), _ref_digits(F, b))))


def ref_mul(F, a, b) -> int:
    """Product of two codes as a schoolbook product of their residue
    polynomials, reduced by the monic F.modulus (none in a prime field),
    with no field table."""
    p, e = F.p, F.e
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_ref_digits(F, a)):
        for j, y in enumerate(_ref_digits(F, b)):
            prod[i + j] += x * y
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k] % p
        for t, m in enumerate(F.modulus):
            prod[k - e + t] -= c * m
    return sum(c % p * p ** i for i, c in enumerate(prod[:e]))
