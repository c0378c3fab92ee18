"""Span enumeration, rank profiles, constant-rank decisions, file format."""

from __future__ import annotations

import random

import pytest

from constrank import (
    BudgetExceeded,
    EmptyInput,
    MatGF,
    ParseError,
    ShapeMismatch,
    SubspaceBasis,
    UsageError,
    ZeroSpan,
    enumerate_elements,
    is_constant_rank,
    make_field,
    make_subspace,
    parse_subspace,
    rank_profile,
)
from conftest import mat, random_basis_change


def _diag_pair(field):
    """span{E11, E22} inside 2x2: ranks 1 and 2 both occur."""
    E11 = mat(field, [[1, 0], [0, 0]])
    E22 = mat(field, [[0, 0], [0, 1]])
    return make_subspace([E11, E22])


def test_make_subspace_canonicalizes(gf3):
    A = mat(gf3, [[1, 1], [0, 2]])
    B = mat(gf3, [[2, 2], [0, 1]])  # = 2A
    C = mat(gf3, [[0, 1], [1, 0]])
    S = make_subspace([A, B, C])
    T = make_subspace([C, A.scale(2), A + C])
    assert S.d == 2
    assert S == T


def test_make_subspace_rejects_degenerate_input(gf2):
    with pytest.raises(EmptyInput):
        make_subspace([])
    with pytest.raises(ZeroSpan):
        make_subspace([MatGF.zero(gf2, 2, 2)])
    with pytest.raises(ShapeMismatch):
        make_subspace([MatGF.identity(gf2, 2), MatGF.zero(gf2, 2, 3)])
    with pytest.raises(ShapeMismatch):
        make_subspace([MatGF.identity(gf2, 2),
                       MatGF.identity(make_field(3), 2)])


def test_subspace_basis_requires_independence(gf2):
    I = MatGF.identity(gf2, 2)
    with pytest.raises(UsageError):
        SubspaceBasis([I, I])
    with pytest.raises(UsageError):
        SubspaceBasis([I, I.scale(1), MatGF.zero(gf2, 2, 2)])
    with pytest.raises(ValueError):     # UsageError is also a ValueError
        SubspaceBasis([I, I])


def test_enumeration_counts_and_order(gf3):
    S = _diag_pair(gf3)
    elements = list(enumerate_elements(S))
    assert len(elements) == 9
    assert elements[0].is_zero
    assert len(set(elements)) == 9
    # last coefficient moves fastest
    B1, B2 = S.basis
    assert elements[1] == B2
    assert elements[2] == B2.scale(2)
    assert elements[3] == B1
    assert elements[4] == B1 + B2


def test_enumeration_is_closed_under_addition(gf2):
    S = make_subspace([
        mat(gf2, [[1, 0], [0, 1]]),
        mat(gf2, [[0, 1], [1, 1]]),
    ])
    elements = set(enumerate_elements(S))
    for A in elements:
        for B in elements:
            assert A + B in elements


def test_enumeration_budget(gf2):
    S = make_subspace([MatGF.identity(gf2, 4)])
    big = make_subspace([
        mat(gf2, [[1, 0], [0, 0]]),
        mat(gf2, [[0, 1], [0, 0]]),
        mat(gf2, [[0, 0], [1, 0]]),
        mat(gf2, [[0, 0], [0, 1]]),
    ])
    assert len(list(enumerate_elements(S, budget=2))) == 2
    with pytest.raises(BudgetExceeded):
        rank_profile(big, budget=15)


def test_rank_profile_shape_and_frozen_counts(gf2, gf3):
    # multiplication matrices of the quadratic extension: all invertible
    S = make_subspace([
        MatGF.identity(gf2, 2),
        mat(gf2, [[0, 1], [1, 1]]),
    ])
    profile = rank_profile(S)
    assert profile.counts == (0, 0, 3)
    assert profile.constant_rank_of() == 2

    P = rank_profile(_diag_pair(gf3))
    assert P.counts == (0, 4, 4)
    assert P.constant_rank_of() is None


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_profile_invariants(q):
    F = make_field(2, 2) if q == 4 else make_field(q)
    rng = random.Random(q * 31)
    for _ in range(25):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        d = rng.randint(1, min(3, m * n))
        mats = []
        while True:
            mats = [
                MatGF(F, m, n, [rng.randrange(q) for _ in range(m * n)])
                for _ in range(d)
            ]
            try:
                S = make_subspace(mats)
                break
            except ZeroSpan:
                continue
        profile = rank_profile(S)
        assert profile.counts[0] == 0
        assert sum(profile.counts) == q ** S.d - 1
        for count in profile.counts:
            assert count % (q - 1) == 0


def test_rank_profile_invariant_under_basis_change(gf3):
    rng = random.Random(2024)
    S = make_subspace([
        mat(gf3, [[1, 0, 0], [0, 1, 0]]),
        mat(gf3, [[0, 1, 0], [0, 0, 1]]),
    ])
    base = rank_profile(S).counts
    for _ in range(10):
        assert rank_profile(random_basis_change(S, rng)).counts == base


def test_is_constant_rank_accepts(gf2):
    S = make_subspace([
        MatGF.identity(gf2, 2),
        mat(gf2, [[0, 1], [1, 1]]),
    ])
    ok, witness = is_constant_rank(S, 2)
    assert ok and witness is None
    ok, witness = is_constant_rank(S, 1)
    assert not ok
    assert witness is not None and witness.rank() == 2


def test_is_constant_rank_witness_is_first_offender(gf3):
    S = _diag_pair(gf3)
    ok, witness = is_constant_rank(S, 2)
    assert not ok
    # enumeration order: the first nonzero element is the last basis matrix
    assert witness == S.basis[1]
    ok, witness = is_constant_rank(S, 1)
    assert not ok
    assert witness == S.basis[0] + S.basis[1]


def test_is_constant_rank_validates_rank(gf2):
    S = make_subspace([MatGF.identity(gf2, 2)])
    with pytest.raises(ValueError):
        is_constant_rank(S, 0)
    with pytest.raises(ValueError):
        is_constant_rank(S, 3)


def test_subspace_text_round_trip(gf4):
    S = make_subspace([
        MatGF.identity(gf4, 2),
        mat(gf4, [[0, 2], [3, 1]]),
    ])
    T = parse_subspace(S.to_text())
    assert T == S
    assert T.field == gf4


def test_parse_subspace_errors():
    good = (
        "2 2 2 GF(2)\n\n"
        "2 2 GF(2)\n1 0\n0 1\n\n"
        "2 2 GF(2)\n0 1\n1 0\n"
    )
    parse_subspace(good)

    with pytest.raises(ParseError):
        parse_subspace("")
    with pytest.raises(ParseError):              # d does not match blocks
        parse_subspace(good.replace("2 2 2", "3 2 2", 1))
    with pytest.raises(ParseError):              # block field differs
        parse_subspace(good.replace("2 2 GF(2)\n0 1", "2 2 GF(3)\n0 1"))
    with pytest.raises(ParseError):              # dependent basis
        parse_subspace(
            "2 2 2 GF(2)\n\n"
            "2 2 GF(2)\n1 0\n0 1\n\n"
            "2 2 GF(2)\n1 0\n0 1\n"
        )
    with pytest.raises(ParseError):              # trailing garbage
        parse_subspace(good + "\nextra\n")


def test_parse_subspace_positions_point_at_offending_line():
    bad = (
        "2 2 2 GF(2)\n\n"
        "2 2 GF(2)\n1 0\n0 1\n\n"
        "2 2 GF(2)\n0 1\n1 2\n"
    )
    with pytest.raises(ParseError) as info:
        parse_subspace(bad)
    assert info.value.line == 9
    assert info.value.col == 3
