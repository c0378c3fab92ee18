"""Kernel slices, image containment, double counting, valuations.

Expected values come from independent brute force inside this module:
slice dimensions by counting annihilating elements, the pair count by a
direct loop over (element, vector) pairs.  The library computes the same
quantities through kernels and echelon forms, so agreement is evidence
rather than tautology.
"""

from __future__ import annotations

import itertools
import random

import pytest

import constrank.analysis as analysis_mod
from constrank import (
    BudgetExceeded,
    DimensionMismatch,
    MatGF,
    NotConstantRank,
    ShapeViolation,
    UsageError,
    ZeroVector,
    check_general_bound,
    check_image_of_kernel,
    check_kernel_bound,
    counting_report,
    enumerate_elements,
    kernel_slice,
    make_field,
    make_subspace,
    member_of_span,
    qadic_valuation,
    regular_representation,
    truncated_construction,
)
from constrank.subspace import _BLOCK_CAP
from conftest import col, mat, random_basis_change, ref_rank, ref_rref


def _rank2_dim4_gf2():
    """A 4-dimensional constant rank 2 subspace of 3x3 over GF(2)."""
    F = make_field(2)
    return make_subspace([
        mat(F, [[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
        mat(F, [[0, 0, 0], [0, 1, 0], [1, 0, 0]]),
        mat(F, [[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
        mat(F, [[1, 0, 0], [0, 0, 0], [0, 1, 0]]),
    ])


def _all_nonzero_vectors(field, n):
    for code in range(1, field.q ** n):
        digits, c = [], code
        for _ in range(n):
            digits.append(c % field.q)
            c //= field.q
        yield col(field, digits)


def _slice_dim_oracle(S, u):
    """log_q of the number of span elements annihilating u."""
    count = sum(1 for A in enumerate_elements(S) if (A @ u).is_zero)
    dim = 0
    while S.field.q ** dim < count:
        dim += 1
    assert S.field.q ** dim == count
    return dim


def test_kernel_slice_identity_span(gf2):
    S = make_subspace([MatGF.identity(gf2, 2)])
    for u in _all_nonzero_vectors(gf2, 2):
        ks = kernel_slice(S, u)
        assert ks.r_u == 0
        assert ks.image_dim == 1
        assert ks.slice_basis == ()


def test_kernel_slice_single_nilpotent(gf2):
    S = make_subspace([mat(gf2, [[0, 1], [0, 0]])])
    ks = kernel_slice(S, col(gf2, [1, 0]))
    assert ks.r_u == 1
    assert ks.image_dim == 0
    assert len(ks.slice_basis) == 1
    ks2 = kernel_slice(S, col(gf2, [0, 1]))
    assert ks2.r_u == 0 and ks2.image_dim == 1


def test_kernel_slice_input_validation(gf2, gf3):
    square = make_subspace([MatGF.identity(gf2, 2)])
    wide = make_subspace([mat(gf2, [[1, 0, 0], [0, 1, 0]])])
    with pytest.raises(ShapeViolation):
        kernel_slice(wide, col(gf2, [1, 0, 0]))
    with pytest.raises(ZeroVector):
        kernel_slice(square, col(gf2, [0, 0]))
    with pytest.raises(DimensionMismatch):
        kernel_slice(square, col(gf2, [1, 0, 0]))
    with pytest.raises(DimensionMismatch):
        kernel_slice(square, col(gf3, [1, 0]))
    with pytest.raises(DimensionMismatch):
        kernel_slice(square, MatGF.identity(gf2, 2))


def test_kernel_slice_matches_brute_force(gf3):
    S = make_subspace([
        mat(gf3, [[1, 0], [0, 0]]),
        mat(gf3, [[0, 0], [0, 1]]),
    ])
    for u in _all_nonzero_vectors(gf3, 2):
        ks = kernel_slice(S, u)
        assert ks.r_u == _slice_dim_oracle(S, u)
        assert ks.r_u + ks.image_dim == S.d
        for B in ks.slice_basis:
            assert (B @ u).is_zero


def test_kernel_slice_rank_nullity_random(gf2, gf3):
    rng = random.Random(661)
    for F in (gf2, gf3):
        for _ in range(60):
            n = rng.randint(1, 3)
            d = rng.randint(1, min(3, n * n))
            while True:
                mats = [
                    MatGF(F, n, n, [rng.randrange(F.q) for _ in range(n * n)])
                    for _ in range(d)
                ]
                try:
                    S = make_subspace(mats)
                    break
                except Exception:
                    continue
            u = col(F, [rng.randrange(F.q) for _ in range(n)])
            if u.is_zero:
                continue
            ks = kernel_slice(S, u)
            assert ks.r_u + ks.image_dim == S.d


def test_kernel_slice_scalar_invariance(gf5):
    S = make_subspace([
        mat(gf5, [[1, 2], [3, 4]]),
        mat(gf5, [[0, 1], [1, 0]]),
    ])
    for u in (col(gf5, [1, 3]), col(gf5, [2, 0])):
        base = kernel_slice(S, u).r_u
        for lam in range(2, 5):
            assert kernel_slice(S, u.scale(lam)).r_u == base


# ---------------------------------------------------------------------------
# fields above the table cap, against a per-vector scalar reference
# ---------------------------------------------------------------------------

_LARGE = [(257, 1), (2, 9)]


def _ref_projective_vectors(F, n):
    for lead in range(n - 1, -1, -1):
        for tail in itertools.product(range(F.q), repeat=n - 1 - lead):
            yield (0,) * lead + (1,) + tail


def _ref_slice_dims(S):
    """(u, dim K_u) in scan order; each evaluation matrix [B_1 u ... B_d u]
    is built and ranked with the scalar field operations."""
    F, n = S.field, S.n
    for u in _ref_projective_vectors(F, n):
        cols = []
        for B in S.basis:
            Bu = []
            for i in range(n):
                acc = 0
                for t in range(n):
                    acc = F.add(acc, F.mul(B.at(i, t), u[t]))
                Bu.append(acc)
            cols.append(Bu)
        W = [[c[i] for c in cols] for i in range(n)]
        yield u, S.d - ref_rank(F, W)


@pytest.mark.parametrize("pe,n", [((2, 1), 5), ((3, 1), 4), ((257, 1), 3)],
                         ids=["GF(2)", "GF(3)", "GF(257)"])
def test_projective_blocks_follow_the_scan_order(pe, n):
    # GF(257) n=3 has 66,307 classes, so blocks split inside one lead
    F = make_field(*pe)
    blocks = list(analysis_mod._projective_blocks(F, n))
    assert max(len(U) for U in blocks) <= _BLOCK_CAP
    got = [tuple(u) for U in blocks for u in U.tolist()]
    assert got == list(_ref_projective_vectors(F, n))


@pytest.mark.parametrize("pe", _LARGE, ids=["GF(257)", "GF(2^9)"])
def test_slice_scans_above_the_table_cap(pe):
    F = make_field(*pe)
    rng = random.Random(f"slices:{pe}")
    for m, r in ((2, 2), (2, 1), (1, 1)):
        S = random_basis_change(
            truncated_construction(F, m, 2, r).pad_to_square(), rng)
        ref = list(_ref_slice_dims(S))
        min_r_u = min(ru for _, ru in ref)
        bound = check_kernel_bound(S)
        assert bound.min_r_u == min_r_u
        assert bound.min_u.entries == next(u for u, ru in ref if ru == min_r_u)
        counting = counting_report(S)
        assert counting.omega_by_vectors == sum(
            (F.q - 1) * (F.q ** ru - 1) for _, ru in ref)
        assert counting.rhs_min_exponent == min_r_u
        for u, ru in ref[::37]:
            ks = kernel_slice(S, col(F, u))
            assert (ks.r_u, ks.image_dim) == (ru, S.d - ru)
            for B in ks.slice_basis:
                assert (B @ col(F, u)).is_zero


def test_echelon_helpers_above_the_table_cap():
    F = make_field(257)
    rng = random.Random(257)
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randrange(F.q) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.5:
            rows[-1] = [F.add(x, F.mul(3, y)) for x, y in zip(rows[0], rows[1])]
        A = mat(F, rows)
        image = A.image_basis()
        assert len(image) == ref_rank(F, rows)
        columns = [col(F, [rows[i][j] for i in range(m)]) for j in range(n)]
        assert all(member_of_span(c, image) for c in columns)
        e = col(F, [1] + [0] * (m - 1))
        assert member_of_span(e, image) == (
            ref_rank(F, [c.entries for c in image] + [e.entries]) == len(image))
        gens = [A, A.scale(5), mat(F, [[1] * n] * m)]
        S = make_subspace(gens)
        assert [list(B.entries) for B in S.basis] == \
            ref_rref(F, [G.entries for G in gens])[0]
        T = make_subspace([S.basis[-1], A + S.basis[0], A.scale(2)])
        assert S == T


def test_image_of_kernel_holds_on_invertible_span(gf2):
    S = regular_representation(gf2, 3)
    report = check_image_of_kernel(S)
    assert report.holds
    assert report.max_rank == 3
    assert report.elements_checked == 7
    assert report.triples_checked == 0  # kernels are trivial
    assert not report.sampled


def test_image_of_kernel_holds_with_real_kernels():
    F = make_field(3)
    S = truncated_construction(F, 2, 2, 1)
    report = check_image_of_kernel(S)
    assert report.holds
    assert report.max_rank == 1
    assert report.triples_checked > 0


def test_image_of_kernel_fails_on_gf2_counterexample():
    S = _rank2_dim4_gf2()
    report = check_image_of_kernel(S)
    assert not report.holds
    assert report.max_rank == 2
    assert report.violations
    # re-check each reported triple from scratch
    span_elements = set(enumerate_elements(S))
    for A, u, B in report.violations:
        assert A.rank() == 2
        assert (A @ u).is_zero and not u.is_zero
        assert B in span_elements
        assert not member_of_span(B @ u, A.image_basis())


def test_image_of_kernel_requires_square(gf2):
    wide = make_subspace([mat(gf2, [[1, 0, 0], [0, 1, 0]])])
    with pytest.raises(ShapeViolation):
        check_image_of_kernel(wide)


def test_image_of_kernel_sampling_is_seeded():
    S = _rank2_dim4_gf2()
    a = check_image_of_kernel(S, sample=5, seed=1)
    b = check_image_of_kernel(S, sample=5, seed=1)
    c = check_image_of_kernel(S, sample=5, seed=2)
    assert a.sampled and a.elements_checked == 5
    assert [v for v in a.violations] == [v for v in b.violations]
    assert c.elements_checked == 5
    # a sample larger than the population degrades to the full check
    full = check_image_of_kernel(S, sample=10 ** 6)
    assert not full.sampled
    assert full.elements_checked == 15


@pytest.mark.parametrize("sample", [0, -1])
def test_image_of_kernel_rejects_non_positive_sample(sample):
    with pytest.raises(UsageError, match="sample must be at least 1"):
        check_image_of_kernel(_rank2_dim4_gf2(), sample=sample)


def test_kernel_bound_report_fields(gf2):
    S = _rank2_dim4_gf2()
    report = check_kernel_bound(S)
    assert (report.q, report.n, report.r, report.d) == (2, 3, 2, 4)
    assert report.bound == 2            # n + 1 - r
    assert report.min_r_u == 1          # fails: the field is too small
    assert not report.applicable        # q = 2 < r + 1
    assert not report.holds
    assert not (S.basis and report.min_u.is_zero)
    ks = kernel_slice(S, report.min_u)
    assert ks.r_u == report.min_r_u

    T = regular_representation(gf2, 2)
    rep2 = check_kernel_bound(T)
    assert rep2.min_r_u == 0 and not rep2.applicable


def test_kernel_bound_min_matches_brute_force(gf3):
    S = truncated_construction(gf3, 2, 2, 1)
    report = check_kernel_bound(S)
    oracle = min(_slice_dim_oracle(S, u)
                 for u in _all_nonzero_vectors(gf3, 2))
    assert report.min_r_u == oracle


def _identity_span(F, n):
    """1-dim span of the n-by-n identity: q elements, q^n vectors."""
    return make_subspace([MatGF(F, n, n, [int(i == j) for i in range(n)
                                          for j in range(n)])])


@pytest.mark.parametrize("check", [check_kernel_bound, counting_report],
                         ids=["kernel_bound", "counting"])
def test_budget_bounds_the_vector_scan(check):
    # 251 elements, but about 10^12 vectors to scan
    S = _identity_span(make_field(251), 5)
    for budget in (1000, None):
        kwargs = {} if budget is None else {"budget": budget}
        with pytest.raises(BudgetExceeded, match=f"{251 ** 5} vectors"):
            check(S, **kwargs)
    # the vector budget counts all q^n vectors, as the span budget counts
    # all q^d elements
    T = _identity_span(make_field(3), 2)
    assert check(T, budget=9)
    with pytest.raises(BudgetExceeded, match="has 9 vectors"):
        check(T, budget=8)


def test_kernel_bound_rejects_mixed_rank(gf3):
    S = make_subspace([
        mat(gf3, [[1, 0], [0, 0]]),
        mat(gf3, [[0, 0], [0, 1]]),
    ])
    with pytest.raises(NotConstantRank):
        check_kernel_bound(S)
    with pytest.raises(NotConstantRank):
        counting_report(S)
    with pytest.raises(NotConstantRank):
        check_general_bound(S)


def _omega_oracle(S):
    """Count annihilating pairs by the obvious double loop."""
    total = 0
    for A in enumerate_elements(S):
        if A.is_zero:
            continue
        for u in _all_nonzero_vectors(S.field, S.n):
            if (A @ u).is_zero:
                total += 1
    return total


@pytest.mark.parametrize("q,m,n,r", [
    (2, 2, 2, 1), (3, 2, 2, 1), (2, 3, 3, 2), (3, 2, 2, 2), (5, 2, 2, 1),
])
def test_counting_identity_against_direct_enumeration(q, m, n, r):
    F = make_field(q)
    S = truncated_construction(F, m, n, r).pad_to_square()
    report = counting_report(S)
    direct = _omega_oracle(S)
    assert report.omega_by_elements == direct
    assert report.omega_by_vectors == direct
    assert not report.contradiction


def test_counting_on_critical_dimension():
    S = _rank2_dim4_gf2()
    report = counting_report(S)
    assert report.d == report.n + 1
    assert report.omega_by_elements == report.omega_by_vectors == _omega_oracle(S)
    assert report.lhs_valuation == report.n - report.r == 1
    assert report.rhs_min_exponent == 1
    # no divisibility clash: exactly because some slice is smaller than
    # the bound that a larger field would force
    assert not report.contradiction


def test_counting_below_critical_dimension(gf2):
    S = regular_representation(gf2, 2)
    report = counting_report(S)
    assert report.lhs_valuation is None
    assert not report.contradiction


def test_qadic_valuation():
    assert qadic_valuation(2, 8) == 3
    assert qadic_valuation(2, 12) == 2
    assert qadic_valuation(3, 5) == 0
    assert qadic_valuation(5, -250) == 3
    assert qadic_valuation(2, 2 ** 4 - 2 - 2 ** 3 + 2 ** 2) == 1
    with pytest.raises(UsageError):
        qadic_valuation(1, 4)
    with pytest.raises(UsageError):
        qadic_valuation(2, 0)
    with pytest.raises(ValueError):     # UsageError is also a ValueError
        qadic_valuation(2, 0)


@pytest.mark.parametrize("q,n,r", [(2, 4, 2), (3, 5, 1), (7, 10, 9), (9, 8, 3)])
def test_valuation_of_counting_difference(q, n, r):
    value = q ** (2 * n + 1 - r) - q ** (n - r) - q ** (n + 1) + q ** n
    assert qadic_valuation(q, value) == n - r


def test_general_bound_on_constructions(gf5):
    S = truncated_construction(gf5, 2, 3, 2)
    report = check_general_bound(S)
    assert bool(report)
    assert (report.m, report.n, report.r, report.d) == (2, 3, 2, 3)
    assert report.bound == 3
    assert report.within_n
    assert report.field_large_enough   # 5 >= 3


def test_general_bound_tight_on_counterexample():
    report = check_general_bound(_rank2_dim4_gf2())
    assert report.holds
    assert report.d == report.bound == 4
    assert not report.within_n          # d = n + 1 here
    assert not report.field_large_enough
