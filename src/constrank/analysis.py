"""Instance checkers for the structural facts about constant-rank spans.

Four independent facts are checked here, each on a concrete span rather
than in the abstract:

* image containment: for a maximal-rank A in the span and any B in the
  span, B maps the kernel of A into the image of A (requires q >= r + 1;
  small fields admit counterexamples, which these checkers surface);
* the kernel-slice dimension bound: writing K_u for the matrices in the
  span annihilating a fixed vector u, dim K_u >= n + 1 - r whenever the
  span has dimension n + 1;
* the pair-counting identity: counting {(A, u) : A != 0, u != 0, Au = 0}
  once over matrices and once over vectors gives the same number, and for
  dimension n + 1 the two closed forms disagree q-adically;
* the dimension bounds d <= n and d <= m + n - r.

All counts are exact integers.  Vectors are scanned one representative
per scalar class, since dim K_u is unchanged by scaling u, and budgets
bound the q^n vectors of a scan as well as the q^d span elements.

Span elements are reduced one representative per scalar class too: cA
has the reduced echelon form of A for every nonzero scalar c (the
reduction scales each pivot to 1), hence the same kernel and image, so
the image check reduces the element whose leading coefficient is 1 and
reports each of its violations for all q - 1 multiples, in element
order (see check_image_of_kernel).  A sampled check examines the
sampled elements themselves.  A rank profile can be passed to the
private helpers behind check_kernel_bound and check_image_of_kernel, so
the CLI's lemma-check ranks the span once for both checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InternalVerificationFailed,
    NotConstantRank,
    ShapeViolation,
    UsageError,
    ZeroVector,
)
from .field import FieldArrays, FieldSpec
from .matrix import MatGF, _code_digits, _kernel_batch, rank_batch
from .subspace import (
    _BLOCK_CAP,
    DEFAULT_ENUMERATION_BUDGET,
    RankProfile,
    SubspaceBasis,
    _class_ranges,
    _matrix_of,
    _ranked_blocks,
    _span_blocks,
    rank_profile,
)

__all__ = [
    "CountingReport",
    "GeneralBoundReport",
    "ImageOfKernelReport",
    "KernelBoundReport",
    "KernelSlice",
    "check_general_bound",
    "check_image_of_kernel",
    "check_kernel_bound",
    "counting_report",
    "kernel_slice",
    "qadic_valuation",
]


# ---------------------------------------------------------------------------
# kernel slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSlice:
    """The matrices of a span annihilating one fixed vector u.

    r_u is the dimension of that slice and image_dim the dimension of
    {Bu : B in span}; the two add up to the span dimension because they
    are the kernel and image of the evaluation map B -> Bu.
    """

    u: MatGF
    slice_basis: tuple[MatGF, ...]
    r_u: int
    image_dim: int


def kernel_slice(S: SubspaceBasis, u: MatGF) -> KernelSlice:
    """Slice of a square span at a nonzero vector u.

    r_u and image_dim are computed by two separate eliminations of the
    stacked evaluation matrix, so their sum being the span dimension is a
    genuine cross-check rather than an identity of the code.
    """
    if S.m != S.n:
        raise ShapeViolation(
            f"kernel slices need a square span, got {S.m}x{S.n}"
        )
    if not isinstance(u, MatGF) or u.n != 1:
        raise DimensionMismatch("u must be a column vector")
    if u.field != S.field or u.m != S.n:
        raise DimensionMismatch(
            f"u must be a length-{S.n} vector over {S.field.descriptor}"
        )
    if u.is_zero:
        raise ZeroVector("kernel slices are defined for nonzero u")
    F = S.field
    n, d = S.n, S.d
    evaluation = _evaluations(S, np.array([u.entries]))[0]
    W = MatGF(F, n, d, evaluation.ravel().tolist())
    coeff_vectors = W.kernel_basis()
    slice_basis = []
    for c in coeff_vectors:
        acc = MatGF.zero(F, n, n)
        for j, cj in enumerate(c.entries):
            if cj:
                acc = acc + S.basis[j].scale(cj)
        slice_basis.append(acc)
    return KernelSlice(
        u=u,
        slice_basis=tuple(slice_basis),
        r_u=len(coeff_vectors),
        image_dim=W.rank(),
    )


def _field_matmul(ar: FieldArrays, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Product of code arrays X (..., a, t) and Y (..., t, b) over the
    field, broadcast over the leading axes."""
    acc = ar.mul(X[..., :, :1], Y[..., :1, :])
    for t in range(1, X.shape[-1]):
        acc = ar.add(acc, ar.mul(X[..., :, t:t + 1], Y[..., t:t + 1, :]))
    return acc


def _basis_codes(S: SubspaceBasis) -> np.ndarray:
    return np.array([B.entries for B in S.basis], dtype=np.int32).reshape(
        S.d, S.m, S.n)


def _evaluations(S: SubspaceBasis, U: np.ndarray) -> np.ndarray:
    """(P, n, d) evaluation matrices of P vectors: column j of entry p is
    B_j u_p."""
    n, d = S.n, S.d
    # row i * d + j of the stacked basis is row i of B_j
    stacked = _basis_codes(S).transpose(1, 0, 2).reshape(n * d, n)
    return _field_matmul(S.field.arrays, U, stacked.T).reshape(-1, n, d)


def _projective_blocks(field: FieldSpec, n: int):
    """One representative per scalar class of nonzero vectors in F^n, as
    (P, n) blocks of at most _BLOCK_CAP vectors.

    The representatives are the base-q digits of the codes in the class
    ranges [q^j, 2q^j) of the span walk, so each has first nonzero entry
    1, which makes it the lexicographically least member of its class;
    the stream itself is lexicographically increasing.
    """
    for lo, hi in _class_ranges(field.q, n):
        for start in range(lo, hi, _BLOCK_CAP):
            codes = np.arange(start, min(start + _BLOCK_CAP, hi))
            yield _code_digits(codes, field.q, n)


def _slice_dims(S: SubspaceBasis, budget: int):
    """(vectors, dim K_u) blocks over the projective vectors, in order.

    Raises BudgetExceeded at once if F^n has more than budget vectors.
    """
    total = S.field.q ** S.n
    if total > budget:
        raise BudgetExceeded(
            f"vector space has {total} vectors, enumeration budget is {budget}"
        )
    return ((U, S.d - rank_batch(S.field, _evaluations(S, U)))
            for U in _projective_blocks(S.field, S.n))


def _constant_rank(profile: RankProfile) -> int:
    r = profile.constant_rank_of()
    if r is None:
        raise NotConstantRank(
            f"span is not constant rank (rank counts {profile.counts})"
        )
    return r


# ---------------------------------------------------------------------------
# image containment of kernel vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageOfKernelReport:
    """Outcome of the image-containment check over maximal-rank elements."""

    max_rank: int
    elements_checked: int
    triples_checked: int
    sampled: bool
    violations: tuple[tuple[MatGF, MatGF, MatGF], ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def check_image_of_kernel(S: SubspaceBasis, *, sample: int | None = None,
                          seed: int = 0,
                          budget: int = DEFAULT_ENUMERATION_BUDGET
                          ) -> ImageOfKernelReport:
    """Check Bu in im(A) for maximal-rank A, kernel vectors u, basis B.

    Every maximal-rank element A of the span is examined (checking kernel
    basis vectors of A against span basis matrices B suffices, since the
    containment is linear in both u and B).  With sample given, a seeded
    pseudo-random subset of that many maximal-rank elements is examined
    instead; the subset is processed in enumeration order, so reports stay
    deterministic for a fixed seed.

    Without a sample, one element per scalar class is reduced: the
    representative A whose leading coefficient is 1.  For a nonzero
    scalar c, rref_batch scales every pivot to 1, so cA has the reduced
    echelon form of A and _kernel_batch returns the same kernel basis K
    and left kernel basis L for both; hence (cA, u_t, B_j) violates
    exactly when (A, u_t, B_j) does, with u_t column t of K.  Each
    violating triple of A is reported for all q - 1 multiples cA, whose
    span index has the digits of A's index each multiplied by c, and
    the triples are sorted by (element index, t, j): the order in which
    a walk over every element would find them.  Over GF(2) the only
    multiple is A itself.
    """
    if S.m != S.n:
        raise ShapeViolation(
            f"the image containment check needs a square span, "
            f"got {S.m}x{S.n}"
        )
    if sample is not None and sample < 1:
        raise UsageError(f"sample must be at least 1, got {sample}")
    return _image_of_kernel(S, rank_profile(S, budget=budget), sample, seed)


def _image_of_kernel(S: SubspaceBasis, profile: RankProfile,
                     sample: int | None, seed: int) -> ImageOfKernelReport:
    """check_image_of_kernel on a validated square span with its rank
    profile."""
    F = S.field
    q, n, d = F.q, S.n, S.d
    counts = profile.counts
    max_rank = max(s for s, c in enumerate(counts) if c)
    max_count = counts[max_rank]

    sampled = sample is not None and sample < max_count
    if sampled:
        import random as _random

        chosen = np.array(_random.Random(seed).sample(range(max_count), sample))
        # ordinals count maximal-rank elements, so walk every element
        ranges, multipliers = [(1, q ** d)], np.array([1])
    else:
        chosen = None
        ranges, multipliers = _class_ranges(q, d), np.arange(1, q)

    if max_count == q ** d - 1:
        # every element has the maximal rank: select without ranking again
        selection = ((block, np.arange(len(block)))
                     for block in _span_blocks(S, ranges))
    else:
        selection = ((block, np.flatnonzero(ranks == max_rank))
                     for block, ranks in _ranked_blocks(S, ranges))

    ar = F.arrays
    basis = _basis_codes(S)
    powers = q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    found: list[tuple[int, int, int, MatGF, MatGF, MatGF]] = []
    elements_checked = 0
    walked = 0
    seen = 0
    for block, hit in selection:
        start, walked = walked, walked + len(block)
        if chosen is not None:
            ordinals = np.arange(seen, seen + len(hit))
            seen += len(hit)
            hit = hit[np.isin(ordinals, chosen)]
        elements_checked += len(hit) * len(multipliers)
        if max_rank == n or not len(hit):
            continue
        A = block[hit]
        K = _kernel_batch(F, A)
        # the columns of L span the left kernel of A, so Bu lies in im(A)
        # exactly when L^T B u = 0; bad[e, t, j] flags (A_e, u_t, B_j)
        L = _kernel_batch(F, A.transpose(0, 2, 1))
        LBK = _field_matmul(ar, L.transpose(0, 2, 1)[:, None],
                            _field_matmul(ar, basis[None], K[:, None]))
        bad = (LBK != 0).any(axis=2).transpose(0, 2, 1)
        for e in np.flatnonzero(bad.any(axis=(1, 2))).tolist():
            # the multiples c * A_e: their indices and their entries
            x = _walk_index(ranges, start + int(hit[e]))
            digits = _code_digits(np.array([x]), q, d)
            indices = (ar.mul(multipliers[:, None], digits) @ powers).tolist()
            scaled = [_matrix_of(S, cA)
                      for cA in ar.mul(multipliers[:, None, None], A[e])]
            for t, j in np.argwhere(bad[e]).tolist():
                u = MatGF(F, n, 1, K[e, :, t].tolist())
                found.extend((index, t, j, cA, u, S.basis[j])
                             for index, cA in zip(indices, scaled))
    found.sort(key=lambda v: v[:3])
    return ImageOfKernelReport(
        max_rank=max_rank,
        elements_checked=elements_checked,
        triples_checked=elements_checked * (n - max_rank) * d,
        sampled=sampled,
        violations=tuple(v[3:] for v in found),
    )


def _walk_index(ranges: list[tuple[int, int]], position: int) -> int:
    """Span index of the element at a position of a walk over ranges."""
    for lo, hi in ranges:
        if position < hi - lo:
            break
        position -= hi - lo
    return lo + position


# ---------------------------------------------------------------------------
# kernel-slice dimension bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelBoundReport:
    """Slice-dimension minimum against the n + 1 - r bound.

    The bound is only claimed when the span dimension is n + 1 and the
    field has at least r + 1 elements; min_r_u and holds are reported
    regardless so out-of-hypothesis behavior stays visible.
    """

    q: int
    n: int
    r: int
    d: int
    applicable: bool
    bound: int
    min_r_u: int
    min_u: MatGF
    holds: bool


def check_kernel_bound(S: SubspaceBasis, *,
                       budget: int = DEFAULT_ENUMERATION_BUDGET
                       ) -> KernelBoundReport:
    """Minimum slice dimension over all nonzero u, versus n + 1 - r.

    The budget bounds both the q^d span elements and the q^n vectors.
    """
    if S.m != S.n:
        raise ShapeViolation(
            f"the kernel bound check needs a square span, got {S.m}x{S.n}"
        )
    return _kernel_bound(S, rank_profile(S, budget=budget), budget)


def _kernel_bound(S: SubspaceBasis, profile: RankProfile,
                  budget: int) -> KernelBoundReport:
    """check_kernel_bound on a square span with its rank profile."""
    F = S.field
    r = _constant_rank(profile)
    q, n, d = F.q, S.n, S.d
    bound = n + 1 - r
    min_r_u = d + 1
    for U, r_u in _slice_dims(S, budget):
        k = int(r_u.argmin())
        if r_u[k] < min_r_u:
            min_r_u, min_u = int(r_u[k]), U[k].tolist()
    return KernelBoundReport(
        q=q,
        n=n,
        r=r,
        d=d,
        applicable=(d == n + 1) and (q >= r + 1),
        bound=bound,
        min_r_u=min_r_u,
        min_u=MatGF.column(F, min_u),
        holds=min_r_u >= bound,
    )


# ---------------------------------------------------------------------------
# the pair-counting identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountingReport:
    """Both evaluations of the annihilating-pair count, plus the q-adic
    comparison that rules out span dimension n + 1.

    omega counts pairs (A, u) with A a nonzero span element, u a nonzero
    vector, and Au = 0.  By matrices: each of the q^d - 1 elements has
    rank r, hence q^(n-r) - 1 nonzero kernel vectors.  By vectors: each
    nonzero u is annihilated by the q^(r_u) - 1 nonzero elements of its
    slice.  The two must agree exactly.

    When d = n + 1, moving the vector-side lower bound to one side leaves
    the integer q^(2n+1-r) - q^(n-r) - q^(n+1) + q^n, whose q-adic
    valuation is n - r; every vector-side term would be divisible by
    q^(n+1-r) if each r_u met the n + 1 - r bound.  contradiction records
    whether that divisibility conflict actually materializes on this span.
    """

    q: int
    n: int
    r: int
    d: int
    omega_by_elements: int
    omega_by_vectors: int
    lhs_valuation: int | None
    rhs_min_exponent: int
    contradiction: bool


def counting_report(S: SubspaceBasis, *,
                    budget: int = DEFAULT_ENUMERATION_BUDGET
                    ) -> CountingReport:
    """Evaluate the annihilating-pair count both ways on a constant-rank
    square span; unequal counts indicate a defect in this package and
    raise InternalVerificationFailed.  The budget bounds both the q^d
    span elements and the q^n vectors."""
    if S.m != S.n:
        raise ShapeViolation(
            f"the counting identity needs a square span, got {S.m}x{S.n}"
        )
    F = S.field
    r = _constant_rank(rank_profile(S, budget=budget))
    q, n, d = F.q, S.n, S.d
    omega_by_elements = (q ** d - 1) * (q ** (n - r) - 1)
    tally = np.zeros(d + 1, dtype=np.int64)
    for _, r_u in _slice_dims(S, budget):
        tally += np.bincount(r_u, minlength=d + 1)
    vectors_by_r_u = tally.tolist()
    omega_by_vectors = sum((q - 1) * (q ** ru - 1) * count
                           for ru, count in enumerate(vectors_by_r_u))
    min_r_u = next(ru for ru, count in enumerate(vectors_by_r_u) if count)
    if omega_by_elements != omega_by_vectors:
        raise InternalVerificationFailed(
            f"pair count mismatch: by elements {omega_by_elements}, "
            f"by vectors {omega_by_vectors}"
        )
    if d == n + 1:
        lhs = q ** (2 * n + 1 - r) - q ** (n - r) - q ** (n + 1) + q ** n
        lhs_valuation: int | None = qadic_valuation(q, lhs)
        contradiction = min_r_u >= n + 1 - r
    else:
        lhs_valuation = None
        contradiction = False
    return CountingReport(
        q=q,
        n=n,
        r=r,
        d=d,
        omega_by_elements=omega_by_elements,
        omega_by_vectors=omega_by_vectors,
        lhs_valuation=lhs_valuation,
        rhs_min_exponent=min_r_u,
        contradiction=contradiction,
    )


def qadic_valuation(q: int, value: int) -> int:
    """Largest k such that q^k divides value (exact integer arithmetic)."""
    if q < 2:
        raise UsageError(f"valuation base must be at least 2, got {q}")
    if value == 0:
        raise UsageError("the valuation of zero is undefined")
    v = abs(value)
    k = 0
    while v % q == 0:
        v //= q
        k += 1
    return k


# ---------------------------------------------------------------------------
# dimension bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralBoundReport:
    """Span dimension against the m + n - r bound.

    Truthiness is the bound itself; within_n and field_large_enough
    report the sharper d <= n statement and its field-size hypothesis.
    """

    q: int
    m: int
    n: int
    r: int
    d: int
    bound: int
    holds: bool
    within_n: bool
    field_large_enough: bool

    def __bool__(self) -> bool:
        return self.holds


def check_general_bound(S: SubspaceBasis, *,
                        budget: int = DEFAULT_ENUMERATION_BUDGET
                        ) -> GeneralBoundReport:
    """Check dim <= m + n - r for a constant-rank span of any shape."""
    F = S.field
    r = _constant_rank(rank_profile(S, budget=budget))
    q, m, n, d = F.q, S.m, S.n, S.d
    bound = m + n - r
    return GeneralBoundReport(
        q=q,
        m=m,
        n=n,
        r=r,
        d=d,
        bound=bound,
        holds=d <= bound,
        within_n=d <= n,
        field_large_enough=q >= r + 1,
    )
