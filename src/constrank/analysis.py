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
per scalar class, since dim K_u is unchanged by scaling u.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalVerificationFailed,
    NotConstantRank,
    ShapeViolation,
    ZeroVector,
)
from .field import FieldSpec
from .matrix import MatGF, _rank_rows, _reduce_vector, _rref_rows
from .subspace import (
    DEFAULT_ENUMERATION_BUDGET,
    SubspaceBasis,
    _check_budget,
    _matrix_of,
    _ranked_blocks,
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
    cols = [_matvec(F, B.entries, n, n, u.entries) for B in S.basis]
    flat = [cols[j][i] for i in range(n) for j in range(d)]
    W = MatGF(F, n, d, flat)
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


def _matvec(field: FieldSpec, entries: tuple[int, ...], m: int, n: int,
            u: tuple[int, ...]) -> list[int]:
    """Product of an m-by-n entry tuple with a length-n vector."""
    q = field.q
    mf = field._mul_flat
    out = []
    if mf is not None:
        af = field._add_flat
        for i in range(m):
            base = i * n
            acc = 0
            for t in range(n):
                x = entries[base + t]
                if x and u[t]:
                    acc = af[acc * q + mf[x * q + u[t]]]
            out.append(acc)
    else:
        for i in range(m):
            base = i * n
            acc = 0
            for t in range(n):
                x = entries[base + t]
                if x and u[t]:
                    acc = field.add(acc, field.mul(x, u[t]))
            out.append(acc)
    return out


def _slice_dim(S: SubspaceBasis, u: tuple[int, ...]) -> int:
    """dim {A in span : Au = 0}, without materializing a basis."""
    F = S.field
    n, d = S.n, S.d
    rows = [[0] * d for _ in range(n)]
    for j, B in enumerate(S.basis):
        col = _matvec(F, B.entries, n, n, u)
        for i in range(n):
            rows[i][j] = col[i]
    return d - _rank_rows(F, rows)


def _projective_vectors(field: FieldSpec, n: int):
    """One representative per scalar class of nonzero vectors in F^n.

    Each representative has first nonzero entry 1, which makes it the
    lexicographically least member of its class; the stream itself is
    lexicographically increasing.
    """
    q = field.q
    for lead in range(n - 1, -1, -1):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(q), repeat=n - 1 - lead):
            yield prefix + tail


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
    """
    if S.m != S.n:
        raise ShapeViolation(
            f"the image containment check needs a square span, "
            f"got {S.m}x{S.n}"
        )
    F = S.field
    n = S.n
    _check_budget(S, budget)

    max_rank = 0
    max_count = 0
    for _, ranks in _ranked_blocks(S):
        top = int(ranks.max())
        if top > max_rank:
            max_rank, max_count = top, 0
        if top == max_rank:
            max_count += int(np.count_nonzero(ranks == top))

    sampled = sample is not None and sample < max_count
    if sampled:
        import random as _random

        chosen = np.array(_random.Random(seed).sample(range(max_count), sample))
    else:
        chosen = None

    violations: list[tuple[MatGF, MatGF, MatGF]] = []
    elements_checked = 0
    triples_checked = 0
    seen = 0
    for block, ranks in _ranked_blocks(S):
        hit = np.flatnonzero(ranks == max_rank)
        if chosen is not None:
            ordinals = np.arange(seen, seen + len(hit))
            seen += len(hit)
            hit = hit[np.isin(ordinals, chosen)]
        for pos in hit:
            A = _matrix_of(S, block[pos])
            kernel = A.kernel_basis()
            if not kernel:
                elements_checked += 1
                continue
            image_rows = A.transpose().rows_as_lists()
            image_pivots = _rref_rows(F, image_rows)
            for u in kernel:
                for B in S.basis:
                    w = _matvec(F, B.entries, n, n, u.entries)
                    _reduce_vector(F, w, image_rows, image_pivots)
                    triples_checked += 1
                    if any(w):
                        violations.append((A, u, B))
            elements_checked += 1
    return ImageOfKernelReport(
        max_rank=max_rank,
        elements_checked=elements_checked,
        triples_checked=triples_checked,
        sampled=sampled,
        violations=tuple(violations),
    )


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
    """Minimum slice dimension over all nonzero u, versus n + 1 - r."""
    if S.m != S.n:
        raise ShapeViolation(
            f"the kernel bound check needs a square span, got {S.m}x{S.n}"
        )
    F = S.field
    profile = rank_profile(S, budget=budget)
    r = profile.constant_rank_of()
    if r is None:
        raise NotConstantRank(
            f"span is not constant rank (rank counts {profile.counts})"
        )
    q, n, d = F.q, S.n, S.d
    bound = n + 1 - r
    min_r_u = d + 1
    min_u: tuple[int, ...] | None = None
    for u in _projective_vectors(F, n):
        ru = _slice_dim(S, u)
        if ru < min_r_u:
            min_r_u = ru
            min_u = u
    assert min_u is not None
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
    raise InternalVerificationFailed."""
    if S.m != S.n:
        raise ShapeViolation(
            f"the counting identity needs a square span, got {S.m}x{S.n}"
        )
    F = S.field
    profile = rank_profile(S, budget=budget)
    r = profile.constant_rank_of()
    if r is None:
        raise NotConstantRank(
            f"span is not constant rank (rank counts {profile.counts})"
        )
    q, n, d = F.q, S.n, S.d
    omega_by_elements = (q ** d - 1) * (q ** (n - r) - 1)
    omega_by_vectors = 0
    min_r_u = d + 1
    for u in _projective_vectors(F, n):
        ru = _slice_dim(S, u)
        omega_by_vectors += (q - 1) * (q ** ru - 1)
        if ru < min_r_u:
            min_r_u = ru
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
        raise ValueError(f"valuation base must be at least 2, got {q}")
    if value == 0:
        raise ValueError("the valuation of zero is undefined")
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
    profile = rank_profile(S, budget=budget)
    r = profile.constant_rank_of()
    if r is None:
        raise NotConstantRank(
            f"span is not constant rank (rank counts {profile.counts})"
        )
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
