"""Spans of matrices: basis handling, element enumeration, rank statistics.

A SubspaceBasis holds linearly independent matrices of one shape over one
field.  Enumeration walks coefficient vectors in lexicographic order, so the
first witness returned by is_constant_rank is the same on every run.

Ranks are taken one element per scalar class: rank(cA) = rank(A) for every
non-zero scalar c, so the rank walks visit only the (q^d - 1)/(q - 1)
elements whose leading (first non-zero) coefficient is 1, in coefficient
lexicographic order, and rank_profile multiplies their counts by q - 1.
The first offender c found this way is also the first one among all
elements: c divided by its leading coefficient lies in the same class, so
it offends too, and it is not after c in lexicographic order; being the
first, c equals it and already leads with 1.  Budgets still count all q^d
elements.

Every field takes this one walk.  The representatives are built in blocks
of codes; a GF(2) block whose matrices have at most 16 entries is ranked
by looking up their bit words in a rank table, any other block by the
batched elimination rank_batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    EmptyInput,
    ParseError,
    ShapeMismatch,
    UsageError,
    ZeroSpan,
)
from .field import FieldArrays, FieldSpec, parse_field_descriptor
from .matrix import (
    MatGF,
    _parse_int,
    _parse_matrix_block,
    _rank_rows,
    _rank_table,
    _tokens_with_cols,
    rank_batch,
    rref_batch,
)

__all__ = [
    "DEFAULT_ENUMERATION_BUDGET",
    "RankProfile",
    "SubspaceBasis",
    "enumerate_elements",
    "is_constant_rank",
    "make_subspace",
    "parse_subspace",
    "rank_profile",
]

DEFAULT_ENUMERATION_BUDGET = 1 << 28


class SubspaceBasis:
    """Ordered basis of a subspace of m-by-n matrices."""

    __slots__ = ("field", "m", "n", "basis")

    def __init__(self, basis: Sequence[MatGF]):
        basis = tuple(basis)
        if not basis:
            raise EmptyInput("a subspace basis needs at least one matrix")
        first = basis[0]
        for B in basis[1:]:
            if B.field != first.field:
                raise ShapeMismatch("basis matrices live over different fields")
            if B.m != first.m or B.n != first.n:
                raise ShapeMismatch(
                    f"basis matrices have mixed shapes: {first.m}x{first.n} "
                    f"vs {B.m}x{B.n}"
                )
        rows = [list(B.entries) for B in basis]
        if _rank_rows(first.field, rows) != len(basis):
            raise UsageError("basis matrices are linearly dependent")
        self.field = first.field
        self.m = first.m
        self.n = first.n
        self.basis = basis

    @property
    def d(self) -> int:
        return len(self.basis)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        return self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return (f"<SubspaceBasis dim={self.d} of {self.m}x{self.n} "
                f"over {self.field.descriptor}>")

    def pad_rows(self, total_rows: int) -> "SubspaceBasis":
        return SubspaceBasis([B.pad_rows(total_rows) for B in self.basis])

    def pad_to_square(self) -> "SubspaceBasis":
        return SubspaceBasis([B.pad_to_square() for B in self.basis])

    def to_text(self) -> str:
        """Render as text: a header line, then one block per basis matrix."""
        parts = [f"{self.d} {self.m} {self.n} {self.field.descriptor}"]
        for B in self.basis:
            parts.append("")
            parts.append(B.to_text())
        return "\n".join(parts) + "\n"


def make_subspace(mats: Sequence[MatGF]) -> SubspaceBasis:
    """Canonical basis of the span of the given matrices.

    The result is in reduced echelon form with respect to row-major entry
    order, so any two generating sets of the same span produce equal bases.
    """
    mats = list(mats)
    if not mats:
        raise EmptyInput("make_subspace needs at least one matrix")
    first = mats[0]
    for A in mats[1:]:
        if A.field != first.field:
            raise ShapeMismatch("matrices live over different fields")
        if A.m != first.m or A.n != first.n:
            raise ShapeMismatch(
                f"mixed shapes: {first.m}x{first.n} vs {A.m}x{A.n}"
            )
    R, pivot_row = rref_batch(first.field, np.array([[A.entries for A in mats]]))
    kept = pivot_row[0][pivot_row[0] >= 0]
    if not len(kept):
        raise ZeroSpan("all generating matrices are zero")
    return SubspaceBasis(
        [MatGF(first.field, first.m, first.n, R[0, i].tolist()) for i in kept]
    )


def parse_subspace(text: str) -> SubspaceBasis:
    """Parse the subspace text format; inverse of SubspaceBasis.to_text()."""
    lines = text.splitlines()
    idx = 0
    nlines = len(lines)
    while idx < nlines and not lines[idx].strip():
        idx += 1
    if idx >= nlines:
        raise ParseError("missing subspace header", nlines + 1, 1)
    header = _tokens_with_cols(lines[idx])
    header_line = idx + 1
    if len(header) < 4:
        raise ParseError("subspace header needs 'd m n GF(...)'",
                         header_line, header[-1][1] if header else 1)
    d, m, n = (_parse_int(tok, header_line, col, what) for (tok, col), what
               in zip(header, ("basis size", "row count", "column count")))
    if d < 1:
        raise ParseError(f"basis size must be at least 1, got {d}",
                         header_line, header[0][1])
    if m < 1 or n < 1:
        raise ParseError(f"matrix shape {m}x{n} must be at least 1x1",
                         header_line, header[1][1])
    desc = " ".join(t for t, _ in header[3:])
    field = parse_field_descriptor(desc, line=header_line, col=header[3][1])

    mats: list[MatGF] = []
    idx += 1
    for k in range(d):
        while idx < nlines and not lines[idx].strip():
            idx += 1
        block_line = idx + 1
        B, idx = _parse_matrix_block(lines, idx)
        if B.field != field:
            raise ParseError(
                f"matrix {k + 1} uses field {B.field.descriptor}, "
                f"subspace header says {field.descriptor}", block_line, 1)
        if B.m != m or B.n != n:
            raise ParseError(
                f"matrix {k + 1} is {B.m}x{B.n}, subspace header says "
                f"{m}x{n}", block_line, 1)
        mats.append(B)
    for k in range(idx, nlines):
        if lines[k].strip():
            raise ParseError("unexpected content after subspace", k + 1, 1)
    try:
        return SubspaceBasis(mats)
    except UsageError as exc:
        raise ParseError(str(exc), header_line, 1)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

# Span elements are ranked in blocks that start small, so an early exit
# stays cheap, and double up to a cap that bounds working memory.
_BLOCK_START = 64
_BLOCK_CAP = 2048


def _check_budget(S: SubspaceBasis, budget: int) -> None:
    total = S.field.q ** S.d
    if total > budget:
        raise BudgetExceeded(
            f"span has {total} elements, enumeration budget is {budget}"
        )


def _combinations(ar: FieldArrays, basis: list[np.ndarray], q: int, lo: int,
                  hi: int) -> np.ndarray:
    """Flat codes of the span elements with indices lo..hi-1.

    Element k has coefficient vector the base-q digits of k, first basis
    coefficient most significant, so increasing k walks the coefficient
    vectors in lexicographic order (last coefficient fastest, zero
    element at index 0).  Element k is element k // q of the span of all
    but the last basis matrix plus (k % q) times the last one, and the
    prefixes are computed once each.
    """
    k = np.arange(lo, hi)
    term = ar.mul((k % q)[:, None], basis[-1][None, :])
    if len(basis) == 1:
        return term
    head = k // q
    prefix = _combinations(ar, basis[:-1], q, head[0], head[-1] + 1)
    return ar.add(prefix[head - head[0]], term)


def _class_ranges(q: int, d: int) -> list[tuple[int, int]]:
    """Index ranges of one element per scalar class of the non-zero
    vectors of F^d: [q^j, 2q^j) for j = 0..d-1, the indices whose leading
    coefficient is 1, ascending and so in coefficient lexicographic order.
    Over GF(2) the ranges are adjacent and are joined into [1, 2^d).
    """
    if q == 2:
        return [(1, 1 << d)]
    return [(q ** j, 2 * q ** j) for j in range(d)]


def _span_blocks(S: SubspaceBasis,
                 ranges: list[tuple[int, int]]) -> Iterator[np.ndarray]:
    """Span elements whose indices run through the given ascending ranges,
    as (N, m, n) blocks of codes.

    Block sizes double over the joined ranges, so a block may end partway
    through one range and continue into the next.
    """
    F = S.field
    basis = [np.array(B.entries, dtype=np.int32) for B in S.basis]
    size = _BLOCK_START
    parts: list[np.ndarray] = []
    have = 0
    for lo, hi in ranges:
        while lo < hi:
            step = min(size - have, hi - lo)
            parts.append(_combinations(F.arrays, basis, F.q, lo, lo + step))
            have += step
            lo += step
            if have == size:
                yield np.concatenate(parts).reshape(-1, S.m, S.n)
                parts, have = [], 0
                size = min(2 * size, _BLOCK_CAP)
    if parts:
        yield np.concatenate(parts).reshape(-1, S.m, S.n)


def _matrix_of(S: SubspaceBasis, codes: np.ndarray) -> MatGF:
    return MatGF(S.field, S.m, S.n, codes.ravel().tolist())


def enumerate_elements(S: SubspaceBasis, *,
                       budget: int = DEFAULT_ENUMERATION_BUDGET
                       ) -> Iterator[MatGF]:
    """All q^d elements of the span as matrices, zero first, in coefficient
    lexicographic order.  Raises BudgetExceeded before yielding anything if
    the span is larger than budget."""
    _check_budget(S, budget)

    def gen() -> Iterator[MatGF]:
        for block in _span_blocks(S, [(0, S.field.q ** S.d)]):
            for codes in block:
                yield _matrix_of(S, codes)

    return gen()


def _ranked_blocks(S: SubspaceBasis, ranges: list[tuple[int, int]]
                   ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(codes, ranks) blocks of the span elements in ranges, in order.

    A GF(2) block with at most 16 entries per matrix is ranked by looking
    up each element's bit word in _rank_table; every other block by
    rank_batch.
    """
    F, mn = S.field, S.m * S.n
    if F.q == 2 and mn <= 16:
        table = np.frombuffer(_rank_table(F, S.m, S.n), dtype=np.uint8)
        weights = 1 << np.arange(mn - 1, -1, -1)
        for block in _span_blocks(S, ranges):
            yield block, table[block.reshape(len(block), mn) @ weights]
    else:
        for block in _span_blocks(S, ranges):
            yield block, rank_batch(F, block)


# ---------------------------------------------------------------------------
# rank statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankProfile:
    """Rank distribution over the non-zero elements of a span.

    counts[s] is the number of non-zero elements of rank s; counts[0] is
    always 0 and the counts sum to q^d - 1.
    """

    field_order: int
    dim: int
    shape: tuple[int, int]
    counts: tuple[int, ...]

    def constant_rank_of(self) -> int | None:
        """The single rank taken by every non-zero element, if there is one."""
        hit = [s for s, c in enumerate(self.counts) if c]
        return hit[0] if len(hit) == 1 else None


def rank_profile(S: SubspaceBasis, *,
                 budget: int = DEFAULT_ENUMERATION_BUDGET) -> RankProfile:
    """Count span elements by rank (the zero element is skipped)."""
    q, d, m, n = S.field.q, S.d, S.m, S.n
    _check_budget(S, budget)
    # every scalar class holds q - 1 elements of one rank
    tally = np.zeros(min(m, n) + 1, dtype=np.int64)
    for _, ranks in _ranked_blocks(S, _class_ranges(q, d)):
        tally += np.bincount(ranks, minlength=len(tally))
    return RankProfile(q, d, (m, n), tuple(c * (q - 1) for c in tally.tolist()))


def is_constant_rank(S: SubspaceBasis, r: int, *,
                     budget: int = DEFAULT_ENUMERATION_BUDGET
                     ) -> tuple[bool, MatGF | None]:
    """Whether every non-zero span element has rank exactly r.

    On failure returns the offending element that comes first in coefficient
    lexicographic order, so the witness is stable across runs.
    """
    m, n = S.m, S.n
    if not 1 <= r <= min(m, n):
        raise UsageError(f"target rank {r} outside 1..{min(m, n)}")
    _check_budget(S, budget)
    # the first offender leads with coefficient 1 (see the module
    # docstring), so it is the first offending class representative
    for block, ranks in _ranked_blocks(S, _class_ranges(S.field.q, S.d)):
        bad = ranks != r
        if bad.any():
            return False, _matrix_of(S, block[bad.argmax()])
    return True, None
