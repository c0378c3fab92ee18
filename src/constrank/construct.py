"""Constructions meeting the dimension-n bound with equality.

The base object is the multiplication representation of a degree-n field
extension: every nonzero element of the extension acts invertibly, so its
matrices form an n-dimensional span of constant rank n.  Keeping the top
r rows of each matrix and padding with zero rows drops the rank to
exactly r (rows of an invertible matrix stay independent) while keeping
the dimension at n.  Both builders enumerate their whole span before
returning and refuse to hand back anything unverified.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InternalVerificationFailed, OrderTooLarge, ShapeViolation
from .field import FieldSpec, _poly_mod, _smallest_irreducible
from .matrix import MatGF
from .subspace import SubspaceBasis, is_constant_rank

__all__ = ["regular_representation", "truncated_construction"]

_SPAN_CAP = 1 << 24


@lru_cache(maxsize=64)
def _regular_matrices(field: FieldSpec, n: int) -> tuple[MatGF, ...]:
    """Multiplication matrices of 1, x, ..., x^(n-1) on F[x]/(modulus).

    The modulus is the smallest irreducible monic polynomial of degree n
    over the field (same tie-break as the field's own default modulus),
    and the basis is the power basis, so output is deterministic.  Column
    j of the i-th matrix holds the coordinates of x^(i+j) mod modulus.
    """
    modulus = _smallest_irreducible(field, n)
    powers: list[list[int]] = [[1]]
    for _ in range(2 * n - 2):
        shifted = [0] + powers[-1]
        powers.append(_poly_mod(field, shifted, modulus))
    mats = []
    for i in range(n):
        entries = [0] * (n * n)
        for j in range(n):
            coeffs = powers[i + j]
            for t, c in enumerate(coeffs):
                entries[t * n + j] = c
        mats.append(MatGF(field, n, n, entries))
    return tuple(mats)


def regular_representation(F: FieldSpec, n: int) -> SubspaceBasis:
    """The n-dimensional span of multiplication matrices; constant rank n."""
    if n < 1:
        raise ShapeViolation(f"representation degree must be positive, got {n}")
    return truncated_construction(F, n, n, n)


def truncated_construction(F: FieldSpec, m: int, n: int, r: int
                           ) -> SubspaceBasis:
    """Constant rank r span of m-by-n matrices with dimension exactly n.

    Requires 1 <= r <= m <= n.  Each basis matrix is the top r rows of a
    multiplication matrix followed by m - r zero rows.
    """
    if not 1 <= r <= m <= n:
        raise ShapeViolation(
            f"need 1 <= r <= m <= n, got r={r}, m={m}, n={n}"
        )
    if F.q ** n > _SPAN_CAP:
        raise OrderTooLarge(
            f"extension of order {F.q}^{n} exceeds the cap {_SPAN_CAP}"
        )
    mats = []
    for M in _regular_matrices(F, n):
        top = M.entries[: r * n]
        mats.append(MatGF(F, m, n, top + (0,) * ((m - r) * n)))
    S = SubspaceBasis(mats)
    ok, witness = is_constant_rank(S, r)
    if not ok:
        raise InternalVerificationFailed(
            f"truncated span is not constant rank {r}: offending element "
            f"{witness!r}"
        )
    return S
