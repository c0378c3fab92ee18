"""Closed-form counts of constant-rank spaces, for checking the search and
the census on boxes where neither can check the other.

Nothing here imports constrank: the formulas are classical geometry.

- Rank 1.  A space of matrices of rank at most 1 has a common column
  space or a common row space (Atkinson and Lloyd, "Large spaces of
  matrices of bounded rank", Quart. J. Math. 31, 1980), so a
  d-dimensional constant rank 1 space of m-by-n matrices is u (x) V or
  U (x) v for a line and a d-space of the other side.
- 2x2, rank 2, dimension 2.  Such a space is a line of PG(3, q) that
  misses the hyperbolic quadric det = 0; there are q^2 (q - 1)^2 / 2 of
  them (Hirschfeld, Finite Projective Spaces of Three Dimensions, 1985).
"""

from __future__ import annotations


def gaussian_binomial(q: int, N: int, k: int) -> int:
    """[N k]_q, the number of k-dimensional subspaces of GF(q)^N."""
    if not 0 <= k <= N:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (N - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def rank_one_count(q: int, m: int, n: int, d: int) -> int:
    """Number of d-dimensional spaces of m-by-n matrices over GF(q) whose
    nonzero elements all have rank 1."""
    if d == 1:
        return gaussian_binomial(q, m, 1) * gaussian_binomial(q, n, 1)
    return (gaussian_binomial(q, m, 1) * gaussian_binomial(q, n, d)
            + gaussian_binomial(q, n, 1) * gaussian_binomial(q, m, d))


def invertible_plane_count(q: int) -> int:
    """Number of 2-dimensional spaces of 2-by-2 matrices over GF(q) whose
    nonzero elements are all invertible."""
    return q ** 2 * (q - 1) ** 2 // 2
