"""Deliberately plain linear algebra over a FieldSpec, for the oracles.

Everything here goes through the field's scalar methods (add, sub, mul,
inv) and plain lists, so it shares no elimination, enumeration, table or
bit-packing code with the paths the benchmark times.  It is slow on
purpose and only ever runs outside the timed phase.
"""

from __future__ import annotations

import itertools
from typing import Sequence


def rank(F, rows: Sequence[Sequence[int]]) -> int:
    """Rank of a list of equal-length rows by textbook Gauss-Jordan."""
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0
    rk = 0
    for c in range(width):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = F.inv(rows[rk][c])
        rows[rk] = [F.mul(inv, x) for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(a, F.mul(f, b))
                           for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def matrix_rank(F, entries: Sequence[int], m: int, n: int) -> int:
    return rank(F, [entries[i * n:(i + 1) * n] for i in range(m)])


def combine(F, coeffs: Sequence[int],
            basis: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """sum_i coeffs[i] * basis[i], entry by entry."""
    out = [0] * len(basis[0])
    for c, b in zip(coeffs, basis):
        if c:
            out = [F.add(x, F.mul(c, y)) for x, y in zip(out, b)]
    return tuple(out)


def coordinates(F, basis: Sequence[Sequence[int]],
                target: Sequence[int]) -> list[int] | None:
    """Coefficients c with sum_i c[i] * basis[i] == target, or None when
    target is outside the span.  The basis must be linearly independent."""
    d, width = len(basis), len(basis[0])
    echelon: list[tuple[int, list[int]]] = []
    for i, b in enumerate(basis):
        row = list(b) + [1 if k == i else 0 for k in range(d)]
        row = _reduce(F, row, echelon)
        pc = next(c for c in range(width) if row[c])
        inv = F.inv(row[pc])
        echelon.append((pc, [F.mul(inv, x) for x in row]))
    w = _reduce(F, list(target) + [0] * d, echelon)
    if any(w[:width]):
        return None
    return [F.neg(x) for x in w[width:]]


def _reduce(F, row: list[int], echelon) -> list[int]:
    for pc, er in echelon:
        f = row[pc]
        if f:
            row = [F.sub(a, F.mul(f, b)) for a, b in zip(row, er)]
    return row


def lex_index(q: int, coeffs: Sequence[int]) -> int:
    """Position of a coefficient vector in the span's enumeration order
    (lexicographic, last coefficient fastest, zero element at 0)."""
    idx = 0
    for c in coeffs:
        idx = idx * q + c
    return idx


def coefficient_vectors(q: int, d: int, stop: int):
    """The first `stop` coefficient vectors in enumeration order."""
    return itertools.islice(itertools.product(range(q), repeat=d), stop)


def gaussian_binomial(q: int, N: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^N."""
    if not 0 <= k <= N:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (N - i) - 1
        den *= q ** (i + 1) - 1
    return num // den
