"""Independent references for the search and the census: closed-form
counts of constant-rank spaces, for boxes where neither can check the
other, and a naive canonical-chain search that checks one node at a time.

Nothing here imports constrank: the formulas are classical geometry, and
the search has its own field arithmetic and elimination.

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

import itertools


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


class Field:
    """GF(p^e) on the codes the library uses: a code is the base-p digit
    vector of a residue polynomial, constant term least significant,
    reduced by the monic modulus (coefficients constant term first; empty
    for a prime field).  The q-by-q sum and product tables are formed
    digit by digit and by the schoolbook product."""

    def __init__(self, p: int, e: int = 1, modulus=()):
        self.p, self.e, self.q = p, e, p ** e
        self.modulus = tuple(modulus)
        codes = range(self.q)
        self.sums = [[self._code(x + y for x, y in zip(self._digits(a),
                                                         self._digits(b)))
                      for b in codes] for a in codes]
        self.products = [[self._product(a, b) for b in codes] for a in codes]

    def _digits(self, a: int) -> list[int]:
        return [a // self.p ** i % self.p for i in range(self.e)]

    def _code(self, digits) -> int:
        return sum(d % self.p * self.p ** i for i, d in enumerate(digits))

    def _product(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                prod[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % p
            for t, m in enumerate(self.modulus[:e]):
                prod[k - e + t] -= c * m
        return self._code(prod[:e])

    def add(self, a: int, b: int) -> int:
        return self.sums[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.products[a][b]

    def neg(self, a: int) -> int:
        return self.sums[a].index(0)

    def inv(self, a: int) -> int:
        return self.products[a].index(1)


def rank(F: Field, rows) -> int:
    """Rank of a matrix given as rows of codes, by plain elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        s = F.inv(rows[rank][c])
        for i in range(rank + 1, len(rows)):
            f = F.mul(rows[i][c], s)
            rows[i] = [F.add(x, F.neg(F.mul(f, y)))
                       for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def search(F: Field, m: int, n: int, r: int, dim: int, budget: int,
           count_all: bool):
    """The canonical-chain search, one node at a time.

    Matrices are tuples of their row-major entries, ordered
    lexicographically.  The candidates are the rank r matrices whose first
    nonzero entry is 1.  The nodes below a chain are the candidates after
    its last element that vanish at the leading position (first nonzero
    entry) of every element of the chain.  A node is accepted when the
    node plus each element of the chain's span has rank r, checked by
    plain elimination (ranked once per matrix); an accepted node at depth
    dim completes a find.
    Counting a node beyond the budget stops the search.

    Returns (status, first witness or None, nodes, found count), with
    the status named as in the library's reports.
    """
    mn = m * n
    ranks = {entries: rank(F, [entries[i * n:(i + 1) * n] for i in range(m)])
             for entries in itertools.product(range(F.q), repeat=mn)}
    candidates = []
    for entries in ranks:   # in lexicographic order
        lead = next((t for t, x in enumerate(entries) if x), None)
        if lead is not None and entries[lead] == 1 and ranks[entries] == r:
            candidates.append((entries, lead))
    state = {"nodes": 0, "found": 0, "witness": None, "budget_hit": False}

    def combine(u, v, c):
        return tuple(F.add(x, F.mul(c, y)) for x, y in zip(u, v))

    def extend(chain, span, leads, start):
        for k in range(start, len(candidates)):
            X, lead = candidates[k]
            if any(X[t] for t in leads):
                continue
            if state["nodes"] == budget:
                state["budget_hit"] = True
                return True
            state["nodes"] += 1
            if any(ranks[combine(s, X, 1)] != r for s in span):
                continue
            if len(chain) + 1 == dim:
                state["found"] += 1
                if state["witness"] is None:
                    state["witness"] = chain + [X]
                if not count_all:
                    return True
                continue
            bigger = [combine(s, X, c) for s in span for c in range(F.q)]
            if extend(chain + [X], bigger, leads | {lead}, k + 1):
                return True
        return False

    extend([], [(0,) * mn], frozenset(), 0)
    if state["budget_hit"] and (count_all or state["witness"] is None):
        status = "budget-exceeded"
    elif state["witness"] is not None:
        status = "found"
    else:
        status = "exhausted-none"
    return status, state["witness"], state["nodes"], state["found"]
