"""Exhaustive search for constant-rank spans, plus a brute-force oracle.

The search extends partial chains (B_1, ..., B_k) depth first.  A chain
step is accepted only when the new matrix is the canonical generator of
the enlarged span: it must vanish at the leading positions of the chain
so far, have first nonzero entry 1, and come lexicographically after its
predecessor.  Those three conditions make B_k the least element of
span(B_1..B_k) \\ span(B_1..B_{k-1}), so every subspace is produced by
exactly one chain and an exhausted tree is a proof of non-existence.
Rank checking is incremental: only the elements new to the enlarged span
are examined, and scalar invariance of rank cuts that to the single
coset B_k + span.

brute_force_census enumerates ALL subspaces of a given dimension via
reduced-echelon representatives and counts the constant-rank ones; it is
deliberately independent of the pruned search so the two can check each
other.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BudgetExceeded,
    InternalVerificationFailed,
    ShapeViolation,
    UsageError,
)
from .field import FieldSpec
from .matrix import MatGF, _gf2_rank_table, _rank_rows, _rank_words_gf2, _unpack_words
from .subspace import SubspaceBasis, is_constant_rank

__all__ = [
    "DEFAULT_CENSUS_BUDGET",
    "DEFAULT_NODE_BUDGET",
    "SearchOutcome",
    "SearchStatus",
    "brute_force_census",
    "gaussian_binomial",
    "search_constant_rank",
]

DEFAULT_NODE_BUDGET = 10 ** 9
DEFAULT_CENSUS_BUDGET = 10 ** 7
POOL_CAP = 1 << 22


class SearchStatus(str, Enum):
    FOUND = "found"
    EXHAUSTED_NONE = "exhausted-none"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search run.

    nodes_explored counts extension attempts (candidates that reached the
    incremental rank check); with count_all the tree is traversed fully
    and found_count totals the distinct subspaces hit.
    """

    status: SearchStatus
    witness: SubspaceBasis | None
    nodes_explored: int
    elapsed: float
    found_count: int


class _FoundEarly(Exception):
    pass


class _BudgetHit(Exception):
    pass


# ---------------------------------------------------------------------------
# candidate pools
# ---------------------------------------------------------------------------

def _projective_matrices(field: FieldSpec, m: int, n: int):
    """Flat entry tuples, one per scalar class of nonzero m-by-n matrices,
    lexicographically ascending; first nonzero entry is always 1."""
    q = field.q
    mn = m * n
    for lead in range(mn - 1, -1, -1):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(q), repeat=mn - 1 - lead):
            yield prefix + tail


def _build_pool(field: FieldSpec, m: int, n: int, r: int):
    """All rank-r scalar-class representatives, sorted ascending.

    GF(2) pools hold packed integer codes, generic pools entry tuples.
    """
    q = field.q
    mn = m * n
    if q == 2:
        if mn <= 16:
            table = _gf2_rank_table(m, n)
            return [c for c in range(1, 1 << mn) if table[c] == r]
        return [
            c for c in range(1, 1 << mn)
            if _rank_words_gf2(_unpack_words(c, m, n)) == r
        ]
    pool = []
    for X in _projective_matrices(field, m, n):
        rows = [list(X[i * n: (i + 1) * n]) for i in range(m)]
        if _rank_rows(field, rows) == r:
            pool.append(X)
    return pool


# ---------------------------------------------------------------------------
# depth-first engines
# ---------------------------------------------------------------------------

class _EngineGF2:
    """Search over packed GF(2) codes; column 0 of row 0 is the top bit,
    so integer order on codes is entry-lexicographic order."""

    def __init__(self, field, m, n, r, target_dim, pool, budget, count_all):
        self.field = field
        self.m = m
        self.n = n
        self.mn = m * n
        self.r = r
        self.target_dim = target_dim
        self.pool = pool
        self.budget = budget
        self.count_all = count_all
        self.table = _gf2_rank_table(m, n) if self.mn <= 16 else None
        self.nodes = 0
        self.found_count = 0
        self.witness: list[int] | None = None
        self.chain: list[int] = []
        self.span: list[int] = []
        self.pivot_mask = 0

    def run(self, lo: int, hi: int) -> bool:
        try:
            if self.pool is None:
                self._extend_stream(0, 0)
            else:
                self._extend_pool(0, lo, hi)
        except _FoundEarly:
            return False
        except _BudgetHit:
            return True
        return False

    def _rank_code(self, code: int) -> int:
        if self.table is not None:
            return self.table[code]
        return _rank_words_gf2(_unpack_words(code, self.m, self.n))

    def _try_extend(self, depth: int, X: int) -> bool:
        """Budget accounting plus the incremental closure check."""
        if self.nodes >= self.budget:
            raise _BudgetHit
        self.nodes += 1
        r = self.r
        table = self.table
        if table is not None:
            for s in self.span:
                if table[X ^ s] != r:
                    return False
        else:
            for s in self.span:
                if self._rank_code(X ^ s) != r:
                    return False
        return True

    def _enter(self, X: int) -> tuple[list[int], int]:
        saved = (self.span, self.pivot_mask)
        self.chain.append(X)
        self.span = self.span + [X] + [X ^ s for s in self.span]
        self.pivot_mask |= 1 << (X.bit_length() - 1)
        return saved

    def _leave(self, saved) -> None:
        self.chain.pop()
        self.span, self.pivot_mask = saved

    def _record(self, X: int) -> None:
        self.chain.append(X)
        self.found_count += 1
        if self.witness is None:
            self.witness = list(self.chain)
        self.chain.pop()
        if not self.count_all:
            raise _FoundEarly

    def _extend_pool(self, depth: int, lo: int, hi: int) -> None:
        pool = self.pool
        last = self.target_dim - 1
        for i in range(lo, hi):
            X = pool[i]
            if X & self.pivot_mask:
                continue
            if not self._try_extend(depth, X):
                continue
            if depth == last:
                self._record(X)
                continue
            saved = self._enter(X)
            self._extend_pool(depth + 1, i + 1, len(pool))
            self._leave(saved)

    def _extend_stream(self, depth: int, after: int) -> None:
        last = self.target_dim - 1
        for X in range(after + 1, 1 << self.mn):
            if X & self.pivot_mask:
                continue
            if self._rank_code(X) != self.r:
                continue
            if not self._try_extend(depth, X):
                continue
            if depth == last:
                self._record(X)
                continue
            saved = self._enter(X)
            self._extend_stream(depth + 1, X)
            self._leave(saved)

    def chain_entries(self, chain: list[int]) -> list[tuple[int, ...]]:
        mn = self.mn
        return [
            tuple((code >> (mn - 1 - t)) & 1 for t in range(mn))
            for code in chain
        ]


class _EngineGeneric:
    """Search over flat entry tuples with table arithmetic."""

    def __init__(self, field, m, n, r, target_dim, pool, budget, count_all):
        self.field = field
        self.m = m
        self.n = n
        self.r = r
        self.target_dim = target_dim
        self.pool = pool
        self.budget = budget
        self.count_all = count_all
        self.nodes = 0
        self.found_count = 0
        self.witness: list[tuple[int, ...]] | None = None
        self.chain: list[tuple[int, ...]] = []
        self.span: list[tuple[int, ...]] = []
        self.pivots: list[int] = []

    def run(self, lo: int, hi: int) -> bool:
        try:
            if self.pool is None:
                self._extend_stream(0, None)
            else:
                self._extend_pool(0, lo, hi)
        except _FoundEarly:
            return False
        except _BudgetHit:
            return True
        return False

    def _add(self, a, b):
        F = self.field
        af = F._add_flat
        if af is not None:
            q = F.q
            return tuple(af[x * q + y] for x, y in zip(a, b))
        return tuple(F.add(x, y) for x, y in zip(a, b))

    def _scale(self, c, a):
        F = self.field
        mf = F._mul_flat
        if mf is not None:
            cq = c * F.q
            return tuple(mf[cq + x] for x in a)
        return tuple(F.mul(c, x) for x in a)

    def _rank_of(self, X) -> int:
        n = self.n
        rows = [list(X[i * n: (i + 1) * n]) for i in range(self.m)]
        return _rank_rows(self.field, rows)

    def _try_extend(self, depth: int, X) -> bool:
        if self.nodes >= self.budget:
            raise _BudgetHit
        self.nodes += 1
        r = self.r
        for s in self.span:
            if self._rank_of(self._add(X, s)) != r:
                return False
        return True

    def _enter(self, X):
        saved = (self.span, self.pivots)
        self.chain.append(X)
        new_span = list(self.span)
        for c in range(1, self.field.q):
            Xc = self._scale(c, X) if c != 1 else X
            new_span.append(Xc)
            for s in saved[0]:
                new_span.append(self._add(Xc, s))
        self.span = new_span
        lead = next(t for t, x in enumerate(X) if x)
        self.pivots = self.pivots + [lead]
        return saved

    def _leave(self, saved) -> None:
        self.chain.pop()
        self.span, self.pivots = saved

    def _record(self, X) -> None:
        self.chain.append(X)
        self.found_count += 1
        if self.witness is None:
            self.witness = list(self.chain)
        self.chain.pop()
        if not self.count_all:
            raise _FoundEarly

    def _vanishes_on_pivots(self, X) -> bool:
        for p in self.pivots:
            if X[p]:
                return False
        return True

    def _extend_pool(self, depth: int, lo: int, hi: int) -> None:
        pool = self.pool
        last = self.target_dim - 1
        for i in range(lo, hi):
            X = pool[i]
            if not self._vanishes_on_pivots(X):
                continue
            if not self._try_extend(depth, X):
                continue
            if depth == last:
                self._record(X)
                continue
            saved = self._enter(X)
            self._extend_pool(depth + 1, i + 1, len(pool))
            self._leave(saved)

    def _extend_stream(self, depth: int, after) -> None:
        last = self.target_dim - 1
        for X in _projective_matrices(self.field, self.m, self.n):
            if after is not None and X <= after:
                continue
            if not self._vanishes_on_pivots(X):
                continue
            if self._rank_of(X) != self.r:
                continue
            if not self._try_extend(depth, X):
                continue
            if depth == last:
                self._record(X)
                continue
            saved = self._enter(X)
            self._extend_stream(depth + 1, X)
            self._leave(saved)

    def chain_entries(self, chain) -> list[tuple[int, ...]]:
        return list(chain)


def _make_engine(field, m, n, r, target_dim, pool, budget, count_all):
    cls = _EngineGF2 if field.q == 2 else _EngineGeneric
    return cls(field, m, n, r, target_dim, pool, budget, count_all)


@dataclass
class _ChunkResult:
    witness_chain: list | None
    nodes: int
    found_count: int
    budget_hit: bool


def _search_chunk(field, m, n, r, target_dim, lo, hi, budget, count_all):
    pool = _build_pool(field, m, n, r)
    engine = _make_engine(field, m, n, r, target_dim, pool, budget, count_all)
    budget_hit = engine.run(lo, hi)
    chain = None
    if engine.witness is not None:
        chain = engine.chain_entries(engine.witness)
    return _ChunkResult(chain, engine.nodes, engine.found_count, budget_hit)


# ---------------------------------------------------------------------------
# public search entry point
# ---------------------------------------------------------------------------

def search_constant_rank(F: FieldSpec, m: int, n: int, r: int,
                         target_dim: int, *,
                         budget: int = DEFAULT_NODE_BUDGET,
                         workers: int = 1,
                         count_all: bool = False) -> SearchOutcome:
    """Search for a constant rank r span of m-by-n matrices of the given
    dimension.

    With count_all the whole canonical tree is traversed and found_count
    reports the exact number of such subspaces (the witness returned is
    still the first in canonical order).  Worker splitting partitions the
    depth-1 candidates into contiguous chunks, each run in its own
    process under a budget of ceil(budget / workers) nodes; the worker
    count is capped at the number of cores and of depth-1 candidates,
    and the budget is split over the capped count; chunks are
    merged in order, so witnesses match the single-worker run.  When the
    scalar-class count of the ambient space exceeds the pool cap,
    candidates are streamed instead of pooled and the search runs in a
    single worker.
    """
    if not 1 <= r <= m <= n:
        raise ShapeViolation(f"need 1 <= r <= m <= n, got r={r}, m={m}, n={n}")
    if target_dim < 1:
        raise ShapeViolation(f"target dimension must be positive, got {target_dim}")
    if budget < 1:
        raise UsageError(f"node budget must be positive, got {budget}")
    if workers < 1:
        raise UsageError(f"worker count must be positive, got {workers}")
    start = time.perf_counter()
    q = F.q
    mn = m * n
    projective_total = (q ** mn - 1) // (q - 1)

    if projective_total > POOL_CAP:
        engine = _make_engine(F, m, n, r, target_dim, None, budget, count_all)
        budget_hit = engine.run(0, 0)
        chain = (engine.chain_entries(engine.witness)
                 if engine.witness is not None else None)
        nodes = engine.nodes
        found_count = engine.found_count
    else:
        pool = _build_pool(F, m, n, r)
        workers = _worker_count(workers, len(pool))
        if workers == 1:
            engine = _make_engine(F, m, n, r, target_dim, pool, budget,
                                  count_all)
            budget_hit = engine.run(0, len(pool))
            chain = (engine.chain_entries(engine.witness)
                     if engine.witness is not None else None)
            nodes = engine.nodes
            found_count = engine.found_count
        else:
            chain, nodes, found_count, budget_hit = _run_chunked(
                F, m, n, r, target_dim, len(pool), budget, workers, count_all
            )

    witness = None
    if chain is not None:
        witness = SubspaceBasis([MatGF(F, m, n, ent) for ent in chain])
        ok, bad = is_constant_rank(witness, r)
        if not ok or witness.d != target_dim:
            raise InternalVerificationFailed(
                f"search produced an invalid witness (offender {bad!r})"
            )

    if budget_hit and (count_all or witness is None):
        status = SearchStatus.BUDGET_EXCEEDED
    elif witness is not None:
        status = SearchStatus.FOUND
    else:
        status = SearchStatus.EXHAUSTED_NONE
    return SearchOutcome(
        status=status,
        witness=witness,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - start,
        found_count=found_count,
    )


def _worker_count(requested: int, pool_len: int) -> int:
    """Processes to start: at most one per core and per depth-1 candidate."""
    return max(1, min(requested, pool_len, os.cpu_count() or 1))


def _run_chunked(F, m, n, r, target_dim, pool_len, budget, workers, count_all):
    per_worker = -(-budget // workers)
    bounds = [
        (pool_len * w // workers, pool_len * (w + 1) // workers)
        for w in range(workers)
    ]
    bounds = [(lo, hi) for lo, hi in bounds if lo < hi]
    chain = None
    nodes = 0
    found_count = 0
    budget_hit = False
    # leaving the with block terminates the workers, so chunks after a
    # find stop at once instead of running to the end
    with multiprocessing.Pool(len(bounds)) as pool:
        pending = [
            pool.apply_async(_search_chunk, (F, m, n, r, target_dim, lo, hi,
                                             per_worker, count_all))
            for lo, hi in bounds
        ]
        for job in pending:
            res = job.get()
            nodes += res.nodes
            found_count += res.found_count
            budget_hit = budget_hit or res.budget_hit
            if chain is None:
                chain = res.witness_chain
            if chain is not None and not count_all:
                break
    return chain, nodes, found_count, budget_hit


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def gaussian_binomial(q: int, N: int, k: int) -> int:
    """Number of k-dimensional subspaces of an N-dimensional space over a
    field with q elements; exact integer."""
    if k < 0 or k > N:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (N - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def brute_force_census(F: FieldSpec, m: int, n: int, r: int, dim: int, *,
                       budget: int = DEFAULT_CENSUS_BUDGET) -> int:
    """Count dim-dimensional constant rank r spans of m-by-n matrices by
    enumerating every subspace via its reduced-echelon representative.

    Completely independent of the pruned search; refuses to start when
    the subspace count (the Gaussian binomial) exceeds the budget.
    """
    if not (1 <= r <= min(m, n)):
        raise ShapeViolation(f"rank {r} outside 1..{min(m, n)}")
    if dim < 1:
        raise ShapeViolation(f"dimension must be positive, got {dim}")
    q = F.q
    mn = m * n
    if dim > mn:
        return 0
    total = gaussian_binomial(q, mn, dim)
    if total > budget:
        raise BudgetExceeded(
            f"census over {total} subspaces exceeds the budget {budget}"
        )
    if q == 2 and mn <= 16:
        return _census_gf2_packed(m, n, r, dim)
    return _census_generic(F, m, n, r, dim)


def _census_gf2_packed(m: int, n: int, r: int, dim: int) -> int:
    """Vectorized GF(2) census: for each pivot pattern, all free-entry
    assignments are laid out along a numpy axis and every nonzero basis
    combination is rank-checked through the packed rank table."""
    mn = m * n
    table = np.frombuffer(_gf2_rank_table(m, n), dtype=np.uint8)
    count = 0
    for combo in itertools.combinations(range(mn), dim):
        pivot_set = set(combo)
        free = [
            (i, t)
            for i in range(dim)
            for t in range(combo[i] + 1, mn)
            if t not in pivot_set
        ]
        f = len(free)
        assignments = np.arange(1 << f, dtype=np.uint32)
        words = [
            np.full(1 << f, 1 << (mn - 1 - combo[i]), dtype=np.uint32)
            for i in range(dim)
        ]
        for b, (i, t) in enumerate(free):
            words[i] |= ((assignments >> b) & 1) << (mn - 1 - t)
        ok = np.ones(1 << f, dtype=bool)
        cur = np.zeros(1 << f, dtype=np.uint32)
        for s in range(1, 1 << dim):
            cur ^= words[(s & -s).bit_length() - 1]
            ok &= table[cur] == r
            if not ok.any():
                break
        count += int(ok.sum())
    return count


def _census_generic(F: FieldSpec, m: int, n: int, r: int, dim: int) -> int:
    """Per-pattern odometer enumeration with early-exit rank checking."""
    q = F.q
    mn = m * n
    count = 0
    coeff_reps = list(_projective_matrices(F, dim, 1))
    for combo in itertools.combinations(range(mn), dim):
        pivot_set = set(combo)
        free = [
            (i, t)
            for i in range(dim)
            for t in range(combo[i] + 1, mn)
            if t not in pivot_set
        ]
        base = [[0] * mn for _ in range(dim)]
        for i in range(dim):
            base[i][combo[i]] = 1
        for assignment in itertools.product(range(q), repeat=len(free)):
            rows = [list(b) for b in base]
            for (i, t), v in zip(free, assignment):
                rows[i][t] = v
            if _constant_rank_span(F, rows, m, n, r, coeff_reps):
                count += 1
    return count


def _constant_rank_span(F: FieldSpec, rows, m: int, n: int, r: int,
                        coeff_reps) -> bool:
    """Whether every nonzero combination of the rows has rank r (one
    scalar-class representative per combination suffices)."""
    q = F.q
    mf = F._mul_flat
    af = F._add_flat
    mn = m * n
    for coeffs in coeff_reps:
        elem = [0] * mn
        if mf is not None:
            for c, row in zip(coeffs, rows):
                if c:
                    cq = c * q
                    for t in range(mn):
                        x = row[t]
                        if x:
                            elem[t] = af[elem[t] * q + mf[cq + x]]
        else:
            for c, row in zip(coeffs, rows):
                if c:
                    for t in range(mn):
                        x = row[t]
                        if x:
                            elem[t] = F.add(elem[t], F.mul(c, x))
        mat_rows = [elem[i * n: (i + 1) * n] for i in range(m)]
        if _rank_rows(F, mat_rows) != r:
            return False
    return True
