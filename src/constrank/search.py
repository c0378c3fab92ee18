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

One engine serves every field.  It stores each matrix as a base-q
integer code, entry (0,0) most significant, so integer order is the
lexicographic order above and a GF(2) code is the packed bit word.
Candidates are ranked in numpy blocks, and the test that a candidate
vanishes at the leading positions is a mask on its support.  The coset
check reads a rank table indexed by code when there are at most POOL_CAP
codes; in characteristic 2 the sum of two codes is then their XOR.

brute_force_census enumerates ALL subspaces of a given dimension via
reduced-echelon bases, in numpy blocks for every field (XOR of codes in
characteristic 2), and counts the constant-rank ones; it shares no
traversal code with the pruned search so the two can check each other.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    BudgetExceeded,
    InternalVerificationFailed,
    ShapeViolation,
    UsageError,
)
from .field import FieldSpec
from .matrix import MatGF, _code_digits, _rank_table, rank_batch
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
# the depth-first engine
# ---------------------------------------------------------------------------

# Candidate codes are ranked in blocks of at most this many codes, or of q
# codes when q is larger.
_BLOCK = 4096


class _Engine:
    """Depth-first search over base-q matrix codes.

    A matrix is stored as the integer whose base-q digits are its
    row-major entries, entry (0,0) most significant, so integer order is
    entry-lexicographic order and a GF(2) code is the packed bit word.
    Its support is the bit mask of its nonzero entries, in the same bit
    order.  Candidates are the projective codes, those in [q^k, 2q^k)
    for some k (first nonzero entry 1), of rank r, in ascending order.
    They are ranked in numpy blocks and kept as arrays (the pool) when
    there are at most POOL_CAP projective codes, and generated again at
    each depth (the stream) otherwise.  A depth takes the candidates
    above the previous chain element whose support misses the pivot
    mask, the leading positions of the chain; that filter runs on a
    numpy array of supports.

    A rank table indexed by code is used when q^(mn) <= POOL_CAP.  In
    characteristic 2 the base-2^e digits are bit fields, so the sum of
    two codes is their XOR and the coset check is a pure-Python loop of
    table lookups.  Otherwise the span is kept as an array of digit rows
    and each check is one numpy call: table lookups, or rank_batch when
    there is no table.
    """

    def __init__(self, field, m, n, r, target_dim, budget, count_all):
        q = field.q
        mn = m * n
        self.args = (field, m, n, r, target_dim, budget, count_all)
        self.field = field
        self.ar = field.arrays
        self.q = q
        self.m = m
        self.n = n
        self.mn = mn
        self.r = r
        self.target_dim = target_dim
        self.budget = budget
        self.count_all = count_all
        table = _rank_table(field, m, n) if q ** mn <= POOL_CAP else None
        self.table = table
        self.table_np = None if table is None else np.frombuffer(table, np.uint8)
        self.xor = table is not None and field.p == 2
        self.scalars = np.arange(1, q, dtype=np.int32)
        if table is not None:
            # digit rows to codes; only codes below q^(mn) <= POOL_CAP
            self.weights = q ** np.arange(mn - 1, -1, -1, dtype=np.int64)
        # codes are generated in blocks that share all but their last
        # low_len digits, q^low_len codes at most
        low_len = 1
        while low_len < mn and q ** (low_len + 1) <= _BLOCK:
            low_len += 1
        self.low_len = low_len
        self.codes = self.supports = None
        if (q ** mn - 1) // (q - 1) <= POOL_CAP:
            blocks = [(base + t, head | supp)
                      for base, head, t, supp in self._blocks(0, 0)]
            self.codes = np.concatenate([c for c, _ in blocks])
            self.supports = np.concatenate([s for _, s in blocks])

    def __reduce__(self):
        # a worker started by spawn or forkserver builds its own engine
        return _Engine, self.args

    # -- candidates ----------------------------------------------------------

    def _blocks(self, after: int, mask: int):
        """The rank-r projective codes above after whose support misses
        mask, ascending, in blocks (base, head, offsets, supports): the
        codes are base + offsets and their supports head | supports."""
        q, mn, low_len = self.q, self.mn, self.low_len
        size = q ** low_len
        high_len = mn - low_len
        digits, low_supp, projective = _low_codes(q, low_len)
        low_mask = mask & ((1 << low_len) - 1)
        start = (after + 1) // size
        # head H leads a projective block when H = 0 or its own leading
        # digit is 1, that is H in [q^j, 2q^j)
        ranges = [range(0, 1)] if start == 0 else []
        for j in range(high_len):
            if not mask >> (low_len + j) & 1:   # else that digit is a pivot
                ranges.append(range(max(q ** j, start), 2 * q ** j))
        for H in itertools.chain.from_iterable(ranges):
            head_digits = _digits(H, q, high_len)
            head = sum(1 << (mn - 1 - t) for t, x in enumerate(head_digits) if x)
            if head & mask:
                continue
            base = H * size
            rows = projective if H == 0 else np.arange(size)
            if after >= base:
                rows = rows[rows > after - base]
            rows = rows[(low_supp[rows] & low_mask) == 0]
            if self.table_np is not None:
                ranks = self.table_np[base + rows]
            else:
                block = np.empty((len(rows), mn), dtype=np.int32)
                block[:, :high_len] = head_digits
                block[:, high_len:] = digits[rows]
                ranks = rank_batch(self.field, block.reshape(-1, self.m, self.n))
            hit = rows[ranks == self.r]
            yield base, head, hit, low_supp[hit]

    def _after(self, X: int):
        """(code, support) pairs of the candidates above X whose support
        misses the pivot mask, ascending."""
        mask = self.pivot_mask
        if self.codes is None:
            return ((base + t, head | s)
                    for base, head, hit, supp in self._blocks(X, mask)
                    for t, s in zip(hit.tolist(), supp.tolist()))
        lo = int(self.codes.searchsorted(X, "right"))
        return self._pool_range(lo, len(self.codes), mask)

    def _pool_range(self, lo: int, hi: int, mask: int):
        if hi - lo <= _BLOCK:
            return self._pool_chunk(lo, hi, mask)
        # chunk by chunk, so a long range is never one Python list
        return itertools.chain.from_iterable(
            self._pool_chunk(a, min(a + _BLOCK, hi), mask)
            for a in range(lo, hi, _BLOCK))

    def _pool_chunk(self, lo: int, hi: int, mask: int):
        supp = self.supports[lo:hi]
        keep = (supp & mask) == 0
        return zip(self.codes[lo:hi][keep].tolist(), supp[keep].tolist())

    # -- traversal -----------------------------------------------------------

    def run(self, lo: int, hi: int, found_at=None):
        """Search afresh from the depth-1 candidates codes[lo:hi] (every
        candidate when streaming): (nodes, found count, codes of the first
        witness or None, whether the budget stopped the search).  found_at,
        if given, receives the node count at each find."""
        self.found_at = found_at
        self.nodes = self.found_count = 0
        self.witness: list[int] | None = None
        self.chain: list[int] = []
        self.span = [] if self.xor else np.zeros((0, self.mn), dtype=np.int32)
        self.pivot_mask = 0
        try:
            self._extend(0, self._after(0) if self.codes is None
                         else self._pool_range(lo, hi, 0))
        except _FoundEarly:
            pass
        except _BudgetHit:
            return self.nodes, self.found_count, self.witness, True
        return self.nodes, self.found_count, self.witness, False

    def _extend(self, depth: int, candidates) -> None:
        last = self.target_dim - 1
        for X, supp in candidates:
            if not self._closed(X):
                continue
            if depth == last:
                self._record(X)
                continue
            saved = self._enter(X, supp)
            self._extend(depth + 1, self._after(X))
            self.chain.pop()
            self.span, self.pivot_mask = saved

    def _closed(self, X: int) -> bool:
        """Budget accounting plus the coset check: X + s has rank r for
        every s in the span so far."""
        if self.nodes >= self.budget:
            raise _BudgetHit
        self.nodes += 1
        r = self.r
        if self.xor:
            table = self.table
            for s in self.span:
                if table[X ^ s] != r:
                    return False
            return True
        sums = self.ar.add(self.span, np.array(_digits(X, self.q, self.mn)))
        if self.table_np is not None:
            return bool((self.table_np[sums @ self.weights] == r).all())
        ranks = rank_batch(self.field, sums.reshape(-1, self.m, self.n))
        return bool((ranks == r).all())

    def _enter(self, X: int, supp: int):
        saved = (self.span, self.pivot_mask)
        self.chain.append(X)
        span = self.span
        if self.xor:
            # over GF(2) X is its only nonzero multiple
            multiples = ([X] if self.q == 2
                         else (self._multiples(X) @ self.weights).tolist())
            self.span = span + multiples + [y ^ s for y in multiples for s in span]
        else:
            multiples = self._multiples(X)
            self.span = np.concatenate([
                span, multiples,
                self.ar.add(multiples[:, None], span[None]).reshape(-1, self.mn),
            ])
        self.pivot_mask |= 1 << (supp.bit_length() - 1)
        return saved

    def _multiples(self, X: int) -> np.ndarray:
        """Digit rows of c X for c = 1, ..., q-1."""
        return self.ar.mul(self.scalars[:, None], _digits(X, self.q, self.mn))

    def _record(self, X: int) -> None:
        self.found_count += 1
        if self.found_at is not None:
            self.found_at.append(self.nodes)
        if self.witness is None:
            self.witness = self.chain + [X]
        if not self.count_all:
            raise _FoundEarly


@lru_cache(maxsize=32)
def _low_codes(q: int, length: int):
    """Digits (most significant first) and supports of the codes below
    q^length, and those of them that are projective (first nonzero
    digit 1)."""
    digits = _code_digits(np.arange(q ** length), q, length)
    supp = (digits != 0) @ (1 << np.arange(length - 1, -1, -1))
    lead = digits[np.arange(len(digits)), (digits != 0).argmax(axis=1)]
    out = digits, supp, np.flatnonzero(lead == 1)
    for a in out:
        a.flags.writeable = False   # shared by every caller of the cache
    return out


def _digits(X: int, q: int, length: int) -> list[int]:
    """Base-q digits of the integer X, most significant first."""
    out = [0] * length
    for t in range(length - 1, -1, -1):
        X, out[t] = divmod(X, q)
    return out


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
    still the first in canonical order).  Several workers (at most one
    per core and per depth-1 candidate) run the serial engine on batches
    of depth-1 candidates handed out in index order, each under the whole
    budget, and their records merge into the serial result: the outcome
    does not depend on the worker count.  When the scalar-class count of
    the ambient space exceeds the pool cap, candidates are streamed
    instead of pooled and the search runs in one process.
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
    engine = _Engine(F, m, n, r, target_dim, budget, count_all)
    pool_len = 0 if engine.codes is None else len(engine.codes)
    workers = _worker_count(workers, pool_len)
    nodes, found_count, chain, budget_hit = (
        engine.run(0, pool_len) if workers == 1
        else _run_parallel(engine, pool_len, workers))

    witness = None
    if chain is not None:
        witness = SubspaceBasis([MatGF(F, m, n, _digits(X, F.q, m * n))
                                 for X in chain])
        # the traversal already checked every element of the witness span,
        # so its size is not held to the enumeration budget
        ok, bad = is_constant_rank(witness, r, budget=F.q ** target_dim)
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


def _run_parallel(engine, pool_len, workers):
    """engine.run(0, pool_len), from worker processes that run copies of
    the engine on batches of consecutive depth-1 candidates.  The serial
    budget point lies in the first batch that overruns the rest of the
    budget, and the node counts of that batch's finds tell which of them
    come before it."""
    nodes = found_count = 0
    witness = None
    batches, lo = [], 0
    while lo < pool_len:
        # single candidates first, then ranges that grow with their start:
        # a later candidate has fewer successors in the canonical order
        batches.append((lo, min(pool_len, lo + 1 + lo // (8 * workers))))
        lo = batches[-1][1]
    # leaving the with block stops the batches after the deciding one
    with multiprocessing.Pool(workers, _start_worker, (engine,)) as pool:
        for n, found_at, w, hit in pool.imap(_run_batch, batches):
            left = engine.budget - nodes
            if n > left:
                k = bisect_right(found_at, left)
                witness = witness or (w if k else None)
                return engine.budget, found_count + k, witness, True
            nodes += n
            found_count += len(found_at)
            witness = witness or w
            if hit or w is not None and not engine.count_all:
                break
    return nodes, found_count, witness, hit


# the engine of a worker process, set once by _start_worker
_worker_engine: _Engine | None = None


def _start_worker(engine: _Engine) -> None:
    global _worker_engine
    _worker_engine = engine


def _run_batch(bounds: tuple[int, int]):
    found_at = array("q")
    nodes, _, witness, hit = _worker_engine.run(*bounds, found_at)
    return nodes, found_at, witness, hit


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

# free-entry assignments per census block
_CENSUS_BLOCK = 1 << 16


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
    enumerating every subspace via its reduced-echelon basis.

    For each pivot pattern the free-entry assignments lie along one numpy
    axis, in blocks of at most _CENSUS_BLOCK.  The coefficient vectors
    with leading coefficient 1 are taken in ascending order, and a block
    keeps only the subspaces whose combinations so far have rank r; a
    basis matrix is built when first needed, for those subspaces only.
    With a rank table in characteristic 2, c B is a code built with
    shifts and a combination is an XOR of codes; otherwise digit rows are
    summed through the field arrays and ranked by the table or by
    rank_batch.  No traversal code is shared with the search.  Refuses to
    start when the subspace count (the Gaussian binomial) exceeds the
    budget.
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
    table = None
    if q ** mn <= POOL_CAP:
        table = np.frombuffer(_rank_table(F, m, n), dtype=np.uint8)
    xor = table is not None and F.p == 2
    ar = F.arrays
    weights = q ** np.arange(mn - 1, -1, -1, dtype=np.int64)

    def coefficient_vectors():
        # leading coefficient 1, ascending
        for j in range(dim - 1, -1, -1):
            for tail in itertools.product(range(q), repeat=dim - 1 - j):
                yield (0,) * j + (1,) + tail

    def build(pivot, own, x, values):
        # the codes of x B, or the digit rows of B, for the basis matrix B
        # whose entry t is digit k of the assignment for each (t, k) in own
        if xor:
            times_x = ar.mul(x, np.arange(q))
            part = np.full(len(values), x * weights[pivot])
            for t, k in own:
                part |= times_x[values >> F.e * k & (q - 1)] * weights[t]
            return part
        part = np.zeros((mn, len(values)), dtype=np.int32)
        part[pivot] = 1
        for t, k in own:
            part[t] = values // q ** k % q
        return part

    count = 0
    for pivots in itertools.combinations(range(mn), dim):
        free = [(i, t) for i in range(dim) for t in range(pivots[i] + 1, mn)
                if t not in pivots]
        own = [[(t, len(free) - 1 - b) for b, (j, t) in enumerate(free)
                if j == i] for i in range(dim)]
        size = q ** len(free)
        for lo in range(0, size, _CENSUS_BLOCK):
            values = np.arange(lo, min(lo + _CENSUS_BLOCK, size))
            parts = {}
            for c in coefficient_vectors():
                terms = []
                for i, x in enumerate(c):
                    if not x:
                        continue
                    key = (i, x) if xor else i
                    if key not in parts:
                        parts[key] = build(pivots[i], own[i], x, values)
                    terms.append(parts[key] if xor or x == 1
                                 else ar.mul(x, parts[key]))
                elem = reduce(ar.add, terms)   # XOR if p = 2
                if table is None:
                    ranks = rank_batch(F, elem.T.reshape(-1, m, n))
                else:
                    ranks = table[elem if xor else weights @ elem]
                keep = ranks == r
                if not keep.all():
                    values = values[keep]
                    parts = {key: p[..., keep] for key, p in parts.items()}
                    if not len(values):
                        break
            count += len(values)
    return count
