"""Exhaustive search for constant-rank spans, plus a brute-force oracle.

The search extends partial chains (B_1, ..., B_k) depth first.  A chain
step is accepted only when the new matrix is the canonical generator of
the enlarged span: it must vanish at the leading positions of the chain
so far, have first nonzero entry 1, and come lexicographically after its
predecessor.  Those three conditions make B_k the least element of
span(B_1..B_k) \\ span(B_1..B_{k-1}), so every subspace is produced by
exactly one chain and an exhausted tree is a proof of non-existence.
Rank checking looks ahead: when B_k enters, the only new elements are
c B_k + s for c != 0 and s in the old span or 0, so a later candidate
stays compatible with the chain when it plus each of those has rank r.

One engine serves every field.  It stores each matrix as a base-q
integer code, entry (0,0) most significant, so integer order is the
lexicographic order above and a GF(2) code is the packed bit word.
Candidates are ranked in numpy blocks, and the test that a candidate
vanishes at the leading positions is a mask on its support.  When the
candidates fit in memory (the pool), each depth keeps the compatibility
of its children, one numpy pass over a block of siblings decides which
of their children stay compatible, and nodes are counted in bulk.  The
pass reads a rank table indexed by code when there are at most POOL_CAP
codes (in characteristic 2 the sum of two codes is then their XOR), and
calls rank_batch otherwise.  Candidates streamed at each depth instead
are checked one node at a time.

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

    nodes_explored counts the nodes reached: each candidate extension of
    an accepted chain, compatible or not; with count_all the tree is
    traversed fully and found_count totals the distinct subspaces hit.
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
# A look-ahead pass checks at most this many sums (siblings x elements
# they add to the span x later compatible candidates); at least one
# sibling always goes in.
_LOOK_AHEAD = 1 << 14


class _Engine:
    """Depth-first search over base-q matrix codes.

    A matrix is stored as the integer whose base-q digits are its
    row-major entries, entry (0,0) most significant, so integer order is
    entry-lexicographic order and a GF(2) code is the packed bit word.
    Its support is the bit mask of its nonzero entries, in the same bit
    order, and its lead the highest bit of the support.  Candidates are
    the projective codes, those in [q^k, 2q^k) for some k (first nonzero
    entry 1), of rank r, in ascending order.  They are ranked in numpy
    blocks and kept as arrays (the pool) when there are at most POOL_CAP
    projective codes, and generated again at each depth (the stream)
    otherwise.  The children of a chain are the candidates above its
    last element whose support misses the lead of every element in it
    (the pivot mask); each child is a node.

    A pooled search looks ahead.  A depth holds the children of the
    chain and, for each, whether it is compatible with the span: Z + s
    has rank r for every s in it.  For a block of compatible siblings Y,
    one numpy pass finds every Y's children and which of the compatible
    ones stay compatible once Y enters: Z + t has rank r for every
    t = c Y + s, c != 0 and s in the span or 0.  The pass reads the rank
    table (XOR of codes in characteristic 2, digit rows otherwise), or
    calls rank_batch when there is no table.  Nodes are counted in bulk,
    by prefix sums over the block: the incompatible siblings, the
    children of a sibling with no compatible child (it is not entered),
    those of a sibling with one (whose children cannot be compatible)
    and the leaves at the last depth, whose compatible ones are finds.
    A budget stops the count at exactly the budget.  In a worker process
    the shared flag stop (see _run_parallel) stops it at the next count.

    The stream has no rank table.  It checks one node at a time, ranking
    X + s for every s in the span with rank_batch.
    """

    stop = None

    def __init__(self, field, m, n, r, target_dim, budget, count_all):
        q = field.q
        mn = m * n
        self.field = field
        self.q = q
        self.m = m
        self.n = n
        self.mn = mn
        self.r = r
        self.target_dim = target_dim
        self.budget = budget
        self.count_all = count_all
        self.table = _rank_table(field, m, n) if q ** mn <= POOL_CAP else None
        # with a table in characteristic 2, span elements are codes and
        # sums of codes are XORs; otherwise they are digit rows
        self.xor = self.table is not None and field.p == 2
        self.scalars = np.arange(1, q, dtype=np.int32)
        if self.table is not None:
            # digit rows to codes, for table lookups: q^(mn) <= POOL_CAP
            self.weights = q ** np.arange(mn - 1, -1, -1, dtype=np.int64)
        # codes are generated in blocks that share all but their last
        # low_len digits, q^low_len codes at most
        low_len = 1
        while low_len < mn and q ** (low_len + 1) <= _BLOCK:
            low_len += 1
        self.low_len = low_len
        self.codes = self.supports = self.leads = None
        if (q ** mn - 1) // (q - 1) <= POOL_CAP:
            blocks = [(base + t, head | supp)
                      for base, head, t, supp in self._blocks(0, 0)]
            self.codes = np.concatenate([c for c, _ in blocks])
            self.supports = np.concatenate([s for _, s in blocks])
            # supports are below 2^mn <= 2^22, exact as floats
            self.leads = (1 << np.frexp(self.supports)[1]) >> 1

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
            if self.table is not None:
                ranks = self.table[base + rows]
            else:
                block = np.empty((len(rows), mn), dtype=np.int32)
                block[:, :high_len] = head_digits
                block[:, high_len:] = digits[rows]
                ranks = rank_batch(self.field, block.reshape(-1, self.m, self.n))
            hit = rows[ranks == self.r]
            yield base, head, hit, low_supp[hit]

    def _after(self, X: int):
        """(code, support) pairs of the streamed candidates above X whose
        support misses the pivot mask, ascending."""
        return ((base + t, head | s)
                for base, head, hit, supp in self._blocks(X, self.pivot_mask)
                for t, s in zip(hit.tolist(), supp.tolist()))

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
        try:
            if self.codes is None:
                self.span = np.zeros((1, self.mn), dtype=np.int32)
                self.pivot_mask = 0
                self._extend(0, self._after(0))
            elif self.target_dim == 1:
                self._leaves(hi - lo, np.arange(1, hi - lo + 1),
                             [int(self.codes[lo])])
            else:
                zero = (np.zeros(1, dtype=np.int64) if self.xor
                        else np.zeros((1, self.mn), dtype=np.int32))
                codes = self.codes[lo:]
                self._level(0, codes, self.supports[lo:], self.leads[lo:],
                            np.ones(len(codes), dtype=bool), zero, hi - lo)
        except _FoundEarly:
            pass
        except _BudgetHit:
            return self.nodes, self.found_count, self.witness, True
        return self.nodes, self.found_count, self.witness, False

    def _count(self, nodes) -> None:
        """Count nodes that hold no find; stop at exactly the budget, or
        at once when stop is set."""
        if self.nodes + nodes > self.budget or self.stop and self.stop.value:
            self.nodes = self.budget
            raise _BudgetHit
        self.nodes += int(nodes)

    def _leaves(self, nodes, finds, ends) -> None:
        """Count nodes that end at the last depth.  The ascending 1-based
        offsets finds are those of the finds; the first of them ends the
        chain with the codes ends."""
        k = int(finds.searchsorted(self.budget - self.nodes, "right"))
        if k:
            at = self.nodes + finds[:k if self.count_all else 1]
            self._record(ends, at.tolist())
        self._count(nodes)

    def _level(self, depth, codes, supports, leads, ok, span, stop) -> None:
        """Count the children codes[:stop] of the chain, whose span is
        span (0 included), and search below those flagged ok, the ones
        compatible with it.  Later codes are candidates for children."""
        leaf = depth + 2 == self.target_dim
        width = (self.q - 1) * len(span)   # elements a sibling adds
        sibs = ok[:stop].nonzero()[0]
        pos = i = 0   # the children before pos are counted
        # blocks grow from a sixteenth of the cap, so that a find under an
        # early sibling costs little work on the later ones
        limit = _LOOK_AHEAD >> 4
        while i < len(sibs):
            first = int(sibs[i])
            rest = first + 1
            block = sibs[i:i + max(1, limit // max(1, len(codes) - rest))]
            # kids[b, j]: code rest + j is a child of sibling block[b]
            kids = (((supports[rest:] & leads[block, None]) == 0)
                    & (codes[rest:] > codes[block, None]))
            zs = (kids.any(axis=0) & ok[rest:]).nonzero()[0]
            size = max(1, limit // max(1, width * len(zs)))
            limit = min(2 * limit, _LOOK_AHEAD)
            if size < len(block):
                block, kids = block[:size], kids[:size]
                zs = (kids.any(axis=0) & ok[rest:]).nonzero()[0]
            i += len(block)
            free = kids.sum(axis=1)
            if len(zs):
                good, cosets = self._look_ahead(codes[block], codes[zs + rest],
                                                span)
                good &= kids[:, zs]
            if not len(zs) or not good.any():
                # no sibling of the block has a compatible child
                self._count(block[-1] - pos + 1 + free.sum())
                pos = int(block[-1]) + 1
                continue
            # the node count from pos at each sibling, after the children
            # of the siblings before it
            at = block - pos + 1 + free.cumsum() - free
            pos = int(block[-1]) + 1
            if leaf:
                bs, js = good.nonzero()
                finds = at[bs] + kids.cumsum(axis=1)[bs, zs[js]]
                ends = [int(codes[block[bs[0]]]), int(codes[zs[js[0]] + rest])]
                self._leaves(at[-1] + free[-1], finds, ends)
                continue
            done = 0   # the nodes of this block counted so far
            # a sibling without compatible children is not entered
            for b in good.any(axis=1).nonzero()[0].tolist():
                self._count(at[b] - done)
                done = at[b] + free[b]
                mine = zs[good[b]] + rest
                if len(mine) == 1:
                    # a lone compatible child has no compatible child
                    self._count(free[b] + ((supports[mine[0] + 1:] & (
                        leads[block[b]] | leads[mine[0]])) == 0).sum())
                    continue
                child = kids[b].nonzero()[0] + rest
                child_ok = np.zeros(len(codes), dtype=bool)
                child_ok[mine] = True
                self.chain.append(int(codes[block[b]]))
                self._level(depth + 1, codes[child], supports[child],
                            leads[child], child_ok[child],
                            np.concatenate((span, cosets[b])), len(child))
                self.chain.pop()
            self._count(at[-1] + free[-1] - done)
        self._count(stop - pos)

    def _look_ahead(self, ys, zs, span):
        """(good, cosets): cosets[b] holds c ys[b] + s for c != 0 and s
        in span, what ys[b] adds to the span, and good[b, j] says whether
        zs[j] + t has rank r for every t in cosets[b]."""
        if self.xor:
            multiples = (ys[:, None] if self.q == 2 else self._multiples(
                _code_digits(ys, self.q, self.mn)) @ self.weights)
            cosets = (multiples[:, :, None] ^ span).reshape(len(ys), -1)
        else:
            cosets = self._coset(_code_digits(ys, self.q, self.mn), span)
        # at most _LOOK_AHEAD sums at a time
        step = max(1, _LOOK_AHEAD // (len(ys) * cosets.shape[1]))
        good = [self._compatible(cosets, zs[a:a + step])
                for a in range(0, len(zs), step)]
        return good[0] if len(good) == 1 else np.concatenate(good, 1), cosets

    def _compatible(self, cosets, zs):
        """good[b, j]: zs[j] + t has rank r for every t in cosets[b]."""
        if self.xor:
            ranks = self.table[cosets[:, :, None] ^ zs]
        else:
            sums = self.field.arrays.add(cosets[:, :, None],
                                         _code_digits(zs, self.q, self.mn))
            if self.table is not None:
                ranks = self.table[sums @ self.weights]
            else:
                ranks = rank_batch(self.field, sums.reshape(-1, self.m, self.n)
                                   ).reshape(sums.shape[:3])
        return (ranks == self.r).all(axis=1)

    def _extend(self, depth: int, candidates) -> None:
        """The stream's traversal: one node at a time."""
        last = self.target_dim - 1
        for X, supp in candidates:
            self._count(1)
            digits = np.array(_digits(X, self.q, self.mn))
            sums = self.field.arrays.add(self.span, digits)
            if not (rank_batch(self.field, sums.reshape(-1, self.m, self.n))
                    == self.r).all():
                continue
            if depth == last:
                self._record([X], [self.nodes])
                continue
            saved = self.span, self.pivot_mask
            self.chain.append(X)
            self.span = np.concatenate((self.span, self._coset(digits, self.span)))
            self.pivot_mask |= 1 << (supp.bit_length() - 1)
            self._extend(depth + 1, self._after(X))
            self.chain.pop()
            self.span, self.pivot_mask = saved

    def _multiples(self, digits: np.ndarray) -> np.ndarray:
        """Digit rows of c X for c = 1, ..., q-1, for each digit row X of
        digits (shape (..., mn)), on a new next-to-last axis."""
        return self.field.arrays.mul(self.scalars[:, None],
                                     digits[..., None, :])

    def _coset(self, digits: np.ndarray, span: np.ndarray) -> np.ndarray:
        """Digit rows of c X + s for c != 0 and s in span, for each digit
        row X of digits, on a new next-to-last axis."""
        sums = self.field.arrays.add(self._multiples(digits)[..., None, :],
                                     span)
        return sums.reshape(*digits.shape[:-1], -1, self.mn)

    def _record(self, ends: list[int], at: list[int]) -> None:
        """Record finds at the node counts at, the first of them ending
        the chain with the codes ends; without count_all the search stops
        there."""
        if self.witness is None:
            self.witness = self.chain + ends
        self.found_count += len(at)
        if self.found_at is not None:
            self.found_at.extend(at)
        if not self.count_all:
            self.nodes = at[0]
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
    from concurrent.futures import ProcessPoolExecutor

    nodes = found_count = 0
    witness = None
    batches, lo = [], 0
    while lo < pool_len:
        # single candidates first, then ranges that grow with their start:
        # a later candidate has fewer successors in the canonical order
        batches.append((lo, min(pool_len, lo + 1 + lo // (8 * workers))))
        lo = batches[-1][1]
    # once the deciding batch is in, the batches not yet started are
    # cancelled and the flag stops the running ones at their next node count
    stop = multiprocessing.RawValue("b", 0)
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context(),
        initializer=_start_worker, initargs=(engine, stop))
    try:
        for n, found_at, w, hit in pool.map(_run_batch, batches):
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
    finally:
        stop.value = 1
        pool.shutdown(cancel_futures=True)
    return nodes, found_count, witness, hit


# the engine of a worker process, set once by _start_worker
_worker_engine: _Engine | None = None


def _start_worker(engine: _Engine, stop) -> None:
    global _worker_engine
    engine.stop = stop
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
    table = _rank_table(F, m, n) if q ** mn <= POOL_CAP else None
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
