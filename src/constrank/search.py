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
candidates fit in memory (the pool), a depth searches the chains that
one block of the depth above enters together: one numpy pass over a
block of their (chain, sibling) rows decides which children stay
compatible and which siblings can hold a find, and nodes are counted in
bulk.  The pass reads a rank table indexed by code when there are at
most POOL_CAP codes (in characteristic 2 the sum of two codes is then
their XOR), and calls rank_batch otherwise.  Candidates streamed at
each depth instead are ranked, checked and counted in chunks that grow.
With several workers the main process searches alone for _HAND_OFF
seconds, then hands what it has not finished to worker processes.

brute_force_census counts the constant-rank subspaces of a given
dimension over ALL reduced-echelon bases: per pivot pattern it keeps the
basis matrices of rank r, then checks the other combinations over the
products of kept matrices, in numpy blocks for every field (XOR of codes
in characteristic 2); it shares no traversal code with the pruned search
so the two can check each other.
"""

from __future__ import annotations

import itertools
import math
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
from .subspace import SubspaceBasis, _class_ranges, is_constant_rank

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


class _HandOff(Exception):
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
# Worker processes cost more to start than most searches that end within
# this many seconds take; the main process searches those alone.  On a
# longer search it loses at most this much work.
_HAND_OFF = 0.15


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

    A pooled search looks ahead, a batch of chains at a time (the
    siblings one block of the depth above entered; the top is one chain).
    Their children share an axis of codes, flagged as each chain's and
    as compatible with its span: Z + s has rank r for every s in it.
    For a block of rows, compatible siblings Y of the chains, one numpy
    pass finds every Y's children and which compatible ones stay so once
    Y enters: Z + t has rank r for every t = c Y + s, c != 0 and s in the
    chain's span or 0.  It reads the rank table (XOR of codes in
    characteristic 2, digit rows otherwise), or calls rank_batch.  A
    sibling is entered only when a compatible child Y has a later one
    that misses Y's lead (else no child of it can extend); the rows a
    block enters are the next batch.  Nodes are counted in bulk, in
    depth-first order, by prefix sums: the parent's nodes before each
    chain, the incompatible siblings, the children and grandchildren of
    the siblings not entered (Y's children are the chain's codes above
    Y's lead that miss both leads) and the leaves at the last depth,
    whose compatible ones are finds.  A budget stops the count exactly at
    it, and in a worker the shared flag stop (see _run_parallel) stops it
    at the next count; in the main process a deadline hands the search
    off at the next count (see run).

    The stream has no rank table.  It ranks and checks a chain's
    children in growing chunks, by rank_batch, and counts them in bulk.
    """

    stop = deadline = None

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
            blocks = [(base + t, head | supp) for base, head, t, supp, _
                      in self._blocks(0, 0, q ** low_len)]
            self.codes = np.concatenate([c for c, _ in blocks])
            self.supports = np.concatenate([s for _, s in blocks])
            # supports are below 2^mn <= 2^22, exact as floats
            self.leads = (1 << np.frexp(self.supports)[1]) >> 1

    # -- candidates ----------------------------------------------------------

    def _blocks(self, after: int, mask: int, chunk: int = 16):
        """The rank-r projective codes above after whose support misses
        mask, ascending, in blocks (base, head, offsets, supports, rows):
        the codes are base + offsets, their supports head | supports and,
        when there is no rank table, their digit rows rows (else None).
        Codes are ranked in chunks that double from chunk up to a block."""
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
            while len(rows):
                part, rows = rows[:chunk], rows[chunk:]
                chunk = min(2 * chunk, size)
                if self.table is not None:
                    block = None
                    ranks = self.table[base + part]
                else:
                    block = np.empty((len(part), mn), dtype=np.int32)
                    block[:, :high_len] = head_digits
                    block[:, high_len:] = digits[part]
                    ranks = rank_batch(self.field,
                                       block.reshape(-1, self.m, self.n))
                keep = ranks == self.r
                yield (base, head, part[keep], low_supp[part[keep]],
                       None if block is None else block[keep])

    # -- traversal -----------------------------------------------------------

    def run(self, lo: int, hi: int, found_at=None):
        """Search afresh from the depth-1 candidates codes[lo:hi] (every
        candidate when streaming): (nodes, found count, codes of the first
        witness or None, whether the budget stopped the search).  found_at,
        if given, receives the node count at each find.  Once deadline,
        if set, has passed, the search stops at its next node count and
        sets resume to the depth-1 candidate after the last block of them
        it finished, if any is left; the counts returned are then those
        of the candidates before it."""
        self.found_at = found_at
        self.nodes = self.found_count = 0
        self.witness: list[int] | None = None
        self.resume = None
        self.handed = 0, 0, 0, None   # the last top-level block boundary
        try:
            self._count(0)   # the deadline may have passed, or stop be set
            if self.codes is None:
                self._stream(0, [], np.zeros((1, self.mn), dtype=np.int32), 0)
            elif self.target_dim == 1:
                self._leaves(hi - lo, np.arange(1, hi - lo + 1),
                             [int(self.codes[lo])])
            else:
                zero = (np.zeros((1, 1), dtype=np.int64) if self.xor
                        else np.zeros((1, 1, self.mn), dtype=np.int32))
                every = np.ones((1, len(self.codes) - lo), dtype=bool)
                none = np.zeros((1, 0), dtype=np.int64)   # the empty chain
                self._level(0, self.codes[lo:], self.supports[lo:],
                            self.leads[lo:], every, every, zero, none,
                            none.sum(1), none.sum(1), hi - lo)
        except _FoundEarly:
            pass
        except _HandOff:
            i, self.nodes, self.found_count, self.witness = self.handed
            self.resume = lo + i if lo + i < hi else None
        except _BudgetHit:
            return self.nodes, self.found_count, self.witness, True
        return self.nodes, self.found_count, self.witness, False

    def _count(self, nodes) -> None:
        """Count nodes that hold no find; stop at exactly the budget, or
        at once when stop is set, or hand off once deadline has passed."""
        if self.nodes + nodes > self.budget or self.stop and self.stop.value:
            self.nodes = self.budget
            raise _BudgetHit
        if self.deadline is not None and self._past_deadline():
            raise _HandOff
        self.nodes += int(nodes)

    def _leaves(self, nodes, finds, witness) -> None:
        """Count nodes that end at the last depth.  The ascending 1-based
        offsets finds are those of the finds; the first of them is the
        chain witness, and stops the search without count_all."""
        k = int(finds.searchsorted(self.budget - self.nodes, "right"))
        if k:
            at = (self.nodes + finds[:k if self.count_all else 1]).tolist()
            if self.witness is None:
                self.witness = witness
            self.found_count += len(at)
            if self.found_at is not None:
                self.found_at.extend(at)
            if not self.count_all:
                self.nodes = at[0]
                raise _FoundEarly
        self._count(nodes)

    def _level(self, depth, codes, supports, leads, kid, ok, spans, chains,
               pivots, ahead, stop) -> None:
        """Count the children of a batch of chains, chain i after ahead[i]
        nodes of the parent, and search below the compatible ones.  Chain i
        has codes chains[i] (leads pivots[i]), span spans[:, i] (0 first)
        and children codes[:stop] flagged kid[i], ok[i] if compatible with
        it; later codes flagged kid[i] are candidates for their children."""
        leaf, n = depth + 2 == self.target_dim, len(codes)
        width = (self.q - 1) * len(spans)   # elements a sibling adds
        # rows: (chain, compatible child), flat in ok[:, :stop]; skip: others
        rows = ok[:, :stop].ravel().nonzero()[0]
        skip = (kid[:, :stop] > ok[:, :stop]).ravel().nonzero()[0]
        i = done = free_before = 0   # rows done; nodes counted; their children
        pairs = None
        # blocks grow from a sixteenth of the cap, so that a find under an
        # early sibling costs little work on the later ones
        limit = _LOOK_AHEAD >> 4
        while i < len(rows):
            # a block reads the codes after its least sibling
            block = rows[i:i + max(1, limit // max(1, n - 1 - rows[i] % stop))]
            chain, sib = np.divmod(block, stop)
            rest = int(sib[0]) + 1
            if len(kid) > 1 and chain[-1] != chain[0]:
                size = ((n - 1 - np.minimum.accumulate(sib)) * np.arange(
                    1, len(block) + 1)).searchsorted(limit, "right") or 1
                block, chain, sib = (a[:size] for a in (block, chain, sib))
                rest = int(sib.min()) + 1
            # kids[b, j]: code rest + j is a child of row b (above it, missing
            # its chain's leads and its own); (bs, js): those compatible
            kids = (((supports[rest:] & (pivots[chain] | leads[sib])[:, None])
                     == 0) & (codes[rest:] > codes[sib, None]))
            bs, js = np.divmod((kids & ok[chain, rest:]).ravel().nonzero()[0],
                               len(kids[0]))
            if limit // width < len(bs):   # at most limit sums
                size = max(1, int(bs[limit // width]))
                block, chain, sib, kids = (a[:size] for a in (block, chain,
                                                              sib, kids))
                bs, js = bs[:bs.searchsorted(size)], js[:bs.searchsorted(size)]
            limit = min(2 * limit, _LOOK_AHEAD)
            free = kids.sum(axis=1)
            # the node count at each row, after the earlier rows' children
            at = (ahead[chain] + skip.searchsorted(block) + free.cumsum() - free
                  + np.arange(1, len(block) + 1) + (i + free_before))
            i += len(block)
            if len(bs):
                good, elements = self._look_ahead(codes[sib], spans[:, chain],
                                                  bs, codes[rest:][js])
                bs, js = bs[good], js[good]
            if len(bs) and not leaf:
                # enter: a compatible child y has one that misses y's lead
                # among the later ones, that is those with a higher lead
                ys = leads[rest:][js]
                heads = np.zeros(len(block), dtype=ys.dtype)
                np.bitwise_or.at(heads, bs, ys)
                enter = np.zeros(len(block), dtype=bool)
                enter[bs[heads[bs] & (ys - 1) & ~supports[rest:][js] != 0]] = True
                dead = ~enter[bs]
                if dead.any():
                    # bulk grandchildren: y's children are the chain's codes
                    # that miss the sibling's bit a and y's bit p < lead,
                    # pairs[chain, a, p], in chunks of codes x chains
                    if pairs is None:   # once per level
                        bits = np.frexp(leads)[1] - 1
                        below = (~supports & leads - 1).astype('<u4')[:, None]
                        pairs, step = 0, max(1, _LOOK_AHEAD // (8 * len(kid)))
                        for lo in range(0, n, step):
                            miss = np.unpackbits(below[lo:lo + step].view(
                                np.uint8), 1, self.mn, 'little').astype('f4')
                            pairs = pairs + ((kid[:, lo:lo + step, None] * miss)
                                             .transpose(0, 2, 1) @ miss).astype(int)
                    d = bs[dead]
                    extra = np.bincount(d, pairs[chain[d], bits[sib[d]], bits[
                        rest:][js[dead]]], len(block)).astype(np.int64)
                    free += extra
                    at += extra.cumsum() - extra
                es = enter.nonzero()[0]
                if len(es):
                    # the rows entered, in order, are the next batch
                    ce, se, fe, kids = chain[es], sib[es], free[es], kids[es]
                    ends = at[es] + fe
                    child = kids.any(axis=0).nonzero()[0]
                    child_ok = np.zeros((len(block), len(kids[0])), dtype=bool)
                    child_ok[bs, js] = True
                    self._level(
                        depth + 1, codes[rest:][child], supports[rest:][child],
                        leads[rest:][child], kids[:, child],
                        child_ok[es][:, child],
                        np.concatenate((spans[:, ce], elements[:, es])),
                        np.concatenate((chains[ce], codes[se, None]), 1),
                        pivots[ce] | leads[se], ends - fe.cumsum() - done,
                        len(child))
                    done = ends[-1]
            if len(bs) and leaf:   # the rest of the block, with its finds
                self._leaves(at[-1] + free[-1] - done,
                             at[bs] + kids.cumsum(axis=1)[bs, js] - done,
                             self.witness or chains[chain[bs[0]]].tolist() + [
                                 int(codes[sib[bs[0]]]), int(codes[rest + js[0]])])
            else:
                self._count(at[-1] + free[-1] - done)
            done = int(at[-1] + free[-1])
            free_before += int(free.sum())
            if not depth:   # rows are depth-1 candidates, the first i counted
                self.handed = i, self.nodes, self.found_count, self.witness
        self._count(ahead[-1] + len(rows) + len(skip) + free_before - done)

    def _past_deadline(self) -> bool:
        return time.perf_counter() > self.deadline

    def _look_ahead(self, ys, spans, bs, zs):
        """(good, elements): elements[:, b] holds c ys[b] + s for c != 0
        and s in spans[:, b], what ys[b] adds to its span, and good[t]
        says whether zs[t] + x has rank r for every x in elements[:, bs[t]]."""
        if self.xor:
            multiples = (ys[None] if self.q == 2 else self._multiples(
                _code_digits(ys, self.q, self.mn)) @ self.weights)
            elements = (multiples[:, None] ^ spans).reshape(-1, len(ys))
        else:
            elements = self._coset(_code_digits(ys, self.q, self.mn), spans)
            zs = _code_digits(zs, self.q, self.mn)
        # at most _LOOK_AHEAD sums at a time; one sibling's elements broadcast
        step = max(1, _LOOK_AHEAD // len(elements))
        good = [self._compatible(elements if len(ys) == 1 else np.take(
            elements, bs[a:a + step], axis=1), zs[a:a + step])
                for a in range(0, len(zs), step)]
        return good[0] if len(good) == 1 else np.concatenate(good), elements

    def _compatible(self, elements, zs):
        """good[t]: zs[t] + x has rank r for all x in elements[:, t] (or
        elements[:, 0], if that axis has length 1)."""
        if self.xor:
            ranks = self.table[elements ^ zs]
        else:
            sums = self.field.arrays.add(elements, zs)
            if self.table is not None:
                ranks = self.table[sums @ self.weights]
            else:
                ranks = rank_batch(self.field, sums.reshape(-1, self.m, self.n)
                                   ).reshape(sums.shape[:2])
        return (ranks == self.r).all(axis=0)

    def _stream(self, depth, chain, span, mask) -> None:
        """Count the children of the chain of codes chain (empty at the
        top) whose span is span (0 first), the candidates above its last
        code whose support misses mask, block by block, and search below
        those compatible with the span."""
        for base, head, hit, supp, rows in self._blocks(
                chain[-1] if chain else 0, mask):
            pos = lo = 0   # the candidates before pos are counted
            # chunks double from 16 candidates up to _LOOK_AHEAD sums, so an
            # early find is cheap; candidates have rank r, so 0 is not checked
            while lo < len(hit):
                hi = lo + max(16, min(lo, _LOOK_AHEAD // len(span)))
                good = (np.ones(len(hit[lo:hi]), dtype=bool) if not depth else
                        self._compatible(span[1:, None], rows[lo:hi]))
                if depth + 1 == self.target_dim:
                    self._leaves(len(good), good.nonzero()[0] + 1, chain
                                 + [base + int(t) for t in hit[lo:hi][good][:1]])
                    pos = lo = lo + len(good)
                    continue
                for i in (good.nonzero()[0] + lo).tolist():
                    self._count(i + 1 - pos)
                    pos = i + 1
                    self._stream(depth + 1, chain + [base + int(hit[i])],
                                 np.concatenate((span, self._coset(rows[i], span))),
                                 mask | 1 << (head | int(supp[i])).bit_length() - 1)
                lo = hi
            self._count(len(hit) - pos)

    def _multiples(self, digits: np.ndarray) -> np.ndarray:
        """Digit rows of c X for c = 1, ..., q-1, on a new first axis, for
        each digit row X of digits (shape (..., mn))."""
        return self.field.arrays.mul(self.scalars.reshape(-1, *[1] * digits.ndim),
                                     digits)

    def _coset(self, digits: np.ndarray, span: np.ndarray) -> np.ndarray:
        """Digit rows of c X + s for c != 0 and s in span (elements on the
        first axis), on a new first axis, for each digit row X of digits."""
        sums = self.field.arrays.add(self._multiples(digits)[:, None], span)
        return sums.reshape(-1, *digits.shape)


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
    still the first in canonical order).  With several workers the main
    process searches first; if the search is undecided after _HAND_OFF
    seconds, workers (at most one per core and per depth-1 candidate)
    run the serial engine on batches of the depth-1 candidates it has not
    finished, handed out in index order, each under the whole budget, and
    their records merge into the serial result: the outcome does not
    depend on the worker count.  When the scalar-class count of the
    ambient space exceeds the pool cap, candidates are streamed instead
    of pooled and the search runs in one process.
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
    """engine.run(0, pool_len), searched in this process until it is
    decided or _HAND_OFF seconds have passed, then from worker processes
    that run copies of the engine on batches of consecutive depth-1
    candidates, from the first one this process did not finish.  The
    serial budget point lies in the first batch that overruns the rest of
    the budget, and the node counts of that batch's finds tell which of
    them come before it."""
    from concurrent.futures import ProcessPoolExecutor

    engine.deadline = time.perf_counter() + _HAND_OFF
    nodes, found_count, witness, hit = engine.run(0, pool_len)
    engine.deadline = None   # a worker's copy searches its batch to the end
    if engine.resume is None:
        return nodes, found_count, witness, hit
    batches, lo = [], engine.resume
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

# matrices of one basis-matrix space, or products of kept matrices, per
# census block
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

    In a pivot pattern, basis matrix i has entry 1 at its pivot, 0 at
    every other pivot and before its own, and L_i free entries, so the
    pattern's subspaces are the product of one space of q^(L_i) matrices
    (a factor) per basis matrix.  Each basis matrix is an element of the
    span on its own: the matrices of each factor are ranked in blocks of
    at most _CENSUS_BLOCK, and only those of rank r are kept; a pattern
    with an empty factor is skipped.  A factor is fixed by its pivot and
    free entries and recurs across patterns, so it is ranked, and its
    kept matrices built, once per census.  The products of kept
    matrices are numbered along one numpy axis, in blocks of at most
    _CENSUS_BLOCK, and each factor's index is derived from the product
    index when first needed.  The coefficient vectors with leading
    coefficient 1 and at least two nonzero entries are taken in
    ascending order, and a block keeps only the products whose
    combinations so far have rank r.  Each c B is built as digit rows
    times c, packed to codes that add by XOR by one product with the
    code weights when there is a rank table in characteristic 2, else
    summed through the field arrays and ranked by table or rank_batch.
    No traversal code is shared with the search.  Refuses to start when
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
    table = _rank_table(F, m, n) if q ** mn <= POOL_CAP else None
    xor = table is not None and F.p == 2
    ar = F.arrays
    weights = q ** np.arange(mn - 1, -1, -1, dtype=np.int64)

    # coefficient vectors with leading coefficient 1 and at least two
    # nonzero entries, ascending
    vectors = [tuple(c) for c in (_digits(i, q, dim)
                                  for lo, hi in _class_ranges(q, dim)
                                  for i in range(lo, hi))
               if sum(map(bool, c)) > 1]

    def build(pivot, entries, x, values):
        # the matrices x B (codes with XOR, digit rows otherwise) for the
        # basis matrices B with pivot pivot whose free entries entries
        # hold the base-q digits of values, most significant first
        part = np.zeros((mn, len(values)), dtype=np.int32)
        part[pivot] = 1
        for k, t in enumerate(reversed(entries)):
            part[t] = values // q ** k % q
        if x != 1:
            part = ar.mul(x, part)
        return weights @ part if xor else part

    def ranks(elem):
        if table is None:
            return rank_batch(F, elem.T.reshape(-1, m, n))
        return table[elem if xor else weights @ elem]

    def rank_r(pivot, entries):
        # the values of the factor's rank-r matrices, block by block; a
        # block's rows and ranks live until the next block replaces them,
        # which keeps the allocator from handing their pages back between
        # blocks (GF(7) 2x4 d1 page-faulted twice as often without)
        size = q ** len(entries)
        for lo in range(0, size, _CENSUS_BLOCK):
            values = np.arange(lo, min(lo + _CENSUS_BLOCK, size))
            part = build(pivot, entries, 1, values)
            ranked = ranks(part)
            yield values[ranked == r]

    def count_products(factors):
        # the products of kept matrices whose combinations have rank r
        sizes = [len(kept[f]) for f in factors]
        strides = [math.prod(sizes[i + 1:]) for i in range(dim)]
        size = math.prod(sizes)
        found = 0
        for lo in range(0, size, _CENSUS_BLOCK):
            index = np.arange(lo, min(lo + _CENSUS_BLOCK, size))
            parts = {}
            for c in vectors:
                terms = []
                for i, x in enumerate(c):
                    if not x:
                        continue
                    key = (i, x if xor else 1)
                    if key not in parts:
                        parts[key] = table_of(factors[i], key[1])[
                            ..., index // strides[i] % sizes[i]]
                    terms.append(parts[key] if xor or x == 1
                                 else ar.mul(x, parts[key]))
                elem = reduce(ar.add, terms)   # XOR if p = 2
                keep = ranks(elem) == r
                if not keep.all():
                    index = index[keep]
                    parts = {key: p[..., keep] for key, p in parts.items()}
                    if not len(index):
                        break
            found += len(index)
        return found

    # by factor (pivot, free entries), which recurs across pivot patterns:
    # the values of its rank-r matrices, and build() of those by multiple
    kept, tables = {}, {}

    def table_of(factor, x):
        if (factor, x) not in tables:
            tables[factor, x] = build(*factor, x, kept[factor])
        return tables[factor, x]

    count = 0
    for pivots in itertools.combinations(range(mn), dim):
        factors = [(p, tuple(t for t in range(p + 1, mn) if t not in pivots))
                   for p in pivots]
        if dim == 1:   # the basis matrix is the span
            count += sum(len(v) for v in rank_r(*factors[0]))
            continue
        for f in factors:
            if f not in kept:
                kept[f] = np.concatenate(list(rank_r(*f)))
            if not len(kept[f]):
                break
        else:
            count += count_products(factors)
    return count
