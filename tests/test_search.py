"""Canonical search against the brute-force census.

The two engines share no traversal logic: the search extends
lexicographically least coset representatives, the census enumerates
echelon-form bases by pivot pattern.  Their agreement on counts is the
main correctness evidence for both.
"""

from __future__ import annotations

import collections
import concurrent.futures
import functools
import itertools
import multiprocessing
import os
import pickle
import random
import sys
import time
import tracemalloc
from array import array
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import constrank.search as search_mod
from constrank import (
    DEFAULT_CENSUS_BUDGET,
    BudgetExceeded,
    SearchStatus,
    ShapeViolation,
    brute_force_census,
    gaussian_binomial,
    is_constant_rank,
    make_field,
    search_constant_rank,
)
from conftest import ref_rank
import reference

_DATA = os.path.join(os.path.dirname(__file__), "data")
_run_batch = search_mod._run_batch


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 4, 2) == 35
    assert gaussian_binomial(2, 4, 3) == 15
    assert gaussian_binomial(3, 4, 3) == 40
    assert gaussian_binomial(2, 9, 4) == 3309747
    assert gaussian_binomial(5, 3, 0) == 1
    assert gaussian_binomial(2, 3, 5) == 0
    assert gaussian_binomial(2, 3, -1) == 0


def test_gaussian_binomial_identities():
    for q in (2, 3, 5):
        for N in range(8):
            for k in range(N + 1):
                sym = gaussian_binomial(q, N, N - k)
                assert gaussian_binomial(q, N, k) == sym
                if 0 < k <= N - 1:
                    pascal = (gaussian_binomial(q, N - 1, k - 1)
                              + q ** k * gaussian_binomial(q, N - 1, k))
                    assert gaussian_binomial(q, N, k) == pascal


def test_smallest_invertible_plane_is_pinned(gf2):
    out = search_constant_rank(gf2, 2, 2, 2, 2)
    assert out.status is SearchStatus.FOUND
    assert out.nodes_explored == 3
    rows = [B.rows_as_lists() for B in out.witness.basis]
    assert rows == [[[0, 1], [1, 0]], [[1, 0], [1, 1]]]


def test_found_witness_matches_golden_file(gf2):
    out = search_constant_rank(gf2, 3, 3, 2, 4)
    assert out.status is SearchStatus.FOUND
    assert out.nodes_explored == 187
    with open(os.path.join(_DATA, "m3_gf2_rank2_dim4.txt")) as fh:
        assert out.witness.to_text() == fh.read()
    ok, _ = is_constant_rank(out.witness, 2)
    assert ok


@pytest.mark.parametrize("q,n,r,dim", [
    (2, 2, 1, 3),
    (3, 2, 1, 3),
    (3, 2, 2, 3),
])
def test_overfull_dimensions_exhaust(q, n, r, dim):
    F = make_field(q)
    out = search_constant_rank(F, n, n, r, dim)
    assert out.status is SearchStatus.EXHAUSTED_NONE
    assert out.witness is None
    assert brute_force_census(F, n, n, r, dim) == 0


def test_search_count_matches_census_on_grid():
    grid = [
        (make_field(2), ((1, 2), (2, 2), (2, 3))),
        (make_field(3), ((1, 2), (2, 2), (2, 3))),
        (make_field(2, 2), ((1, 2), (2, 2))),
        (make_field(5), ((1, 2), (2, 2))),
        # above the 256-element table cap of the field
        (make_field(257), ((1, 2),)),
        (make_field(2, 9), ((1, 2),)),
    ]
    for F, shapes in grid:
        q = F.q
        for m, n in shapes:
            for r in range(1, min(m, n) + 1):
                for dim in range(1, m * n + 1):
                    if gaussian_binomial(q, m * n, dim) > 10 ** 5:
                        continue
                    out = search_constant_rank(F, m, n, r, dim,
                                               count_all=True)
                    assert out.found_count == brute_force_census(
                        F, m, n, r, dim
                    ), (q, m, n, r, dim)


def test_rectangular_search(gf2):
    out = search_constant_rank(gf2, 2, 3, 1, 3)
    assert out.status is SearchStatus.FOUND
    ok, _ = is_constant_rank(out.witness, 1)
    assert ok
    assert out.witness.d == 3
    assert brute_force_census(gf2, 2, 3, 1, 3) > 0


def test_budget_is_exact(gf2, gf3):
    out = search_constant_rank(gf2, 3, 3, 2, 4, budget=50)
    assert out.status is SearchStatus.BUDGET_EXCEEDED
    assert out.nodes_explored == 50
    assert out.witness is None
    out = search_constant_rank(gf3, 2, 2, 1, 3, budget=7, count_all=True)
    assert out.status is SearchStatus.BUDGET_EXCEEDED
    assert out.nodes_explored == 7


def test_budget_does_not_truncate_an_early_find(gf2):
    full = search_constant_rank(gf2, 2, 2, 2, 2)
    tight = search_constant_rank(gf2, 2, 2, 2, 2,
                                 budget=full.nodes_explored + 1)
    assert tight.status is SearchStatus.FOUND
    assert tight.witness == full.witness


def test_found_with_count_all_reports_budget_state(gf2):
    # enough budget to find one witness but not to finish the tree
    out = search_constant_rank(gf2, 3, 3, 2, 4, budget=400, count_all=True)
    assert out.status is SearchStatus.BUDGET_EXCEEDED
    assert out.found_count >= 1


def _hand_off_at_once(monkeypatch):
    """Two cores, and a main process that hands the search to the workers
    before it searches a node, so that they search every depth-1
    candidate."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search_mod, "_HAND_OFF", 0)


def test_workers_do_not_change_the_answer(gf2, gf3):
    base = search_constant_rank(gf2, 3, 3, 2, 4)
    multi = search_constant_rank(gf2, 3, 3, 2, 4, workers=2)
    assert multi.status is SearchStatus.FOUND
    assert multi.witness == base.witness
    assert multi.nodes_explored == base.nodes_explored

    a = search_constant_rank(gf3, 2, 2, 2, 2, count_all=True)
    b = search_constant_rank(gf3, 2, 2, 2, 2, count_all=True, workers=3)
    assert a.found_count == b.found_count == 18
    assert a.nodes_explored == b.nodes_explored


def test_parallel_find_stops_the_chunks_after_it(gf2, monkeypatch):
    # the witness lies under the first depth-1 candidate; the next three
    # hold witnesses of their own within 74,000 nodes, so the batches run
    # beside the first end of themselves
    # (test_the_stop_flag_ends_a_running_batch stops one that does not)
    _hand_off_at_once(monkeypatch)
    base = search_constant_rank(gf2, 4, 4, 3, 5)
    t0 = time.perf_counter()
    multi = search_constant_rank(gf2, 4, 4, 3, 5, workers=2)
    assert time.perf_counter() - t0 < 30.0
    assert multi.status is base.status is SearchStatus.FOUND
    assert multi.witness == base.witness
    assert multi.nodes_explored == base.nodes_explored == 10680


def _summary(out):
    return out.status, out.witness, out.nodes_explored, out.found_count


def _stalled_batch(bounds):
    # every batch but the first one handed to the workers first searches
    # GF(2) 4x4 r2 d5 to the end, 2 * 10^9 nodes, under the worker's flag
    if bounds[0] != search_mod._worker_engine.resume:
        stalled = search_mod._Engine(make_field(2), 4, 4, 2, 5, 10 ** 12,
                                     True)
        stalled.stop = search_mod._worker_engine.stop
        stalled.run(0, len(stalled.codes))
    return _run_batch(bounds)


def test_the_stop_flag_ends_a_running_batch(gf2, monkeypatch):
    # the first batch holds the witness (node 187), while the batches
    # after it take minutes each: the search only returns in time if the
    # flag set once it is decided stops the batches already running
    _hand_off_at_once(monkeypatch)
    monkeypatch.setattr(search_mod, "_run_batch", _stalled_batch)
    serial = search_constant_rank(gf2, 3, 3, 2, 4)
    t0 = time.perf_counter()
    multi = search_constant_rank(gf2, 3, 3, 2, 4, workers=2)
    assert time.perf_counter() - t0 < 30.0
    assert _summary(multi) == _summary(serial)
    assert multiprocessing.active_children() == []


_BUDGET_BOXES = [((2,), (3, 3, 2, 4)), ((2,), (3, 4, 2, 4)),
                 ((2,), (4, 4, 2, 4)), ((2,), (4, 4, 3, 4)),
                 ((2, 2), (2, 3, 2, 3))]
_BUDGET_IDS = ["{}x{}-r{}-d{}".format(*box) if f == (2,) else
               "GF({})-{}x{}-r{}-d{}".format(make_field(*f).q, *box)
               for f, box in _BUDGET_BOXES]


@pytest.mark.parametrize("field,box", _BUDGET_BOXES, ids=_BUDGET_IDS)
def test_two_workers_give_the_serial_result_at_the_budget(field, box,
                                                          monkeypatch):
    # the budget falls one node before, at and one node after the serial
    # find, inside the first depth-1 candidate's tree or a later one's;
    # on the GF(4) tree, also inside runs that levels count in bulk
    _hand_off_at_once(monkeypatch)
    F = make_field(*field)
    nodes = search_constant_rank(F, *box).nodes_explored
    budgets = {nodes - 1, nodes, nodes + 1}
    if F.q == 4:
        budgets |= _budgets_in_bulk_runs(F, box, random.Random(4), 4,
                                         monkeypatch)
    for budget in sorted(budgets):
        for count_all in (False, True):
            kwargs = {"budget": budget, "count_all": count_all}
            serial = search_constant_rank(F, *box, **kwargs)
            multi = search_constant_rank(F, *box, workers=2, **kwargs)
            assert _summary(multi) == _summary(serial), (budget, count_all)


# Recorded from the search that entered every sibling with a compatible
# child: the found counts of the GF(2) 3x4 r2 d4 tree at budgets around
# its 481st find, at node 190,286.  At node 147,324 a block of siblings
# counts one in bulk before it enters another, so a bulk count out of its
# place moves the finds under the later sibling.  Its levels hold up to
# 1,470 codes, so with the tiny look-ahead their bulk counts are read from
# many chunks of codes.
_BULK_ORDER_PINS = [(155006, 480), (190285, 480), (190286, 481),
                    (400000, 843)]


@pytest.mark.parametrize("look_ahead", ["look-ahead", "tiny-look-ahead"])
def test_bulk_counts_keep_the_finds_in_place(gf2, look_ahead, monkeypatch):
    if look_ahead == "tiny-look-ahead":
        monkeypatch.setattr(search_mod, "_LOOK_AHEAD", _TINY_LOOK_AHEAD)
    witness = search_constant_rank(gf2, 3, 4, 2, 4).witness
    for budget, found in _BULK_ORDER_PINS:
        out = search_constant_rank(gf2, 3, 4, 2, 4, budget=budget,
                                   count_all=True)
        assert _summary(out) == (SearchStatus.BUDGET_EXCEEDED, witness,
                                 budget, found), budget


_CENSUS_GRID = {
    2: [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)],
    3: [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)],
}


def test_two_workers_give_the_serial_count_on_the_census_grid(monkeypatch):
    # the grid of acceptance criterion 9, traversed to the end, up to the
    # first dimension that exhausts: every higher one traverses that tree
    _hand_off_at_once(monkeypatch)
    for q, boxes in _CENSUS_GRID.items():
        F = make_field(q)
        for m, n in boxes:
            for r in range(1, m + 1):
                for dim in range(1, m * n + 1):
                    if gaussian_binomial(q, m * n, dim) > 10 ** 7:
                        continue
                    serial = search_constant_rank(F, m, n, r, dim,
                                                  count_all=True)
                    multi = search_constant_rank(F, m, n, r, dim,
                                                 count_all=True, workers=2)
                    assert _summary(multi) == _summary(serial), \
                        (q, m, n, r, dim)
                    if serial.status is SearchStatus.EXHAUSTED_NONE:
                        break


@pytest.mark.parametrize("field", [(3,), (3, 2)], ids=["GF(3)", "GF(9)"])
def test_engine_pickles_as_itself(field, monkeypatch):
    # a worker started by spawn or forkserver unpickles the built engine,
    # pool and rank table included; the field arrays of an odd
    # characteristic hold functions that do not pickle, so it keeps none
    F = make_field(*field)
    engine = search_mod._Engine(F, 2, 2, 2, 2, 100, True)
    copy = pickle.loads(pickle.dumps(engine))
    assert (copy.codes == engine.codes).all()
    assert (copy.table == engine.table).all()
    assert copy.run(0, len(copy.codes)) == engine.run(0, len(engine.codes))
    # the engine handed to the workers, pickled after the main process
    # stopped at its deadline, has none: a copy searches to the end and
    # returns the 4-tuple of a run
    _hand_off_at_once(monkeypatch)

    class Handed(Exception):
        pass

    def handed(*args, initargs, **kwargs):
        raise Handed(pickle.loads(pickle.dumps(initargs[0])))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", handed)
    box = (2, 3 if F.q == 3 else 2, 2, 2)
    with pytest.raises(Handed) as caught:
        search_constant_rank(F, *box, budget=10 ** 4, count_all=True,
                             workers=2)
    copy = caught.value.args[0]
    assert copy.deadline is None and copy.resume == 0
    whole = search_mod._Engine(F, *box, 10 ** 4, True).run(0, len(copy.codes))
    assert len(whole) == 4
    assert copy.run(0, len(copy.codes)) == whole
    assert copy.resume is None


def test_two_workers_give_the_serial_result_under_spawn(monkeypatch):
    # spawned workers unpickle the engine instead of inheriting it; the
    # GF(3) budget falls inside the tree (7,800 nodes in all)
    _hand_off_at_once(monkeypatch)
    monkeypatch.setattr(search_mod, "multiprocessing",
                        multiprocessing.get_context("spawn"))
    methods = []

    def recorded(*args, mp_context, **kwargs):
        methods.append(mp_context.get_start_method())
        return ProcessPoolExecutor(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded)
    for field, n, budget in (((3,), 3, 5000), ((3, 2), 2, 10 ** 6)):
        F = make_field(*field)
        kwargs = {"budget": budget, "count_all": True}
        serial = search_constant_rank(F, 2, n, 2, 2, **kwargs)
        multi = search_constant_rank(F, 2, n, 2, 2, workers=2, **kwargs)
        assert _summary(multi) == _summary(serial), field
    assert methods == ["spawn", "spawn"]


def test_small_searches_start_no_process(gf2, gf3, monkeypatch):
    # at the default deadline the main process decides these alone: each
    # takes a few milliseconds, far below it
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def refused(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
    for F, box, kwargs in ((gf2, (4, 4, 2, 4), {}),
                           (gf3, (2, 2, 2, 2), {"count_all": True})):
        serial = search_constant_rank(F, *box, **kwargs)
        multi = search_constant_rank(F, *box, workers=2, **kwargs)
        assert _summary(multi) == _summary(serial), box
    assert multiprocessing.active_children() == []


def _hand_off_at(call, seen):
    """An _Engine._past_deadline for a main process whose deadline passes
    at its call-th node count (never, if call is None); at each count it
    records in seen the top-level block boundary (depth-1 candidates
    finished, nodes) that a hand-off would resume from."""
    def past_deadline(self):
        seen.append(self.handed[:2])
        return len(seen) == call
    return past_deadline


# Budget of the searches that _check_resume_points runs; every tree of the
# census grid holds fewer nodes.
_RESUME_BUDGET = 10 ** 7


def _check_resume_points(F, box, count_all, monkeypatch, first=None):
    """Hand a two-worker search off from each top-level block boundary in
    turn, among the first _RESUME_BUDGET nodes (and the first `first`
    boundaries): at the first node count after the boundary, at budgets
    one node before, at and one after the boundary's node count and at
    _RESUME_BUDGET, and at the last count before the next boundary, once
    the main process has searched the whole next block, at
    _RESUME_BUDGET, its outcome is the serial one.  Returns the number
    of boundaries; a search of one depth-1 candidate runs in one process
    and has none."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(search_mod._Engine, "_past_deadline",
                      _hand_off_at(None, seen))
        engine = search_mod._Engine(F, *box, _RESUME_BUDGET, count_all)
        if len(engine.codes) < 2:
            return 0
        engine.deadline = 0.0   # the spy sees the node counts under a deadline
        engine.run(0, len(engine.codes))
    calls = {}   # boundary: the node counts that resume from it, 1-based
    for call, boundary in enumerate(seen, 1):
        calls.setdefault(boundary, []).append(call)
    serial = {}
    for (_, at), counts in list(calls.items())[:first]:
        runs = [(counts[0], budget) for budget in (at - 1, at, at + 1)
                if budget >= 1]
        runs += [(counts[0], _RESUME_BUDGET), (counts[-1], _RESUME_BUDGET)]
        for call, budget in dict.fromkeys(runs):
            kwargs = {"budget": budget, "count_all": count_all}
            if budget not in serial:
                serial[budget] = _summary(search_constant_rank(F, *box,
                                                               **kwargs))
            asked = []
            with monkeypatch.context() as patch:
                patch.setattr(search_mod._Engine, "_past_deadline",
                              _hand_off_at(call, asked))
                multi = search_constant_rank(F, *box, workers=2, **kwargs)
            if budget == _RESUME_BUDGET:   # the deadline passed
                assert asked == seen[:call]
            assert _summary(multi) == serial[budget], (at, call, budget)
    return len(list(calls)[:first])


def test_every_resume_point_gives_the_serial_result_on_the_census_grid(
        monkeypatch):
    # the grid of the two-worker census-grid parity, up to the first
    # dimension that exhausts; without count_all a find lies in the first
    # block, and an exhausted tree is the same with count_all
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    handed = 0
    for q, boxes in _CENSUS_GRID.items():
        F = make_field(q)
        for m, n in boxes:
            for r in range(1, m + 1):
                for dim in range(1, m * n + 1):
                    if gaussian_binomial(q, m * n, dim) > 10 ** 7:
                        continue
                    exhausted = search_constant_rank(F, m, n, r, dim).status \
                        is SearchStatus.EXHAUSTED_NONE
                    for count_all in (False,) if exhausted else (False, True):
                        handed += _check_resume_points(
                            F, (m, n, r, dim), count_all, monkeypatch)
                    if exhausted:
                        break
    assert handed >= 190


@pytest.mark.parametrize("field,box", _BUDGET_BOXES, ids=_BUDGET_IDS)
def test_first_resume_points_give_the_serial_result_at_the_budget(
        field, box, monkeypatch):
    # the --all trees of the larger boxes, at their first three boundaries
    # (the first before any depth-1 candidate); the first block of the 4x4
    # r2 tree holds 5.4 million nodes and that of the 4x4 r3 tree more than
    # 10^7; without count_all each search is decided in its first block
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    F = make_field(*field)
    handed = sum(_check_resume_points(F, box, count_all, monkeypatch,
                                      first=3)
                 for count_all in (False, True))
    assert handed == {(4, 4, 2, 4): 3, (4, 4, 3, 4): 2}.get(box, 4)


def test_resume_points_give_the_serial_result_under_spawn(monkeypatch):
    # spawned workers unpickle the engine the main process handed off, at
    # the first three of the eight boundaries of this tree, the first
    # before any depth-1 candidate and the last after all of them
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search_mod, "multiprocessing",
                        multiprocessing.get_context("spawn"))
    handed = _check_resume_points(make_field(3), (2, 3, 2, 2), True,
                                  monkeypatch, first=3)
    assert handed == 3


# batches that entered _run_batch after the stop flag was set, counted
# across the worker processes of one search
_late_batches = None


def _counted_batch(bounds):
    if search_mod._worker_engine.stop.value:
        _late_batches.value += 1
    return _run_batch(bounds)


def test_two_workers_cancel_the_batches_a_decided_search_skips(
        gf2, monkeypatch):
    # once a search is decided the batches not yet started are cancelled
    # and the running ones stop: at most one running and one queued per
    # worker, plus one more queued, enter after the flag; the workers end
    # of themselves and none is left behind
    _hand_off_at_once(monkeypatch)
    monkeypatch.setattr(search_mod, "_run_batch", _counted_batch)
    late = multiprocessing.RawValue("i", 0)
    monkeypatch.setattr(sys.modules[__name__], "_late_batches", late)
    budget_point = search_constant_rank(gf2, 3, 3, 2, 4).nodes_explored - 1
    runs = [
        ((4, 4, 2, 4), {}),                          # found in the first batch
        ((3, 3, 2, 4), {"budget": budget_point}),
        ((3, 3, 2, 4), {"count_all": True}),
        ((3, 3, 2, 5), {}),                          # exhausted
    ] + [((4, 4, 2, 4), {})] * 50
    for box, kwargs in runs:
        serial = search_constant_rank(gf2, *box, **kwargs)
        late.value = 0
        multi = search_constant_rank(gf2, *box, workers=2, **kwargs)
        assert _summary(multi) == _summary(serial), (box, kwargs)
        assert late.value <= 2 * 2 + 1, (box, kwargs, late.value)
        assert multiprocessing.active_children() == []


def _dying_batch(bounds):
    # the first batch handed to the workers, at the main process's resume
    # point, kills the worker that receives it
    if bounds[0] == search_mod._worker_engine.resume:
        os._exit(1)
    return _run_batch(bounds)


def test_a_dead_worker_breaks_the_search(gf2, monkeypatch):
    # the pool notices the lost worker instead of waiting for its batch
    _hand_off_at_once(monkeypatch)
    monkeypatch.setattr(search_mod, "_run_batch", _dying_batch)
    t0 = time.perf_counter()
    with pytest.raises(BrokenProcessPool):
        search_constant_rank(gf2, 3, 3, 2, 4, count_all=True, workers=2)
    assert time.perf_counter() - t0 < 10.0
    assert multiprocessing.active_children() == []


def test_witness_larger_than_the_enumeration_budget_is_verified():
    # the witness span has 2^32 elements, above the default enumeration
    # budget; verifying it ranks its 65,537 scalar classes
    F = make_field(2, 16)
    out = search_constant_rank(F, 1, 2, 1, 2)
    assert out.status is SearchStatus.FOUND
    assert out.witness.d == 2


def test_worker_count_is_capped_at_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert search_mod._worker_count(8, 100) == 2
    assert search_mod._worker_count(1, 100) == 1
    assert search_mod._worker_count(8, 0) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert search_mod._worker_count(8, 100) == 8
    assert search_mod._worker_count(8, 3) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert search_mod._worker_count(8, 100) == 1


# A look-ahead cap this small puts one sibling in most blocks and a few
# in some, so blocks split at many places in every level.
_TINY_LOOK_AHEAD = 64


_streamed_cases = pytest.mark.parametrize("field,m,n,r,dim,count_all", [
    ((2,), 3, 3, 2, 4, False),
    ((2,), 2, 3, 2, 3, True),
    ((3,), 2, 3, 2, 3, False),
    ((3,), 2, 2, 2, 2, True),
    ((2, 2), 2, 3, 2, 3, False),
    ((2, 2), 2, 2, 2, 2, True),
], ids=["GF(2)-find", "GF(2)-all", "GF(3)-find", "GF(3)-all", "GF(4)-find",
        "GF(4)-all"])


@_streamed_cases
def test_streamed_pool_matches_in_memory_pool(field, m, n, r, dim, count_all,
                                              monkeypatch):
    F = make_field(*field)
    pooled = search_constant_rank(F, m, n, r, dim, count_all=count_all)
    # Without a rank table, candidates and coset checks are ranked by
    # rank_batch: first with the candidates kept in memory (the cap
    # admits every scalar class but not every matrix), then streamed.
    classes = (F.q ** (m * n) - 1) // (F.q - 1)
    for cap, in_memory in ((classes, True), (1, False)):
        monkeypatch.setattr(search_mod, "POOL_CAP", cap)
        engine = search_mod._Engine(F, m, n, r, dim, 1, count_all)
        assert engine.table is None
        assert (engine.codes is not None) == in_memory
        out = search_constant_rank(F, m, n, r, dim, count_all=count_all)
        assert out.status is pooled.status is SearchStatus.FOUND
        assert out.witness == pooled.witness
        assert out.nodes_explored == pooled.nodes_explored
        assert out.found_count == pooled.found_count


@_streamed_cases
def test_streamed_pool_matches_in_tiny_blocks(field, m, n, r, dim, count_all,
                                             monkeypatch):
    monkeypatch.setattr(search_mod, "_LOOK_AHEAD", _TINY_LOOK_AHEAD)
    test_streamed_pool_matches_in_memory_pool(field, m, n, r, dim, count_all,
                                              monkeypatch)


def test_stream_handles_codes_wider_than_64_bits(gf2):
    # 8x8 codes run up to 2^64; the first two candidates form the span
    out = search_constant_rank(gf2, 8, 8, 1, 2)
    assert out.status is SearchStatus.FOUND
    assert out.nodes_explored == 2
    rows = [B.entries for B in out.witness.basis]
    assert rows == [(0,) * 63 + (1,), (0,) * 62 + (1, 0)]


def test_stream_ranks_few_candidates_before_an_early_find(gf2, monkeypatch):
    # candidates are ranked in chunks that double from 16, so the two-node
    # find ranks 16 candidates per depth and checks one chunk of 16; ranking
    # whole blocks of 4,096 codes took 6,158 matrices
    sizes = []
    rank_batch = search_mod.rank_batch

    def spy(field, matrices):
        sizes.append(len(matrices))
        return rank_batch(field, matrices)

    monkeypatch.setattr(search_mod, "rank_batch", spy)
    out = search_constant_rank(gf2, 8, 8, 1, 2)
    assert out.nodes_explored == 2
    assert sizes == [16, 16, 16]


# Recorded from the search before every field went through one engine on
# base-q codes, when fields other than GF(2) used a separate engine on
# entry tuples: (field, m, n, r, dim, count_all, budget) -> status, nodes,
# found_count and witness entries.
_NON_BINARY_PINS = [
    ((2, 2), 2, 2, 2, 2, False, None, "found", 6, 1,
     [(0, 1, 1, 0), (1, 0, 1, 2)]),
    ((2, 2), 2, 2, 2, 2, True, None, "found", 204, 72,
     [(0, 1, 1, 0), (1, 0, 1, 2)]),
    ((2, 2), 2, 2, 1, 3, True, None, "exhausted-none", 91, 0, None),
    ((2, 2), 2, 3, 2, 3, False, None, "found", 376, 1,
     [(0, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 0), (1, 0, 0, 0, 0, 2)]),
    ((2, 2), 2, 3, 2, 3, False, 375, "budget-exceeded", 375, 0, None),
    ((2, 2), 2, 3, 1, 3, True, None, "found", 1823, 5,
     [(0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0)]),
    ((2, 2), 2, 3, 2, 2, True, None, "found", 76860, 61992,
     [(0, 0, 1, 0, 1, 0), (0, 1, 0, 0, 1, 2)]),
    ((2, 2), 2, 3, 2, 3, True, 10000, "budget-exceeded", 10000, 2754,
     [(0, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 0), (1, 0, 0, 0, 0, 2)]),
    ((5,), 2, 2, 2, 2, False, None, "found", 3, 1,
     [(0, 1, 1, 0), (1, 0, 0, 2)]),
    ((5,), 2, 2, 2, 2, True, None, "found", 520, 200,
     [(0, 1, 1, 0), (1, 0, 0, 2)]),
    ((5,), 2, 2, 2, 3, False, None, "exhausted-none", 520, 0, None),
    ((5,), 2, 3, 2, 3, False, None, "found", 1229, 1,
     [(0, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 0), (1, 0, 0, 0, 1, 2)]),
    ((5,), 2, 3, 2, 3, False, 500, "budget-exceeded", 500, 0, None),
    ((5,), 2, 3, 1, 2, True, None, "found", 2697, 217,
     [(0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0)]),
    ((5,), 2, 3, 2, 2, True, 30000, "budget-exceeded", 30000, 25375,
     [(0, 0, 1, 0, 1, 0), (0, 1, 0, 0, 0, 2)]),
]


# Recorded from the stream when it still checked and counted one node at
# a time, with the real POOL_CAP: these shapes have more scalar classes
# than the cap, and their children run over many head blocks.
_STREAM_PINS = [
    ((3,), 4, 4, 3, 3, False, None, "found", 1824, 1,
     [(0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0),
      (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 1, 0, 0, 0),
      (0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1)]),
    ((2,), 5, 5, 2, 3, False, None, "found", 10, 1,
     [(0,) * 19 + (1, 0, 0, 0, 1, 0),
      (0,) * 18 + (1, 0, 0, 0, 0, 1, 1),
      (0,) * 17 + (1, 0, 0, 0, 1, 0, 0, 0)]),
    ((2, 2), 3, 4, 2, 3, False, None, "found", 67, 1,
     [(0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0),
      (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 2),
      (0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0)]),
    ((3,), 4, 4, 3, 4, False, 20000, "found", 3053, 1,
     [(0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0),
      (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 1, 0, 0, 0),
      (0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1),
      (0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 2)]),
]


def _pinned(pins):
    return pytest.mark.parametrize(
        "field,m,n,r,dim,count_all,budget,status,nodes,found,witness", pins,
        ids=[f"GF({make_field(*f).q})-{m}x{n}-r{r}-d{d}-"
             + ("all" if a else "find") + ("" if b is None else f"-budget{b}")
             for f, m, n, r, d, a, b, *_ in pins])


_pins = _pinned(_NON_BINARY_PINS)


@_pins
def test_non_binary_accounting_is_pinned(field, m, n, r, dim, count_all,
                                         budget, status, nodes, found,
                                         witness, monkeypatch):
    _hand_off_at_once(monkeypatch)
    kwargs = {"count_all": count_all}
    if budget is not None:
        kwargs["budget"] = budget
    for workers in (1, 2):
        out = search_constant_rank(make_field(*field), m, n, r, dim,
                                   workers=workers, **kwargs)
        assert out.status.value == status, workers
        assert out.nodes_explored == nodes, workers
        assert out.found_count == found, workers
        got = (None if out.witness is None
               else [B.entries for B in out.witness.basis])
        assert got == witness, workers


@_pins
def test_non_binary_pins_hold_in_tiny_blocks(field, m, n, r, dim, count_all,
                                            budget, status, nodes, found,
                                            witness, monkeypatch):
    monkeypatch.setattr(search_mod, "_LOOK_AHEAD", _TINY_LOOK_AHEAD)
    test_non_binary_accounting_is_pinned(field, m, n, r, dim, count_all,
                                         budget, status, nodes, found,
                                         witness, monkeypatch)


@_pinned(_STREAM_PINS)
def test_stream_accounting_is_pinned(field, m, n, r, dim, count_all, budget,
                                     status, nodes, found, witness,
                                     monkeypatch):
    engine = search_mod._Engine(make_field(*field), m, n, r, dim, 1,
                                count_all)
    assert engine.codes is None
    test_non_binary_accounting_is_pinned(field, m, n, r, dim, count_all,
                                         budget, status, nodes, found,
                                         witness, monkeypatch)


def test_census_grid_parity_holds_in_tiny_blocks(monkeypatch):
    monkeypatch.setattr(search_mod, "_LOOK_AHEAD", _TINY_LOOK_AHEAD)
    test_two_workers_give_the_serial_count_on_the_census_grid(monkeypatch)


def _outcome(out):
    witness = (None if out.witness is None
               else [B.entries for B in out.witness.basis])
    return out.status.value, witness, out.nodes_explored, out.found_count


# Boxes small enough for the naive reference; two per field are drawn by a
# seeded generator.
_REFERENCE_SEARCH_BOXES = [
    ((2,), [(2, 3, 2, 3), (3, 3, 1, 3), (2, 4, 1, 3), (2, 3, 1, 4),
            (3, 3, 2, 3)]),
    ((3,), [(2, 2, 2, 2), (2, 3, 1, 3), (1, 4, 1, 3), (2, 3, 1, 2)]),
    ((2, 2), [(2, 2, 2, 2), (2, 3, 1, 2), (1, 4, 1, 3), (2, 2, 1, 3)]),
    ((5,), [(2, 2, 2, 2), (1, 4, 1, 3), (2, 2, 1, 2)]),
    ((7,), [(2, 2, 1, 2), (1, 3, 1, 3), (2, 2, 2, 2)]),
    ((3, 2), [(1, 3, 1, 2), (1, 3, 1, 3), (2, 2, 1, 2)]),
]


# The pool; the stream; and the stream in blocks of at most 8 codes (or q),
# whose candidates run over many head blocks, so that pivot digits fall
# in the head.
_SEARCH_PATHS = {"pool": {}, "stream": {"POOL_CAP": 1},
                 "stream-blocks-of-8": {"POOL_CAP": 1, "_BLOCK": 8}}


@pytest.mark.parametrize("path", _SEARCH_PATHS)
@pytest.mark.parametrize(
    "field,boxes", _REFERENCE_SEARCH_BOXES,
    ids=[f"GF({make_field(*f).q})" for f, _ in _REFERENCE_SEARCH_BOXES])
def test_search_matches_the_naive_reference(field, boxes, path, monkeypatch):
    # at budget 1, at the node count and one either side, and at seeded
    # points inside the tree, with one worker and two
    _hand_off_at_once(monkeypatch)
    for name, value in _SEARCH_PATHS[path].items():
        monkeypatch.setattr(search_mod, name, value)
    F = make_field(*field)
    R = reference.Field(F.p, F.e, F.modulus)
    rng = random.Random(f"reference search {F.q}")
    for box in rng.sample(boxes, 2):
        for count_all in (False, True):
            nodes = reference.search(R, *box, 10 ** 9, count_all)[2]
            budgets = {1, nodes - 1, nodes, nodes + 1}
            budgets |= {rng.randint(1, nodes) for _ in range(3)}
            for budget in sorted(b for b in budgets if b >= 1):
                expected = reference.search(R, *box, budget, count_all)
                for workers in (1, 2):
                    out = search_constant_rank(F, *box, budget=budget,
                                               count_all=count_all,
                                               workers=workers)
                    assert _outcome(out) == expected, \
                        (box, count_all, budget, workers)


def _budgets_in_bulk_runs(F, box, rng, k, monkeypatch, batched=False):
    """Budgets strictly inside k runs, drawn by rng, of two or more nodes
    that one _count call counts in a serial --all search of the box: runs
    of a level above the last two depths, where the siblings it does not
    enter lie with their children and grandchildren, or with batched
    those of a level whose batch holds two or more chains, where a run
    can end in one chain and go on in the next."""
    levels, runs = [], []
    level, count = search_mod._Engine._level, search_mod._Engine._count

    def spy_level(self, depth, codes, supports, leads, kid, *args):
        levels.append(len(kid) > 1 if batched
                      else depth + 2 < self.target_dim)
        level(self, depth, codes, supports, leads, kid, *args)
        levels.pop()

    def spy_count(self, nodes):
        if levels and levels[-1] and nodes > 1:
            runs.append((self.nodes, self.nodes + int(nodes)))
        count(self, nodes)

    with monkeypatch.context() as patch:
        patch.setattr(search_mod._Engine, "_level", spy_level)
        patch.setattr(search_mod._Engine, "_count", spy_count)
        search_constant_rank(F, *box, count_all=True)
    assert runs
    return {rng.randrange(lo + 1, hi)
            for lo, hi in rng.sample(runs, min(k, len(runs)))}


# Boxes whose levels leave siblings with compatible children unentered,
# to be counted in bulk: the first five have such siblings with two or
# more compatible children, and the rank-1 trees of dimension 4 many with
# exactly one.  Those trees exhaust, so only a find is run on them.
_BULK_BOXES = [((2,), (2, 3, 2, 3)), ((2,), (3, 3, 1, 3)),
               ((2,), (2, 4, 1, 3)), ((3,), (2, 3, 1, 3)),
               ((3,), (2, 2, 2, 3)), ((2,), (2, 3, 1, 4)),
               ((2,), (3, 3, 1, 4)), ((3,), (2, 3, 1, 4)),
               ((2, 2), (2, 3, 1, 4))]


@pytest.mark.parametrize("look_ahead", ["look-ahead", "tiny-look-ahead"])
@pytest.mark.parametrize(
    "field,box", _BULK_BOXES,
    ids=["GF({})-{}x{}-r{}-d{}".format(make_field(*f).q, *box)
         for f, box in _BULK_BOXES])
def test_siblings_counted_in_bulk_match_the_naive_reference(
        field, box, look_ahead, monkeypatch):
    # at budget 1, at the node count and one either side, at seeded points
    # inside the tree and inside runs counted in bulk, with one worker and
    # two
    _hand_off_at_once(monkeypatch)
    if look_ahead == "tiny-look-ahead":
        monkeypatch.setattr(search_mod, "_LOOK_AHEAD", _TINY_LOOK_AHEAD)
    F = make_field(*field)
    R = reference.Field(F.p, F.e, F.modulus)
    rng = random.Random(f"bulk {F.q} {box} {look_ahead}")
    # runs of the whole tree: a find stops inside it
    in_runs = _budgets_in_bulk_runs(F, box, rng, 3, monkeypatch)
    for count_all in (False, True) if box[3] < 4 else (False,):
        nodes = reference.search(R, *box, 10 ** 9, count_all)[2]
        budgets = {1, nodes - 1, nodes, nodes + 1, rng.randint(1, nodes)}
        for budget in sorted(b for b in budgets | in_runs if b >= 1):
            expected = reference.search(R, *box, budget, count_all)
            for workers in (1, 2):
                out = search_constant_rank(F, *box, budget=budget,
                                           count_all=count_all,
                                           workers=workers)
                assert _outcome(out) == expected, (count_all, budget, workers)


# Boxes whose levels take batches of two or more chains: the siblings
# that one block of a level enters are searched together.  Most of their
# finds lie under the second or a later chain of a batch (19,872 of
# 22,560 in the first box); the first find of each lies under the first.
_BATCH_BOXES = [((2,), (2, 4, 2, 3)), ((2,), (3, 3, 1, 3)),
                ((3,), (2, 3, 2, 3)), ((2, 2), (2, 3, 1, 3))]


@pytest.mark.parametrize(
    "field,box", _BATCH_BOXES,
    ids=["GF({})-{}x{}-r{}-d{}".format(make_field(*f).q, *box)
         for f, box in _BATCH_BOXES])
def test_batched_levels_match_the_naive_reference(field, box, monkeypatch):
    # at budgets strictly inside runs that a batched level counts in one
    # call, and at and one node before seeded finds of the --all search,
    # which the nodes counted before each chain of a batch put in place;
    # with and without count_all, with one worker and two
    _hand_off_at_once(monkeypatch)
    F = make_field(*field)
    R = reference.Field(F.p, F.e, F.modulus)
    rng = random.Random(f"batch {F.q} {box}")
    found_at = array("q")
    engine = search_mod._Engine(F, *box, 10 ** 9, True)
    engine.run(0, len(engine.codes), found_at)
    budgets = _budgets_in_bulk_runs(F, box, rng, 4, monkeypatch, batched=True)
    for at in rng.sample(list(found_at), min(4, len(found_at))):
        budgets |= {at - 1, at}
    for budget in sorted(budgets):
        for count_all in (False, True):
            expected = reference.search(R, *box, budget, count_all)
            for workers in (1, 2):
                out = search_constant_rank(F, *box, budget=budget,
                                           count_all=count_all,
                                           workers=workers)
                assert _outcome(out) == expected, (count_all, budget, workers)


# Whole trees that the search_oracle benchmark walks: the node count and
# the most _level calls.  A sibling is entered only when a compatible
# child of it has a later compatible child that misses that child's lead,
# and the siblings one block of a level enters are searched in one call;
# a call per entered sibling took 679, 679, 61 and 25 calls, and entering
# every sibling with a compatible child 2,335, 2,311, 301 and 529.
_WORK_PINS = [((2,), (3, 3, 2, 5), False, 160982, 51),
              ((2,), (3, 3, 2, 4), True, 160022, 51),
              ((2, 2), (2, 3, 2, 3), True, 253980, 9),
              ((3,), (2, 3, 2, 4), False, 18600, 5)]


@pytest.mark.parametrize(
    "field,box,count_all,nodes,calls", _WORK_PINS,
    ids=["GF({})-{}x{}-r{}-d{}".format(make_field(*f).q, *box)
         + ("-all" if a else "") for f, box, a, *_ in _WORK_PINS])
def test_levels_entered_are_pinned(field, box, count_all, nodes, calls,
                                   monkeypatch):
    entered = []
    level = search_mod._Engine._level

    def spy(self, depth, *args):
        entered.append(depth)
        level(self, depth, *args)

    monkeypatch.setattr(search_mod._Engine, "_level", spy)
    out = search_constant_rank(make_field(*field), *box, count_all=count_all)
    assert out.nodes_explored == nodes
    assert len(entered) <= calls


# GF(2) boxes of the search_oracle benchmark and a large pool, with their
# budgets and the tracemalloc peaks (MB) of a search before levels took
# batches of chains; a batch must not cost more memory than its chains
# searched one at a time.
_MEMORY_PINS = [((4, 4, 2, 5), 2 * 10 ** 6, 0.95),
                ((4, 5, 3, 3), 2 * 10 ** 5, 24.2)]


@pytest.mark.parametrize(
    "box,budget,peak_mb", _MEMORY_PINS,
    ids=["{}x{}-r{}-d{}".format(*box) for box, *_ in _MEMORY_PINS])
def test_search_memory_is_pinned(gf2, box, budget, peak_mb):
    # the first search builds the rank table, which outlives it
    search_constant_rank(gf2, *box, budget=budget)
    tracemalloc.start()
    try:
        search_constant_rank(gf2, *box, budget=budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * peak_mb * 2 ** 20


def test_search_validation(gf2):
    with pytest.raises(ShapeViolation):
        search_constant_rank(gf2, 2, 2, 3, 1)
    with pytest.raises(ShapeViolation):
        search_constant_rank(gf2, 2, 2, 0, 1)
    with pytest.raises(ShapeViolation):
        search_constant_rank(gf2, 2, 2, 1, 0)
    with pytest.raises(ValueError):
        search_constant_rank(gf2, 2, 2, 1, 1, budget=0)
    with pytest.raises(ValueError):
        search_constant_rank(gf2, 2, 2, 1, 1, workers=0)


def test_census_frozen_values(gf2, gf3, gf4, gf5):
    assert brute_force_census(gf2, 1, 1, 1, 1) == 1
    assert brute_force_census(gf2, 2, 2, 2, 1) == 6      # |GL_2(F_2)|
    assert brute_force_census(gf3, 2, 2, 2, 1) == 24     # 48 / (3 - 1)
    assert brute_force_census(gf2, 2, 2, 1, 1) == 9
    assert brute_force_census(gf2, 3, 3, 2, 1) == 294
    assert brute_force_census(gf2, 3, 3, 3, 1) == 168
    assert brute_force_census(gf2, 3, 3, 1, 3) == 14
    assert brute_force_census(gf2, 3, 3, 2, 4) == 1176
    assert brute_force_census(gf2, 3, 3, 2, 5) == 0
    assert brute_force_census(gf2, 2, 2, 1, 5) == 0      # dim beyond m*n
    assert brute_force_census(gf4, 2, 3, 2, 3) == 57600
    assert brute_force_census(gf5, 2, 3, 2, 2) == 378200


_SMALL_SHAPES = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3))
_DIMENSION_ONE = [
    ((2,), _SMALL_SHAPES), ((3,), _SMALL_SHAPES), ((2, 2), _SMALL_SHAPES),
    ((5,), _SMALL_SHAPES), ((7,), _SMALL_SHAPES), ((2, 3), _SMALL_SHAPES),
    ((3, 2), _SMALL_SHAPES), ((257,), ((1, 2),)), ((2, 9), ((1, 2),)),
]


@pytest.mark.parametrize(
    "field,shapes", _DIMENSION_ONE,
    ids=[f"GF({make_field(*f).q})" for f, _ in _DIMENSION_ONE])
def test_census_dimension_one_counts_scalar_classes(field, shapes):
    # one-dimensional spans of constant rank r are projective classes of
    # rank r matrices, so q - 1 matrices per span; there are
    # N_r = prod_{i<r} (q^m - q^i)(q^n - q^i) / (q^r - q^i) of those
    F = make_field(*field)
    q = F.q
    for m, n in shapes:
        for r in range(1, m + 1):
            matrices = 1
            for i in range(r):
                matrices *= (q ** m - q ** i) * (q ** n - q ** i)
                matrices //= q ** r - q ** i
            assert brute_force_census(F, m, n, r, 1) == matrices // (q - 1), \
                (m, n, r)


@functools.lru_cache(maxsize=None)
def _reference_census(field, m, n, dim):
    """{r: number of dim-dimensional constant rank r spans}.

    Every dim-subset of nonzero m-by-n matrices spans the set of its
    element codes; the spans of independent subsets are deduplicated and
    their elements ranked by plain elimination.
    """
    F = make_field(*field)
    q = F.q
    vectors = list(itertools.product(range(q), repeat=m * n))
    code = {v: i for i, v in enumerate(vectors)}
    rank = [ref_rank(F, [v[i * n:(i + 1) * n] for i in range(m)])
            for v in vectors]
    add = [[code[tuple(map(F.add, u, v))] for v in vectors] for u in vectors]
    scale = [[code[tuple(F.mul(c, x) for x in v)] for v in vectors]
             for c in range(q)]
    spans = set()
    for basis in itertools.combinations(range(1, len(vectors)), dim):
        span = {0}
        for b in basis:
            span = {add[s][scale[c][b]] for s in span for c in range(q)}
        if len(span) == q ** dim:
            spans.add(frozenset(span))
    counts = collections.Counter()
    for span in spans:
        ranks = {rank[x] for x in span if x}
        if len(ranks) == 1:
            counts[ranks.pop()] += 1
    return counts


# (field, m, n, largest dimension checked)
_REFERENCE_BOXES = [
    ((2,), 1, 3, 3), ((2,), 2, 2, 4), ((2,), 2, 3, 3),
    ((3,), 1, 3, 3), ((3,), 2, 2, 2),
    ((2, 2), 1, 3, 2), ((2, 2), 2, 2, 2),
    ((5,), 1, 3, 2),
    ((7,), 1, 2, 2), ((7,), 1, 3, 1),
    # odd-extension addition, and multiples x != 1 in combinations
    ((3, 2), 1, 2, 2), ((3,), 1, 4, 2),
]


@pytest.mark.parametrize("path", ["as-is", "no-table", "block-4"])
@pytest.mark.parametrize(
    "field,m,n,max_dim", _REFERENCE_BOXES,
    ids=[f"GF({make_field(*f).q})-{m}x{n}" for f, m, n, _ in _REFERENCE_BOXES])
def test_census_matches_reference(field, m, n, max_dim, path, monkeypatch):
    if path == "no-table":
        # digit rows ranked by rank_batch, also in characteristic 2
        monkeypatch.setattr(search_mod, "POOL_CAP", 1)
        monkeypatch.setattr(search_mod, "_rank_table", None)
    elif path == "block-4":
        # a pivot pattern's assignments split across blocks
        monkeypatch.setattr(search_mod, "_CENSUS_BLOCK", 4)
    F = make_field(*field)
    for dim in range(1, max_dim + 1):
        expected = _reference_census(field, m, n, dim)
        for r in range(1, m + 1):
            assert brute_force_census(F, m, n, r, dim) == expected[r], (r, dim)


def _closed_form_check(F, m, n, r, dim, expected, monkeypatch):
    if reference.gaussian_binomial(F.q, m * n, dim) <= DEFAULT_CENSUS_BUDGET:
        assert brute_force_census(F, m, n, r, dim) == expected
    _hand_off_at_once(monkeypatch)
    for workers in (1, 2):
        out = search_constant_rank(F, m, n, r, dim, count_all=True,
                                   workers=workers)
        assert out.status is not SearchStatus.BUDGET_EXCEEDED
        assert out.found_count == expected, workers


# (field, m, n, dim); the census refuses the last four boxes
_RANK_ONE_BOXES = [
    ((2,), 1, 3, 2), ((2,), 2, 3, 2), ((2,), 3, 3, 2), ((2,), 2, 4, 3),
    ((3,), 2, 3, 3), ((5,), 2, 3, 1), ((2, 2), 2, 2, 2), ((3, 2), 2, 2, 2),
    ((2,), 4, 4, 3), ((2,), 3, 5, 3), ((3,), 3, 3, 3), ((2, 2), 3, 3, 2),
]


@pytest.mark.parametrize(
    "field,m,n,dim", _RANK_ONE_BOXES,
    ids=[f"GF({make_field(*f).q})-{m}x{n}-d{d}" for f, m, n, d in _RANK_ONE_BOXES])
def test_rank_one_count_matches_the_closed_form(field, m, n, dim,
                                                 monkeypatch):
    F = make_field(*field)
    expected = reference.rank_one_count(F.q, m, n, dim)
    _closed_form_check(F, m, n, 1, dim, expected, monkeypatch)


_PLANE_FIELDS = [(2,), (3,), (2, 2), (5,), (7,), (3, 2), (13,)]


@pytest.mark.parametrize("field", _PLANE_FIELDS,
                         ids=[f"GF({make_field(*f).q})" for f in _PLANE_FIELDS])
def test_invertible_plane_count_matches_the_closed_form(field, monkeypatch):
    F = make_field(*field)
    expected = reference.invertible_plane_count(F.q)
    _closed_form_check(F, 2, 2, 2, 2, expected, monkeypatch)


def test_census_memory_is_bounded_by_the_block(gf2, monkeypatch):
    # the largest pivot pattern keeps 172,800 products of rank-2 basis
    # matrices, 43 blocks here; laying them out at once peaks near 7 MB
    monkeypatch.setattr(search_mod, "_CENSUS_BLOCK", 1 << 12)
    tracemalloc.start()
    try:
        assert brute_force_census(gf2, 3, 3, 2, 4) == 1176
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_census_ranks_basis_matrices_in_blocks():
    # without a rank table: ranking the 7^7 matrices of the first pivot
    # pattern at once peaks near 130 MB
    F = make_field(7)
    tracemalloc.start()
    try:
        assert brute_force_census(F, 2, 4, 1, 1) == 3200
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_census_calls_rank_batch_on_blocks(monkeypatch):
    # both stages, without a rank table: the largest factor has 81
    # matrices and the largest pattern 5,184 products
    F = make_field(3)
    expected = brute_force_census(F, 2, 3, 2, 2)
    sizes = []
    rank_batch = search_mod.rank_batch

    def spy(field, codes):
        sizes.append(len(codes))
        return rank_batch(field, codes)

    monkeypatch.setattr(search_mod, "POOL_CAP", 1)
    monkeypatch.setattr(search_mod, "_rank_table", None)
    monkeypatch.setattr(search_mod, "_CENSUS_BLOCK", 64)
    monkeypatch.setattr(search_mod, "rank_batch", spy)
    assert brute_force_census(F, 2, 3, 2, 2) == expected
    assert max(sizes) == 64


def test_census_budget(gf2):
    with pytest.raises(BudgetExceeded):
        brute_force_census(gf2, 3, 3, 1, 4, budget=10)


def test_census_validation(gf2):
    with pytest.raises(ShapeViolation):
        brute_force_census(gf2, 2, 2, 3, 1)
    with pytest.raises(ShapeViolation):
        brute_force_census(gf2, 2, 2, 1, 0)


def test_outcome_reports_elapsed_time(gf2):
    out = search_constant_rank(gf2, 2, 2, 1, 2)
    assert out.elapsed >= 0.0
    assert out.status.value in ("found", "exhausted-none", "budget-exceeded")
