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


def test_parallel_find_stops_the_chunks_after_it(gf2):
    # the witness lies under the first depth-1 candidate; the second
    # candidate's tree takes minutes, so this only returns in time if the
    # worker running it is stopped
    base = search_constant_rank(gf2, 4, 4, 3, 5)
    t0 = time.perf_counter()
    multi = search_constant_rank(gf2, 4, 4, 3, 5, workers=2)
    assert time.perf_counter() - t0 < 30.0
    assert multi.status is base.status is SearchStatus.FOUND
    assert multi.witness == base.witness
    assert multi.nodes_explored == base.nodes_explored == 10680


def _summary(out):
    return out.status, out.witness, out.nodes_explored, out.found_count


@pytest.mark.parametrize("box", [(3, 3, 2, 4), (3, 4, 2, 4), (4, 4, 2, 4),
                                 (4, 4, 3, 4)],
                         ids=lambda box: "{}x{}-r{}-d{}".format(*box))
def test_two_workers_give_the_serial_result_at_the_budget(gf2, box,
                                                          monkeypatch):
    # the budget falls one node before, at and one node after the serial
    # find, inside the first depth-1 candidate's tree or a later one's
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    nodes = search_constant_rank(gf2, *box).nodes_explored
    for budget in (nodes - 1, nodes, nodes + 1):
        for count_all in (False, True):
            kwargs = {"budget": budget, "count_all": count_all}
            serial = search_constant_rank(gf2, *box, **kwargs)
            multi = search_constant_rank(gf2, *box, workers=2, **kwargs)
            assert _summary(multi) == _summary(serial), (budget, count_all)


def test_two_workers_give_the_serial_count_on_the_census_grid(monkeypatch):
    # the grid of acceptance criterion 9, traversed to the end, up to the
    # first dimension that exhausts: every higher one traverses that tree
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    shapes = {
        2: [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)],
        3: [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)],
    }
    for q, boxes in shapes.items():
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
def test_engine_pickles_as_itself(field):
    # a worker started by spawn or forkserver unpickles the built engine,
    # pool and rank table included; the field arrays of an odd
    # characteristic hold functions that do not pickle, so it keeps none
    engine = search_mod._Engine(make_field(*field), 2, 2, 2, 2, 100, True)
    copy = pickle.loads(pickle.dumps(engine))
    assert (copy.codes == engine.codes).all()
    assert (copy.table == engine.table).all()
    assert copy.run(0, len(copy.codes)) == engine.run(0, len(engine.codes))


def test_two_workers_give_the_serial_result_under_spawn(monkeypatch):
    # spawned workers unpickle the engine instead of inheriting it; the
    # GF(3) budget falls inside the tree (7,800 nodes in all)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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
    if bounds[0] == 1:
        os._exit(1)
    return _run_batch(bounds)


def test_a_dead_worker_breaks_the_search(gf2, monkeypatch):
    # the pool notices the lost worker instead of waiting for its batch
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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


_pins = pytest.mark.parametrize(
    "field,m,n,r,dim,count_all,budget,status,nodes,found,witness",
    _NON_BINARY_PINS,
    ids=[f"GF({make_field(*f).q})-{m}x{n}-r{r}-d{d}-"
         + ("all" if a else "find") + ("" if b is None else f"-budget{b}")
         for f, m, n, r, d, a, b, *_ in _NON_BINARY_PINS])


@_pins
def test_non_binary_accounting_is_pinned(field, m, n, r, dim, count_all,
                                         budget, status, nodes, found,
                                         witness, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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


@pytest.mark.parametrize(
    "field,boxes", _REFERENCE_SEARCH_BOXES,
    ids=[f"GF({make_field(*f).q})" for f, _ in _REFERENCE_SEARCH_BOXES])
def test_search_matches_the_naive_reference(field, boxes, monkeypatch):
    # at budget 1, at the node count and one either side, and at seeded
    # points inside the tree, with one worker and two
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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


# Exhausted rank-1 trees of dimension 4, whose siblings often have
# exactly one compatible child: such a sibling is counted with its
# children and grandchildren without being entered.
_LONE_CHILD_BOXES = [((2,), 2, 3), ((2,), 3, 3), ((3,), 2, 3), ((2, 2), 2, 3)]


@pytest.mark.parametrize(
    "field,m,n", _LONE_CHILD_BOXES,
    ids=[f"GF({make_field(*f).q})-{m}x{n}" for f, m, n in _LONE_CHILD_BOXES])
def test_lone_compatible_children_match_the_naive_reference(field, m, n):
    F = make_field(*field)
    R = reference.Field(F.p, F.e, F.modulus)
    box = (m, n, 1, 4)
    nodes = reference.search(R, *box, 10 ** 9, False)[2]
    for budget in (nodes - 1, nodes):
        out = search_constant_rank(F, *box, budget=budget)
        assert _outcome(out) == reference.search(R, *box, budget, False)


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
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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


def test_census_memory_is_bounded_by_the_block(gf2):
    # laying out all 2^20 assignments of a pivot pattern at once needs
    # about 37 MB here
    tracemalloc.start()
    try:
        assert brute_force_census(gf2, 3, 3, 1, 5) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


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
