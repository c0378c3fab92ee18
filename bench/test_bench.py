"""Tests of the benchmark itself: seeding, oracles, tracing arithmetic and
the worker cap.  They start no worker processes.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import constrank  # noqa: E402
import jobs  # noqa: E402
import naive  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

F2, F3 = constrank.make_field(2), constrank.make_field(3)
COUNTS = jobs.json.loads(jobs.CENSUS_COUNTS.read_text())

# Workloads whose set-up is quick enough for a unit test.
QUICK = ("span_family", "lemma_family", "search_oracle")


def keys(workload, seed, tmp_path):
    wl = jobs.build(workload, seed, tmp_path / f"{workload}-{seed}")
    return [job.key for job in wl.jobs]


@pytest.mark.parametrize("workload", QUICK)
def test_seed_fixes_the_job_list(workload, tmp_path):
    first = keys(workload, 1, tmp_path)
    assert keys(workload, 1, tmp_path / "again") == first
    assert keys(workload, 2, tmp_path) != first


def test_worker_count_never_exceeds_cores(monkeypatch):
    for cores, expected in ((None, 1), (1, 1), (2, 2), (64, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert jobs.worker_count() == expected
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    wl = jobs.build("search_oracle", 1, Path("unused"))
    asked = [int(k.split("workers=")[1].split()[0]) for k in
             (job.key for job in wl.jobs) if "workers=" in k]
    assert asked and max(asked) == 1


def entries_of(S):
    return [B.entries for B in S.basis]


def good_summary(job, results=None):
    summary = job.summarize(job.call())
    assert job.check(summary, results or {}) is None
    return summary


def rejects(job, summary, results=None):
    return job.check(summary, results or {}) is not None


def test_span_family_oracles_reject_wrong_answers():
    S = constrank.truncated_construction(F3, 2, 3, 2)
    rng = random.Random(0)

    job = jobs._construct_chain_job(constrank, F3, 2, 3, 2)
    basis, counts, ok, witness = good_summary(job)
    assert rejects(job, (basis[:-1], counts, ok, witness))
    assert rejects(job, (basis, (0, 1) + counts[2:], ok, witness))
    assert rejects(job, (basis, counts, False, basis[0]))
    assert rejects(job, ((basis[0], basis[0]) + basis[2:], counts, ok, witness))

    job = jobs._profile_verify_job(constrank, jobs._basis_change(constrank, S, rng), 2)
    counts, ok, witness = good_summary(job)
    assert rejects(job, ((0, 26, 0), ok, witness))
    assert rejects(job, (counts, False, (1, 0, 0, 0, 0, 0)))

    P, first = jobs._perturb(constrank, S, 2, rng)
    job = jobs._perturbed_job(constrank, P, 2)
    ok, witness = good_summary(job)
    assert rejects(job, (True, None))
    assert rejects(job, (False, None))
    later = tuple(F3.mul(2, x) for x in witness)      # same class, later
    assert rejects(job, (False, later))
    rank2 = next(B.entries for B in P.basis if B.rank() == 2)
    assert rejects(job, (False, rank2))
    assert rejects(job, (False, (1, 0, 0, 0, 0, 0)))  # not in the span
    assert naive.lex_index(3, naive.coordinates(F3, entries_of(P), witness)) == first


def cli_jobs(S, r, tmp_path, expect_lemma=True):
    path = tmp_path / "span.txt"
    path.write_text(S.to_text(), encoding="ascii")
    q, n, d = S.field.q, S.n, S.d
    args = ["--input", str(path), "--json"]
    lemma = jobs._lemma_job(constrank, ["lemma-check"] + args, "t", q, n, r, d,
                            None, expect_lemma)
    counting = jobs._counting_job(constrank, ["counting"] + args, "t", q, n, r, d)
    return lemma, counting


def test_lemma_family_oracles_reject_wrong_answers(tmp_path):
    S = constrank.truncated_construction(F3, 2, 3, 2)
    lemma, counting = cli_jobs(S, 2, tmp_path)
    code, rep = good_summary(lemma)
    for name, value in (("lemma1_holds", False), ("violations", 1),
                        ("elements_checked", rep["elements_checked"] - 1),
                        ("triples_checked", rep["triples_checked"] + 1),
                        ("max_rank", 1)):
        assert rejects(lemma, (code, {**rep, name: value})), name
    assert rejects(lemma, (1, rep))

    code, rep = good_summary(counting)
    assert rejects(counting, (code, {**rep, "omega_vectors": rep["omega_vectors"] + 1}))
    assert rejects(counting, (code, {**rep, "omega_elements": 0, "omega_vectors": 0}))
    assert rejects(counting, (2, rep))

    G = constrank.SubspaceBasis([constrank.MatGF(F2, 3, 3, e)
                                 for e in jobs.GF2_COUNTEREXAMPLE])
    counter, _ = cli_jobs(G, 2, tmp_path, expect_lemma=False)
    code, rep = good_summary(counter)
    assert code == 1 and rep["lemma1_holds"] is False
    assert rejects(counter, (0, {**rep, "lemma1_holds": True, "violations": 0}))


def test_batch_names_the_failing_part():
    parts = [jobs._census_job(constrank, F3, 2, 2, 1, dim, COUNTS) for dim in (1, 2)]
    batch = jobs._batch(parts)
    summary = good_summary(batch)
    problem = batch.check((summary[0], summary[1] + 1), {})
    assert problem.startswith(parts[1].key)


def test_search_oracles_reject_wrong_answers():
    find = jobs._search_job(constrank, F2, 2, 2, 1, 2, COUNTS)
    status, witness, nodes, found = good_summary(find)
    assert rejects(find, ("exhausted-none", None, nodes, found))
    assert rejects(find, (status, ((1, 0, 0, 1),) + witness[1:], nodes, found))
    assert rejects(find, (status, witness[:1], nodes, found))

    none = jobs._search_job(constrank, F2, 2, 2, 2, 3, COUNTS)
    summary = good_summary(none)
    assert rejects(none, ("found",) + summary[1:])

    every = jobs._search_job(constrank, F3, 2, 2, 1, 2, COUNTS, count_all=True)
    status, witness, nodes, found = good_summary(every)
    assert rejects(every, (status, witness, nodes, found + 1))

    budget = jobs._search_job(constrank, F2, 2, 2, 1, 2, COUNTS,
                              count_all=True, budget=5)
    status, witness, nodes, found = good_summary(budget)
    assert rejects(budget, (status, witness, nodes - 1, found))
    assert rejects(budget, ("found", witness, nodes, found))

    serial = jobs._search_job(constrank, F3, 2, 2, 1, 2, COUNTS, count_all=True)
    pair = jobs._search_job(constrank, F3, 2, 2, 1, 2, COUNTS, count_all=True,
                            serial_key=serial.key)
    results = {serial.key: good_summary(serial)}
    status, witness, nodes, found = good_summary(pair, results)
    assert rejects(pair, (status, witness, nodes, found - 1), results)
    other = witness[::-1]
    assert rejects(pair, (status, other, nodes, found), results)

    census = jobs._census_job(constrank, F3, 2, 2, 1, 2, COUNTS)
    count = good_summary(census)
    assert rejects(census, count + 1)


def test_large_field_oracles_reject_wrong_answers():
    construct = jobs._construct_job(constrank, F3, 1, 2, 1)
    basis = good_summary(construct)
    assert rejects(construct, basis[:1])
    assert rejects(construct, ((1, 0), (2, 0)))

    S = constrank.truncated_construction(F3, 2, 2, 2)
    verify, census, counting, lemma = jobs._large_field_checks(
        constrank, jobs._basis_change(constrank, S, random.Random(0)), 2, 7)
    assert rejects(verify, (False, good_summary(verify)[1] or (1, 0, 0, 0)))
    counts = good_summary(census)
    assert rejects(census, counts[:-1] + (counts[-1] - 1,))
    by_elements, by_vectors, r = good_summary(counting)
    assert rejects(counting, (by_elements, by_vectors + 1, r))
    assert rejects(counting, (by_elements, by_vectors, r - 1))
    summary = good_summary(lemma)
    assert rejects(lemma, summary[:2] + (False,) + summary[3:])
    assert rejects(lemma, summary[:3] + (summary[3] + 1,) + summary[4:])


def test_judge_counts_failures_and_exceptions():
    job = jobs._census_job(constrank, F3, 2, 2, 1, 2, COUNTS)
    right = job.call()
    raws = [(job, right), (job, right + 1), (job, run.JobFailure(ValueError("x")))]
    failures = run.judge(raws)
    assert len(failures) == 2
    assert "raised ValueError" in failures[1]


def test_self_time_subtracts_merged_child_coverage():
    S = tracing.Span
    spans = [
        S("bench.job", 0.0, 10.0, None, 0),
        S("cli.main", 1.0, 4.0, 0, 0),
        S("analysis.counting_report", 2.0, 3.0, 1, 0),
        S("analysis.check_kernel_bound", 5.0, 9.0, 0, 0),
        S("subspace.rank_profile", 6.0, 7.0, 3, 0, {"elements": 3}),
        S("subspace.rank_profile", 6.5, 8.0, 3, 0, {"elements": 5}),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])
    layers, coverage = tracing.layer_metrics(spans, passes=2)
    assert coverage == pytest.approx(0.75)
    assert layers["cli.main_s"][0] == pytest.approx(1.0)
    assert layers["subspace.rank_profile_s"][0] == pytest.approx(1.25)
    assert layers["subspace.elements"][0] == 4
    assert layers["subspace.elements_per_s"][0] == pytest.approx(8 / 2.5)


def test_tracer_wraps_every_binding_and_restores_them():
    original = constrank.analysis.rank_profile
    kernel_basis = constrank.MatGF.kernel_basis
    S = constrank.truncated_construction(F3, 2, 2, 1).pad_to_square()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert constrank.analysis.rank_profile is not original
        assert constrank.rank_profile is constrank.subspace.rank_profile
        tracer.run_job(0, lambda: constrank.analysis.counting_report(S))
    finally:
        tracer.uninstall()
    assert constrank.analysis.rank_profile is original
    assert constrank.subspace.rank_profile is original
    assert constrank.MatGF.kernel_basis is kernel_basis
    names = [s.name for s in tracer.spans]
    assert names == ["bench.job", "analysis.counting_report", "subspace.rank_profile"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert tracer.spans[2].counts == {"elements": 8}
    assert tracer.spans[1].counts == {"vectors_scanned": 4}


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(range(1, 101)) == (90, 90)
    assert run.tail(range(36)) == (72, 25)
