"""Seeded job lists and per-job oracles for the four benchmark workloads.

`build(workload, seed, workdir)` is the benchmark's set-up: it imports
constrank, builds the fields, generates every input from the seed, writes
the subspace files the CLI jobs read and warms the program's caches.  It
returns a `Workload` whose jobs each time one call chain into constrank,
or a batch of such chains on small spans (see `_pack`).

Jobs look their entry points up on the defining module at call time
(`cr.subspace.rank_profile`, `cr.cli.main`, ...), so the traced run's
wrappers see every call.  Oracles work on a job's plain-data summary and
use only closed forms, the recorded census table and the deliberately
plain arithmetic in `naive`; none of them reuses the path being timed.

The seed chooses basis changes, perturbations, sample seeds and job
order.  It never chooses which instances run, so every seed does the same
amount of enumeration and the spread between seeds stays small.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import naive

WORKLOADS = ("span_family", "lemma_family", "search_oracle", "large_field")

CENSUS_COUNTS = Path(__file__).with_name("census_counts.json")

# Instances with at most this many span elements get seeded basis-change,
# perturbation and CLI jobs; larger spans get only --sample jobs, so one
# pass stays a few seconds long.
SMALL_SPAN = 1024

# Smallest amount of work, in span elements enumerated, in one job of
# library calls and in one job of CLI calls.
LIBRARY_BATCH = 8192
CLI_BATCH = 1024

# lemma-check --sample size and the number of span elements each
# construct oracle re-ranks with the naive arithmetic.
SAMPLE_K = 8
SPOT_CHECKS = 8

# The GF(2) 3x3 rank-2 span of dimension 4 on which image containment
# fails (the same span as tests/data/m3_gf2_rank2_dim4.txt).
GF2_COUNTEREXAMPLE = (
    (0, 0, 0, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 1, 0, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 1, 0),
)

# Criterion-9 boxes: every (r, dim) whose census has at most 10^7 subspaces.
GRID_BOXES = {
    2: ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)),
    3: ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)),
}
GRID_CENSUS_CAP = 10 ** 7
# Smallest number of candidate subspaces behind one batch of grid checks.
GRID_BATCH = 10 ** 5

# The two-worker GF(2) 4x4 r2 d4 find job is kept on purpose: the serial
# run finds a witness at once, while the two-worker run waits for a chunk
# whose result it no longer needs.  Do not drop or resize it.
WAIT_DEFECT_BOX = (2, 4, 4, 2, 4)


def worker_count() -> int:
    """Processes a two-worker job may ask for: never more than the cores."""
    return min(2, os.cpu_count() or 1)


@dataclass
class Job:
    key: str
    call: Callable[[], object]
    summarize: Callable[[object], object]
    check: Callable[[object, Mapping[str, object]], str | None]


@dataclass
class Workload:
    jobs: list[Job]
    fields: list[tuple[int, int]]
    search_boxes: list[tuple] = field(default_factory=list)


def build(workload: str, seed: int, workdir: Path) -> Workload:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cr = importlib.import_module("constrank")
    importlib.import_module("constrank.cli")
    rng = random.Random(f"{workload}:{seed}")
    wl = globals()[f"_build_{workload}"](cr, rng, workdir)
    if len({job.key for job in wl.jobs}) != len(wl.jobs):
        raise RuntimeError(f"{workload} has duplicate job keys")
    rng.shuffle(wl.jobs)
    return wl


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _small_fields(cr):
    return {2: cr.make_field(2), 3: cr.make_field(3),
            4: cr.make_field(2, 2), 5: cr.make_field(5)}


def _warm_caches(cr, fields, degrees, gf2_shapes):
    """Fill the program's lru caches so jobs do not pay for them."""
    regular = getattr(cr.construct, "_regular_matrices", None)
    if regular is not None:
        for F in fields:
            for n in degrees:
                if F.q ** n <= 1 << 24:
                    regular(F, n)
    rank_table = getattr(cr.matrix, "_gf2_rank_table", None)
    if rank_table is not None:
        for m, n in gf2_shapes:
            rank_table(m, n)


def _field_ids(fields):
    return sorted({(F.p, F.e) for F in fields})


def _entries(S) -> tuple[tuple[int, ...], ...]:
    return tuple(B.entries for B in S.basis)


def _digest(*parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()[:10]


def _label(F, m, n, r) -> str:
    return f"{F.descriptor} {m}x{n} r{r}"


def _expected_counts(q, d, m, n, r) -> tuple[int, ...]:
    return tuple(q ** d - 1 if s == r else 0 for s in range(min(m, n) + 1))


def _random_invertible(F, d, rng):
    while True:
        rows = [[rng.randrange(F.q) for _ in range(d)] for _ in range(d)]
        if naive.rank(F, rows) == d:
            return rows


def _basis_change(cr, S, rng):
    """The same span over a seeded random basis (not re-canonicalized)."""
    F, m, n = S.field, S.m, S.n
    basis = _entries(S)
    C = _random_invertible(F, S.d, rng)
    return cr.SubspaceBasis(
        [cr.MatGF(F, m, n, naive.combine(F, row, basis)) for row in C])


def _perturb(cr, S, r, rng):
    """S with one seeded basis matrix moved off rank r by a rank-1 term.

    Every element before that matrix in enumeration order lies in the
    span of the later, untouched basis matrices, so the perturbed matrix
    is the first offender.  Returns the span and that offender's position.
    """
    F, m, n = S.field, S.m, S.n
    basis = list(_entries(S))
    j = rng.randrange(S.d)
    for _ in range(1000):
        u = [rng.randrange(F.q) for _ in range(m)]
        v = [rng.randrange(F.q) for _ in range(n)]
        if not any(u) or not any(v):
            continue
        moved = tuple(F.add(basis[j][i * n + k], F.mul(u[i], v[k]))
                      for i in range(m) for k in range(n))
        if naive.matrix_rank(F, moved, m, n) == r:
            continue
        trial = basis[:j] + [moved] + basis[j + 1:]
        try:
            P = cr.SubspaceBasis([cr.MatGF(F, m, n, e) for e in trial])
        except ValueError:
            continue
        return P, F.q ** (S.d - 1 - j)
    raise RuntimeError(f"no perturbation of {S!r} leaves rank {r}")


def _spot_check(F, basis, m, n, r, key) -> str | None:
    """Re-rank a few seeded span elements with the naive arithmetic."""
    if naive.rank(F, basis) != len(basis):
        return "basis is linearly dependent"
    rng = random.Random(key)
    for _ in range(SPOT_CHECKS):
        coeffs = [rng.randrange(F.q) for _ in basis]
        if not any(coeffs):
            continue
        rk = naive.matrix_rank(F, naive.combine(F, coeffs, basis), m, n)
        if rk != r:
            return f"element {coeffs} has rank {rk}, not {r}"
    return None


def _first_offender_problem(F, basis, m, n, r, witness) -> str | None:
    """Why `witness` is not the first non-rank-r element of the span."""
    if witness is None:
        return "no witness returned"
    if naive.matrix_rank(F, witness, m, n) == r:
        return "witness has the target rank"
    coeffs = naive.coordinates(F, basis, witness)
    if coeffs is None:
        return "witness is not in the span"
    stop = naive.lex_index(F.q, coeffs)
    for c in naive.coefficient_vectors(F.q, len(basis), stop):
        if any(c) and naive.matrix_rank(F, naive.combine(F, c, basis), m, n) != r:
            return f"element {list(c)} offends earlier than the witness"
    return None


def _fail_unless(*pairs) -> str | None:
    """First message whose condition is false, else None."""
    for ok, message in pairs:
        if not ok:
            return message
    return None


def _batch(parts: list[Job]) -> Job:
    """One job running `parts` back to back, as a user submits a batch."""
    if len(parts) == 1:
        return parts[0]

    def call():
        return [part.call() for part in parts]

    def summarize(raws):
        return tuple(part.summarize(raw) for part, raw in zip(parts, raws))

    def check(summaries, results):
        for part, summary in zip(parts, summaries):
            problem = part.check(summary, results)
            if problem:
                return f"{part.key}: {problem}"
        return None

    return Job(f"{parts[0].key} +{len(parts) - 1}", call, summarize, check)


def _pack(parts: list[tuple[int, Job]], min_work: int) -> list[Job]:
    """Batch consecutive (work, job) parts until each batch has at least
    `min_work` units of work (span elements or candidate subspaces).

    A single check on a small span takes a tenth of a millisecond, and
    such calls vary by 2x from run to run on a shared machine.  Batches
    of at least a few tens of milliseconds time steadily, so the median
    and tail are not set by the smallest spans.
    """
    out, pending, work = [], [], 0
    for cost, job in parts:
        pending.append(job)
        work += cost
        if work >= min_work:
            out.append(_batch(pending))
            pending, work = [], 0
    if pending:
        out.append(_batch(pending))
    return out


# ---------------------------------------------------------------------------
# span_family
# ---------------------------------------------------------------------------

def _build_span_family(cr, rng, workdir):
    fields = _small_fields(cr)
    _warm_caches(cr, fields.values(), range(1, 7),
                 [(m, n) for n in range(1, 7) for m in range(1, n + 1)
                  if m * n <= 16])
    chains, changed, perturbed = [], [], []
    for q, F in fields.items():
        for n in range(1, 7):
            for m in range(1, n + 1):
                for r in range(1, m + 1):
                    chains.append((3 * q ** n, _construct_chain_job(cr, F, m, n, r)))
            if n < 2 or q ** n > SMALL_SPAN:
                continue
            for r in range(1, n + 1):
                S = cr.construct.truncated_construction(F, n, n, r)
                changed.append((2 * q ** n,
                                _profile_verify_job(cr, _basis_change(cr, S, rng), r)))
                P, first = _perturb(cr, S, r, rng)
                perturbed.append((first, _perturbed_job(cr, P, r)))
    jobs = [job for parts in (chains, changed, perturbed)
            for job in _pack(parts, LIBRARY_BATCH)]
    return Workload(jobs, _field_ids(fields.values()))


def _construct_chain_job(cr, F, m, n, r):
    def call():
        S = cr.construct.truncated_construction(F, m, n, r)
        return S, cr.subspace.rank_profile(S), cr.subspace.is_constant_rank(S, r)

    def summarize(raw):
        S, profile, (ok, witness) = raw
        return (_entries(S), profile.counts, ok,
                None if witness is None else witness.entries)

    key = f"construct {_label(F, m, n, r)}"

    def check(summary, _results):
        basis, counts, ok, witness = summary
        return _fail_unless(
            (len(basis) == n, f"dimension {len(basis)}, expected {n}"),
            (counts == _expected_counts(F.q, n, m, n, r),
             f"rank counts {counts} are not all rank {r}"),
            (ok and witness is None, "verify rejected a constructed span"),
        ) or _spot_check(F, basis, m, n, r, key)

    return Job(key, call, summarize, check)


def _profile_verify_job(cr, T, r):
    F, m, n, d = T.field, T.m, T.n, T.d

    def call():
        return cr.subspace.rank_profile(T), cr.subspace.is_constant_rank(T, r)

    def summarize(raw):
        profile, (ok, witness) = raw
        return profile.counts, ok, None if witness is None else witness.entries

    def check(summary, _results):
        counts, ok, witness = summary
        return _fail_unless(
            (counts == _expected_counts(F.q, d, m, n, r),
             f"rank counts {counts} are not all rank {r}"),
            (ok and witness is None, "verify rejected a basis change"),
        )

    key = f"basis_change {_label(F, m, n, r)} {_digest(_entries(T))}"
    return Job(key, call, summarize, check)


def _perturbed_job(cr, P, r):
    F, m, n = P.field, P.m, P.n
    basis = _entries(P)

    def call():
        return cr.subspace.is_constant_rank(P, r)

    def summarize(raw):
        ok, witness = raw
        return ok, None if witness is None else witness.entries

    def check(summary, _results):
        ok, witness = summary
        if ok:
            return "verify accepted a perturbed span"
        return _first_offender_problem(F, basis, m, n, r, witness)

    key = f"perturbed {_label(F, m, n, r)} {_digest(basis)}"
    return Job(key, call, summarize, check)


# ---------------------------------------------------------------------------
# lemma_family
# ---------------------------------------------------------------------------

def _build_lemma_family(cr, rng, workdir):
    fields = _small_fields(cr)
    _warm_caches(cr, (), (), [(n, n) for n in range(1, 5)])
    workdir.mkdir(parents=True, exist_ok=True)
    parts = []
    files = itertools.count()

    def add(S, r, variant, *, sample=None, seed=0, expect_lemma=True):
        text = S.to_text()
        path = workdir / f"span-{next(files):04d}.txt"
        path.write_text(text, encoding="ascii")
        tag = f"{variant} {_label(S.field, S.m, S.n, r)} {_digest(text)}"
        q, n, d = S.field.q, S.n, S.d
        argv = ["lemma-check", "--input", str(path), "--json"]
        if sample is not None:
            argv += ["--sample", str(sample), "--seed", str(seed)]
            tag += f" sample={sample} seed={seed}"
        lemma = _lemma_job(cr, argv, tag, q, n, r, d, sample, expect_lemma)
        parts.append((q ** d, lemma))
        if sample is None:
            parts.append((q ** d, _counting_job(
                cr, ["counting", "--input", str(path), "--json"], tag, q, n, r, d)))

    for q, F in fields.items():
        for n in range(1, 7):
            if q ** n > SMALL_SPAN:
                continue
            for m in range(1, n + 1):
                for r in range(1, min(m, q - 1) + 1):
                    S = cr.construct.truncated_construction(F, m, n, r)
                    add(S, r, "family")
                    if m == n:
                        add(_basis_change(cr, S, rng), r, "basis_change")
    for q, n in ((4, 6), (5, 5)):
        for m, r in ((n, 1), (n, 2), (n, 3), (2, 2)):
            S = cr.construct.truncated_construction(fields[q], m, n, r)
            add(_basis_change(cr, S, rng), r, "sampled",
                sample=SAMPLE_K, seed=rng.randrange(1 << 30))
    F2 = fields[2]
    add(cr.SubspaceBasis([cr.MatGF(F2, 3, 3, e) for e in GF2_COUNTEREXAMPLE]),
        2, "counterexample", expect_lemma=False)
    return Workload(_pack(parts, CLI_BATCH), _field_ids(fields.values()))


def _cli_call(cr, argv):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cr.cli.main(argv)
        return code, out.getvalue()
    return call


def _cli_summary(raw):
    code, text = raw
    return code, json.loads(text)


def _lemma_job(cr, argv, tag, q, n, r, d, sample, expect_lemma):
    """lemma-check on an m-by-n span that the CLI pads to n-by-n."""
    def check(summary, _results):
        code, rep = summary
        elements = q ** d - 1
        if sample is not None and sample < elements:
            elements = sample
        return _fail_unless(
            (code == (0 if expect_lemma else 1), f"exit code {code}"),
            (rep["lemma1_holds"] is expect_lemma,
             f"lemma1_holds={rep['lemma1_holds']}"),
            ((rep["violations"] == 0) is expect_lemma,
             f"{rep['violations']} violations"),
            (rep["rank"] == r and rep["max_rank"] == r,
             f"rank {rep['rank']} / max_rank {rep['max_rank']}, expected {r}"),
            (rep["elements_checked"] == elements,
             f"elements_checked={rep['elements_checked']}, expected {elements}"),
            (rep["triples_checked"] == elements * (n - r) * d,
             f"triples_checked={rep['triples_checked']}"),
        )

    return Job(f"lemma-check {tag}", _cli_call(cr, argv), _cli_summary, check)


def _counting_job(cr, argv, tag, q, n, r, d):
    omega = (q ** d - 1) * (q ** (n - r) - 1)

    def check(summary, _results):
        code, rep = summary
        return _fail_unless(
            (code == 0, f"exit code {code}"),
            (rep["omega_elements"] == rep["omega_vectors"] == omega,
             f"omega {rep['omega_elements']} / {rep['omega_vectors']}, "
             f"expected {omega}"),
            (rep["rank"] == r, f"rank {rep['rank']}, expected {r}"),
        )

    return Job(f"counting {tag}", _cli_call(cr, argv), _cli_summary, check)


# ---------------------------------------------------------------------------
# search_oracle
# ---------------------------------------------------------------------------

def _census_key(q, m, n, r, dim) -> str:
    return f"{q},{m},{n},{r},{dim}"


def _build_search_oracle(cr, rng, workdir):
    counts = json.loads(CENSUS_COUNTS.read_text())
    fields = _small_fields(cr)
    _warm_caches(cr, (), (), [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3),
                              (3, 3), (4, 4)])
    jobs = []
    boxes = set()

    def search(q, m, n, r, dim, **kw):
        boxes.add((q, m, n, r))
        job = _search_job(cr, fields[q], m, n, r, dim, counts, **kw)
        jobs.append(job)
        return job.key

    # Grid checks are batched by census size: most single calls take a
    # fraction of a millisecond.
    for q, shapes in GRID_BOXES.items():
        F, finds, censuses = fields[q], [], []
        for m, n in shapes:
            for r in range(1, min(m, n) + 1):
                boxes.add((q, m, n, r))
                for dim in range(1, m * n + 1):
                    size = naive.gaussian_binomial(q, m * n, dim)
                    if size <= GRID_CENSUS_CAP:
                        finds.append(
                            (size, _search_job(cr, F, m, n, r, dim, counts)))
                        censuses.append(
                            (size, _census_job(cr, F, m, n, r, dim, counts)))
        jobs += _pack(finds, GRID_BATCH) + _pack(censuses, GRID_BATCH)
    # Exact counts; the grid already holds these two censuses.
    search(2, 3, 3, 2, 4, count_all=True)
    search(3, 2, 3, 2, 3, count_all=True)
    # The GF(4) count is checked against the recorded census; running that
    # census too would add seven seconds to every pass.
    gf4 = (4, 2, 3, 2, 3)
    serial = search(*gf4, count_all=True)
    search(*gf4, count_all=True, workers=worker_count(), serial_key=serial)
    serial = search(*WAIT_DEFECT_BOX)
    search(*WAIT_DEFECT_BOX, workers=worker_count(), serial_key=serial)
    search(2, 4, 4, 2, 5, budget=2 * 10 ** 6)
    search(3, 3, 3, 3, 4, budget=3 * 10 ** 4)
    search_boxes = [(fields[q], m, n, r) for q, m, n, r in sorted(boxes)]
    return Workload(jobs, _field_ids(fields.values()), search_boxes)


def _search_job(cr, F, m, n, r, dim, counts, *, count_all=False, workers=1,
                budget=None, serial_key=None):
    kwargs = {"count_all": count_all, "workers": workers}
    if budget is not None:
        kwargs["budget"] = budget
    expected = counts.get(_census_key(F.q, m, n, r, dim))

    def call():
        return cr.search.search_constant_rank(F, m, n, r, dim, **kwargs)

    def summarize(out):
        witness = None if out.witness is None else _entries(out.witness)
        return out.status.value, witness, out.nodes_explored, out.found_count

    def check(summary, results):
        status, witness, nodes, found_count = summary
        if serial_key is not None:
            s_status, s_witness, _, s_found = results[serial_key]
            return _fail_unless(
                (status == s_status, f"status {status}, serial {s_status}"),
                (witness == s_witness, "witness differs from the serial run"),
                (found_count == s_found,
                 f"found_count {found_count}, serial {s_found}"),
            )
        if budget is not None:
            return _fail_unless(
                (status == "budget-exceeded", f"status {status}"),
                (nodes == budget, f"{nodes} nodes, budget {budget}"),
            )
        problem = _fail_unless(
            (status != "budget-exceeded", "ran out of budget"),
            (expected is None or (status == "found") == (expected > 0),
             f"status {status}, census {expected}"),
            (not count_all or found_count == expected,
             f"found_count {found_count}, census {expected}"),
            ((status == "found") == (witness is not None), "witness mismatch"),
        )
        if problem or witness is None:
            return problem
        if len(witness) != dim:
            return f"witness has dimension {len(witness)}"
        for c in naive.coefficient_vectors(F.q, dim, F.q ** dim):
            if any(c):
                rk = naive.matrix_rank(F, naive.combine(F, c, witness), m, n)
                if rk != r:
                    return f"witness element {list(c)} has rank {rk}"
        return None

    mode = "all" if count_all else "find" if budget is None else f"budget={budget}"
    key = f"search {_label(F, m, n, r)} d{dim} {mode} workers={workers}"
    if serial_key is not None:
        key += " paired"
    return Job(key, call, summarize, check)


def _census_job(cr, F, m, n, r, dim, counts):
    expected = counts[_census_key(F.q, m, n, r, dim)]

    def call():
        return cr.search.brute_force_census(F, m, n, r, dim)

    def check(count, _results):
        return None if count == expected else f"census {count}, expected {expected}"

    return Job(f"census {_label(F, m, n, r)} d{dim}", call, lambda c: c, check)


# ---------------------------------------------------------------------------
# large_field
# ---------------------------------------------------------------------------

# Fields on both sides of the 256-element table cap, each with the shapes
# (m, n, r) it constructs.  Every constructed span except those over
# GF(3^6) also gets verify, census, counting and lemma-check jobs; each
# enumeration of a 531,441-element GF(3^6) span takes seconds.
LARGE_FIELD_BOXES = {
    (251, 1): ((1, 2, 1), (2, 2, 2)),
    (2, 8): ((1, 2, 1), (2, 2, 2)),
    (257, 1): ((1, 2, 1), (2, 2, 2)),
    (2, 9): ((1, 2, 1),),
    (3, 6): ((1, 2, 1),),
}
CONSTRUCT_ONLY = {(3, 6)}


def _build_large_field(cr, rng, workdir):
    fields = {pe: cr.make_field(*pe) for pe in LARGE_FIELD_BOXES}
    _warm_caches(cr, fields.values(), (2,), [])
    jobs = []
    for pe, F in fields.items():
        for m, n, r in LARGE_FIELD_BOXES[pe]:
            jobs.append(_construct_job(cr, F, m, n, r))
            if pe not in CONSTRUCT_ONLY:
                S = cr.construct.truncated_construction(F, m, n, r)
                jobs.extend(_large_field_checks(cr, _basis_change(cr, S, rng), r,
                                                rng.randrange(1 << 30)))
    return Workload(jobs, _field_ids(fields.values()))


def _construct_job(cr, F, m, n, r):
    key = f"construct {_label(F, m, n, r)}"

    def call():
        return cr.construct.truncated_construction(F, m, n, r)

    def check(basis, _results):
        return _fail_unless(
            (len(basis) == n, f"dimension {len(basis)}, expected {n}"),
        ) or _spot_check(F, basis, m, n, r, key)

    return Job(key, call, _entries, check)


def _large_field_checks(cr, T, r, sample_seed):
    """verify, census, counting and lemma-check --sample on one span."""
    F, m, n, d = T.field, T.m, T.n, T.d
    q = F.q
    square = T.pad_to_square()
    tag = f"{_label(F, m, n, r)} {_digest(_entries(T))}"
    omega = (q ** d - 1) * (q ** (n - r) - 1)
    sample = min(SAMPLE_K, q ** d - 1)

    def verify():
        return cr.subspace.is_constant_rank(T, r)

    def census():
        return cr.subspace.rank_profile(T)

    def counting():
        return cr.analysis.counting_report(square)

    def lemma():
        return (cr.analysis.check_kernel_bound(square),
                cr.analysis.check_image_of_kernel(square, sample=SAMPLE_K,
                                                  seed=sample_seed))

    def verify_summary(raw):
        ok, witness = raw
        return ok, None if witness is None else witness.entries

    def lemma_summary(raw):
        bound, image = raw
        return (bound.r, image.max_rank, image.holds, image.elements_checked,
                image.triples_checked)

    def check_verify(summary, _results):
        return _fail_unless((summary == (True, None), f"verify gave {summary}"))

    def check_census(counts, _results):
        return _fail_unless((counts == _expected_counts(q, d, m, n, r),
                             f"rank counts {counts} are not all rank {r}"))

    def check_counting(summary, _results):
        by_elements, by_vectors, rank = summary
        return _fail_unless(
            (by_elements == by_vectors == omega,
             f"omega {by_elements} / {by_vectors}, expected {omega}"),
            (rank == r, f"rank {rank}, expected {r}"),
        )

    def check_lemma(summary, _results):
        expected = (r, r, True, sample, sample * (n - r) * d)
        return _fail_unless((summary == expected,
                             f"lemma-check gave {summary}, expected {expected}"))

    return [
        Job(f"verify {tag}", verify, verify_summary, check_verify),
        Job(f"census {tag}", census, lambda p: p.counts, check_census),
        Job(f"counting {tag}", counting,
            lambda c: (c.omega_by_elements, c.omega_by_vectors, c.r),
            check_counting),
        Job(f"lemma-check {tag} sample={SAMPLE_K} seed={sample_seed}", lemma,
            lemma_summary, check_lemma),
    ]
