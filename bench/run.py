"""constrank benchmark: seeded closed-loop workloads, checked by oracles.

Run from the repository root:

    python3 bench/run.py --workload span_family --seed 1 --seconds 5 --trace 0

One caller in one process runs the workload's job list pass after pass,
each job starting only when the previous one has finished, until
--seconds have elapsed (always at least one whole pass).  Every job's
result is then checked by its oracle.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: jobs_per_s, job_p50_ms,
job_tail_ms, setup_s and peak_rss_mb.  --trace 1 reports the per-layer
metrics: one untraced phase, then a phase with spans around the public
entry points of every module (see tracing.py), plus cold-start probes.

A results file with run metadata, per-job latencies and failures goes to
bench/results/; a traced run also writes its spans there.  Workloads and
the reason each exists are listed in BENCHMARK.json and jobs.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-ups per run behind setup_s: this process's own plus fresh processes.
SETUP_PROBES = 2
COLD_START_PROBES = 3
# The layers' self times must cover at least this share of the traced
# jobs' wall time; the rest is harness time the trace cannot attribute.
TRACE_COVERAGE_BOUND = 0.05
TAIL_BEYOND = 10


class JobFailure:
    """Stands in for the result of a job that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def timed_setup(workload: str, seed: int, workdir: Path):
    import jobs
    t0 = time.perf_counter()
    wl = jobs.build(workload, seed, workdir)
    return wl, time.perf_counter() - t0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_phase(wl, seconds: float, tracer=None) -> dict:
    """Closed loop: whole passes over the job list until `seconds` pass."""
    latencies = {job.key: [] for job in wl.jobs}
    ordinal = {job.key: i for i, job in enumerate(wl.jobs)}
    raws = []
    # The set-up's objects stay out of the collector's full scans, so jobs
    # do not pay for scanning the harness's heap.
    gc.collect()
    gc.freeze()
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    passes = 0
    while True:
        for job in wl.jobs:
            start = time.perf_counter()
            try:
                raw = (tracer.run_job(ordinal[job.key], job.call) if tracer
                       else job.call())
            except Exception as exc:  # a failing job is counted, not fatal
                raw = JobFailure(exc)
            latencies[job.key].append(time.perf_counter() - start)
            raws.append((job, raw))
        passes += 1
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    gc.unfreeze()
    return {"latencies": latencies, "raws": raws, "passes": passes,
            "wall": wall, "cpu_wall_ratio": (cpu_seconds() - cpu0) / wall}


def judge(raws) -> list[str]:
    """Oracle verdicts: one message per failed job run."""
    summaries = []
    for job, raw in raws:
        if isinstance(raw, JobFailure):
            summaries.append((job, raw))
            continue
        try:
            summaries.append((job, job.summarize(raw)))
        except Exception as exc:
            summaries.append((job, JobFailure(exc)))
    first = {}
    for job, summary in summaries:
        first.setdefault(job.key, summary)
    verdicts = {}
    failures = []
    for job, summary in summaries:
        if isinstance(summary, JobFailure):
            failures.append(f"{job.key}: raised {summary.message}")
            continue
        memo = (job.key, repr(summary))
        if memo not in verdicts:
            try:
                verdicts[memo] = job.check(summary, first)
            except Exception as exc:
                verdicts[memo] = f"oracle raised {type(exc).__name__}: {exc}"
        if verdicts[memo]:
            failures.append(f"{job.key}: {verdicts[memo]}")
    return failures


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[int, float]:
    """Highest whole percentile whose nearest-rank value still has at
    least `beyond` values above it, and that value."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, xs[rank - 1]
    return 100, xs[-1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, as that process measured it."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def probe_cold_start(workdir: Path) -> float:
    """One fresh interpreter importing the CLI and running a tiny census."""
    import jobs
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "cold-start.txt"
    rows = ["4 3 3 GF(2)"]
    for e in jobs.GF2_COUNTEREXAMPLE:
        rows += ["", "3 3 GF(2)"] + [" ".join(map(str, e[i * 3:i * 3 + 3]))
                                     for i in range(3)]
    path.write_text("\n".join(rows) + "\n", encoding="ascii")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from constrank.cli import main; raise SystemExit(main(sys.argv[2:]))")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC), "census",
                    "--input", str(path)],
                   cwd=ROOT, capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


def probe_field_builds(wl) -> float:
    """Cold FieldSpec construction for every field the workload uses."""
    from constrank.field import FieldSpec
    t0 = time.perf_counter()
    for p, e in wl.fields:
        FieldSpec(p, e)
    return time.perf_counter() - t0


def probe_pools(wl) -> float:
    """target_dim=1, budget=1 searches: from outside, about pool-build cost."""
    import constrank
    if not wl.search_boxes:
        return 0.0
    t0 = time.perf_counter()
    for F, m, n, r in wl.search_boxes:
        constrank.search.search_constant_rank(F, m, n, r, 1, budget=1)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> dict:
    total = nonblank = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_text().splitlines()
        total += len(lines)
        nonblank += sum(1 for line in lines if line.strip())
    return {"total": total, "non_blank": nonblank}


def metadata(load_before) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "src_lines": src_lines(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(args, workdir: Path) -> tuple[dict, dict, list[str], int]:
    wl, setup_own = timed_setup(args.workload, args.seed, workdir)
    phase = run_phase(wl, args.seconds)
    rss = peak_rss_mb()
    failures = judge(phase["raws"])
    setups = [setup_own] + [probe_setup(args.workload, args.seed)
                            for _ in range(SETUP_PROBES)]
    per_job = {k: statistics.median(v) for k, v in phase["latencies"].items()}
    pct, tail_s = tail(per_job.values())
    attempted = len(phase["raws"])
    metrics = {
        "jobs_per_s": (attempted / phase["wall"], "jobs/s"),
        "job_p50_ms": (statistics.median(per_job.values()) * 1e3, "ms"),
        "job_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "job_tail_percentile": pct,
        "job_latency_samples": len(per_job),
        "failed_frac": len(failures) / attempted,
        "setup_samples_s": setups,
        "passes": phase["passes"],
        "timed_wall_s": phase["wall"],
        "bench.cpu_wall_ratio": phase["cpu_wall_ratio"],
        "per_job_median_ms": {k: v * 1e3 for k, v in per_job.items()},
        "problems": [],
    }
    return metrics, extra, failures, attempted


def traced(args, workdir: Path) -> tuple[dict, dict, list[str], int]:
    import tracing
    wl, _ = timed_setup(args.workload, args.seed, workdir)
    plain = run_phase(wl, args.seconds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = run_phase(wl, args.seconds, tracer)
    finally:
        tracer.uninstall()
    failures = judge(plain["raws"]) + judge(phase["raws"])
    layers, coverage = tracing.layer_metrics(tracer.spans, phase["passes"])
    problems = []
    if coverage < 1 - TRACE_COVERAGE_BOUND:
        problems.append(f"layer self times cover only {coverage:.3f} of the "
                        f"traced wall time")
    plain_rate = len(plain["raws"]) / plain["wall"]
    traced_rate = len(phase["raws"]) / phase["wall"]
    cold = [probe_cold_start(workdir) for _ in range(COLD_START_PROBES)]
    metrics = dict(layers)
    metrics.update({
        "field.build_s": (probe_field_builds(wl), "s"),
        "search.pool_probe_s": (probe_pools(wl), "s"),
        "cli.cold_start_s": (statistics.median(cold), "s"),
        "bench.cpu_wall_ratio": (plain["cpu_wall_ratio"], "ratio"),
        "bench.trace_overhead": (plain_rate / traced_rate, "ratio"),
        "bench.trace_coverage": (coverage, "ratio"),
    })
    spans_path = BENCH / "results" / f"{args.workload}-seed{args.seed}-spans.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump({"jobs": [job.key for job in wl.jobs],
                   "fields": ["name", "start", "end", "parent", "job"],
                   "spans": [[s.name, s.start, s.end, s.parent, s.job]
                             for s in tracer.spans]}, fh)
    extra = {
        "passes_untraced": plain["passes"],
        "passes_traced": phase["passes"],
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "problems": problems,
    }
    return metrics, extra, failures, len(plain["raws"]) + len(phase["raws"])


def declared_metrics(trace: int) -> set[str]:
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "constrank" / "__init__.py").is_file():
        print(f"error: no constrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs
    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            _, seconds = timed_setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        load_before = os.getloadavg()
        run = traced if args.trace else end_to_end
        metrics, extra, failures, attempted = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = declared_metrics(args.trace) ^ set(metrics)
    if missing:
        extra["problems"].append(f"metrics differ from BENCHMARK.json: "
                                 f"{sorted(missing)}")
    for message in failures[:20] + extra["problems"]:
        print(f"FAILED {message}", file=sys.stderr)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": metadata(load_before),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:100],
        **extra,
    }
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="ascii")
    print(json.dumps({
        "correct": not failures and not extra["problems"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": results["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
