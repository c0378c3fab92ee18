"""Command line front end.

Exit codes: 0 success (including a certified exhausted search), 1 when a
checked property fails (not constant rank, containment violated), 2 for
usage and parse problems, 3 when a budget is exceeded, 4 when a library
self-check fails or any other unexpected exception escapes (a defect in
this package, not in the input).

Reports are key=value lines under a schema=1 header (or one JSON object
with --json).  construct and search write their subspace artifact to
stdout or --output and the report to stderr; all other commands report
on stdout.  Reports contain no timing or path information, so identical
inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analysis import _image_of_kernel, _kernel_bound, counting_report
from .construct import truncated_construction
from .errors import (
    BudgetExceeded,
    ConstrankError,
    InternalVerificationFailed,
    NotConstantRank,
    ParseError,
    ShapeViolation,
)
from .field import FieldSpec, parse_field_descriptor
from .matrix import MatGF
from .search import (
    DEFAULT_CENSUS_BUDGET,
    DEFAULT_NODE_BUDGET,
    SearchStatus,
    brute_force_census,
    search_constant_rank,
)
from .subspace import (
    DEFAULT_ENUMERATION_BUDGET,
    SubspaceBasis,
    is_constant_rank,
    parse_subspace,
    rank_profile,
)

__all__ = ["main"]

_MAX_REPORTED_VIOLATIONS = 10


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _seed_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _positive_int(text: str) -> int:
    value = _seed_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {value}")
    return value


def _shape_type(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"shape must look like MxN, got {text!r}"
        )
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shape must look like MxN, got {text!r}"
        )
    if m < 1 or n < 1:
        raise argparse.ArgumentTypeError(f"shape {text!r} must be at least 1x1")
    return m, n


def _field_type(text: str) -> FieldSpec:
    try:
        return parse_field_descriptor(text)
    except ConstrankError as exc:
        raise argparse.ArgumentTypeError(str(exc))


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="constrank",
        description="Construct, verify, analyze, and search for "
                    "constant-rank matrix subspaces over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--json", action="store_true",
                       help="emit the report as one JSON object")
        p.add_argument("--budget", type=_positive_int, default=None,
                       help="work limit (command-specific unit)")
        return p

    p = common(sub.add_parser("construct",
                              help="emit a constant rank r subspace of "
                                   "dimension n"))
    p.add_argument("--field", type=_field_type, required=True)
    p.add_argument("--shape", type=_shape_type, required=True, metavar="MxN")
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--output", default=None)

    p = common(sub.add_parser("verify",
                              help="check that a subspace file is constant "
                                   "rank r"))
    p.add_argument("--input", required=True)
    p.add_argument("--rank", type=_positive_int, required=True)

    p = common(sub.add_parser("census",
                              help="rank distribution of a subspace file"))
    p.add_argument("--input", required=True)

    p = common(sub.add_parser("lemma-check",
                              help="image containment and kernel-slice "
                                   "bound checks"))
    p.add_argument("--input", required=True)
    p.add_argument("--sample", type=_positive_int, default=None,
                   help="check only this many maximal-rank elements")
    p.add_argument("--seed", type=_seed_int, default=0)

    p = common(sub.add_parser("counting",
                              help="annihilating-pair count, both ways"))
    p.add_argument("--input", required=True)

    p = common(sub.add_parser("search",
                              help="search for a constant rank subspace of "
                                   "a given dimension"))
    p.add_argument("--field", type=_field_type, required=True)
    p.add_argument("--shape", type=_shape_type, required=True, metavar="MxN")
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--all", action="store_true", dest="count_all",
                   help="traverse the whole tree and count every hit")
    p.add_argument("--oracle", action="store_true", dest="use_oracle",
                   help="run the brute-force census instead of the search")
    p.add_argument("--output", default=None)

    p = common(sub.add_parser("oracle",
                              help="brute-force census of constant rank "
                                   "subspaces"))
    p.add_argument("--field", type=_field_type, required=True)
    p.add_argument("--shape", type=_shape_type, required=True, metavar="MxN")
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--dim", type=_positive_int, required=True)

    return parser


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _encode_matrix(M: MatGF) -> str:
    return ";".join(
        ",".join(str(x) for x in M.row(i)) for i in range(M.m)
    )


def _fmt(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def render_report(report: dict, json_mode: bool) -> str:
    if json_mode:
        return json.dumps({"schema": 1, **report}, indent=2) + "\n"
    lines = ["schema=1"]
    for key, value in report.items():
        lines.append(f"{key}={_fmt(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _read_subspace(path: str) -> SubspaceBasis:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        at = exc.start
        line_start = data.rfind(b"\n", 0, at) + 1
        raise ParseError(f"non-ASCII byte 0x{data[at]:02x}",
                         data.count(b"\n", 0, at) + 1, at - line_start + 1)
    return parse_subspace(text)


def _shape_str(m: int, n: int) -> str:
    return f"{m}x{n}"


def _pad_square(S: SubspaceBasis) -> SubspaceBasis:
    if S.m > S.n:
        raise ShapeViolation(
            f"cannot square a {S.m}x{S.n} subspace: m <= n required"
        )
    return S.pad_to_square()


def _cmd_construct(ns: argparse.Namespace):
    m, n = ns.shape
    S = truncated_construction(ns.field, m, n, ns.rank)
    report = {
        "command": "construct",
        "field": ns.field.descriptor,
        "shape": _shape_str(m, n),
        "rank": ns.rank,
        "dim": S.d,
        "status": "ok",
    }
    return 0, report, S.to_text()


def _cmd_verify(ns: argparse.Namespace):
    S = _read_subspace(ns.input)
    budget = ns.budget or DEFAULT_ENUMERATION_BUDGET
    ok, witness = is_constant_rank(S, ns.rank, budget=budget)
    report = {
        "command": "verify",
        "field": S.field.descriptor,
        "shape": _shape_str(S.m, S.n),
        "d": S.d,
        "rank": ns.rank,
        "constant_rank": ok,
    }
    if witness is not None:
        report["witness"] = _encode_matrix(witness)
        report["witness_rank"] = witness.rank()
    return (0 if ok else 1), report, None


def _cmd_census(ns: argparse.Namespace):
    S = _read_subspace(ns.input)
    budget = ns.budget or DEFAULT_ENUMERATION_BUDGET
    profile = rank_profile(S, budget=budget)
    constant = profile.constant_rank_of()
    report = {
        "command": "census",
        "field": S.field.descriptor,
        "shape": _shape_str(S.m, S.n),
        "d": S.d,
        "counts": ",".join(str(c) for c in profile.counts),
        "total_nonzero": sum(profile.counts),
        "constant_rank": constant,
    }
    return 0, report, None


def _cmd_lemma_check(ns: argparse.Namespace):
    S = _read_subspace(ns.input)
    square = _pad_square(S)
    budget = ns.budget or DEFAULT_ENUMERATION_BUDGET
    # one rank walk serves both checks
    profile = rank_profile(square, budget=budget)
    bound = _kernel_bound(square, profile, budget)
    image = _image_of_kernel(square, profile, ns.sample, ns.seed)
    report = {
        "command": "lemma-check",
        "field": S.field.descriptor,
        "shape": _shape_str(S.m, S.n),
        "padded_shape": _shape_str(square.m, square.n),
        "d": S.d,
        "rank": bound.r,
        "max_rank": image.max_rank,
        "lemma1_holds": image.holds,
        "elements_checked": image.elements_checked,
        "triples_checked": image.triples_checked,
        "sampled": image.sampled,
        "violations": len(image.violations),
    }
    for k, (A, u, B) in enumerate(image.violations[:_MAX_REPORTED_VIOLATIONS]):
        report[f"violation_{k + 1}"] = "|".join(
            (_encode_matrix(A), _encode_matrix(u), _encode_matrix(B))
        )
    if len(image.violations) > _MAX_REPORTED_VIOLATIONS:
        report["violations_truncated"] = True
    report.update({
        "applicable": bound.applicable,
        "bound": bound.bound,
        "min_r_u": bound.min_r_u,
        "min_u": _encode_matrix(bound.min_u),
        "bound_holds": bound.holds,
    })
    violated = (not image.holds) or (bound.applicable and not bound.holds)
    return (1 if violated else 0), report, None


def _cmd_counting(ns: argparse.Namespace):
    S = _read_subspace(ns.input)
    square = _pad_square(S)
    budget = ns.budget or DEFAULT_ENUMERATION_BUDGET
    rep = counting_report(square, budget=budget)
    report = {
        "command": "counting",
        "field": S.field.descriptor,
        "shape": _shape_str(S.m, S.n),
        "padded_shape": _shape_str(square.m, square.n),
        "q": rep.q,
        "n": rep.n,
        "rank": rep.r,
        "d": rep.d,
        "omega_elements": rep.omega_by_elements,
        "omega_vectors": rep.omega_by_vectors,
        "lhs_valuation": rep.lhs_valuation,
        "rhs_min_exponent": rep.rhs_min_exponent,
        "contradiction": rep.contradiction,
    }
    return 0, report, None


def _cmd_search(ns: argparse.Namespace):
    if ns.use_oracle:
        return _cmd_oracle(ns)
    m, n = ns.shape
    budget = ns.budget or DEFAULT_NODE_BUDGET
    outcome = search_constant_rank(
        ns.field, m, n, ns.rank, ns.dim,
        budget=budget, workers=ns.workers, count_all=ns.count_all,
    )
    report = {
        "command": "search",
        "field": ns.field.descriptor,
        "shape": _shape_str(m, n),
        "rank": ns.rank,
        "dim": ns.dim,
        "status": outcome.status.value,
        "nodes": outcome.nodes_explored,
        "budget": budget,
        "workers": ns.workers,
    }
    if ns.count_all:
        report["found_count"] = outcome.found_count
    artifact = outcome.witness.to_text() if outcome.witness else None
    code = 3 if outcome.status is SearchStatus.BUDGET_EXCEEDED else 0
    return code, report, artifact


def _cmd_oracle(ns: argparse.Namespace):
    m, n = ns.shape
    budget = ns.budget or DEFAULT_CENSUS_BUDGET
    count = brute_force_census(
        ns.field, m, n, ns.rank, ns.dim, budget=budget
    )
    report = {
        "command": ns.command,
        "field": ns.field.descriptor,
        "shape": _shape_str(m, n),
        "rank": ns.rank,
        "dim": ns.dim,
        "count": count,
    }
    if ns.command == "search":
        report["oracle"] = True
    return 0, report, None


# each handler takes the parsed arguments and returns (exit code, report,
# artifact or None)
_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "census": _cmd_census,
    "lemma-check": _cmd_lemma_check,
    "counting": _cmd_counting,
    "search": _cmd_search,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code, report, artifact = _HANDLERS[ns.command](ns)
    except ParseError as exc:
        where = getattr(ns, "input", None) or "<input>"
        print(f"{where}:{exc.line}:{exc.col}: {exc.bare_message}",
              file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotConstantRank as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalVerificationFailed as exc:
        print(f"internal error (a defect in constrank): {exc}",
              file=sys.stderr)
        return 4
    except (ConstrankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error (a defect in constrank): "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    text = render_report(report, ns.json)
    oracle = getattr(ns, "use_oracle", False)
    if ns.command in ("construct", "search") and not oracle:
        if artifact is not None:
            if ns.output:
                with open(ns.output, "w", encoding="ascii") as fh:
                    fh.write(artifact)
            else:
                sys.stdout.write(artifact)
        sys.stderr.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
