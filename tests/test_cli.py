"""End-to-end command line behavior, driven through main(argv)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import constrank.cli as cli_mod
from constrank import (
    InternalVerificationFailed,
    MatGF,
    make_field,
    make_subspace,
    parse_subspace,
)
from constrank.cli import main
from conftest import mat

_DATA = os.path.join(os.path.dirname(__file__), "data")
_GOLDEN = os.path.join(_DATA, "m3_gf2_rank2_dim4.txt")


def _kv(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def _write_mixed_rank_file(path):
    F = make_field(3)
    S = make_subspace([
        mat(F, [[1, 0], [0, 0]]),
        mat(F, [[0, 0], [0, 1]]),
    ])
    path.write_text(S.to_text())


def test_construct_then_verify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "s.txt"
    code = main(["construct", "--field", "GF(3)", "--shape", "2x3",
                 "--rank", "1", "--output", str(out_file)])
    captured = capsys.readouterr()
    assert code == 0
    report = _kv(captured.err)
    assert report["schema"] == "1"
    assert report["command"] == "construct"
    assert report["dim"] == "3"
    assert captured.out == ""

    code = main(["verify", "--input", str(out_file), "--rank", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert _kv(captured.out)["constant_rank"] == "true"


def test_construct_writes_artifact_to_stdout(capsys):
    code = main(["construct", "--field", "GF(2)", "--shape", "2x2",
                 "--rank", "2"])
    captured = capsys.readouterr()
    assert code == 0
    S = parse_subspace(captured.out)
    assert S.d == 2
    assert _kv(captured.err)["status"] == "ok"


def test_verify_failure_prints_witness(tmp_path, capsys):
    target = tmp_path / "mixed.txt"
    _write_mixed_rank_file(target)
    code = main(["verify", "--input", str(target), "--rank", "2"])
    captured = capsys.readouterr()
    assert code == 1
    report = _kv(captured.out)
    assert report["constant_rank"] == "false"
    assert report["witness_rank"] == "1"
    assert "witness" in report


def test_census_reports_counts(tmp_path, capsys):
    target = tmp_path / "mixed.txt"
    _write_mixed_rank_file(target)
    code = main(["census", "--input", str(target)])
    captured = capsys.readouterr()
    assert code == 0
    report = _kv(captured.out)
    assert report["counts"] == "0,4,4"
    assert report["total_nonzero"] == "8"
    assert report["constant_rank"] == "none"


def test_lemma_check_passes_on_construction(tmp_path, capsys):
    out_file = tmp_path / "c.txt"
    main(["construct", "--field", "GF(3)", "--shape", "2x2", "--rank", "1",
          "--output", str(out_file)])
    capsys.readouterr()
    code = main(["lemma-check", "--input", str(out_file)])
    captured = capsys.readouterr()
    assert code == 0
    report = _kv(captured.out)
    assert report["lemma1_holds"] == "true"
    assert report["violations"] == "0"
    assert report["applicable"] == "false"


def test_lemma_check_fails_on_counterexample(capsys):
    code = main(["lemma-check", "--input", _GOLDEN])
    captured = capsys.readouterr()
    assert code == 1
    report = _kv(captured.out)
    assert report["lemma1_holds"] == "false"
    assert int(report["violations"]) > 0
    assert "violation_1" in report
    assert report["rank"] == "2"


def test_lemma_check_rejects_mixed_rank(tmp_path, capsys):
    target = tmp_path / "mixed.txt"
    _write_mixed_rank_file(target)
    code = main(["lemma-check", "--input", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_counting_identity_on_counterexample(capsys):
    code = main(["counting", "--input", _GOLDEN])
    captured = capsys.readouterr()
    assert code == 0
    report = _kv(captured.out)
    assert report["omega_elements"] == report["omega_vectors"] == "15"
    assert report["lhs_valuation"] == "1"
    assert report["rhs_min_exponent"] == "1"
    assert report["contradiction"] == "false"


def test_wide_input_cannot_be_squared(tmp_path, capsys):
    F = make_field(2)
    S = make_subspace([mat(F, [[1, 0], [0, 1], [0, 0]])])
    target = tmp_path / "tall.txt"
    target.write_text(S.to_text())
    # 3x2 has m > n, so padding to square is refused
    code = main(["counting", "--input", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_parse_error_names_file_line_column(tmp_path, capsys):
    target = tmp_path / "bad.txt"
    target.write_text("1 2 2 GF(2)\n\n2 2 GF(2)\n1 0\n0 9\n")
    code = main(["verify", "--input", str(target), "--rank", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{target}:5:3:" in captured.err


def test_non_ascii_input_names_line_and_column(tmp_path, capsys):
    target = tmp_path / "accent.txt"
    target.write_bytes(b"1 2 2 GF(2)\n\n2 2 GF(2)\n1 0\n0 \xc3\xa9\n")
    code = main(["verify", "--input", str(target), "--rank", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"{target}:5:3: non-ASCII byte 0xc3")


def test_library_defect_is_exit_four(monkeypatch, capsys):
    def broken(config):
        raise InternalVerificationFailed("self-check failed")

    monkeypatch.setitem(cli_mod._HANDLERS, "construct", broken)
    code = main(["construct", "--field", "GF(2)", "--shape", "2x2",
                 "--rank", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert "internal error" in captured.err
    assert "self-check failed" in captured.err


def test_unexpected_exception_is_exit_four(monkeypatch, capsys):
    def broken(config):
        raise ValueError("stray value error")

    monkeypatch.setitem(cli_mod._HANDLERS, "construct", broken)
    code = main(["construct", "--field", "GF(2)", "--shape", "2x2",
                 "--rank", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert "internal error" in captured.err
    assert "stray value error" in captured.err


def test_target_rank_out_of_range_is_exit_two(tmp_path, capsys):
    target = tmp_path / "mixed.txt"
    _write_mixed_rank_file(target)
    code = main(["verify", "--input", str(target), "--rank", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: target rank 3 outside 1..2")


def test_missing_input_file(tmp_path, capsys):
    code = main(["census", "--input", str(tmp_path / "nope.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_budget_exhaustion_is_exit_three(tmp_path, capsys):
    target = tmp_path / "mixed.txt"
    _write_mixed_rank_file(target)
    code = main(["census", "--input", str(target), "--budget", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err

    code = main(["search", "--field", "GF(2)", "--shape", "3x3",
                 "--rank", "2", "--dim", "4", "--budget", "50"])
    captured = capsys.readouterr()
    assert code == 3
    report = _kv(captured.err)
    assert report["status"] == "budget-exceeded"
    assert report["nodes"] == "50"


@pytest.mark.parametrize("command", ["counting", "lemma-check"])
def test_budget_bounds_the_vector_scan(command, tmp_path, capsys):
    # 251 elements, but about 10^12 vectors for the slice scan
    F = make_field(251)
    target = tmp_path / "identity.txt"
    target.write_text(make_subspace([mat(F, [[int(i == j) for j in range(5)]
                                             for i in range(5)])]).to_text())
    code = main([command, "--input", str(target), "--budget", "1000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"error: vector space has {251 ** 5} vectors, "
                            f"enumeration budget is 1000\n")


@pytest.mark.parametrize("budget,message", [
    (3, "span has 4 elements, enumeration budget is 3"),
    (5, "vector space has 8 vectors, enumeration budget is 5"),
])
def test_counting_budget_checks_span_then_vectors(budget, message, tmp_path,
                                                  capsys):
    # a constant rank 3 plane over GF(2): 4 elements, 8 vectors in F^3
    F = make_field(2)
    target = tmp_path / "plane.txt"
    target.write_text(make_subspace([
        mat(F, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        mat(F, [[0, 0, 1], [1, 0, 1], [0, 1, 0]]),
    ]).to_text())
    code = main(["counting", "--input", str(target), "--budget", str(budget)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["bogus"],
    ["construct", "--field", "GF(6)", "--shape", "2x2", "--rank", "1"],
    ["construct", "--field", "GF(2)", "--shape", "2by2", "--rank", "1"],
    ["construct", "--field", "GF(2)", "--shape", "2x2", "--rank", "0"],
    ["construct", "--field", "GF(2)", "--shape", "2x2"],
    ["search", "--field", "GF(2)", "--shape", "2x2", "--rank", "1",
     "--dim", "1", "--workers", "-2"],
])
def test_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


def test_parser_built_once_gives_first_call_results(tmp_path, capsys):
    target = tmp_path / "mixed.txt"
    _write_mixed_rank_file(target)
    calls = [
        ["construct", "--field", "GF(2)", "--shape", "2by2", "--rank", "1"],
        ["--help"],
        ["verify", "--input", str(target), "--rank", "2"],
        ["search", "--field", "GF(2)", "--shape", "3x3", "--rank", "2",
         "--dim", "4"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = []
    for argv in calls:
        cli_mod._build_parser.cache_clear()
        first.append(run(argv))
    assert [code for code, _, _ in first] == [2, 0, 1, 0]
    cli_mod._build_parser.cache_clear()
    assert [run(argv) for argv in calls] == first
    assert cli_mod._build_parser.cache_info().misses == 1


def test_reports_are_byte_stable(tmp_path, capsys):
    target = tmp_path / "mixed.txt"
    _write_mixed_rank_file(target)
    main(["census", "--input", str(target)])
    first = capsys.readouterr().out
    main(["census", "--input", str(target)])
    second = capsys.readouterr().out
    assert first == second


def test_json_report_matches_kv(tmp_path, capsys):
    target = tmp_path / "mixed.txt"
    _write_mixed_rank_file(target)
    main(["census", "--input", str(target)])
    kv = _kv(capsys.readouterr().out)
    main(["census", "--input", str(target), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["counts"] == kv["counts"]
    assert str(doc["total_nonzero"]) == kv["total_nonzero"]
    assert doc["constant_rank"] is None


def test_search_found_emits_parseable_witness(capsys):
    code = main(["search", "--field", "GF(2)", "--shape", "3x3",
                 "--rank", "2", "--dim", "4"])
    captured = capsys.readouterr()
    assert code == 0
    W = parse_subspace(captured.out)
    assert W.d == 4
    report = _kv(captured.err)
    assert report["status"] == "found"
    assert report["nodes"] == "187"


def test_search_exhausted_is_success(capsys):
    code = main(["search", "--field", "GF(3)", "--shape", "2x2",
                 "--rank", "1", "--dim", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert _kv(captured.err)["status"] == "exhausted-none"


def test_search_all_counts_everything(capsys):
    code = main(["search", "--field", "GF(2)", "--shape", "3x3",
                 "--rank", "2", "--dim", "4", "--all"])
    captured = capsys.readouterr()
    assert code == 0
    assert _kv(captured.err)["found_count"] == "1176"


@pytest.mark.parametrize("extra,code", [
    ([], 0),
    (["--all"], 0),
    (["--budget", "187"], 0),
    (["--budget", "186"], 3),
    (["--all", "--budget", "187"], 3),
], ids=["find", "all", "budget-at-find", "budget-before-find", "all-budget"])
def test_search_output_does_not_depend_on_workers(extra, code, capsys,
                                                  monkeypatch):
    # 187 nodes is where the serial search finds its witness
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["search", "--field", "GF(2)", "--shape", "3x3", "--rank", "2",
            "--dim", "4", *extra]
    runs = []
    for workers in ("1", "2"):
        assert main([*argv, "--workers", workers]) == code
        captured = capsys.readouterr()
        report = captured.err.replace(f"workers={workers}\n", "")
        assert report != captured.err
        runs.append((captured.out, report))
    assert runs[0] == runs[1]


def test_search_oracle_delegates_to_census(capsys):
    code = main(["search", "--field", "GF(2)", "--shape", "3x3",
                 "--rank", "2", "--dim", "4", "--oracle"])
    captured = capsys.readouterr()
    assert code == 0
    report = _kv(captured.out)
    assert report["count"] == "1176"
    assert report["oracle"] == "true"

    code = main(["oracle", "--field", "GF(2)", "--shape", "3x3",
                 "--rank", "2", "--dim", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert _kv(captured.out)["count"] == "1176"


def test_console_script_is_installed():
    proc = subprocess.run(
        ["constrank", "oracle", "--field", "GF(2)", "--shape", "2x2",
         "--rank", "2", "--dim", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "count=2" in proc.stdout


def test_python_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "constrank", "oracle", "--field", "GF(2)",
         "--shape", "2x2", "--rank", "2", "--dim", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert "count=2" in proc.stdout


def test_cli_import_leaves_the_process_pool_unloaded():
    # the search imports its process pool when it starts one, so that
    # every other command keeps the import time it had without it
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, constrank, constrank.cli; print(sorted(m for m in "
         "('concurrent.futures', 'multiprocessing.pool') if m in sys.modules))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_python_m_cli_module_runs_the_cli(capsys):
    argv = ["oracle", "--field", "GF(2)", "--shape", "2x2", "--rank", "2",
            "--dim", "2", "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "constrank.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stdout == expected
    assert json.loads(proc.stdout)["count"] == 2
    assert proc.stderr == ""
    # a failing command keeps its exit code through the module form
    proc = subprocess.run(
        [sys.executable, "-m", "constrank.cli", "oracle", "--field", "GF(4)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert "characteristic 4 is not prime" in proc.stderr
