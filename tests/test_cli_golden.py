"""Report bytes of every subcommand, pinned in data/cli_golden.json.

Each case runs cli.main in-process from the tests directory, so input
paths read data/<file> in messages too, and records the exit code,
stdout, stderr and the file written to --output.  After a deliberate
change to a report, rewrite the goldens with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

import constrank.search as search_mod
from constrank.cli import main

_HERE = os.path.dirname(os.path.abspath(__file__))
_GOLDEN = os.path.join(_HERE, "data", "cli_golden.json")
# argparse wraps usage lines to the terminal width
_COLUMNS = "80"

_SEARCH = ["search", "--field", "GF(2)", "--shape", "3x3", "--rank", "2",
           "--dim", "4"]
_ORACLE = ["--field", "GF(2)", "--shape", "3x3", "--rank", "2", "--dim", "4"]

# each of these runs as key=value lines and again with --json
_REPORTS = [
    ["construct", "--field", "GF(3)", "--shape", "2x3", "--rank", "1"],
    ["construct", "--field", "GF(2^2)", "--shape", "3x3", "--rank", "3",
     "--output", "{out}"],
    ["construct", "--field", "GF(2)", "--shape", "3x2", "--rank", "1"],
    ["verify", "--input", "data/m3_gf2_rank2_dim4.txt", "--rank", "2"],
    ["verify", "--input", "data/gf3_mixed_rank.txt", "--rank", "2"],
    ["verify", "--input", "data/gf3_mixed_rank.txt", "--rank", "3"],
    ["verify", "--input", "data/gf2_bad_entry.txt", "--rank", "1"],
    ["verify", "--input", "data/missing.txt", "--rank", "1"],
    ["census", "--input", "data/gf3_mixed_rank.txt"],
    ["census", "--input", "data/gf4_3x3_rank3.txt"],
    ["census", "--input", "data/gf3_mixed_rank.txt", "--budget", "4"],
    ["lemma-check", "--input", "data/gf4_3x3_rank3.txt"],
    ["lemma-check", "--input", "data/gf3_3x3_rank2.txt"],
    ["lemma-check", "--input", "data/gf3_3x3_rank2.txt", "--sample", "5",
     "--seed", "7"],
    ["lemma-check", "--input", "data/m3_gf2_rank2_dim4.txt"],
    ["lemma-check", "--input", "data/gf3_mixed_rank.txt"],
    ["counting", "--input", "data/m3_gf2_rank2_dim4.txt"],
    ["counting", "--input", "data/gf3_3x3_rank2.txt"],
    ["counting", "--input", "data/gf2_tall.txt"],
    *([*_SEARCH, *extra, "--workers", w]
      for extra in ([], ["--all"], ["--budget", "50"], ["--output", "{out}"])
      for w in ("1", "2")),
    ["search", "--field", "GF(3)", "--shape", "2x2", "--rank", "1",
     "--dim", "3"],
    ["oracle", *_ORACLE],
    ["search", *_ORACLE, "--oracle"],
    ["oracle", "--field", "GF(3)", "--shape", "3x3", "--rank", "2",
     "--dim", "4"],
]

# rejected by the parser, before any report
_USAGE = [
    ["construct", "--field", "GF(2)", "--shape", "2by2", "--rank", "1"],
    ["construct", "--field", "GF(6)", "--shape", "2x2", "--rank", "1"],
    ["search", *_ORACLE, "--workers", "0"],
]

CASES = [*_REPORTS, *([*argv, "--json"] for argv in _REPORTS), *_USAGE]


def run_case(argv, out_path):
    """Run main(argv), {out} standing for out_path, from the tests
    directory: the golden record of the case."""
    stdout, stderr = io.StringIO(), io.StringIO()
    args = [out_path if a == "{out}" else a for a in argv]
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(args)
    output = None
    if "{out}" in argv and os.path.exists(out_path):
        with open(out_path, encoding="ascii") as fh:
            output = fh.read()
        os.remove(out_path)
    return {"argv": argv, "code": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "output": output}


@pytest.fixture(scope="module")
def goldens():
    with open(_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_corpus_lists_every_case(goldens):
    assert [g["argv"] for g in goldens] == CASES


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[" ".join(argv) for argv in CASES])
def test_report_bytes_match_the_golden(index, goldens, tmp_path, monkeypatch):
    monkeypatch.chdir(_HERE)
    monkeypatch.setenv("COLUMNS", _COLUMNS)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # the main process hands each search to the workers before it searches
    # a node, so that they search every depth-1 candidate
    monkeypatch.setattr(search_mod, "_HAND_OFF", 0)
    golden = goldens[index]
    assert run_case(golden["argv"], str(tmp_path / "out.txt")) == golden


if __name__ == "__main__":
    os.chdir(_HERE)
    os.environ["COLUMNS"] = _COLUMNS
    os.cpu_count = lambda: 2
    with tempfile.TemporaryDirectory() as tmp:
        records = [run_case(argv, os.path.join(tmp, "out.txt"))
                   for argv in CASES]
    with open(_GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} cases to {_GOLDEN}", file=sys.stderr)
