"""Smoke test of the benchmark at the smallest scale.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once, untraced and traced, through the output checker
and asserts that each run exits 0 with no failed command; checks that the
checker fails steps on a corpus it has no matching reference for.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["fixture-battery", "sara-coref", "sara-inst"])
def test_workload_runs_clean(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "0.1",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr


def test_unknown_or_changed_corpus_fails(tmp_path):
    prep = workloads.prepare("sara-coref", 5, "smoke", tmp_path, BENCH.parent / "tests" / "fixtures" / "corpus")
    assert prep.corpus == "smoke-1" and prep.golden_problem is None
    assert set(prep.golden) >= set(prep.steps)
    assert "no reference outputs" in checker.load_golden("smoke-99", tmp_path / "corpus")[1]
    coref = tmp_path / "corpus" / "coref.txt"
    coref.write_text(coref.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    golden, problem = checker.load_golden("smoke-1", tmp_path / "corpus")
    assert golden == {} and "digest" in problem
    assert checker.check("validate", 0, tmp_path, None, {}) == ["no stored reference output to compare with"]
