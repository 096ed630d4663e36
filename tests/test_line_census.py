"""`scripts/line_census.py` over one small test file of its own."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "statreason"


def line_of(path: Path, text: str) -> int:
    return next(i for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if line.strip() == text)


def census(cwd: Path, test_file: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "line_census.py"), "-q", "-p", "no:cacheprovider", test_file],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_the_census_lists_the_lines_a_test_file_does_not_reach(tmp_path):
    (tmp_path / "test_one.py").write_text(
        "from statreason.metrics import prf\n\n\ndef test_prf():\n    assert prf(1, 2, 2).f1 == 0.5\n",
        encoding="utf-8",
    )
    done = census(tmp_path, "test_one.py")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    listed = [line for line in lines if re.match(r"statreason/\w+\.py:\d+  ", line)]
    counts = dict(re.findall(r"^(statreason/\w+\.py): (\d+) unreached$", done.stdout, re.MULTILINE))
    assert sorted(counts) == sorted(f"statreason/{path.name}" for path in PACKAGE.glob("*.py"))
    for module, count in counts.items():
        assert sum(line.startswith(f"{module}:") for line in listed) == int(count), module
    assert lines[-1] == f"total: {len(listed)} unreached"

    metrics = PACKAGE / "metrics.py"
    empty = "return PRF(1.0, 1.0, 1.0)"
    assert f"statreason/metrics.py:{line_of(metrics, empty)}  {empty}" in listed
    reached = line_of(metrics, "p = matched / total_pred if total_pred else 0.0")
    assert not any(line.startswith(f"statreason/metrics.py:{reached}  ") for line in listed)
    # A module that the test never imports is unreached from its first line.
    assert "statreason/sara_import.py:1  \"\"\"Import of a distributed statutory-reasoning dataset into the canonical" in listed


def test_a_census_of_drawn_examples_is_the_same_on_every_run(tmp_path):
    # Which of `write_value`'s branches the test reaches depends on the
    # three values Hypothesis draws of eight kinds; a census draws the same.
    (tmp_path / "test_drawn.py").write_text(
        "from datetime import date\n"
        "from hypothesis import given, settings, strategies as st\n"
        "from statreason.model import Money\n"
        "from statreason.records import write_value\n\n\n"
        "@settings(max_examples=3)\n"
        "@given(st.sampled_from(['a', Money(5), 7, date(2017, 1, 1), 1.0, 0.0, 0.5, ('a', 7)]))\n"
        "def test_write_value(value):\n    assert write_value(value)\n",
        encoding="utf-8",
    )
    outputs = []
    for _ in range(2):
        done = census(tmp_path, "test_drawn.py")
        assert done.returncode == 0, done.stdout + done.stderr
        outputs.append([line for line in done.stdout.splitlines() if line.startswith(("statreason/", "total: "))])
    assert outputs[0] == outputs[1]
