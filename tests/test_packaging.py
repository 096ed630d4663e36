"""The package runs on the standard library alone: importing the CLI pulls
in no numeric stack, and pyproject.toml declares no runtime dependency.
The package root exports nothing, so importing one module loads only what
that module needs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return result.stdout.strip()


def test_cli_import_loads_no_numpy_or_scipy():
    code = (
        "import statreason.cli, sys; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    )
    assert _run(code) == "[]"


def test_package_root_defines_no_names_and_records_loads_alone():
    code = (
        "import statreason, sys; "
        "print([n for n in vars(statreason) if not n.startswith('_')]); "
        "import statreason.records; "
        "print(sorted(m for m in ('engine', 'rules', 'corpus', 'reports', 'baselines')"
        " if 'statreason.' + m in sys.modules))"
    )
    assert _run(code).splitlines() == ["[]", "[]"]


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
