#!/usr/bin/env python3
"""List the executable lines of `src/statreason/` that no test reaches.

    python3 scripts/line_census.py [pytest args...]

Runs pytest in this process, with the given arguments, under a
`sys.settrace` hook that records the lines run in the files of
`src/statreason/`, then prints each executable line that was not run as
`module:line  source`, a count per module and a total. A module's
executable lines are the `co_lines()` of its compiled code, nested code
objects included. Code that tests run in a subprocess (`python -m
statreason`, scripts) is not traced, so its lines count as unreached.
Hypothesis runs derandomized and without its example database, so the same
tests reach the same lines on every run. Exits with pytest's exit code.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "statreason"


def executable_lines(path: Path) -> set[int]:
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # module code starts at line 0
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


class Derandomized:
    """A pytest plugin that loads a Hypothesis profile with no randomness
    and no example database as pytest starts, before any test module (and
    so any `@settings`) is loaded. Importing Hypothesis here rather than
    before `pytest.main` leaves pytest free to rewrite its asserts."""

    @staticmethod
    def pytest_configure(config) -> None:
        from hypothesis import settings

        settings.register_profile("line-census", derandomize=True, database=None)
        settings.load_profile("line-census")


def main(args: list[str]) -> int:
    sys.path.insert(0, str(REPO / "src"))
    import pytest

    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = reached.setdefault(frame.f_code.co_filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args, plugins=[Derandomized()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(executable_lines(path) - reached.get(str(path), set()))
        name = path.relative_to(PACKAGE.parent).as_posix()
        for line in missed:
            print(f"{name}:{line}  {source[line - 1].strip()}")
        print(f"{name}: {len(missed)} unreached")
        total += len(missed)
    print(f"total: {total} unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
