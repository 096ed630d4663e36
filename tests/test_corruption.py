"""One-line corruption of every fixture file and of the prediction imports.

Each file in turn has one line deleted, duplicated, cut to half its length,
cut by its last character, garbled in the middle, or given a byte that is
not UTF-8 in the middle. Every command must
answer with exit 0 (the damage left a coherent corpus) or exit 1, never a
runtime error (exit 2), and every message it prints must name the file and
line it found the problem at (`path:line: ...`; a manifest problem, a
missing key or path, is `manifest.txt: ...`) or be a cross-file
`corpus: ...` problem. Commands run in process, so the whole battery
takes seconds.
"""

import contextlib
import io
import re
import shutil
from pathlib import Path

import pytest

from statreason.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "corpus"

FILES = sorted(str(p.relative_to(FIXTURES)) for p in FIXTURES.rglob("*") if p.is_file())
GARBLE = '\x00]=("'


def corruptions(text: str):
    """(what, corrupted bytes) for every one-line corruption of `text`."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        before, after = lines[:i], lines[i + 1 :]
        middle = len(line) // 2
        for what, replaced in (
            ("delete", []),
            ("duplicate", [line, line]),
            ("halve", [line[:middle]]),
            ("chop", [line[:-1]]),
            ("garble", [line[:middle] + GARBLE + line[middle + 1 :]]),
        ):
            yield f"line {i + 1}: {what}", "\n".join(before + replaced + after).encode()
        head, tail = "\n".join(before + [line[:middle]]), "\n".join([line[middle:]] + after)
        yield f"line {i + 1}: not UTF-8", head.encode() + b"\xff" + tail.encode()


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check(argv: list[str], root) -> int:
    code, err = run(argv)
    assert code in (0, 1), (argv, code, err)
    named = re.compile(re.escape(str(root)) + r"/(\S+?/manifest\.txt|\S+?:\d+): |corpus: ")
    for line in err.splitlines():
        assert named.match(line), (argv, line)
    return code


@pytest.mark.parametrize("name", FILES)
def test_corrupt_corpus_file(name, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES, root)
    manifest = str(root / "manifest.txt")
    target = root / name
    original = target.read_text(encoding="utf-8")
    for what, data in corruptions(original):
        target.write_bytes(data)
        if check(["validate", "--manifest", manifest], tmp_path) == 0:
            for command in (["eval-inst", "--split", "all"], ["eval-coref"], ["cascade"]):
                check([command[0], "--manifest", manifest, *command[1:]], tmp_path)
    target.write_text(original, encoding="utf-8")


@pytest.mark.parametrize(
    "writer, readers",
    [
        (["eval-argid", "--source", "heuristic"], [["eval-argid", "--source"], ["cascade", "--source"]]),
        (["eval-coref", "--baseline", "string"], [["eval-coref", "--baseline"]]),
    ],
)
def test_corrupt_prediction_import(writer, readers, tmp_path):
    # The corpus is copied under tmp_path too: a coref record missing from
    # the import is reported at its subsection's line of the spans file.
    shutil.copytree(FIXTURES, tmp_path / "corpus")
    manifest = str(tmp_path / "corpus" / "manifest.txt")
    out = tmp_path / "out"
    assert run([writer[0], "--manifest", manifest, *writer[1:], "--out", str(out)])[0] == 0
    target = out / f"{writer[0]}.predictions.txt"
    original = target.read_text(encoding="utf-8")
    for what, data in corruptions(original):
        target.write_bytes(data)
        for command, option in readers:
            check([command, "--manifest", manifest, option, f"import:{target}"], tmp_path)
