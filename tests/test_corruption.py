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

`validate`'s exit code and stderr for every corruption of every fixture
file are pinned in `fixtures/corruption_battery.txt`; after a deliberate
change of a message, rewrite it with `python tests/test_corruption.py`.

A structural battery puts each path of the manifest, and a file of each
kind the loader reads, in place as the wrong kind of entry and removes it;
`validate` must answer with exit 1 and a message naming the path.
"""

import contextlib
import io
import os
import re
import shutil
import sys
from pathlib import Path

import pytest

from statreason.cli import main
from statreason.rules import parse_program

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
from workloads import STEPS, command_line  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures" / "corpus"

FILES = sorted(str(p.relative_to(FIXTURES)) for p in FIXTURES.rglob("*") if p.is_file())
PINNED = Path(__file__).parent / "fixtures" / "corruption_battery.txt"
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


# `validate` checks every file, and a report command the files it reads.
# The coreference, identification and cascade commands read no case, so
# whatever one corruption does to a cases file they write what they write
# on the clean fixture, but for the corpus hash of the records' @run line;
# `validate` and `eval-inst` still refuse it as pinned.
COREF_FAMILY = (["eval-coref"], ["eval-argid", "--source", "heuristic"], ["cascade", "--source", "heuristic"])


def _coref_family_outputs(manifest: str, out: Path) -> dict[str, str]:
    """Every file the three commands write under `out`, the corpus hash cut."""
    for command in COREF_FAMILY:
        assert run([command[0], "--manifest", manifest, *command[1:], "--out", str(out)]) == (0, "")
    return {p.name: re.sub(r' corpus="\w+"', "", p.read_text(encoding="utf-8")) for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", [name for name in FILES if name.endswith(".cases")])
def test_a_corrupt_cases_file_leaves_the_coref_family_alone(name, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES, root)
    manifest = str(root / "manifest.txt")
    clean = _coref_family_outputs(manifest, tmp_path / "clean")
    assert len(clean) == 8  # a report and records per command, predictions for two
    pinned = dict(re.findall(r"^== (.+) -> (\d)$", PINNED.read_text(encoding="utf-8"), re.MULTILINE))
    target = root / name
    original = target.read_text(encoding="utf-8")
    for i, (what, data) in enumerate(corruptions(original)):
        target.write_bytes(data)
        assert _coref_family_outputs(manifest, tmp_path / f"out{i}") == clean, what
        if pinned[f"{name} {what}"] == "1":
            assert check(["validate", "--manifest", manifest], tmp_path) == 1, what
            assert check(["eval-inst", "--manifest", manifest, "--split", "all"], tmp_path) == 1, what
    target.write_text(original, encoding="utf-8")


def test_the_constant_resolver_without_a_train_case_names_the_cases_directory(tmp_path):
    # The corpus validates, but the constant resolver fits on the train
    # split (and with --with-silver the silver cases too): with no case
    # there it exits 1, not 2. The other resolvers fit nothing.
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES, root)
    (root / "cases" / "train.cases").unlink()
    manifest = str(root / "manifest.txt")
    assert run(["validate", "--manifest", manifest]) == (0, "")
    message = f"corpus: {root}/cases: no case in the train split, which the constant resolver fits on\n"
    assert run(["eval-inst", "--manifest", manifest, "--resolver", "constant"]) == (1, message)
    for flags in (["constant", "--with-silver"], ["oracle"], ["heuristic"]):
        assert run(["eval-inst", "--manifest", manifest, "--resolver", *flags]) == (0, "")
    (root / "silver" / "silver.cases").unlink()
    assert run(["eval-inst", "--manifest", manifest, "--resolver", "constant", "--with-silver"]) == (1, message)


def _printable(text: str) -> str:
    """`text` with backslashes and non-printable characters escaped."""
    return "".join(
        ch if ch.isprintable() and ch != "\\" else ch.encode("unicode_escape").decode("ascii") for ch in text
    )


def battery(tmp_path) -> str:
    """`validate`'s exit code and stderr, the temp dir written as <tmp>, for
    every corruption of every fixture file: a "== file line N: what -> exit"
    line, then the stderr lines."""
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES, root)
    out = []
    for name in FILES:
        target = root / name
        original = target.read_text(encoding="utf-8")
        for what, data in corruptions(original):
            target.write_bytes(data)
            code, err = run(["validate", "--manifest", str(root / "manifest.txt")])
            out.append(f"== {name} {what} -> {code}")
            out += (_printable(line) for line in err.replace(str(tmp_path), "<tmp>").split("\n")[:-1])
        target.write_text(original, encoding="utf-8")
    return "\n".join(out) + "\n"


def test_validate_answers_every_corruption_as_pinned(tmp_path):
    assert battery(tmp_path) == PINNED.read_text(encoding="utf-8")


# Each path the manifest names, the manifest and a file of each kind the
# loader reads in them: what `validate` says of it as the other kind of
# entry (a file for a directory, a directory for a file) or as a FIFO,
# and of it missing (None: the corpus only has fewer cases).
ENTRIES = {
    "manifest.txt": ("{0}/manifest.txt: not a file", "{0}/manifest.txt: not a file"),
    "statutes": (
        "{0}/manifest.txt: statutes path is not a directory: {0}/statutes",
        "{0}/manifest.txt: statutes path does not exist: {0}/statutes",
    ),
    "spans.txt": (
        "{0}/manifest.txt: spans path is not a file: {0}/spans.txt",
        "{0}/manifest.txt: spans path does not exist: {0}/spans.txt",
    ),
    "coref.txt": (
        "{0}/manifest.txt: coref path is not a file: {0}/coref.txt",
        "{0}/manifest.txt: coref path does not exist: {0}/coref.txt",
    ),
    "structure.txt": (
        "{0}/manifest.txt: structure path is not a file: {0}/structure.txt",
        "{0}/manifest.txt: structure path does not exist: {0}/structure.txt",
    ),
    "cases": (
        "{0}/manifest.txt: cases path is not a directory: {0}/cases",
        "{0}/manifest.txt: cases path does not exist: {0}/cases",
    ),
    "silver": (
        "{0}/manifest.txt: silver path is not a directory: {0}/silver",
        "{0}/manifest.txt: silver path does not exist: {0}/silver",
    ),
    "statutes/offsets.txt": (
        "{0}/statutes/offsets.txt: not a file", "{0}/statutes/offsets.txt: offsets index not found"
    ),
    # A section file is found or not at the offsets line that names it.
    "statutes/tax.txt": ("{0}/statutes/offsets.txt:12: section file not found: tax.txt",) * 2,
    "cases/test.cases": ("{0}/cases/test.cases: not a file", None),
    "silver/silver.cases": ("{0}/silver/silver.cases: not a file", None),
}


def _replace(path: Path, kind: str) -> None:
    """Put a directory, an empty file, a FIFO or nothing where `path` is."""
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()
    if kind == "directory":
        path.mkdir()
    elif kind == "file":
        path.write_bytes(b"")
    elif kind == "fifo":
        os.mkfifo(path)


@pytest.mark.parametrize(
    "name, kind",
    [
        (name, kind)
        for name in ENTRIES
        for kind in ("directory", "file", "fifo", "missing")
        if kind != ("directory" if (FIXTURES / name).is_dir() else "file")
    ],
)
def test_entries_of_the_wrong_kind_name_their_path(name, kind, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES, root)
    _replace(root / name, kind)
    message = ENTRIES[name][kind == "missing"]
    code, err = run(["validate", "--manifest", str(root / "manifest.txt")])
    assert (code, err) == ((1, message.format(root) + "\n") if message else (0, ""))


def test_directories_that_look_like_corpus_files(tmp_path):
    # A directory named like a section file is none; one named like a
    # cases file is not a file.
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES, root)
    (root / "statutes" / "extra.txt").mkdir()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", "--manifest", str(root / "manifest.txt")])
    assert code == 0 and "6 section files" in out.getvalue()
    (root / "cases" / "extra.cases").mkdir()
    assert run(["validate", "--manifest", str(root / "manifest.txt")]) == (1, f"{root}/cases/extra.cases: not a file\n")


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


# Input nested past what recursion could read: a case value, a clause body
# in brackets and a NOT chain 10,000 levels deep are refused at their line
# with exit 1. A recursive rule unrolls to any depth cap without recursing.

DEEP = 10_000


def _append(path: Path, line: str) -> tuple[str, int]:
    """Append `line` to `path`: the text before it and its line number."""
    original = path.read_text(encoding="utf-8")
    path.write_text(original + line + "\n", encoding="utf-8")
    return original, original.count("\n") + 1


def test_a_case_value_nested_ten_thousand_levels(tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES, root)
    path = root / "cases" / "test.cases"
    head = 'deep query="Tax" description="d" inputs=[X='
    _, lineno = _append(path, head + "[" * DEEP + "1" + "]" * DEEP + "] expected=[@truth=true]")
    # Level 101 is the value's 99th bracket: inputs' list and X's entry are
    # levels 1 and 2.
    message = f"{path}:{lineno}: nested deeper than 100 levels (column {len(head) + 100})\n"
    assert run(["validate", "--manifest", str(root / "manifest.txt")]) == (1, message)


@pytest.mark.parametrize("nesting, width", [("[", 1), ("NOT ", 4)])
def test_a_clause_body_nested_ten_thousand_levels(nesting, width, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES, root)
    path = root / "structure.txt"
    head = "Deep(x) :- "
    body = nesting * DEEP + "Tax(x)" + ("]" * DEEP if nesting == "[" else "")
    original, lineno = _append(path, head + body + ".")
    clauses = len(parse_program(original)[0])
    offset = len(original) + len(head) + 100 * width
    message = f"clause {clauses + 1}: brackets and NOTs nest deeper than 100 levels (at offset {offset})"
    assert run(["validate", "--manifest", str(root / "manifest.txt")]) == (1, f"{path}:{lineno}: {message}\n")


def test_a_recursive_rule_runs_at_a_depth_cap_of_5000(tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES, root)
    path = root / "structure.txt"
    text = path.read_text(encoding="utf-8")
    recursive = "\n§1(d)(iv)(Tax, Taxinc) :- §1(d)(iv)(Tax, Taxinc).\n"
    path.write_text(text.replace("\n§1(d)(iv)(Tax, Taxinc).\n", recursive), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["eval-inst", "--manifest", str(root / "manifest.txt"), "--resolver", "oracle", "--split", "all"]
    assert run([*argv, "--depth-cap", "5000", "--out", str(out)]) == (0, "")
    # The two Tax cases unroll the recursive rule 5,000 levels and score
    # like every other case.
    report = (out / "eval-inst.report.txt").read_text(encoding="utf-8")
    assert "case errors:" not in report and "\n    unified         100.0 +-  0.0   (n=14)\n" in report


# Input that recursion or int() could not read gives exit 0 or a located
# exit 1: a chain of 2,000 possessives in a subsection's text, and integers
# past the interpreter's 4,300-digit conversion limit.


def test_a_possessive_chain_runs_every_benchmark_step(tmp_path, monkeypatch):
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES, root)
    section = root / "statutes" / "section1.txt"
    text = section.read_text(encoding="utf-8")
    chain = "the a's " + "b c's " * 2000 + "end"
    section.write_text(text + chain, encoding="utf-8")
    _append(root / "statutes" / "offsets.txt", f'§9(a) file="section1.txt" start={len(text)} end={len(text + chain)}')
    # The heuristic reads the subsections that have a layer.
    _append(root / "spans.txt", "§9(a) spans=[(0, 5)]")
    _append(root / "coref.txt", "§9(a) clusters=[[0]]")
    monkeypatch.chdir(tmp_path)
    assert {label: run(command_line(label, Path("out") / label)) for label in STEPS} == dict.fromkeys(STEPS, (0, ""))


NINES = "9" * 5000


@pytest.mark.parametrize(
    "name, line",
    [
        ("statutes/offsets.txt", f'§9(a) file="section1.txt" start=0 end={NINES}'),
        ("spans.txt", f"§1(d)(iv) spans=[(0, {NINES})]"),
        ("coref.txt", f"§9(a) clusters=[[{NINES}]]"),
        ("cases/test.cases", f'big query="Tax" description="d" inputs=[] expected=[Big={NINES}, @truth=true]'),
        ("silver/silver.cases", f'big query="Tax" description="d" inputs=[Tax=${NINES}] expected=[@truth=true]'),
    ],
)
def test_an_integer_past_the_digit_limit_in_each_record_file(name, line, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES, root)
    path = root / name
    _, lineno = _append(path, line)
    message = f"integer too long (5000 characters) (column {line.index(NINES) + 5001})"
    assert run(["validate", "--manifest", str(root / "manifest.txt")]) == (1, f"{path}:{lineno}: {message}\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        PINNED.write_text(battery(Path(tmp)), encoding="utf-8")
