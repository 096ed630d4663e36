"""Every command's output on the fixture corpora, pinned byte for byte.

Each command of `scripts/same_outputs.commands()` runs in process, through
`cli.main` or `reproduce_tables.main`, on the two corpora that
`same_outputs.write_corpora` writes without a generated one: the bundled
fixture and its dev-split copy (`layouts.write_dev_split`); `import-sara`
reads their distributed layouts. Each runs in its corpus's working
directory with relative paths, as `same_outputs.py` runs it, and with
COLUMNS=80, so that argparse wraps its usage text the same in any terminal.

The exit code, stdout and stderr of every run and the bytes of every file
written are pinned in `fixtures/outputs.txt`, and each difference is
reported with its first differing line by `same_outputs.differences`. After
a deliberate change of an output, rewrite the file with
`python tests/test_outputs.py`, and list every run that changed.

The file holds a "== <corpus> <label> -> <exit>" block for each run, with
its stdout and stderr, then a "== <corpus>/<label>/<path>" block for each
file. Each output is a "<name>: N lines" line and its lines, escaped as in
`fixtures/corruption_battery.txt`; ", no newline at end" marks one whose
last line is not ended.
"""

import contextlib
import io
import os
import re
import sys
from pathlib import Path
from unittest import mock

from statreason import cli
from test_corruption import _printable
from test_every_command import working_directory

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import reproduce_tables  # noqa: E402
import same_outputs  # noqa: E402

PINNED = Path(__file__).parent / "fixtures" / "outputs.txt"
RUN = re.compile(r"== (.+) -> (\d+)")
OUTPUT = re.compile(r"(.+): (\d+) lines(, no newline at end)?")


def run(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one command of `same_outputs.commands`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv[2:]) if argv[:2] == ["-m", "statreason"] else reproduce_tables.main(argv[1:])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    return code, *(stream.getvalue().encode("utf-8", "surrogateescape") for stream in (out, err))


def outputs(root: Path) -> tuple[dict, dict]:
    """Every run by "<corpus> <label>", and every file written by
    "<corpus>/<path under out/>", as `same_outputs` keys them."""
    runs, files = {}, {}
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for name, work in same_outputs.write_corpora(root, seeds=()).items():
            with working_directory(work):
                for label, argv in same_outputs.commands(ROOT).items():
                    runs[f"{name} {label}"] = run(argv)
            written = same_outputs.files_under(work / same_outputs.OUT)
            files.update((f"{name}/{path}", data) for path, data in written.items())
    return runs, files


def _output(name: str, data: bytes) -> list[str]:
    """One output in the file's framing: its head line, then its lines."""
    lines = data.decode("utf-8", "surrogateescape").split("\n")
    end = ", no newline at end" if lines[-1] else ""
    if not end:
        lines.pop()
    return [f"{name}: {len(lines)} lines{end}", *map(_printable, lines)]


def render(runs: dict, files: dict) -> str:
    text = []
    for key, (code, stdout, stderr) in sorted(runs.items()):
        text += [f"== {key} -> {code}", *_output("stdout", stdout), *_output("stderr", stderr)]
    for path, data in sorted(files.items()):
        text += _output(f"== {path}", data)
    return "\n".join(text) + "\n"


def parse(text: str) -> tuple[dict, dict]:
    """The runs and files that `render` wrote into `text`."""
    lines = iter(text.split("\n")[:-1])

    def output(head: str) -> tuple[str, bytes]:
        name, count, unended = OUTPUT.fullmatch(head).groups()
        body = [next(lines).encode("latin-1", "backslashreplace").decode("unicode_escape") for _ in range(int(count))]
        data = "".join(line + "\n" for line in body)
        return name, (data[:-1] if unended else data).encode("utf-8", "surrogateescape")

    runs, files = {}, {}
    for line in lines:
        if run_head := RUN.fullmatch(line):
            runs[run_head[1]] = (int(run_head[2]), output(next(lines))[1], output(next(lines))[1])
        else:
            path, data = output(line)
            files[path.removeprefix("== ")] = data
    return runs, files


def test_every_command_writes_the_pinned_outputs(tmp_path):
    runs, files = outputs(tmp_path)
    assert len(runs) == 2 * len(same_outputs.commands(ROOT))
    pinned = PINNED.read_text(encoding="utf-8")
    assert parse(render(runs, files)) == (runs, files)
    pinned_runs, pinned_files = parse(pinned)
    found = same_outputs.differences(pinned_runs, runs, pinned_files, files)
    assert not found, "\n".join(["outputs differ from fixtures/outputs.txt:", *found])
    assert render(runs, files) == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        PINNED.write_text(render(*outputs(Path(tmp))), encoding="utf-8")
