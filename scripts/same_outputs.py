#!/usr/bin/env python3
"""Check that this tree writes the same bytes as another revision.

    python3 scripts/same_outputs.py --against HEAD~1

Extracts REV with `git archive REV | tar -x` into a temporary directory,
then runs the same commands with each tree's `src/` on the same corpora:
the bundled fixture, the `perfbench/gencorpus.py` corpora of seeds 0 and 3
at scale `sara`, and the fixture with no silver cases and a third split,
`dev` (`tests/layouts.py`'s `write_dev_split`), each written once, in the
canonical format and in the distributed layout that `import-sara` reads
(`write_distributed`). The commands are every step of
`perfbench/workloads.STEPS`, `scripts/reproduce_tables.py`, 28 more
`eval-inst` flag sets (each resolver with no flag, `--no-structure`, depth
caps, a threshold, `--split all`, `--split dev` and `--insert-gold`; the
constant resolver with `--with-silver`; and four invalid flag sets; less
the 7 that a step of STEPS runs already) and `import-sara` of the
distributed layout, whose canonical tree is compared as an output. Each
distinct command runs once per corpus, in its corpus's working directory
with relative paths, one process at a time.

Every file written, every stdout and stderr and every exit code is
compared, and the first differing line of each difference is printed.
Exits 0 when there is none, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench"), str(REPO / "tests")]

import gencorpus  # noqa: E402
from layouts import write_dev_split, write_distributed  # noqa: E402
from statreason.corpus import load_corpus  # noqa: E402
from workloads import STEPS, command_line  # noqa: E402

FIXTURE = REPO / "tests" / "fixtures" / "corpus"
SEEDS = (0, 3)
MANIFEST = "corpus/manifest.txt"
DISTRIBUTED = "distributed"
OUT = "out"

# eval-inst flag sets, of which `commands` skips those that a step of STEPS runs;
# the last four are invalid.
EVERY_RESOLVER = [
    [], ["--no-structure"], ["--no-structure", "--depth-cap", "5"], ["--depth-cap", "1"], ["--depth-cap", "2"],
    ["--depth-cap", "4"], ["--threshold", "0.3"], ["--split", "all"], ["--split", "dev"], ["--insert-gold"],
]
FLAG_SETS = [
    *(["--resolver", resolver, *flags] for resolver in ("oracle", "constant", "heuristic") for flags in EVERY_RESOLVER),
    ["--resolver", "constant", "--with-silver"],
    ["--depth-cap", "0"],
    ["--no-structure", "--depth-cap", "0"],
    ["--threshold", "1.5"],
    ["--split", ""],
]


def commands(tree: Path) -> dict[str, list[str]]:
    """Each command's arguments to python, by label, for `tree`'s scripts."""
    out = Path(OUT)
    runs = {label: ["-m", "statreason", *command_line(label, out / label)] for label in STEPS}
    runs["reproduce-tables"] = [
        str(tree / "scripts" / "reproduce_tables.py"), "--manifest", MANIFEST, "--out", f"{OUT}/reproduce-tables"
    ]
    for flags in FLAG_SETS:
        if ["eval-inst", *flags] in STEPS.values():
            continue
        label = "eval-inst" + "".join(f"_{flag.lstrip('-')}" for flag in flags)
        runs[label] = ["-m", "statreason", "eval-inst", "--manifest", MANIFEST, *flags, "--out", f"{OUT}/{label}"]
    runs["import-sara"] = ["-m", "statreason", "import-sara", "--source", DISTRIBUTED, "--dest", f"{OUT}/import-sara"]
    return runs


def write_corpora(root: Path, seeds=SEEDS) -> dict[str, Path]:
    """The working directory of each corpus, its corpus in `corpus/` and in
    the distributed layout in `distributed/`: the fixture, the generated
    corpus of each of `seeds` and the fixture with a dev split."""
    work = {"fixture": root / "fixture"}
    shutil.copytree(FIXTURE, work["fixture"] / "corpus")
    for seed in seeds:
        work[f"sara-{seed}"] = root / f"sara-{seed}"
        gencorpus.generate(work[f"sara-{seed}"] / "corpus", seed, "sara")
    work["fixture-dev"] = root / "fixture-dev"
    write_dev_split(load_corpus(FIXTURE / "manifest.txt"), work["fixture-dev"] / "corpus")
    for directory in work.values():
        write_distributed(load_corpus(directory / MANIFEST), directory / DISTRIBUTED)
    return work


def run_tree(tree: Path, corpora: dict[str, Path], dest: Path, labels=None) -> dict[str, tuple[int, bytes, bytes]]:
    """Run the commands (all, or those of `labels`) with `tree`'s sources on
    every corpus, move each corpus's outputs to dest/<corpus>, and return
    (exit code, stdout, stderr) by "<corpus> <label>"."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    runs = commands(tree)
    results = {}
    dest.mkdir(parents=True)
    for name, work in corpora.items():
        for label in labels or runs:
            done = subprocess.run([sys.executable, *runs[label]], cwd=work, env=env, capture_output=True)
            results[f"{name} {label}"] = (done.returncode, done.stdout, done.stderr)
        if (work / OUT).exists():
            shutil.move(work / OUT, dest / name)
    return results


def _first_difference(old: bytes, new: bytes) -> str:
    old_lines, new_lines = old.decode(errors="replace").splitlines(), new.decode(errors="replace").splitlines()
    for i, (a, b) in enumerate(zip(old_lines, new_lines)):
        if a != b:
            return f"line {i + 1}: {a!r} != {b!r}"
    i = min(len(old_lines), len(new_lines))
    if len(old_lines) != len(new_lines):
        return f"line {i + 1}: only in the {'old' if len(old_lines) > i else 'new'} output"
    return "the same lines in different bytes"


def files_under(directory: Path) -> dict[str, bytes]:
    """The bytes of every file under `directory`, by its relative path."""
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def differences(old_runs: dict, new_runs: dict, old_files: dict[str, bytes], new_files: dict[str, bytes]) -> list[str]:
    """One line per difference: a run's exit code, stdout or stderr, or a
    file's bytes by its path."""
    found = []
    for key in sorted(old_runs.keys() | new_runs.keys()):
        if key not in old_runs or key not in new_runs:
            found.append(f"{key}: run only in the {'old' if key in old_runs else 'new'} tree")
            continue
        (old_code, *old_streams), (new_code, *new_streams) = old_runs[key], new_runs[key]
        if old_code != new_code:
            found.append(f"{key}: exit code {old_code} != {new_code}")
        for stream, old, new in zip(("stdout", "stderr"), old_streams, new_streams):
            if old != new:
                found.append(f"{key}: {stream} {_first_difference(old, new)}")
    for path in sorted(old_files.keys() | new_files.keys()):
        if path not in old_files or path not in new_files:
            found.append(f"{path}: only in the {'old' if path in old_files else 'new'} tree")
        elif old_files[path] != new_files[path]:
            found.append(f"{path}: {_first_difference(old_files[path], new_files[path])}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="the git revision to compare with")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        root = Path(tmp)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", args.against], capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
            return 2
        old_tree = root / "old"
        old_tree.mkdir()
        subprocess.run(["tar", "-x", "-C", str(old_tree)], input=archive.stdout, check=True)
        corpora = write_corpora(root / "work")
        old_runs = run_tree(old_tree, corpora, root / "outputs" / "old")
        new_runs = run_tree(REPO, corpora, root / "outputs" / "new")
        new_files = files_under(root / "outputs" / "new")
        found = differences(old_runs, new_runs, files_under(root / "outputs" / "old"), new_files)
    for line in found:
        print(line)
    print(f"{len(found)} differences in {len(new_runs)} runs ({len(corpora)} corpora) and {len(new_files)} files")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
