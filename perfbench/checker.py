"""Output checker: decides whether one statreason command failed.

A command fails when its exit code is not 0, when an expected output file
is missing, when a `*.report.txt` or `*.predictions.txt` differs in any byte
from the stored reference output (lines starting with `@run` are skipped,
because they echo flags), when a metric that the reference `*.records.txt`
has reads a different value (new metric names are allowed), or when it
misses an answer known without running statreason.

Reference outputs are stored in `golden.json`, one entry per corpus
("fixture", or "<scale>-<seed>" for a generated one) with the digest of the
corpus files they were made from and the outputs of every step that any
workload runs on it. A step with no stored reference fails, and so does
every step on a corpus whose digest differs from the stored one (the
fixture, the generator or statreason's serializers changed): no change of
the inputs can switch the byte comparison off.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# Output files each subcommand writes under --out.
OUTPUTS = {
    "validate": (),
    "stats": ("stats.report.txt", "stats.records.txt"),
    "eval-coref": ("eval-coref.report.txt", "eval-coref.records.txt", "eval-coref.predictions.txt"),
    "eval-argid": ("eval-argid.report.txt", "eval-argid.records.txt", "eval-argid.predictions.txt"),
    "cascade": ("cascade.report.txt", "cascade.records.txt"),
    "eval-inst": ("eval-inst.report.txt", "eval-inst.records.txt", "eval-inst.predictions.txt"),
}


def corpus_digest(corpus: Path) -> str:
    """Digest of every file under a corpus directory, names included."""
    digest = hashlib.sha256()
    for path in sorted(p for p in corpus.rglob("*") if p.is_file()):
        digest.update(path.relative_to(corpus).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(path: Path) -> str | dict[str, str]:
    """What the checker compares: metric values of a records file, a digest
    of any other output with its `@run` lines removed."""
    lines = [l for l in path.read_text(encoding="utf-8").splitlines(keepends=True) if not l.startswith("@run")]
    if path.name.endswith(".records.txt"):
        return dict(l.rstrip("\n").split(" value=", 1) for l in lines)
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def fingerprints(command: str, out: Path) -> dict[str, str | dict[str, str]]:
    return {name: fingerprint(out / name) for name in OUTPUTS[command] if (out / name).exists()}


def load_golden(name: str, corpus: Path) -> tuple[dict, str | None]:
    """Stored reference outputs per step label for the named corpus, and
    why there are none, if there are none."""
    stored = json.loads(GOLDEN.read_text(encoding="utf-8")).get(name) if GOLDEN.exists() else None
    if stored is None:
        return {}, f"no reference outputs are stored for corpus {name}"
    digest = corpus_digest(corpus)
    if digest != stored["corpus"]:
        return {}, f"corpus {name} has digest {digest}, but its reference outputs were made from {stored['corpus']}"
    return stored["steps"], None


def check(command: str, returncode: int, out: Path, golden: dict | None, known: dict[str, float]) -> list[str]:
    """Problems with one command's run; empty means it succeeded.

    `golden` maps output names to reference fingerprints (None: no reference
    is stored, which is a failure); `known` maps records metric names to
    values known without running statreason.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems = [f"missing {name}" for name in OUTPUTS[command] if not (out / name).exists()]
    if golden is None:
        problems.append("no stored reference output to compare with")
    if problems:
        return problems
    for name, expected in golden.items():
        actual = fingerprint(out / name)
        if isinstance(expected, dict):
            problems += [
                f"{name}: {metric} is {actual.get(metric)}, reference {value}"
                for metric, value in expected.items()
                if actual.get(metric) != value
            ]
        elif actual != expected:
            problems.append(f"{name} differs from the reference output")
    if known:
        records = fingerprint(out / f"{command}.records.txt")
        problems += [
            f"{metric} is {records.get(metric)}, known answer {value:.6f}"
            for metric, value in known.items()
            if records.get(metric) != f"{value:.6f}"
        ]
    return problems
