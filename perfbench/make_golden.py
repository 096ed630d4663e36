#!/usr/bin/env python3
"""Record the reference outputs that checker.py compares against.

    python3 perfbench/make_golden.py

Writes the fixture and every generated corpus of `workloads.CORPUS_SEEDS`,
runs in-process every step that a workload or the traced battery runs on
it, and stores the fingerprints of their outputs in perfbench/golden.json,
with the digest of the corpus files. The reference is the statreason of
the commit that defined the benchmark: rerunning this script later would
turn any change of output into the new reference, so it only adds steps
and corpora that have no entry yet, and stops if a stored corpus no longer
generates the same files.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# (workload, seed, scale, steps) that writes each corpus, with the steps the
# workloads run on it. Both SARA workloads run on the same generated corpus.
SARA_STEPS = workloads.WORKLOADS["sara-coref"] + workloads.WORKLOADS["sara-inst"]
CORPORA = [("fixture-battery", 0, "sara", workloads.WORKLOADS["fixture-battery"])]
CORPORA += [("sara-inst", seed, scale, SARA_STEPS) for scale, count in workloads.CORPUS_SEEDS.items()
            for seed in range(count)]


def main() -> int:
    import statreason.cli as cli

    golden = json.loads(checker.GOLDEN.read_text(encoding="utf-8")) if checker.GOLDEN.exists() else {}
    (BENCH / "work").mkdir(exist_ok=True)
    for workload, seed, scale, steps in CORPORA:
        steps = list(dict.fromkeys(steps + layers.PROBE_STEPS))
        work = Path(tempfile.mkdtemp(prefix="golden-", dir=BENCH / "work"))
        try:
            prep = workloads.prepare(workload, seed, scale, work, ROOT / "tests" / "fixtures" / "corpus")
            digest = checker.corpus_digest(work / "corpus")
            entry = golden.setdefault(prep.corpus, {"corpus": digest, "steps": {}})
            if entry["corpus"] != digest:
                print(f"error: corpus {prep.corpus} now has digest {digest}, stored {entry['corpus']}", file=sys.stderr)
                return 1
            missing = [label for label in steps if label not in entry["steps"]]
            if not missing:
                continue
            _, codes = layers.run_inprocess(cli, dataclasses.replace(prep, steps=missing), Path("out"))
            failures = {}
            for label, code in zip(missing, codes):  # every check but the comparison with a reference
                command = workloads.STEPS[label][0]
                failures[label] = checker.check(command, code, work / "out" / label, {}, prep.known.get(label, {}))
            failures = {label: problems for label, problems in failures.items() if problems}
            if failures:
                print(f"error: corpus {prep.corpus}: not recorded, {failures}", file=sys.stderr)
                return 1
            for label in missing:
                entry["steps"][label] = checker.fingerprints(workloads.STEPS[label][0], work / "out" / label)
            print(f"corpus {prep.corpus} ({digest}): recorded {', '.join(missing)}", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    checker.GOLDEN.write_text(dump(golden), encoding="utf-8")
    return 0


def dump(golden: dict) -> str:
    """JSON with one line per corpus."""
    rows = [f" {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}" for name, entry in sorted(golden.items())]
    return "{\n" + ",\n".join(rows) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
