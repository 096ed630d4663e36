#!/usr/bin/env python3
"""Run every evaluation against one corpus and collect the reports.

    python3 scripts/reproduce_tables.py --manifest tests/fixtures/corpus/manifest.txt --out out/

Runs the steps of the benchmark's fixture-battery workload
(`perfbench/workloads.py`) in order: validation, corpus statistics, both
coreference baselines with standard metrics, argument identification
(heuristic and gold import), the identification+coreference cascade, and
argument instantiation with the oracle, constant and heuristic resolvers
(the constant baseline also with silver-augmented training, a step skipped
when the corpus has no silver cases). Each step reads the corpus of
--manifest, whose own spans and coref files are the gold imports, and
writes its text report and machine-readable records under --out/<step>.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

from statreason.cli import main as cli  # noqa: E402
from statreason.corpus import CorpusError, CorpusManifest  # noqa: E402
from workloads import STEPS, WORKLOADS, command_line  # noqa: E402


def run(step: list[str]) -> int:
    print(f"\n$ statreason {' '.join(step)}\n" + "-" * 60)
    return cli(step)


def steps(manifest: str, out: Path) -> list[list[str]]:
    """The fixture-battery command lines on `manifest`, writing under `out`."""
    parts = CorpusManifest.load(manifest)
    gold = {"--source": parts.spans, "--baseline": parts.coref}
    lines = []
    for label in WORKLOADS["fixture-battery"]:
        if parts.silver is None and "--with-silver" in STEPS[label]:
            continue
        args = command_line(label, out / label)
        args[args.index("--manifest") + 1] = manifest
        lines.append([f"import:{gold[args[i - 1]]}" if arg.startswith("import:") else arg for i, arg in enumerate(args)])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", default=str(REPO / "tests/fixtures/corpus/manifest.txt"))
    parser.add_argument("--out", default="out")
    args = parser.parse_args(argv)
    try:
        battery = steps(args.manifest, Path(args.out))
    except CorpusError as exc:
        print(*exc.errors, sep="\n", file=sys.stderr)
        return 1
    worst = 0
    for step in battery:
        worst = max(worst, run(step))
    print(f"\nreports collected under {args.out}/")
    return worst


if __name__ == "__main__":
    sys.exit(main())
