#!/usr/bin/env python3
"""Benchmark of the statreason CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload sara-inst --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout. It writes the workload's corpus under
perfbench/work/ (a generated corpus from seed % 32, the corpora whose
reference outputs golden.json holds), runs the workload's statreason
commands, checks every output (see checker.py) and deletes the corpus
again. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the same numbers for people,
with sample counts and the corpus's traffic properties.

--trace 0 runs every command as a fresh `python -m statreason` process,
one at a time, and reports what a user or CI job sees:

- wall_s: median wall seconds of the workload's whole command sequence,
  repeated until --seconds have passed;
- setup_s: median wall seconds of `statreason validate` on the workload's
  corpus in a fresh process (interpreter start, imports, load and
  validation: what every command pays before its own work);
- peak_rss_mb: the largest resident set of any command process;
- fail ratio: failed over attempted commands, printed and carried in the
  `failed` and `attempted` keys (it is 0 on a correct program, so it is not
  a gated metric).

--trace 1 measures the per-layer metrics instead (see layers.py), from
separate in-process runs with spans, and writes the spans under
perfbench/results/.

Which layer metric should move which end-to-end metric, on which workload:
cli.import_s and cli.import_deps_s move setup_s everywhere and wall_s most on
fixture-battery; records.* and corpus.* move setup_s; rules.*, model.*,
engine.*, metrics.score_s and the fit/resolver metrics of baselines move
wall_s on sara-inst; coref_metrics.* and the coref/argid metrics of baselines
move wall_s on sara-coref, and coref_metrics.*_peak_mb moves peak_rss_mb
there. reports.* move wall_s on sara-coref and sara-inst.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "corpus"
SETUP_RUNS = 5
COMMAND_TIMEOUT_S = 150


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fixture-battery", "sara-coref", "sara-inst"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", default="sara", choices=["sara", "smoke"], help="size of the generated corpus")
    args = parser.parse_args()
    if not (SRC / "statreason" / "__init__.py").is_file() or not FIXTURE.is_dir():
        print(f"error: {SRC / 'statreason'} or {FIXTURE} is missing; run from a statreason checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    (BENCH / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=BENCH / "work"))
    try:
        prep = workloads.prepare(args.workload, args.seed, args.scale, work, FIXTURE)
        code, _, stderr = run_step(prep, "validate", Path("."), env)
        if code != 0:
            print(f"error: the {args.workload} corpus does not validate:\n{stderr}", file=sys.stderr)
            return 1
        _print_corpus(prep)
        if args.trace:
            result = traced(prep, env)
        else:
            result = timed(prep, env, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_step(prep, label: str, out: Path, env: dict) -> tuple[int, float, str]:
    """Run one step as a fresh process: (exit code, wall seconds, stderr tail)."""
    import workloads

    argv = [sys.executable, "-m", "statreason", *workloads.command_line(label, out)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=prep.work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return -9, time.perf_counter() - start, f"timed out after {COMMAND_TIMEOUT_S} s"
    return proc.returncode, time.perf_counter() - start, proc.stderr[-2000:]


def timed(prep, env: dict, seconds: float) -> dict:
    """End-to-end metrics, every command a fresh process."""
    import workloads

    failures: dict[str, list[str]] = {}
    setup = []
    for i in range(SETUP_RUNS):
        code, wall, stderr = run_step(prep, "validate", Path("."), env)
        setup.append(wall)
        if code != 0:
            failures[f"setup {i}"] = [f"exit code {code}", stderr]
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        out = Path(f"pass{len(walls)}")
        begin = time.perf_counter()
        steps = [run_step(prep, label, out / label, env) for label in prep.steps]
        walls.append(time.perf_counter() - begin)
        problems = workloads.check_outputs(prep, prep.work / out, [code for code, _, _ in steps])
        for label, found in problems.items():
            failures[f"pass {len(walls) - 1} {label}"] = found + [steps[prep.steps.index(label)][2]]
        shutil.rmtree(prep.work / out, ignore_errors=True)
    attempted = SETUP_RUNS + len(walls) * len(prep.steps)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    print(f"wall_s       {metrics['wall_s']['value']:10.4f} s   {_summary(walls)} passes of {len(prep.steps)} commands")
    print(f"setup_s      {metrics['setup_s']['value']:10.4f} s   {_summary(setup)} validate runs")
    print(f"peak_rss_mb  {peak_mb:10.1f} MB  largest of {attempted + 1} command processes")
    return _result(metrics, attempted, failures)


def traced(prep, env: dict) -> dict:
    """Per-layer metrics from the traced in-process run and the probes."""
    import layers

    values, attempted, failures, notes = layers.measure(prep, env, SRC, BENCH / "results")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.per_layer_units().items()}
    for name, metric in metrics.items():
        shown = "n/a" if name in notes else f"{metric['value']:.6g}"
        print(f"{name:<36} {shown:>14} {metric['unit']}")
    for name, note in notes.items():
        print(f"{name}: {note}")
    print(f"spans written under {(BENCH / 'results').relative_to(ROOT)}")
    return _result(metrics, attempted, failures)


def _result(metrics: dict, attempted: int, failures: dict[str, list[str]]) -> dict:
    for where, problems in failures.items():
        print(f"FAILED {where}: " + "; ".join(p.strip() for p in problems if p.strip()), file=sys.stderr)
    print(f"fail_ratio   {len(failures) / attempted:10.4f} ratio  {len(failures)} of {attempted} commands failed")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def _summary(samples: list[float]) -> str:
    """Sample count, plus the highest of p90/p99/p99.9 that has at least ten
    samples beyond it."""
    text = f"median of {len(samples)}"
    for q in (0.999, 0.99, 0.9):
        rank = math.ceil(q * len(samples))
        if len(samples) - rank >= 10:
            return f"{text}, p{100 * q:g} {sorted(samples)[rank - 1]:.4f} s,"
    return text


def _print_corpus(prep) -> None:
    import layers
    from statreason.corpus import load_corpus

    corpus = load_corpus(prep.work / "corpus" / "manifest.txt")
    properties = {**layers.corpus_properties(corpus), **layers.tree_properties(corpus)}
    print(f"workload {prep.workload}: " + ", ".join(f"{k.split('.')[1]} {v:g}" for k, v in properties.items()))
    if prep.golden_problem:
        print(f"error: {prep.golden_problem}; every command counts as failed", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
