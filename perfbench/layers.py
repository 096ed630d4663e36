"""Per-layer metrics: a traced in-process run of a workload plus layer probes.

The workload's commands run twice through `statreason.cli.main` in this
process, first untraced (`cli.inproc_s`) and then with spans around every
public call in `spans.TRACED`; the difference is the tracing overhead. A
layer's self time is its spans' time minus the time of the spans they
enclose, and `<layer>.self_share` is its share of the traced run: that is
where the workload spends its time. The spans' own cost falls mostly in the
self time of the layer that makes the calls, and all of it is in
`trace.overhead_s`, so a layer's share of the untraced run is at least its
self time less `trace.overhead_s`, over `cli.inproc_s`.

The per-function costs (`baselines.*`, `engine.*`, `coref_metrics.*`,
`reports.*`, ...) come instead from one fixed battery of commands, run
traced on the workload's corpus, so every workload measures every layer.
Probes that spans cannot give (import time, memory, per-build costs,
traffic properties of the corpus) are measured separately on the same
corpus. A probe whose function a later change removes reports 0 and prints
`n/a`; it never counts as a failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
import tomllib
import tracemalloc
from pathlib import Path

from spans import LAYERS, Tracer, instrument
from workloads import Prepared, check_outputs, command_line

RESOLVER_NAMES = ("constant", "heuristic", "oracle")
COREF_METRICS = ("muc", "ceaf_m", "ceaf_e", "blanc")
# The battery behind the per-function metrics: every layer's public calls.
PROBE_STEPS = ["coref-string", "coref-single", "argid-heuristic", "cascade-heuristic", "inst-oracle",
               "inst-heuristic", "inst-constant", "inst-constant-silver"]

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]}


def corpus_properties(corpus) -> dict[str, int]:
    """Traffic properties of a loaded corpus."""
    layers = corpus.layers.values()
    pair_ids = [c.pair_id for c in corpus.cases if c.pair_id is not None]
    return {
        "corpus.subsections": len(corpus.subsections),
        "corpus.mentions": sum(len(l.spans) for l in layers),
        "corpus.clusters": sum(len(l.clusters) for l in layers),
        "corpus.cases_train": len(corpus.cases_of("train")),
        "corpus.cases_test": len(corpus.cases_of("test")),
        "corpus.pairs": len(pair_ids) - len(set(pair_ids)),
        "corpus.silver": len(corpus.silver),
    }


def run_inprocess(cli, prep: Prepared, out: Path, tracer: Tracer | None = None) -> tuple[float, list[int]]:
    """Run each step through `cli.main` in the workload's directory, with
    outputs under `out` relative to it; return the wall seconds of the whole
    sequence and each step's exit code."""
    codes = []
    cwd = os.getcwd()
    os.chdir(prep.work)
    try:
        start = time.perf_counter()
        for label in prep.steps:
            if tracer is not None:
                tracer.step = label
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes.append(cli.main(command_line(label, out / label)))
                except SystemExit as exc:  # argparse rejects an argument
                    codes.append(exc.code if isinstance(exc.code, int) else 2)
        return time.perf_counter() - start, codes
    finally:
        os.chdir(cwd)


def measure(prep: Prepared, env: dict, src: Path, results: Path):
    """Per-layer metrics for one workload, the number of commands run, the
    problems of those that failed, and notes on metrics that are n/a. The
    spans of the workload's run and of the battery go under `results`."""
    work = prep.work
    metrics = dict.fromkeys(per_layer_units(), 0)
    metrics.update(_import_probes(env, work))

    import statreason.cli as cli
    from statreason.corpus import load_corpus

    battery = dataclasses.replace(prep, steps=PROBE_STEPS)
    untraced_s, codes = run_inprocess(cli, prep, Path("inproc"))
    failures = {f"untraced {k}": v for k, v in check_outputs(prep, work / "inproc", codes).items()}
    own, probed = Tracer(prep.workload), Tracer(prep.workload)
    with instrument(own):
        traced_s, codes = run_inprocess(cli, prep, Path("traced"), own)
    failures.update({f"traced {k}": v for k, v in check_outputs(prep, work / "traced", codes).items()})
    with instrument(probed):
        _, codes = run_inprocess(cli, battery, Path("battery"), probed)
    failures.update({f"battery {k}": v for k, v in check_outputs(battery, work / "battery", codes).items()})
    own.write(results / f"{prep.workload}.spans.tsv.gz")
    probed.write(results / f"{prep.workload}.battery-spans.tsv.gz")

    metrics["cli.inproc_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics.update({f"{layer}.self_share": s / traced_s for layer, s in self_times(own).items()})
    metrics.update(_from_spans(probed))
    metrics.update(_coref_memory(probed))
    metrics["engine.case_errors"] = sum(
        int(m.group(1))
        for report in (work / "battery").glob("*/eval-inst.report.txt")
        for m in re.finditer(r"case errors: (\d+)", report.read_text(encoding="utf-8"))
    )

    corpus = load_corpus(work / "corpus" / "manifest.txt")
    metrics.update(corpus_properties(corpus))
    metrics.update(_context(src))
    notes = {}
    probes = [
        (_records_probe, ["records.lines", "records.parse_s", "records.write_s"]),
        (tree_properties, ["rules.tree_nodes_p50", "rules.tree_nodes_max", "rules.query_share"]),
        (_model_probe, ["model.valuemap_us", "model.valuemap_merged_us"]),
        (_jobs_probe, ["engine.jobs2_speedup"]),
    ]
    for run_probe, names in probes:
        try:
            metrics.update(run_probe(corpus))
        except (ImportError, AttributeError) as exc:  # the probed function is gone
            notes.update(dict.fromkeys(names, f"{type(exc).__name__}: {exc}"))
    return metrics, 2 * len(prep.steps) + len(PROBE_STEPS), failures, notes


# ---------------------------------------------------------------------------
# From spans


def self_times(tracer: Tracer) -> dict[str, float]:
    """Seconds per layer in its own spans, less the spans they enclose."""
    inner = [0.0] * len(tracer.spans)  # time of the spans each span encloses directly
    for s in tracer.spans:
        if s.parent >= 0:
            inner[s.parent] += s.duration
    out = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(tracer.spans):
        out[s.layer] += s.duration - inner[i]
    return out


def _from_spans(tracer: Tracer) -> dict[str, float]:
    """Per-function metrics from the battery's spans."""
    spans = tracer.spans
    inner_coref = [0.0] * len(spans)  # coref_metrics time each span encloses directly
    for s in spans:
        if s.parent >= 0 and s.layer == "coref_metrics":
            inner_coref[s.parent] += s.duration
    out: dict[str, float] = {}

    def total(name: str, step: str | None = None) -> float:
        return sum(s.duration for s in spans if s.name == name and (step is None or s.step == step))

    def median(name: str) -> float:
        values = [s.duration for s in spans if s.name == name]
        return statistics.median(values) if values else 0.0

    out["corpus.load_s"] = median("corpus.load_corpus")
    out["corpus.validate_s"] = median("corpus.validate_corpus")
    out["corpus.hash_s"] = median("corpus.corpus_hash")
    out["rules.parse_s"] = median("rules.parse_program")
    out["baselines.string_coref_s"] = total("baselines.string_match_coref")
    out["baselines.single_coref_s"] = total("baselines.single_mention_coref")
    out["baselines.argid_s"] = total("baselines.heuristic_argument_id")
    out["baselines.fit_constant_s"] = total("baselines.fit_constant_baseline", "inst-constant")
    out["baselines.fit_constant_silver_s"] = total("baselines.fit_constant_baseline", "inst-constant-silver")
    out["metrics.score_s"] = total("metrics.score_arguments")
    for m in COREF_METRICS:
        out[f"coref_metrics.{m}_s"] = total(f"coref_metrics.{m}")
    out["reports.coref_s"] = sum(
        s.duration - inner_coref[i] for i, s in enumerate(spans) if s.name == "reports.coref_report"
    )
    out["reports.argid_s"] = total("reports.argid_report")
    out["reports.cascade_s"] = total("reports.cascade_report")
    out["reports.instantiation_s"] = total("reports.instantiation_report")
    renders = ("reports.render_stats", "reports.report_records")
    out["reports.render_s"] = sum(s.duration for s in spans if s.name.endswith(".render") or s.name in renders)

    # Per case: instantiate_full, less the tree build and resolver calls it encloses.
    cases: dict[int, list[float]] = {}  # span index -> [case, tree, resolver]
    for i, s in enumerate(spans):
        if s.name == "engine.instantiate_full":
            cases[i] = [s.duration, 0.0, 0.0]
        elif s.parent in cases and s.layer == "rules":
            cases[s.parent][1] += s.duration
        elif s.parent in cases and s.name.startswith("baselines.resolve."):
            cases[s.parent][2] += s.duration
    trees = []
    for r in RESOLVER_NAMES:
        step = f"inst-{r}"
        mine = [cases[i] for i in cases if spans[i].step == step]
        resolves = [s.duration for s in spans if s.name == f"baselines.resolve.{r}" and s.step == step]
        out[f"baselines.resolver_calls.{r}"] = len(resolves)
        out[f"baselines.resolver_s.{r}"] = sum(resolves)
        if mine:
            times = sorted(1e6 * c[0] for c in mine)
            out[f"engine.case_us_p50.{r}"] = statistics.median(times)
            out[f"engine.case_us_p99.{r}"] = times[math.ceil(0.99 * len(times)) - 1]
            out[f"engine.self_us_per_case.{r}"] = 1e6 * sum(c[0] - c[1] - c[2] for c in mine) / len(mine)
            trees += [1e6 * c[1] for c in mine]
    out["rules.tree_us_p50"] = statistics.median(trees) if trees else 0.0
    return out


def _coref_memory(tracer: Tracer) -> dict[str, float]:
    """Re-run each coreference metric on its largest recorded input under
    tracemalloc; report peak MB and the size of that input."""
    out: dict[str, float] = {}
    for name, (fn, calls) in tracer.coref_calls.items():
        gold, pred = max(calls, key=lambda call: sum(len(c) for c in call[0]))
        tracemalloc.start()
        try:
            fn(gold, pred)
            out[f"coref_metrics.{name}_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        out["coref_metrics.mentions"] = sum(len(c) for c in gold)
        out["coref_metrics.clusters"] = len(gold)
    return out


# ---------------------------------------------------------------------------
# Probes


def _import_probes(env: dict, work: Path) -> dict[str, float]:
    """Fresh-process import of statreason.cli, and its numpy/scipy share
    from `python -X importtime`."""
    code = "import statreason.cli"
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=work, env=env, check=True)
        times.append(time.perf_counter() - start)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code], cwd=work, env=env, check=True, capture_output=True, text=True
    )
    return {"cli.import_s": statistics.median(times), "cli.import_deps_s": _deps_share(proc.stderr)}


def _deps_share(importtime: str, deps=("numpy", "scipy")) -> float:
    """Seconds of cumulative import time of the numpy/scipy subtrees whose
    parent import is outside numpy and scipy."""
    rows = []  # (depth, cumulative us, package)
    for line in importtime.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(2)) // 2, int(m.group(1)), m.group(3).split(".")[0]))
    total = 0
    for i, (depth, cumulative, package) in enumerate(rows):
        # importtime prints children before their parent, one level deeper.
        parent = next((p for d, _, p in rows[i + 1 :] if d < depth), None)
        if package in deps and parent not in deps:
            total += cumulative
    return total / 1e6


def _records_probe(corpus) -> dict[str, float]:
    from statreason import records
    from statreason.corpus import serialize_cases, serialize_coref, serialize_spans

    manifest = corpus.manifest
    files = [manifest.statutes / "offsets.txt", manifest.spans, manifest.coref]
    files += sorted(Path(manifest.cases).glob("*.cases"))
    if manifest.silver:
        files += sorted(Path(manifest.silver).glob("*.cases"))
    texts = [f.read_text(encoding="utf-8") for f in files]
    layers, cases = list(corpus.layers.values()), list(corpus.cases) + list(corpus.silver)

    def parse() -> int:
        return sum(1 for text in texts for _ in records.iter_records(text))

    def write() -> None:
        serialize_spans(layers)
        serialize_coref(layers)
        serialize_cases(cases)
        for case in cases:
            for value in case.expected.values():
                records.write_value(value)

    return {
        "records.lines": parse(),
        "records.parse_s": _median_of(parse),
        "records.write_s": _median_of(write),
    }


def tree_properties(corpus) -> dict[str, float]:
    """Tree sizes and query sharing of the gold cases at the default depth cap."""
    from statreason.rules import OpNode, build_dependency_tree

    def nodes(node) -> int:
        if isinstance(node, OpNode):
            return sum(nodes(c) for c in node.children)
        return 1 + (nodes(node.child) if node.child is not None else 0)

    sizes = sorted(nodes(build_dependency_tree(corpus.program, c.query, 3).root) for c in corpus.cases)
    seen: set[str] = set()
    shared = 0
    for case in corpus.cases:
        shared += case.query in seen
        seen.add(case.query)
    return {
        "rules.tree_nodes_p50": statistics.median(sizes),
        "rules.tree_nodes_max": sizes[-1],
        "rules.query_share": shared / len(corpus.cases),
    }


def _model_probe(corpus) -> dict[str, float]:
    import datetime

    from statreason.model import Money, ValueMap

    pairs = [("Taxp", "Alice"), ("Taxy", "2017"), ("Grossinc", Money(33200)), ("Bassd", Money(500)),
             ("Married", datetime.date(2015, 2, 3)), ("S13A", (4, 5, 9, 11)), ("Workdays", 12), ("@truth", 1.0)]
    extra = {"Employee": "Bob", "Wages": Money(900), "Caly": "2017", "Taxp": "Carol"}
    base = ValueMap(pairs)
    reps = 2000
    return {
        "model.valuemap_us": 1e6 * _median_of(lambda: [ValueMap(pairs) for _ in range(reps)]) / reps,
        "model.valuemap_merged_us": 1e6 * _median_of(lambda: [base.merged(extra) for _ in range(reps)]) / reps,
    }


def _jobs_probe(corpus) -> dict[str, float]:
    """run_cases with jobs=1 over jobs=2 on the test split, constant resolver."""
    from statreason import baselines, engine

    if "jobs" not in inspect.signature(engine.run_cases).parameters:
        raise AttributeError("run_cases has no jobs parameter")
    resolver = baselines.ConstantResolver(baselines.fit_constant_baseline(list(corpus.cases_of("train"))))
    seconds = {}
    for jobs in (1, 2):
        start = time.perf_counter()
        engine.run_cases(resolver, corpus, "test", engine.EngineConfig(), jobs=jobs)
        seconds[jobs] = time.perf_counter() - start
    return {"engine.jobs2_speedup": seconds[1] / seconds[2]}


def _context(src: Path) -> dict[str, float]:
    project = tomllib.loads((src.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {
        "context.src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py")),
        "context.runtime_deps": len(project.get("dependencies", [])),
        "context.nproc": os.cpu_count() or 1,
        "context.python": 100 * sys.version_info.major + sys.version_info.minor,
    }


def _median_of(fn, reps: int = 3) -> float:
    """Median seconds of `reps` calls."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
