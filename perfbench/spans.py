"""Spans recorded from outside statreason, around the public calls of each layer.

`instrument` replaces the listed functions and methods with wrappers, in
every statreason module that holds a reference to them, and puts them back
when the block ends. A wrapper records one span per call: name, layer,
start, end, the span that was open when it started, and the step label of
the command being run. Resolvers are wrapped in a proxy that implements
the engine's `Resolver` protocol. Nothing under `src/` is changed.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("cli", "records", "corpus", "rules", "model", "baselines", "engine", "metrics", "coref_metrics", "reports")

# layer -> public functions and Class.method names wrapped in spans. Missing
# names are skipped, so a later change that deletes one still runs.
TRACED = {
    "cli": ["main", "cmd_validate", "cmd_stats", "cmd_eval_coref", "cmd_eval_argid", "cmd_cascade", "cmd_eval_inst"],
    "records": ["iter_records", "parse_record", "as_value_map", "write_value", "write_text", "write_value_map",
                "write_spans", "write_clusters"],
    "corpus": ["load_corpus", "CorpusManifest.load", "load_statutes", "load_argument_layers", "load_cases",
               "validate_corpus", "corpus_hash", "corpus_statistics"],
    "rules": ["parse_program", "check_references", "build_dependency_tree", "populate_values"],
    "model": ["ValueMap.__init__", "ValueMap.merged", "ValueMap.without"],
    "baselines": ["single_mention_coref", "string_match_coref", "heuristic_argument_id", "fit_constant_baseline"],
    "engine": ["evaluate_run", "run_cases", "instantiate_full"],
    "metrics": ["score_arguments", "exact_match_coref", "span_prf", "pair_consistency"],
    "coref_metrics": ["muc", "ceaf_m", "ceaf_e", "blanc"],
    "reports": ["coref_report", "argid_report", "cascade_report", "instantiation_report", "report_records",
                "render_stats", "CorefReport.render", "ArgIdReport.render", "CascadeReport.render",
                "InstantiationReport.render"],
}
RESOLVERS = {"ConstantResolver": "constant", "HeuristicResolver": "heuristic", "OracleResolver": "oracle"}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    step: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    workload: str
    spans: list[Span] = field(default_factory=list)
    step: str = ""
    _open: list[int] = field(default_factory=list)
    # coref metric name -> (untraced function, the arguments of every call),
    # for the memory probe
    coref_calls: dict[str, tuple[object, list[tuple]]] = field(default_factory=dict)

    def wrap(self, name: str, layer: str, fn):
        clock, spans, stack = time.perf_counter, self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, clock(), 0.0, stack[-1] if stack else -1, self.step)
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated lines, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index\tname\tlayer\tstart\tend\tparent\tstep\tworkload\n")
            for i, s in enumerate(self.spans):
                fields = (i, s.name, s.layer, f"{s.start:.9f}", f"{s.end:.9f}", s.parent, s.step, self.workload)
                out.write("\t".join(map(str, fields)) + "\n")


class ResolverProxy:
    """Implements the engine's `Resolver` protocol around a real resolver,
    recording one span per `resolve` call."""

    def __init__(self, inner, resolve):
        self.inner = inner
        self.resolve = resolve


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced callable for the duration of the block."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"statreason.{layer}")
        except ModuleNotFoundError:  # a later change merged the layer away
            continue
    replaced: dict[int, object] = {}  # id(original) -> wrapper
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    for layer, module in modules.items():
        for qualname in TRACED[layer]:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            if isinstance(original, staticmethod):
                patch(owner, attr, staticmethod(tracer.wrap(f"{layer}.{qualname}", layer, original.__func__)))
            elif owner_name:
                patch(owner, attr, tracer.wrap(f"{layer}.{qualname}", layer, original))
            else:
                wrapper = tracer.wrap(f"{layer}.{qualname}", layer, original)
                if layer == "coref_metrics":
                    wrapper = _recording(tracer, attr, original, wrapper)
                replaced[id(original)] = wrapper
    for cls_name, label in RESOLVERS.items():
        cls = getattr(modules.get("baselines"), cls_name, None)
        if cls is not None:
            patch(modules["baselines"], cls_name, _proxy_factory(tracer, cls, label))

    # Rebind every module-level reference in the package, including names
    # imported with `from ... import` and values of module-level dicts such
    # as coref_metrics.COREF_METRICS.
    package = [m for name, m in list(sys.modules.items()) if name.partition(".")[0] == "statreason"]
    for module in package:
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                patch(module, attr, replaced[id(value)])
            elif isinstance(value, dict) and any(id(v) in replaced for v in value.values()):
                patch(module, attr, {k: replaced.get(id(v), v) for k, v in value.items()})
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _recording(tracer: Tracer, name: str, original, wrapper):
    def call(gold, pred):
        tracer.coref_calls.setdefault(name, (original, []))[1].append((gold, pred))
        return wrapper(gold, pred)

    return call


def _proxy_factory(tracer: Tracer, cls, label: str):
    def make(*args, **kwargs):
        inner = cls(*args, **kwargs)
        return ResolverProxy(inner, tracer.wrap(f"baselines.resolve.{label}", "baselines", inner.resolve))

    return make
