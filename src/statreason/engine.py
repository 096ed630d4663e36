"""Argument instantiation over subsection dependency trees.

The engine owns the control flow; what a value "is" for a given argument is
delegated to a pluggable resolver that is queried one argument at a time
against the partially grounded subsection text, and once more at the end for
the subsection's truth score. Tree evaluation is depth first: leaves are
instantiated directly, operator nodes combine their children's results, and
a subsection above a body absorbs the body's values (mapped back through the
reference bindings) before being instantiated itself. Every node is resolved
exactly once; there is no backtracking.

Values enter the engine only as `Case.inputs` and checked resolver answers,
so the engine keeps them in plain dicts.

A run (`run_cases`) builds what does not depend on the case once and shares
it across cases in a `RunContext`: each query's dependency tree, which holds
no values, and each subsection's `SubsectionPlan` (its labelled mentions in
text order and its arguments' placeholder texts). A case is one walk over
its query's tree that carries the case's values down as an argument. A
request's grounded text is spliced from the plan only when a resolver first
reads it.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import Protocol

from .model import ArgumentLayer, Case, Frozen, TRUTH_KEY, Value, _set, check_value, layer_of
from .records import write_value
from .rules import DepTree, OpNode, Program, build_dependency_tree


class EngineConfig(Frozen):
    """Run settings; `insert_gold` grounds text with gold values where known
    (teacher forcing)."""

    __slots__ = ("depth_cap", "truth_threshold", "insert_gold")

    def __init__(self, depth_cap: int = 3, truth_threshold: float = 0.5, insert_gold: bool = False):
        if depth_cap < 1:
            raise ValueError("depth_cap must be >= 1")
        if not 0.0 < truth_threshold < 1.0:
            raise ValueError("truth_threshold must be in (0, 1)")
        _set(self, "depth_cap", depth_cap)
        _set(self, "truth_threshold", truth_threshold)
        _set(self, "insert_gold", insert_gold)


class SubsectionPlan:
    """What grounding and resolving one subsection needs, worked out once:
    its layer, its source text, its labelled mentions in text order, and
    each argument's placeholder text (read on first use)."""

    __slots__ = ("layer", "text", "arguments", "_mentions", "_placeholders")

    def __init__(self, layer: ArgumentLayer, text: str):
        self.layer = layer
        self.text = text
        # Argument names in order of first mention, @truth excluded.
        self.arguments = tuple(n for n, _ in layer.labelled_clusters if n != TRUTH_KEY)
        names = {i: n for n, cluster in layer.labelled_clusters if n != TRUTH_KEY for i in cluster}
        # Spans are sorted and disjoint (ArgumentLayer checks), so index order is text order.
        self._mentions = tuple(
            (span.start, span.end, names[i]) for i, span in enumerate(layer.spans) if i in names
        )
        self._placeholders: dict[str, str | None] = {}

    def ground(self, values: Mapping[str, Value], threshold: float = 0.5) -> str:
        """The text with every mention of a valued argument replaced by the
        value's surface form, spliced left to right in one pass."""
        text = self.text
        parts = []
        pos = 0
        for start, end, name in self._mentions:
            if name in values:
                parts.append(text[pos:start])
                parts.append(value_surface(values[name], threshold))
                pos = end
        parts.append(text[pos:])
        return "".join(parts)

    def placeholder(self, name: str) -> str | None:
        """The text of an argument's mentions joined by spaces; None when it
        has no mention or the subsection has no text."""
        try:
            return self._placeholders[name]
        except KeyError:
            spans = self.layer.spans_of(name)
            text = self.text
            surface = " ".join(span.slice(text) for span in spans) if spans and text else None
            self._placeholders[name] = surface
            return surface


class ResolveRequest:
    """One resolver query: fill `required` arguments (or the truth score when
    `required` is empty) for a subsection grounded with the values known so far.

    `text` is the grounded variant, spliced from `grounding` the first time
    it is read; `source_text` is the original subsection text that the
    layer's spans index into. `known` is a read-only view and `grounding` a
    snapshot: the engine never changes a mapping it gave a request.
    """

    __slots__ = ("subsection", "known", "required", "case", "grounding", "threshold", "_text")

    def __init__(
        self,
        subsection: SubsectionPlan,
        known: Mapping[str, Value],
        required: tuple[str, ...],
        case: Case,
        grounding: Mapping[str, Value] = MappingProxyType({}),
        threshold: float = 0.5,
    ):
        self.subsection = subsection
        self.known = known
        self.required = required
        self.case = case
        self.grounding = grounding
        self.threshold = threshold
        self._text: str | None = None

    @property
    def subsection_id(self) -> str:
        return self.subsection.layer.subsection_id

    @property
    def layer(self) -> ArgumentLayer:
        return self.subsection.layer

    @property
    def source_text(self) -> str:
        return self.subsection.text

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = self.subsection.ground(self.grounding, self.threshold)
        return self._text


class Resolver(Protocol):
    """Answers requests one at a time. Any mapping will do as an answer: the
    engine validates each value it takes from it. A resolver is free to keep
    what it derives from a case or a subsection for the length of a run;
    the engine itself builds each query's tree and each subsection's plan
    once per run."""

    def resolve(self, request: ResolveRequest) -> Mapping[str, Value]: ...


class EngineError(RuntimeError):
    pass


def value_surface(value: Value, threshold: float = 0.5) -> str:
    """How a value reads when spliced into statute text; a truth score reads
    "true" from `threshold` up."""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ", ".join(value_surface(v, threshold) for v in value)
    if isinstance(value, float):
        return "true" if value >= threshold else "false"
    return write_value(value)


class RunDiagnostics:
    __slots__ = ("notes",)

    def __init__(self) -> None:
        self.notes: list[str] = []

    def note(self, message: str) -> None:
        self.notes.append(message)


def _instantiate(
    resolver: Resolver,
    plan: SubsectionPlan,
    inputs: dict[str, Value],
    case: Case,
    config: EngineConfig,
    diagnostics: RunDiagnostics,
) -> dict[str, Value]:
    """Instantiate one subsection: predict each mentioned argument in order of
    first appearance, re-grounding the text after every prediction, then ask
    for the truth score of the fully grounded text.

    Arguments already present in `inputs` are never re-predicted. Returns
    inputs plus predictions, always including "@truth". A resolver's answer
    may be any mapping; each value taken from it is validated here, and an
    invalid one raises ValueError. `predictions` and `grounding` are
    replaced, never changed, so requests and results can share them.
    """
    sid = plan.layer.subsection_id
    threshold = config.truth_threshold
    predictions = grounding = inputs

    for name in plan.arguments:
        if name in predictions:
            continue
        request = ResolveRequest(plan, MappingProxyType(predictions), (name,), case, grounding, threshold)
        try:
            answer = resolver.resolve(request)
        except Exception as exc:
            raise EngineError(f"resolver failed on argument {name!r} of {sid}: {exc}") from exc
        if name in answer:
            value = check_value(answer[name])
            predictions = {**predictions, name: value}
            if config.insert_gold and name in case.expected:
                value = case.expected[name]
            grounding = {**grounding, name: value}
        else:
            diagnostics.note(f"{case.id}: no value for {name!r} of {sid}")

    request = ResolveRequest(plan, MappingProxyType(predictions), (), case, grounding, threshold)
    try:
        answer = resolver.resolve(request)
    except Exception as exc:
        raise EngineError(f"resolver failed on @truth of {sid}: {exc}") from exc
    truth = answer.get(TRUTH_KEY)
    if truth is None:
        diagnostics.note(f"{case.id}: resolver gave no @truth for {sid}; defaulting to 0.0")
        truth = 0.0
    return {**predictions, TRUTH_KEY: check_value(float(truth))}


def do_operation(kind: str, children: list[dict[str, Value]]) -> dict[str, Value]:
    """Combine children's values at a logical-operator node.

    NOT keeps only the negated truth score. OR adopts the entire value map of
    the child with the highest truth score. AND pools all children's values
    with the minimum truth score, resolving conflicting values in favour of
    the child with the lower truth score.
    """
    if kind == "NOT":
        if len(children) != 1:
            raise EngineError(f"NOT takes exactly 1 child, got {len(children)}")
        child_truth = float(children[0].get(TRUTH_KEY, 0.0))
        return {TRUTH_KEY: 1.0 - child_truth}
    if len(children) < 2:
        raise EngineError(f"{kind} takes at least 2 children, got {len(children)}")
    truths = [float(c.get(TRUTH_KEY, 0.0)) for c in children]
    if kind == "OR":
        winner = max(range(len(children)), key=lambda i: (truths[i], -i))
        return {**children[winner], TRUTH_KEY: truths[winner]}
    if kind == "AND":
        # Lower-truth children win conflicts, so merge in descending-truth
        # order and let later (lower) children overwrite.
        order = sorted(range(len(children)), key=lambda i: (-truths[i], i))
        merged: dict[str, Value] = {}
        for i in order:
            for name, value in children[i].items():
                if name != TRUTH_KEY:
                    merged[name] = value
        merged[TRUTH_KEY] = min(truths)
        return merged
    raise EngineError(f"unknown operator {kind!r}")


class RunContext:
    """What a run builds once and shares across its cases: each query's
    dependency tree and each subsection's plan. Neither holds a case's
    values, so cases only read them. One context serves one program, layer
    set, text set and config."""

    __slots__ = ("trees", "plans")

    def __init__(self) -> None:
        self.trees: dict[str, DepTree] = {}
        self.plans: dict[str, SubsectionPlan] = {}


def instantiate_full(
    resolver: Resolver,
    program: Program,
    layers: dict[str, ArgumentLayer],
    subsections: dict[str, str],
    case: Case,
    config: EngineConfig = EngineConfig(),
    diagnostics: RunDiagnostics | None = None,
    context: RunContext | None = None,
) -> dict[str, Value]:
    """Instantiate a case's query subsection over its dependency tree.

    `context` carries trees and plans for callers that share them across
    cases (see `run_cases`); by default the case gets a fresh one.
    """
    diagnostics = diagnostics or RunDiagnostics()
    context = context or RunContext()
    if case.query not in program:
        raise EngineError(f"case {case.id}: query {case.query} has no rule")
    tree = context.trees.get(case.query)
    if tree is None:
        tree = context.trees[case.query] = build_dependency_tree(program, case.query, config.depth_cap)
    plans = context.plans

    def plan_of(sid: str) -> SubsectionPlan:
        if sid not in subsections:
            diagnostics.note(f"{case.id}: no text for {sid}; grounding over empty text")
        plan = plans.get(sid)
        if plan is None:
            plan = plans[sid] = SubsectionPlan(layer_of(layers, sid), subsections.get(sid, ""))
        return plan

    def resolve(node, incoming: dict[str, Value]) -> dict[str, Value]:
        """Evaluate `node` given the values of its enclosing subsection."""
        if isinstance(node, OpNode):
            return do_operation(node.kind, [resolve(c, incoming) for c in node.children])
        if node.depth == 1:
            known = incoming
        else:
            # Values cross a reference by renaming: the callee's parameter
            # takes the caller's value for the bound variable, and back.
            known = {param: incoming[var] for param, var in node.bindings if var in incoming}
        if node.child is not None:
            body = resolve(node.child, known)
            known = {**known, **{k: v for k, v in body.items() if k not in known and k != TRUTH_KEY}}
        result = _instantiate(resolver, plan_of(node.id), known, case, config, diagnostics)
        if node.depth == 1:
            return result
        out = {var: result[param] for param, var in node.bindings if param in result}
        out[TRUTH_KEY] = result.get(TRUTH_KEY, 0.0)
        return out

    return resolve(tree.root, dict(case.inputs))


# ---------------------------------------------------------------------------
# Corpus-level runs


class CaseResult(Frozen):
    __slots__ = ("case", "predicted", "error")

    def __init__(self, case: Case, predicted: Mapping[str, Value], error: str | None = None):
        _set(self, "case", case)
        _set(self, "predicted", predicted)
        _set(self, "error", error)


def run_cases(
    resolver: Resolver,
    corpus,
    split: str = "test",
    config: EngineConfig = EngineConfig(),
) -> tuple[list[CaseResult], RunDiagnostics]:
    """Instantiate every case of a split in corpus order; per-case errors are
    recorded and the run continues. Each query's tree and each subsection's
    plan are built once and shared by all cases through one `RunContext`."""
    texts = {s.id: s.text for s in corpus.subsections.values()}
    context = RunContext()
    diagnostics = RunDiagnostics()
    results = []
    for case in corpus.cases_of(split):
        try:
            predicted = instantiate_full(
                resolver, corpus.program, corpus.layers, texts, case, config, diagnostics, context
            )
            results.append(CaseResult(case, predicted))
        except EngineError as exc:
            results.append(CaseResult(case, {}, error=str(exc)))
            diagnostics.note(f"{case.id}: {exc}")
    return results, diagnostics


def evaluate_run(
    resolver: Resolver,
    corpus,
    split: str = "test",
    config: EngineConfig = EngineConfig(),
):
    """Run a resolver over a split and score it: (results, report)."""
    from .reports import instantiation_report

    results, diagnostics = run_cases(resolver, corpus, split, config)
    return results, instantiation_report(results, config, diagnostics)
