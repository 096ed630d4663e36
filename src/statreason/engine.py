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
it across cases in a `RunContext`: each subsection's `SubsectionPlan` (its
text cut at its labelled mentions and its arguments' placeholder texts) and
each query's program, its dependency tree compiled into a flat post-order
list of `Step`s that carry their plans, bindings and operators
(`compile_query`). A case is one loop over its query's program with a stack
of the values each open subsection's body sees and a stack of results. A
request's grounded text is spliced from the plan only when a resolver first
reads it, and a note is kept as a tuple and rendered only when read.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import Protocol

from .model import ArgumentLayer, Case, Frozen, TRUTH_KEY, Value, _set, check_value, layer_of
from .records import write_value
from .rules import OpNode, Program, TreeNode, build_dependency_tree


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
    its layer, its source text, the text cut at its labelled mentions, and
    each argument's placeholder text (read on first use)."""

    __slots__ = ("layer", "text", "arguments", "_pieces", "_mentions", "_placeholders")

    def __init__(self, layer: ArgumentLayer, text: str):
        self.layer = layer
        self.text = text
        # Argument names in order of first mention, @truth excluded.
        self.arguments = tuple(n for n, _ in layer.labelled_clusters if n != TRUTH_KEY)
        names = {i: n for n, cluster in layer.labelled_clusters if n != TRUTH_KEY for i in cluster}
        # The text between labelled mentions alternates with the mentions;
        # `_mentions` pairs each mention's piece index with its argument.
        # Spans are sorted and disjoint (ArgumentLayer checks), so index order is text order.
        pieces: list[str] = []
        mentions = []
        pos = 0
        for i, span in enumerate(layer.spans):
            if i in names:
                pieces += (text[pos : span.start], text[span.start : span.end])
                mentions.append((len(pieces) - 1, names[i]))
                pos = span.end
        pieces.append(text[pos:])
        self._pieces = tuple(pieces)
        self._mentions = tuple(mentions)
        self._placeholders: dict[str, str | None] = {}

    def pieces(self, values: Mapping[str, Value], threshold: float = 0.5) -> list[str]:
        """The grounded text in pieces: the text between labelled mentions,
        and each mention or, where its argument has a value, the value's
        surface form. The pieces of the text itself are the same strings on
        every call."""
        pieces = list(self._pieces)
        for k, name in self._mentions:
            if name in values:
                pieces[k] = value_surface(values[name], threshold)
        return pieces

    def ground(self, values: Mapping[str, Value], threshold: float = 0.5) -> str:
        """The text with every mention of a valued argument replaced by the
        value's surface form."""
        return "".join(self.pieces(values, threshold))

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
    the engine itself compiles each query and builds each subsection's plan
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


# Note kinds and how each reads. A note is kept as a (case id, subsection,
# argument, kind) tuple and rendered only when read; an "error" note keeps
# the error's message where the argument goes.
_NOTE_TEXT = {
    "no value": "{0}: no value for {2!r} of {1}",
    "no truth": "{0}: resolver gave no @truth for {1}; defaulting to 0.0",
    "no text": "{0}: no text for {1}; grounding over empty text",
    "error": "{0}: {2}",
}


def note_text(note: tuple[str, str | None, str | None, str]) -> str:
    """How a (case id, subsection, argument, kind) note reads."""
    return _NOTE_TEXT[note[3]].format(*note)


class RunDiagnostics:
    """What a run noted, in order, as (case id, subsection, argument, kind)
    tuples; `notes` renders them as text."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[tuple[str, str | None, str | None, str]] = []

    def note(self, case_id: str, subsection: str | None, argument: str | None, kind: str) -> None:
        self.records.append((case_id, subsection, argument, kind))

    @property
    def notes(self) -> list[str]:
        return [note_text(note) for note in self.records]


def _instantiate(
    resolve,
    plan: SubsectionPlan,
    inputs: dict[str, Value],
    case: Case,
    config: EngineConfig,
    note,
) -> dict[str, Value]:
    """Instantiate one subsection: predict each mentioned argument in order of
    first appearance, re-grounding the text after every prediction, then ask
    for the truth score of the fully grounded text.

    `resolve` is the resolver's `resolve` and `note` appends a note tuple.
    Arguments already present in `inputs` are never re-predicted. Returns
    inputs plus predictions, always including "@truth". A resolver's answer
    may be any mapping; each value taken from it is validated here, and an
    invalid one raises ValueError. `predictions` and `grounding` are
    replaced, never changed, so requests and results can share them.
    """
    sid = plan.layer.subsection_id
    threshold = config.truth_threshold
    predictions = grounding = inputs
    known = MappingProxyType(predictions)

    for name in plan.arguments:
        if name in predictions:
            continue
        request = ResolveRequest(plan, known, (name,), case, grounding, threshold)
        try:
            answer = resolve(request)
        except Exception as exc:
            raise EngineError(f"resolver failed on argument {name!r} of {sid}: {exc}") from exc
        if name in answer:
            value = check_value(answer[name])
            shared = grounding is predictions
            predictions = {**predictions, name: value}
            known = MappingProxyType(predictions)
            if config.insert_gold and name in case.expected:
                grounding = {**grounding, name: case.expected[name]}
            else:
                # The grounding is the predictions until a gold value differs.
                grounding = predictions if shared else {**grounding, name: value}
        else:
            note((case.id, sid, name, "no value"))

    request = ResolveRequest(plan, known, (), case, grounding, threshold)
    try:
        answer = resolve(request)
    except Exception as exc:
        raise EngineError(f"resolver failed on @truth of {sid}: {exc}") from exc
    truth = answer.get(TRUTH_KEY)
    if truth is None:
        note((case.id, sid, None, "no truth"))
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
        winner = truths.index(max(truths))  # the first of the highest
        return {**children[winner], TRUTH_KEY: truths[winner]}
    if kind == "AND":
        # Lower-truth children win conflicts, so merge in descending-truth
        # order (a stable sort keeps ties in child order) and let later
        # (lower) children overwrite.
        merged: dict[str, Value] = {}
        for i in sorted(range(len(children)), key=truths.__getitem__, reverse=True):
            merged.update(children[i])
        merged.pop(TRUTH_KEY, None)
        merged[TRUTH_KEY] = min(truths)
        return merged
    raise EngineError(f"unknown operator {kind!r}")


class Step(Frozen):
    """One instruction of a compiled query, at position `index` of its program.

    `op` is "open", "subsection" or an operator kind ("AND", "OR", "NOT").
    An "open" step comes before the body of subsection `node` and pushes the
    values that body sees. A "subsection" step instantiates `node` with
    `plan`, after taking in its body's result when it has one (`body`).
    `bindings` are the node's (callee param, caller var) pairs, read
    downward when values enter and upward when its result leaves; `root`
    marks the query's own subsection, which takes the case inputs and
    returns its result as it is. `no_text` marks a subsection with no text.
    An operator step has no plan and combines the last `arity` results.
    """

    __slots__ = ("index", "op", "node", "plan", "bindings", "root", "body", "no_text", "arity")


def compile_query(
    program: Program,
    query: str,
    depth_cap: int,
    layers: dict[str, ArgumentLayer],
    subsections: dict[str, str],
    plans: dict[str, SubsectionPlan],
) -> tuple[Step, ...]:
    """The query's dependency tree as a flat program in post order: each
    subsection step follows its body's steps and each operator step its
    children's. `plans` are shared between queries and filled as needed."""
    steps: list[Step] = []

    def step(op, node, plan=None, bindings=(), root=False, body=False, no_text=False, arity=0) -> None:
        steps.append(Step(len(steps), op, node, plan, bindings, root, body, no_text, arity))

    def walk(node: TreeNode) -> None:
        if isinstance(node, OpNode):
            for child in node.children:
                walk(child)
            step(node.kind, node, arity=len(node.children))
            return
        plan = plans.get(node.id)
        if plan is None:
            plan = plans[node.id] = SubsectionPlan(layer_of(layers, node.id), subsections.get(node.id, ""))
        root = node.depth == 1
        bindings = () if root else node.bindings
        body = node.child is not None
        if body:
            step("open", node, plan, bindings, root)
            walk(node.child)
        step("subsection", node, plan, bindings, root, body, node.id not in subsections)

    walk(build_dependency_tree(program, query, depth_cap).root)
    return tuple(steps)


class RunContext:
    """What a run builds once and shares across its cases: each query's
    compiled program and each subsection's plan. Neither holds a case's
    values, so cases only read them. One context serves one program, layer
    set, text set and config."""

    __slots__ = ("programs", "plans")

    def __init__(self) -> None:
        self.programs: dict[str, tuple[Step, ...]] = {}
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
    """Instantiate a case's query subsection over its dependency tree: one
    loop over the query's compiled program, with a stack of the values each
    open subsection's body sees and a stack of results.

    `context` carries programs and plans for callers that share them across
    cases (see `run_cases`); by default the case gets a fresh one.
    """
    diagnostics = diagnostics or RunDiagnostics()
    context = context or RunContext()
    if case.query not in program:
        raise EngineError(f"case {case.id}: query {case.query} has no rule")
    steps = context.programs.get(case.query)
    if steps is None:
        steps = context.programs[case.query] = compile_query(
            program, case.query, config.depth_cap, layers, subsections, context.plans
        )
    resolve, note = resolver.resolve, diagnostics.records.append
    inputs = dict(case.inputs)
    envs: list[dict[str, Value]] = []
    results: list[dict[str, Value]] = []
    for step in steps:
        if step.plan is None:  # an operator
            children = results[-step.arity :]
            del results[-step.arity :]
            results.append(do_operation(step.op, children))
            continue
        if step.body:
            known = envs.pop()
            body = results.pop()
            known = {**known, **{k: v for k, v in body.items() if k not in known and k != TRUTH_KEY}}
        elif step.root:
            known = inputs
        else:
            # Values cross a reference by renaming: the callee's parameter
            # takes the caller's value for the bound variable, and back.
            # (Plain loops: in this loop they cost less than comprehensions.)
            outer = envs[-1]
            known = {}
            for param, var in step.bindings:
                if var in outer:
                    known[param] = outer[var]
        if step.op == "open":
            envs.append(known)
            continue
        if step.no_text:
            note((case.id, step.node.id, None, "no text"))
        result = _instantiate(resolve, step.plan, known, case, config, note)
        if not step.root:
            out = {}
            for param, var in step.bindings:
                if param in result:
                    out[var] = result[param]
            out[TRUTH_KEY] = result[TRUTH_KEY]
            result = out
        results.append(result)
    return results.pop()


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
    recorded and the run continues. Each query's program and each
    subsection's plan are built once and shared by all cases through one
    `RunContext`."""
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
            diagnostics.note(case.id, None, str(exc), "error")
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
