"""Argument instantiation over subsection dependency trees.

The engine owns the control flow; what a value "is" for a given argument is
delegated to a pluggable resolver that is queried one argument at a time
against the partially grounded subsection text, and once more at the end for
the subsection's truth score. Tree evaluation is depth first: leaves are
instantiated directly, operator nodes combine their children's results, and
a subsection above a body absorbs the body's values (mapped back through the
reference bindings) before being instantiated itself. Every node is resolved
exactly once; there is no backtracking.

Values are validated where they enter: case inputs when records are parsed,
and resolver answers in `instantiate_single`. Every map the engine builds
after that holds only values taken from those, so it is built unchecked
(`ValueMap._of`) instead of re-validating each value at every node.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Protocol

from .model import ArgumentLayer, Case, TRUTH_KEY, Value, ValueMap, check_value, layer_of
from .records import write_value
from .rules import (
    DepTree,
    OpNode,
    Program,
    SubsectionNode,
    build_dependency_tree,
    populate_values,
)


@dataclass(frozen=True)
class EngineConfig:
    depth_cap: int = 3
    truth_threshold: float = 0.5
    use_structure: bool = True
    insert_gold: bool = False  # ground with gold values where known (teacher forcing)

    def __post_init__(self) -> None:
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be >= 1")
        if not 0.0 < self.truth_threshold < 1.0:
            raise ValueError("truth_threshold must be in (0, 1)")

    @property
    def tree_depth_cap(self) -> int:
        """The depth cap dependency trees are unrolled to."""
        return self.depth_cap if self.use_structure else 1


@dataclass(frozen=True)
class ResolveRequest:
    """One resolver query: fill `required` arguments (or the truth score when
    `required` is empty) for a subsection grounded with the values known so far.

    `text` is the grounded variant; `source_text` is the original subsection
    text that the layer's spans index into.
    """

    subsection_id: str
    text: str
    source_text: str
    layer: ArgumentLayer
    known: ValueMap
    required: tuple[str, ...]
    case: Case


class Resolver(Protocol):
    def resolve(self, request: ResolveRequest) -> ValueMap: ...


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


def insert_values(
    text: str, layer: ArgumentLayer, values: Mapping[str, Value], threshold: float = 0.5
) -> str:
    """Replace every mention span of every valued argument with the value's
    surface form; unvalued arguments stay verbatim."""
    replacements: list[tuple[int, int, str]] = []
    for name, cluster in layer.labelled_clusters:
        if name in values and name != TRUTH_KEY:
            surface = value_surface(values[name], threshold)
            for i in cluster:
                span = layer.spans[i]
                replacements.append((span.start, span.end, surface))
    # Right-to-left keeps earlier offsets valid.
    for start, end, surface in sorted(replacements, reverse=True):
        text = text[:start] + surface + text[end:]
    return text


@dataclass
class RunDiagnostics:
    notes: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.notes.append(message)


def instantiate_single(
    resolver: Resolver,
    layer: ArgumentLayer,
    inputs: ValueMap,
    text: str,
    case: Case,
    config: EngineConfig = EngineConfig(),
    diagnostics: RunDiagnostics | None = None,
) -> ValueMap:
    """Instantiate one subsection: predict each mentioned argument in order of
    first appearance, re-grounding the text after every prediction, then ask
    for the truth score of the fully grounded text.

    Arguments already present in `inputs` are never re-predicted. Returns
    inputs plus predictions, always including "@truth". A resolver's answer
    may be any mapping; each value taken from it is validated here, and an
    invalid one raises ValueError.
    """
    diagnostics = diagnostics or RunDiagnostics()
    if not isinstance(inputs, ValueMap):
        inputs = ValueMap(inputs)
    threshold = config.truth_threshold
    predictions = dict(inputs)
    grounding = dict(inputs)

    for name, _cluster in layer.labelled_clusters:
        if name in predictions or name == TRUTH_KEY:
            continue
        grounded = insert_values(text, layer, grounding, threshold)
        request = ResolveRequest(
            layer.subsection_id, grounded, text, layer, ValueMap._of(dict(predictions)), (name,), case
        )
        try:
            answer = resolver.resolve(request)
        except Exception as exc:
            raise EngineError(f"resolver failed on argument {name!r} of {layer.subsection_id}: {exc}") from exc
        if name in answer:
            value = check_value(answer[name])
            predictions[name] = value
            grounding[name] = value
            if config.insert_gold and name in case.expected:
                grounding[name] = case.expected[name]
        else:
            diagnostics.note(f"{case.id}: no value for {name!r} of {layer.subsection_id}")

    grounded = insert_values(text, layer, grounding, threshold)
    request = ResolveRequest(layer.subsection_id, grounded, text, layer, ValueMap._of(dict(predictions)), (), case)
    try:
        answer = resolver.resolve(request)
    except Exception as exc:
        raise EngineError(f"resolver failed on @truth of {layer.subsection_id}: {exc}") from exc
    truth = answer.get(TRUTH_KEY)
    if truth is None:
        diagnostics.note(f"{case.id}: resolver gave no @truth for {layer.subsection_id}; defaulting to 0.0")
        truth = 0.0
    predictions[TRUTH_KEY] = check_value(float(truth))
    return ValueMap._of(predictions)


def do_operation(kind: str, children: list[ValueMap]) -> ValueMap:
    """Combine children's value maps at a logical-operator node.

    NOT keeps only the negated truth score. OR adopts the entire value map of
    the child with the highest truth score. AND pools all children's values
    with the minimum truth score, resolving conflicting values in favour of
    the child with the lower truth score.
    """
    if kind == "NOT":
        if len(children) != 1:
            raise EngineError(f"NOT takes exactly 1 child, got {len(children)}")
        child_truth = float(children[0].get(TRUTH_KEY, 0.0))
        return ValueMap._of({TRUTH_KEY: 1.0 - child_truth})
    if len(children) < 2:
        raise EngineError(f"{kind} takes at least 2 children, got {len(children)}")
    truths = [float(c.get(TRUTH_KEY, 0.0)) for c in children]
    if kind == "OR":
        winner = max(range(len(children)), key=lambda i: (truths[i], -i))
        return children[winner].merged(ValueMap._of({TRUTH_KEY: truths[winner]}))
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
        return ValueMap._of(merged)
    raise EngineError(f"unknown operator {kind!r}")


def _translate(result: ValueMap, bindings: tuple[tuple[str, str], ...]) -> ValueMap:
    """Map a callee's result back into the caller's namespace."""
    pairs = [(var, result[param]) for param, var in bindings if param in result]
    out = dict(pairs)
    out[TRUTH_KEY] = result.get(TRUTH_KEY, 0.0)
    return ValueMap._of(out)


def instantiate_full(
    resolver: Resolver,
    program: Program,
    layers: dict[str, ArgumentLayer],
    subsections: dict[str, str],
    case: Case,
    config: EngineConfig = EngineConfig(),
    diagnostics: RunDiagnostics | None = None,
    tree: DepTree | None = None,
) -> ValueMap:
    """Instantiate a case's query subsection over its dependency tree.

    `tree` is the query's unpopulated tree at `config.tree_depth_cap`, for
    callers that share one across cases; by default it is built here.
    """
    diagnostics = diagnostics or RunDiagnostics()
    if case.query not in program:
        raise EngineError(f"case {case.id}: query {case.query} has no rule")
    if tree is None:
        tree = build_dependency_tree(program, case.query, config.tree_depth_cap)
    tree = populate_values(tree, case.inputs)

    def text_of(sid: str) -> str:
        if sid in subsections:
            return subsections[sid]
        diagnostics.note(f"{case.id}: no text for {sid}; grounding over empty text")
        return ""

    def resolve(node) -> ValueMap:
        if isinstance(node, OpNode):
            return do_operation(node.kind, [resolve(c) for c in node.children])
        assert isinstance(node, SubsectionNode)
        known = node.values
        if node.child is not None:
            absorbed = resolve(node.child).without(TRUTH_KEY)
            known = known.merged(absorbed)
        result = instantiate_single(
            resolver, layer_of(layers, node.id), known, text_of(node.id), case, config, diagnostics
        )
        if node.depth == 1:
            return result
        return _translate(result, node.bindings)

    return resolve(tree.root)


# ---------------------------------------------------------------------------
# Corpus-level runs


@dataclass(frozen=True)
class CaseResult:
    case: Case
    predicted: ValueMap
    error: str | None = None


def run_cases(
    resolver: Resolver,
    corpus,
    split: str = "test",
    config: EngineConfig = EngineConfig(),
) -> tuple[list[CaseResult], RunDiagnostics]:
    """Instantiate every case of a split in corpus order; per-case errors are
    recorded and the run continues. Each query's tree is built once and
    shared by its cases, which only populate it with their own inputs."""
    program = corpus.program
    texts = {s.id: s.text for s in corpus.subsections.values()}
    trees: dict[str, DepTree] = {}
    diagnostics = RunDiagnostics()
    results = []
    for case in corpus.cases_of(split):
        tree = trees.get(case.query)
        if tree is None and case.query in program:
            tree = trees[case.query] = build_dependency_tree(program, case.query, config.tree_depth_cap)
        try:
            predicted = instantiate_full(
                resolver, program, corpus.layers, texts, case, config, diagnostics, tree
            )
            results.append(CaseResult(case, predicted))
        except EngineError as exc:
            results.append(CaseResult(case, ValueMap(), error=str(exc)))
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
