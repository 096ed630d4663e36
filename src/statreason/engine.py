"""Argument instantiation over each query's rules, unrolled by `rules.unroll`.

The engine owns the control flow; what a value "is" for a given argument is
delegated to a pluggable resolver that is asked for one argument at a time
against the partially grounded subsection text, and once more, for "@truth",
for the subsection's truth score. Each answer is one value, or None for no
answer. The engine runs `unroll`'s program as it is, in post order: a
subsection without a body is instantiated directly, an operator combines
its operands' results, and a subsection with a body absorbs the body's
values (mapped back through the reference bindings) before being
instantiated itself. Every node is resolved exactly once; there is no
backtracking.

Values enter the engine only as `Case.inputs` and checked resolver answers,
so the engine keeps them in plain dicts.

A run (`run_cases`) is one `RunContext`. It holds what the run fixes (the
corpus, as `load_corpus` gives it, and the `EngineConfig`), what is built
once from those and shared across cases (each subsection's
`SubsectionPlan`, its text cut at its labelled mentions, and each query's
program, the tuple of `rules.unroll`'s (op, id, depth, bindings, body,
arity) tuples at the run's depth cap), and the notes its cases add.
A case is one loop over its query's program with a stack of the values each
open subsection's body sees and a stack of results. A request's grounded
text is spliced from the plan only when a resolver first reads it, and a
note is kept as a tuple and rendered only when read. The engine runs and
does not score: `reports.instantiation_report` scores a run's results.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import Protocol

from .model import ArgumentLayer, Case, Frozen, TRUTH_KEY, Value, _set, check_truth, check_value, layer_of
from .records import write_value
from .rules import unroll


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
    """What grounding one subsection needs, worked out once: its layer, its
    source text, the text cut at its labelled mentions, and the run's truth
    threshold by which a grounded truth score reads."""

    __slots__ = ("layer", "text", "threshold", "arguments", "_pieces", "_mentions")

    def __init__(self, layer: ArgumentLayer, text: str, threshold: float):
        self.layer = layer
        self.text = text
        self.threshold = threshold
        labelled = layer.labelled_clusters
        # Argument names in order of first mention, @truth excluded.
        self.arguments = tuple(n for n, _ in labelled if n != TRUTH_KEY)
        names = {i: n for n, cluster in labelled if n != TRUTH_KEY for i in cluster}
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

    def ground(self, values: Mapping[str, Value]) -> str:
        """The text with every mention of a valued argument replaced by the
        value's surface form."""
        pieces = list(self._pieces)
        for k, name in self._mentions:
            if name in values:
                pieces[k] = value_surface(values[name], self.threshold)
        return "".join(pieces)


class ResolveRequest:
    """One resolver query: the value of `argument`, or the truth score when
    `argument` is "@truth" (`TRUTH_KEY`), for a subsection grounded with the
    values known so far.

    `text` is the grounded variant, spliced from `grounding` the first time
    it is read; `subsection.text` is the original text that the layer's
    spans (`subsection.layer`) index into. `known` is a read-only view and
    `grounding` a snapshot: the engine never changes a mapping it gave a
    request.
    """

    __slots__ = ("subsection", "known", "argument", "case", "grounding", "_text")

    def __init__(
        self,
        subsection: SubsectionPlan,
        known: Mapping[str, Value],
        argument: str,
        case: Case,
        grounding: Mapping[str, Value] = MappingProxyType({}),
    ):
        self.subsection = subsection
        self.known = known
        self.argument = argument
        self.case = case
        self.grounding = grounding
        self._text: str | None = None

    @property
    def subsection_id(self) -> str:
        return self.subsection.layer.subsection_id

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = self.subsection.ground(self.grounding)
        return self._text


class Resolver(Protocol):
    """Answers requests one at a time, each with the one value asked for or
    None for no answer; the engine validates every value it is given. A
    resolver is free to keep what it derives from a case or a subsection for
    the length of a run; the engine itself unrolls each query and builds
    each subsection's plan once per run."""

    def resolve(self, request: ResolveRequest) -> Value | None: ...


class EngineError(RuntimeError):
    pass


def value_surface(value: Value, threshold: float) -> str:
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
# argument, kind) tuple and rendered only when read. A case's error is not
# a note: it stays in the case's `CaseResult`.
_NOTE_TEXT = {
    "no value": "{0}: no value for {2!r} of {1}",
    "no truth": "{0}: resolver gave no @truth for {1}; defaulting to 0.0",
}


def note_text(note: tuple[str, str | None, str | None, str]) -> str:
    """How a (case id, subsection, argument, kind) note reads."""
    return _NOTE_TEXT[note[3]].format(*note)


def _instantiate(
    resolve,
    plan: SubsectionPlan,
    inputs: dict[str, Value],
    case: Case,
    insert_gold: bool,
    note,
) -> dict[str, Value]:
    """Instantiate one subsection: predict each mentioned argument in order of
    first appearance, re-grounding the text after every prediction, then ask
    for the truth score of the fully grounded text.

    `resolve` is the resolver's `resolve` and `note` appends a note tuple.
    Arguments already present in `inputs` are never re-predicted. Returns
    inputs plus predictions, always including "@truth". An answer of None
    is no answer (noted; a missing truth score reads 0.0); any other answer
    is validated here, and an invalid one raises ValueError. `predictions`
    and `grounding` are replaced, never changed, so requests and results
    can share them.
    """
    sid = plan.layer.subsection_id
    predictions = grounding = inputs
    known = MappingProxyType(predictions)

    for name in plan.arguments:
        if name in predictions:
            continue
        try:
            value = resolve(ResolveRequest(plan, known, name, case, grounding))
        except Exception as exc:
            raise EngineError(f"resolver failed on argument {name!r} of {sid}: {exc}") from exc
        if value is None:
            note((case.id, sid, name, "no value"))
            continue
        value = check_value(value)
        predictions = {**predictions, name: value}
        known = MappingProxyType(predictions)
        grounding = {**grounding, name: case.expected.get(name, value)} if insert_gold else predictions

    try:
        truth = resolve(ResolveRequest(plan, known, TRUTH_KEY, case, grounding))
    except Exception as exc:
        raise EngineError(f"resolver failed on @truth of {sid}: {exc}") from exc
    if truth is None:
        note((case.id, sid, None, "no truth"))
        truth = 0.0
    return {**predictions, TRUTH_KEY: check_truth(truth)}


def do_operation(kind: str, children: list[dict[str, Value]]) -> dict[str, Value]:
    """Combine children's values at a logical-operator node, whose shape
    `rules.Op` checked: "NOT" over one child, "AND" or "OR" over two or more.
    Each child holds a truth score, as every result the engine builds does.

    NOT keeps only the negated truth score. OR adopts the entire value map of
    the child with the highest truth score. AND pools all children's values
    with the minimum truth score, resolving conflicting values in favour of
    the child with the lower truth score.
    """
    if kind == "NOT":
        return {TRUTH_KEY: 1.0 - children[0][TRUTH_KEY]}
    truths = [c[TRUTH_KEY] for c in children]
    if kind == "OR":
        winner = truths.index(max(truths))  # the first of the highest
        return {**children[winner], TRUTH_KEY: truths[winner]}
    # AND: lower-truth children win conflicts, so merge in descending-truth
    # order (a stable sort keeps ties in child order) and let later (lower)
    # children overwrite.
    merged: dict[str, Value] = {}
    for i in sorted(range(len(children)), key=truths.__getitem__, reverse=True):
        merged.update(children[i])
    merged.pop(TRUTH_KEY, None)
    merged[TRUTH_KEY] = min(truths)
    return merged


class RunContext:
    """One run of the engine. It holds what the run fixes: the corpus, as
    `load_corpus` returns it (so every query has a rule and every id its
    rules name has a subsection), and the config. It holds what is built
    once from those and shared by the run's cases: each query's program as
    `rules.unroll` gives it (`programs`) and each subsection's plan
    (`plans`); neither holds a case's values, so cases only read them. And
    it holds the notes the run's cases add, in order, as (case id,
    subsection, argument, kind) tuples (see `note_text`)."""

    __slots__ = ("corpus", "config", "programs", "plans", "notes")

    def __init__(self, corpus, config: EngineConfig = EngineConfig()):
        self.corpus = corpus
        self.config = config
        self.programs: dict[str, tuple[tuple, ...]] = {}
        self.plans: dict[str, SubsectionPlan] = {}
        self.notes: list[tuple[str, str | None, str | None, str]] = []


def instantiate_full(resolver: Resolver, case: Case, context: RunContext) -> dict[str, Value]:
    """Instantiate a case's query subsection over its unrolled rules: one
    loop over the query's program, unrolled on its first case in `context`
    with a plan for each of its subsections, with a stack of the values each
    open subsection's body sees and a stack of results. The context's corpus
    is a loaded one (see `RunContext`), so the query has a rule and every id
    of its program a subsection; neither is checked again here. Notes go to
    `context.notes`."""
    plans = context.plans
    program = context.programs.get(case.query)
    if program is None:
        corpus, config = context.corpus, context.config
        program = tuple(unroll(corpus.program, case.query, config.depth_cap))
        for _, sid, *_ in program:
            if sid is not None and sid not in plans:
                text = corpus.subsections[sid].text
                plans[sid] = SubsectionPlan(layer_of(corpus.layers, sid), text, config.truth_threshold)
        context.programs[case.query] = program
    resolve, note, insert_gold = resolver.resolve, context.notes.append, context.config.insert_gold
    inputs = dict(case.inputs)
    envs: list[dict[str, Value]] = []
    results: list[dict[str, Value]] = []
    for op, sid, depth, bindings, body, arity in program:
        if sid is None:  # an operator
            children = results[-arity:]
            del results[-arity:]
            results.append(do_operation(op, children))
            continue
        if body:
            known = envs.pop()
            absorbed = results.pop()
            known = {**known, **{k: v for k, v in absorbed.items() if k not in known and k != TRUTH_KEY}}
        elif depth == 1:
            known = inputs
        else:
            # Values cross a reference by renaming: the callee's parameter
            # takes the caller's value for the bound variable, and back.
            # (Plain loops: in this loop they cost less than comprehensions.)
            outer = envs[-1]
            known = {}
            for param, var in bindings:
                if var in outer:
                    known[param] = outer[var]
        if op == "open":
            envs.append(known)
            continue
        result = _instantiate(resolve, plans[sid], known, case, insert_gold, note)
        if depth > 1:
            out = {}
            for param, var in bindings:
                if param in result:
                    out[var] = result[param]
            out[TRUTH_KEY] = result[TRUTH_KEY]
            result = out
        results.append(result)
    return results.pop()


# ---------------------------------------------------------------------------
# Corpus-level runs


class CaseResult(Frozen):
    """A case, what the run predicted for it, and the error that stopped it
    or None."""

    __slots__ = ("case", "predicted", "error")


def run_cases(
    resolver: Resolver,
    corpus,
    split: str = "test",
    config: EngineConfig = EngineConfig(),
) -> tuple[list[CaseResult], list[tuple[str, str | None, str | None, str]]]:
    """Instantiate every case of a split in corpus order, in one
    `RunContext`: (results, the run's notes). A case's error goes into its
    `CaseResult`, and the run continues."""
    context = RunContext(corpus, config)
    results = []
    for case in corpus.cases_of(split):
        try:
            results.append(CaseResult(case, instantiate_full(resolver, case, context), None))
        except EngineError as exc:
            results.append(CaseResult(case, {}, str(exc)))
    return results, context.notes

