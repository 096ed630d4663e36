"""Slow, obviously correct versions that the fast code is checked against:
coreference metrics (MUC cluster by cluster, exhaustive CEAF alignments and
BLANC over explicit mention pairs), the constant baseline's dollar fit
(`hinge_loss` evaluated at every candidate), and the engine's grounding and the
resolvers' per-call derivations as first written (a right-to-left splice,
placeholder texts rebuilt and case descriptions re-read on every call), and
the coreference, argument-identification, cascade and instantiation reports
as first written (one scoring loop per report, each with its own pooling and
its own copy of the P/R/F1 table, scoring each unit with the per-unit
`span_prf` and `exact_match_coref` the library once had), and the record
scanner's quoted-string scan one character at a time, as first written.
`unified_accuracy` is the unified mean as the library once defined it, and
`instantiate_full` the engine's populate-then-resolve tree evaluation,
recursive over a tree built for each case, with the per-subsection
`_instantiate`, the operator combination (`do_operation`) and the value-map
helpers it used (`merged`, `without`, `_translate`) over dicts.
`tree_depth` is the dependency-tree depth the depth-cap tests measure with."""

from __future__ import annotations

import re
import statistics as stats
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from types import MappingProxyType

from statreason.baselines import (
    ConstantResolver,
    HeuristicResolver,
    OracleResolver,
    _CAPITALIZED_STOP,
    _CASE_DATE_RE,
    _CASE_MONEY_RE,
    _CASE_NAME_RE,
    _CASE_YEAR_RE,
    _MONEY_WORDS,
    _MONTH_PREFIXES,
)
from statreason import coref_metrics, records
from statreason.corpus import Corpus
from statreason.engine import (
    CaseResult,
    EngineConfig,
    EngineError,
    ResolveRequest,
    Resolver,
    RunContext,
    RunDiagnostics,
    SubsectionPlan,
    value_surface,
)
from statreason.metrics import (
    ArgScore,
    PRF,
    binary_accuracy,
    dollar_band,
    numerical_accuracy,
    pair_consistency,
    prf,
    score_arguments,
)
from statreason.model import TRUTH_KEY, ArgumentLayer, Case, Money, Span, Value, check_value, layer_of, value_kind
from statreason.reports import FamilyScore, InstantiationReport
from statreason.rules import DepTree, OpNode, Program, SubsectionNode, TreeNode, build_dependency_tree


def vilain_muc(gold, pred) -> tuple[float, float, float]:
    """MUC by counting, for each cluster, its parts under the other side."""

    def links(a, b) -> tuple[int, int]:
        owner = {m: i for i, c in enumerate(b) for m in c}
        kept = sum(len(c) - len({owner[m] for m in c}) for c in a)
        return kept, sum(len(c) - 1 for c in a)

    r_num, r_den = links(gold, pred)
    p_num, p_den = links(pred, gold)
    p = p_num / p_den if p_den else 0.0
    r = r_num / r_den if r_den else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def brute_force_ceaf(gold, pred, similarity):
    """Best one-to-one cluster alignment by exhaustive permutation."""
    gold = [frozenset(c) for c in gold]
    pred = [frozenset(c) for c in pred]
    if len(gold) <= len(pred):
        small, large, flip = gold, pred, False
    else:
        small, large, flip = pred, gold, True
    best = 0.0
    for perm in permutations(range(len(large)), len(small)):
        total = sum(
            similarity(small[i], large[j]) if not flip else similarity(large[j], small[i])
            for i, j in enumerate(perm)
        )
        best = max(best, total)
    return best


def subset_ceaf(gold, pred, similarity):
    """Best one-to-one cluster alignment by exhaustive search over the sets of
    clusters of the larger side already taken, memoized: the same optimum as
    `brute_force_ceaf`, reachable for a dozen clusters a side."""
    gold = [frozenset(c) for c in gold]
    pred = [frozenset(c) for c in pred]
    flip = len(gold) > len(pred)
    small, large = (pred, gold) if flip else (gold, pred)
    sim = [
        [similarity(l, s) if flip else similarity(s, l) for l in large]
        for s in small
    ]

    @lru_cache(maxsize=None)
    def best(i: int, taken: int) -> float:
        if i == len(small):
            return 0.0
        return max(
            sim[i][j] + best(i + 1, taken | 1 << j)
            for j in range(len(large))
            if not taken >> j & 1
        )

    return best(0, 0)


def overlap(a, b):
    return len(a & b)


def phi4(a, b):
    return 2 * len(a & b) / (len(a) + len(b))


def _prf(matched: float, total_pred: float, total_gold: float) -> tuple[float, float, float]:
    if total_pred == 0 and total_gold == 0:
        return 1.0, 1.0, 1.0
    p = matched / total_pred if total_pred else 0.0
    r = matched / total_gold if total_gold else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def oracle_ceaf_m(gold, pred) -> tuple[float, float, float]:
    best = subset_ceaf(gold, pred, overlap)
    return _prf(best, sum(len(c) for c in pred), sum(len(c) for c in gold))


def oracle_ceaf_e(gold, pred) -> tuple[float, float, float]:
    best = subset_ceaf(gold, pred, phi4)
    return _prf(best, len(pred), len(gold))


def _links(partition) -> set[frozenset]:
    return {frozenset(pair) for c in partition for pair in combinations(c, 2)}


def pairwise_blanc(gold, pred) -> tuple[float, float, float]:
    """BLANC from explicit sets of coreference and non-coreference links."""
    mentions = {m for c in gold for m in c}
    all_pairs = {frozenset(pair) for pair in combinations(mentions, 2)}
    gold_coref, pred_coref = _links(gold), _links(pred)
    gold_non, pred_non = all_pairs - gold_coref, all_pairs - pred_coref

    def component(gold_set: set, pred_set: set) -> tuple[float, float, float]:
        hit = len(gold_set & pred_set)
        p = hit / len(pred_set) if pred_set else 0.0
        r = hit / len(gold_set) if gold_set else 0.0
        return p, r, (2 * p * r / (p + r) if p + r else 0.0)

    coref = component(gold_coref, pred_coref)
    non = component(gold_non, pred_non)
    if not gold_coref and not pred_coref:
        return non if all_pairs else (1.0, 1.0, 1.0)
    if not gold_non and not pred_non:
        return coref
    return tuple((c + n) / 2 for c, n in zip(coref, non))


def hinge_loss(targets: list[int], constant: int) -> Fraction:
    """Total numerical hinge loss of one constant against integer targets."""
    total = Fraction(0)
    for y in targets:
        delta = Fraction(abs(y - constant)) / dollar_band(y)
        if delta > 1:
            total += delta - 1
    return total


def brute_force_constant(targets: list[int]) -> int:
    """The dollar constant as first fitted: build the candidate set, then
    take the smallest candidate of least exact hinge loss, evaluating the
    loss afresh at each one."""
    candidates = {0}
    for y in targets:
        scale = max(Fraction(abs(y)) / 10, Fraction(5000))
        for point in (Fraction(y), y - scale, y + scale):
            for rounded in (int(point), int(point) + 1):
                if rounded >= 0:
                    candidates.add(rounded)
    top = 2 * max(targets)
    step = max(1, top // 200)
    candidates.update(range(0, top + 1, step))
    return min(sorted(candidates), key=lambda c: (hinge_loss(targets, c), c))


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


def wants_dollars(argument: str, layer: ArgumentLayer, source_text: str) -> bool:
    spans = layer.spans_of(argument)
    if spans and source_text:
        surface = " ".join(span.slice(source_text).lower() for span in spans)
    else:
        surface = argument.lower()
    if "$" in surface:
        return True
    tokens = set(re.findall(r"[a-z]+", surface))
    return bool(tokens & _MONEY_WORDS)


def value_for(name: str, request) -> Value | None:
    """`HeuristicResolver._value_for` as first written."""
    description = request.case.description
    spans = request.layer.spans_of(name)
    if spans and request.source_text:
        surface = " ".join(s.slice(request.source_text) for s in spans).lower()
    else:
        surface = name.lower()
    anchor = _anchor_position(surface, description)

    if any(w in surface for w in ("year", "day", "date", "week", "month", "caly")):
        candidates = [
            (m.start(), m.group())
            for m in _CASE_DATE_RE.finditer(description)
            if m.group(1).lower()[:3] in _MONTH_PREFIXES
        ]
        candidates += [(m.start(), m.group()) for m in _CASE_YEAR_RE.finditer(description)]
        return _nearest(candidates, anchor)
    if wants_dollars(name, request.layer, request.source_text):
        candidates = [
            (m.start(), Money(int(m.group(1).replace(",", ""))))
            for m in _CASE_MONEY_RE.finditer(description)
        ]
        return _nearest(candidates, anchor)
    used = {v for v in request.case.inputs.values() if isinstance(v, str)}
    used |= {v for v in request.known.values() if isinstance(v, str)}
    candidates = [
        (m.start(), m.group())
        for m in _CASE_NAME_RE.finditer(description)
        if m.group() not in used
        and m.group().lower() not in _CAPITALIZED_STOP
        and m.group().lower()[:3] not in _MONTH_PREFIXES
    ]
    return _nearest(candidates, anchor)


def _anchor_position(surface: str, description: str) -> int:
    lowered = description.lower()
    positions = [lowered.find(tok) for tok in surface.split() if tok in lowered]
    return min(positions) if positions else 0


def _nearest(candidates: list[tuple[int, Value]], anchor: int) -> Value | None:
    if not candidates:
        return None
    return min(candidates, key=lambda c: (abs(c[0] - anchor), c[0]))[1]


_OVERLAP_TOKEN_RE = re.compile(r"[a-z0-9$]+")


def overlap_score(grounded: str, description: str) -> float:
    """Fraction of the grounded subsection's distinct tokens that also occur
    in the case description; 1.0 for identical texts."""
    sub = set(_OVERLAP_TOKEN_RE.findall(grounded.lower()))
    if not sub:
        return 0.0
    case_tokens = set(_OVERLAP_TOKEN_RE.findall(description.lower()))
    return len(sub & case_tokens) / len(sub)


def resolver_answer(resolver, request, text: str) -> dict[str, Value]:
    """What a built-in resolver answered as first written, for `request`
    grounded as `text`: placeholders and case features re-derived per call."""
    case = request.case
    if isinstance(resolver, OracleResolver):
        if request.subsection_id != case.query:
            return {} if request.required else {TRUTH_KEY: 0.0}
        if not request.required:
            return {TRUTH_KEY: float(case.expected.get(TRUTH_KEY, 0.0))}
        return {n: case.expected[n] for n in request.required if n in case.expected}
    if isinstance(resolver, ConstantResolver):
        params = resolver.params
        if not request.required:
            return {TRUTH_KEY: params.majority_truth}
        return {
            name: params.majority_truth if name == TRUTH_KEY
            else Money(params.constant_dollars) if wants_dollars(name, request.layer, request.source_text)
            else params.majority_string
            for name in request.required
        }
    assert isinstance(resolver, HeuristicResolver)
    if not request.required:
        return {TRUTH_KEY: overlap_score(text, case.description)}
    answers = {name: value_for(name, request) for name in request.required}
    return {name: value for name, value in answers.items() if value is not None}


def tree_depth(tree: DepTree) -> int:
    """Deepest subsection level present in the tree (root is level 1)."""

    def walk(node: TreeNode) -> int:
        if isinstance(node, OpNode):
            return max(walk(c) for c in node.children)
        if node.child is None:
            return node.depth
        return max(node.depth, walk(node.child))

    return walk(tree.root)


# ---------------------------------------------------------------------------
# The engine's tree evaluation as first written: one pass to attach each
# node's input values, then one to resolve. Tree nodes no longer hold values,
# so the first pass returns them keyed by node identity. The value-map
# helpers it used are kept here as they were, over plain dicts.


def merged(values: dict[str, Value], other: Mapping[str, Value]) -> dict[str, Value]:
    """New map with entries of `other` added; existing keys keep their value."""
    items = dict(values)
    for name, value in other.items():
        items.setdefault(name, value)
    return items


def without(values: dict[str, Value], *names: str) -> dict[str, Value]:
    return {k: v for k, v in values.items() if k not in names}


def _translate(result: dict[str, Value], bindings: tuple[tuple[str, str], ...]) -> dict[str, Value]:
    """Map a callee's result back into the caller's namespace."""
    pairs = [(var, result[param]) for param, var in bindings if param in result]
    out = dict(pairs)
    out[TRUTH_KEY] = result.get(TRUTH_KEY, 0.0)
    return out


def populate_values(tree: DepTree, inputs: dict[str, Value]) -> dict[int, dict[str, Value]]:
    """Propagate input values from the root down through reference bindings.

    Values cross a reference by renaming: the callee's parameter takes the
    caller's value for the bound variable. Operator nodes pass the enclosing
    subsection's values through to every branch unchanged.
    """
    values: dict[int, dict[str, Value]] = {}

    def fill(node: TreeNode, incoming: dict[str, Value]) -> None:
        if isinstance(node, OpNode):
            for c in node.children:
                fill(c, incoming)
            return
        if node.depth == 1:
            own = incoming
        else:
            # Values come from a validated map; Ref guarantees the keys.
            own = {param: incoming[var] for param, var in node.bindings if var in incoming}
        values[id(node)] = own
        if node.child is not None:
            fill(node.child, own)

    fill(tree.root, inputs)
    return values


def do_operation(kind: str, children: list[dict[str, Value]]) -> dict[str, Value]:
    """`engine.do_operation` as first written: children ranked by key
    functions and merged one value at a time."""
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
        order = sorted(range(len(children)), key=lambda i: (-truths[i], i))
        merged: dict[str, Value] = {}
        for i in order:
            for name, value in children[i].items():
                if name != TRUTH_KEY:
                    merged[name] = value
        merged[TRUTH_KEY] = min(truths)
        return merged
    raise EngineError(f"unknown operator {kind!r}")


def _instantiate(
    resolver: Resolver,
    plan: SubsectionPlan,
    inputs: dict[str, Value],
    case: Case,
    config: EngineConfig,
    diagnostics: RunDiagnostics,
) -> dict[str, Value]:
    """One subsection, argument by argument and then its truth score."""
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
            diagnostics.note(case.id, sid, name, "no value")

    request = ResolveRequest(plan, MappingProxyType(predictions), (), case, grounding, threshold)
    try:
        answer = resolver.resolve(request)
    except Exception as exc:
        raise EngineError(f"resolver failed on @truth of {sid}: {exc}") from exc
    truth = answer.get(TRUTH_KEY)
    if truth is None:
        diagnostics.note(case.id, sid, None, "no truth")
        truth = 0.0
    return {**predictions, TRUTH_KEY: check_value(float(truth))}


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
    """Instantiate a case's query subsection over its dependency tree, built
    afresh for the case; `context` lends only its plans."""
    diagnostics = diagnostics or RunDiagnostics()
    context = context or RunContext()
    if case.query not in program:
        raise EngineError(f"case {case.id}: query {case.query} has no rule")
    tree = build_dependency_tree(program, case.query, config.depth_cap)
    values = populate_values(tree, dict(case.inputs))
    plans = context.plans

    def plan_of(sid: str) -> SubsectionPlan:
        if sid not in subsections:
            diagnostics.note(case.id, sid, None, "no text")
        plan = plans.get(sid)
        if plan is None:
            plan = plans[sid] = SubsectionPlan(layer_of(layers, sid), subsections.get(sid, ""))
        return plan

    def resolve(node) -> dict[str, Value]:
        if isinstance(node, OpNode):
            return do_operation(node.kind, [resolve(c) for c in node.children])
        assert isinstance(node, SubsectionNode)
        known = values[id(node)]
        if node.child is not None:
            absorbed = without(resolve(node.child), TRUTH_KEY)
            known = merged(known, absorbed)
        result = _instantiate(resolver, plan_of(node.id), known, case, config, diagnostics)
        if node.depth == 1:
            return result
        return _translate(result, node.bindings)

    return resolve(tree.root)


# ---------------------------------------------------------------------------
# Reports as first written


def span_prf(gold: list[Span] | tuple, pred: list[Span] | tuple) -> PRF:
    """Exact-boundary span matching."""
    gold_set, pred_set = set(gold), set(pred)
    matched = len(gold_set & pred_set)
    return prf(matched, len(pred_set), matched, len(gold_set))


def exact_match_coref(gold_clusters, pred_clusters) -> PRF:
    """Credit a predicted cluster only when it equals a gold cluster as a set.

    Clusters may be given over span indices or over (start, end) pairs, as
    long as both sides use the same mention representation.
    """
    gold_sets = {frozenset(c) for c in gold_clusters}
    pred_sets = {frozenset(c) for c in pred_clusters}
    correct = len(gold_sets & pred_sets)
    return prf(correct, len(pred_sets), correct, len(gold_sets))


@dataclass(frozen=True)
class Aggregate:
    """avg +- stddev across units, plus the pooled corpus-level value."""

    avg: PRF
    std: PRF
    macro: PRF
    units: int


def _avg_std(values: list[float]) -> tuple[float, float]:
    if not values:
        return (0.0, 0.0)
    return (stats.fmean(values), stats.pstdev(values))


def _aggregate(per_unit: list[PRF], pooled: PRF) -> Aggregate:
    p_avg, p_std = _avg_std([u.precision for u in per_unit])
    r_avg, r_std = _avg_std([u.recall for u in per_unit])
    f_avg, f_std = _avg_std([u.f1 for u in per_unit])
    return Aggregate(PRF(p_avg, r_avg, f_avg), PRF(p_std, r_std, f_std), pooled, len(per_unit))


@dataclass(frozen=True)
class CorefReport:
    baseline: str
    exact_match: Aggregate
    perfectly_resolved: float
    resolved_units: int
    standard: dict[str, PRF] = field(default_factory=dict)
    per_subsection: dict[str, PRF] = field(default_factory=dict)

    def flat(self) -> dict[str, float]:
        out = {
            "exact_match_f1_avg": self.exact_match.avg.f1,
            "exact_match_f1_macro": self.exact_match.macro.f1,
            "perfectly_resolved": self.perfectly_resolved,
        }
        for name, value in self.standard.items():
            out[f"{name}_f1"] = value.f1
        return out

    def render(self) -> str:
        lines = [
            f"argument coreference [{self.baseline}]",
            f"  subsections scored: {self.exact_match.units}",
            "  exact match            avg +- stddev        macro",
            f"    precision        {100 * self.exact_match.avg.precision:6.1f} +- {100 * self.exact_match.std.precision:4.1f}"
            f"       {100 * self.exact_match.macro.precision:6.1f}",
            f"    recall           {100 * self.exact_match.avg.recall:6.1f} +- {100 * self.exact_match.std.recall:4.1f}"
            f"       {100 * self.exact_match.macro.recall:6.1f}",
            f"    F1               {100 * self.exact_match.avg.f1:6.1f} +- {100 * self.exact_match.std.f1:4.1f}"
            f"       {100 * self.exact_match.macro.f1:6.1f}",
            f"  perfectly resolved subsections: {100 * self.perfectly_resolved:.1f}%"
            f" (of {self.resolved_units} with arguments)",
            "  (macro pools cluster counts over subsections with arguments;"
            " the equal-weight alternative is the avg column)",
        ]
        if self.standard:
            lines.append("  standard metrics (P / R / F1, pooled mention universe)")
            for name, value in self.standard.items():
                lines.append(
                    f"    {name:<8} {100 * value.precision:5.1f} / {100 * value.recall:5.1f} / {100 * value.f1:5.1f}"
                )
        return "\n".join(lines)


def coref_report(
    corpus: Corpus,
    predictions: dict[str, tuple[tuple[int, ...], ...]],
    baseline: str,
    standard: bool = True,
) -> CorefReport:
    """Score predicted index partitions (one per subsection) against gold."""
    per_unit: list[PRF] = []
    per_subsection: dict[str, PRF] = {}
    correct = pred_total = gold_total = 0
    perfect = scored = 0
    gold_universe, pred_universe = [], []
    for sid, layer in corpus.layers.items():
        pred = predictions.get(sid, ())
        gold = layer.clusters
        mention = lambda i: (sid, layer.spans[i].start, layer.spans[i].end)
        gold_universe.extend(frozenset(mention(i) for i in c) for c in gold)
        pred_universe.extend(frozenset(mention(i) for i in c) for c in pred)
        if not gold:
            continue
        scored += 1
        unit = exact_match_coref(gold, pred)
        per_subsection[sid] = unit
        per_unit.append(unit)
        gold_sets = {frozenset(c) for c in gold}
        pred_sets = {frozenset(c) for c in pred}
        correct += len(gold_sets & pred_sets)
        pred_total += len(pred_sets)
        gold_total += len(gold_sets)
        if gold_sets == pred_sets:
            perfect += 1
    pooled = prf(correct, pred_total, correct, gold_total)
    standard_scores = {}
    if standard:
        for name, fn in coref_metrics.COREF_METRICS.items():
            standard_scores[name] = fn(gold_universe, pred_universe)
    return CorefReport(
        baseline=baseline,
        exact_match=_aggregate(per_unit, pooled),
        perfectly_resolved=(perfect / scored) if scored else 0.0,
        resolved_units=scored,
        standard=standard_scores,
        per_subsection=per_subsection,
    )


# ---------------------------------------------------------------------------
# Argument identification evaluation


@dataclass(frozen=True)
class ArgIdReport:
    source: str
    scores: Aggregate
    per_subsection: dict[str, PRF] = field(default_factory=dict)

    def flat(self) -> dict[str, float]:
        return {
            "span_f1_avg": self.scores.avg.f1,
            "span_f1_macro": self.scores.macro.f1,
        }

    def render(self) -> str:
        return "\n".join(
            [
                f"argument identification [{self.source}]",
                f"  subsections scored: {self.scores.units}",
                "                         avg +- stddev        macro",
                f"    precision        {100 * self.scores.avg.precision:6.1f} +- {100 * self.scores.std.precision:4.1f}"
                f"       {100 * self.scores.macro.precision:6.1f}",
                f"    recall           {100 * self.scores.avg.recall:6.1f} +- {100 * self.scores.std.recall:4.1f}"
                f"       {100 * self.scores.macro.recall:6.1f}",
                f"    F1               {100 * self.scores.avg.f1:6.1f} +- {100 * self.scores.std.f1:4.1f}"
                f"       {100 * self.scores.macro.f1:6.1f}",
            ]
        )


def argid_report(corpus: Corpus, predictions: dict[str, tuple], source: str) -> ArgIdReport:
    per_unit = []
    per_subsection: dict[str, PRF] = {}
    matched = pred_total = gold_total = 0
    for sid, layer in corpus.layers.items():
        pred = tuple(predictions.get(sid, ()))
        unit = span_prf(layer.spans, pred)
        per_subsection[sid] = unit
        per_unit.append(unit)
        both = set(layer.spans) & set(pred)
        matched += len(both)
        pred_total += len(set(pred))
        gold_total += len(set(layer.spans))
    pooled = prf(matched, pred_total, matched, gold_total)
    return ArgIdReport(source, _aggregate(per_unit, pooled), per_subsection)


# ---------------------------------------------------------------------------
# Cascade (predicted spans, then coreference on them)


@dataclass(frozen=True)
class CascadeReport:
    source: str
    exact_match: Aggregate
    perfectly_resolved: float
    resolved_units: int

    def flat(self) -> dict[str, float]:
        return {
            "cascade_f1_avg": self.exact_match.avg.f1,
            "cascade_f1_macro": self.exact_match.macro.f1,
            "cascade_perfectly_resolved": self.perfectly_resolved,
        }

    def render(self) -> str:
        return "\n".join(
            [
                f"identification + coreference cascade [{self.source}]",
                f"  subsections scored: {self.exact_match.units}",
                "  exact match            avg +- stddev        macro",
                f"    precision        {100 * self.exact_match.avg.precision:6.1f} +- {100 * self.exact_match.std.precision:4.1f}"
                f"       {100 * self.exact_match.macro.precision:6.1f}",
                f"    recall           {100 * self.exact_match.avg.recall:6.1f} +- {100 * self.exact_match.std.recall:4.1f}"
                f"       {100 * self.exact_match.macro.recall:6.1f}",
                f"    F1               {100 * self.exact_match.avg.f1:6.1f} +- {100 * self.exact_match.std.f1:4.1f}"
                f"       {100 * self.exact_match.macro.f1:6.1f}",
                f"  perfectly resolved subsections: {100 * self.perfectly_resolved:.1f}%"
                f" (of {self.resolved_units} with arguments)",
            ]
        )


def cascade_report(
    corpus: Corpus, clusters_by_sid: dict[str, tuple[tuple, ...]], source: str
) -> CascadeReport:
    """Score predicted clusters given as groups of (start, end) pairs against
    gold clusters compared as span sets."""
    per_unit = []
    correct = pred_total = gold_total = 0
    perfect = scored = 0
    for sid, layer in corpus.layers.items():
        if not layer.clusters:
            continue
        scored += 1
        gold = [
            frozenset((layer.spans[i].start, layer.spans[i].end) for i in c) for c in layer.clusters
        ]
        pred = [frozenset(tuple(s) for s in c) for c in clusters_by_sid.get(sid, ())]
        unit = exact_match_coref(gold, pred)
        per_unit.append(unit)
        gold_sets, pred_sets = set(gold), set(pred)
        correct += len(gold_sets & pred_sets)
        pred_total += len(pred_sets)
        gold_total += len(gold_sets)
        if gold_sets == pred_sets:
            perfect += 1
    pooled = prf(correct, pred_total, correct, gold_total)
    return CascadeReport(
        source=source,
        exact_match=_aggregate(per_unit, pooled),
        perfectly_resolved=(perfect / scored) if scored else 0.0,
        resolved_units=scored,
    )


def unified_accuracy(scores: list[ArgScore]) -> float:
    """Sample-weighted average over all scored arguments."""
    if not scores:
        raise ValueError("no scored arguments")
    return sum(s.score for s in scores) / len(scores)


def instantiation_report(
    results: list[CaseResult],
    config: EngineConfig = EngineConfig(),
    diagnostics: RunDiagnostics | None = None,
) -> InstantiationReport:
    scores: list[ArgScore] = []
    decisions: dict[str, bool | None] = {}
    truth_correct: dict[str, int] = {}
    binary_scores, numerical_scores = [], []
    for result in results:
        case, predicted = result.case, result.predicted
        scores.extend(score_arguments(case.expected, predicted, case.id, config.truth_threshold))
        truth = predicted.get(TRUTH_KEY)
        decisions[case.id] = None if truth is None else float(truth) >= config.truth_threshold
        gold = float(case.expected.get(TRUTH_KEY, 1.0))
        truth_correct[case.id] = binary_accuracy(
            gold, None if truth is None else float(truth), config.truth_threshold
        )
        if case.kind == "binary":
            binary_scores.append(truth_correct[case.id])
        else:
            ok = 1
            for name, value in case.expected.items():
                if name != TRUTH_KEY and value_kind(value) == "money":
                    pred = predicted.get(name)
                    if pred is None or value_kind(pred) not in ("money", "number"):
                        ok = 0
                    else:
                        ok = min(ok, numerical_accuracy(value, pred))
            numerical_scores.append(ok)

    def family(name: str) -> FamilyScore:
        member = [s.score for s in scores if s.family == name]
        if not member:
            return FamilyScore(0.0, 0)
        return FamilyScore(sum(member) / len(member), len(member))

    pairs = pair_consistency([r.case for r in results], decisions, truth_correct)
    return InstantiationReport(
        truth=family("truth"),
        dollar=family("dollar"),
        string=family("string"),
        unified=FamilyScore(unified_accuracy(scores), len(scores)) if scores else FamilyScore(0.0, 0),
        binary_cases=FamilyScore(
            sum(binary_scores) / len(binary_scores) if binary_scores else 0.0, len(binary_scores)
        ),
        numerical_cases=FamilyScore(
            sum(numerical_scores) / len(numerical_scores) if numerical_scores else 0.0,
            len(numerical_scores),
        ),
        pairs=pairs,
        arg_scores=tuple(scores),
        errors=tuple(f"{r.case.id}: {r.error}" for r in results if r.error),
        note_records=tuple(diagnostics.records) if diagnostics else (),
    )


# ---------------------------------------------------------------------------
# Record scanning


class CharScanner(records._Scanner):
    """The record scanner with quoted strings read one character at a time."""

    def scan_string(self) -> str:
        self.take('"')
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(out)
            if ch == "\\":
                if self.pos >= len(self.text):
                    raise self.error("dangling escape")
                esc = self.text[self.pos]
                self.pos += 1
                if esc == "n":
                    out.append("\n")
                elif esc in ('"', "\\"):
                    out.append(esc)
                elif esc == "u" and records._HEX4_RE.match(self.text, self.pos):
                    out.append(chr(int(self.text[self.pos : self.pos + 4], 16)))
                    self.pos += 4
                else:
                    raise self.error(f"unknown escape \\{esc}")
            else:
                out.append(ch)


def parse_record_by_chars(line: str) -> records.Record:
    """`records.parse_record` over `CharScanner`."""
    scanner = CharScanner(line)
    if scanner.at_end():
        raise records.RecordError("empty record")
    start = scanner.pos
    while scanner.pos < len(line) and not line[scanner.pos].isspace():
        scanner.pos += 1
    return records.Record(line[start : scanner.pos], scanner.scan_fields())
