"""Slow, obviously correct versions that the fast code is checked against:
coreference metrics (MUC cluster by cluster, exhaustive CEAF alignments and
BLANC over explicit mention pairs), the constant baseline's dollar fit
(`hinge_loss` evaluated at every candidate), and the engine's grounding and the
resolvers' per-call derivations as first written (a right-to-left splice,
placeholder texts rebuilt and case descriptions re-read on every call), and
the coreference, argument-identification, cascade and instantiation reports
as first written (one scoring loop per report, each with its own pooling and
its own copy of the P/R/F1 table, scoring each unit with the per-unit
`span_prf` and `exact_match_coref` the library once had), the record
scanner object (`_Scanner`, a method call per character, which also reads
a quoted entry key as the format now allows), the item classes it built
(`Entry`, `PairLit`, `Labeled`) and `as_value_map` over them, and
its quoted-string scan one character at a time, and the structure parser
over `_tokenize`'s token objects (`_Parser`), as first written, and
`parse_rule`, one clause read with the library's parser, which the rule
printer's round-trip tests use.
`unified_accuracy` is the unified mean as the library once defined it,
`build_dependency_tree` the recursive tree builder the library once had, and
`instantiate_full` the engine's populate-then-resolve tree evaluation,
recursive over such a tree built for each case, with the per-subsection
`_instantiate`, the operator combination (`do_operation`) and the value-map
helpers it used (`merged`, `without`, `_translate`) over dicts.
`tree_depth` is the dependency-tree depth the depth-cap tests measure with,
and `heuristic_argument_id` the argument-identification heuristic as first
written, recursing once per possessive that starts a phrase. `load_statutes`,
`load_spans`, `load_argument_layers` and `load_cases` are the corpus loaders
as first written, each with its own loop over `_iter_file`, and with the
label and query checks that a second pass over the loaded corpus once made
in the rows of the records they are about; `load_corpus` puts them
together."""

from __future__ import annotations

import datetime
import re
import statistics as stats
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path
from types import MappingProxyType

from statreason.baselines import (
    ConstantResolver,
    HeuristicResolver,
    OracleResolver,
    _DETERMINERS,
    _PHRASE_STOP,
    _TOKEN_RE as _PHRASE_TOKEN_RE,
    _CAPITALIZED_STOP,
    _continues,
    _CASE_DATE_RE,
    _CASE_MONEY_RE,
    _CASE_NAME_RE,
    _CASE_YEAR_RE,
    _MONEY_WORDS,
)
from statreason import coref_metrics, records
from statreason.corpus import Corpus, CorpusError, CorpusManifest, FileError, _fail, _read
from statreason.engine import (
    CaseResult,
    EngineConfig,
    EngineError,
    ResolveRequest,
    Resolver,
    RunContext,
    SubsectionPlan,
    value_surface,
)
from statreason.metrics import (
    MONTHS,
    ArgScore,
    PRF,
    binary_accuracy,
    dollar_band,
    numerical_accuracy,
    pair_consistency,
    prf,
    score_arguments,
)
from statreason.model import (
    TRUTH_KEY,
    ArgumentLayer,
    Case,
    Frozen,
    Money,
    Span,
    Subsection,
    Value,
    ValueMap,
    check_split,
    check_value,
    layer_of,
    value_kind,
)
from statreason.records import RecordError
from statreason.reports import FamilyScore, InstantiationReport
from statreason.rules import (
    BodyExpr,
    DepTree,
    Op,
    OpNode,
    Program,
    Ref,
    Rule,
    RuleSyntaxError,
    SubsectionNode,
    _Parser as _TextParser,
    _Unterminated,
    iter_refs,
)


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


def heuristic_argument_id(text: str) -> list[Span]:
    """`baselines.heuristic_argument_id` as first written: a possessive that
    a continuing word follows starts the next phrase by recursion, once per
    possessive."""
    tokens = [(m.group(), m.start(), m.end()) for m in _PHRASE_TOKEN_RE.finditer(text)]
    spans: list[Span] = []
    i = 0
    while i < len(tokens):
        if tokens[i][0].lower() in _DETERMINERS:
            i = _absorb(text, tokens, i, tokens[i][1], spans)
        else:
            i += 1
    return spans


def _absorb(text: str, tokens, i: int, start: int, spans: list[Span]) -> int:
    end = tokens[i][2]
    absorbed = 0
    j = i + 1
    while j < len(tokens):
        word, wstart, wend = tokens[j]
        lower = word.lower()
        if lower in _PHRASE_STOP or lower in _DETERMINERS:
            break
        if lower.endswith("'s"):
            spans.append(Span(start, wend - 2))
            if j + 1 < len(tokens) and _continues(tokens[j + 1][0]):
                return _absorb(text, tokens, j, tokens[j + 1][1], spans)
            return j + 1
        end = wend
        absorbed += 1
        j += 1
        if wend < len(text) and text[wend] in ".,;:!?":
            break
    if absorbed:
        spans.append(Span(start, end))
    return j


def insert_values(
    text: str, layer: ArgumentLayer, values: Mapping[str, Value], threshold: float
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


def spans_of(layer: ArgumentLayer, name: str) -> tuple[Span, ...]:
    """The mention spans of a labelled argument; () for any other name."""
    for label, cluster in layer.labelled_clusters:
        if label == name:
            return tuple(layer.spans[i] for i in cluster)
    return ()


def wants_dollars(argument: str, layer: ArgumentLayer, source_text: str) -> bool:
    spans = spans_of(layer, argument)
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
    layer, text = request.subsection.layer, request.subsection.text
    spans = spans_of(layer, name)
    if spans and text:
        surface = " ".join(s.slice(text) for s in spans).lower()
    else:
        surface = name.lower()
    anchor = _anchor_position(surface, description)

    if any(w in surface for w in ("year", "day", "date", "week", "month", "caly")):
        candidates = [
            (m.start(), m.group())
            for m in _CASE_DATE_RE.finditer(description)
            if m.group(1).lower()[:3] in MONTHS
        ]
        candidates += [(m.start(), m.group()) for m in _CASE_YEAR_RE.finditer(description)]
        return _nearest(candidates, anchor)
    if wants_dollars(name, layer, text):
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
        and m.group().lower()[:3] not in MONTHS
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


def resolver_answer(resolver, request, text: str) -> Value | None:
    """What a built-in resolver answered as first written, for `request`
    grounded as `text`: placeholders and case features re-derived per call."""
    case, name = request.case, request.argument
    if isinstance(resolver, OracleResolver):
        if request.subsection_id != case.query:
            return 0.0 if name == TRUTH_KEY else None
        if name == TRUTH_KEY:
            return float(case.expected.get(TRUTH_KEY, 0.0))
        return case.expected[name] if name in case.expected else None
    if isinstance(resolver, ConstantResolver):
        params = resolver.params
        if name == TRUTH_KEY:
            return params.majority_truth
        if wants_dollars(name, request.subsection.layer, request.subsection.text):
            return Money(params.constant_dollars)
        return params.majority_string
    assert isinstance(resolver, HeuristicResolver)
    if name == TRUTH_KEY:
        return overlap_score(text, case.description)
    return value_for(name, request)


TreeNode = SubsectionNode | OpNode


def build_dependency_tree(program: Program, root_id: str, depth_cap: int) -> DepTree:
    """The rule base unrolled into a tree below `root_id`, recursively, as
    the library first built it.

    A subsection node at depth == depth_cap gets no child even if its rule
    has a body; recursive references simply unroll until the cap. Referenced
    identifiers without a rule become leaves.
    """
    if root_id not in program:
        raise KeyError(f"unknown rule: {root_id}")
    if depth_cap < 1:
        raise ValueError(f"depth cap must be >= 1, got {depth_cap}")

    def subsection(sid: str, depth: int, bindings: tuple[tuple[str, str], ...]) -> SubsectionNode:
        rule = program.get(sid)
        child = None
        if rule is not None and rule.body is not None and depth < depth_cap:
            child = expand(rule.body, depth)
        return SubsectionNode(sid, depth, bindings, child)

    def expand(expr: BodyExpr, depth: int) -> TreeNode:
        if isinstance(expr, Ref):
            return subsection(expr.callee_id, depth + 1, expr.bindings)
        return OpNode(expr.kind, depth, tuple(expand(c, depth) for c in expr.children))

    return DepTree(subsection(root_id, 1, ()), depth_cap)


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
    notes: list,
) -> dict[str, Value]:
    """One subsection, argument by argument and then its truth score."""
    sid = plan.layer.subsection_id
    predictions = grounding = inputs

    for name in plan.arguments:
        if name in predictions:
            continue
        request = ResolveRequest(plan, MappingProxyType(predictions), name, case, grounding)
        try:
            answer = resolver.resolve(request)
        except Exception as exc:
            raise EngineError(f"resolver failed on argument {name!r} of {sid}: {exc}") from exc
        if answer is not None:
            value = check_value(answer)
            predictions = {**predictions, name: value}
            if config.insert_gold and name in case.expected:
                value = case.expected[name]
            grounding = {**grounding, name: value}
        else:
            notes.append((case.id, sid, name, "no value"))

    request = ResolveRequest(plan, MappingProxyType(predictions), TRUTH_KEY, case, grounding)
    try:
        truth = resolver.resolve(request)
    except Exception as exc:
        raise EngineError(f"resolver failed on @truth of {sid}: {exc}") from exc
    if truth is None:
        notes.append((case.id, sid, None, "no truth"))
        truth = 0.0
    return {**predictions, TRUTH_KEY: check_value(float(truth))}


def instantiate_full(resolver: Resolver, case: Case, context: RunContext) -> dict[str, Value]:
    """Instantiate a case's query subsection over its dependency tree, built
    afresh for the case; `context` lends its corpus, its config, its plans
    and its notes list."""
    corpus, config, notes = context.corpus, context.config, context.notes
    tree = build_dependency_tree(corpus.program, case.query, config.depth_cap)
    values = populate_values(tree, dict(case.inputs))
    plans = context.plans

    def plan_of(sid: str) -> SubsectionPlan:
        plan = plans.get(sid)
        if plan is None:
            text = corpus.subsections[sid].text
            plan = SubsectionPlan(layer_of(corpus.layers, sid), text, config.truth_threshold)
            plans[sid] = plan
        return plan

    def resolve(node) -> dict[str, Value]:
        if isinstance(node, OpNode):
            return do_operation(node.kind, [resolve(c) for c in node.children])
        assert isinstance(node, SubsectionNode)
        known = values[id(node)]
        if node.child is not None:
            absorbed = without(resolve(node.child), TRUTH_KEY)
            known = merged(known, absorbed)
        result = _instantiate(resolver, plan_of(node.id), known, case, config, notes)
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
    return prf(matched, len(pred_set), len(gold_set))


def exact_match_coref(gold_clusters, pred_clusters) -> PRF:
    """Credit a predicted cluster only when it equals a gold cluster as a set.

    Clusters may be given over span indices or over (start, end) pairs, as
    long as both sides use the same mention representation.
    """
    gold_sets = {frozenset(c) for c in gold_clusters}
    pred_sets = {frozenset(c) for c in pred_clusters}
    correct = len(gold_sets & pred_sets)
    return prf(correct, len(pred_sets), len(gold_sets))


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
    pooled = prf(correct, pred_total, gold_total)
    standard_scores = {}
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
    pooled = prf(matched, pred_total, gold_total)
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
    pooled = prf(correct, pred_total, gold_total)
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
) -> InstantiationReport:
    scores: list[ArgScore] = []
    decisions: dict[str, bool] = {}
    truth_correct: dict[str, int] = {}
    binary_scores, numerical_scores = [], []
    for result in results:
        case, predicted = result.case, result.predicted
        scores.extend(score_arguments(case.expected, predicted, case.id, config.truth_threshold))
        truth = predicted.get(TRUTH_KEY)
        decisions[case.id] = truth is not None and float(truth) >= config.truth_threshold
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
        families={
            "truth": family("truth"),
            "dollar": family("dollar"),
            "string": family("string"),
            "unified": FamilyScore(unified_accuracy(scores), len(scores)) if scores else FamilyScore(0.0, 0),
            "binary": FamilyScore(
                sum(binary_scores) / len(binary_scores) if binary_scores else 0.0, len(binary_scores)
            ),
            "numerical": FamilyScore(
                sum(numerical_scores) / len(numerical_scores) if numerical_scores else 0.0,
                len(numerical_scores),
            ),
        },
        pairs=pairs,
        arg_scores=tuple(scores),
        case_errors=sum(1 for r in results if r.error),
    )


# ---------------------------------------------------------------------------
# Record scanning: the scanner object, its item classes and the value-map
# reading of its items as first written


class PairLit(Frozen):
    """A literal "(start, end)" character-span pair."""

    __slots__ = ("start", "end")


class Entry(Frozen):
    """A "key=value" item inside a bracketed list."""

    __slots__ = ("key", "value")


class Labeled(Frozen):
    """A "Label:[...]" item (label, items list) inside a bracketed list."""

    __slots__ = ("label", "items")


_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}$")
_NUMBER_RE = re.compile(r"-?\d+$")
_MONEY_RE = re.compile(r"\$(-?\d+)$")
# What repr gives for a float in [0, 1]: "0.25", "1e-05", "2.5e-310".
_DECIMAL_RE = re.compile(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?$")
_ATOM_END = re.compile(r"[^\s\[\]\(\),=]+")
_KEY_RE = re.compile(r"[A-Za-z0-9@_][A-Za-z0-9@_.\-]*")
_HEX4_RE = re.compile(r"[0-9a-fA-F]{4}")
# The run of a quoted string up to its next quote or backslash.
_STRING_RUN_RE = re.compile(r'[^"\\]*')


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> RecordError:
        return RecordError(f"{message} (column {self.pos + 1})")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def scan_string(self) -> str:
        self.take('"')
        text = self.text
        out = []
        while True:
            run = _STRING_RUN_RE.match(text, self.pos)
            out.append(run.group())
            self.pos = run.end()
            if self.pos >= len(text):
                raise self.error("unterminated string")
            ch = text[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(out)
            if self.pos >= len(text):
                raise self.error("dangling escape")
            esc = text[self.pos]
            self.pos += 1
            if esc == "n":
                out.append("\n")
            elif esc in ('"', "\\"):
                out.append(esc)
            elif esc == "u" and _HEX4_RE.match(text, self.pos):
                out.append(chr(int(text[self.pos : self.pos + 4], 16)))
                self.pos += 4
            else:
                raise self.error(f"unknown escape \\{esc}")

    def scan_atom(self) -> Value:
        self.skip_ws()
        m = _ATOM_END.match(self.text, self.pos)
        if m is None:
            raise self.error("expected a value")
        word = m.group()
        self.pos = m.end()
        if word == "true":
            return 1.0
        if word == "false":
            return 0.0
        money = _MONEY_RE.match(word)
        if money:
            return Money(int(money.group(1)))
        if _DATE_RE.match(word):
            year, month, day = word.split("-")
            try:
                return datetime.date(int(year), int(month), int(day))
            except ValueError as exc:
                raise self.error(f"invalid date {word!r}: {exc}") from None
        if _NUMBER_RE.match(word):
            return int(word)
        if _DECIMAL_RE.match(word):
            return float(word)
        raise self.error(f"cannot type value {word!r} (strings must be quoted)")

    def scan_pair(self) -> PairLit:
        self.take("(")
        a = self.scan_atom()
        self.take(",")
        b = self.scan_atom()
        self.take(")")
        if not isinstance(a, int) or not isinstance(b, int):
            raise self.error("span pairs must hold two integers")
        return PairLit(a, b)

    def scan_list(self) -> list:
        self.take("[")
        items: list = []
        if self.peek() != "]":
            while True:
                items.append(self.scan_item())
                if self.peek() != ",":
                    break
                self.take(",")
        self.take("]")
        return items

    def scan_item(self) -> object:
        ch = self.peek()
        if ch == '"':
            text = self.scan_string()
            if self.peek() == ":":
                self.take(":")
                return Labeled(text, self.scan_list())
            if self.peek() == "=":
                self.take("=")
                return Entry(text, self.scan_item())
            return text
        if ch == "(":
            return self.scan_pair()
        if ch == "[":
            return self.scan_list()
        m = _KEY_RE.match(self.text, self.pos)
        if m is not None:
            end = m.end()
            follow = self.text[end : end + 1]
            if follow == "=":
                self.pos = end + 1
                return Entry(m.group(), self.scan_item())
            if follow == ":":
                self.pos = end + 1
                return Labeled(m.group(), self.scan_list())
        return self.scan_atom()

    def scan_fields(self) -> dict[str, object]:
        fields: dict[str, object] = {}
        while not self.at_end():
            m = _KEY_RE.match(self.text, self.pos)
            if m is None:
                raise self.error("expected a field key")
            key = m.group()
            self.pos = m.end()
            self.take("=")
            if key in fields:
                raise self.error(f"duplicate field {key!r}")
            fields[key] = self.scan_item()
        return fields


def parse_record_by_scanner(line: str) -> records.Record:
    """`records.parse_record` over `_Scanner`."""
    scanner = _Scanner(line)
    if scanner.at_end():
        raise RecordError("empty record")
    start = scanner.pos
    while scanner.pos < len(line) and not line[scanner.pos].isspace():
        scanner.pos += 1
    rid = line[start : scanner.pos]
    return records.Record(rid, scanner.scan_fields())


def parse_value_literal_by_scanner(text: str) -> Value | list | Entry | Labeled | PairLit:
    """`records.parse_value_literal` over `_Scanner`."""
    scanner = _Scanner(text)
    value = scanner.scan_item()
    if not scanner.at_end():
        raise RecordError(f"trailing input after value: {text!r}")
    return value


def item_shapes(item: object) -> object:
    """The scanner's items as `records` gives them: an Entry as the tuple
    (key, value), a PairLit as (start, end) and a Labeled as {label: items}."""
    if isinstance(item, Entry):
        return (item.key, item_shapes(item.value))
    if isinstance(item, PairLit):
        return (item.start, item.end)
    if isinstance(item, Labeled):
        return {item.label: item_shapes(item.items)}
    if isinstance(item, list):
        return [item_shapes(i) for i in item]
    return item


def as_value_map(items: object, where: str = "") -> ValueMap:
    """Interpret a parsed bracket list of key=value entries as a value map."""
    if not isinstance(items, list):
        raise RecordError(f"{where}: expected a [key=value, ...] list")
    pairs = []
    for item in items:
        if not isinstance(item, Entry):
            raise RecordError(f"{where}: expected key=value entries, found {records.item_repr(item_shapes(item))}")
        value = item.value
        if isinstance(value, list):
            value = tuple(_plain(v, where) for v in value)
        pairs.append((item.key, value))
    try:
        return ValueMap(pairs)
    except ValueError as exc:
        message = str(exc)
        if message.startswith("unsupported value type: "):  # the first structured value, which no check passes
            key, value = next((k, v) for k, v in pairs if isinstance(v, (Entry, Labeled, PairLit)))
            shown = records.item_repr(item_shapes(value))
            message = f"argument {records.write_name(key)} holds {shown}, which is not a value"
        raise RecordError(f"{where}: {message}") from exc


def _plain(item: object, where: str) -> Value:
    if isinstance(item, (Entry, Labeled, PairLit)):
        raise RecordError(f"{where}: unexpected structured item {records.item_repr(item_shapes(item))} in a value list")
    if isinstance(item, list):
        return tuple(_plain(v, where) for v in item)
    return item


class CharScanner(_Scanner):
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
                elif esc == "u" and _HEX4_RE.match(self.text, self.pos):
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


# ---------------------------------------------------------------------------
# Structure parsing: the tokenizer of token objects and the parser over them
# as first written


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<neck>:-)
  | (?P<punct>[()\[\],=.])
  | (?P<name>[^\s()\[\],=.%:]+)
""",
    re.VERBOSE,
)

_KEYWORDS = {"AND", "OR", "NOT"}


# kind is "neck", "punct", "name", "keyword" or "end".
_Token = namedtuple("_Token", "kind text pos")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup not in ("ws", "comment"):
            kind = m.lastgroup
            word = m.group()
            if kind == "name" and word in _KEYWORDS:
                kind = "keyword"
            tokens.append(_Token(kind, word, pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, text: str, error: type[RuleSyntaxError] = RuleSyntaxError) -> _Token:
        token = self.peek()
        if token.text != text:
            raise error(f"expected {text!r}, found {token.text or 'end of input'!r}", token.pos)
        return self.advance()

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    # -- terms --------------------------------------------------------------

    def parse_term(self) -> tuple[str, list[tuple[str, str | None]], int]:
        """A section identifier plus its final argument list.

        Returns (identifier, items, position) where each item is
        (name, bound_name_or_None).
        """
        token = self.peek()
        if token.kind != "name":
            raise RuleSyntaxError(f"expected a section identifier, found {token.text or 'end of input'!r}", token.pos)
        ident = self.advance().text
        groups: list[tuple[list[tuple[str, str | None]], int]] = []
        while self.peek().text == "(":
            groups.append(self._parse_group())
        if not groups:
            raise RuleSyntaxError(f"term {ident!r} is missing its argument list", token.pos)
        *ident_groups, (args, _) = groups
        for items, pos in ident_groups:
            if len(items) != 1 or items[0][1] is not None:
                raise RuleSyntaxError("identifier group must hold a single plain name", pos)
            ident += f"({items[0][0]})"
        return ident, args, token.pos

    def _parse_group(self) -> tuple[list[tuple[str, str | None]], int]:
        open_token = self.expect("(")
        items: list[tuple[str, str | None]] = []
        if self.peek().text != ")":
            while True:
                name = self.peek()
                if name.kind != "name":
                    raise RuleSyntaxError(f"expected a name, found {name.text or 'end of input'!r}", name.pos)
                self.advance()
                bound: str | None = None
                if self.peek().text == "=":
                    self.advance()
                    target = self.peek()
                    if target.kind != "name":
                        raise RuleSyntaxError(f"expected a name after '=', found {target.text!r}", target.pos)
                    bound = self.advance().text
                items.append((name.text, bound))
                if self.peek().text != ",":
                    break
                self.advance()
        self.expect(")")
        return items, open_token.pos

    # -- body expressions (NOT > AND > OR) -----------------------------------

    def parse_body(self) -> BodyExpr:
        children = [self._parse_and()]
        while self.peek().text == "OR":
            self.advance()
            children.append(self._parse_and())
        return children[0] if len(children) == 1 else Op("OR", tuple(children))

    def _parse_and(self) -> BodyExpr:
        children = [self._parse_not()]
        while self.peek().text == "AND":
            self.advance()
            children.append(self._parse_not())
        return children[0] if len(children) == 1 else Op("AND", tuple(children))

    def _parse_not(self) -> BodyExpr:
        if self.peek().text == "NOT":
            self.advance()
            return Op("NOT", (self._parse_not(),))
        if self.peek().text == "[":
            self.advance()
            body = self.parse_body()
            self.expect("]")
            return body
        ident, items, pos = self.parse_term()
        bindings = tuple((name, bound if bound is not None else name) for name, bound in items)
        try:
            return Ref(ident, bindings)
        except ValueError as exc:
            raise RuleSyntaxError(str(exc), pos) from exc

    # -- clauses --------------------------------------------------------------

    def parse_clause(self) -> Rule:
        ident, items, pos = self.parse_term()
        params = []
        for name, bound in items:
            if bound is not None:
                raise RuleSyntaxError(f"head parameter {name!r} cannot carry a binding", pos)
            params.append(name)
        body: BodyExpr | None = None
        if self.peek().kind == "neck":
            self.advance()
            body = self.parse_body()
        self.expect(".", _Unterminated)
        try:
            return Rule(ident, tuple(params), body)
        except ValueError as exc:
            raise RuleSyntaxError(str(exc), pos) from exc


def parse_rule(text: str) -> Rule:
    """Exactly one clause, read with the library's structure parser; the
    printer's round-trip tests read clauses with it."""
    parser = _TextParser(text)
    rule = parser.parse_clause()
    token = parser.tokens[parser.index]
    if token:
        raise RuleSyntaxError(f"trailing input after clause: {token!r}", parser.position(parser.index))
    return rule


def parse_rule_by_tokens(text: str) -> Rule:
    """`parse_rule` over the token objects of `_tokenize`."""
    parser = _Parser(text)
    rule = parser.parse_clause()
    if not parser.at_end():
        token = parser.peek()
        raise RuleSyntaxError(f"trailing input after clause: {token.text!r}", token.pos)
    return rule


def parse_program_by_tokens(text: str, subsections) -> tuple[Program, list[tuple[int, str]]]:
    """`rules.parse_program` over the token objects of `_tokenize`, each
    clause that parses then checked with every problem the library's
    `reference_problems` once found in a program (no undefined callee while
    a clause does not parse), and its first reported."""

    def lines(problems):
        return [(text[:position].count("\n") + 1, message) for position, message in problems]

    try:
        parser = _Parser(text)
    except RuleSyntaxError as exc:
        return {}, lines([(exc.position, str(exc))])
    clauses: list[tuple[int, int, Rule]] = []
    problems: list[tuple[int, str]] = []
    clause_no = 0
    while not parser.at_end():
        clause_no += 1
        start = parser.peek().pos
        try:
            clauses.append((clause_no, start, parser.parse_clause()))
        except RuleSyntaxError as exc:
            problems.append((exc.position, f"clause {clause_no}: {exc}"))
            # A clause that lacks only its "." ends where the next line
            # begins; resume there. Otherwise skip to just past the next ".".
            line_start = text.rfind("\n", 0, exc.position) + 1
            if isinstance(exc, _Unterminated) and not text[line_start : exc.position].strip():
                continue
            while not parser.at_end() and parser.advance().text != ".":
                pass
    defined = {rule.head_id for _, _, rule in clauses}
    heads: set[str] = set()
    syntax_ok = not problems
    rules: dict[str, Rule] = {}
    for clause_no, start, rule in clauses:
        found = []
        if rule.head_id in heads:
            found.append(f"duplicate rule for {rule.head_id}")
        elif rule.head_id not in subsections:
            found.append(f"rule {rule.head_id} has no subsection text")
        heads.add(rule.head_id)
        for ref in iter_refs(rule.body):
            if syntax_ok and ref.callee_id not in defined:
                found.append(f"{rule.head_id}: reference to undefined rule {ref.callee_id}")
            for callee_param, caller_var in ref.bindings:
                if caller_var not in rule.params:
                    found.append(
                        f"{rule.head_id}: binding {callee_param}={caller_var} uses {caller_var!r}, "
                        f"which is not a parameter of {rule.head_id}"
                    )
        if found:
            problems.append((start, f"clause {clause_no}: {found[0]}"))
        else:
            rules[rule.head_id] = rule
    return rules, lines(sorted(problems, key=lambda problem: problem[0]))


# ---------------------------------------------------------------------------
# The corpus loaders as first written: each with its own error list and its
# own loop over `_iter_file`, a generator that ends the file at a line that
# does not parse. A file that ends so, or a section file that is not UTF-8,
# keeps the errors of the files read before it.


def load_statutes(statutes_dir: str | Path) -> dict[str, Subsection]:
    """Read section files and slice subsections out per the offsets index,
    by id."""
    statutes_dir = Path(statutes_dir)
    index = statutes_dir / "offsets.txt"
    if not index.exists():
        _fail(index, None, "offsets index not found")
    texts: dict[str, str] = {}
    subsections: dict[str, Subsection] = {}
    errors: list[FileError] = []
    try:
        for lineno, record in _iter_file(index):
            try:
                fname = record.require("file")
                start, end = record.require("start"), record.require("end")
                if not (isinstance(fname, str) and isinstance(start, int) and isinstance(end, int)):
                    raise records.RecordError("offsets need file=\"...\" start=<int> end=<int>")
                if "/" in fname or fname in ("", ".", ".."):
                    raise records.RecordError(
                        f"section file must be named by a file name in statutes/, got {fname!r}"
                    )
                if fname not in texts:
                    fpath = statutes_dir / fname
                    if not fpath.exists():
                        raise records.RecordError(f"section file not found: {fname}")
                    try:
                        texts[fname] = _read(fpath)
                    except CorpusError as exc:  # reported once, and the offsets go on
                        texts[fname] = None
                        errors.extend(exc.errors)
                if texts[fname] is None:
                    continue
                if not (0 <= start < end <= len(texts[fname])):
                    raise records.RecordError(
                        f"offsets ({start}, {end}) out of bounds for {fname} of length {len(texts[fname])}"
                    )
                if record.id in subsections:
                    raise records.RecordError(f"duplicate subsection id {record.id}")
                subsections[record.id] = Subsection(record.id, texts[fname][start:end])
            except ValueError as exc:
                errors.append(FileError(str(index), lineno, str(exc)))
    except CorpusError as exc:  # the index ends: its one error replaces its others
        raise CorpusError([e for e in errors if e.path != str(index)] + exc.errors) from exc
    if errors:
        raise CorpusError(errors)
    return subsections


def load_spans(
    path: str | Path, subsections: Mapping[str, Subsection]
) -> tuple[dict[str, tuple[Span, ...]], dict[str, int]]:
    """Each known subsection's spans from a spans file, checked to be sorted,
    disjoint and inside its text, and the line of its record; any problem
    is a CorpusError at path:line."""
    path = Path(path)
    errors: list[FileError] = []
    spans: dict[str, tuple[Span, ...]] = {}
    lines: dict[str, int] = {}
    for lineno, record in _iter_file(path):
        try:
            items = record.require("spans")
            if record.id not in subsections:
                raise records.RecordError(f"unknown subsection {record.id}")
            if record.id in spans:
                raise records.RecordError(f"duplicate spans record for {record.id}")
            if type(items) is not list:
                raise records.RecordError("expected a [(start, end), ...] list")
            out, text = [], subsections[record.id].text
            for item in items:
                if type(item) is not tuple or type(item[0]) is not int:
                    raise records.RecordError(f"expected (start, end) pairs, found {records.item_repr(item)}")
                span = Span(*item)
                if span.end > len(text):
                    raise records.RecordError(
                        f"span ({span.start}, {span.end}) out of range for {record.id} of length {len(text)}"
                    )
                if not span.slice(text).strip():
                    raise records.RecordError(f"span ({span.start}, {span.end}) covers only whitespace")
                out.append(span)
            for a, b in zip(out, out[1:]):
                if b.start < a.end:
                    raise records.RecordError(f"spans overlap or are out of order: {a}, {b}")
            spans[record.id] = tuple(out)
            lines[record.id] = lineno
        except ValueError as exc:
            errors.append(FileError(str(path), lineno, str(exc)))
    if errors:
        raise CorpusError(errors)
    return spans, lines


def load_argument_layers(
    spans_path: str | Path, coref_path: str | Path, subsections: Mapping[str, Subsection], program: Program
) -> dict[str, ArgumentLayer]:
    """Join the spans and coref files into validated argument layers, by id,
    each label a parameter of its subsection's rule."""
    spans_path, coref_path = Path(spans_path), Path(coref_path)
    spans, span_lines = load_spans(spans_path, subsections)
    errors: list[FileError] = []

    layers: dict[str, ArgumentLayer] = {}
    named: list[str] = []  # the id of every coref record
    for lineno, record in _iter_file(coref_path):
        named.append(record.id)
        try:
            items = record.require("clusters")
            if record.id not in spans:
                raise records.RecordError(f"{record.id} has no spans record")
            if record.id in layers:
                raise records.RecordError(f"duplicate coref record for {record.id}")
            if type(items) is not list:
                raise records.RecordError("expected a [Name:[0, 1], [2], ...] list")
            clusters, names = [], []
            for item in items:
                if type(item) is dict:
                    [(label, members)] = item.items()
                elif type(item) is list:
                    label, members = None, item
                else:
                    raise records.RecordError(
                        f"expected clusters like Name:[0, 1] or [0, 1], found {records.item_repr(item)}"
                    )
                if not all(type(i) is int for i in members):
                    raise records.RecordError(f"cluster members must be span indices, got {records.item_repr(members)}")
                bad = [i for i in members if not 0 <= i < len(spans[record.id])]
                if bad:
                    raise records.RecordError(f"cluster index out of range: {bad[0]}")
                clusters.append(tuple(members))
                names.append(label)
            layer = ArgumentLayer(record.id, spans[record.id], tuple(clusters), tuple(names))
            for name, _ in layer.labelled_clusters:
                if record.id not in program:
                    raise records.RecordError(
                        f"layer {record.id}: cluster {name!r} named but no rule declares parameters"
                    )
                if name not in program[record.id].params:
                    raise records.RecordError(f"layer {record.id}: cluster {name!r} is not a parameter of its rule")
            layers[record.id] = layer
        except ValueError as exc:
            errors.append(FileError(str(coref_path), lineno, str(exc)))

    for missing in sorted(set(spans) - set(named)):
        errors.append(FileError(str(spans_path), span_lines[missing], f"no coref record for {missing}"))
    if errors:
        raise CorpusError(errors)
    return layers


def load_cases(cases_dir: str | Path, program: Program, split: str | None = None) -> list[Case]:
    """Load every <name>.cases file, each query a rule of `program`; `split`,
    or else the file stem checked once by `check_split`, names the split.
    The stem `silver` is reserved."""
    cases_dir = Path(cases_dir)
    errors: list[FileError] = []
    cases: list[Case] = []
    seen: set[str] = set()
    for path in sorted(cases_dir.glob("*.cases")):
        name = split or path.stem
        try:
            if split is None and check_split(name) == "silver":
                raise ValueError("'silver' is reserved and cannot name a split")
        except ValueError as exc:
            errors.append(FileError(str(path), None, str(exc)))
            continue
        mine = len(errors)
        try:
            for lineno, record in _iter_file(path):
                try:
                    query = record.require("query")
                    description = record.require("description")
                    if not isinstance(query, str) or not isinstance(description, str):
                        raise records.RecordError("query and description must be quoted strings")
                    inputs = records.as_value_map(record.require("inputs"), "inputs")
                    expected = records.as_value_map(record.require("expected"), "expected")
                    if record.id in seen:
                        raise records.RecordError(f"duplicate case id {record.id}")
                    case = Case(record.id, description, query, inputs, expected, name)
                    if query not in program:
                        shown = query if query.split() == [query] else repr(query)
                        raise records.RecordError(f"case {record.id}: query {shown} has no structure rule")
                    cases.append(case)
                    seen.add(record.id)
                except ValueError as exc:
                    errors.append(FileError(str(path), lineno, str(exc)))
        except CorpusError as exc:  # the file ends: its one error replaces its others
            errors[mine:] = exc.errors
    if errors:
        raise CorpusError(errors)
    return cases


def load_corpus(manifest_path: str | Path, cases: bool) -> Corpus:
    """`corpus.load_corpus` composed of the loaders above and
    `parse_program_by_tokens`."""
    manifest = CorpusManifest.load(manifest_path)
    subsections = load_statutes(manifest.statutes)
    program, problems = parse_program_by_tokens(_read(manifest.structure), subsections)
    if problems:
        raise CorpusError([FileError(str(manifest.structure), line, message) for line, message in problems])
    layers = load_argument_layers(manifest.spans, manifest.coref, subsections, program)
    gold = load_cases(manifest.cases, program) if cases else []
    silver = load_cases(manifest.silver, program, "silver") if cases and manifest.silver else []
    texts = [p.name for p in manifest.statutes.glob("*.txt") if p.is_file() and p.name != "offsets.txt"]
    section_files = tuple(sorted(texts))
    return Corpus(manifest, subsections, layers, program, tuple(gold), tuple(silver), section_files)


def _iter_file(path: Path):
    """`records.iter_records` over a file; a line that does not parse is a
    CorpusError at path:line."""
    try:
        yield from records.iter_records(_read(path))
    except records.RecordError as exc:
        raise CorpusError([FileError(str(path), exc.line, str(exc))]) from exc
