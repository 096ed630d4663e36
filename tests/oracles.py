"""Slow, obviously correct versions that the fast code is checked against:
coreference metrics (MUC cluster by cluster, exhaustive CEAF alignments and
BLANC over explicit mention pairs), the constant baseline's dollar fit (the
hinge loss evaluated at every candidate), and the engine's grounding and the
resolvers' per-call derivations as first written (a right-to-left splice,
placeholder texts rebuilt and case descriptions re-read on every call)."""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

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
    hinge_loss,
)
from statreason.engine import value_surface
from statreason.model import TRUTH_KEY, ArgumentLayer, Money, Value


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
