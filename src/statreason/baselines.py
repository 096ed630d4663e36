"""Deterministic baselines: coreference, placeholder spotting, and resolvers.

The resolvers answer the engine's `ResolveRequest`s (see `engine.Resolver`).

The string-matching normalization removes exactly the words such, a, an,
the, any, his and every (as whole tokens), collapses whitespace and
lowercases; the word list is closed on purpose so scores stay reproducible.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction

from .metrics import MONTHS, canonical_string, dollar_band, family_of
from .model import (
    ArgumentLayer,
    Case,
    Frozen,
    Money,
    Span,
    TRUTH_KEY,
    Value,
    canonical_partition,
)

# ---------------------------------------------------------------------------
# Argument coreference


def single_mention_coref(layer: ArgumentLayer) -> tuple[tuple[int, ...], ...]:
    """Predict no links: every span is its own argument."""
    return tuple((i,) for i in range(len(layer.spans)))


_DROPPED_WORDS = frozenset({"such", "a", "an", "the", "any", "his", "every"})


def normalize_placeholder(text: str) -> str:
    tokens = [t for t in text.lower().split() if t not in _DROPPED_WORDS]
    return " ".join(tokens)


def string_match_coref(spans: tuple[Span, ...], text: str) -> tuple[tuple[int, ...], ...]:
    """Cluster the indices of spans whose normalized placeholder strings
    are identical."""
    groups: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        groups.setdefault(normalize_placeholder(span.slice(text)), []).append(i)
    return canonical_partition(groups.values())


# ---------------------------------------------------------------------------
# Heuristic argument identification

_DETERMINERS = frozenset(
    {"a", "an", "the", "such", "any", "every", "each", "another", "his", "her",
     "some", "one", "no"}
)
# Function words that end a placeholder phrase.
_PHRASE_STOP = frozenset(
    """of in on for to under over with by at during is are was were be been being shall
    may must not or and nor but if then than as from into upon within without between
    against that which who whom whose this these those it its there where when while
    begins begin began beginning ends end ending died dies exceed exceeds applicable
    allowable paid made described defined employed returns""".split()
)

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9']*")


def heuristic_argument_id(text: str) -> list[Span]:
    """Candidate placeholder spans: determiner-led noun phrases, restarting
    after possessive markers. Purely lexical and deterministic."""
    tokens = [(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]
    spans: list[Span] = []
    i = 0
    while i < len(tokens):
        if tokens[i][0].lower() in _DETERMINERS:
            i = _absorb(text, tokens, i, spans)
        else:
            i += 1
    return spans


def _absorb(text: str, tokens, i: int, spans: list[Span]) -> int:
    """Extend the phrase that token i starts from token i+1 on; append
    completed spans. Returns the next unconsumed token index."""
    start = tokens[i][1]
    absorbed = 0
    j = i + 1
    while j < len(tokens):
        word, wstart, wend = tokens[j]
        lower = word.lower()
        if lower in _PHRASE_STOP or lower in _DETERMINERS:
            break
        j += 1
        if lower.endswith("'s"):
            # Possessive: close at the stem, then start a fresh phrase after it.
            spans.append(Span(start, wend - 2))
            if j == len(tokens) or not _continues(tokens[j][0]):
                return j
            start, absorbed = tokens[j][1], 0
            continue
        end = wend
        absorbed += 1
        if wend < len(text) and text[wend] in ".,;:!?":
            break
    if absorbed:
        spans.append(Span(start, end))
    return j


def _continues(word: str) -> bool:
    lower = word.lower()
    return lower not in _PHRASE_STOP and lower not in _DETERMINERS and not lower.endswith("'s")


# ---------------------------------------------------------------------------
# The constant baseline (three parameters)


class ConstantBaselineParams(Frozen):
    __slots__ = ("majority_truth", "constant_dollars", "majority_string")


def hinge_losses(targets: list[int], candidates: list[int]) -> Iterator[Fraction]:
    """The total numerical hinge loss against integer `targets` of every c of
    the ascending `candidates`, in one sweep, yielded one at a time so no
    list of losses is kept.

    Target y with scale s adds y/s - 1 - c/s below y - s, nothing in between
    and c/s - y/s - 1 above y + s (each piece is 0 at its breakpoint), so the
    loss is an intercept plus a slope times c that changes only where c
    passes a breakpoint. Both are kept as exact fractions.
    """
    scaled = [(y, dollar_band(y)) for y in targets]
    # Start with every target's left piece active; drop it at y - s and
    # add the right piece at y + s.
    intercept = sum((y / s - 1 for y, s in scaled), Fraction(0))
    slope = -sum((1 / s for _, s in scaled), Fraction(0))
    events = sorted(
        [(y - s, -(y / s - 1), 1 / s) for y, s in scaled]
        + [(y + s, -(y / s + 1), 1 / s) for y, s in scaled]
    )
    i = 0
    for c in candidates:
        while i < len(events) and events[i][0] <= c:
            intercept += events[i][1]
            slope += events[i][2]
            i += 1
        yield intercept + slope * c


def constant_candidates(targets: list[int]) -> list[int]:
    """Ascending candidate constants: 0, and each target and each breakpoint
    y_i +- s_i, rounded both ways, where not negative."""
    candidates = {0}
    for y in targets:
        scale = dollar_band(y)
        for point in (Fraction(y), y - scale, y + scale):
            for rounded in (int(point), int(point) + 1):
                if rounded >= 0:
                    candidates.add(rounded)
    return sorted(candidates)


def fit_constant_baseline(train_cases: list[Case]) -> ConstantBaselineParams:
    """Fit the three parameters on gold training outputs.

    The dollar constant minimizes the hinge loss exactly: the objective is
    convex and piecewise linear with breaks only at y_i +- max(0.1 |y_i|,
    5000), so the smallest non-negative integer minimizer is 0 or a
    breakpoint rounded one way or the other (`constant_candidates`).
    """
    if not train_cases:
        raise ValueError("empty training set")
    truths: list[float] = []
    dollars: list[int] = []
    strings: list[str] = []
    for case in train_cases:
        for name, value in case.expected.items():
            family = family_of(name, value)
            if family == "truth":
                truths.append(float(value))
            elif family == "dollar":
                dollars.append(value.dollars)
            else:
                strings.append(canonical_string(value))

    majority_truth = _mode(truths, prefer=1.0) if truths else 1.0
    majority_string = _mode(sorted(strings)) if strings else ""

    constant = 0
    if dollars:
        candidates = constant_candidates(dollars)
        constant = min(zip(hinge_losses(dollars, candidates), candidates))[1]
    return ConstantBaselineParams(majority_truth, constant, majority_string)


def _mode(values, prefer=None):
    """The most common value: `prefer` when it ties for most, else the first
    of those that do."""
    counts = Counter(values)
    first, best = counts.most_common(1)[0]
    return prefer if counts[prefer] == best else first


# Vocabulary that marks an argument as calling for a dollar amount, judged on
# its placeholder text (or its name when it has no mention).
_MONEY_WORDS = frozenset(
    {"income", "tax", "deduction", "amount", "exemption", "$", "dollar", "remuneration",
     "wages", "salary", "cost", "expense", "sum"}
)
_WORD_RE = re.compile(r"[a-z]+")


class _Argument:
    """What the resolvers read from an argument's placeholder text, or from
    its name when it has no mention: its lowered tokens, and whether it
    calls for a date or for dollars."""

    __slots__ = ("tokens", "date", "dollars")

    def __init__(self, text: str):
        surface = text.lower()
        self.tokens = tuple(surface.split())
        self.date = any(w in surface for w in _DATE_WORDS)
        self.dollars = "$" in surface or not _MONEY_WORDS.isdisjoint(_WORD_RE.findall(surface))


def _argument(arguments: dict[tuple, _Argument], request) -> _Argument:
    """The argument the request asks for, read from its placeholder text (its
    mentions' text joined by spaces) or from its name when it has no mention.
    It is read once per (plan, argument) and kept in `arguments`; each run
    has its own plans, so a resolver that serves several runs answers each
    from its own text."""
    key = (request.subsection, request.argument)
    argument = arguments.get(key)
    if argument is None:
        layer, text, name = request.subsection.layer, request.subsection.text, request.argument
        cluster = dict(layer.labelled_clusters).get(name)
        spans = layer.spans
        placeholder = name if cluster is None else " ".join([text[spans[i].start : spans[i].end] for i in cluster])
        argument = arguments[key] = _Argument(placeholder)
    return argument


class ConstantResolver:
    """Answers from the three fitted parameters (`params`), ignoring the
    case entirely."""

    __slots__ = ("params", "_arguments", "_dollars")

    def __init__(self, params: ConstantBaselineParams):
        self.params = params
        self._arguments: dict[tuple, _Argument] = {}
        self._dollars = Money(params.constant_dollars)  # a Money cannot be changed, so answers share it

    def resolve(self, request) -> Value:
        if request.argument == TRUTH_KEY:
            return self.params.majority_truth
        if _argument(self._arguments, request).dollars:
            return self._dollars
        return self.params.majority_string


# ---------------------------------------------------------------------------
# Oracle and heuristic resolvers


class OracleResolver:
    """Returns gold values for the case's query subsection; knows nothing
    about any other subsection."""

    def resolve(self, request) -> Value | None:
        default = 0.0 if request.argument == TRUTH_KEY else None
        if request.subsection_id != request.case.query:
            return default
        return request.case.expected.get(request.argument, default)


_CASE_DATE_RE = re.compile(r"\b([A-Z][a-z]{2,8})\.?\s+(\d{1,2})(?:st|nd|rd|th)?(?:,\s*\d{4})?")
_CASE_MONEY_RE = re.compile(r"\$(,*\d[\d,]*)")
_CASE_YEAR_RE = re.compile(r"\b(?:19|20)\d{2}\b")
_CASE_NAME_RE = re.compile(r"\b[A-Z][a-z]+\b")
_CAPITALIZED_STOP = frozenset(
    """in the on a an at for during since from and of to under over section his her
    they it no if""".split()
)
_DATE_WORDS = ("year", "day", "date", "week", "month", "caly")
_OVERLAP_TOKEN_RE = re.compile(r"[a-z0-9$]+")


class _CaseFeatures:
    """What the heuristic reads from one case: its description lowered, the
    description's (position, value) candidates of each category and the
    token set that truth scores are measured against, and the text values
    among the case's inputs."""

    __slots__ = ("lowered", "dates", "money", "names", "tokens", "inputs")

    def __init__(self, case: Case):
        description = case.description
        self.inputs = frozenset(v for v in case.inputs.values() if isinstance(v, str))
        self.lowered = lowered = description.lower()
        self.dates = dates = [
            (m.start(), m.group())
            for m in _CASE_DATE_RE.finditer(description)
            if m.group(1).lower()[:3] in MONTHS
        ]
        dates += [(m.start(), m.group()) for m in _CASE_YEAR_RE.finditer(description)]
        self.money = []
        for m in _CASE_MONEY_RE.finditer(description):
            try:
                self.money.append((m.start(), Money(int(m.group(1).replace(",", "")))))
            except ValueError:  # more digits than `int` reads: no amount
                pass
        self.names = [
            (m.start(), m.group())
            for m in _CASE_NAME_RE.finditer(description)
            if m.group().lower() not in _CAPITALIZED_STOP
            and m.group().lower()[:3] not in MONTHS
        ]
        self.tokens = frozenset(_OVERLAP_TOKEN_RE.findall(lowered))


class HeuristicResolver:
    """A case-reading stand-in for a learned value predictor.

    For each argument it guesses the value's category from the placeholder
    text (date, dollar amount, or person name by capitalization) and picks
    the candidate nearest to where the case description overlaps the
    placeholder wording; the truth score is the lexical overlap between the
    request's grounded `text` and the description. What it reads from a
    case is worked out once and kept while requests keep coming for it; the
    engine asks about one case at a time, so that is once per case and only
    one case's features are held.
    """

    __slots__ = ("_case", "_features", "_arguments")

    def __init__(self) -> None:
        self._case: Case | None = None
        self._features: _CaseFeatures | None = None
        self._arguments: dict[tuple, _Argument] = {}

    def resolve(self, request) -> Value | None:
        case = request.case
        if case is not self._case:
            self._case, self._features = case, _CaseFeatures(case)
        features = self._features
        if request.argument == TRUTH_KEY:
            return _overlap(request.text, features.tokens)
        argument = _argument(self._arguments, request)
        anchor = _anchor_position(argument.tokens, features.lowered)
        if argument.date:
            return _nearest(features.dates, anchor)
        if argument.dollars:
            return _nearest(features.money, anchor)
        used = features.inputs.union(v for v in request.known.values() if isinstance(v, str))
        return _nearest([c for c in features.names if c[1] not in used], anchor)


def _anchor_position(tokens: tuple[str, ...], lowered: str) -> int:
    positions = [p for p in map(lowered.find, tokens) if p >= 0]
    return min(positions) if positions else 0


def _nearest(candidates: list[tuple[int, Value]], anchor: int) -> Value | None:
    if not candidates:
        return None
    return min(candidates, key=lambda c: (abs(c[0] - anchor), c[0]))[1]


def _overlap(grounded: str, case_tokens: frozenset[str]) -> float:
    """Fraction of the grounded subsection's distinct tokens that are among
    the case description's tokens; 1.0 for identical texts."""
    sub = set(_OVERLAP_TOKEN_RE.findall(grounded.lower()))
    if not sub:
        return 0.0
    return len(sub & case_tokens) / len(sub)
