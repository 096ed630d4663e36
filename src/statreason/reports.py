"""Report assembly: score each report's units and render text tables. The
exact-match table is `metrics.exact_match`, which `ExactMatchReport` renders
for the coreference, identification and cascade reports.

Coreference numbers are aggregated two ways, as an average with population
standard deviation across subsections that have at least one argument, and
as a pooled corpus-level count ("macro"); zero-argument subsections are
vacuous and excluded from both. Standard coreference metrics treat the whole
corpus as a single mention universe with mentions keyed by
(subsection, start, end).
"""

from __future__ import annotations

from .corpus import Corpus
from .metrics import (
    ArgScore,
    binary_accuracy,
    confidence_interval,
    exact_match,
    pair_consistency,
    score_arguments,
)
from .model import TRUTH_KEY, Frozen


class ExactMatchReport:
    """`flat` and `render` of a report whose `scores` are an exact-match
    `Aggregate`: its records are keyed by `PREFIX`, its text is titled
    `TITLE` with `HEADING` over the table, and a class that names a
    `PERFECT` record prints the perfectly resolved share too."""

    __slots__ = ()
    HEADING, PERFECT = "exact match", None

    def flat(self) -> dict[str, float]:
        out = {f"{self.PREFIX}_f1_avg": self.scores.avg.f1, f"{self.PREFIX}_f1_macro": self.scores.macro.f1}
        if self.PERFECT:
            out[self.PERFECT] = self.scores.perfectly_resolved
        return out

    def render(self) -> str:
        scores = self.scores
        lines = [
            f"{self.TITLE} [{self.source}]",
            f"  subsections scored: {scores.units}",
            f"  {self.HEADING:<23}avg +- stddev        macro",
        ]
        for label, avg, std, macro in zip(
            ("precision", "recall", "F1"), scores.avg.as_tuple(), scores.std.as_tuple(), scores.macro.as_tuple()
        ):
            lines.append(f"    {label:<17}{100 * avg:6.1f} +- {100 * std:4.1f}       {100 * macro:6.1f}")
        if self.PERFECT:
            share = 100 * scores.perfectly_resolved
            lines.append(f"  perfectly resolved subsections: {share:.1f}% (of {scores.units} with arguments)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Coreference evaluation


class CorefReport(ExactMatchReport, Frozen):
    """Exact-match scores, and the standard metrics' P/R/F1 by name."""

    __slots__ = ("source", "scores", "standard")
    TITLE, PREFIX, PERFECT = "argument coreference", "exact_match", "perfectly_resolved"

    def flat(self) -> dict[str, float]:
        return {**super().flat(), **{f"{name}_f1": value.f1 for name, value in self.standard.items()}}

    def render(self) -> str:
        lines = [
            super().render(),
            "  (macro pools cluster counts over subsections with arguments;"
            " the equal-weight alternative is the avg column)",
            "  standard metrics (P / R / F1, pooled mention universe)",
        ]
        for name, value in self.standard.items():
            lines.append(
                f"    {name:<8} {100 * value.precision:5.1f} / {100 * value.recall:5.1f} / {100 * value.f1:5.1f}"
            )
        return "\n".join(lines)


def coref_report(
    corpus: Corpus, predictions: dict[str, tuple[tuple[int, ...], ...]], baseline: str
) -> CorefReport:
    """Score predicted index partitions (one per subsection) against gold,
    which must cover the same mentions: the standard metrics pool them."""
    from . import coref_metrics

    units = []
    gold_universe, pred_universe = [], []
    for sid, layer in corpus.layers.items():
        mention = lambda i: (sid, layer.spans[i].start, layer.spans[i].end)
        gold = [frozenset(map(mention, c)) for c in layer.clusters]
        pred = [frozenset(map(mention, c)) for c in predictions.get(sid, ())]
        gold_universe += gold
        pred_universe += pred
        if gold:
            units.append((set(gold), set(pred)))
    standard = {name: fn(gold_universe, pred_universe) for name, fn in coref_metrics.COREF_METRICS.items()}
    return CorefReport(baseline, exact_match(units), standard)


# ---------------------------------------------------------------------------
# Argument identification evaluation


class ArgIdReport(ExactMatchReport, Frozen):
    __slots__ = ("source", "scores")
    TITLE, HEADING, PREFIX = "argument identification", "", "span"


def argid_report(corpus: Corpus, predictions: dict[str, tuple], source: str) -> ArgIdReport:
    """Score predicted spans against gold spans, by exact boundaries."""
    units = ((set(layer.spans), set(predictions.get(sid, ()))) for sid, layer in corpus.layers.items())
    return ArgIdReport(source, exact_match(units))


# ---------------------------------------------------------------------------
# Cascade (predicted spans, then coreference on them)


class CascadeReport(ExactMatchReport, Frozen):
    __slots__ = ("source", "scores")
    TITLE, PREFIX, PERFECT = "identification + coreference cascade", "cascade", "cascade_perfectly_resolved"


def cascade_report(
    corpus: Corpus, clusters_by_sid: dict[str, tuple[tuple, ...]], source: str
) -> CascadeReport:
    """Score predicted clusters given as groups of (start, end) pairs against
    gold clusters compared as span sets."""
    units = (
        (
            {frozenset((layer.spans[i].start, layer.spans[i].end) for i in c) for c in layer.clusters},
            {frozenset(map(tuple, c)) for c in clusters_by_sid.get(sid, ())},
        )
        for sid, layer in corpus.layers.items()
        if layer.clusters
    )
    return CascadeReport(source, exact_match(units))


# ---------------------------------------------------------------------------
# Argument instantiation evaluation


class FamilyScore(Frozen):
    __slots__ = ("accuracy", "n")

    @property
    def ci(self) -> float:
        return confidence_interval(self.accuracy, self.n) if self.n else 0.0


def _mean(scores: list[int]) -> FamilyScore:
    return FamilyScore(sum(scores) / len(scores), len(scores)) if scores else FamilyScore(0.0, 0)


class InstantiationReport(Frozen):
    __slots__ = (
        "truth", "dollar", "string", "unified", "binary_cases", "numerical_cases", "pairs", "arg_scores", "errors",
        "note_records",
    )

    @property
    def notes(self) -> tuple[str, ...]:
        """The run's notes as text, rendered from `note_records` on read."""
        from .engine import note_text

        return tuple(map(note_text, self.note_records))

    def flat(self) -> dict[str, float]:
        return {
            "truth": self.truth.accuracy,
            "dollar": self.dollar.accuracy,
            "string": self.string.accuracy,
            "unified": self.unified.accuracy,
            "binary": self.binary_cases.accuracy,
            "numerical": self.numerical_cases.accuracy,
        }

    def render(self) -> str:
        def row(label: str, score: FamilyScore) -> str:
            return f"    {label:<14} {100 * score.accuracy:6.1f} +- {100 * score.ci:4.1f}   (n={score.n})"

        lines = [
            "argument instantiation (accuracy %, 90% confidence half-width)",
            row("@truth", self.truth),
            row("dollar amount", self.dollar),
            row("string", self.string),
            row("unified", self.unified),
            "  case-level accuracies",
            row("binary", self.binary_cases),
            row("numerical", self.numerical_cases),
            "  positive/negative pairs: "
            f"{self.pairs.identical} answered identically, {self.pairs.fully_correct} fully correct, "
            f"{self.pairs.split} split, {len(self.pairs.unpaired)} unpaired",
        ]
        if self.errors:
            lines.append(f"  case errors: {len(self.errors)}")
        return "\n".join(lines)


def instantiation_report(results, config, notes=()) -> InstantiationReport:
    """Score a run: `results` are its `engine.CaseResult`s, `config` its
    `engine.EngineConfig` and `notes` its note tuples, which the report
    keeps."""
    scores: list[ArgScore] = []
    decisions: dict[str, bool | None] = {}
    truth_correct: dict[str, int] = {}
    binary_scores, numerical_scores = [], []
    for result in results:
        case, predicted = result.case, result.predicted
        case_scores = score_arguments(case.expected, predicted, case.id, config.truth_threshold)
        scores.extend(case_scores)
        truth = predicted.get(TRUTH_KEY)
        truth = None if truth is None else float(truth)
        decisions[case.id] = None if truth is None else truth >= config.truth_threshold
        gold = float(case.expected.get(TRUTH_KEY, 1.0))
        truth_correct[case.id] = binary_accuracy(gold, truth, config.truth_threshold)
        if case.kind == "binary":
            binary_scores.append(truth_correct[case.id])
        else:
            numerical_scores.append(min((s.score for s in case_scores if s.family == "dollar"), default=1))

    def family(name: str) -> FamilyScore:
        return _mean([s.score for s in scores if s.family == name])

    return InstantiationReport(
        truth=family("truth"),
        dollar=family("dollar"),
        string=family("string"),
        unified=_mean([s.score for s in scores]),
        binary_cases=_mean(binary_scores),
        numerical_cases=_mean(numerical_scores),
        pairs=pair_consistency([r.case for r in results], decisions, truth_correct),
        arg_scores=tuple(scores),
        errors=tuple(f"{r.case.id}: {r.error}" for r in results if r.error),
        note_records=tuple(notes),
    )
