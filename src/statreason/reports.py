"""Report assembly: score each report's units and render text tables. The
exact-match table is `metrics.exact_match`; `coref_report`, `argid_report`
and `cascade_report` each return one `ExactMatchReport`, which holds its
title, heading, record names and scores, and which renders the standard
metrics only where it has them (coreference). The instantiation report's
families are listed once, in `_FAMILIES`, for its records and its text.

Coreference numbers are aggregated two ways, as an average with population
standard deviation across subsections that have at least one argument, and
as a pooled corpus-level count ("macro"); zero-argument subsections are
vacuous and excluded from both. The coreference and cascade reports key a
mention by (subsection, start, end) in one builder, `_cluster_units`, and
the standard metrics treat the whole corpus as one mention universe.
`instantiation_report` scores what `engine.run_cases` returns; this module
imports nothing from the engine, and `engine.note_text` renders the notes.
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

# ---------------------------------------------------------------------------
# Exact-match reports: coreference, argument identification and the cascade
# (predicted spans, then coreference on them)


class ExactMatchReport(Frozen):
    """The exact-match `Aggregate` `scores` of `source`'s predictions: its
    records are keyed by `prefix`, its text is titled `title` with `heading`
    over the table, and a report that names a `perfect` record prints the
    perfectly resolved share too. `standard` holds the standard metrics'
    P/R/F1 by name, which only the coreference report has."""

    __slots__ = ("title", "heading", "prefix", "perfect", "source", "scores", "standard")

    def flat(self) -> dict[str, float]:
        out = {f"{self.prefix}_f1_avg": self.scores.avg.f1, f"{self.prefix}_f1_macro": self.scores.macro.f1}
        if self.perfect:
            out[self.perfect] = self.scores.perfectly_resolved
        return out | {f"{name}_f1": value.f1 for name, value in self.standard.items()}

    def render(self) -> str:
        scores = self.scores
        lines = [
            f"{self.title} [{self.source}]",
            f"  subsections scored: {scores.units}",
            f"  {self.heading:<23}avg +- stddev        macro",
        ]
        for label, avg, std, macro in zip(
            ("precision", "recall", "F1"), scores.avg.as_tuple(), scores.std.as_tuple(), scores.macro.as_tuple()
        ):
            lines.append(f"    {label:<17}{100 * avg:6.1f} +- {100 * std:4.1f}       {100 * macro:6.1f}")
        if self.perfect:
            share = 100 * scores.perfectly_resolved
            lines.append(f"  perfectly resolved subsections: {share:.1f}% (of {scores.units} with arguments)")
        if self.standard:
            lines += [
                "  (macro pools cluster counts over subsections with arguments;"
                " the equal-weight alternative is the avg column)",
                "  standard metrics (P / R / F1, pooled mention universe)",
            ]
        for name, value in self.standard.items():
            lines.append(
                f"    {name:<8} {100 * value.precision:5.1f} / {100 * value.recall:5.1f} / {100 * value.f1:5.1f}"
            )
        return "\n".join(lines)


def _cluster_units(corpus: Corpus, predicted: dict[str, tuple[tuple, tuple[tuple[int, ...], ...]]]):
    """Each layer's (gold, predicted) clusters, as lists in cluster order of
    frozensets of mentions keyed (subsection, start, end); `predicted` maps
    a subsection to its (spans, clusters of span indices)."""
    for sid, layer in corpus.layers.items():
        keyed = lambda spans, clusters: [frozenset((sid, spans[i].start, spans[i].end) for i in c) for c in clusters]
        yield keyed(layer.spans, layer.clusters), keyed(*predicted.get(sid, ((), ())))


def coref_report(
    corpus: Corpus, predictions: dict[str, tuple[tuple[int, ...], ...]], baseline: str
) -> ExactMatchReport:
    """Score predicted index partitions (one per subsection) against gold,
    which must cover the same mentions: the standard metrics pool them."""
    from . import coref_metrics

    predicted = {sid: (layer.spans, predictions.get(sid, ())) for sid, layer in corpus.layers.items()}
    units, gold_universe, pred_universe = [], [], []
    for gold, pred in _cluster_units(corpus, predicted):
        gold_universe += gold
        pred_universe += pred
        if gold:
            units.append((set(gold), set(pred)))
    standard = {name: fn(gold_universe, pred_universe) for name, fn in coref_metrics.COREF_METRICS.items()}
    return ExactMatchReport(
        "argument coreference", "exact match", "exact_match", "perfectly_resolved", baseline, exact_match(units),
        standard,
    )


def argid_report(corpus: Corpus, predictions: dict[str, tuple], source: str) -> ExactMatchReport:
    """Score predicted spans against gold spans, by exact boundaries."""
    units = ((set(layer.spans), set(predictions.get(sid, ()))) for sid, layer in corpus.layers.items())
    return ExactMatchReport("argument identification", "", "span", None, source, exact_match(units), {})


def cascade_report(
    corpus: Corpus, predicted: dict[str, tuple[tuple, tuple[tuple[int, ...], ...]]], source: str
) -> ExactMatchReport:
    """Score each subsection's predicted (spans, clusters of span indices)
    against its gold clusters, with mentions compared by their spans."""
    units = ((set(gold), set(pred)) for gold, pred in _cluster_units(corpus, predicted) if gold)
    return ExactMatchReport(
        "identification + coreference cascade", "exact match", "cascade", "cascade_perfectly_resolved", source,
        exact_match(units), {},
    )


# ---------------------------------------------------------------------------
# Argument instantiation evaluation


class FamilyScore(Frozen):
    __slots__ = ("accuracy", "n")

    @property
    def ci(self) -> float:
        return confidence_interval(self.accuracy, self.n) if self.n else 0.0


def _mean(scores: list[int]) -> FamilyScore:
    return FamilyScore(sum(scores) / len(scores), len(scores)) if scores else FamilyScore(0.0, 0)


# The instantiation report's families in report order: (field, record name,
# row label); the case-level accuracies are the last two.
_FAMILIES = (
    ("truth", "truth", "@truth"),
    ("dollar", "dollar", "dollar amount"),
    ("string", "string", "string"),
    ("unified", "unified", "unified"),
    ("binary_cases", "binary", "binary"),
    ("numerical_cases", "numerical", "numerical"),
)


class InstantiationReport(Frozen):
    __slots__ = (
        "truth", "dollar", "string", "unified", "binary_cases", "numerical_cases", "pairs", "arg_scores", "errors",
        "note_records",
    )

    def flat(self) -> dict[str, float]:
        return {name: getattr(self, field).accuracy for field, name, _ in _FAMILIES}

    def render(self) -> str:
        rows = []
        for field, _, label in _FAMILIES:
            score = getattr(self, field)
            rows.append(f"    {label:<14} {100 * score.accuracy:6.1f} +- {100 * score.ci:4.1f}   (n={score.n})")
        lines = [
            "argument instantiation (accuracy %, 90% confidence half-width)",
            *rows[:4],
            "  case-level accuracies",
            *rows[4:],
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
