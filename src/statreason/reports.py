"""Report assembly: score each report's units and render text tables. The
exact-match table itself is `metrics.exact_match`.

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
    Aggregate,
    ArgScore,
    binary_accuracy,
    confidence_interval,
    exact_match,
    pair_consistency,
    score_arguments,
)
from .model import TRUTH_KEY, Frozen


def _prf_table(title: str, scores: Aggregate) -> list[str]:
    """The avg +- stddev and macro columns of precision, recall and F1."""
    lines = [
        f"  subsections scored: {scores.units}",
        f"  {title:<23}avg +- stddev        macro",
    ]
    for label, avg, std, macro in zip(
        ("precision", "recall", "F1"), scores.avg.as_tuple(), scores.std.as_tuple(), scores.macro.as_tuple()
    ):
        lines.append(f"    {label:<17}{100 * avg:6.1f} +- {100 * std:4.1f}       {100 * macro:6.1f}")
    return lines


def _perfect_line(scores: Aggregate) -> str:
    share = 100 * scores.perfectly_resolved
    return f"  perfectly resolved subsections: {share:.1f}% (of {scores.units} with arguments)"


def _clusters(clusters) -> set[frozenset]:
    return {frozenset(c) for c in clusters}


# ---------------------------------------------------------------------------
# Coreference evaluation


class CorefReport(Frozen):
    """Exact-match scores, and the standard metrics' P/R/F1 by name."""

    __slots__ = ("baseline", "exact_match", "standard")

    @property
    def perfectly_resolved(self) -> float:
        return self.exact_match.perfectly_resolved

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
            *_prf_table("exact match", self.exact_match),
            _perfect_line(self.exact_match),
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
    from . import coref_metrics

    units = []
    gold_universe, pred_universe = [], []
    for sid, layer in corpus.layers.items():
        pred = predictions.get(sid, ())
        mention = lambda i: (sid, layer.spans[i].start, layer.spans[i].end)
        gold_universe.extend(frozenset(mention(i) for i in c) for c in layer.clusters)
        pred_universe.extend(frozenset(mention(i) for i in c) for c in pred)
        if layer.clusters:
            units.append((_clusters(layer.clusters), _clusters(pred)))
    standard_scores = {}
    if standard:
        for name, fn in coref_metrics.COREF_METRICS.items():
            standard_scores[name] = fn(gold_universe, pred_universe)
    return CorefReport(baseline, exact_match(units), standard_scores)


# ---------------------------------------------------------------------------
# Argument identification evaluation


class ArgIdReport(Frozen):
    __slots__ = ("source", "scores")

    def flat(self) -> dict[str, float]:
        return {
            "span_f1_avg": self.scores.avg.f1,
            "span_f1_macro": self.scores.macro.f1,
        }

    def render(self) -> str:
        return "\n".join([f"argument identification [{self.source}]", *_prf_table("", self.scores)])


def argid_report(corpus: Corpus, predictions: dict[str, tuple], source: str) -> ArgIdReport:
    """Score predicted spans against gold spans, by exact boundaries."""
    units = ((set(layer.spans), set(predictions.get(sid, ()))) for sid, layer in corpus.layers.items())
    return ArgIdReport(source, exact_match(units))


# ---------------------------------------------------------------------------
# Cascade (predicted spans, then coreference on them)


class CascadeReport(Frozen):
    __slots__ = ("source", "exact_match")

    @property
    def perfectly_resolved(self) -> float:
        return self.exact_match.perfectly_resolved

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
                *_prf_table("exact match", self.exact_match),
                _perfect_line(self.exact_match),
            ]
        )


def cascade_report(
    corpus: Corpus, clusters_by_sid: dict[str, tuple[tuple, ...]], source: str
) -> CascadeReport:
    """Score predicted clusters given as groups of (start, end) pairs against
    gold clusters compared as span sets."""
    units = []
    for sid, layer in corpus.layers.items():
        if layer.clusters:
            gold = (((layer.spans[i].start, layer.spans[i].end) for i in c) for c in layer.clusters)
            pred = ((tuple(s) for s in c) for c in clusters_by_sid.get(sid, ()))
            units.append((_clusters(gold), _clusters(pred)))
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
