"""Scoring: the exact-match table, the three accuracy families, pair analysis.

`exact_match` is the one definition of the table that the coreference,
argument-identification and cascade reports print.

Conventions that the formulas leave open are pinned here once: the binary
threshold is inclusive at 0.5, a missing prediction scores 0 in its family
and stays in the denominator, an empty prediction set against a non-empty
gold set has precision 0, and empty-vs-empty is perfect.
"""

from __future__ import annotations

import datetime
import math
import re
import statistics as stats
from fractions import Fraction

from .model import Frozen, Money, TRUTH_KEY, Value, value_kind


class PRF(Frozen):
    __slots__ = ("precision", "recall", "f1")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.precision, self.recall, self.f1)


def prf(matched_p: float, total_pred: float, matched_r: float, total_gold: float) -> PRF:
    if total_pred == 0 and total_gold == 0:
        return PRF(1.0, 1.0, 1.0)
    p = matched_p / total_pred if total_pred else 0.0
    r = matched_r / total_gold if total_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return PRF(p, r, f1)


class Aggregate(Frozen):
    """Exact-match scores over units: avg +- stddev of the per-unit P/R/F1,
    the pooled corpus-level value, the number of units, and the share of
    units that match exactly (0 when there are no units)."""

    __slots__ = ("avg", "std", "macro", "units", "perfectly_resolved")


def _avg_std(values: list[float]) -> tuple[float, float]:
    if not values:
        return (0.0, 0.0)
    return (stats.fmean(values), stats.pstdev(values))


def exact_match(units) -> Aggregate:
    """Exact-match scores over (gold set, predicted set) pairs, one pair per
    unit. An item counts only when the same item is in both sets: a span by
    its boundaries, a cluster as the set of its mentions."""
    per_unit: list[PRF] = []
    correct = pred_total = gold_total = perfect = 0
    for gold, pred in units:
        matched = len(gold & pred)
        per_unit.append(prf(matched, len(pred), matched, len(gold)))
        correct += matched
        pred_total += len(pred)
        gold_total += len(gold)
        perfect += gold == pred
    p_avg, p_std = _avg_std([u.precision for u in per_unit])
    r_avg, r_std = _avg_std([u.recall for u in per_unit])
    f_avg, f_std = _avg_std([u.f1 for u in per_unit])
    pooled = prf(correct, pred_total, correct, gold_total)
    share = perfect / len(per_unit) if per_unit else 0.0
    return Aggregate(PRF(p_avg, r_avg, f_avg), PRF(p_std, r_std, f_std), pooled, len(per_unit), share)


# ---------------------------------------------------------------------------
# Accuracy families


def dollar_band(y) -> Fraction:
    """Half-width of the tolerance band around dollar target `y`: 10% of it, at least $5000."""
    return max(Fraction(abs(y)) / 10, Fraction(5000))


def numerical_accuracy(y, y_hat) -> int:
    """1 iff the relative error |y - y_hat| / max(0.1|y|, 5000) is strictly < 1.

    Exact, as the scale is `dollar_band(y)`, so the boundary y_hat = y +-
    scale scores 0 with no floating-point slack.
    """
    if y_hat is None:
        return 0
    y = y.dollars if isinstance(y, Money) else y
    y_hat = y_hat.dollars if isinstance(y_hat, Money) else y_hat
    return 1 if abs(y - y_hat) / dollar_band(y) < 1 else 0


def binary_accuracy(gold_truth: float, pred_truth: float | None, threshold: float = 0.5) -> int:
    """1 iff the thresholded prediction matches the gold label; absent scores 0."""
    if pred_truth is None:
        return 0
    return 1 if (pred_truth >= threshold) == (gold_truth == 1.0) else 0


_WS_RE = re.compile(r"\s+")
_MONTHS = {
    m: i + 1
    for i, m in enumerate(
        "january february march april may june july august september october november december".split()
    )
}
_DATEISH_RE = re.compile(
    r"([A-Za-z]{3,9})\.?\s+(\d{1,2})(?:st|nd|rd|th)?(?:\s*,\s*(\d{4}))?$"
)


def canonical_string(value: Value) -> str:
    """Stable comparison form: dates to ISO, whitespace collapsed."""
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, Money):
        return f"${value.dollars}"
    if isinstance(value, tuple):
        return "[" + ", ".join(sorted(canonical_string(v) for v in value)) + "]"
    text = _WS_RE.sub(" ", str(value)).strip()
    m = _DATEISH_RE.match(text)
    if m:
        month = _MONTHS.get(m.group(1).lower()) or _MONTHS.get(
            next((k for k in _MONTHS if k.startswith(m.group(1).lower()[:3])), "")
        )
        if month is not None:
            day = int(m.group(2))
            if m.group(3):
                return f"{int(m.group(3)):04d}-{month:02d}-{day:02d}"
            return f"{month:02d}-{day:02d}"
    return text


def string_accuracy(gold: Value, pred: Value | None) -> int:
    """Exact match after canonicalization; lists compare as multisets."""
    if pred is None:
        return 0
    if isinstance(gold, tuple) != isinstance(pred, tuple):
        return 0
    if isinstance(gold, tuple):
        gold_items = sorted(canonical_string(v) for v in gold)
        pred_items = sorted(canonical_string(v) for v in pred)
        return 1 if gold_items == pred_items else 0
    return 1 if canonical_string(gold) == canonical_string(pred) else 0


def family_of(name: str, gold_value: Value) -> str:
    if name == TRUTH_KEY:
        return "truth"
    if value_kind(gold_value) == "money":
        return "dollar"
    return "string"


class ArgScore(Frozen):
    __slots__ = ("case_id", "argument", "family", "score")


def score_arguments(
    expected, predicted, case_id: str = "", threshold: float = 0.5
) -> list[ArgScore]:
    """Score every gold argument of one case against the predictions."""
    out = []
    for name, gold in expected.items():
        pred = predicted.get(name)
        family = family_of(name, gold)
        if family == "truth":
            score = binary_accuracy(float(gold), None if pred is None else float(pred), threshold)
        elif family == "dollar":
            score = 0 if pred is None or value_kind(pred) not in ("money", "number") else numerical_accuracy(gold, pred)
        else:
            score = string_accuracy(gold, pred)
        out.append(ArgScore(case_id, name, family, score))
    return out


def confidence_interval(accuracy: float, n: int) -> float:
    """Half-width of the normal-approximation 90% binomial interval."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1.645 * math.sqrt(accuracy * (1.0 - accuracy) / n)


# ---------------------------------------------------------------------------
# Positive/negative pair analysis


class PairReport(Frozen):
    """Pair counts by outcome, and the sorted ids of unpaired cases."""

    __slots__ = ("identical", "fully_correct", "split", "unpaired")


def pair_consistency(
    cases, decisions: dict[str, bool | None], correctness: dict[str, int]
) -> PairReport:
    """Group positive/negative case pairs and compare their answers.

    `decisions` holds each case's thresholded truth answer (None counts as
    False), `correctness` its binary score. Pairs answered identically get
    exactly one side right; pairs answered differently are either fully
    correct or split (both wrong).
    """
    groups: dict[str, list] = {}
    unpaired = []
    for case in cases:
        if case.pair_id is None:
            unpaired.append(case.id)
        else:
            groups.setdefault(case.pair_id, []).append(case)
    identical = fully = split = 0
    for pair_id in sorted(groups):
        members = groups[pair_id]
        if len(members) != 2:
            unpaired.extend(c.id for c in members)
            continue
        a, b = members
        if bool(decisions.get(a.id)) == bool(decisions.get(b.id)):
            identical += 1
        elif correctness.get(a.id, 0) and correctness.get(b.id, 0):
            fully += 1
        else:
            split += 1
    return PairReport(identical, fully, split, tuple(sorted(unpaired)))
