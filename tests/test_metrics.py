import datetime
import random
from fractions import Fraction

import pytest

from statreason.metrics import (
    PRF,
    ArgScore,
    binary_accuracy,
    canonical_string,
    confidence_interval,
    exact_match,
    numerical_accuracy,
    pair_consistency,
    string_accuracy,
)
from statreason.engine import CaseResult, EngineConfig
from statreason.model import TRUTH_KEY, Case, Money, Span, ValueMap
from statreason.reports import FamilyScore, instantiation_report


def span_scores(gold, pred):
    """Exact-boundary scores of one subsection's spans."""
    scores = exact_match([(set(gold), set(pred))])
    assert scores.units == 1 and scores.avg == scores.macro
    return scores.macro


def cluster_scores(gold, pred):
    """Exact-match scores of one subsection's clusters, compared as sets."""
    return span_scores({frozenset(c) for c in gold}, {frozenset(c) for c in pred})


class TestSpanPRF:
    def test_identical(self):
        spans = (Span(0, 2), Span(5, 9))
        assert span_scores(spans, spans).as_tuple() == (1.0, 1.0, 1.0)

    def test_spurious_predictions(self):
        gold = (Span(0, 2), Span(5, 9))
        pred = gold + (Span(10, 12), Span(14, 16))
        result = span_scores(gold, pred)
        assert result.precision == 0.5
        assert result.recall == 1.0
        assert result.f1 == pytest.approx(2 / 3)

    def test_empty_prediction_against_gold(self):
        result = span_scores((Span(0, 2), Span(5, 9)), ())
        assert result.as_tuple() == (0.0, 0.0, 0.0)

    def test_both_empty_is_perfect(self):
        assert span_scores((), ()).as_tuple() == (1.0, 1.0, 1.0)


class TestExactMatchCoref:
    def test_singletons_against_one_linked_pair(self):
        # Seven gold arguments, one with two mentions, over eight spans.
        gold = [(0, 3), (1,), (2,), (4,), (5,), (6,), (7,)]
        pred = [(i,) for i in range(8)]
        result = cluster_scores(gold, pred)
        assert result.precision == pytest.approx(6 / 8)
        assert result.recall == pytest.approx(6 / 7)

    def test_identical(self):
        gold = [(0, 1), (2,)]
        assert cluster_scores(gold, gold).as_tuple() == (1.0, 1.0, 1.0)


class TestExactMatch:
    def test_two_units_averaged_and_pooled(self):
        # One unit predicted exactly, one with 1 of 3 predictions right.
        scores = exact_match([({1, 2}, {1, 2}), ({3}, {3, 4, 5})])
        assert scores.units == 2 and scores.perfectly_resolved == 0.5
        assert scores.avg.precision == pytest.approx((1 + 1 / 3) / 2)
        assert scores.std.precision == pytest.approx((1 - 1 / 3) / 2)
        assert scores.avg.recall == 1.0 and scores.std.recall == 0.0
        assert scores.macro.precision == pytest.approx(3 / 5)
        assert scores.macro.recall == 1.0

    def test_no_units(self):
        scores = exact_match([])
        assert scores.units == 0 and scores.perfectly_resolved == 0.0
        assert scores.avg.as_tuple() == scores.std.as_tuple() == (0.0, 0.0, 0.0)
        assert scores.macro.as_tuple() == (1.0, 1.0, 1.0)


class TestNumericalAccuracy:
    def test_exact(self):
        assert numerical_accuracy(Money(116066), Money(116066)) == 1

    def test_just_inside_band(self):
        assert numerical_accuracy(100000, 109999) == 1

    def test_outside_band(self):
        assert numerical_accuracy(1000, 6001) == 0

    def test_boundary_is_strict(self):
        assert numerical_accuracy(100, 5100) == 0
        assert numerical_accuracy(100000, 110000) == 0
        assert numerical_accuracy(Fraction(116066), 116066 + Fraction(116066, 10)) == 0

    def test_missing_prediction(self):
        assert numerical_accuracy(Money(100), None) == 0

    def test_scale_uses_magnitude(self):
        assert numerical_accuracy(-100000, -109999) == 1
        assert numerical_accuracy(-100000, -110000) == 0


class TestBinaryAccuracy:
    def test_above_threshold(self):
        assert binary_accuracy(1.0, 0.8) == 1

    def test_threshold_is_inclusive(self):
        assert binary_accuracy(0.0, 0.5) == 0
        assert binary_accuracy(1.0, 0.5) == 1

    def test_missing(self):
        assert binary_accuracy(1.0, None) == 0


class TestStringAccuracy:
    def test_exact(self):
        assert string_accuracy("Bob", "Bob") == 1
        assert string_accuracy("Bob", "Alice") == 0

    def test_lists_compare_as_multisets(self):
        gold = ("Jan 24", "Feb 4", "Mar 3")
        assert string_accuracy(gold, ("Mar 3", "Jan 24", "Feb 4")) == 1
        assert string_accuracy(gold, ("Mar 3", "Jan 24")) == 0

    def test_dates_canonicalized(self):
        assert canonical_string("Feb 3rd, 2017") == "2017-02-03"
        assert canonical_string("February 3, 2017") == "2017-02-03"
        assert string_accuracy("Feb 3rd, 2017", datetime.date(2017, 2, 3)) == 1
        assert string_accuracy("Jan 24", "January 24") == 1

    def test_whitespace_collapsed(self):
        assert string_accuracy("has  employed", "has employed") == 1


def scores(*triples):
    return [ArgScore("c", "a", family, score) for family, score in triples]


# Per family, an argument name, its gold value and a wrong prediction.
ARGUMENTS = {"truth": (TRUTH_KEY, 1.0, 0.0), "dollar": ("a", Money(100), Money(9000)), "string": ("a", "Bob", "Alice")}


def unified(items):
    """The report's unified accuracy over one case per score, each expecting
    one argument of the score's family, predicted right when it scores 1. A
    string argument's case is binary, so it also expects @truth, predicted
    right."""
    results = []
    for i, item in enumerate(items):
        name, gold, wrong = ARGUMENTS[item.family]
        expected, predicted = {name: gold}, {name: gold if item.score else wrong}
        if item.family == "string":
            expected[TRUTH_KEY] = predicted[TRUTH_KEY] = 1.0
        case = Case(f"c{i}", "", "§x", ValueMap(), ValueMap(expected), "test")
        results.append(CaseResult(case, ValueMap(predicted), None))
    return instantiation_report(results, EngineConfig()).families["unified"]


class TestUnifiedAccuracy:
    def test_weighted_average(self):
        items = scores(*[("truth", 1)] * 6, *[("truth", 0)] * 4,
                       ("dollar", 1), *[("dollar", 0)] * 4,
                       *[("string", 0)] * 5)
        # 6 of 10 truth, 1 of 5 dollar and 0 of 5 string scores, and the
        # string cases' 5 right truth scores.
        assert unified(items) == FamilyScore(pytest.approx(12 / 25), 25)

    def test_single_family(self):
        items = scores(("dollar", 1), ("dollar", 0))
        assert unified(items) == FamilyScore(0.5, 2)

    def test_empty_scores_nothing(self):
        assert unified([]) == FamilyScore(0.0, 0)

    def test_order_invariant(self):
        rng = random.Random(3)
        items = scores(*[(rng.choice(["truth", "dollar", "string"]), rng.randrange(2))
                         for _ in range(50)])
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert unified(items) == unified(shuffled)


class TestPRF:
    def test_fields_are_set_by_position_or_name_and_all_of_them(self):
        assert PRF(0.5, 0.25, f1=0.3) == PRF(precision=0.5, recall=0.25, f1=0.3)
        for args, named in (((0.5,), {}), ((0.5, 0.25, 0.3, 0.1), {}), ((0.5, 0.25), {"f1": 0.3, "other": 1})):
            with pytest.raises(TypeError, match=r"^PRF takes the fields precision, recall, f1$"):
                PRF(*args, **named)


class TestConfidenceInterval:
    def test_half_at_hundred(self):
        assert 100 * confidence_interval(0.5, 100) == pytest.approx(8.2, abs=0.05)

    def test_degenerate(self):
        assert confidence_interval(0.0, 50) == 0.0
        assert confidence_interval(1.0, 50) == 0.0

    def test_matches_reported_interval(self):
        assert 100 * confidence_interval(0.583, 120) == pytest.approx(7.4, abs=0.1)

    def test_no_cases_refused(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            confidence_interval(0.0, 0)


def binary_case(cid, gold):
    return Case(cid, "d", "§1", ValueMap(), ValueMap({"@truth": gold}))


class TestPairConsistency:
    def test_mixed_fixture(self):
        cases = [
            binary_case("a-positive", 1.0), binary_case("a-negative", 0.0),  # both right
            binary_case("b-positive", 1.0), binary_case("b-negative", 0.0),  # identical answers
            binary_case("c-positive", 1.0), binary_case("c-negative", 0.0),  # both wrong
            binary_case("tax-case", 1.0),  # unpaired
        ]
        decisions = {"a-positive": True, "a-negative": False,
                     "b-positive": True, "b-negative": True,
                     "c-positive": False, "c-negative": True,
                     "tax-case": True}
        correct = {"a-positive": 1, "a-negative": 1,
                   "b-positive": 1, "b-negative": 0,
                   "c-positive": 0, "c-negative": 0,
                   "tax-case": 1}
        report = pair_consistency(cases, decisions, correct)
        assert (report.identical, report.fully_correct, report.split) == (1, 1, 1)
        assert report.unpaired == ("tax-case",)

    def test_constant_predictor_answers_identically(self):
        cases = [binary_case(f"p{i}-positive", 1.0) for i in range(3)]
        cases += [binary_case(f"p{i}-negative", 0.0) for i in range(3)]
        decisions = {c.id: True for c in cases}
        correct = {c.id: 1 if c.expected["@truth"] == 1.0 else 0 for c in cases}
        report = pair_consistency(cases, decisions, correct)
        assert report.identical == 3 and report.fully_correct == 0 and report.split == 0

    def test_oracle_fully_correct(self):
        cases = [binary_case("x-positive", 1.0), binary_case("x-negative", 0.0)]
        decisions = {"x-positive": True, "x-negative": False}
        correct = {"x-positive": 1, "x-negative": 1}
        report = pair_consistency(cases, decisions, correct)
        assert report.identical == 0 and report.fully_correct == 1
