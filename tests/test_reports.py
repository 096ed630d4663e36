import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from generators import MODEL_VALUES, MONEY_VALUES, TRUTH_VALUES
from statreason.baselines import (
    ConstantResolver,
    OracleResolver,
    fit_constant_baseline,
    single_mention_coref,
    string_match_coref,
)
from statreason.cli import check_floors, report_records
from statreason.engine import CaseResult, EngineConfig, run_cases
from statreason.model import TRUTH_KEY, Case, Money, Span, ValueMap
from statreason.reports import (
    argid_report,
    cascade_report,
    coref_report,
    instantiation_report,
)


def string_predictions(corpus):
    return {
        sid: string_match_coref(layer.spans, corpus.subsections[sid].text)
        for sid, layer in corpus.layers.items()
    }


def single_predictions(corpus):
    return {sid: single_mention_coref(layer) for sid, layer in corpus.layers.items()}


class TestCorefReport:
    def test_gold_predictions_are_perfect(self, corpus):
        report = coref_report(corpus, {sid: l.clusters for sid, l in corpus.layers.items()}, "gold")
        assert report.scores.macro.as_tuple() == (1.0, 1.0, 1.0)
        assert report.scores.perfectly_resolved == 1.0
        for value in report.standard.values():
            assert value.as_tuple() == (1.0, 1.0, 1.0)

    def test_string_matching_fixture_numbers(self, corpus):
        report = coref_report(corpus, string_predictions(corpus), "string")
        # 11 subsections have arguments; all but two resolve exactly.
        assert report.scores.units == 11
        assert report.scores.perfectly_resolved == pytest.approx(9 / 11)
        assert report.scores.macro.precision == pytest.approx(37 / 40)
        assert report.scores.macro.recall == pytest.approx(37 / 40)
        assert report.scores.avg.f1 == pytest.approx((9 + 0.8 + 0.8) / 11)
        assert report.standard["muc"].precision == pytest.approx(7 / 8)
        assert report.standard["muc"].recall == pytest.approx(7 / 8)
        assert report.standard["ceaf_m"].precision == pytest.approx(46 / 48)

    def test_single_mention_fixture_numbers(self, corpus):
        report = coref_report(corpus, single_predictions(corpus), "single")
        assert report.scores.perfectly_resolved == pytest.approx(6 / 11)
        assert report.standard["muc"].as_tuple() == (0.0, 0.0, 0.0)
        # 34 singleton arguments of 40 align one mention each; 48 mentions total.
        assert report.standard["ceaf_m"].precision == pytest.approx(40 / 48)
        assert report.standard["blanc"].recall == pytest.approx(0.5)

    def test_zero_argument_subsections_excluded(self, corpus):
        report = coref_report(corpus, string_predictions(corpus), "string")
        assert report.scores.units == 11  # §63(c)(5)(A) is vacuous


class TestArgIdReport:
    def test_gold_spans_are_perfect(self, corpus):
        gold = {sid: layer.spans for sid, layer in corpus.layers.items()}
        report = argid_report(corpus, gold, "import")
        assert report.scores.macro.as_tuple() == (1.0, 1.0, 1.0)
        assert report.scores.avg.f1 == 1.0

    def test_empty_predictions_zero_recall(self, corpus):
        report = argid_report(corpus, {}, "import")
        assert report.scores.macro.recall == 0.0

    def test_heuristic_regression_snapshot(self, corpus):
        # Frozen pooled counts for the lexical spotter on the fixture corpus:
        # 39 of its 60 spans hit the 48 gold boundaries exactly.
        from statreason.baselines import heuristic_argument_id

        predicted = {
            sid: tuple(heuristic_argument_id(corpus.subsections[sid].text))
            for sid in corpus.layers
        }
        report = argid_report(corpus, predicted, "heuristic")
        assert report.scores.macro.precision == pytest.approx(39 / 60)
        assert report.scores.macro.recall == pytest.approx(39 / 48)


class TestCascadeReport:
    def test_gold_spans_match_coref_report(self, corpus):
        # A perfect first stage reduces the cascade to plain string matching.
        predictions = string_predictions(corpus)
        coref = coref_report(corpus, predictions, "string")
        predicted = {sid: (layer.spans, predictions[sid]) for sid, layer in corpus.layers.items()}
        cascade = cascade_report(corpus, predicted, "gold-spans")
        assert cascade.scores.macro.as_tuple() == coref.scores.macro.as_tuple()
        assert cascade.scores.perfectly_resolved == coref.scores.perfectly_resolved

    def test_empty_spans_resolve_nothing(self, corpus):
        report = cascade_report(corpus, {}, "empty")
        assert report.scores.perfectly_resolved == 0.0
        assert report.scores.macro.recall == 0.0


class TestInstantiationReport:
    def test_constant_baseline_fixture_numbers(self, corpus):
        params = fit_constant_baseline(list(corpus.cases_of("train")))
        results, notes = run_cases(ConstantResolver(params), corpus, "test")
        report = instantiation_report(results, EngineConfig(), notes)
        assert report.truth.accuracy == pytest.approx(3 / 5)
        assert report.dollar == report.dollar.__class__(0.0, 1)
        assert report.string.n == 0
        assert report.unified.accuracy == pytest.approx(3 / 6)
        assert report.binary_cases.accuracy == pytest.approx(2 / 4)
        assert report.numerical_cases.accuracy == 0.0
        assert (report.pairs.identical, report.pairs.fully_correct, report.pairs.split) == (2, 0, 0)

    def test_oracle_pairs_fully_correct(self, corpus):
        results, notes = run_cases(OracleResolver(), corpus, "all")
        report = instantiation_report(results, EngineConfig(), notes)
        assert report.pairs.identical == 0
        assert report.pairs.fully_correct == 3
        assert report.pairs.unpaired == ("tax-case-4", "tax-case-5")

    def test_render_mentions_every_family(self, corpus):
        results, notes = run_cases(OracleResolver(), corpus, "test")
        report = instantiation_report(results, EngineConfig(), notes)
        text = report.render()
        for label in ("@truth", "dollar amount", "string", "unified", "binary", "numerical"):
            assert label in text


@st.composite
def partitions(draw, members):
    """A random partition of `members`, in random cluster order."""
    members = list(members)
    labels = draw(st.lists(st.integers(0, len(members)), min_size=len(members), max_size=len(members)))
    groups: dict[int, list] = {}
    for member, label in zip(members, labels):
        groups.setdefault(label, []).append(member)
    return tuple(draw(st.permutations([tuple(c) for c in groups.values()])))


@st.composite
def predicted_spans(draw, layer, text):
    """Some gold spans, some random ones (possibly out of the text), with
    repeats, in random order."""
    gold = draw(st.lists(st.sampled_from(layer.spans))) if layer.spans else []
    other = draw(
        st.lists(st.builds(lambda a, n: Span(a, a + n), st.integers(0, len(text) + 5), st.integers(1, 12)))
    )
    return tuple(draw(st.permutations(gold + other)))


def assert_same_report(new, old):
    assert new.render() == old.render()
    assert new.flat() == old.flat()


class TestAgainstOracles:
    """The shared exact-match scorer and table renderer give the reports of
    the per-report loops they replaced, on random predictions over the
    fixture corpus."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_coref(self, corpus, data):
        whole = data.draw(st.booleans())
        predictions = {}
        for sid, layer in corpus.layers.items():
            if whole:
                members = range(len(layer.spans))
            elif data.draw(st.booleans()):
                continue
            else:
                members = [i for i in range(len(layer.spans)) if data.draw(st.booleans())]
            predictions[sid] = data.draw(st.one_of(st.just(layer.clusters), partitions(members)))
        covered = all(
            sorted(i for c in predictions.get(sid, ()) for i in c) == list(range(len(layer.spans)))
            for sid, layer in corpus.layers.items()
        )
        if covered:
            assert_same_report(
                coref_report(corpus, predictions, "random"), oracles.coref_report(corpus, predictions, "random")
            )
        else:
            # The standard metrics pool one mention universe, so a prediction
            # that leaves gold mentions out is refused.
            for report in (coref_report, oracles.coref_report):
                with pytest.raises(ValueError, match="cover different mentions"):
                    report(corpus, predictions, "random")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_argid(self, corpus, data):
        predictions = {
            sid: data.draw(predicted_spans(layer, corpus.subsections[sid].text))
            for sid, layer in corpus.layers.items()
            if data.draw(st.integers(0, 5))
        }
        assert_same_report(
            argid_report(corpus, predictions, "random"), oracles.argid_report(corpus, predictions, "random")
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cascade(self, corpus, data):
        predicted = {}
        for sid, layer in corpus.layers.items():
            if not data.draw(st.integers(0, 5)):
                continue
            spans = data.draw(predicted_spans(layer, corpus.subsections[sid].text))
            indexed = partitions(range(len(spans))).map(lambda clusters: (spans, clusters))
            predicted[sid] = data.draw(st.one_of(st.just((layer.spans, layer.clusters)), indexed))
        # The oracle takes each cluster as its (start, end) pairs.
        clusters_by_sid = {
            sid: tuple(tuple((spans[i].start, spans[i].end) for i in c) for c in clusters)
            for sid, (spans, clusters) in predicted.items()
        }
        assert_same_report(
            cascade_report(corpus, predicted, "random"),
            oracles.cascade_report(corpus, clusters_by_sid, "random"),
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_instantiation(self, corpus, data):
        # The fixture's numerical cases expect one amount each; these expect
        # up to three, so a case scores the worst of its amounts.
        amounts = st.dictionaries(st.sampled_from(["A", "B", "C"]), MONEY_VALUES, min_size=1)
        extra = tuple(
            Case(f"amounts-{i}", "", "Tax", ValueMap(), ValueMap(expected))
            for i, expected in enumerate(data.draw(st.lists(amounts, max_size=4)))
        )
        results = []
        for case in corpus.cases + corpus.silver + extra:
            predicted = {}
            for name, gold in case.expected.items():
                if name == TRUTH_KEY:
                    choice = st.one_of(st.just(gold), TRUTH_VALUES)
                elif isinstance(gold, Money):
                    near = st.integers(-10_000, 10_000).map(lambda d, gold=gold: Money(gold.dollars + d))
                    choice = st.one_of(st.just(gold), near, MODEL_VALUES)
                else:
                    choice = st.one_of(st.just(gold), MODEL_VALUES)
                if data.draw(st.booleans()):
                    predicted[name] = data.draw(choice)
            error = data.draw(st.sampled_from([None, "resolver failed"]))
            results.append(CaseResult(case, ValueMap(predicted), error))
        config = EngineConfig(truth_threshold=data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
        new, old = instantiation_report(results, config), oracles.instantiation_report(results, config)
        assert new == old
        assert_same_report(new, old)


class TestFloors:
    def test_passing_floor(self):
        assert check_floors({"unified": 0.8}, {"unified": 0.5}) == []

    def test_failing_floor(self):
        failures = check_floors({"unified": 0.4}, {"unified": 0.5})
        assert failures and "unified" in failures[0]

    def test_unknown_metric(self):
        assert check_floors({}, {"nope": 0.1})

    def test_records_shape(self):
        text = report_records({"unified": 0.5}, '@run command="x"')
        lines = text.splitlines()
        assert lines[0].startswith("@run")
        assert lines[1] == "unified value=0.500000"
