import math
import random
import re
import zlib
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from statreason import engine
from statreason.baselines import (
    ConstantBaselineParams,
    ConstantResolver,
    HeuristicResolver,
    OracleResolver,
    fit_constant_baseline,
)
from statreason.cli import main
from statreason.engine import (
    EngineConfig,
    EngineError,
    RunContext,
    SubsectionPlan,
    do_operation,
    instantiate_full,
    note_text,
    run_cases,
)
from statreason.model import ArgumentLayer, Case, Money, Span, TRUTH_KEY, ValueMap
from statreason.reports import instantiation_report
from statreason.rules import OpNode, Rule, SubsectionNode, parse_program, unroll

from generators import (
    EXPLICIT_CORPORA,
    MODEL_VALUES,
    SUBCLASSED_VALUES,
    corpus_of,
    random_nested_program,
    random_value_map,
    texts_with_layers,
)
from test_corpus import each_written


def make_layer(text, mentions):
    """mentions: list of (name, phrase) pairs; each phrase occurs once."""
    located = []
    for name, phrase in mentions:
        start = text.find(phrase)
        assert start >= 0, phrase
        located.append((Span(start, start + len(phrase)), name))
    located.sort(key=lambda x: x[0].start)
    spans = tuple(s for s, _ in located)
    names, clusters = [], []
    for i, (_, name) in enumerate(located):
        if name in names:
            clusters[names.index(name)] += (i,)
        else:
            names.append(name)
            clusters.append((i,))
    return ArgumentLayer("§x", spans, tuple(clusters), tuple(names))


SURVIVOR_TEXT = (
    "(A) a taxpayer spouse died during either of the two years immediately"
    " preceding the taxable year"
)


class TestInsertValues:
    def test_grounds_the_surviving_spouse_clause(self):
        layer = make_layer(
            SURVIVOR_TEXT, [("taxpayer", "a taxpayer"), ("taxable year", "the taxable year")]
        )
        grounded = SubsectionPlan(layer, SURVIVOR_TEXT, 0.5).ground(
            ValueMap({"taxpayer": "Alice", "taxable year": "2017"})
        )
        assert grounded == (
            "(A) Alice spouse died during either of the two years immediately preceding 2017"
        )

    def test_empty_map_leaves_text_unchanged(self):
        layer = make_layer(SURVIVOR_TEXT, [("taxpayer", "a taxpayer")])
        assert SubsectionPlan(layer, SURVIVOR_TEXT, 0.5).ground(ValueMap()) == SURVIVOR_TEXT

    def test_all_mentions_of_a_coreferent_argument_replaced(self):
        text = "the employee works when the employee is told"
        layer = ArgumentLayer(
            "§x", (Span(0, 12), Span(24, 36)), ((0, 1),), ("Employee",)
        )
        grounded = SubsectionPlan(layer, text, 0.5).ground(ValueMap({"Employee": "Bob"}))
        assert grounded == "Bob works when Bob is told"

    def test_text_outside_spans_untouched_and_idempotent(self):
        rng = random.Random(5)
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        for _ in range(50):
            text = " ".join(rng.choice(words) for _ in range(12))
            # pick two non-overlapping word spans
            i = text.index(" ", 10)
            j = text.rindex(" ")
            if i >= j - 1:
                continue
            layer = ArgumentLayer("§x", (Span(0, i), Span(j + 1, len(text))), ((0,), (1,)),
                                  ("A", "B"))
            values = ValueMap({"A": "X", "B": "Y"})
            once = SubsectionPlan(layer, text, 0.5).ground(values)
            assert once == "X" + text[i:j + 1] + "Y"
            again_layer = ArgumentLayer("§x", (Span(0, 1), Span(len(once) - 1, len(once))),
                                        ((0,), (1,)), ("A", "B"))
            assert SubsectionPlan(again_layer, once, 0.5).ground(values) == once

    def test_truth_valued_argument_reads_by_threshold(self):
        layer = ArgumentLayer("§x", (Span(0, 9),), ((0,),), ("Claim",))
        values = ValueMap({"Claim": 0.6})
        assert SubsectionPlan(layer, "the claim holds", 0.5).ground(values) == "true holds"
        assert SubsectionPlan(layer, "the claim holds", 0.7).ground(values) == "false holds"

    def test_values_kept_when_spans_run_past_the_text(self):
        # A subsection without text is grounded over "": every value stays.
        layer = ArgumentLayer("§x", (Span(0, 3), Span(5, 8)), ((0,), (1,)), ("A", "B"))
        assert SubsectionPlan(layer, "", 0.5).ground(ValueMap({"A": "aa", "B": "bb"})) == "aabb"

    @given(st.data())
    def test_equals_the_right_to_left_splice(self, data):
        threshold = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        text, layer = data.draw(texts_with_layers())
        # Truth values on both sides of the threshold, and on it.
        near = st.sampled_from([threshold, math.nextafter(threshold, 0.0), math.nextafter(threshold, 1.0)])
        names = [n for n in layer.cluster_names if n is not None] + ["Unmentioned"]
        values = data.draw(st.dictionaries(st.sampled_from(names), st.one_of(MODEL_VALUES, near)))
        assert SubsectionPlan(layer, text, threshold).ground(values) == oracles.insert_values(
            text, layer, values, threshold
        )


def oracle_case(cid, query, inputs, expected):
    return Case(cid, "description", query, ValueMap(inputs), ValueMap(expected), "test")


def one_rule_context(layer, text, case, config=EngineConfig()):
    """A run of the case's query subsection alone, on a one-rule program."""
    program = {case.query: Rule(case.query, ())}
    return RunContext(corpus_of(program, {case.query: layer}, {case.query: text}), config)


def instantiate_one(resolver, layer, text, case, config=EngineConfig()):
    """The case's query subsection alone: `instantiate_full` in a `one_rule_context`."""
    return instantiate_full(resolver, case, one_rule_context(layer, text, case, config))


class TestInstantiateSingle:
    def test_all_arguments_in_inputs_skips_the_loop(self):
        layer = make_layer(SURVIVOR_TEXT, [("Taxp", "a taxpayer"), ("Taxy", "the taxable year")])
        case = oracle_case("x", "§x", {"Taxp": "Alice", "Taxy": "2017"}, {"@truth": 1.0})
        calls = []

        class Spy:
            def resolve(self, request):
                calls.append(request.argument)
                return 1.0

        result = instantiate_one(Spy(), layer, SURVIVOR_TEXT, case)
        assert calls == [TRUTH_KEY]
        assert dict(result) == {"Taxp": "Alice", "Taxy": "2017", TRUTH_KEY: 1.0}

    def test_oracle_on_negative_case(self, corpus):
        case = next(c for c in corpus.cases if c.id == "63(c)(5)-negative")
        layer = corpus.layers[case.query]
        text = corpus.subsections[case.query].text
        result = instantiate_one(OracleResolver(), layer, text, case)
        assert result[TRUTH_KEY] == 0.0
        assert all(result[k] == v for k, v in case.inputs.items())

    def test_oracle_on_positive_case_predicts_gold(self, corpus):
        case = next(c for c in corpus.cases if c.id == "3306(a)(1)(B)-positive")
        layer = corpus.layers[case.query]
        text = corpus.subsections[case.query].text
        result = instantiate_one(OracleResolver(), layer, text, case)
        assert result["Employee"] == "Bob"
        assert result["Employment"] == "has employed"
        assert result[TRUTH_KEY] == 1.0

    def test_arguments_resolved_in_mention_order(self, corpus):
        case = next(c for c in corpus.cases if c.id == "3306(a)(1)(B)-positive")
        layer = corpus.layers[case.query]
        text = corpus.subsections[case.query].text
        seen = []

        class Spy:
            def resolve(self, request):
                seen.append(request.argument)
                return None

        instantiate_one(Spy(), layer, text, case)
        assert seen == ["Workday", "Preccaly", "S13A", "Employee", "Employment", "S16", TRUTH_KEY]

    def test_grounded_truth_values_read_by_the_threshold(self):
        layer = ArgumentLayer("§x", (Span(0, 9),), ((0,),), ("Claim",))
        case = oracle_case("x", "§x", {}, {"@truth": 1.0})
        texts = []

        class Spy:
            def resolve(self, request):
                if request.argument != TRUTH_KEY:
                    return 0.6
                texts.append(request.text)
                return 1.0

        for threshold in (0.5, 0.7):
            instantiate_one(Spy(), layer, "the claim holds", case, EngineConfig(truth_threshold=threshold))
        assert texts == ["true holds", "false holds"]

    def test_resolver_failure_names_argument(self, corpus):
        case = next(c for c in corpus.cases if c.id == "3306(a)(1)(B)-positive")
        layer = corpus.layers[case.query]

        class Boom:
            def resolve(self, request):
                raise RuntimeError("nope")

        with pytest.raises(EngineError) as exc:
            instantiate_one(Boom(), layer, "text", case)
        assert "Workday" in str(exc.value)

    def test_teacher_forcing_grounds_gold_values(self, corpus):
        case = next(c for c in corpus.cases if c.id == "3306(a)(1)(B)-positive")
        layer = corpus.layers[case.query]
        text = corpus.subsections[case.query].text
        grounded_seen = {}

        class Wrong:
            def resolve(self, request):
                if request.argument != TRUTH_KEY:
                    grounded_seen[request.argument] = request.text
                    return "WRONG"
                return 1.0

        config = EngineConfig(insert_gold=True)
        result = instantiate_one(Wrong(), layer, text, case, config)
        # Predictions stay the resolver's own, but later groundings carry gold.
        assert result["Employee"] == "WRONG"
        assert "has employed" in grounded_seen["S16"]  # gold Employment, not WRONG
        assert "WRONG" not in grounded_seen["S16"].split("Preccaly")[0][:40]


class PlainDict:
    """Answers `value` for every argument and `truth` for the truth
    request."""

    def __init__(self, value="Bob", truth=1.0):
        self.value, self.truth = value, truth

    def resolve(self, request):
        return self.truth if request.argument == TRUTH_KEY else self.value


class TestResolverBoundary:
    """Resolver answers are validated where they enter the engine."""

    @pytest.fixture
    def setting(self, corpus):
        case = next(c for c in corpus.cases if c.id == "3306(a)(1)(B)-positive")
        return corpus.layers[case.query], corpus.subsections[case.query].text, case

    @pytest.mark.parametrize(
        "resolver, message",
        [
            (PlainDict(truth=1.5), "truth score out of [0, 1]: 1.5"),
            (PlainDict(truth=-0.25), "truth score out of [0, 1]: -0.25"),
            (PlainDict(value=True), "booleans are not values; encode truth as a score in [0, 1]"),
            (PlainDict(value=("a", 1)), "heterogeneous list value: kinds ['number', 'text']"),
            # A truth score is checked as a loaded case's @truth is.
            (PlainDict(truth=True), "booleans are not values; encode truth as a score in [0, 1]"),
            (PlainDict(truth="0.7"), "@truth must hold a truth score, got '0.7'"),
            (PlainDict(truth=Money(5)), "@truth must hold a truth score, got Money(dollars=5)"),
            (PlainDict(truth=1), "@truth must hold a truth score, got 1"),
            *((PlainDict(value=v), f"unsupported value type: {type(v).__name__}") for v in SUBCLASSED_VALUES),
        ],
    )
    def test_invalid_plain_answer_raises_value_error(self, setting, resolver, message):
        layer, text, case = setting
        with pytest.raises(ValueError) as exc:
            instantiate_one(resolver, layer, text, case)
        assert type(exc.value) is ValueError
        assert str(exc.value) == message

    def test_none_is_no_answer(self, setting):
        # No value for an argument leaves it out; no truth score reads 0.0.
        # Each is noted.
        layer, text, case = setting
        context = one_rule_context(layer, text, case)
        result = instantiate_full(PlainDict(value=None, truth=None), case, context)
        assert result == {**case.inputs, TRUTH_KEY: 0.0}
        missing = [n for n in SubsectionPlan(layer, text, 0.5).arguments if n not in case.inputs]
        assert missing and context.notes == [
            *((case.id, case.query, n, "no value") for n in missing),
            (case.id, case.query, None, "no truth"),
        ]

    @pytest.mark.parametrize("value", ["", 0.0, Money(0)], ids=["empty", "zero", "no-dollars"])
    def test_empty_and_zero_answers_are_answers(self, setting, value):
        layer, text, case = setting
        context = one_rule_context(layer, text, case)
        result = instantiate_full(PlainDict(value=value, truth=0.0), case, context)
        missing = [n for n in SubsectionPlan(layer, text, 0.5).arguments if n not in case.inputs]
        assert result == {**case.inputs, **dict.fromkeys(missing, value), TRUTH_KEY: 0.0}
        assert context.notes == []

    def test_invalid_value_map_answer_is_a_resolver_failure(self, setting):
        layer, text, case = setting

        class Building:
            def resolve(self, request):
                return ValueMap({TRUTH_KEY: 1.5})[TRUTH_KEY]

        with pytest.raises(EngineError) as exc:
            instantiate_one(Building(), layer, text, case)
        assert str(exc.value) == (
            "resolver failed on argument 'Workday' of §3306(a)(1)(B): truth score out of [0, 1]: 1.5"
        )

    def test_invalid_answer_is_not_a_case_error(self, corpus):
        # As with any ValueError, the run stops instead of recording the case.
        with pytest.raises(ValueError, match=r"truth score out of \[0, 1\]: 1.5"):
            run_cases(PlainDict(truth=1.5), corpus, "all")

    def test_plain_dict_answer_accepted(self, setting):
        layer, text, case = setting
        result = instantiate_one(PlainDict("Carol", 0.75), layer, text, case)
        assert result[TRUTH_KEY] == 0.75
        assert {result[name] for name, _ in layer.labelled_clusters if name not in case.inputs} == {"Carol"}


def fixture_resolvers(corpus):
    params = fit_constant_baseline(list(corpus.cases_of("train")))
    return {"oracle": OracleResolver(), "heuristic": HeuristicResolver(), "constant": ConstantResolver(params)}


class Replay:
    """Wraps a resolver and checks every request against the oracles: its
    text against the right-to-left splice of the values grounded so far in
    the subsection (each answer as it came, or the gold value under
    insert_gold), and the answer against the resolver as first written.
    The requests of one subsection arrive together, ending with the truth
    request."""

    def __init__(self, inner, config):
        self.inner, self.config = inner, config
        self.grounding = None
        self.calls = 0

    def resolve(self, request):
        self.calls += 1
        if self.grounding is None:
            self.grounding = dict(request.known)
        text = oracles.insert_values(
            request.subsection.text, request.subsection.layer, self.grounding, self.config.truth_threshold
        )
        assert request.text == text
        answer = self.inner.resolve(request)
        assert answer == oracles.resolver_answer(self.inner, request, text)
        if request.argument == TRUTH_KEY:
            self.grounding = None
        elif answer is not None:
            name, case = request.argument, request.case
            gold = self.config.insert_gold and name in case.expected
            self.grounding[name] = case.expected[name] if gold else answer
        return answer


class TestAgainstOracles:
    # Resolver calls over the fixture's "all" split, as counted with eager
    # grounding: laziness must not change them, and insert_gold does not.
    CALLS = {"oracle": 69, "heuristic": 63, "constant": 61}

    @pytest.mark.parametrize("resolver", ["oracle", "heuristic", "constant"])
    @pytest.mark.parametrize(
        "config",
        [EngineConfig(), EngineConfig(insert_gold=True), EngineConfig(truth_threshold=0.3, depth_cap=1)],
        ids=["default", "insert-gold", "threshold-no-structure"],
    )
    def test_every_request_of_a_fixture_run(self, corpus, resolver, config):
        replay = Replay(fixture_resolvers(corpus)[resolver], config)
        results, _ = run_cases(replay, corpus, "all", config)
        assert all(r.error is None for r in results)
        assert replay.grounding is None
        if config.depth_cap > 1:
            assert replay.calls == self.CALLS[resolver]


class TestLazyGrounding:
    @pytest.fixture
    def groundings(self, monkeypatch):
        counted = Counter()
        real = SubsectionPlan.ground

        def counting(plan, values):
            counted["ground"] += 1
            return real(plan, values)

        monkeypatch.setattr(SubsectionPlan, "ground", counting)
        return counted

    @pytest.mark.parametrize("resolver", ["oracle", "constant"])
    def test_unread_text_is_never_grounded(self, corpus, groundings, resolver):
        run_cases(fixture_resolvers(corpus)[resolver], corpus, "all", EngineConfig(insert_gold=True))
        assert groundings["ground"] == 0

    def test_text_read_twice_is_grounded_once(self, corpus, groundings):
        seen = []

        class ReadsTwice:
            def resolve(self, request):
                first, second = request.text, request.text
                assert first is second
                seen.append(first)
                return 1.0 if request.argument == TRUTH_KEY else "Bob"

        run_cases(ReadsTwice(), corpus, "all")
        assert groundings["ground"] == len(seen) > 0

    def test_text_read_late_is_the_text_of_the_call(self, corpus):
        # Grounding values are snapshotted when a request is built, so a
        # request read after later answers still sees its own values.
        class Answers:
            def __init__(self, read_now):
                self.read_now, self.seen = read_now, []

            def resolve(self, request):
                self.seen.append(request.text if self.read_now else request)
                return 1.0 if request.argument == TRUTH_KEY else "Bob"

        config = EngineConfig(insert_gold=True)
        eager, late = Answers(True), Answers(False)
        run_cases(eager, corpus, "all", config)
        run_cases(late, corpus, "all", config)
        assert [r.text for r in late.seen] == eager.seen


class TestDoOperation:
    def test_not_negates(self):
        assert dict(do_operation("NOT", [ValueMap({TRUTH_KEY: 0.0})])) == {TRUTH_KEY: 1.0}

    def test_not_drops_child_values(self):
        out = do_operation("NOT", [ValueMap({TRUTH_KEY: 0.25, "X": "a"})])
        assert dict(out) == {TRUTH_KEY: 0.75}

    def test_or_adopts_highest_truth_child(self):
        out = do_operation(
            "OR",
            [ValueMap({TRUTH_KEY: 0.3, "X": "a"}), ValueMap({TRUTH_KEY: 0.8, "X": "b"})],
        )
        assert dict(out) == {TRUTH_KEY: 0.8, "X": "b"}

    def test_and_conflict_keeps_lower_truth_value(self):
        out = do_operation(
            "AND",
            [ValueMap({TRUTH_KEY: 0.9, "X": "a"}), ValueMap({TRUTH_KEY: 0.4, "X": "b"})],
        )
        assert dict(out) == {TRUTH_KEY: 0.4, "X": "b"}

    def test_and_pools_disjoint_values(self):
        out = do_operation(
            "AND",
            [ValueMap({TRUTH_KEY: 0.9, "X": "a"}), ValueMap({TRUTH_KEY: 0.4, "Y": "b"})],
        )
        assert dict(out) == {"X": "a", "Y": "b", TRUTH_KEY: 0.4}

    # Few names and truths, so children share names and tie on truth; a
    # child may lack a truth score or hold the negative zero.
    CHILD = st.dictionaries(
        st.sampled_from(["X", "Y", "Z", TRUTH_KEY]), st.sampled_from([0.0, -0.0, 0.5, 1.0, "a", "b"])
    ).map(lambda d: {k: v for k, v in d.items() if (k == TRUTH_KEY) == isinstance(v, float)})

    # The shapes `rules.Op` admits, which are all the engine runs.
    @given(
        st.one_of(
            st.tuples(st.just("NOT"), st.lists(CHILD, min_size=1, max_size=1)),
            st.tuples(st.sampled_from(["AND", "OR"]), st.lists(CHILD, min_size=2, max_size=5)),
        )
    )
    def test_as_first_written(self, shape):
        kind, children = shape
        got, expected = do_operation(kind, children), oracles.do_operation(kind, children)
        assert list(got.items()) == list(expected.items())
        assert [math.copysign(1, v) for v in got.values() if isinstance(v, float)] == [
            math.copysign(1, v) for v in expected.values() if isinstance(v, float)
        ]

    def test_property_suite(self):
        rng = random.Random(17)
        for _ in range(2000):
            children = [random_value_map(rng) for _ in range(rng.randrange(2, 4))]
            truths = [c[TRUTH_KEY] for c in children]
            or_result = do_operation("OR", children)
            assert or_result[TRUTH_KEY] == max(truths)
            winner = children[truths.index(max(truths))]
            assert dict(or_result) == dict(winner)
            and_result = do_operation("AND", children)
            assert and_result[TRUTH_KEY] == min(truths)
            not_not = do_operation("NOT", [do_operation("NOT", [children[0]])])
            assert not_not[TRUTH_KEY] == pytest.approx(truths[0])


class TestInstantiateFull:
    def test_bodiless_rule_equals_single(self, corpus):
        case = next(c for c in corpus.cases if c.id == "3306(a)(1)(B)-negative")
        # §3306(a)(1)(B) has a body; cap 1 must reduce to the single-subsection run.
        capped = instantiate_full(OracleResolver(), case, RunContext(corpus, EngineConfig(depth_cap=1)))
        text = corpus.subsections[case.query].text
        single = instantiate_one(OracleResolver(), corpus.layers[case.query], text, case)
        assert dict(capped) == dict(single)

    def test_no_structure_flag_matches_cap_one(self, manifest_path, tmp_path, capsys):
        # Through the CLI: the files differ only in their @run lines.
        outputs = []
        for flags in (["--depth-cap", "3", "--no-structure"], ["--depth-cap", "1"]):
            out = tmp_path / str(len(outputs))
            args = ["eval-inst", "--manifest", str(manifest_path), "--resolver", "oracle", "--split", "all"]
            assert main([*args, *flags, "--out", str(out)]) == 0
            report = (out / "eval-inst.report.txt").read_text(encoding="utf-8")
            dumps = [(out / f"eval-inst.{name}.txt").read_text(encoding="utf-8") for name in ("records", "predictions")]
            outputs.append((report, [dump.partition("\n") for dump in dumps]))
        capsys.readouterr()
        (flagged_report, flagged), (capped_report, capped) = outputs
        assert flagged_report == capped_report
        for (flagged_run, _, flagged_rest), (capped_run, _, capped_rest) in zip(flagged, capped):
            assert flagged_rest == capped_rest
            assert "depth_cap=3 " in flagged_run and "structure=false " in flagged_run
            assert "depth_cap=1 " in capped_run and "structure=true " in capped_run

    def test_surviving_spouse_case_over_tree(self, corpus):
        case = next(c for c in corpus.cases if c.id == "2(a)(1)-positive")
        result = instantiate_full(OracleResolver(), case, RunContext(corpus))
        assert result[TRUTH_KEY] == 1.0

    def test_child_values_flow_back_through_bindings(self, corpus):
        # A scripted resolver fills Grossinc at §63(c)(5)(B); the root then
        # sees it through the (Grossinc, Grossinc) binding and keeps it.
        case = next(c for c in corpus.cases if c.id == "63(c)(5)-negative")

        class Scripted:
            def resolve(self, request):
                if request.subsection_id == "§63(c)(5)(B)" and request.argument == "Grossinc":
                    return Money(3200)
                return 0.5 if request.argument == TRUTH_KEY else None

        result = instantiate_full(Scripted(), case, RunContext(corpus))
        assert result["Grossinc"] == Money(3200)

    def test_shared_tree_keeps_cases_apart(self, corpus):
        # An echoing resolver makes every prediction depend on what the node
        # was told, so a value left over from another case would show.
        class Echo:
            def resolve(self, request):
                known = sorted(f"{k}={v}" for k, v in request.known.items())
                if request.argument == TRUTH_KEY:
                    return len(known) / (len(known) + 1)
                return ";".join(known) or "none"

        base = [c for c in corpus.cases if c.query == "§63(c)(5)"]
        cases = base + [
            Case("63(c)(5)-other", base[0].description, base[0].query, ValueMap({"Taxp": "Dana"}),
                 base[0].expected, base[0].split),
            Case("63(c)(5)-empty", base[1].description, base[1].query, ValueMap(), base[1].expected, base[1].split),
        ]
        assert len({c.inputs for c in cases}) == len(cases) == 4
        texts = {sid: s.text for sid, s in corpus.subsections.items()}
        with_cases = corpus_of(corpus.program, corpus.layers, texts, cases)
        shared, _ = run_cases(Echo(), with_cases, "all")
        alone = [instantiate_full(Echo(), c, RunContext(corpus)) for c in cases]
        assert [r.predicted for r in shared] == alone
        assert len({tuple(r.items()) for r in alone}) == len(cases)

    def test_tree_built_once_per_query(self, corpus, monkeypatch):
        # Each query's rules are unrolled into its program once.
        unrolled = Counter()
        real_unroll = engine.unroll

        def unrolling(program, query, depth_cap):
            unrolled[query] += 1
            return real_unroll(program, query, depth_cap)

        monkeypatch.setattr(engine, "unroll", unrolling)
        results, _ = run_cases(OracleResolver(), corpus, "all")
        assert unrolled == Counter({q: 1 for q in {c.query for c in corpus.cases}})
        assert len(results) > len(unrolled)

    def test_each_run_compiles_its_own_programs(self, corpus, monkeypatch):
        unrolled = []
        real = engine.unroll

        def unrolling(program, query, depth_cap):
            unrolled.append((query, depth_cap))
            return real(program, query, depth_cap)

        monkeypatch.setattr(engine, "unroll", unrolling)
        resolver, runs = Recording(), []
        for depth_cap in (3, 1):
            results, _ = run_cases(resolver, corpus, "all", EngineConfig(depth_cap))
            runs.append([list(r.predicted.items()) for r in results])
        queries = sorted({c.query for c in corpus.cases})
        assert sorted(unrolled) == sorted([(q, 3) for q in queries] + [(q, 1) for q in queries])
        monkeypatch.setattr(engine, "unroll", real)
        fresh, _ = run_cases(Recording(), corpus, "all", EngineConfig(1))
        assert runs[1] == [list(r.predicted.items()) for r in fresh] != runs[0]

    def test_a_context_runs_at_its_own_config(self, corpus):
        # What one run unrolled never answers for another run's config: after
        # a cap-3 run, a cap-1 run gives the single-subsection answer.
        case = next(c for c in corpus.cases if c.id == "63(c)(5)-negative")
        deep, capped = (RunContext(corpus, EngineConfig(cap)) for cap in (3, 1))
        results = [instantiate_full(HeuristicResolver(), case, context) for context in (deep, capped)]
        text = corpus.subsections[case.query].text
        single = instantiate_one(HeuristicResolver(), corpus.layers[case.query], text, case)
        assert results[1] == single != results[0]
        assert {depth for _, _, depth, *_ in capped.programs[case.query]} == {1}
        assert max(depth for _, _, depth, *_ in deep.programs[case.query]) > 1

    def test_determinism(self, corpus):
        config = EngineConfig()
        first, _ = run_cases(OracleResolver(), corpus, "all", config)
        second, _ = run_cases(OracleResolver(), corpus, "all", config)
        assert [(r.case.id, dict(r.predicted)) for r in first] == [
            (r.case.id, dict(r.predicted)) for r in second
        ]


class Recording:
    """Records every request as (subsection, argument, known, text). Answers
    with `inner`, or else from what the request knows: a value or truth score
    that depends on `known`, and now and then no answer at all."""

    def __init__(self, inner=None):
        self.inner, self.requests = inner, []

    def resolve(self, request):
        known = dict(request.known)
        self.requests.append((request.subsection_id, request.argument, known, request.text))
        if self.inner is not None:
            return self.inner.resolve(request)
        digest = zlib.crc32(repr((request.subsection_id, request.argument, sorted(known.items()))).encode())
        if request.argument == TRUTH_KEY:
            return None if digest % 5 == 0 else (digest % 11) / 10
        return None if digest % 4 == 0 else f"v{digest % 7}"


def rule_corpus(program):
    """A corpus of `program`, whose callees all have rules: a text per rule
    that mentions each parameter once, and a layer that labels each mention
    with its parameter."""
    texts, layers = {}, {}
    for head, rule in program.items():
        text, spans = f"{head} holds", []
        for param in rule.params:
            text += " for "
            spans.append(Span(len(text), len(text) + len(param)))
            text += param
        texts[head] = text
        layers[head] = ArgumentLayer(head, tuple(spans), tuple((i,) for i in range(len(spans))), rule.params)
    return corpus_of(program, layers, texts)


def post_order(node):
    """The nodes under `node`, itself included, children first."""
    if isinstance(node, OpNode):
        return [n for c in node.children for n in post_order(c)] + [node]
    return (post_order(node.child) if node.child is not None else []) + [node]


class TestCompiledProgram:
    """A query's program, as a run keeps it, against the tree the recursive
    builder (`oracles.build_dependency_tree`) unrolls, with the plans of its
    subsections."""

    @staticmethod
    def assert_compiles(corpus, queries, depth_cap):
        # One case per query, in one run, so the queries share its plans.
        program = corpus.program
        context, plans = RunContext(corpus, EngineConfig(depth_cap)), {}
        for k, query in enumerate(queries):
            case = oracle_case(f"c{k}", query, {}, {TRUTH_KEY: 1.0})
            instantiate_full(Recording(), case, context)
            steps = context.programs[query]
            assert steps == tuple(unroll(program, query, depth_cap))
            assert all(context.plans[sid] is plan for sid, plan in plans.items())
            plans = dict(context.plans)
            tree = oracles.build_dependency_tree(program, query, depth_cap)
            # Without its "open" tuples the program is the tree in post
            # order, each node visited once; `node` pairs each position with
            # its node.
            visits = [i for i, step in enumerate(steps) if step[0] != "open"]
            nodes = post_order(tree.root)
            assert len(visits) == len(nodes)
            node = dict(zip(visits, nodes))
            # An "open" tuple precedes exactly its subsection's body: opens
            # and the subsections with a body nest like brackets.
            opened = []
            for i, (op, _, _, _, body, _) in enumerate(steps):
                if op == "open":
                    opened.append(i)
                elif op == "subsection" and body:
                    node[opened[-1]] = node[i]
                    inside = [node[j] for j in range(opened.pop() + 1, i) if steps[j][0] != "open"]
                    assert inside == post_order(node[i].child)
            assert not opened
            for i, (op, sid, depth, bindings, body, arity) in enumerate(steps):
                n = node[i]
                assert depth == n.depth
                if isinstance(n, OpNode):
                    assert (op, sid, arity) == (n.kind, None, len(n.children))
                    continue
                assert op in ("open", "subsection") and sid == n.id
                plan = context.plans[sid]
                text = corpus.subsections[n.id].text
                assert (plan.layer.subsection_id, plan.text, plan.threshold) == (n.id, text, 0.5)
                assert bindings == n.bindings and (n.depth > 1 or bindings == ())
                if op == "subsection":
                    assert body == (n.child is not None)
                else:
                    assert n.child is not None and not body
        # One plan per id of the run's programs.
        assert set(context.plans) == {sid for q in queries for _, sid, *_ in context.programs[q]} - {None}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_generated_programs(self, seed, depth_cap):
        rng = random.Random(seed)
        program = random_nested_program(rng, rng.randrange(2, 7))
        self.assert_compiles(rule_corpus(program), list(program), depth_cap)

    def test_fixture(self, corpus):
        queries = sorted({c.query for c in corpus.cases})
        for depth_cap in (1, 2, 3, 4):
            self.assert_compiles(corpus, queries, depth_cap)


class TestOneWalk:
    """One loop per case over the unrolled program against the
    populate-then-resolve evaluation it replaced (`oracles.instantiate_full`):
    the same predictions in the same order, the same notes and the same
    resolver requests."""

    @staticmethod
    def assert_same_run(make_resolver, corpus, cases, config):
        runs = []
        for instantiate in (instantiate_full, oracles.instantiate_full):
            resolver, context = Recording(make_resolver()), RunContext(corpus, config)
            predicted = [list(instantiate(resolver, case, context).items()) for case in cases]
            runs.append((predicted, context.notes, resolver.requests))
        assert runs[0] == runs[1]
        return runs[0]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_generated_programs(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        program = random_nested_program(rng, rng.randrange(2, 7))
        corpus = rule_corpus(program)
        root = next(iter(program))
        values = st.dictionaries(st.sampled_from(program[root].params), MODEL_VALUES)
        # A case expects @truth, which `Case` asks of a binary case.
        expected = st.builds(lambda v, truth: {**v, TRUTH_KEY: truth}, values, st.floats(0.0, 1.0))
        n_cases = data.draw(st.integers(1, 3))
        cases = [oracle_case(f"c{i}", root, data.draw(values), data.draw(expected)) for i in range(n_cases)]
        config = EngineConfig(data.draw(st.integers(1, 4)), insert_gold=data.draw(st.booleans()))
        self.assert_same_run(lambda: None, corpus, cases, config)

    @pytest.mark.parametrize("resolver", ["recording", "oracle", "heuristic", "constant"])
    def test_fixture(self, corpus, resolver):
        make = (lambda: None) if resolver == "recording" else (lambda: fixture_resolvers(corpus)[resolver])
        for depth_cap in (1, 2, 3, 4):
            for insert_gold in (False, True):
                config = EngineConfig(depth_cap, insert_gold=insert_gold)
                _, _, requests = self.assert_same_run(make, corpus, corpus.cases, config)
                assert requests

    def test_a_run_builds_no_tree_node(self, corpus, monkeypatch):
        # The engine runs `rules.unroll`'s tuples; no tree is built.
        built = []

        def counted(init):
            def construct(node, *args, **named):
                built.append(node)
                init(node, *args, **named)

            return construct

        for cls in (SubsectionNode, OpNode):
            monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
        results, _ = run_cases(OracleResolver(), corpus, "all")
        assert all(r.error is None for r in results) and len(results) > 1
        assert built == []
        oracles.build_dependency_tree(corpus.program, results[0].case.query, 3)
        assert built  # the count sees the nodes a tree build makes


def assert_runnable(corpus):
    """What the engine takes from `load_corpus` without checking it again:
    every gold and silver case's query is a rule, and every id that a rule
    unrolls to, at any depth cap, is a subsection's."""
    assert all(case.query in corpus.program for case in (*corpus.cases, *corpus.silver))
    for head in corpus.program:
        for depth_cap in (1, 2, 3, 4):
            ids = {sid for _, sid, *_ in unroll(corpus.program, head, depth_cap)} - {None}
            assert ids <= corpus.subsections.keys()


def runs_on_the_engine(drawn, manifest, loaded):
    """A property of a drawn corpus (`test_drawn_corpora.py`)."""
    ok, corpus = loaded
    if ok:
        assert_runnable(corpus)


class TestLoadedCorpus:
    """`assert_runnable` on the fixture, and on the corpora of
    `EXPLICIT_CORPORA` that load: the loader refuses two of them, so the
    engine never sees their undefined query or callee.
    `test_drawn_corpora.py` checks it on every drawn corpus that loads."""

    def test_the_fixture(self, corpus):
        assert_runnable(corpus)

    def test_every_loaded_corpus(self, tmp_path):
        for written in each_written(EXPLICIT_CORPORA, tmp_path):
            runs_on_the_engine(*written)


class TestEngineInvariants:
    def test_output_shape_for_every_resolver(self, corpus):
        from statreason.baselines import (
            ConstantResolver as CR,
            HeuristicResolver,
            fit_constant_baseline,
        )

        params = fit_constant_baseline(list(corpus.cases_of("train")))
        for resolver in (OracleResolver(), CR(params), HeuristicResolver()):
            for case in corpus.cases:
                result = instantiate_full(resolver, case, RunContext(corpus))
                assert TRUTH_KEY in result
                allowed = set(corpus.program.get(case.query).params)
                allowed |= set(case.inputs) | {TRUTH_KEY}
                assert set(result) <= allowed


class TestEvaluateRun:
    def test_oracle_scores_everything(self, corpus):
        results, _ = run_cases(OracleResolver(), corpus, "all")
        report = instantiation_report(results, EngineConfig())
        assert report.unified.accuracy == 1.0
        assert report.truth.accuracy == 1.0
        assert report.dollar.accuracy == 1.0
        assert report.string.accuracy == 1.0

    def test_empty_split_empty_report(self, corpus):
        results, _ = run_cases(OracleResolver(), corpus, "nope")
        report = instantiation_report(results, EngineConfig())
        assert results == []
        assert report.unified.n == 0

    def test_errors_recorded_run_continues(self, corpus):
        class Boom:
            def resolve(self, request):
                if request.case.id == "tax-case-4":
                    raise RuntimeError("bad case")
                return 1.0 if request.argument == TRUTH_KEY else None

        results, _ = run_cases(Boom(), corpus, "test")
        report = instantiation_report(results, EngineConfig())
        assert len(results) == 5
        assert len(report.errors) == 1
        assert "tax-case-4" in report.errors[0]

    def test_a_recursive_rule_compiles_at_any_cap(self):
        # A rule that calls itself unrolls to the depth cap: at a cap of 5,000,
        # far past the interpreter's recursion limit, its query's program is
        # one "open" and one "subsection" tuple per level above the cap and
        # the leaf at the cap, and its cases score like any other.
        program, _ = parse_program("C(x) :- C(x).\nB(x).", {"B", "C"})
        cases = tuple(Case(q.lower(), "", q, ValueMap(), ValueMap({TRUTH_KEY: 1.0}), "test") for q in "CB")
        corpus = corpus_of(program, {}, {"B": "B holds", "C": "C holds"}, cases)
        context = RunContext(corpus, EngineConfig(5000))
        instantiate_full(OracleResolver(), cases[0], context)
        steps = context.programs["C"]
        assert len(steps) == 9999 and [op for op, *_ in steps].count("open") == 4999
        config = EngineConfig(5000)
        results, _ = run_cases(OracleResolver(), corpus, config=config)
        report = instantiation_report(results, config)
        assert [(r.error, r.predicted) for r in results] == [(None, {TRUTH_KEY: 1.0})] * 2
        assert report.errors == () and report.unified.accuracy == 1.0

    def test_known_is_a_read_only_view(self, corpus):
        # Assigning into `request.known` fails that case, naming the
        # argument, and leaves the run's other cases as they would be.
        assigned = []

        class Assigns(OracleResolver):
            def resolve(self, request):
                if request.case.id == "tax-case-4" and request.argument != TRUTH_KEY:
                    assigned.append(request.argument)
                    request.known[request.argument] = "X"
                return super().resolve(request)

        results, _ = run_cases(Assigns(), corpus, "test")
        clean, _ = run_cases(OracleResolver(), corpus, "test")
        failed = [r for r in results if r.error]
        assert [r.case.id for r in failed] == ["tax-case-4"]
        assert f"resolver failed on argument {assigned[0]!r} of " in failed[0].error
        assert not failed[0].predicted
        assert [(r.case.id, dict(r.predicted)) for r in results if not r.error] == [
            (r.case.id, dict(r.predicted)) for r in clean if r.case.id != "tax-case-4"
        ]

    def test_a_resolver_failing_on_truth_fails_only_that_case(self, corpus):
        class RaisesOnTruth(OracleResolver):
            def resolve(self, request):
                if request.case.id == "tax-case-4" and request.argument == TRUTH_KEY:
                    raise RuntimeError("no score")
                return super().resolve(request)

        results, _ = run_cases(RaisesOnTruth(), corpus, "test")
        clean, _ = run_cases(OracleResolver(), corpus, "test")
        [failed] = [r for r in results if r.error]
        assert failed.case.id == "tax-case-4" and not failed.predicted
        assert re.fullmatch(r"resolver failed on @truth of \S+: no score", failed.error)
        assert [(r.case.id, dict(r.predicted)) for r in results if not r.error] == [
            (r.case.id, dict(r.predicted)) for r in clean if r.case.id != "tax-case-4"
        ]

    @pytest.mark.parametrize(
        "make", [lambda: ConstantResolver(ConstantBaselineParams(1.0, 42000, "Bob")), HeuristicResolver],
        ids=["constant", "heuristic"],
    )
    def test_one_resolver_answers_each_run_from_its_own_text(self, make):
        # Two corpora give §x's argument different placeholder text, one a
        # dollar word and one not; what a resolver keeps from one run must
        # not answer for the other.
        def corpus_x(text, phrase):
            start = text.index(phrase)
            layer = ArgumentLayer("§x", (Span(start, start + len(phrase)),), ((0,),), ("A",))
            case = Case("c", "Alice paid $5,000 in 2017.", "§x", ValueMap(), ValueMap({TRUTH_KEY: 1.0}), "test")
            return corpus_of({"§x": Rule("§x", ("A",))}, {"§x": layer}, {"§x": text}, [case])

        dollars = corpus_x("§x holds for the income", "the income")
        person = corpus_x("§x holds for the spouse", "the spouse")
        resolver = make()
        shared = [run_cases(resolver, c)[0][0].predicted["A"] for c in (dollars, person, dollars, person)]
        fresh = [run_cases(make(), c)[0][0].predicted["A"] for c in (dollars, person, dollars, person)]
        assert shared == fresh
        assert isinstance(shared[0], Money) and isinstance(shared[1], str)

    def test_constant_resolver_ignores_structure(self, corpus):
        params = ConstantBaselineParams(1.0, 42000, "Bob")
        scored = []
        for config in (EngineConfig(), EngineConfig(depth_cap=1)):
            results, _ = run_cases(ConstantResolver(params), corpus, "test", config)
            scored.append(instantiation_report(results, config))
        assert scored[0].flat() == scored[1].flat()


class TestNotes:
    def test_each_kind_reads_as_it_always_has(self):
        notes = [
            ("c1", "§2(a)", "O'Neil", "no value"),
            ("c1", "§2(a)", None, "no truth"),
            ("c1", None, "resolver failed on @truth of §2(a): boom", "error"),
        ]
        assert [note_text(note) for note in notes] == [
            "c1: no value for \"O'Neil\" of §2(a)",
            "c1: resolver gave no @truth for §2(a); defaulting to 0.0",
            "c1: resolver failed on @truth of §2(a): boom",
        ]

    def test_notes_are_rendered_only_when_read(self, corpus, monkeypatch):
        rendered = []
        real = engine.note_text

        def counting(note):
            rendered.append(note)
            return real(note)

        monkeypatch.setattr(engine, "note_text", counting)
        results, notes = run_cases(OracleResolver(), corpus, "all")
        assert rendered == [] and len(notes) > len(results)
        assert tuple(map(engine.note_text, notes)) == tuple(real(n) for n in notes)
        assert rendered == list(notes)

    def test_a_resolver_that_answers_nothing(self, corpus):
        # Every argument a case's query subsection does not get as input is
        # noted, then its truth score, in the order they were asked for.
        class Nothing:
            def resolve(self, request):
                return None

        case = next(c for c in corpus.cases if c.id == "63(c)(5)-negative")
        context = RunContext(corpus, EngineConfig(1))
        instantiate_full(Nothing(), case, context)
        sid, layer = case.query, corpus.layers[case.query]
        missing = [n for n, _ in layer.labelled_clusters if n not in case.inputs and n != TRUTH_KEY]
        assert missing and list(map(note_text, context.notes)) == [
            *(f"{case.id}: no value for {n!r} of {sid}" for n in missing),
            f"{case.id}: resolver gave no @truth for {sid}; defaulting to 0.0",
        ]
