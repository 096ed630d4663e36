import math
import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given

import oracles
from statreason import engine
from statreason.baselines import (
    ConstantBaselineParams,
    ConstantResolver,
    HeuristicResolver,
    OracleResolver,
    fit_constant_baseline,
)
from statreason.corpus import Corpus
from statreason.engine import (
    EngineConfig,
    EngineError,
    SubsectionPlan,
    do_operation,
    evaluate_run,
    instantiate_full,
    instantiate_single,
    run_cases,
)
from statreason.model import ArgumentLayer, Case, Money, Span, TRUTH_KEY, ValueMap

from generators import VALUES, random_value_map, texts_with_layers


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
        grounded = SubsectionPlan(layer, SURVIVOR_TEXT).ground(
            ValueMap({"taxpayer": "Alice", "taxable year": "2017"})
        )
        assert grounded == (
            "(A) Alice spouse died during either of the two years immediately preceding 2017"
        )

    def test_empty_map_leaves_text_unchanged(self):
        layer = make_layer(SURVIVOR_TEXT, [("taxpayer", "a taxpayer")])
        assert SubsectionPlan(layer, SURVIVOR_TEXT).ground(ValueMap()) == SURVIVOR_TEXT

    def test_all_mentions_of_a_coreferent_argument_replaced(self):
        text = "the employee works when the employee is told"
        layer = ArgumentLayer(
            "§x", (Span(0, 12), Span(24, 36)), ((0, 1),), ("Employee",)
        )
        grounded = SubsectionPlan(layer, text).ground(ValueMap({"Employee": "Bob"}))
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
            once = SubsectionPlan(layer, text).ground(values)
            assert once == "X" + text[i:j + 1] + "Y"
            again_layer = ArgumentLayer("§x", (Span(0, 1), Span(len(once) - 1, len(once))),
                                        ((0,), (1,)), ("A", "B"))
            assert SubsectionPlan(again_layer, once).ground(values) == once

    def test_truth_valued_argument_reads_by_threshold(self):
        layer = ArgumentLayer("§x", (Span(0, 9),), ((0,),), ("Claim",))
        values = ValueMap({"Claim": 0.6})
        plan = SubsectionPlan(layer, "the claim holds")
        assert plan.ground(values) == "true holds"
        assert plan.ground(values, threshold=0.7) == "false holds"

    def test_values_kept_when_spans_run_past_the_text(self):
        # A subsection without text is grounded over "": every value stays.
        layer = ArgumentLayer("§x", (Span(0, 3), Span(5, 8)), ((0,), (1,)), ("A", "B"))
        assert SubsectionPlan(layer, "").ground(ValueMap({"A": "aa", "B": "bb"})) == "aabb"

    @given(st.data())
    def test_equals_the_right_to_left_splice(self, data):
        threshold = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        text, layer = data.draw(texts_with_layers())
        # Truth values on both sides of the threshold, and on it.
        near = st.sampled_from([threshold, math.nextafter(threshold, 0.0), math.nextafter(threshold, 1.0)])
        names = [n for n in layer.cluster_names if n is not None] + ["Unmentioned"]
        values = data.draw(st.dictionaries(st.sampled_from(names), st.one_of(VALUES, near)))
        assert SubsectionPlan(layer, text).ground(values, threshold) == oracles.insert_values(
            text, layer, values, threshold
        )


def oracle_case(cid, query, inputs, expected):
    return Case(cid, "description", query, ValueMap(inputs), ValueMap(expected), "test")


class TestInstantiateSingle:
    def test_all_arguments_in_inputs_skips_the_loop(self):
        layer = make_layer(SURVIVOR_TEXT, [("Taxp", "a taxpayer"), ("Taxy", "the taxable year")])
        case = oracle_case("x", "§x", {"Taxp": "Alice", "Taxy": "2017"}, {"@truth": 1.0})
        calls = []

        class Spy:
            def resolve(self, request):
                calls.append(request.required)
                return ValueMap({TRUTH_KEY: 1.0})

        result = instantiate_single(Spy(), layer, case.inputs, SURVIVOR_TEXT, case)
        assert calls == [()]
        assert dict(result) == {"Taxp": "Alice", "Taxy": "2017", TRUTH_KEY: 1.0}

    def test_oracle_on_negative_case(self, corpus):
        case = next(c for c in corpus.cases if c.id == "63(c)(5)-negative")
        layer = corpus.layers[case.query]
        text = corpus.subsections[case.query].text
        result = instantiate_single(OracleResolver(), layer, case.inputs, text, case)
        assert result[TRUTH_KEY] == 0.0
        assert all(result[k] == v for k, v in case.inputs.items())

    def test_oracle_on_positive_case_predicts_gold(self, corpus):
        case = next(c for c in corpus.cases if c.id == "3306(a)(1)(B)-positive")
        layer = corpus.layers[case.query]
        text = corpus.subsections[case.query].text
        result = instantiate_single(OracleResolver(), layer, case.inputs, text, case)
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
                seen.extend(request.required)
                return ValueMap()

        instantiate_single(Spy(), layer, case.inputs, text, case)
        assert seen == ["Workday", "Preccaly", "S13A", "Employee", "Employment", "S16"]

    def test_grounded_truth_values_read_by_the_threshold(self):
        layer = ArgumentLayer("§x", (Span(0, 9),), ((0,),), ("Claim",))
        case = oracle_case("x", "§x", {}, {"@truth": 1.0})
        texts = []

        class Spy:
            def resolve(self, request):
                if request.required:
                    return {"Claim": 0.6}
                texts.append(request.text)
                return {TRUTH_KEY: 1.0}

        for threshold in (0.5, 0.7):
            instantiate_single(Spy(), layer, {}, "the claim holds", case, EngineConfig(truth_threshold=threshold))
        assert texts == ["true holds", "false holds"]

    def test_resolver_failure_names_argument(self, corpus):
        case = next(c for c in corpus.cases if c.id == "3306(a)(1)(B)-positive")
        layer = corpus.layers[case.query]

        class Boom:
            def resolve(self, request):
                raise RuntimeError("nope")

        with pytest.raises(EngineError) as exc:
            instantiate_single(Boom(), layer, case.inputs, "text", case)
        assert "Workday" in str(exc.value)

    def test_teacher_forcing_grounds_gold_values(self, corpus):
        case = next(c for c in corpus.cases if c.id == "3306(a)(1)(B)-positive")
        layer = corpus.layers[case.query]
        text = corpus.subsections[case.query].text
        grounded_seen = {}

        class Wrong:
            def resolve(self, request):
                if request.required:
                    grounded_seen[request.required[0]] = request.text
                    return ValueMap({request.required[0]: "WRONG"})
                return ValueMap({TRUTH_KEY: 1.0})

        config = EngineConfig(insert_gold=True)
        result = instantiate_single(Wrong(), layer, case.inputs, text, case, config)
        # Predictions stay the resolver's own, but later groundings carry gold.
        assert result["Employee"] == "WRONG"
        assert "has employed" in grounded_seen["S16"]  # gold Employment, not WRONG
        assert "WRONG" not in grounded_seen["S16"].split("Preccaly")[0][:40]


class PlainDict:
    """Answers with plain dicts: `value` for every argument, `truth` for the
    truth request."""

    def __init__(self, value="Bob", truth=1.0):
        self.value, self.truth = value, truth

    def resolve(self, request):
        if request.required:
            return {request.required[0]: self.value}
        return {TRUTH_KEY: self.truth}


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
            (PlainDict(value=None), "unsupported value type: NoneType"),
        ],
    )
    def test_invalid_plain_answer_raises_value_error(self, setting, resolver, message):
        layer, text, case = setting
        with pytest.raises(ValueError) as exc:
            instantiate_single(resolver, layer, case.inputs, text, case)
        assert type(exc.value) is ValueError
        assert str(exc.value) == message

    def test_invalid_value_map_answer_is_a_resolver_failure(self, setting):
        layer, text, case = setting

        class Building:
            def resolve(self, request):
                return ValueMap({TRUTH_KEY: 1.5})

        with pytest.raises(EngineError) as exc:
            instantiate_single(Building(), layer, case.inputs, text, case)
        assert str(exc.value) == (
            "resolver failed on argument 'Workday' of §3306(a)(1)(B): truth score out of [0, 1]: 1.5"
        )

    def test_invalid_answer_is_not_a_case_error(self, corpus):
        # As with any ValueError, the run stops instead of recording the case.
        with pytest.raises(ValueError, match=r"truth score out of \[0, 1\]: 1.5"):
            run_cases(PlainDict(truth=1.5), corpus, "all")

    def test_plain_dict_inputs_are_validated(self, setting):
        layer, text, case = setting
        with pytest.raises(ValueError, match="booleans are not values"):
            instantiate_single(PlainDict(), layer, {"Employee": True}, text, case)

    def test_plain_dict_answer_accepted(self, setting):
        layer, text, case = setting
        result = instantiate_single(PlainDict("Carol", 0.75), layer, case.inputs, text, case)
        assert isinstance(result, ValueMap)
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
            request.source_text, request.layer, self.grounding, self.config.truth_threshold
        )
        assert request.text == text
        answer = self.inner.resolve(request)
        assert answer == oracles.resolver_answer(self.inner, request, text)
        if not request.required:
            self.grounding = None
        elif request.required[0] in answer:
            name, case = request.required[0], request.case
            gold = self.config.insert_gold and name in case.expected
            self.grounding[name] = case.expected[name] if gold else answer[name]
        return answer


class TestAgainstOracles:
    # Resolver calls over the fixture's "all" split, as counted with eager
    # grounding: laziness must not change them, and insert_gold does not.
    CALLS = {"oracle": 69, "heuristic": 63, "constant": 61}

    @pytest.mark.parametrize("resolver", ["oracle", "heuristic", "constant"])
    @pytest.mark.parametrize(
        "config",
        [EngineConfig(), EngineConfig(insert_gold=True), EngineConfig(truth_threshold=0.3, use_structure=False)],
        ids=["default", "insert-gold", "threshold-no-structure"],
    )
    def test_every_request_of_a_fixture_run(self, corpus, resolver, config):
        replay = Replay(fixture_resolvers(corpus)[resolver], config)
        results, _ = run_cases(replay, corpus, "all", config)
        assert all(r.error is None for r in results)
        assert replay.grounding is None
        if config.use_structure:
            assert replay.calls == self.CALLS[resolver]


class TestLazyGrounding:
    @pytest.fixture
    def groundings(self, monkeypatch):
        counted = Counter()
        real = SubsectionPlan.ground

        def counting(plan, values, threshold=0.5):
            counted["ground"] += 1
            return real(plan, values, threshold)

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
                return {request.required[0]: "Bob"} if request.required else {TRUTH_KEY: 1.0}

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
                return {request.required[0]: "Bob"} if request.required else {TRUTH_KEY: 1.0}

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

    def test_arity_enforced(self):
        with pytest.raises(EngineError):
            do_operation("NOT", [ValueMap(), ValueMap()])
        with pytest.raises(EngineError):
            do_operation("AND", [ValueMap()])

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
        texts = {s.id: s.text for s in corpus.subsections.values()}
        # §3306(a)(1)(B) has a body; cap 1 must reduce to the single-subsection run.
        capped = instantiate_full(
            OracleResolver(), corpus.program, corpus.layers, texts, case, EngineConfig(depth_cap=1)
        )
        single = instantiate_single(
            OracleResolver(),
            corpus.layers[case.query],
            case.inputs,
            texts[case.query],
            case,
        )
        assert dict(capped) == dict(single)

    def test_no_structure_flag_matches_cap_one(self, corpus):
        case = next(c for c in corpus.cases if c.id == "63(c)(5)-negative")
        texts = {s.id: s.text for s in corpus.subsections.values()}
        flagged = instantiate_full(
            OracleResolver(), corpus.program, corpus.layers, texts, case,
            EngineConfig(depth_cap=3, use_structure=False),
        )
        capped = instantiate_full(
            OracleResolver(), corpus.program, corpus.layers, texts, case,
            EngineConfig(depth_cap=1),
        )
        assert dict(flagged) == dict(capped)

    def test_surviving_spouse_case_over_tree(self, corpus):
        case = next(c for c in corpus.cases if c.id == "2(a)(1)-positive")
        texts = {s.id: s.text for s in corpus.subsections.values()}
        result = instantiate_full(OracleResolver(), corpus.program, corpus.layers, texts, case)
        assert result[TRUTH_KEY] == 1.0

    def test_unknown_query_rejected(self, corpus):
        case = oracle_case("x", "§nowhere", {}, {"@truth": 1.0})
        with pytest.raises(EngineError):
            instantiate_full(OracleResolver(), corpus.program, corpus.layers, {}, case)

    def test_child_values_flow_back_through_bindings(self, corpus):
        # A scripted resolver fills Grossinc at §63(c)(5)(B); the root then
        # sees it through the (Grossinc, Grossinc) binding and keeps it.
        case = next(c for c in corpus.cases if c.id == "63(c)(5)-negative")
        texts = {s.id: s.text for s in corpus.subsections.values()}

        class Scripted:
            def resolve(self, request):
                if request.subsection_id == "§63(c)(5)(B)" and request.required == ("Grossinc",):
                    return ValueMap({"Grossinc": Money(3200)})
                if request.required:
                    return ValueMap()
                return ValueMap({TRUTH_KEY: 0.5})

        result = instantiate_full(Scripted(), corpus.program, corpus.layers, texts, case)
        assert result["Grossinc"] == Money(3200)

    def test_shared_tree_keeps_cases_apart(self, corpus):
        # An echoing resolver makes every prediction depend on what the node
        # was told, so a value left over from another case would show.
        class Echo:
            def resolve(self, request):
                known = sorted(f"{k}={v}" for k, v in request.known.items())
                if request.required:
                    return ValueMap({request.required[0]: ";".join(known) or "none"})
                return ValueMap({TRUTH_KEY: len(known) / (len(known) + 1)})

        base = [c for c in corpus.cases if c.query == "§63(c)(5)"]
        cases = base + [
            Case("63(c)(5)-other", base[0].description, base[0].query, ValueMap({"Taxp": "Dana"}),
                 base[0].expected, base[0].split),
            Case("63(c)(5)-empty", base[1].description, base[1].query, ValueMap(), base[1].expected, base[1].split),
        ]
        assert len({c.inputs for c in cases}) == len(cases) == 4
        with_cases = Corpus(
            corpus.manifest, corpus.subsections, corpus.layers, corpus.program, tuple(cases), corpus.silver,
            corpus.section_files,
        )
        shared, _ = run_cases(Echo(), with_cases, "all")
        texts = {s.id: s.text for s in corpus.subsections.values()}
        alone = [instantiate_full(Echo(), corpus.program, corpus.layers, texts, c) for c in cases]
        assert [r.predicted for r in shared] == alone
        assert len(set(alone)) == len(cases)

    def test_tree_built_once_per_query(self, corpus, monkeypatch):
        built = Counter()
        real = engine.build_dependency_tree

        def counting(program, root_id, depth_cap):
            built[root_id] += 1
            return real(program, root_id, depth_cap)

        monkeypatch.setattr(engine, "build_dependency_tree", counting)
        results, _ = run_cases(OracleResolver(), corpus, "all")
        assert built == Counter({q: 1 for q in {c.query for c in corpus.cases}})
        assert len(results) > len(built)

    def test_determinism(self, corpus):
        config = EngineConfig()
        first, _ = run_cases(OracleResolver(), corpus, "all", config)
        second, _ = run_cases(OracleResolver(), corpus, "all", config)
        assert [(r.case.id, dict(r.predicted)) for r in first] == [
            (r.case.id, dict(r.predicted)) for r in second
        ]


class TestEngineInvariants:
    def test_output_shape_for_every_resolver(self, corpus):
        from statreason.baselines import (
            ConstantResolver as CR,
            HeuristicResolver,
            fit_constant_baseline,
        )

        params = fit_constant_baseline(list(corpus.cases_of("train")))
        texts = {s.id: s.text for s in corpus.subsections.values()}
        for resolver in (OracleResolver(), CR(params), HeuristicResolver()):
            for case in corpus.cases:
                result = instantiate_full(
                    resolver, corpus.program, corpus.layers, texts, case
                )
                assert TRUTH_KEY in result
                allowed = set(corpus.program.get(case.query).params)
                allowed |= set(case.inputs) | {TRUTH_KEY}
                assert set(result) <= allowed


class TestEvaluateRun:
    def test_oracle_scores_everything(self, corpus):
        _, report = evaluate_run(OracleResolver(), corpus, "all")
        assert report.unified.accuracy == 1.0
        assert report.truth.accuracy == 1.0
        assert report.dollar.accuracy == 1.0
        assert report.string.accuracy == 1.0

    def test_empty_split_empty_report(self, corpus):
        results, report = evaluate_run(OracleResolver(), corpus, "nope")
        assert results == []
        assert report.unified.n == 0

    def test_errors_recorded_run_continues(self, corpus):
        class Boom:
            def resolve(self, request):
                if request.case.id == "tax-case-4":
                    raise RuntimeError("bad case")
                if request.required:
                    return ValueMap()
                return ValueMap({TRUTH_KEY: 1.0})

        results, report = evaluate_run(Boom(), corpus, "test")
        assert len(results) == 5
        assert len(report.errors) == 1
        assert "tax-case-4" in report.errors[0]

    def test_constant_resolver_ignores_structure(self, corpus):
        params = ConstantBaselineParams(1.0, 42000, "Bob")
        with_structure = evaluate_run(ConstantResolver(params), corpus, "test")[1]
        without = evaluate_run(
            ConstantResolver(params), corpus, "test", EngineConfig(use_structure=False)
        )[1]
        assert with_structure.flat() == without.flat()
