import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from statreason.baselines import (
    ConstantBaselineParams,
    ConstantResolver,
    HeuristicResolver,
    OracleResolver,
    constant_candidates,
    fit_constant_baseline,
    heuristic_argument_id,
    hinge_losses,
    normalize_placeholder,
    single_mention_coref,
    string_match_coref,
)
from statreason.engine import ResolveRequest, SubsectionPlan
from statreason.metrics import dollar_band
from statreason.model import (
    ArgumentLayer,
    Case,
    Money,
    Span,
    TRUTH_KEY,
    ValueMap,
)

import oracles
from generators import texts_with_layers
from oracles import brute_force_constant, hinge_loss

# Placeholder wording that exercises every category of the heuristic and the
# dollar vocabulary, plus letters whose lowercase depends on context.
WORDS = ["the taxable year", "Tax", "income", "his $", "a deduction's", "week", "ΑΣ", "Σ'", "employee"]
DESCRIPTIONS = st.lists(
    st.sampled_from(["Alice", "Bob", "In", "Jan 5, 2017", "Feb. 3rd", "2018", "$1,200", "$7",
                     "income", "the", "year", "Σ", "paid", "Mar", "$,"]),
    max_size=12,
).map(" ".join)


class TestSingleMention:
    def test_eight_spans(self, corpus):
        layer = corpus.layers["§3306(a)(1)(B)"]
        assert single_mention_coref(layer) == tuple((i,) for i in range(8))

    def test_zero_spans(self, corpus):
        assert single_mention_coref(corpus.layers["§63(c)(5)(A)"]) == ()


class TestNormalization:
    def test_drops_exactly_the_seven_words(self):
        assert normalize_placeholder("such individual") == "individual"
        assert normalize_placeholder("the individual") == "individual"
        assert normalize_placeholder("an individual") == "individual"
        assert normalize_placeholder("a taxable year") == "taxable year"
        assert normalize_placeholder("any service") == "service"
        # "each" and "every" do not merge: only "every" is on the list.
        assert normalize_placeholder("each day") == "each day"
        assert normalize_placeholder("every day") == "day"

    def test_lowercases_and_collapses_whitespace(self):
        assert normalize_placeholder("The  Taxable\tYear") == "taxable year"

    def test_idempotent(self):
        for text in ("such individual", "a  Taxable Year", "his spouse", "some 10 days"):
            once = normalize_placeholder(text)
            assert normalize_placeholder(once) == once


class TestStringMatch:
    def test_merges_individual_mentions(self, corpus):
        layer = corpus.layers["§63(c)(5)"]
        text = corpus.subsections["§63(c)(5)"].text
        pred = string_match_coref(layer.spans, text)
        assert (0, 5, 8, 9) in pred  # an/the/such/such individual

    def test_merges_a_taxable_year_with_taxable_year(self, corpus):
        layer = corpus.layers["§63(c)(5)"]
        text = corpus.subsections["§63(c)(5)"].text
        pred = string_match_coref(layer.spans, text)
        assert (3, 6, 10) in pred  # diverges from gold, which separates span 3

    def test_invariant_under_span_reordering(self, corpus):
        layer = corpus.layers["§63(c)(5)"]
        text = corpus.subsections["§63(c)(5)"].text
        expected = string_match_coref(layer.spans, text)
        # Partition identity does not depend on cluster bookkeeping order.
        relabelled = ArgumentLayer(
            layer.subsection_id, layer.spans, tuple(reversed(layer.clusters))
        )
        assert string_match_coref(relabelled.spans, text) == expected

    def test_partition_is_exact(self, corpus):
        for sid, layer in corpus.layers.items():
            text = corpus.subsections[sid].text
            pred = string_match_coref(layer.spans, text)
            members = sorted(i for c in pred for i in c)
            assert members == list(range(len(layer.spans)))


# Determiners, possessives, words that go on or stop a phrase, and the
# punctuation that ends one, each with the blank or mark after it.
PHRASE_WORDS = [
    "the ", "a ", "An ", "his ", "b's ", "C's ", "d's", "'s ", "taxable ", "year ", "c ", "of ", "and ", "begins ",
    ". ", ", ", ";", "x", "'", "é ",
]


class TestHeuristicArgumentId:
    def test_finds_the_taxable_income(self, corpus):
        text = corpus.subsections["§1(d)(iv)"].text
        spans = heuristic_argument_id(text)
        phrases = [s.slice(text) for s in spans]
        assert "the taxable income" in phrases

    def test_empty_text(self):
        assert heuristic_argument_id("") == []

    def test_no_determiners(self):
        assert heuristic_argument_id("; and") == []

    def test_possessive_splits_phrases(self):
        text = "in which the individual's taxable year begins"
        phrases = [s.slice(text) for s in heuristic_argument_id(text)]
        assert "the individual" in phrases
        assert "taxable year" in phrases

    @given(st.lists(st.sampled_from(PHRASE_WORDS), max_size=300).map("".join))
    @example("the a's b c's d's the e's of")
    @example("an X's, Y's. the z")
    def test_the_loop_finds_the_recursive_spans(self, text):
        # Below the recursion limit: at most 300 possessives in a chain.
        assert heuristic_argument_id(text) == oracles.heuristic_argument_id(text)

    def test_a_possessive_chain_past_the_recursion_limit(self):
        text = "the a's " + "b c's " * 2000 + "end"
        spans = heuristic_argument_id(text)
        assert [s.slice(text) for s in spans] == ["the a"] + ["b c"] * 2000

    def test_spans_are_ordered_and_disjoint(self, corpus):
        for sub in corpus.subsections.values():
            spans = heuristic_argument_id(sub.text)
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start


class TestHingeLossFit:
    def test_single_target_zero_band(self):
        # A training target of 100 gives zero hinge anywhere in [0, 5100].
        for c in (0, 1, 2600, 5099, 5100):
            assert hinge_loss([100], c) == 0
        assert hinge_loss([100], 5101) > 0

    def test_fit_single_target(self):
        case = Case("t", "d", "Tax", ValueMap(),
                    ValueMap({"Tax": Money(100), "@truth": 1.0}))
        params = fit_constant_baseline([case])
        assert hinge_loss([100], params.constant_dollars) == 0

    def test_majority_truth_all_true(self):
        cases = [Case(f"c{i}", "d", "§1", ValueMap(), ValueMap({"@truth": 1.0}))
                 for i in range(3)]
        assert fit_constant_baseline(cases).majority_truth == 1.0

    def test_majority_string(self):
        cases = [
            Case("a", "d", "§1", ValueMap(), ValueMap({"Spouse": "Bob", "@truth": 1.0})),
            Case("b", "d", "§1", ValueMap(), ValueMap({"Spouse": "Bob", "@truth": 1.0})),
            Case("c", "d", "§1", ValueMap(), ValueMap({"Spouse": "Eve", "@truth": 1.0})),
        ]
        assert fit_constant_baseline(cases).majority_string == "Bob"

    def test_a_truth_tie_goes_to_true(self):
        cases = [Case(f"c{i}", "d", "§1", ValueMap(), ValueMap({"@truth": truth}))
                 for i, truth in enumerate((0.0, 1.0))]
        assert fit_constant_baseline(cases).majority_truth == 1.0

    def test_a_string_tie_goes_to_the_first_canonical_string(self):
        # "Jan 5, 2017" reads as 2017-01-05, which sorts before "Eve".
        cases = [
            Case("a", "d", "§1", ValueMap(), ValueMap({"Spouse": "Eve", "@truth": 1.0})),
            Case("b", "d", "§1", ValueMap(), ValueMap({"Spouse": "Jan 5, 2017", "@truth": 1.0})),
        ]
        assert fit_constant_baseline(cases).majority_string == "2017-01-05"

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit_constant_baseline([])

    @staticmethod
    def brute_force_minimizer(targets):
        """Exhaustive step-1 scan of [0, 2 max(targets)] with exact integer
        arithmetic: the loss at c, scaled by a common denominator, is
        sum(L / M_i * max(10 |y_i - c| - M_i, 0)) with M_i = max(y_i, 50000)."""
        import math

        scales = [max(y, 50000) for y in targets]
        common = math.lcm(*scales)
        weights = [common // m for m in scales]

        def scaled(c):
            return sum(
                w * max(10 * abs(y - c) - m, 0)
                for y, m, w in zip(targets, scales, weights)
            )

        return min(range(0, 2 * max(targets) + 1), key=lambda c: (scaled(c), c))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=20000), min_size=1, max_size=20))
    def test_matches_brute_force_grid(self, targets):
        cases = [
            Case(f"c{i}", "d", "Tax", ValueMap(), ValueMap({"Tax": Money(y), "@truth": 1.0}))
            for i, y in enumerate(targets)
        ]
        fitted = fit_constant_baseline(cases).constant_dollars
        assert fitted == self.brute_force_minimizer(targets)

    @pytest.mark.parametrize(
        "targets",
        [
            [116066],  # scale grows with the target above $50k
            [60000, 55000],
            [150000, 60000, 3000],
            [50000, 50001],  # straddles the scale switchover
        ],
    )
    def test_matches_brute_force_grid_large_targets(self, targets):
        cases = [
            Case(f"c{i}", "d", "Tax", ValueMap(), ValueMap({"Tax": Money(y), "@truth": 1.0}))
            for i, y in enumerate(targets)
        ]
        fitted = fit_constant_baseline(cases).constant_dollars
        assert fitted == self.brute_force_minimizer(targets)


def fit_dollars(targets):
    cases = [
        Case(f"c{i}", "d", "Tax", ValueMap(), ValueMap({"Tax": Money(y), "@truth": 1.0}))
        for i, y in enumerate(targets)
    ]
    return fit_constant_baseline(cases).constant_dollars


# Above $50,000 a target's band half-width is 10% of it instead of $5,000.
_SWITCH = 50_000


@st.composite
def dollar_lists(draw):
    """Targets with zeros, negatives, duplicates, amounts on both sides of
    the scale switch, and amounts exactly at another target's breakpoints."""
    amount = st.one_of(
        st.integers(-200_000, 200_000),
        st.integers(_SWITCH - 20, _SWITCH + 20),
        st.integers(-_SWITCH - 20, -_SWITCH + 20),
        st.sampled_from([0, 1, -1]),
    )
    base = draw(st.lists(amount, min_size=1, max_size=12))
    at_breakpoints = []
    for y in draw(st.lists(st.sampled_from(base), max_size=4)):
        scale = max(Fraction(abs(y)) / 10, Fraction(5000))
        at_breakpoints += [int(edge) for edge in (y - scale, y + scale) if edge.denominator == 1]
    duplicates = draw(st.lists(st.sampled_from(base), max_size=3))
    return draw(st.permutations(base + at_breakpoints + duplicates))


class TestDollarSweep:
    """The one-pass sweep against the loss evaluated at every candidate."""

    @settings(max_examples=100, deadline=None)
    @given(dollar_lists())
    @example([0])
    @example([-7000])
    @example([120_000])
    @example([100, 5100, 5100])  # a target on another's upper breakpoint
    @example([60_000, 54_000, 66_000])  # both breakpoints of a scaled target
    @example([50_000, 50_001, -50_000, -50_001])
    def test_same_constant_as_brute_force(self, targets):
        assert fit_dollars(targets) == brute_force_constant(targets)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.one_of(st.integers(-70_000, 70_000), st.integers(_SWITCH - 20, _SWITCH + 20)), min_size=1, max_size=4
    ))
    @example([-7000])
    @example([60_005, 73_339])  # a target's upper breakpoint is not whole
    @example([50_001, 50_001, -60_000])
    def test_same_constant_as_every_integer_tried(self, targets):
        # Past max(targets) + its band the loss only grows. Target y adds
        # max(10 |c - y| - m, 0) / m with m = max(|y|, 50000), so the loss
        # times the common multiple of the m is an integer.
        top = max(targets)
        integers = range(max(0, int(top + dollar_band(top))) + 1)
        scales = [max(abs(y), _SWITCH) for y in targets]
        common = math.lcm(*scales)
        losses = [0] * len(integers)
        for y, m in zip(targets, scales):
            losses = [total + common // m * max(10 * abs(c - y) - m, 0) for total, c in zip(losses, integers)]
        assert fit_dollars(targets) == losses.index(min(losses))

    @settings(max_examples=40, deadline=None)
    @given(dollar_lists())
    @example([0])
    @example([100, 5100, 5100])
    def test_losses_equal_hinge_loss_at_every_candidate(self, targets):
        candidates = constant_candidates(targets)
        assert list(hinge_losses(targets, candidates)) == [hinge_loss(targets, c) for c in candidates]

    def test_ties_go_to_the_smallest_candidate(self):
        # Loss is 0 on the whole band [0, 5100]; 0 is the smallest candidate.
        assert fit_dollars([100]) == 0
        # Two far-apart targets: the loss is flat between their bands.
        targets = [0, 40_000]
        fitted = fit_dollars(targets)
        assert fitted == brute_force_constant(targets)
        assert all(hinge_loss(targets, c) > hinge_loss(targets, fitted)
                   for c in constant_candidates(targets) if c < fitted)


def request(layer, text, case, argument, known=ValueMap()):
    """A request over `text` with nothing grounded yet."""
    return ResolveRequest(SubsectionPlan(layer, text, 0.5), known, argument, case)


class TestConstantResolver:
    PARAMS = ConstantBaselineParams(1.0, 42000, "Bob")

    def test_truth_request(self):
        case = Case("x", "d", "§x", ValueMap(), ValueMap({"@truth": 1.0}))
        empty = ArgumentLayer("§x", (), (), ())
        assert ConstantResolver(self.PARAMS).resolve(request(empty, "", case, TRUTH_KEY)) == 1.0

    def test_money_argument(self, corpus):
        layer = corpus.layers["Tax"]
        text = corpus.subsections["Tax"].text
        case = Case("x", "d", "Tax", ValueMap(), ValueMap({"@truth": 1.0}))
        assert ConstantResolver(self.PARAMS).resolve(request(layer, text, case, "Tax")) == Money(42000)

    def test_string_argument(self, corpus):
        layer = corpus.layers["§151(b)"]
        text = corpus.subsections["§151(b)"].text
        case = Case("x", "d", "§151(b)", ValueMap(), ValueMap({"@truth": 1.0}))
        assert ConstantResolver(self.PARAMS).resolve(request(layer, text, case, "Spouse")) == "Bob"

    def test_ignores_case_description(self, corpus):
        layer = corpus.layers["§151(b)"]
        text = corpus.subsections["§151(b)"].text
        resolver = ConstantResolver(self.PARAMS)
        outs = []
        for description in ("nothing here", "Eve paid $999999 on Jan 1"):
            case = Case("x", description, "§151(b)", ValueMap(), ValueMap({"@truth": 1.0}))
            outs.append([resolver.resolve(request(layer, text, case, name)) for name in ("Spouse", "Taxy")])
        assert outs[0] == outs[1]

    @given(texts_with_layers(st.sampled_from(WORDS)), st.sampled_from(["Taxy", "Grossinc", "Spouse"]))
    def test_dollar_arguments_as_first_judged(self, setting, unmentioned):
        text, layer = setting
        plan = SubsectionPlan(layer, text, 0.5)
        for name in [n for n in layer.cluster_names if n not in (None, TRUTH_KEY)] + [unmentioned]:
            expected = oracles.wants_dollars(name, layer, text)
            case = Case("x", "d", "§x", ValueMap(), ValueMap({"@truth": 1.0}))
            answer = ConstantResolver(self.PARAMS).resolve(ResolveRequest(plan, ValueMap(), name, case))
            assert (answer == Money(42000)) == expected

    def test_taxpayer_is_not_a_dollar_argument(self, corpus):
        layer = corpus.layers["§63(c)(5)"]
        text = corpus.subsections["§63(c)(5)"].text
        case = Case("x", "d", "§63(c)(5)", ValueMap(), ValueMap({"@truth": 1.0}))
        resolver = ConstantResolver(self.PARAMS)
        out = {name: resolver.resolve(request(layer, text, case, name)) for name in ("S45", "S44B", "Bassd")}
        assert out["S45"] == "Bob"             # "another taxpayer"
        assert out["S44B"] == Money(42000)     # "a deduction"
        assert out["Bassd"] == Money(42000)    # "the basic standard deduction"


class TestHeuristicResolver:
    def test_finds_the_employee(self, corpus):
        case = next(c for c in corpus.cases if c.id == "3306(a)(1)(B)-positive")
        layer = corpus.layers[case.query]
        text = corpus.subsections[case.query].text
        assert HeuristicResolver().resolve(request(layer, text, case, "Employee", case.inputs)) == "Bob"

    @given(texts_with_layers(st.sampled_from(WORDS)), DESCRIPTIONS, st.sampled_from(["Bob", "Alice"]))
    def test_answers_as_first_written(self, setting, description, known):
        text, layer = setting
        plan = SubsectionPlan(layer, text, 0.5)
        case = Case("x", description, "§x", ValueMap(), ValueMap({"@truth": 1.0}))
        resolver = HeuristicResolver()
        names = [n for n in layer.cluster_names if n not in (None, TRUTH_KEY)] + ["Taxy"]
        for name in names + names:  # the second round reads the kept case features
            request = ResolveRequest(plan, ValueMap({"Spouse": known}), name, case)
            assert resolver.resolve(request) == oracles.resolver_answer(resolver, request, text)
        request = ResolveRequest(plan, ValueMap(), TRUTH_KEY, case)
        assert resolver.resolve(request) == oracles.overlap_score(text, description)

    def test_money_argument_without_amounts_left_absent(self, corpus):
        case = Case("x", "no numbers in this story", "Tax", ValueMap(),
                    ValueMap({"Tax": Money(1), "@truth": 1.0}))
        layer = corpus.layers["Tax"]
        text = corpus.subsections["Tax"].text
        assert HeuristicResolver().resolve(request(layer, text, case, "Tax")) is None

    @pytest.mark.parametrize("description, expected", [
        ("Alice paid $, then $1,200 in 2017.", Money(1200)),
        ("Alice paid $,5 in 2017.", Money(5)),
        ("Alice paid $,, in 2017.", None),
    ])
    def test_a_dollar_sign_without_a_digit_is_no_amount(self, corpus, description, expected):
        case = Case("x", description, "Tax", ValueMap(), ValueMap({"@truth": 1.0}))
        layer, text = corpus.layers["Tax"], corpus.subsections["Tax"].text
        assert HeuristicResolver().resolve(request(layer, text, case, "Tax")) == expected

    def test_an_amount_int_cannot_read_is_no_candidate(self, corpus):
        layer, text = corpus.layers["Tax"], corpus.subsections["Tax"].text
        too_long = "$" + "9" * 4301
        for description, expected in ((too_long, None), (f"{too_long} and $7", Money(7))):
            case = Case("x", description, "Tax", ValueMap(), ValueMap({"@truth": 1.0}))
            assert HeuristicResolver().resolve(request(layer, text, case, "Tax")) == expected

    def test_identical_texts_score_full_truth(self):
        case = Case("x", "the very same words", "§x", ValueMap(), ValueMap({"@truth": 1.0}))
        empty = ArgumentLayer("§x", (), (), ())
        assert HeuristicResolver().resolve(request(empty, "the very same words", case, TRUTH_KEY)) == 1.0

    # Text that meets its neighbours: token characters at either end,
    # letters that lowercase to a token character ("K" is the Kelvin sign)
    # or to more than one character, and a context-dependent final sigma.
    SURFACES = st.one_of(st.sampled_from(["", " ", "a", "7", "$", "x y", "İ", "K", "Σ", "ΑΣ"]), st.text(max_size=3))

    @settings(max_examples=300)
    @given(texts_with_layers(st.sampled_from(WORDS + ["ab", "İ", "$5"]), SURFACES), DESCRIPTIONS, st.data())
    def test_truth_from_pieces_equals_reading_the_grounded_text(self, setting, description, data):
        text, layer = setting
        names = [n for n in layer.cluster_names if n not in (None, TRUTH_KEY)]
        grounding = {n: data.draw(self.SURFACES) for n in names if data.draw(st.booleans())}
        case = Case("x", description, "§x", ValueMap(), ValueMap({"@truth": 1.0}))
        request = ResolveRequest(SubsectionPlan(layer, text, 0.5), ValueMap(), TRUTH_KEY, case, grounding)
        assert HeuristicResolver().resolve(request) == oracles.overlap_score(request.text, case.description)

    def test_a_token_across_a_cut_reads_the_whole_text(self):
        # "a" + "x" ground to the one token "ax", which neither piece holds.
        layer = ArgumentLayer("§x", (Span(1, 2),), ((0,),), ("A",))
        case = Case("x", "ax", "§x", ValueMap(), ValueMap({"@truth": 1.0}))
        request = ResolveRequest(SubsectionPlan(layer, "ab cd", 0.5), ValueMap(), TRUTH_KEY, case, {"A": "x"})
        assert request.text == "ax cd"
        assert HeuristicResolver().resolve(request) == 0.5

    def test_overlap_score_bounds(self):
        def truth(text, description):
            case = Case("x", description, "§x", ValueMap(), ValueMap({"@truth": 1.0}))
            empty = ArgumentLayer("§x", (), (), ())
            return HeuristicResolver().resolve(request(empty, text, case, TRUTH_KEY))

        assert truth("", "anything") == 0.0
        assert 0.0 <= truth("some shared words", "shared words appear") <= 1.0


class TestOracleResolver:
    def test_other_subsections_get_nothing(self, corpus):
        case = next(c for c in corpus.cases if c.id == "tax-case-5")
        empty = ArgumentLayer("§1(d)(iv)", (), (), ())
        assert OracleResolver().resolve(request(empty, "", case, "Tax")) is None
        assert OracleResolver().resolve(request(empty, "", case, TRUTH_KEY)) == 0.0

    def test_query_subsection_reads_gold(self, corpus):
        case = next(c for c in corpus.cases if c.id == "tax-case-5")
        layer = corpus.layers["Tax"]
        assert OracleResolver().resolve(request(layer, "", case, "Tax")) == Money(116066)
