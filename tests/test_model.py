import datetime
import re
import sys

import pytest
from hypothesis import given
import hypothesis.strategies as st

from statreason.corpus import load_cases, serialize_cases
from statreason.model import (
    ArgumentLayer,
    Case,
    Money,
    Span,
    Subsection,
    ValueMap,
    canonical_partition,
    check_id,
    check_text,
    check_value,
    components,
    family_of,
    layer_of,
    value_kind,
)
from statreason.rules import Rule
from statreason.sara_import import matrix_to_clusters

from generators import SUBCLASSED_VALUES


def layer(spans, clusters, names=()):
    return ArgumentLayer("§x", tuple(Span(a, b) for a, b in spans), tuple(clusters), tuple(names))


CHECKS = pytest.mark.parametrize(
    "check", [check_value, lambda value: ValueMap({"x": value})], ids=["check_value", "ValueMap"]
)


class TestValues:
    def test_kinds(self):
        assert value_kind("Alice") == "text"
        assert value_kind(Money(500)) == "money"
        assert value_kind(42) == "number"
        assert value_kind(0.5) == "truth"
        assert value_kind(datetime.date(2017, 2, 3)) == "date"
        assert value_kind(("a", "b")) == "list"

    @pytest.mark.parametrize(
        "name, gold, family",
        [
            ("@truth", 1.0, "truth"),
            ("Tax", Money(500), "dollar"),
            ("Week", 42, "string"),
            ("Date", datetime.date(2017, 2, 3), "string"),
            ("Spouse", "Alice", "string"),
            ("Children", ("Bob", "Cat"), "string"),
        ],
    )
    def test_family_of(self, name, gold, family):
        assert family_of(name, gold) == family

    def test_truth_range_enforced(self):
        with pytest.raises(ValueError):
            ValueMap({"@truth": 1.5})

    def test_truth_key_must_be_score(self):
        with pytest.raises(ValueError):
            ValueMap({"@truth": "yes"})

    def test_heterogeneous_list_rejected(self):
        with pytest.raises(ValueError):
            ValueMap({"xs": ("a", 1)})

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            ValueMap([("a", 1), ("a", 2)])

    @CHECKS
    @pytest.mark.parametrize("value", SUBCLASSED_VALUES, ids=lambda value: type(value).__name__)
    def test_subclassed_value_types_are_refused(self, check, value):
        with pytest.raises(ValueError) as exc:
            check(value)
        assert str(exc.value) == f"unsupported value type: {type(value).__name__}"

    @CHECKS
    def test_booleans_keep_their_own_message(self, check):
        with pytest.raises(ValueError) as exc:
            check(True)
        assert str(exc.value) == "booleans are not values; encode truth as a score in [0, 1]"

    def test_lookups(self):
        values = ValueMap({"a": 1})
        assert "a" in values and "b" not in values
        assert values.get("a") == 1 and values.get("b") is None and values.get("b", 2) == 2


class TestSpan:
    def test_bounds(self):
        with pytest.raises(ValueError):
            Span(3, 3)
        with pytest.raises(ValueError):
            Span(-1, 2)

    def test_slice_out_of_range(self):
        with pytest.raises(ValueError):
            Span(0, 10).slice("short")


class TestArgumentLayer:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            layer([(0, 1), (2, 3)], [(0,)])
        with pytest.raises(ValueError):
            layer([(0, 1), (2, 3)], [(0, 1), (1,)])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            layer([(0, 5), (3, 8)], [(0,), (1,)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            layer([(0, 1), (2, 3)], [(0,), (1,)], ["A", "A"])

    def test_names_parallel_clusters(self):
        with pytest.raises(ValueError, match="^cluster_names must parallel clusters$"):
            layer([(0, 1), (2, 3)], [(0,), (1,)], ["A"])

    def test_named_clusters_first_mention_order(self):
        l = layer([(0, 1), (2, 3), (4, 5)], [(1,), (0, 2)], ["B", "A"])
        assert l.labelled_clusters == (("A", (0, 2)), ("B", (1,)))

    def test_labelled_clusters_skip_unnamed_and_leave_equality_alone(self):
        l = layer([(0, 1), (2, 3), (4, 5)], [(2,), (0,), (1,)], ["C", None, "B"])
        assert l.labelled_clusters == (("B", (1,)), ("C", (2,)))
        assert l == layer([(0, 1), (2, 3), (4, 5)], [(0,), (1,), (2,)], [None, "B", "C"])
        assert layer([(0, 1)], [(0,)]).labelled_clusters == ()

    def test_layer_of_falls_back_to_an_empty_layer(self):
        known = layer([(0, 1)], [(0,)], ["A"])
        assert layer_of({"§x": known}, "§x") is known
        assert layer_of({"§x": known}, "§y") == ArgumentLayer("§y", (), (), ())


def coreference_matrix(n, clusters):
    """The n x n coreference matrix of a partition of span indices."""
    matrix = [[0] * n for _ in range(n)]
    for cluster in clusters:
        for i in cluster:
            for j in cluster:
                matrix[i][j] = 1
    return matrix


class TestMatrices:
    def test_two_singletons(self):
        assert matrix_to_clusters([[1, 0], [0, 1]]) == ((0,), (1,))

    def test_appendix_style_linked_rows(self):
        # 8 spans, spans 0 and 3 coreferent.
        m = [[1 if i == j or {i, j} == {0, 3} else 0 for j in range(8)] for i in range(8)]
        assert sum(sum(row) for row in m) == 8 + 2
        assert matrix_to_clusters(m) == ((0, 3), (1,), (2,), (4,), (5,), (6,), (7,))

    def test_single_span(self):
        assert matrix_to_clusters([[1]]) == ((0,),)

    def test_matrix_to_clusters_identity(self):
        assert matrix_to_clusters([[1, 0], [0, 1]]) == ((0,), (1,))
        assert matrix_to_clusters([[1, 1], [1, 1]]) == ((0, 1),)

    def test_twelve_by_twelve(self):
        linked = {(0, 5), (0, 8), (0, 9), (5, 8), (5, 9), (8, 9), (6, 10)}
        m = [[1 if i == j or (min(i, j), max(i, j)) in linked else 0 for j in range(12)]
             for i in range(12)]
        assert matrix_to_clusters(m) == (
            (0, 5, 8, 9), (1,), (2,), (3,), (4,), (6, 10), (7,), (11,),
        )

    def test_transitive_closure_applied(self):
        m = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        assert matrix_to_clusters(m) == ((0, 1, 2),)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            matrix_to_clusters([[1, 1], [0, 1]])
        with pytest.raises(ValueError):
            matrix_to_clusters([[0]])


@st.composite
def partitions(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    labels = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n))
    groups = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return n, canonical_partition(groups.values())


@given(partitions())
def test_partition_matrix_round_trip(case):
    n, clusters = case
    matrix = coreference_matrix(n, clusters)
    assert matrix_to_clusters(matrix) == clusters
    # The induced matrix is symmetric with unit diagonal and transitively closed.
    for i in range(n):
        assert matrix[i][i] == 1
        for j in range(n):
            assert matrix[i][j] == matrix[j][i]
            for k in range(n):
                if matrix[i][j] and matrix[j][k]:
                    assert matrix[i][k]


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    node = st.integers(min_value=0, max_value=max(n - 1, 0))
    return n, draw(st.lists(st.tuples(node, node), max_size=20 if n else 0))


@given(graphs())
def test_components_match_the_transitive_closure(case):
    n, links = case
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in links:
        reach[i][j] = reach[j][i] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    closure = []
    for i in range(n):
        if not any(i in c for c in closure):
            closure.append([j for j in range(n) if reach[i][j]])
    assert components(n, links) == closure


class TestValueMapIsAReadOnlyDict:
    @pytest.mark.parametrize(
        "change",
        [
            lambda vm: vm.__setitem__("b", 2), lambda vm: vm.__delitem__("a"), lambda vm: vm.__ior__({}),
            lambda vm: vm.clear(), lambda vm: vm.pop("a"), lambda vm: vm.popitem(),
            lambda vm: vm.setdefault("b", 2), lambda vm: vm.update(b=2),
        ],
        ids=["setitem", "delitem", "ior", "clear", "pop", "popitem", "setdefault", "update"],
    )
    def test_every_mutator_raises(self, change):
        vm = ValueMap({"a": 1})
        with pytest.raises(TypeError, match="^a ValueMap cannot be changed$"):
            change(vm)
        assert vm == {"a": 1}

    def test_copies_are_plain_dicts(self):
        vm = ValueMap({"a": 1, "@truth": 1.0})
        for copy in (dict(vm), vm | {}, vm.copy()):
            assert type(copy) is dict and copy == {"a": 1, "@truth": 1.0}
        assert vm == {"a": 1, "@truth": 1.0} and isinstance(vm, dict)

    def test_hash_agrees_with_equality(self):
        a, b = ValueMap([("a", 1), ("b", 2)]), ValueMap([("b", 2), ("a", 1)])
        assert a == b and hash(a) == hash(b)
        c1 = Case("c", "d", "§1", a, ValueMap({"@truth": 1.0}))
        c2 = Case("c", "d", "§1", b, ValueMap({"@truth": 1.0}))
        assert c1 == c2 and c2 in {c1}


class TestCase_:
    def test_kind_numerical(self):
        c = Case("x", "d", "Tax", ValueMap(), ValueMap({"Tax": Money(1), "@truth": 1.0}))
        assert c.kind == "numerical"

    def test_kind_binary(self):
        c = Case("x", "d", "§1", ValueMap(), ValueMap({"@truth": 1.0}))
        assert c.kind == "binary"

    def test_pair_id(self):
        c = Case("63(c)(5)-negative", "d", "§63(c)(5)", ValueMap(), ValueMap({"@truth": 0.0}))
        assert c.pair_id == "63(c)(5)"
        c = Case("tax-case-5", "d", "Tax", ValueMap(), ValueMap({"@truth": 1.0}))
        assert c.pair_id is None

    def test_some_value_is_expected(self):
        with pytest.raises(ValueError, match="^expected values must be non-empty$"):
            Case("x", "d", "§1", ValueMap(), ValueMap())

    def test_a_binary_case_expects_truth(self):
        with pytest.raises(ValueError, match="^binary cases must expect @truth$"):
            Case("x", "d", "§1", ValueMap(), ValueMap({"Spouse": "Bob"}))
        assert Case("x", "d", "Tax", ValueMap(), ValueMap({"Tax": Money(1)})).kind == "numerical"

    def test_checks_run_in_the_loaders_order(self):
        # Non-empty first, then id, text and split, then @truth.
        for expected, split, message in (
            (ValueMap(), "a b", "^expected values must be non-empty$"),
            (ValueMap({"Spouse": "Bob"}), "train", "^malformed id '#x'"),
        ):
            with pytest.raises(ValueError, match=message):
                Case("#x", "d", "§1", ValueMap(), expected, split)
        with pytest.raises(ValueError, match="^split 'a b': "):
            Case("x", "d", "§1", ValueMap(), ValueMap({"Spouse": "Bob"}), "a b")


class TestWhatAFileCanHold:
    # Every character str.isspace accepts, which covers every separator
    # str.splitlines splits on.
    SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]

    @pytest.mark.parametrize("name", ["", "#a", "\ufeffa", "a b", *(f"a{space}b" for space in SPACES), "a\ud800"])
    def test_ids_a_record_cannot_carry_are_refused(self, name):
        for make in (
            check_id,
            lambda n: Case(n, "d", "§1", ValueMap(), ValueMap({"@truth": 1.0})),
            lambda n: Subsection(n, "text"),
            lambda n: ArgumentLayer(n, (), (), ()),
        ):
            with pytest.raises(ValueError):
                make(name)

    def test_ids_keep_everything_else(self):
        for name in ("a#", "§1(a)", "a=b", '"a"', "\x00", "é", "a\ufeff"):
            assert check_id(name) == name

    def test_subsection_ids_keep_their_shape_rule(self):
        for name in ("§1(d)()", "(a)", "§1(d", "§1((a))"):
            with pytest.raises(ValueError, match=r"^malformed subsection id "):
                Subsection(name, "text")

    def test_text_that_utf8_cannot_encode_is_refused_where_it_enters(self):
        lone = "B\ud800ob"
        with pytest.raises(UnicodeEncodeError):
            check_text(lone)
        for make in (
            lambda: Case("c", lone, "§1", ValueMap(), ValueMap({"@truth": 1.0})),
            lambda: Case("c", "d", lone, ValueMap(), ValueMap({"@truth": 1.0})),
            lambda: Subsection("§1", lone),
            lambda: ArgumentLayer("§1", (Span(0, 1),), ((0,),), (lone,)),
            lambda: ValueMap({lone: 1.0}),
            lambda: ValueMap({"x": lone}),
            lambda: ValueMap({"x": ("a", lone)}),
        ):
            with pytest.raises(ValueError, match="can't encode"):
                make()

    def test_integers_past_the_digit_limit_are_refused(self, tmp_path):
        # The reader reads and the writer writes at most
        # sys.get_int_max_str_digits() digits, so a value holds no more.
        digits = sys.get_int_max_str_digits()
        assert digits, "the interpreter sets no limit"
        longest = 10**digits - 1
        for value in (longest, -longest):
            check_value(value)
            values = ValueMap({"X": value, "y": Money(value), "z": (value,), "@truth": 1.0})
            case = Case("a", "d", "Q", ValueMap(), values, "test")
            (tmp_path / "test.cases").write_text(serialize_cases([case]), encoding="utf-8")
            assert load_cases(tmp_path, {"Q": Rule("Q", ())}) == [case]
        for value in (longest + 1, -longest - 1, 10**5000):
            for make in (check_value, lambda v: ValueMap({"X": v}), lambda v: ValueMap({"X": (1, v)}), Money):
                with pytest.raises(ValueError, match=rf"^integer too long \(more than {digits} digits\)$"):
                    make(value)

    def test_subsection_text_holds_no_carriage_return(self):
        with pytest.raises(ValueError, match="a section file cannot hold"):
            Subsection("§1", "a\rb")
        assert Subsection("§1", "a\nb\u2028").text == "a\nb\u2028"

    def test_subsection_text_starts_with_no_byte_order_mark(self):
        # The first subsection of a section file starts it.
        with pytest.raises(ValueError, match=r"^subsection §1: text starts with a byte order mark \(U\+FEFF\)$"):
            Subsection("§1", "\ufeffa")
        assert Subsection("§1", "a\ufeff").text == "a\ufeff"

    def test_subsection_text_is_not_empty(self):
        # An offsets record has start < end, so it cannot slice empty text.
        with pytest.raises(ValueError, match=r"^subsection §1: empty text, which no offsets record can slice$"):
            Subsection("§1", "")

    @pytest.mark.parametrize("split", ["a/b", "/", "a\x00b", "all", "", "a b", "#a", "a\ud800"])
    def test_splits_that_cannot_name_a_cases_file_are_refused(self, split):
        # cases/<split>.cases carries the split back: a path separator, a
        # NUL or "all" (every split) cannot, nor an id no record could hold.
        with pytest.raises(ValueError, match=f"^split {re.escape(repr(split))}: "):
            Case("c", "d", "§1", ValueMap(), ValueMap({"@truth": 1.0}), split)

    def test_splits_keep_everything_else(self):
        for split in ("train", "silver", "All", ".", "..", "a.b", "x.cases", "a#", "é"):
            assert Case("c", "d", "§1", ValueMap(), ValueMap({"@truth": 1.0}), split).split == split


class TestReprEqualityAndHash:
    """As the frozen dataclasses these classes replace had them: repr shows
    the fields by name, equality needs the same class, the hash is that of
    the fields' tuple, and fields cannot be assigned."""

    def test_money(self):
        assert repr(Money(5)) == "Money(dollars=5)" and repr(Money(-3)) == "Money(dollars=-3)"
        assert Money(5) == Money(5) and Money(5) != Money(6)
        assert Money(5) != (5,) and Money(5) != 5
        assert hash(Money(5)) == hash((5,))

    def test_money_message_and_truth_message(self):
        with pytest.raises(ValueError, match=r"^money must be an integer dollar amount, got 2\.5$"):
            Money(2.5)
        with pytest.raises(ValueError, match=r"^@truth must hold a truth score, got Money\(dollars=1\)$"):
            ValueMap({"@truth": Money(1)})

    def test_span(self):
        span = Span(1, 2)
        assert repr(span) == "Span(start=1, end=2)"
        assert span == Span(1, 2) and span != Span(1, 3)
        assert span != (1, 2)
        assert hash(span) == hash((1, 2))

    def test_span_in_layer_message(self):
        with pytest.raises(ValueError) as exc:
            layer([(0, 4), (2, 5)], [(0,), (1,)])
        assert str(exc.value) == "§x: spans out of order or overlapping: Span(start=0, end=4), Span(start=2, end=5)"

    def test_argument_layer(self):
        l = ArgumentLayer("§1", (Span(0, 3), Span(4, 9)), ((1,), (0,)), ("B", "A"))
        assert repr(l) == (
            "ArgumentLayer(subsection_id='§1', spans=(Span(start=0, end=3), Span(start=4, end=9)), "
            "clusters=((0,), (1,)), cluster_names=('A', 'B'))"
        )
        assert l == ArgumentLayer("§1", (Span(0, 3), Span(4, 9)), ((0,), (1,)), ("A", "B"))
        assert l != ArgumentLayer("§2", (Span(0, 3), Span(4, 9)), ((0,), (1,)), ("A", "B"))
        assert hash(l) == hash(("§1", (Span(0, 3), Span(4, 9)), ((0,), (1,)), ("A", "B")))

    def test_case(self):
        c = Case("c1", "Alice earned $5.", "§1", ValueMap({"Taxp": "Alice"}), ValueMap({"@truth": 1.0}), "test")
        assert repr(c) == (
            "Case(id='c1', description='Alice earned $5.', query='§1', inputs=ValueMap(Taxp='Alice'), "
            "expected=ValueMap(@truth=1.0), split='test')"
        )
        assert c == Case("c1", "Alice earned $5.", "§1", ValueMap({"Taxp": "Alice"}), ValueMap({"@truth": 1.0}), "test")
        assert c != Case("c1", "Alice earned $5.", "§1", ValueMap({"Taxp": "Alice"}), ValueMap({"@truth": 1.0}))
        assert hash(c) == hash(("c1", "Alice earned $5.", "§1", c.inputs, c.expected, "test"))

    def test_fields_cannot_be_assigned(self):
        for value, name in ((Money(5), "dollars"), (Span(1, 2), "start"), (layer([(0, 1)], [(0,)]), "spans")):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
