import datetime
import re
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import oracles
from statreason import records
from statreason.model import MAX_NESTING, Money, Span, ValueMap

from generators import ESCAPED_CHARACTERS, MODEL_TEXT_VALUES, MONEY_VALUES, TEXT_VALUES, TRUTH_VALUES, VALUES


class TestScanning:
    def test_typed_atoms(self):
        r = records.parse_record('c1 a="Alice" b=$116066 c=2017 d=true e=2017-02-03 f=0.7')
        assert r.id == "c1"
        assert r.fields["a"] == "Alice"
        assert r.fields["b"] == Money(116066)
        assert r.fields["c"] == 2017
        assert r.fields["d"] == 1.0
        assert r.fields["e"] == datetime.date(2017, 2, 3)
        assert r.fields["f"] == 0.7

    def test_quoted_digits_stay_text(self):
        r = records.parse_record('c1 y="2017"')
        assert r.fields["y"] == "2017"

    def test_lists_pairs_and_labels(self):
        r = records.parse_record('§63(c)(5) spans=[(15, 27), (50, 60)] clusters=[Taxp:[0, 1], [2]]')
        assert r.fields["spans"] == [(15, 27), (50, 60)]
        assert r.fields["clusters"] == [{"Taxp": [0, 1]}, [2]]

    def test_value_map_entries(self):
        r = records.parse_record('c1 inputs=[Taxp="Bob", Bassd=$500]')
        vm = records.as_value_map(r.fields["inputs"], "inputs")
        assert dict(vm) == {"Taxp": "Bob", "Bassd": Money(500)}

    def test_escapes(self):
        r = records.parse_record(r'c1 d="a \"b\" \\ c\nd"')
        assert r.fields["d"] == 'a "b" \\ c\nd'

    def test_unquoted_word_rejected(self):
        with pytest.raises(records.RecordError):
            records.parse_record("c1 a=Alice")

    def test_unterminated_string(self):
        with pytest.raises(records.RecordError):
            records.parse_record('c1 a="oops')

    def test_duplicate_field(self):
        with pytest.raises(records.RecordError):
            records.parse_record('c1 a="x" a="y"')

    @pytest.mark.parametrize("line", ["", " \t"])
    def test_a_line_without_an_id_is_an_empty_record(self, line):
        with pytest.raises(records.RecordError, match="^empty record$"):
            records.parse_record(line)

    def test_signed_money_and_exponent_truth_scores(self):
        r = records.parse_record("c1 a=$-5 b=1e-05 c=5e-324 d=2.5e-310 e=$0")
        assert r.fields == {"a": Money(-5), "b": 1e-05, "c": 5e-324, "d": 2.5e-310, "e": Money(0)}

    @pytest.mark.parametrize("field", ["{}", "${}", "$-{}", "[Big={}]", "[({}, 3)]", "[(3, {})]", "({}, 3"])
    def test_an_integer_past_the_digit_limit_is_an_error_at_its_column(self, field):
        # int() converts at most sys.get_int_max_str_digits() (4,300) digits.
        digits = "9" * 5000
        line = "c1 a=" + field.format(digits)
        end = line.index(digits) + len(digits) + 1
        with pytest.raises(records.RecordError) as exc:
            records.parse_record(line)
        assert re.fullmatch(rf"integer too long \(500[01] characters\) \(column {end}\)", str(exc.value))

    def test_parse_error_carries_its_line(self):
        with pytest.raises(records.RecordError) as exc:
            list(records.iter_records('# header\nc1 a="x"\n\nc2 a=oops\n'))
        assert exc.value.line == 4

    @pytest.mark.parametrize("separator", list(ESCAPED_CHARACTERS[3:]))
    def test_a_line_ends_at_a_newline_only(self, separator):
        # Every other character `str.splitlines` splits at stays in its line,
        # written raw in a comment or inside a string.
        text = f'# a comment {separator} here\nc1 d="a{separator}b"\n'
        [(lineno, record)] = records.iter_records(text)
        assert lineno == 2 and record.fields == {"d": "a" + separator + "b"}

    def test_comments_and_blanks_skipped(self):
        rows = list(records.iter_records('# header\n\nc1 a="x"\n'))
        assert len(rows) == 1 and rows[0][1].id == "c1"


class TestWriting:
    def test_value_round_trip(self):
        values = ["Alice", Money(500), 42, 1.0, 0.0, 0.25, datetime.date(2017, 2, 3),
                  ("Jan 24", "Feb 4")]
        for value in values:
            written = records.write_value(value)
            parsed = records.parse_value_literal(written)
            if isinstance(parsed, list):
                parsed = tuple(parsed)
            assert parsed == value

    def test_value_map_round_trip(self):
        vm = ValueMap({"Taxp": "Bob", "Bassd": Money(500), "@truth": 0.0,
                       "S13A": (4, 5, 9)})
        text = records.write_value_map(vm)
        assert records.as_value_map(records.parse_value_literal(text)) == vm

    @pytest.mark.parametrize(
        "value, written",
        [("Alice", '"Alice"'), (Money(500), "$500"), (Money(-5), "$-5"), (42, "42"), (1.0, "true"),
         (0.0, "false"), (0.25, "0.25"), (1e-05, "1e-05"), (5e-324, "5e-324"),
         (datetime.date(2017, 2, 3), "2017-02-03"), ((4, 5), "[4, 5]"), (-3, "-3"),
         ('tab\t "q" \\ \u00e9\n', '"tab\t \\"q\\" \\\\ \u00e9\\n"'), ("a\rb", '"a\\u000db"')],
    )
    def test_written_forms(self, value, written):
        assert records.write_value(value) == written

    @given(MONEY_VALUES)
    def test_money_round_trip(self, value):
        assert records.parse_value_literal(records.write_value(value)) == value

    @given(TRUTH_VALUES)
    @example(5e-324)
    @example(1e-05)
    @example(2.2250738585072014e-308)
    def test_truth_round_trip(self, value):
        assert records.parse_value_literal(records.write_value(value)) == value

    def test_newlines_escaped(self):
        assert records.write_text("a\nb") == '"a\\nb"'

    @given(VALUES)
    @example(-3)
    @example((-1, 0, 7))
    @example("a\rb\x85c\u2028d\r\n")
    @example(("\u2029", "\\u2028", ""))
    def test_every_value_round_trips(self, value):
        parsed = records.parse_value_literal(records.write_value(value))
        if isinstance(parsed, list):
            parsed = tuple(parsed)
        # repr also tells 1 from 1.0 and "1" from 1.
        assert repr(parsed) == repr(value)

    @given(st.lists(st.one_of(st.none(), TEXT_VALUES, st.from_regex(records._KEY_RE, fullmatch=True)), max_size=4))
    @example(["Tax'p", "Tax", None, "1e-05", "true", "a b", ""])
    def test_every_cluster_label_round_trips(self, names):
        clusters = [[i] for i in range(len(names))]
        parsed = records.parse_value_literal(records.write_clusters(clusters, names))
        assert parsed == [c if name is None else {name: c} for name, c in zip(names, clusters)]

    @given(
        st.lists(st.one_of(MODEL_TEXT_VALUES, st.from_regex(records._KEY_RE, fullmatch=True)), max_size=4, unique=True)
    )
    @example(["Tax'p", "Tax", "1e-05", "true", "a b", "", "a=b", "@truth"])
    def test_every_value_map_key_round_trips(self, keys):
        values = ValueMap(dict.fromkeys(keys, 0.5))
        parsed = records.as_value_map(records.parse_value_literal(records.write_value_map(values)))
        assert list(parsed.items()) == list(values.items())

    @pytest.mark.parametrize("separator", list(ESCAPED_CHARACTERS[2:]))
    def test_line_separators_keep_a_record_on_one_line(self, separator):
        line = f"c1 d={records.write_text('a' + separator + 'b')} e=1"
        assert len(line.splitlines()) == 1
        [(_, record)] = records.iter_records(line + "\n")
        assert record.fields == {"d": "a" + separator + "b", "e": 1}

    def test_impossible_date_is_a_record_error(self):
        with pytest.raises(records.RecordError, match="invalid date '2017-02-30'"):
            records.parse_record("c1 d=2017-02-30")


# What steers the string scan: quotes, backslashes, escape letters, hex
# digits, and the characters that end a value or a field.
SCANNER_CHARACTERS = '"\\nu0aF =[](),:$-'
# What steers the rest of the scan as well: blanks, key characters, signs,
# digits and the letters of true, false and exponents.
EDIT_CHARACTERS = SCANNER_CHARACTERS + '\t@._e19+"tf'
FIXTURES = Path(__file__).parent / "fixtures" / "corpus"
# Every record line of the fixture corpus.
FIXTURE_LINES = sorted(
    line
    for path in [FIXTURES / "spans.txt", FIXTURES / "coref.txt", FIXTURES / "statutes" / "offsets.txt",
                 *FIXTURES.rglob("*.cases")]
    for line in path.read_text(encoding="utf-8").splitlines()
    if line.strip() and not line.startswith("#")
)


def edited(draw, line: str, characters: str = SCANNER_CHARACTERS) -> str:
    """`line` cut, or with characters inserted or deleted, up to three times."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["insert", "delete", "cut"]))
        if edit == "insert":
            line = line[:i] + draw(st.sampled_from(characters)) + line[i:]
        else:
            line = line[:i] + line[i + 1 :] if edit == "delete" else line[:i]
    return line


@st.composite
def record_lines(draw):
    """A record line as the writers emit it, then edited."""
    values = draw(st.lists(st.one_of(TEXT_VALUES, VALUES), min_size=1, max_size=3))
    line = "r " + " ".join(f"f{i}={records.write_value(v)}" for i, v in enumerate(values))
    return edited(draw, line)


KEYS = st.sampled_from(["a", "Taxp", "@truth", "S13A", "x.y-1", "0"])


@st.composite
def item_texts(draw, depth: int = 0) -> str:
    """The text of an item: a value, an entry, a span pair, a group, a list
    of items or a list of entries (a key at times repeated, a value at times
    an item), each of any shape the scanner reads and a few it does not."""
    kind = draw(st.sampled_from(["value", "value", "entry", "pair", "group"] + ["list", "entries"] * (depth < 2)))
    if kind == "value":
        return records.write_value(draw(VALUES))
    if kind == "entries":
        entries = draw(st.lists(st.tuples(KEYS, item_texts(depth + 1)), min_size=1, max_size=3))
        return "[" + ", ".join(f"{key}={value}" for key, value in entries) + "]"
    if kind == "entry":
        return f"{draw(KEYS)}={draw(item_texts(depth + 1))}"
    if kind == "pair":
        start, end = draw(st.sampled_from(["0", "15", "-3", "true", "$5", '"a"'])), draw(st.integers(-2, 99))
        return f"({start},{draw(st.sampled_from(['', ' ', '  ']))}{end})"
    items = ", ".join(draw(st.lists(item_texts(depth + 1), max_size=3)))
    if kind == "group":
        label = draw(st.one_of(KEYS, TEXT_VALUES.map(records.write_text)))
        return f"{label}{draw(st.sampled_from(['', ' ']))}:[{items}]"
    return f"[{items}]"


@st.composite
def structured_lines(draw):
    """A record line of items of every shape, or a line of the fixture
    corpus, then edited with every character the scan turns on."""
    if draw(st.booleans()):
        line = draw(st.sampled_from(FIXTURE_LINES))
    else:
        fields = draw(st.lists(st.tuples(KEYS, item_texts()), min_size=1, max_size=3))
        line = draw(st.sampled_from(["r", "§1(a)", "\tr"])) + "".join(f" {k}={v}" for k, v in fields)
    return edited(draw, line, EDIT_CHARACTERS)


@st.composite
def edited_items(draw):
    return edited(draw, draw(item_texts()), EDIT_CHARACTERS)


def outcome(parse, line: str):
    """The id and fields (by repr, which tells 1 from 1.0, the scanner's
    items given the shapes of `records`) or the error text, column included."""
    try:
        record = parse(line)
    except records.RecordError as exc:
        return "error", str(exc)
    return record.id, repr({key: oracles.item_shapes(value) for key, value in record.fields.items()})


class TestStringScan:
    @given(st.one_of(record_lines(), st.text(SCANNER_CHARACTERS).map(lambda text: 'r a="' + text)))
    @example('r a="unterminated')
    @example('r a="dangling\\')
    @example('r a="\\q"')
    @example('r a="\\u12" b=1')
    @example('r a="\\u00e9\\n\\"\\\\" b="" c=""""')
    def test_same_value_or_error_as_the_character_scan(self, line):
        assert outcome(records.parse_record, line) == outcome(oracles.parse_record_by_chars, line)


def value_map_outcome(read, items):
    try:
        return repr(read(items, "f"))
    except records.RecordError as exc:
        return "error", str(exc)


class TestAgainstTheScannerObject:
    """The scanner functions read every line as the scanner object that they
    replace did, item shapes aside, or fail with the same text and column;
    `as_value_map` reads their items as it read the object's items."""

    @given(st.one_of(structured_lines(), record_lines()))
    @example("r a=[x=1, y=(2, 3), Z:[4], \"w v\" :[5]] b=2017-02-30")
    @example("r a=[@truth=b=1, c=[d=2]] b=(1, true) c=$-0 d=1e+5 e=\u00a0")
    @example("\u00a0r a=1")
    @example("r a = 1 b =2 a=3")
    @example("r a=1 b")
    @example("r a=Taxp:\t[0] b=[,]")
    @example("r a=[x=1, x=2, y=(1, 2)] b=[x=1, y=L:[1]]")
    def test_same_record_or_error(self, line):
        assert outcome(records.parse_record, line) == outcome(oracles.parse_record_by_scanner, line)
        try:
            new, old = records.parse_record(line), oracles.parse_record_by_scanner(line)
        except records.RecordError:
            return
        for key, value in new.fields.items():
            assert value_map_outcome(records.as_value_map, value) == value_map_outcome(
                oracles.as_value_map, old.fields[key]
            )

    @given(edited_items())
    @example("[a=1, a=(1, 2)]")
    @example("[a=[1, B:[2]], @truth=0.5]")
    @example("[@truth=2, b=c=1]")
    @example("x=1 ")
    @example("x=1 y")
    def test_same_value_literal_or_error(self, text):
        def parse(read):
            try:
                return repr(oracles.item_shapes(read(text)))
            except records.RecordError as exc:
                return "error", str(exc)

        assert parse(records.parse_value_literal) == parse(oracles.parse_value_literal_by_scanner)


# Leaves that open no level, even when edited: no "[", "=" or ":" anywhere.
_FLAT = "[=:"
FLAT_LEAVES = st.one_of(
    st.text(st.characters(exclude_characters=_FLAT)), st.integers(), MONEY_VALUES, TRUTH_VALUES, st.dates()
).map(records.write_value)


@st.composite
def nested_lines(draw, depths):
    """A record line whose one field nests an edited leaf, which may be
    empty, `depth` levels deep (a depth drawn from `depths`), each level a
    list among sibling atoms, a labelled group or a key=value entry; and,
    past the bound, the column of the error: just past the opener of level
    MAX_NESTING + 1."""
    depth = draw(depths)
    line, column, close = "r f=", None, []
    sibling = st.lists(st.sampled_from(["1", '"s"', "$2", "true", "(3, 4)"]), max_size=1)
    for level in range(1, depth + 1):
        kind = draw(st.sampled_from(["list", "group", "entry"]))
        opener = "=" if kind == "entry" else "["
        line += {"list": "", "group": f"{draw(KEYS)}:", "entry": draw(KEYS)}[kind] + opener
        if level == MAX_NESTING + 1:
            column = len(line) + 1
        if kind != "entry":
            line += "".join(f"{atom}, " for atom in draw(sibling))
            close.append("".join(f", {atom}" for atom in draw(sibling)) + "]")
    leaf = edited(draw, draw(FLAT_LEAVES), "".join(c for c in EDIT_CHARACTERS if c not in _FLAT))
    return line + leaf + "".join(reversed(close)), column


class TestNesting:
    """Lists, groups and entries nest at most MAX_NESTING levels: up to the
    bound, a line reads as the character scan reads it, item for item and
    error for error; past it, even with nothing inside, it is a RecordError
    at the opener of the first level too many."""

    @given(nested_lines(st.integers(0, MAX_NESTING)))
    def test_up_to_the_bound_as_the_character_scan(self, drawn):
        line, _ = drawn
        assert outcome(records.parse_record, line) == outcome(oracles.parse_record_by_chars, line)

    @given(nested_lines(st.integers(MAX_NESTING + 1, MAX_NESTING + 30)))
    @example(("r f=" + "[" * 101 + "]" * 101, len("r f=") + 102))
    def test_past_the_bound_an_error_at_the_first_level_too_many(self, drawn):
        line, column = drawn
        assert outcome(records.parse_record, line) == ("error", f"nested deeper than 100 levels (column {column})")

    @pytest.mark.parametrize("opener, closer", [("[", "]"), ("L:[", "]"), ('"L" :[', "]"), ("k=", ""), ('"k" =', "")])
    def test_ten_thousand_levels(self, opener, closer):
        line = "r f=" + opener * 10_000 + "1" + closer * 10_000
        column = len("r f=") + 100 * len(opener) + len(opener) + 1
        assert outcome(records.parse_record, line) == ("error", f"nested deeper than 100 levels (column {column})")
        with pytest.raises(records.RecordError, match="nested deeper than 100 levels"):
            records.parse_value_literal(opener * 10_000 + "1" + closer * 10_000)


class TestItemClasses:
    """The scanner's items as the loaders get them, tuples and one-key dicts,
    and how error messages print them: as the record syntax writes them."""

    def test_pair_literal(self):
        pair = records.parse_value_literal("(15, 27)")
        assert pair == (15, 27) and pair != Span(15, 27)
        assert records.item_repr(pair) == "(15, 27)"

    def test_entry(self):
        entry = records.parse_value_literal("Tax=$5")
        assert entry == ("Tax", Money(5))
        assert records.item_repr(entry) == "Tax=$5"

    def test_labeled(self):
        labeled = records.parse_value_literal('A:[0, 1]')
        assert labeled == {"A": [0, 1]} == records.parse_value_literal('"A" :[0, 1]')
        assert records.item_repr(labeled) == "A:[0, 1]"
        assert records.item_repr([labeled, ("k", [(1, 2)]), "s"]) == '[A:[0, 1], k=[(1, 2)], "s"]'
        assert records.item_repr({"a b": [("@truth", 2017)]}) == '"a b":[@truth=2017]'

    @given(st.one_of(item_texts(), edited_items()))
    @example('[0, A:[1]]')
    @example('"a b"=[2017-02-03, "x", (-3, 4), L:[true, 0.25, 2.5, $-5]]')
    def test_every_item_reads_back_from_its_repr(self, text):
        # By repr, which tells 1 from 1.0 and 1.0 from True.
        try:
            item = records.parse_value_literal(text)
        except records.RecordError:
            return
        assert repr(records.parse_value_literal(records.item_repr(item))) == repr(item)

    def test_items_are_immutable(self):
        with pytest.raises(AttributeError, match="cannot assign to field 'id'"):
            records.parse_record("r a=1").id = "b"
        with pytest.raises(TypeError):
            records.parse_value_literal("a=1")[0] = "b"

    def test_reprs_in_error_messages(self):
        with pytest.raises(records.RecordError) as exc:
            records.as_value_map(records.parse_value_literal('[a=[b=1]]'), "inputs")
        assert str(exc.value) == "inputs: unexpected structured item b=1 in a value list"
        with pytest.raises(records.RecordError) as exc:
            records.as_value_map(records.parse_value_literal('[A:[0, 1]]'), "inputs")
        assert str(exc.value) == "inputs: expected key=value entries, found A:[0, 1]"
        with pytest.raises(records.RecordError) as exc:
            records.as_value_map(records.parse_value_literal('[a=1, "b c"=d=$5]'), "inputs")
        assert str(exc.value) == 'inputs: argument "b c" holds d=$5, which is not a value'
