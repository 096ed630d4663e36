import datetime

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import oracles
from statreason import records
from statreason.model import Money, Span, ValueMap

from generators import ESCAPED_CHARACTERS, MONEY_VALUES, TEXT_VALUES, TRUTH_VALUES, VALUES


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
        assert r.fields["spans"] == [records.PairLit(15, 27), records.PairLit(50, 60)]
        assert r.fields["clusters"] == [records.Labeled("Taxp", [0, 1]), [2]]

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

    def test_signed_money_and_exponent_truth_scores(self):
        r = records.parse_record("c1 a=$-5 b=1e-05 c=5e-324 d=2.5e-310 e=$0")
        assert r.fields == {"a": Money(-5), "b": 1e-05, "c": 5e-324, "d": 2.5e-310, "e": Money(0)}

    def test_parse_error_carries_its_line(self):
        with pytest.raises(records.RecordError) as exc:
            list(records.iter_records('# header\nc1 a="x"\n\nc2 a=oops\n'))
        assert exc.value.line == 4

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


@st.composite
def record_lines(draw):
    """A record line as the writers emit it, then cut, or with characters
    inserted or deleted, up to three times."""
    values = draw(st.lists(st.one_of(TEXT_VALUES, VALUES), min_size=1, max_size=3))
    line = "r " + " ".join(f"f{i}={records.write_value(v)}" for i, v in enumerate(values))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["insert", "delete", "cut"]))
        if edit == "insert":
            line = line[:i] + draw(st.sampled_from(SCANNER_CHARACTERS)) + line[i:]
        else:
            line = line[:i] + line[i + 1 :] if edit == "delete" else line[:i]
    return line


def outcome(parse, line: str):
    """The id and fields (by repr, which tells 1 from 1.0) or the error text,
    column included."""
    try:
        record = parse(line)
    except records.RecordError as exc:
        return "error", str(exc)
    return record.id, repr(record.fields)


class TestStringScan:
    @given(st.one_of(record_lines(), st.text(SCANNER_CHARACTERS).map(lambda text: 'r a="' + text)))
    @example('r a="unterminated')
    @example('r a="dangling\\')
    @example('r a="\\q"')
    @example('r a="\\u12" b=1')
    @example('r a="\\u00e9\\n\\"\\\\" b="" c=""""')
    def test_same_value_or_error_as_the_character_scan(self, line):
        assert outcome(records.parse_record, line) == outcome(oracles.parse_record_by_chars, line)


class TestItemClasses:
    """Repr, equality and hashing as the frozen dataclasses they replace had
    them; error messages print items by repr."""

    def test_pair_literal(self):
        pair = records.PairLit(15, 27)
        assert repr(pair) == "PairLit(start=15, end=27)"
        assert pair == records.PairLit(15, 27) and pair != records.PairLit(15, 28)
        assert pair != (15, 27) and pair != Span(15, 27)
        assert hash(pair) == hash((15, 27))

    def test_entry(self):
        entry = records.Entry("Tax", Money(5))
        assert repr(entry) == "Entry(key='Tax', value=Money(dollars=5))"
        assert entry == records.Entry("Tax", Money(5)) and entry != records.Entry("Tax", 5)
        assert entry != ("Tax", Money(5))
        assert hash(entry) == hash(("Tax", Money(5)))

    def test_labeled(self):
        labeled = records.Labeled("A", [0, 1])
        assert repr(labeled) == "Labeled(label='A', items=[0, 1])"
        assert labeled == records.Labeled("A", [0, 1]) and labeled != records.Labeled(None, [0, 1])
        with pytest.raises(TypeError):
            hash(labeled)

    def test_items_are_immutable(self):
        with pytest.raises(AttributeError, match="cannot assign to field 'key'"):
            records.Entry("a", 1).key = "b"

    def test_reprs_in_error_messages(self):
        with pytest.raises(records.RecordError) as exc:
            records.as_value_map(records.parse_value_literal('[a=[b=1]]'), "inputs")
        assert str(exc.value) == "inputs: unexpected structured item Entry(key='b', value=1) in a value list"
        with pytest.raises(records.RecordError) as exc:
            records.as_value_map(records.parse_value_literal('[A:[0, 1]]'), "inputs")
        assert str(exc.value) == "inputs: expected key=value entries, found Labeled(label='A', items=[0, 1])"
