import datetime

import pytest
from hypothesis import example, given

from statreason import records
from statreason.model import Money, ValueMap

from generators import ESCAPED_CHARACTERS, MONEY_VALUES, TRUTH_VALUES, VALUES


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
