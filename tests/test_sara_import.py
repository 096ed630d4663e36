import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from statreason import records
from statreason.cli import main
from statreason.corpus import load_corpus
from statreason.model import Money
from statreason.sara_import import file_stem_to_id, import_corpus

from generators import corpora
from layouts import write_distributed
from test_corruption import corruptions, run


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def malformed_id(name: str) -> str:
    """The model's message for an id that a record cannot carry bare."""
    return f"malformed id {name!r}: an id is non-empty, holds no whitespace and starts with no '#'"


def write_distributed_fixture(corpus, root: Path) -> None:
    """The fixture corpus in the distributed layout: its layers, cases and
    splits as `write_distributed` writes them, and the fixture's own section
    files, their offsets (which leave text between subsections) and its
    commented `structure.txt`."""
    write_distributed(corpus, root)
    shutil.rmtree(root / "statutes")
    statutes = corpus.manifest.statutes
    offsets: dict[str, list[str]] = {}
    for _, record in records.iter_records((statutes / "offsets.txt").read_text(encoding="utf-8")):
        name = record.fields["file"]
        offsets.setdefault(name, []).append(f"{record.id} {record.fields['start']} {record.fields['end']}\n")
    for name, lines in offsets.items():
        write(root / "statutes" / name, (statutes / name).read_text(encoding="utf-8"))
        write(root / "statutes" / Path(name).with_suffix(".offsets"), "".join(lines))
    shutil.copyfile(corpus.manifest.structure, root / "structure.txt")


def make_distributed_tree(root: Path) -> None:
    text = "(iv) $31,172, plus 36% of the excess if the taxable income is large;"
    write(root / "statutes" / "section1.txt", text)
    write(root / "statutes" / "section1.offsets", f"§1(d)(iv) 0 {len(text)}\n")

    # Spans: the formula and "the taxable income".
    a0, a1 = text.index("$31,172"), text.index("the taxable income")
    write(root / "spans" / "1_d_iv", f"{a0} {a0 + 7}\n{a1} {a1 + 18}\n")
    write(root / "coref" / "1_d_iv", "1 0\n0 1\n")
    write(root / "coref" / "1_d_iv.names", "0 Tax\n1 Taxinc\n")

    write(root / "structure.txt", "§1(d)(iv)(Tax, Taxinc).\n")

    write(
        root / "cases" / "case-1-positive",
        "% Text\nAlice's taxable income is $150000.\n"
        "% Question\n§1(d)(iv)\n"
        "% Input\nTaxinc=$150000\n"
        "% Output\nTax=$43772\n@truth=true\n",
    )
    write(root / "splits" / "train.txt", "case-1-positive\n")
    write(root / "splits" / "test.txt", "")


class TestStemMapping:
    def test_stems_name_subsections(self):
        for stem, sid in (
            ("1_d_iv", "§1(d)(iv)"), ("63_c_5_A", "§63(c)(5)(A)"), ("3306_a_1_B", "§3306(a)(1)(B)"), ("Tax", "Tax")
        ):
            assert file_stem_to_id(stem) == sid


class TestImport:
    def test_synthetic_tree_imports_and_validates(self, tmp_path):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        log = import_corpus(source, dest)
        assert not log.skipped
        corpus = load_corpus(dest / "manifest.txt")
        assert corpus.layers["§1(d)(iv)"].cluster_names == ("Tax", "Taxinc")
        case = corpus.cases[0]
        assert case.split == "train"
        assert case.expected["Tax"] == Money(43772)
        assert case.inputs["Taxinc"] == Money(150000)

    def test_unreadable_records_are_skipped_and_logged(self, tmp_path):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "spans" / "9_z", "not numbers\n")
        write(source / "cases" / "broken", "% Text\nno question block\n")
        log = import_corpus(source, dest)
        messages = "\n".join(log.skipped)
        assert "9_z" in messages
        assert "broken" in messages
        # The good records still made it through.
        corpus = load_corpus(dest / "manifest.txt")
        assert len(corpus.cases) == 1

    def test_bad_values_skip_the_case(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        case = "% Text\nAlice.\n% Question\n§1(d)(iv)\n"
        write(source / "cases" / "repeated-input", case + "% Input\nx=1\nx=2\n% Output\n@truth=1.0\n")
        write(source / "cases" / "truth-out-of-range", case + "% Output\n@truth=1.5\n")
        assert main(["import-sara", "--source", str(source), "--dest", str(dest)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert "skipped cases/repeated-input: Input: duplicate argument name: 'x'" in err
        assert "skipped cases/truth-out-of-range: Output: truth score out of [0, 1]: 1.5" in err
        assert [c.id for c in load_corpus(dest / "manifest.txt").cases] == ["case-1-positive"]

    @pytest.mark.parametrize("relative", ["cases/case-1-positive", "statutes/section1.offsets", "coref/1_d_iv.names"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, capsys, relative):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        path = source / relative
        lines = path.read_bytes().split(b"\n")
        lines[1 if relative.startswith("cases") else 0] += b" Al\xffice"
        path.write_bytes(b"\n".join(lines))
        assert main(["import-sara", "--source", str(source), "--dest", str(dest)]) == 1
        line = 2 if relative.startswith("cases") else 1
        assert capsys.readouterr().err == f"{path}:{line}: not UTF-8: invalid start byte (byte 0xff)\n"

    @pytest.mark.parametrize("name", ["case 2", "#case3"], ids=["whitespace", "comment"])
    def test_case_ids_that_would_not_read_back_are_skipped(self, tmp_path, name):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "cases" / name, (source / "cases" / "case-1-positive").read_text(encoding="utf-8"))
        log = import_corpus(source, dest)
        assert log.skipped == [f"cases/{name}: {malformed_id(name)}"]
        assert f"cases/{name}" not in log.imported
        corpus = load_corpus(dest / "manifest.txt")
        assert [c.id for c in corpus.cases] == ["case-1-positive"]

    def test_case_files_whose_names_are_not_utf8_are_skipped(self, tmp_path, capsys):
        # Python names such a file with a lone surrogate, which no case id
        # can hold, so the case is skipped, not written.
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        (source / "cases" / os.fsdecode(b"case\xff")).write_bytes((source / "cases" / "case-1-positive").read_bytes())
        log = import_corpus(source, dest)
        message = "'utf-8' codec can't encode character '\\udcff' in position 4: surrogates not allowed"
        assert log.skipped == [f"cases/case\udcff: {message}"]
        self.assert_validates(dest, capsys)

    def test_skips_naming_files_that_are_not_utf8_reach_a_strict_stderr(self, tmp_path, capsys):
        # capsys's stderr encodes strictly; the lone surrogate goes out
        # backslash-escaped, as the interpreter's own stderr writes it.
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        (source / "cases" / os.fsdecode(b"case\xff")).write_bytes((source / "cases" / "case-1-positive").read_bytes())
        assert main(["import-sara", "--source", str(source), "--dest", str(dest)]) == 0
        message = "'utf-8' codec can't encode character '\\udcff' in position 4: surrogates not allowed"
        assert capsys.readouterr().err == f"skipped cases/case\\udcff: {message}\n"

    def test_subsection_ids_that_would_not_read_back_are_skipped(self, tmp_path):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        for stem in ("#Tax", "Tax rate"):
            write(source / "spans" / stem, "0 4\n")
        offsets = source / "statutes" / "section1.offsets"
        offsets.write_text(offsets.read_text(encoding="utf-8") + "#Tax 0 4\n", encoding="utf-8")
        log = import_corpus(source, dest)
        assert sorted(log.skipped) == [
            f"spans/#Tax: {malformed_id('#Tax')}",
            f"spans/Tax rate: {malformed_id('Tax rate')}",
            f"statutes/section1.offsets:2: {malformed_id('#Tax')}",
        ]
        corpus = load_corpus(dest / "manifest.txt")
        assert list(corpus.layers) == list(corpus.subsections) == ["§1(d)(iv)"]

    def test_cli_wrapper(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        assert main(["import-sara", "--source", str(source), "--dest", str(dest)]) == 0
        assert "manifest.txt" in capsys.readouterr().out

    @staticmethod
    def assert_validates(dest, capsys):
        capsys.readouterr()
        assert main(["validate", "--manifest", str(dest / "manifest.txt")]) == 0, capsys.readouterr().err

    def test_malformed_subsection_ids_are_skipped(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        offsets = source / "statutes" / "section1.offsets"
        offsets.write_text(offsets.read_text(encoding="utf-8") + "§1(d)() 0 4\n", encoding="utf-8")
        write(source / "spans" / "1_d_", "0 4\n")
        log = import_corpus(source, dest)
        assert sorted(log.skipped) == [
            "spans/1_d_: unknown subsection §1(d)()",
            "statutes/section1.offsets:2: malformed subsection id '§1(d)()'",
        ]
        assert "statutes/section1.offsets:2" not in log.imported
        self.assert_validates(dest, capsys)

    def test_layers_of_subsections_not_imported_are_skipped(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "spans" / "9_z", "0 4\n")
        log = import_corpus(source, dest)
        assert log.skipped == ["spans/9_z: unknown subsection §9(z)"]
        assert "spans/9_z" not in log.imported
        self.assert_validates(dest, capsys)

    def test_a_layer_without_a_matrix_imports_with_singletons(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        for name in ("1_d_iv", "1_d_iv.names"):
            (source / "coref" / name).unlink()
        log = import_corpus(source, dest)
        assert log.skipped == []
        assert "spans/1_d_iv" in log.imported
        self.assert_validates(dest, capsys)
        assert load_corpus(dest / "manifest.txt").layers["§1(d)(iv)"].clusters == ((0,), (1,))

    @pytest.mark.parametrize(
        "relative",
        [
            "spans/sub", "cases/extra", "silver/extra", "coref/1_d_iv", "coref/1_d_iv.names", "structure.txt",
            "statutes/section1.offsets", "splits/train.txt",
        ],
    )
    def test_entries_that_are_not_files_are_skipped(self, tmp_path, capsys, relative):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        path = source / relative
        if path.exists():
            path.unlink()
        path.mkdir(parents=True)
        capsys.readouterr()
        assert main(["import-sara", "--source", str(source), "--dest", str(dest)]) == 0
        assert f"skipped {relative}: not a file" in capsys.readouterr().err.splitlines()
        self.assert_validates(dest, capsys)

    @pytest.mark.parametrize(
        "relative, text, skipped",
        [
            ("statutes/section9.txt", "(a) Text.", "statutes/section9.txt: no .offsets companion"),
            ("structure.txt", None, "structure.txt: not present"),
        ],
        ids=["no-offsets", "no-structure"],
    )
    def test_files_that_are_missing_are_skipped(self, tmp_path, capsys, relative, text, skipped):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        if text is None:
            (source / relative).unlink()
        else:
            write(source / relative, text)
        assert main(["import-sara", "--source", str(source), "--dest", str(dest)]) == 0
        assert f"skipped {skipped}" in capsys.readouterr().err.splitlines()
        self.assert_validates(dest, capsys)

    def test_cluster_names_that_are_not_record_keys_are_skipped(self, tmp_path, capsys):
        # The label reads back quoted, and then is no parameter of its rule.
        self.assert_layer_dropped(
            tmp_path, capsys, "Tax'", "layer §1(d)(iv): cluster \"Tax'\" is not a parameter of its rule"
        )

    def test_cluster_names_that_are_parameters_but_not_record_keys_import(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "coref" / "1_d_iv.names", "0 Tax'p\n1 Taxinc\n")
        write(source / "structure.txt", "§1(d)(iv)(Tax'p, Taxinc).\n")
        log = import_corpus(source, dest)
        assert log.skipped == []
        self.assert_validates(dest, capsys)
        assert load_corpus(dest / "manifest.txt").layers["§1(d)(iv)"].cluster_names == ("Tax'p", "Taxinc")

    def test_cluster_names_that_are_not_parameters_drop_the_layer(self, tmp_path, capsys):
        self.assert_layer_dropped(
            tmp_path, capsys, "Other", "layer §1(d)(iv): cluster 'Other' is not a parameter of its rule"
        )

    def assert_layer_dropped(self, tmp_path, capsys, label, problem):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "coref" / "1_d_iv.names", f"0 {label}\n1 Taxinc\n")
        log = import_corpus(source, dest)
        assert log.skipped == [f"spans/1_d_iv: {problem}"]
        assert "spans/1_d_iv" not in log.imported
        self.assert_validates(dest, capsys)
        assert load_corpus(dest / "manifest.txt").layers == {}

    @pytest.mark.parametrize(
        "block, pair, name",
        [("Input", "Tax inc=$5", "Tax inc"), ("Output", "Tax'=$5", "Tax'")],
        ids=["input", "output"],
    )
    def test_case_argument_names_that_are_not_record_keys_import(self, tmp_path, capsys, block, pair, name):
        # Such a name is written quoted and reads back as the same key.
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        blocks = {"Input": "Taxinc=$1", "Output": "@truth=1.0"}
        blocks[block] += "\n\n" + pair  # a blank line inside a block is ignored
        write(source / "cases" / "odd-name", "% Text\nAlice.\n% Question\n§1(d)(iv)\n"
              + "".join(f"% {b}\n{blocks[b]}\n" for b in ("Input", "Output")))
        log = import_corpus(source, dest)
        assert log.skipped == []
        assert "cases/odd-name" in log.imported
        self.assert_validates(dest, capsys)
        assert f'"{name}"=$5' in (dest / "cases" / "train.cases").read_text(encoding="utf-8")
        case = {c.id: c for c in load_corpus(dest / "manifest.txt").cases}["odd-name"]
        values, other = (case.inputs, {"Taxinc": Money(1)}) if block == "Input" else (case.expected, {"@truth": 1.0})
        assert values == {**other, name: Money(5)}

    def test_offsets_outside_their_section_text_are_skipped(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        offsets = source / "statutes" / "section1.offsets"
        offsets.write_text(offsets.read_text(encoding="utf-8") + "§1(d)(v) 0 4000\n§1(d)(vi) 5 5\n", encoding="utf-8")
        log = import_corpus(source, dest)
        # (5, 5) slices empty text, which the model refuses as it reads the
        # offsets; (0, 4000) is refused by the loader when written.
        assert log.skipped == [
            "statutes/section1.offsets:3: subsection §1(d)(vi): empty text, which no offsets record can slice",
            "statutes/section1.offsets:2: offsets (0, 4000) out of bounds for section1.txt of length 68",
        ]
        self.assert_validates(dest, capsys)
        assert list(load_corpus(dest / "manifest.txt").subsections) == ["§1(d)(iv)"]

    def test_integers_past_the_digit_limit_are_skipped(self, tmp_path, capsys):
        # int() converts at most 4,300 digits: an offsets line skips itself,
        # and a case value its case, at the column the value ends.
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        nines = "9" * 5000
        offsets = source / "statutes" / "section1.offsets"
        offsets.write_text(offsets.read_text(encoding="utf-8") + f"§1(d)(v) 0 {nines}\n", encoding="utf-8")
        case = source / "cases" / "case-1-positive"
        case.write_text(case.read_text(encoding="utf-8") + f"Big={nines}\n", encoding="utf-8")
        log = import_corpus(source, dest)
        [offsets_line, case_file] = log.skipped
        assert offsets_line.startswith("statutes/section1.offsets:2: Exceeds the limit (4300 digits)")
        assert case_file == "cases/case-1-positive: integer too long (5000 characters) (column 5001)"
        self.assert_validates(dest, capsys)
        assert list(load_corpus(dest / "manifest.txt").subsections) == ["§1(d)(iv)"]

    def test_a_cluster_index_past_the_digit_limit_skips_only_its_line(self, tmp_path, capsys):
        # Like every other bad .names line, and not its layer.
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "coref" / "1_d_iv.names", f"0 Tax\n{'9' * 5000} Big\n1 Taxinc\n")
        log = import_corpus(source, dest)
        assert log.skipped == ["coref/1_d_iv.names:2: expected '<cluster_index> <name>'"]
        assert "spans/1_d_iv" in log.imported
        self.assert_validates(dest, capsys)
        assert load_corpus(dest / "manifest.txt").layers["§1(d)(iv)"].cluster_names == ("Tax", "Taxinc")

    def test_input_nested_too_deep_is_skipped(self, tmp_path, capsys):
        # Past the nesting bound a case's value skips the case, and a clause
        # that clause, as any syntax error in it does; the file's other
        # clauses, and what needs them, import.
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        case = source / "cases" / "case-1-positive"
        deep = "Taxinc=" + "[" * 10_000 + "1" + "]" * 10_000
        write(case, case.read_text(encoding="utf-8").replace("Taxinc=$150000", deep))
        structure = source / "structure.txt"
        head = structure.read_text(encoding="utf-8") + "§1(d)(v)(X) :- "
        write(structure, head + "NOT " * 10_000 + "§1(d)(iv)(X).\n")
        log = import_corpus(source, dest)
        assert log.skipped == [
            f"structure.txt:2: clause 2: brackets and NOTs nest deeper than 100 levels (at offset {len(head) + 400})",
            "cases/case-1-positive: nested deeper than 100 levels (column 102)",
        ]
        self.assert_validates(dest, capsys)
        corpus = load_corpus(dest / "manifest.txt")
        assert list(corpus.program) == list(corpus.layers) == ["§1(d)(iv)"]

    def test_subsection_ids_listed_twice_are_skipped(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "statutes" / "section2.txt", "Other text.")
        write(source / "statutes" / "section2.offsets", "§1(d)(iv) 0 4\n")
        log = import_corpus(source, dest)
        assert log.skipped == ["statutes/section2.offsets:1: duplicate subsection id §1(d)(iv)"]
        assert "statutes/section1.offsets:1" in log.imported
        assert "statutes/section2.offsets:1" not in log.imported
        self.assert_validates(dest, capsys)
        assert load_corpus(dest / "manifest.txt").subsections["§1(d)(iv)"].text.startswith("(iv) $31,172")

    @pytest.mark.parametrize(
        "line, first, problem",
        [
            ("60 500", False, "span (60, 500) out of range for §1(d)(iv) of length 68"),
            ("4 5", True, "span (4, 5) covers only whitespace"),
            ("5 3", False, "invalid span (5, 3)"),
        ],
        ids=["out-of-range", "whitespace", "reversed"],
    )
    def test_spans_the_loader_would_reject_skip_the_layer(self, tmp_path, capsys, line, first, problem):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        # The span goes where it keeps the spans in order, with a matrix row
        # of its own, so that only the span itself is wrong.
        spans = source / "spans" / "1_d_iv"
        old = spans.read_text(encoding="utf-8")
        spans.write_text(line + "\n" + old if first else old + line + "\n", encoding="utf-8")
        write(source / "coref" / "1_d_iv", "1 0 0\n0 1 0\n0 0 1\n")
        log = import_corpus(source, dest)
        assert log.skipped == [f"spans/1_d_iv: {problem}"]
        assert "spans/1_d_iv" not in log.imported
        self.assert_validates(dest, capsys)
        assert load_corpus(dest / "manifest.txt").layers == {}

    def test_cases_whose_query_has_no_rule_are_skipped(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "cases" / "q", "% Text\nAlice.\n% Question\n§5(a)\n% Output\n@truth=1.0\n")
        write(source / "silver" / "s", "% Text\nAlice.\n% Question\n§1(d)\n% Output\n@truth=1.0\n")
        log = import_corpus(source, dest)
        assert log.skipped == [
            "cases/q: case q: query §5(a) has no structure rule",
            "silver/s: case s: query §1(d) has no structure rule",
        ]
        self.assert_validates(dest, capsys)
        assert [c.id for c in load_corpus(dest / "manifest.txt").cases] == ["case-1-positive"]

    def test_rules_without_subsection_text_are_dropped(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "structure.txt", "§1(d)(iv)(Tax, Taxinc).\n§7(a)(X).\n")
        log = import_corpus(source, dest)
        assert log.skipped == ["structure.txt:2: clause 2: rule §7(a) has no subsection text"]
        self.assert_validates(dest, capsys)
        assert list(load_corpus(dest / "manifest.txt").program) == ["§1(d)(iv)"]

    def test_dropping_a_rule_drops_its_callers_then_their_cases(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "structure.txt", "§1(d)(iv)(Tax, Taxinc) :- §7(a)(X=Tax).\n§7(a)(X).\n")
        log = import_corpus(source, dest)
        assert log.skipped == [
            "structure.txt:2: clause 2: rule §7(a) has no subsection text",
            "structure.txt §1(d)(iv): clause 1: §1(d)(iv): reference to undefined rule §7(a)",
            "spans/1_d_iv: layer §1(d)(iv): cluster 'Tax' named but no rule declares parameters",
            "cases/case-1-positive: case case-1-positive: query §1(d)(iv) has no structure rule",
        ]
        self.assert_validates(dest, capsys)
        assert log.imported == ["statutes/section1.offsets:1"]

    def test_a_structure_file_that_does_not_parse_drops_what_needs_it(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "structure.txt", "§1(d)(iv)(Tax, Taxinc)\n")
        log = import_corpus(source, dest)
        assert log.skipped == [
            "structure.txt:2: clause 1: expected '.', found 'end of input' (at offset 23)",
            "spans/1_d_iv: layer §1(d)(iv): cluster 'Tax' named but no rule declares parameters",
            "cases/case-1-positive: case case-1-positive: query §1(d)(iv) has no structure rule",
        ]
        self.assert_validates(dest, capsys)

    def test_a_bad_clause_between_good_ones_skips_only_itself(self, tmp_path, capsys):
        # Each clause that does not parse is skipped at its line, with the
        # loader's message; the clauses around it import, and what needs them.
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "statutes" / "section7.txt", "(a) Seven.")
        write(source / "statutes" / "section7.offsets", "§7(a) 0 10\n")
        structure = "§1(d)(iv)(Tax, Taxinc).\n§5(a)(X) :- [§1(d)(iv)(X).\n§7(a)().\n"
        write(source / "structure.txt", structure)
        log = import_corpus(source, dest)
        message = "clause 2: expected ']', found '.' (at offset 49)"
        assert log.skipped == [f"structure.txt:2: {message}"]
        assert "structure.txt §1(d)(iv)" in log.imported and "structure.txt §7(a)" in log.imported
        self.assert_validates(dest, capsys)
        corpus = load_corpus(dest / "manifest.txt")
        assert list(corpus.program) == ["§1(d)(iv)", "§7(a)"]
        assert list(corpus.layers) == ["§1(d)(iv)"] and [c.id for c in corpus.cases] == ["case-1-positive"]
        # The loader reads the source's structure file the same way.
        write(dest / "structure.txt", structure)
        assert run(["validate", "--manifest", str(dest / "manifest.txt")]) == (
            1, f"{dest / 'structure.txt'}:2: {message}\n"
        )

    def test_a_skipped_offsets_line_drops_the_rule_of_its_subsection(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "statutes" / "section1.offsets", "§1(d)(iv) 0 4000\n")
        log = import_corpus(source, dest)
        assert log.skipped == [
            "statutes/section1.offsets:1: offsets (0, 4000) out of bounds for section1.txt of length 68",
            "structure.txt §1(d)(iv): clause 1: rule §1(d)(iv) has no subsection text",
            "spans/1_d_iv: unknown subsection §1(d)(iv)",
            "cases/case-1-positive: case case-1-positive: query §1(d)(iv) has no structure rule",
        ]
        self.assert_validates(dest, capsys)

    @pytest.mark.parametrize(
        "relative, text, skipped",
        [
            ("coref/1_d_iv", "1 x\n0 1\n", "spans/1_d_iv: coref matrix entries must be 0 or 1, found row '1 x'"),
            ("coref/1_d_iv", "1 ²\n² 1\n", "spans/1_d_iv: coref matrix entries must be 0 or 1, found row '1 ²'"),
            ("coref/1_d_iv.names", "² Tax\n1 Taxinc\n", "coref/1_d_iv.names:1: expected '<cluster_index> <name>'"),
        ],
        ids=["matrix-letter", "matrix-superscript", "names-superscript"],
    )
    def test_entries_that_are_not_numbers_are_skipped(self, tmp_path, capsys, relative, text, skipped):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / relative, text)
        assert main(["import-sara", "--source", str(source), "--dest", str(dest)]) == 0
        assert capsys.readouterr().err == f"skipped {skipped}\n"
        self.assert_validates(dest, capsys)

    @pytest.mark.parametrize("relative", ["statutes/section1.offsets", "coref/1_d_iv.names"])
    def test_a_line_ends_at_a_newline_only(self, tmp_path, capsys, relative):
        # A form feed is no line end: the line after it is line 3, not 4.
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        path = source / relative
        path.write_text("\x0c\n" + path.read_text(encoding="utf-8").replace("\n", "\nx\n", 1), encoding="utf-8")
        assert main(["import-sara", "--source", str(source), "--dest", str(dest)]) == 0
        expected = "<cluster_index> <name>" if relative.endswith(".names") else "<id> <start> <end>"
        assert capsys.readouterr().err == f"skipped {relative}:3: expected '{expected}'\n"
        self.assert_validates(dest, capsys)

    def test_a_destination_file_the_import_did_not_write_stops_it(self, tmp_path, capsys):
        # A stale split file in the destination is loaded with the import;
        # what the loader rejects there is no imported item to drop.
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(dest / "cases" / "dev.cases", 'old query="§9" description="x" inputs=[] expected=[@truth=true]\n')
        assert main(["import-sara", "--source", str(source), "--dest", str(dest)]) == 1
        dev = dest / "cases" / "dev.cases"
        assert capsys.readouterr().err == f"{dev}:1: case old: query §9 has no structure rule\n"

    def test_a_destination_file_the_import_did_not_write_that_does_not_load_stops_it(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(dest / "cases" / "dev.cases", 'old query="§9"\n')
        assert main(["import-sara", "--source", str(source), "--dest", str(dest)]) == 1
        assert capsys.readouterr().err == f"{dest / 'cases' / 'dev.cases'}:1: missing field 'description'\n"


class TestFixtureRoundTrip:
    def test_the_fixture_imports_unchanged(self, corpus, tmp_path):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        write_distributed_fixture(corpus, source)
        # What the real layout has and `write_distributed` does not write.
        assert (source / "structure.txt").read_text(encoding="utf-8").startswith("%")
        assert "§2(a)(1)(A) 174 270\n" in (source / "statutes" / "section2.offsets").read_text(encoding="utf-8")
        log = import_corpus(source, dest)
        assert log.skipped == []
        imported = load_corpus(dest / "manifest.txt")
        assert imported.subsections == corpus.subsections
        assert imported.layers == corpus.layers
        assert imported.program == corpus.program
        assert sorted(imported.cases, key=lambda c: c.id) == sorted(corpus.cases, key=lambda c: c.id)
        assert sorted(imported.silver, key=lambda c: c.id) == sorted(corpus.silver, key=lambda c: c.id)

    @settings(max_examples=200, deadline=None)
    @given(corpora(distributed=True))
    def test_every_distributed_corpus_imports_back_equal(self, drawn):
        with tempfile.TemporaryDirectory() as tmp:
            source, dest = Path(tmp) / "dist", Path(tmp) / "canonical"
            write_distributed(drawn, source)
            log = import_corpus(source, dest)
            imported = load_corpus(dest / "manifest.txt")
        assert log.skipped == []
        for name in ("subsections", "layers", "program", "section_files"):
            assert getattr(imported, name) == getattr(drawn, name)
        for name in ("cases", "silver"):
            by_id = [sorted(getattr(c, name), key=lambda case: case.id) for c in (imported, drawn)]
            assert by_id[0] == by_id[1]

    # One file of each kind the importer reads.
    CORRUPTED = [
        "statutes/section2.txt", "statutes/section2.offsets", "spans/2_a_1_B", "coref/2_a_1_B",
        "coref/2_a_1_B.names", "structure.txt", "cases/63(c)(5)-positive", "silver/1(d)(iv)-silver-1",
        "splits/train.txt",
    ]

    def test_every_corruption_imports_a_valid_corpus(self, corpus, tmp_path):
        # A corrupted tree imports (exit 0) into a corpus that validates, or
        # stops at a byte that is not UTF-8 (exit 1, path:line); never exit 2.
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        write_distributed_fixture(corpus, source)
        failures = []
        for relative in self.CORRUPTED:
            target = source / relative
            original = target.read_bytes()
            for what, data in corruptions(original.decode("utf-8")):
                target.write_bytes(data)
                shutil.rmtree(dest, ignore_errors=True)
                code, err = run(["import-sara", "--source", str(source), "--dest", str(dest)])
                if what.endswith("not UTF-8"):
                    if code != 1 or not re.fullmatch(re.escape(str(target)) + r":\d+: not UTF-8: .*\n", err):
                        failures.append((relative, what, code, err))
                elif code != 0:
                    failures.append((relative, what, code, err))
                else:
                    code, err = run(["validate", "--manifest", str(dest / "manifest.txt")])
                    if code != 0:
                        failures.append((relative, what, "validate", code, err))
            target.write_bytes(original)
        assert failures == []
