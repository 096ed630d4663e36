from pathlib import Path

import pytest

from statreason.cli import main
from statreason.corpus import load_corpus, validate_corpus
from statreason.model import Money
from statreason.sara_import import file_stem_to_id, import_corpus


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


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
        assert validate_corpus(corpus) == []
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
        assert "skipped case repeated-input: Input: duplicate argument name: 'x'" in err
        assert "skipped case truth-out-of-range: Output: truth score out of [0, 1]: 1.5" in err
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

    @pytest.mark.parametrize(
        "name, problem",
        [
            ("case 2", "id 'case 2' is empty or holds whitespace, so it would not read back"),
            ("#case3", "id '#case3' starts with '#', so it would read back as a comment"),
        ],
        ids=["whitespace", "comment"],
    )
    def test_case_ids_that_would_not_read_back_are_skipped(self, tmp_path, name, problem):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "cases" / name, (source / "cases" / "case-1-positive").read_text(encoding="utf-8"))
        log = import_corpus(source, dest)
        assert log.skipped == [f"case {name}: {problem}"]
        assert f"case {name}" not in log.imported
        corpus = load_corpus(dest / "manifest.txt")
        assert validate_corpus(corpus) == []
        assert [c.id for c in corpus.cases] == ["case-1-positive"]

    def test_subsection_ids_that_would_not_read_back_are_skipped(self, tmp_path):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        for stem in ("#Tax", "Tax rate"):
            write(source / "spans" / stem, "0 4\n")
        offsets = source / "statutes" / "section1.offsets"
        offsets.write_text(offsets.read_text(encoding="utf-8") + "#Tax 0 4\n", encoding="utf-8")
        log = import_corpus(source, dest)
        assert sorted(log.skipped) == [
            "section1.offsets: '#Tax 0 4': id '#Tax' starts with '#', so it would read back as a comment",
            "spans #Tax: id '#Tax' starts with '#', so it would read back as a comment",
            "spans Tax rate: id 'Tax rate' is empty or holds whitespace, so it would not read back",
        ]
        corpus = load_corpus(dest / "manifest.txt")
        assert validate_corpus(corpus) == []
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
            "section1.offsets: '§1(d)() 0 4': id '§1(d)()' is a malformed subsection id",
            "spans 1_d_: id '§1(d)()' is a malformed subsection id",
        ]
        assert "subsection §1(d)()" not in log.imported
        self.assert_validates(dest, capsys)

    def test_layers_of_subsections_not_imported_are_skipped(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "spans" / "9_z", "0 4\n")
        log = import_corpus(source, dest)
        assert log.skipped == ["spans 9_z: subsection §9(z) was not imported"]
        assert "layer §9(z)" not in log.imported
        self.assert_validates(dest, capsys)

    def test_cluster_names_that_are_not_record_keys_are_skipped(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "coref" / "1_d_iv.names", "0 Tax'\n1 Taxinc\n")
        log = import_corpus(source, dest)
        assert log.skipped == ["coref names 1_d_iv: \"0 Tax'\": name \"Tax'\" is not a record key"]
        self.assert_validates(dest, capsys)
        assert load_corpus(dest / "manifest.txt").layers["§1(d)(iv)"].cluster_names == (None, "Taxinc")

    @pytest.mark.parametrize("block, pair", [("Input", "Tax inc=$5"), ("Output", "Tax'=$5")], ids=["input", "output"])
    def test_case_argument_names_that_are_not_record_keys_skip_the_case(self, tmp_path, capsys, block, pair):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        blocks = {"Input": "Taxinc=$1", "Output": "@truth=1.0"}
        blocks[block] += "\n" + pair
        write(source / "cases" / "bad-name", "% Text\nAlice.\n% Question\n§1(d)(iv)\n"
              + "".join(f"% {b}\n{blocks[b]}\n" for b in ("Input", "Output")))
        log = import_corpus(source, dest)
        name = pair.partition("=")[0]
        assert log.skipped == [f"case bad-name: {block}: name {name!r} is not a record key"]
        assert "case bad-name" not in log.imported
        self.assert_validates(dest, capsys)
        assert [c.id for c in load_corpus(dest / "manifest.txt").cases] == ["case-1-positive"]

    def test_offsets_outside_their_section_text_are_skipped(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        offsets = source / "statutes" / "section1.offsets"
        offsets.write_text(offsets.read_text(encoding="utf-8") + "§1(d)(v) 0 4000\n§1(d)(vi) 5 5\n", encoding="utf-8")
        log = import_corpus(source, dest)
        assert log.skipped == [
            "section1.offsets: '§1(d)(v) 0 4000': offsets (0, 4000) out of bounds for section1.txt of length 68",
            "section1.offsets: '§1(d)(vi) 5 5': offsets (5, 5) out of bounds for section1.txt of length 68",
        ]
        self.assert_validates(dest, capsys)
        assert list(load_corpus(dest / "manifest.txt").subsections) == ["§1(d)(iv)"]

    def test_subsection_ids_listed_twice_are_skipped(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "statutes" / "section2.txt", "Other text.")
        write(source / "statutes" / "section2.offsets", "§1(d)(iv) 0 4\n")
        log = import_corpus(source, dest)
        assert log.skipped == ["section2.offsets: '§1(d)(iv) 0 4': duplicate subsection id §1(d)(iv)"]
        assert log.imported.count("subsection §1(d)(iv)") == 1
        self.assert_validates(dest, capsys)
        assert load_corpus(dest / "manifest.txt").subsections["§1(d)(iv)"].text.startswith("(iv) $31,172")

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("60 500", "span (60, 500) out of range for §1(d)(iv) of length 68"),
            ("4 5", "span (4, 5) covers only whitespace"),
            ("5 3", "invalid span (5, 3)"),
        ],
        ids=["out-of-range", "whitespace", "reversed"],
    )
    def test_spans_the_loader_would_reject_skip_the_layer(self, tmp_path, capsys, line, problem):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        spans = source / "spans" / "1_d_iv"
        spans.write_text(spans.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        log = import_corpus(source, dest)
        assert log.skipped == [f"spans 1_d_iv: {line!r}: {problem}"]
        assert "layer §1(d)(iv)" not in log.imported
        self.assert_validates(dest, capsys)
        assert load_corpus(dest / "manifest.txt").layers == {}

    def test_cases_whose_query_has_no_rule_are_skipped(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        write(source / "cases" / "q", "% Text\nAlice.\n% Question\n§5(a)\n% Output\n@truth=1.0\n")
        write(source / "silver" / "s", "% Text\nAlice.\n% Question\n§1(d)\n% Output\n@truth=1.0\n")
        log = import_corpus(source, dest)
        assert log.skipped == [
            "case q: query §5(a) has no structure rule", "case s: query §1(d) has no structure rule"
        ]
        self.assert_validates(dest, capsys)
        assert [c.id for c in load_corpus(dest / "manifest.txt").cases] == ["case-1-positive"]
