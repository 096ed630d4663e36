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

    def test_cli_wrapper(self, tmp_path, capsys):
        source, dest = tmp_path / "dist", tmp_path / "canonical"
        make_distributed_tree(source)
        assert main(["import-sara", "--source", str(source), "--dest", str(dest)]) == 0
        assert "manifest.txt" in capsys.readouterr().out
