import importlib.util
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from statreason import corpus as loaders
from statreason.corpus import (
    CorpusError,
    corpus_hash,
    corpus_statistics,
    load_corpus,
    load_statutes,
    serialize_cases,
    serialize_coref,
    serialize_spans,
)
from statreason.cli import main
from statreason.model import TRUTH_KEY, Case, ValueMap
from statreason.rules import parse_program

import oracles
from generators import EXPLICIT_CORPORA, corpus_fields
from layouts import write_corpus, write_dev_split
from test_corruption import corruptions

FIXTURES = Path(__file__).parent / "fixtures" / "corpus"
SCRIPTS = Path(__file__).parent.parent / "scripts"
NOT_A_FILE_NAME = "section file must be named by a file name in statutes/, got {}"


def copy_corpus(tmp_path: Path) -> Path:
    dest = tmp_path / "corpus"
    shutil.copytree(FIXTURES, dest)
    return dest


def edit(path: Path, old: str, new: str) -> None:
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")


def outcome(load, *args) -> tuple:
    try:
        return True, load(*args)
    except CorpusError as exc:
        return False, exc.errors


def assert_loaders_agree(root: Path, data) -> None:
    """The loaders and their first versions in `oracles` read the same
    objects or errors after one to three one-line corruptions of the files
    under `root`, each of the file edited last about half the time, so that
    errors meet in one file; a file holding a byte that is not UTF-8 is
    corrupted no further. It edits the files, so a drawn corpus's other
    properties (`test_drawn_corpora.py`) run before it."""
    files = [root / "spans.txt", root / "coref.txt", *sorted(root.glob("*/*"))]
    path = None
    for _ in range(data.draw(st.integers(1, 3))):
        texts = {}
        for file in files:
            try:
                texts[file] = file.read_bytes().decode("utf-8")
            except UnicodeDecodeError:
                pass
        if path not in texts or data.draw(st.booleans()):
            path = data.draw(st.sampled_from(sorted(texts)))
        path.write_bytes(data.draw(st.sampled_from(list(corruptions(texts[path]))))[1])
    ok, subsections = outcome(loaders.load_statutes, root / "statutes")
    assert (ok, subsections) == outcome(oracles.load_statutes, root / "statutes")
    program, _ = parse_program((root / "structure.txt").read_text(encoding="utf-8"), subsections if ok else {})
    if ok:
        args = (root / "spans.txt", root / "coref.txt", subsections, program)
        assert outcome(loaders.load_argument_layers, *args) == outcome(oracles.load_argument_layers, *args)
    for args in ((root / "cases", program), (root / "silver", program, "silver")):
        assert outcome(loaders.load_cases, *args) == outcome(oracles.load_cases, *args)


def assert_loads_without_its_cases(manifest: Path, loaded: tuple) -> None:
    """A corpus refused for its cases alone loads without them; `loaded` is
    `outcome(load_corpus, manifest)`."""
    (ok, whole), (statutes_ok, statutes) = loaded, outcome(load_corpus, manifest, False)
    if not statutes_ok:
        assert (ok, whole) == (statutes_ok, statutes)
        return
    assert statutes.cases == statutes.silver == ()
    if not ok:
        assert all(error.path.endswith(".cases") for error in whole)
        return
    for field in ("subsections", "layers", "program", "section_files"):
        assert getattr(statutes, field) == getattr(whole, field)
    assert corpus_hash(statutes) == corpus_hash(whole)


def each_written(corpora, root: Path):
    """Each of `corpora`, written in a directory of its own under `root`,
    with its manifest and `outcome(load_corpus, manifest)`: the arguments
    of a drawn-corpus property."""
    for i, drawn in enumerate(corpora):
        manifest = write_corpus(drawn, root / str(i) / "drawn")
        yield drawn, manifest, outcome(load_corpus, manifest)


# Properties of a drawn corpus: `test_drawn_corpora.py` runs each on every
# draw, and `TestRoundTrip` on the fixture and `EXPLICIT_CORPORA`.
def loads_as_written(drawn, manifest, loaded):
    # A drawn corpus keeps the loader's rules for each file, but its
    # references from file to file may fail: then the load refuses it
    # as the loader composed of `oracles`' first versions does.
    assert loaded == outcome(oracles.load_corpus, manifest, True)
    subsections = load_statutes(manifest.parent / "statutes")
    spans, _ = loaders.load_spans(manifest.parent / "spans.txt", subsections)
    assert subsections == drawn.subsections
    assert spans == {sid: layer.spans for sid, layer in drawn.layers.items()}
    if loaded[0]:
        assert corpus_fields(loaded[1]) == corpus_fields(drawn)


def loads_without_its_cases(drawn, manifest, loaded):
    assert_loads_without_its_cases(manifest, loaded)


def serializes_to_its_files(drawn, manifest, loaded):
    ok, corpus = loaded
    if not ok:
        return  # refused for a reference from file to file, as `loads_as_written` checks
    first, second = manifest.parent, manifest.parent.with_name("again")
    again = load_corpus(write_corpus(corpus, second))
    files = [{p.relative_to(r): p.read_bytes() for p in r.rglob("*") if p.is_file()} for r in (first, second)]
    assert files[0] == files[1]
    assert corpus_hash(corpus) == corpus_hash(again) == corpus_hash(load_corpus(manifest))


class TestManifest:
    def test_a_key_that_names_no_part_is_refused_at_its_line(self, tmp_path, capsys):
        root = copy_corpus(tmp_path)
        manifest = root / "manifest.txt"
        manifest.write_text("# parts\n" + manifest.read_text(encoding="utf-8") + "glossary=cases\n", encoding="utf-8")
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"{manifest}:8: unknown manifest key 'glossary'\n"

    def test_a_key_given_twice_with_another_value_is_refused_at_its_line(self, tmp_path, capsys):
        root = copy_corpus(tmp_path)
        manifest = root / "manifest.txt"
        shutil.copy(root / "spans.txt", root / "spans2.txt")
        manifest.write_text(manifest.read_text(encoding="utf-8") + "spans=spans2.txt\n", encoding="utf-8")
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"{manifest}:7: manifest key 'spans' given twice, also at line 2\n"

    def test_a_line_ends_at_a_newline_only(self, tmp_path, capsys):
        # The form feed stays in its comment line, so the bad key is at line 8.
        root = copy_corpus(tmp_path)
        manifest = root / "manifest.txt"
        text = "# parts \x0c of the corpus\n" + manifest.read_text(encoding="utf-8") + "glossary=cases\n"
        manifest.write_text(text, encoding="utf-8")
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"{manifest}:8: unknown manifest key 'glossary'\n"

    def test_missing_keys_are_reported_first(self, tmp_path, capsys):
        root = copy_corpus(tmp_path)
        manifest = root / "manifest.txt"
        edit(manifest, "cases=cases", "case=cases")
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"{manifest}: manifest is missing keys: cases\n"


class TestLoadStatutes:
    def test_fixture_counts(self, corpus):
        assert len(corpus.section_files) == 6
        assert len(corpus.subsections) == 12

    def test_texts_sliced_by_offsets(self, corpus):
        assert corpus.subsections["§63(c)(5)(A)"].text == "(A) $500, or"
        assert corpus.subsections["§1(d)(iv)"].text.startswith("(iv) $31,172")

    def test_empty_dir(self, tmp_path):
        (tmp_path / "offsets.txt").write_text("", encoding="utf-8")
        assert load_statutes(tmp_path) == {}

    def test_offset_past_end_of_file(self, tmp_path):
        (tmp_path / "s.txt").write_text("short", encoding="utf-8")
        (tmp_path / "offsets.txt").write_text('§1 file="s.txt" start=0 end=99\n', encoding="utf-8")
        with pytest.raises(CorpusError) as exc:
            load_statutes(tmp_path)
        assert "99" in str(exc.value) and "s.txt" in str(exc.value)

    def test_duplicate_ids_rejected(self, tmp_path):
        (tmp_path / "s.txt").write_text("some text here", encoding="utf-8")
        (tmp_path / "offsets.txt").write_text(
            '§1 file="s.txt" start=0 end=4\n§1 file="s.txt" start=5 end=9\n', encoding="utf-8"
        )
        with pytest.raises(CorpusError) as exc:
            load_statutes(tmp_path)
        assert [str(e) for e in exc.value.errors] == [f"{tmp_path / 'offsets.txt'}:2: duplicate subsection id §1"]

    def test_newlines_read_as_in_text_mode(self, tmp_path):
        (tmp_path / "s.txt").write_bytes(b"ab\r\ncd\ref")
        (tmp_path / "offsets.txt").write_text('§1 file="s.txt" start=0 end=8\n', encoding="utf-8")
        assert load_statutes(tmp_path)["§1"].text == "ab\ncd\nef"

    @pytest.mark.parametrize("name", ["manifest.txt", "structure.txt", "statutes/section63.txt", "cases/test.cases"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, capsys, name):
        root = copy_corpus(tmp_path)
        path = root / name
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][:2] + b"\xff" + lines[1][2:]
        path.write_bytes(b"\n".join(lines))
        assert main(["validate", "--manifest", str(root / "manifest.txt")]) == 1
        assert capsys.readouterr().err == f"{path}:2: not UTF-8: invalid start byte (byte 0xff)\n"

    def test_malformed_id_rejected(self, tmp_path):
        (tmp_path / "s.txt").write_text("some text here", encoding="utf-8")
        (tmp_path / "offsets.txt").write_text(
            '§1(a(b) file="s.txt" start=0 end=4\n', encoding="utf-8"
        )
        with pytest.raises(CorpusError) as exc:
            load_statutes(tmp_path)
        assert "malformed" in str(exc.value)

    def test_a_malformed_id_is_reported_after_its_file_and_offsets(self, tmp_path):
        # `Subsection` checks the id together with the text it is given, so a
        # line whose file or offsets are wrong as well reports those.
        (tmp_path / "s.txt").write_text("short", encoding="utf-8")
        (tmp_path / "offsets.txt").write_text(
            '§1(a(b) file="t.txt" start=0 end=4\n'
            '§1(c(d) file="s.txt" start=0 end=99\n'
            '§1(e(f) file="s.txt" start=0 end=4\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusError) as exc:
            load_statutes(tmp_path)
        index = tmp_path / "offsets.txt"
        assert [str(e) for e in exc.value.errors] == [
            f"{index}:1: section file not found: t.txt",
            f"{index}:2: offsets (0, 99) out of bounds for s.txt of length 5",
            f"{index}:3: malformed subsection id '§1(e(f)'",
        ]

    def test_a_section_file_that_is_a_directory_is_not_found_at_its_line(self, tmp_path, capsys):
        # The offsets line names the file, and the file's other errors are kept.
        root = copy_corpus(tmp_path)
        (root / "statutes" / "sub").mkdir()
        index = root / "statutes" / "offsets.txt"
        edit(index, 'file="section1.txt"', 'file="sub"')
        edit(index, 'file="tax.txt"', 'file="nosuch.txt"')
        assert main(["validate", "--manifest", str(root / "manifest.txt")]) == 1
        assert capsys.readouterr().err == (
            f"{index}:1: section file not found: sub\n{index}:12: section file not found: nosuch.txt\n"
        )


class TestLoadLayers:
    def test_zero_span_layer_valid(self, corpus):
        layer = corpus.layers["§63(c)(5)(A)"]
        assert layer.spans == () and layer.clusters == ()

    def test_appendix_layer(self, corpus):
        layer = corpus.layers["§1(d)(iv)"]
        assert len(layer.spans) == 2
        assert layer.clusters == ((0,), (1,))
        text = corpus.subsections["§1(d)(iv)"].text
        assert layer.spans[1].slice(text) == "the taxable income"

    def test_identical_spans_rejected(self, tmp_path, manifest_path):
        root = copy_corpus(tmp_path)
        edit(root / "spans.txt", "§1(d)(iv) spans=[(5, 50), (54, 72)]",
             "§1(d)(iv) spans=[(5, 50), (5, 50)]")
        with pytest.raises(CorpusError):
            load_corpus(root / "manifest.txt")

    def test_span_out_of_range(self, tmp_path):
        root = copy_corpus(tmp_path)
        edit(root / "spans.txt", "§1(d)(iv) spans=[(5, 50), (54, 72)]",
             "§1(d)(iv) spans=[(5, 50), (54, 7200)]")
        with pytest.raises(CorpusError) as exc:
            load_corpus(root / "manifest.txt")
        assert "out of range" in str(exc.value)

    def test_cluster_index_out_of_range(self, tmp_path):
        root = copy_corpus(tmp_path)
        edit(root / "coref.txt", "§1(d)(iv) clusters=[Tax:[0], Taxinc:[1]]",
             "§1(d)(iv) clusters=[Tax:[0], Taxinc:[9]]")
        with pytest.raises(CorpusError) as exc:
            load_corpus(root / "manifest.txt")
        assert "out of range" in str(exc.value)

    @pytest.mark.parametrize(
        "file, value, message",
        [
            ("spans.txt", "spans=5", "expected a [(start, end), ...] list"),
            ("spans.txt", "spans=a=1", "expected a [(start, end), ...] list"),
            ("spans.txt", "spans=(5, 50)", "expected a [(start, end), ...] list"),
            ("spans.txt", "spans=[(5, 50), a=1]", "expected (start, end) pairs, found a=1"),
            ("coref.txt", "clusters=A:[0]", "expected a [Name:[0, 1], [2], ...] list"),
            ("coref.txt", 'clusters=""', "expected a [Name:[0, 1], [2], ...] list"),
            ("coref.txt", "clusters=[(0, 1)]",
             "expected clusters like Name:[0, 1] or [0, 1], found (0, 1)"),
            ("coref.txt", "clusters=[[0, A:[1]]]",
             "cluster members must be span indices, got [0, A:[1]]"),
            ("statutes/offsets.txt", "file=3", 'offsets need file="..." start=<int> end=<int>'),
            ("statutes/offsets.txt", 'file="sub/inner.txt"', NOT_A_FILE_NAME.format("'sub/inner.txt'")),
            ("statutes/offsets.txt", 'file="../outside.txt"', NOT_A_FILE_NAME.format("'../outside.txt'")),
            ("statutes/offsets.txt", 'file="/statutes/section1.txt"', NOT_A_FILE_NAME.format("'/statutes/section1.txt'")),
            ("statutes/offsets.txt", 'file=""', NOT_A_FILE_NAME.format("''")),
            ("statutes/offsets.txt", 'file="."', NOT_A_FILE_NAME.format("'.'")),
            ("statutes/offsets.txt", 'file=".."', NOT_A_FILE_NAME.format("'..'")),
            ("cases/test.cases", "query=3", "query and description must be quoted strings"),
            ("cases/test.cases", "inputs=[Zz=(1, 2)]", "inputs: argument Zz holds (1, 2), which is not a value"),
            ("cases/test.cases", "inputs=[Zz=L:[1]]", "inputs: argument Zz holds L:[1], which is not a value"),
        ],
    )
    def test_fields_of_the_wrong_shape_name_their_line(self, tmp_path, capsys, file, value, message):
        # The field as line 1 of its file holds it.
        old = {
            "spans": "spans=[(5, 50), (54, 72)]",
            "clusters": "clusters=[Tax:[0], Taxinc:[1]]",
            "file": 'file="section1.txt"',
            "query": 'query="§63(c)(5)"',
            "inputs": 'inputs=[Taxp="Bob", Taxy="2017", Bassd=$500]',
        }[value.partition("=")[0]]
        path = copy_corpus(tmp_path) / file
        first, rest = path.read_text(encoding="utf-8").split("\n", 1)
        assert old in first
        path.write_text(first.replace(old, value) + "\n" + rest, encoding="utf-8")
        assert main(["validate", "--manifest", str(tmp_path / "corpus" / "manifest.txt")]) == 1
        assert capsys.readouterr().err.splitlines()[0] == f"{path}:1: {message}"

    def test_blanks_inside_brackets_read_as_none(self, tmp_path, corpus):
        root = copy_corpus(tmp_path)
        edit(root / "spans.txt", "§1(d)(iv) spans=[(5, 50), (54, 72)]", "§1(d)(iv) spans=[ (5, 50) , (54, 72)]")
        assert load_corpus(root / "manifest.txt").layers == corpus.layers

    def test_a_coref_record_with_a_problem_is_not_also_missing(self, tmp_path):
        root = copy_corpus(tmp_path)
        edit(root / "coref.txt", "clusters=[Tax:[0], Taxinc:[1]]", "clusters=[Tax:[99], Taxinc:[1]]")
        with pytest.raises(CorpusError) as exc:
            load_corpus(root / "manifest.txt")
        assert [str(e) for e in exc.value.errors] == [f"{root / 'coref.txt'}:1: cluster index out of range: 99"]

    def test_missing_coref_record(self, tmp_path):
        root = copy_corpus(tmp_path)
        edit(root / "coref.txt", "§1(d)(iv) clusters=[Tax:[0], Taxinc:[1]]\n", "")
        with pytest.raises(CorpusError) as exc:
            load_corpus(root / "manifest.txt")
        assert [str(e) for e in exc.value.errors] == [f"{root / 'spans.txt'}:1: no coref record for §1(d)(iv)"]


class TestLoadCases:
    def test_fixture_counts(self, corpus):
        assert len(corpus.cases) == 8
        assert len(corpus.cases_of("train")) == 3
        assert len(corpus.cases_of("test")) == 5
        assert len(corpus.silver) == 2

    def test_appendix_case_values(self, corpus):
        by_id = {c.id: c for c in corpus.cases}
        positive = by_id["3306(a)(1)(B)-positive"]
        assert dict(positive.inputs) == {"Employer": "Alice", "Caly": "2017"}
        assert len(positive.expected["Workday"]) == 12
        assert positive.expected["S13A"] == (4, 5, 9, 11, 13, 19, 41, 43, 45, 47)
        assert positive.expected["@truth"] == 1.0
        tax5 = by_id["tax-case-5"]
        assert tax5.kind == "numerical"
        assert tax5.expected["Tax"].dollars == 116066

    def test_untypable_literal_rejected(self, tmp_path):
        root = copy_corpus(tmp_path)
        edit(root / "cases" / "test.cases", 'Taxp="Bob", Taxy="2017", Bassd=$500',
             'Taxp="Bob", Taxy=nonsense, Bassd=$500')
        with pytest.raises(CorpusError) as exc:
            load_corpus(root / "manifest.txt")
        assert "cannot type" in str(exc.value)

    def test_parse_error_names_path_and_line(self, tmp_path):
        root = copy_corpus(tmp_path)
        path = root / "cases" / "test.cases"
        lines = path.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if 'Taxy="2017", Bassd=$500' in line)
        edit(path, 'Taxy="2017", Bassd=$500', "Taxy=nonsense, Bassd=$500")
        with pytest.raises(CorpusError) as exc:
            load_corpus(root / "manifest.txt")
        assert str(exc.value).startswith(f"{path}:{lineno}: cannot type value 'nonsense'")

    @pytest.mark.parametrize(
        "stem, message",
        [("all", "split 'all': it cannot name a cases file"), ("silver", "'silver' is reserved and cannot name a split")],
        ids=["all", "silver"],
    )
    def test_reserved_split_names_rejected(self, tmp_path, capsys, stem, message):
        # `--split all` and the silver series already mean something else:
        # `all` by the model's split rule, `silver` by the loader.
        root = copy_corpus(tmp_path)
        path = root / "cases" / f"{stem}.cases"
        (root / "cases" / "test.cases").rename(path)
        assert main(["stats", "--manifest", str(root / "manifest.txt")]) == 1
        assert capsys.readouterr().err == f"{path}: {message}\n"

    @pytest.mark.parametrize("stem", ["my split", "#test"])
    def test_a_stem_that_cannot_be_a_split_gives_one_line(self, tmp_path, capsys, stem):
        # The stem is checked once, with the model's split rule, and the
        # file's records are not read.
        root = copy_corpus(tmp_path)
        path = root / "cases" / f"{stem}.cases"
        (root / "cases" / "test.cases").rename(path)
        with pytest.raises(ValueError) as exc:
            Case("c", "d", "§1", ValueMap(), ValueMap({TRUTH_KEY: 1.0}), stem)
        assert main(["validate", "--manifest", str(root / "manifest.txt")]) == 1
        assert capsys.readouterr().err == f"{path}: {exc.value}\n"

    def test_binary_case_requires_truth(self, tmp_path):
        root = copy_corpus(tmp_path)
        edit(root / "cases" / "test.cases", "2(a)(1)-negative", "2(a)(1)-negative-x")
        edit(root / "cases" / "test.cases", "expected=[@truth=false]", 'expected=[Spouse="Bob"]')
        with pytest.raises(CorpusError) as exc:
            load_corpus(root / "manifest.txt")
        assert "@truth" in str(exc.value)


class TestReadingRule:
    """How the loaders order the errors of a file, and which end it."""

    def errors(self, root: Path) -> list[str]:
        with pytest.raises(CorpusError) as exc:
            load_corpus(root / "manifest.txt")
        return [str(e).removeprefix(f"{root}/") for e in exc.value.errors]

    def test_a_line_that_does_not_parse_ends_the_file_alone(self, tmp_path):
        root = copy_corpus(tmp_path)
        path = root / "spans.txt"
        path.write_text("nosuch spans=[(0, 1)]\n" + path.read_text(encoding="utf-8") + "garbage =\n", encoding="utf-8")
        assert self.errors(root) == ["spans.txt:14: expected a field key (column 9)"]

    def test_a_line_ends_at_a_newline_only(self, tmp_path):
        # A form feed in a comment neither ends it nor moves the lines after it.
        root = copy_corpus(tmp_path)
        path = root / "spans.txt"
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[:0] = ["# a comment with a form feed \x0c here"]
        lines[5:5] = ["nosuch spans=[(0, 1)]"]
        path.write_text("\n".join(lines), encoding="utf-8")
        assert self.errors(root) == ["spans.txt:6: unknown subsection nosuch"]

    def test_a_section_file_that_is_not_utf8_keeps_the_errors_of_the_others(self, tmp_path):
        # The section file's one error comes once, at the first offsets line
        # naming it; an offsets line that does not parse keeps it too.
        root = copy_corpus(tmp_path)
        index = root / "statutes" / "offsets.txt"
        edit(index, 'file="section1.txt"', 'file="nosuch.txt"')
        section = root / "statutes" / "section63.txt"
        section.write_bytes(section.read_bytes() + b"\xff")
        not_utf8 = "statutes/section63.txt:6: not UTF-8: invalid start byte (byte 0xff)"
        assert self.errors(root) == ["statutes/offsets.txt:1: section file not found: nosuch.txt", not_utf8]
        index.write_text(index.read_text(encoding="utf-8") + "garbage =\n", encoding="utf-8")
        assert self.errors(root) == [not_utf8, "statutes/offsets.txt:13: expected a field key (column 9)"]

    @pytest.mark.parametrize("name", ["cases/test.cases", "statutes/section2.txt", "manifest.txt"])
    def test_a_file_that_starts_with_a_byte_order_mark_is_refused(self, tmp_path, capsys, name):
        # Read as text, U+FEFF would become part of the first id, subsection
        # text or key; no writer starts a file with it.
        root = copy_corpus(tmp_path)
        path = root / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["validate", "--manifest", str(root / "manifest.txt")]) == 1
        assert capsys.readouterr().err == f"{path}:1: starts with a byte order mark (U+FEFF)\n"

    def test_a_cases_file_that_does_not_parse_keeps_the_errors_of_the_files_before_it(self, tmp_path):
        root = copy_corpus(tmp_path)
        test = root / "cases" / "test.cases"
        test.write_text(test.read_text(encoding="utf-8").replace("query=", "querx=", 1), encoding="utf-8")
        train = root / "cases" / "train.cases"
        train.write_text(train.read_text(encoding="utf-8") + "garbage =\n", encoding="utf-8")
        assert self.errors(root) == [
            "cases/test.cases:1: missing field 'query'",
            "cases/train.cases:4: expected a field key (column 9)",
        ]

    def test_case_files_report_in_sorted_order(self, tmp_path):
        root = copy_corpus(tmp_path)
        for name in ("train.cases", "test.cases"):
            path = root / "cases" / name
            text = path.read_text(encoding="utf-8")
            path.write_text(text + text.split("\n", 1)[0] + "\n", encoding="utf-8")
        assert self.errors(root) == [
            "cases/test.cases:6: duplicate case id 63(c)(5)-negative",
            "cases/train.cases:4: duplicate case id 3306(a)(1)(B)-positive",
        ]

    def test_a_case_reports_its_fields_before_its_duplicate_id(self, tmp_path):
        root = copy_corpus(tmp_path)
        path = root / "cases" / "test.cases"
        text = path.read_text(encoding="utf-8")
        first, old = text.split("\n", 1)[0], 'inputs=[Taxp="Bob", Taxy="2017", Bassd=$500]'
        assert old in first
        path.write_text(text + first.replace(old, "inputs=[Zz=(1, 2)]") + "\n", encoding="utf-8")
        assert self.errors(root) == ["cases/test.cases:6: inputs: argument Zz holds (1, 2), which is not a value"]

    def test_a_case_id_is_unique_across_files(self, tmp_path):
        root = copy_corpus(tmp_path)
        first = (root / "cases" / "test.cases").read_text(encoding="utf-8").split("\n", 1)[0]
        path = root / "cases" / "train.cases"
        path.write_text(path.read_text(encoding="utf-8") + first + "\n", encoding="utf-8")
        assert self.errors(root) == ["cases/train.cases:4: duplicate case id 63(c)(5)-negative"]

    def test_offsets_duplicates_come_at_each_repeat_in_file_order(self, tmp_path):
        # Each duplicate is reported at every record of its id after the
        # first, in file order with the other problems. A record that fails
        # its own checks is no first record: `§2(a)(1)` is first read whole
        # at line 16.
        root = copy_corpus(tmp_path)
        index = root / "statutes" / "offsets.txt"
        edit(index, '§2(a)(1) file="section2.txt" start=0 end=172', '§2(a)(1) file="section2.txt" start=0 end=9999')
        index.write_text(
            index.read_text(encoding="utf-8")
            + '§1(d)(iv) file="section1.txt" start=0 end=5\n'
            + 'Tax file="tax.txt" start=0 end=5\n'
            + '§1(d)(iv) file="nosuch.txt" start=0 end=5\n'
            + '§2(a)(1) file="section2.txt" start=0 end=172\n'
            + 'Tax file="tax.txt" start=1 end=5\n',
            encoding="utf-8",
        )
        assert self.errors(root) == [
            "statutes/offsets.txt:2: offsets (0, 9999) out of bounds for section2.txt of length 402",
            "statutes/offsets.txt:13: duplicate subsection id §1(d)(iv)",
            "statutes/offsets.txt:14: duplicate subsection id Tax",
            "statutes/offsets.txt:15: section file not found: nosuch.txt",
            "statutes/offsets.txt:17: duplicate subsection id Tax",
        ]

    def test_spans_errors_end_the_load_before_coref_is_read(self, tmp_path):
        root = copy_corpus(tmp_path)
        edit(root / "spans.txt", "§1(d)(iv) spans=[(5, 50), (54, 72)]", "§1(d)(iv) spans=5")
        edit(root / "coref.txt", "§1(d)(iv) clusters=[Tax:[0], Taxinc:[1]]", "§1(d)(iv) clusters=5")
        assert self.errors(root) == ["spans.txt:1: expected a [(start, end), ...] list"]

    @settings(max_examples=300, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(st.data())
    def test_the_fixture_loads_as_first_written(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            assert_loaders_agree(copy_corpus(Path(tmp)), data)

    # `test_drawn_corpora.py` runs this differential on every drawn corpus.
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(EXPLICIT_CORPORA), st.data())
    def test_drawn_corpora_load_as_first_written(self, drawn, data):
        with tempfile.TemporaryDirectory() as tmp:
            assert_loaders_agree(write_corpus(drawn, Path(tmp)).parent, data)


class TestValidation:
    """A reference from one corpus file to another is checked at the line
    that makes it: a rule's head and callees at its clause, a cluster label
    at its coref record, a query at its case."""

    errors = TestReadingRule.errors

    def test_fixture_is_clean(self, manifest_path, capsys):
        assert main(["validate", "--manifest", str(manifest_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_unknown_case_query(self, tmp_path):
        root = copy_corpus(tmp_path)
        edit(root / "cases" / "test.cases", 'query="§2(a)(1)"', 'query="§999"')
        assert self.errors(root) == [
            "cases/test.cases:3: case 2(a)(1)-positive: query §999 has no structure rule",
            "cases/test.cases:4: case 2(a)(1)-negative: query §999 has no structure rule",
        ]

    def test_a_query_that_is_not_an_id_reads_on_one_line(self, tmp_path):
        # A quoted query can hold any line separator; no rule head can, and
        # the problem reads as one line, the query as its repr.
        root = copy_corpus(tmp_path)
        case = '2(a)(1)-positive query='
        edit(root / "cases" / "test.cases", case + '"§2(a)(1)"', case + '"§2\\u2028#"')
        assert self.errors(root) == [
            "cases/test.cases:3: case 2(a)(1)-positive: query '§2\\u2028#' has no structure rule"
        ]

    def test_structure_errors_name_their_lines(self, tmp_path):
        # Clause 3 does not parse, so clause 2's call to it is no problem of its own.
        root = copy_corpus(tmp_path)
        edit(root / "structure.txt", "§2(a)(1)(A)(Taxp, Taxy).", "§2(a)(1)(A)(Taxp, Taxy)")
        edit(root / "structure.txt", "§63(c)(5)(A)().", "§63(c)(5)(A)().\n\n§1(d)(iv)(Tax).")
        with pytest.raises(CorpusError) as exc:
            load_corpus(root / "manifest.txt")
        where = root / "structure.txt"
        assert [str(e) for e in exc.value.errors] == [
            f"{where}:6: clause 3: expected '.', found '§2' (at offset 288)",
            f"{where}:12: clause 9: duplicate rule for §1(d)(iv)",
        ]

    def test_clause_after_a_missing_period_reports_its_own_error(self, tmp_path):
        # The clause on the next line is parsed, not skipped with the broken one.
        root = copy_corpus(tmp_path)
        edit(root / "structure.txt", "§2(a)(1)(A)(Taxp, Taxy).", "§2(a)(1)(A)(Taxp, Taxy)")
        edit(root / "structure.txt", "\n§2(a)(1)(B)(Taxp, Taxy, S211, S24A).", "\n§2(a)(1)(B)(Taxp, Taxp, S211, S24A).")
        with pytest.raises(CorpusError) as exc:
            load_corpus(root / "manifest.txt")
        where = root / "structure.txt"
        assert [str(e) for e in exc.value.errors] == [
            f"{where}:6: clause 3: expected '.', found '§2' (at offset 288)",
            f"{where}:6: clause 4: §2(a)(1)(B): duplicate parameter names (at offset 288)",
        ]

    def test_undefined_structure_callee(self, tmp_path):
        root = copy_corpus(tmp_path)
        edit(root / "structure.txt", "\n§3306(c)(Employee, Employer, Service).", "")
        assert self.errors(root) == [
            "structure.txt:7: clause 5: §3306(a)(1)(B): reference to undefined rule §3306(c)"
        ]

    def test_cluster_name_not_a_rule_param(self, tmp_path):
        root = copy_corpus(tmp_path)
        edit(root / "coref.txt", "§1(d)(iv) clusters=[Tax:[0], Taxinc:[1]]",
             "§1(d)(iv) clusters=[Tax:[0], Oops:[1]]")
        assert self.errors(root) == ["coref.txt:1: layer §1(d)(iv): cluster 'Oops' is not a parameter of its rule"]

    def test_a_cluster_named_where_no_rule_declares_parameters(self, tmp_path):
        root = copy_corpus(tmp_path)
        edit(root / "structure.txt", "\n§3306(c)(Employee, Employer, Service).", "")
        edit(root / "structure.txt", "\n§3306(a)(1)(B)(", "\n% §3306(a)(1)(B)(")
        assert self.errors(root) == [
            "coref.txt:10: layer §3306(a)(1)(B): cluster 'Workday' named but no rule declares parameters",
            "coref.txt:11: layer §3306(c): cluster 'Service' named but no rule declares parameters",
        ]

    def test_each_problem_comes_with_its_rule_case_or_layer(self, tmp_path):
        # Each problem is at the line of the rule, layer or case it is
        # about; the load stops after the first file that has one.
        root = copy_corpus(tmp_path)
        originals = {name: (root / name).read_text(encoding="utf-8") for name in ("structure.txt", "coref.txt")}
        edit(root / "cases" / "test.cases", '2(a)(1)-positive query="§2(a)(1)"', '2(a)(1)-positive query="§999"')
        edit(root / "structure.txt", "\n§3306(c)(Employee, Employer, Service).", "")
        edit(root / "structure.txt", "\n§63(c)(5)(A)().", "\n§63(c)(5)(A)().\n§7(a)().")
        edit(root / "coref.txt", "§1(d)(iv) clusters=[Tax:[0], Taxinc:[1]]", "§1(d)(iv) clusters=[Tax:[0], Oops:[1]]")
        assert self.errors(root) == [
            "structure.txt:7: clause 5: §3306(a)(1)(B): reference to undefined rule §3306(c)",
            "structure.txt:10: clause 8: rule §7(a) has no subsection text",
        ]
        (root / "structure.txt").write_text(originals["structure.txt"], encoding="utf-8")
        assert self.errors(root) == ["coref.txt:1: layer §1(d)(iv): cluster 'Oops' is not a parameter of its rule"]
        (root / "coref.txt").write_text(originals["coref.txt"], encoding="utf-8")
        assert self.errors(root) == ["cases/test.cases:3: case 2(a)(1)-positive: query §999 has no structure rule"]

    def test_a_structure_problem_stops_the_load_before_the_cases(self, tmp_path, capsys):
        # The bad query is not reported: the load stops at structure.txt.
        root = copy_corpus(tmp_path)
        edit(root / "structure.txt", ":- §3306(c)(Employee", ":- §3306(d)(Employee")
        edit(root / "cases" / "test.cases", 'query="§2(a)(1)"', 'query="§999"')
        assert main(["validate", "--manifest", str(root / "manifest.txt")]) == 1
        where = root / "structure.txt"
        message = "clause 5: §3306(a)(1)(B): reference to undefined rule §3306(d)"
        assert capsys.readouterr().err == f"{where}:7: {message}\n"


def test_the_fixture_builder_writes_the_fixture(tmp_path, monkeypatch, capsys):
    # scripts/build_fixture_corpus.py regenerates tests/fixtures/corpus byte
    # for byte: the same files, the same bytes in each.
    monkeypatch.setattr(sys, "path", [*sys.path])  # the script puts src/ on it
    spec = importlib.util.spec_from_file_location("build_fixture_corpus", SCRIPTS / "build_fixture_corpus.py")
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    monkeypatch.setattr(builder, "OUT", tmp_path)
    builder.main()
    assert capsys.readouterr().out == f"fixture corpus written to {tmp_path}\n"

    def files(root: Path) -> dict[str, bytes]:
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    assert files(tmp_path) == files(FIXTURES)


class TestRoundTrip:
    def test_serialize_is_byte_identical(self, corpus, manifest_path):
        root = manifest_path.parent
        layers = list(corpus.layers.values())
        assert serialize_spans(layers) == (root / "spans.txt").read_text(encoding="utf-8")
        assert serialize_coref(layers) == (root / "coref.txt").read_text(encoding="utf-8")
        assert serialize_cases(list(corpus.cases_of("train"))) == (
            root / "cases" / "train.cases"
        ).read_text(encoding="utf-8")
        assert serialize_cases(list(corpus.cases_of("test"))) == (
            root / "cases" / "test.cases"
        ).read_text(encoding="utf-8")

    def test_labels_that_are_not_record_keys_round_trip(self, tmp_path):
        files = {
            "manifest.txt": "statutes=statutes\nspans=spans.txt\ncoref=coref.txt\nstructure=structure.txt\ncases=cases\n",
            "statutes/s.txt": "Tax text",
            "statutes/offsets.txt": '§1 file="s.txt" start=0 end=3\n',
            "spans.txt": "§1 spans=[(0, 3)]\n",
            "coref.txt": '§1 clusters=["Tax\'p":[0]]\n',
            "structure.txt": "§1(Tax'p).\n",
            "cases/train.cases": "",
            "cases/test.cases": "",
        }
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text, encoding="utf-8")
        corpus = load_corpus(tmp_path / "manifest.txt")
        assert serialize_coref(list(corpus.layers.values())) == files["coref.txt"]

    def test_hash_stable(self, corpus, manifest_path):
        assert corpus_hash(corpus) == corpus_hash(load_corpus(manifest_path))

    def test_the_fixture_loads_without_its_cases(self, manifest_path):
        assert_loads_without_its_cases(manifest_path, outcome(load_corpus, manifest_path))

    def test_every_corpus_loads_as_written(self, corpus, tmp_path):
        for written in each_written((corpus, *EXPLICIT_CORPORA), tmp_path):
            loads_as_written(*written)

    def test_every_corpus_loads_without_its_cases(self, corpus, tmp_path):
        for written in each_written((corpus, *EXPLICIT_CORPORA), tmp_path):
            loads_without_its_cases(*written)

    def test_every_loaded_corpus_serializes_to_its_files(self, corpus, tmp_path):
        for written in each_written((corpus, *EXPLICIT_CORPORA), tmp_path):
            serializes_to_its_files(*written)


class TestStatistics:
    def test_fixture_histograms(self, corpus):
        s = corpus_statistics(corpus)
        assert s.series["placeholders per subsection"].counts == {0: 1, 2: 3, 3: 3, 4: 2, 5: 1, 8: 1, 12: 1}
        assert s.series["placeholders per subsection"].mean == pytest.approx(4.0)
        assert s.series["placeholders per subsection"].median == 3
        assert s.series["arguments per subsection"].counts == {0: 1, 2: 4, 3: 3, 4: 2, 7: 1, 8: 1}
        assert s.series["mentions per argument"].counts == {1: 34, 2: 5, 4: 1}
        assert s.series["mentions per argument"].mean == pytest.approx(48 / 40)
        assert s.series["rule dependencies"].counts == {0: 8, 1: 2, 2: 1, 4: 1}
        assert s.case_count == 8 and s.silver_count == 2

    def test_pair_counts_by_split(self, corpus):
        s = corpus_statistics(corpus)
        assert s.series["inputs[train]"].counts == {2: 3}
        assert s.series["inputs[silver]"].counts == {1: 2}
        assert s.series["expected[train]"].counts == {1: 1, 2: 1, 5: 1}
        assert s.series["expected[all]"].units == 8

    def test_a_third_split_and_no_silver(self, corpus, tmp_path, capsys):
        # "all" is every gold case, those of `dev` too, and a corpus without
        # silver cases prints no silver series.
        manifest = write_dev_split(corpus, tmp_path / "corpus")
        s, fixture = corpus_statistics(load_corpus(manifest)), corpus_statistics(corpus)
        assert (s.case_count, s.silver_count) == (8, 0)
        assert s.series["inputs[train]"] == fixture.series["inputs[train]"]
        assert s.series["inputs[test]"].units == 3 and fixture.series["inputs[test]"].units == 5
        assert s.series["inputs[all]"] == fixture.series["inputs[all]"] and s.series["inputs[all]"].units == 8
        assert s.series["expected[all]"] == fixture.series["expected[all]"]
        assert s.series["inputs[silver]"].units == s.series["expected[silver]"].units == 0
        assert "[silver]" not in s.render() and "inputs[silver]" in fixture.render()

        out = tmp_path / "out"
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert capsys.readouterr().out == s.render() + "\n"
        assert (out / "stats.report.txt").read_text(encoding="utf-8") == s.render() + "\n"
        written = (out / "stats.records.txt").read_text(encoding="utf-8").splitlines()[1:]
        assert written == [f"{name} value={value:.6f}" for name, value in s.flat().items()]

    def test_empty_corpus_all_zero(self, tmp_path):
        (tmp_path / "statutes").mkdir()
        (tmp_path / "statutes" / "offsets.txt").write_text("", encoding="utf-8")
        (tmp_path / "cases").mkdir()
        for name in ("spans.txt", "coref.txt", "structure.txt"):
            (tmp_path / name).write_text("", encoding="utf-8")
        (tmp_path / "manifest.txt").write_text(
            "statutes=statutes\nspans=spans.txt\ncoref=coref.txt\n"
            "structure=structure.txt\ncases=cases\n",
            encoding="utf-8",
        )
        s = corpus_statistics(load_corpus(tmp_path / "manifest.txt"))
        assert s.subsection_count == 0 and s.case_count == 0
        assert s.series["placeholders per subsection"].counts == {}
        assert s.series["placeholders per subsection"].mean == 0.0
