import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from statreason import records
from statreason.cli import main
from statreason.corpus import load_corpus

from oracles import oracle_ceaf_e, oracle_ceaf_m

FIXTURES = Path(__file__).parent / "fixtures" / "corpus"
MANIFEST = str(FIXTURES / "manifest.txt")


class TestValidate:
    def test_fixture_corpus_passes(self, capsys):
        assert main(["validate", "--manifest", MANIFEST]) == 0
        assert "corpus ok" in capsys.readouterr().out

    def test_undefined_callee_fails_naming_it(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        shutil.copytree(FIXTURES, root)
        structure = root / "structure.txt"
        structure.write_text(
            structure.read_text(encoding="utf-8").replace(
                "\n§3306(c)(Employee, Employer, Service).", ""
            ),
            encoding="utf-8",
        )
        assert main(["validate", "--manifest", str(root / "manifest.txt")]) == 1
        assert "§3306(c)" in capsys.readouterr().err

    def test_corrupt_span_offset_fails_with_file(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        shutil.copytree(FIXTURES, root)
        spans = root / "spans.txt"
        spans.write_text(
            spans.read_text(encoding="utf-8").replace("(54, 72)", "(54, 7200)"), encoding="utf-8"
        )
        assert main(["validate", "--manifest", str(root / "manifest.txt")]) == 1
        err = capsys.readouterr().err
        assert "spans.txt" in err and "7200" in err

    def test_empty_labelled_cluster_fails_with_file_and_line(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        shutil.copytree(FIXTURES, root)
        coref = root / "coref.txt"
        text = coref.read_text(encoding="utf-8")
        assert text.startswith("§1(d)(iv) clusters=[Tax:[0], Taxinc:[1]]")
        coref.write_text(text.replace("Taxinc:[1]]", "Taxinc:[1], A:[]]", 1), encoding="utf-8")
        assert main(["validate", "--manifest", str(root / "manifest.txt")]) == 1
        assert f"{coref}:1: §1(d)(iv): empty cluster" in capsys.readouterr().err.splitlines()

    def test_impossible_date_fails_with_file_and_line(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        shutil.copytree(FIXTURES, root)
        cases = root / "cases" / "test.cases"
        lines = cases.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[3].startswith("2(a)(1)-negative ")
        lines[3] = lines[3].replace('Taxy="2017"]', 'Taxy="2017", D=2017-13-45]')
        cases.write_text("".join(lines), encoding="utf-8")
        assert main(["validate", "--manifest", str(root / "manifest.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{cases}:4: invalid date '2017-13-45': month must be in 1..12")

    def test_validate_and_eval_print_the_same_problem(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        shutil.copytree(FIXTURES, root)
        cases = root / "cases" / "test.cases"
        cases.write_text(
            cases.read_text(encoding="utf-8").replace('query="§2(a)(1)"', 'query="§404"'),
            encoding="utf-8",
        )
        manifest = str(root / "manifest.txt")
        assert main(["validate", "--manifest", manifest]) == 1
        validate = capsys.readouterr()
        assert main(["eval-inst", "--manifest", manifest]) == 1
        eval_inst = capsys.readouterr()
        assert validate.out == eval_inst.out == ""
        assert validate.err == eval_inst.err
        assert validate.err.startswith(f"{cases}:3: ") and "§404" in validate.err

    def test_eval_commands_enforce_validation(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        shutil.copytree(FIXTURES, root)
        cases = root / "cases" / "test.cases"
        cases.write_text(
            cases.read_text(encoding="utf-8").replace('query="§2(a)(1)"', 'query="§404"'),
            encoding="utf-8",
        )
        assert main(["eval-inst", "--manifest", str(root / "manifest.txt")]) == 1


class TestEvalCommands:
    def test_eval_coref_gold_import_is_perfect(self, capsys):
        code = main([
            "eval-coref", "--manifest", MANIFEST,
            "--baseline", f"import:{FIXTURES / 'coref.txt'}",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "100.0" in out

    def test_eval_coref_aligns_clusters_as_the_oracle_does(self, tmp_path, capsys):
        # Four layers keep the pooled universe small enough for the exhaustive
        # oracle. Regrouping §2(a)(1)(B) puts 3 gold and 2 predicted clusters
        # in one overlap component, which CEAF aligns by assignment search.
        root = tmp_path / "corpus"
        shutil.copytree(FIXTURES, root)
        kept = ("§1(d)(iv)", "§2(a)(1)(B)", "§151(b)", "§3306(c)")
        for name in ("spans.txt", "coref.txt"):
            lines = (root / name).read_text(encoding="utf-8").splitlines(keepends=True)
            (root / name).write_text("".join(l for l in lines if l.split(" ", 1)[0] in kept), encoding="utf-8")
        layers = load_corpus(root / "manifest.txt").layers
        assert layers["§2(a)(1)(B)"].clusters == ((0, 3), (1,), (2,), (4,))
        gold = {sid: layer.clusters for sid, layer in layers.items()}
        predicted = {**gold, "§2(a)(1)(B)": ((0, 1), (2, 3), (4,))}
        imported = tmp_path / "predicted.txt"
        imported.write_text(
            "".join(f"{sid} clusters={records.write_clusters(c)}\n" for sid, c in predicted.items()), encoding="utf-8"
        )
        out = tmp_path / "out"
        assert main(["eval-coref", "--manifest", str(root / "manifest.txt"),
                     "--baseline", f"import:{imported}", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "eval-coref.records.txt").read_text(encoding="utf-8").splitlines()[1:]
        written = {name: float(value) for name, value in (line.split(" value=") for line in lines)}

        def pooled(clusters_of):
            return [
                frozenset((sid, layer.spans[i].start, layer.spans[i].end) for i in cluster)
                for sid, layer in layers.items()
                for cluster in clusters_of[sid]
            ]

        universes = pooled(gold), pooled(predicted)
        assert written["ceaf_m_f1"] == pytest.approx(oracle_ceaf_m(*universes)[2], abs=5e-7)
        assert written["ceaf_e_f1"] == pytest.approx(oracle_ceaf_e(*universes)[2], abs=5e-7)
        assert written["ceaf_m_f1"] < 1

    def test_eval_argid_gold_import_is_perfect(self, capsys):
        code = main([
            "eval-argid", "--manifest", MANIFEST,
            "--source", f"import:{FIXTURES / 'spans.txt'}",
        ])
        assert code == 0
        assert "100.0" in capsys.readouterr().out

    def test_oracle_instantiation_hits_floor(self):
        assert main([
            "eval-inst", "--manifest", MANIFEST, "--resolver", "oracle",
            "--split", "all", "--floor", "unified=0.999",
        ]) == 0

    def test_floor_failure_exits_nonzero(self, capsys):
        assert main([
            "eval-inst", "--manifest", MANIFEST, "--resolver", "constant",
            "--floor", "unified=0.99",
        ]) == 1
        assert "floor" in capsys.readouterr().err

    @pytest.mark.parametrize("floor", ["foo", "x=abc", "=0.5", "x=", "unified=nan", "unified=-NaN"])
    def test_malformed_floor_is_usage_error(self, floor, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval-inst", "--manifest", MANIFEST, "--floor", floor])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument --floor: expected NAME=VALUE with a numeric VALUE, got {floor!r}" in err

    def test_unknown_baseline_is_runtime_error(self, capsys):
        assert main(["eval-coref", "--manifest", MANIFEST, "--baseline", "wat"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval-argid", "--source", "bogus"], "unknown span source 'bogus'"),
            (["eval-inst", "--depth-cap", "0"], "depth_cap must be >= 1"),
            (["eval-inst", "--threshold", "1.5"], "truth_threshold must be in (0, 1)"),
        ],
        ids=["source", "depth-cap", "threshold"],
    )
    def test_a_value_out_of_range_is_a_runtime_error(self, argv, message, capsys):
        assert main([argv[0], "--manifest", MANIFEST, *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_stats_reports_counts(self, capsys):
        assert main(["stats", "--manifest", MANIFEST]) == 0
        out = capsys.readouterr().out
        assert "gold cases: 8" in out
        assert "placeholders per subsection" in out


class TestImports:
    @pytest.mark.parametrize(
        "command, option, label",
        [
            ("eval-coref", "--baseline", "string"),
            ("eval-argid", "--source", "heuristic"),
            ("cascade", "--source", "heuristic"),
        ],
    )
    def test_a_dump_reads_back_to_the_same_scores(self, command, option, label, tmp_path, capsys):
        writer = {"--baseline": "eval-coref", "--source": "eval-argid"}[option]
        assert main([writer, "--manifest", MANIFEST, option, label, "--out", str(tmp_path / "dump")]) == 0
        imported = f"import:{tmp_path / 'dump' / f'{writer}.predictions.txt'}"
        own, read = tmp_path / "own", tmp_path / "read"
        for source, out in ((label, own), (imported, read)):
            assert main([command, "--manifest", MANIFEST, option, source, "--out", str(out)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in own.iterdir())
        assert names == sorted(p.name for p in read.iterdir())
        for name in names:
            a, b = ((d / name).read_text(encoding="utf-8") for d in (own, read))
            if name.endswith(".records.txt"):
                assert a.startswith("@run ") and b.startswith("@run ")
                a, b = a.split("\n", 1)[1], b.split("\n", 1)[1]
            assert a == b.replace(f"[{imported}]", f"[{label}]")

    def test_a_coref_import_labels_only_parameters_of_the_rule(self, tmp_path, capsys):
        # An imported coref file is held to the corpus's own rule for labels;
        # the unlabelled clusters of eval-coref's own dump need none.
        coref = tmp_path / "coref.txt"
        lines = (FIXTURES / "coref.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].replace("Taxy:[2]", "Nope:[2]")
        coref.write_text("".join(lines), encoding="utf-8")
        assert main(["eval-coref", "--manifest", MANIFEST, "--baseline", f"import:{coref}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{coref}:2: layer §2(a)(1): cluster 'Nope' is not a parameter of its rule\n"
        dump = tmp_path / "dump"
        assert main(["eval-coref", "--manifest", MANIFEST, "--baseline", "single", "--out", str(dump)]) == 0
        imported = f"import:{dump / 'eval-coref.predictions.txt'}"
        assert main(["eval-coref", "--manifest", MANIFEST, "--baseline", imported]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["eval-argid", "cascade"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("§1(d)(iv) spans=[(0, 3), oops]", "cannot type value 'oops'"),
            ("§1(d)(iv) spans=[(5, 2)]", "invalid span (5, 2)"),
            ("§1(d)(iv) spans=[[1], (0, 3)]", "expected (start, end) pairs, found [1]"),
            ("§1(d)(iv) spans=[(54, 72), (5, 50)]", "spans overlap or are out of order"),
            ("§404 spans=[(0, 3)]", "unknown subsection §404"),
            ("§2(a)(1) spans=[(27, 40)]", "duplicate spans record for §2(a)(1)"),
        ],
        ids=["bad-value", "backwards-span", "not-a-pair", "out-of-order", "unknown-subsection", "duplicate"],
    )
    def test_bad_span_import_fails_with_file_and_line(self, command, bad, message, tmp_path, capsys):
        spans = tmp_path / "spans.txt"
        spans.write_text(f"§2(a)(1) spans=[(27, 40)]\n{bad}\n", encoding="utf-8")
        assert main([command, "--manifest", MANIFEST, "--source", f"import:{spans}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{spans}:2: ") and message in captured.err


class TestDeterminism:
    def test_reproduce_tables_writes_the_same_bytes_under_every_hash_seed(self, tmp_path):
        # No set or dict order that depends on string hashing may reach a file.
        script = Path(__file__).parent.parent / "scripts" / "reproduce_tables.py"
        runs = []
        for seed in ("0", "1", "98765"):
            work = tmp_path / seed
            work.mkdir()
            done = subprocess.run(
                [sys.executable, str(script), "--manifest", MANIFEST, "--out", "out"],
                cwd=work, env={**os.environ, "PYTHONHASHSEED": seed}, capture_output=True,
            )
            assert done.returncode == 0, done.stderr
            out = work / "out"
            runs.append((done.stdout, {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}))
        assert len(runs[0][1]) > 20
        assert runs[0] == runs[1] == runs[2]

    def test_reports_byte_identical_across_runs(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main([
                "eval-inst", "--manifest", MANIFEST, "--resolver", "constant",
                "--with-silver", "--out", str(out),
            ])
            assert code == 0
        capsys.readouterr()
        for name in ("eval-inst.report.txt", "eval-inst.records.txt", "eval-inst.predictions.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_cascade_with_gold_spans_matches_string_coref(self, tmp_path, capsys):
        main(["cascade", "--manifest", MANIFEST,
              "--source", f"import:{FIXTURES / 'spans.txt'}", "--out", str(tmp_path)])
        cascade = (tmp_path / "cascade.records.txt").read_text(encoding="utf-8")
        main(["eval-coref", "--manifest", MANIFEST, "--baseline", "string",
              "--out", str(tmp_path)])
        coref = (tmp_path / "eval-coref.records.txt").read_text(encoding="utf-8")
        capsys.readouterr()

        def value(text, key):
            for line in text.splitlines():
                if line.startswith(key + " "):
                    return line.split("value=")[1]
            raise KeyError(key)

        assert value(cascade, "cascade_f1_macro") == value(coref, "exact_match_f1_macro")
        assert value(cascade, "cascade_perfectly_resolved") == value(coref, "perfectly_resolved")
