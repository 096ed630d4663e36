"""`scripts/same_outputs.py` reports a one-byte change to a report's format,
with the first line that differs, in the report file and on stdout."""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import same_outputs  # noqa: E402


def test_a_one_byte_change_to_a_report_is_reported(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for tree in (old, new):
        shutil.copytree(ROOT / "src" / "statreason", tree / "src" / "statreason")
    changed = new / "src" / "statreason" / "corpus.py"
    source = changed.read_text(encoding="utf-8")
    assert source.count('f"    total units ') == 1
    changed.write_text(source.replace('f"    total units ', 'f"    total Units '), encoding="utf-8")
    shutil.copytree(same_outputs.FIXTURE, tmp_path / "fixture" / "corpus")
    corpora = {"fixture": tmp_path / "fixture"}

    runs = [
        same_outputs.run_tree(tree, corpora, tmp_path / "outputs" / tree.name, ["validate", "stats"])
        for tree in (old, new)
    ]
    files = [same_outputs.files_under(tmp_path / "outputs" / tree) for tree in ("old", "new")]
    found = same_outputs.differences(*runs, *files)
    assert found == [
        "fixture stats: stdout line 11: '    total units 12' != '    total Units 12'",
        "fixture/stats/stats.report.txt: line 11: '    total units 12' != '    total Units 12'",
    ]
