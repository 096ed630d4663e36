"""Every property of a drawn corpus, checked on one draw.

`generators.corpora()` draws a corpus, `layouts.write_corpus` writes it
once and `load_corpus` loads it once; then each function in `PROPERTIES`
checks what it holds of the draw, its files and that load, and the
corruption differential (`test_corpus.assert_loaders_agree`) runs last, as
it edits the files. Drawing costs most of an example, so a new property of
a drawn corpus is appended to `PROPERTIES` rather than given a draw of its
own, and runs on every example; the test of its module that bears its name
runs it on `generators.EXPLICIT_CORPORA`. The test records the shapes of
its draws with `hypothesis.event`:

    pytest tests/test_drawn_corpora.py --hypothesis-show-statistics
"""

import tempfile
from pathlib import Path

from hypothesis import Phase, event, example, given, note, settings
from hypothesis import strategies as st

from generators import CALLEE_UNDEFINED, ONE_RULE, QUERY_NOT_A_RULE, corpora
from layouts import write_corpus
from statreason.corpus import load_corpus
from statreason.rules import iter_refs, unroll
from test_corpus import (
    assert_loaders_agree,
    loads_as_written,
    loads_without_its_cases,
    outcome,
    serializes_to_its_files,
)
from test_engine import runs_on_the_engine

# Each takes the drawn corpus, its manifest and `outcome(load_corpus, manifest)`.
PROPERTIES = [loads_as_written, loads_without_its_cases, serializes_to_its_files, runs_on_the_engine]


def record_shapes(drawn, manifest, loaded) -> None:
    root = manifest.parent
    event("section files", len(drawn.section_files))
    for name in ("spans.txt", "coref.txt"):
        event(f"non-empty lines in {name}", sum(1 for line in (root / name).read_bytes().split(b"\n") if line))
    event("cases files", len(list((root / "cases").iterdir())))
    event("load", "accepted" if loaded[0] else "refused")
    depths = [
        depth
        for head in drawn.program
        for op, _, depth, bindings, *_ in unroll(drawn.program, head, 4)
        if op == "subsection" and bindings
    ]
    event("deepest binding at depth cap 4", max(depths, default=0))
    callees = {ref.callee_id for rule in drawn.program.values() for ref in iter_refs(rule.body)}
    undefined = callees - drawn.program.keys() - drawn.subsections.keys()
    event("a callee names neither a rule nor a subsection", "yes" if undefined else "no")


# Each example writes a corpus, so a failure is reported as drawn, not
# shrunk. The explicit corpora come without `data`, so no corruption
# follows them.
@settings(max_examples=300, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(corpora(), st.data())
@example(ONE_RULE, None)
@example(QUERY_NOT_A_RULE, None)
@example(CALLEE_UNDEFINED, None)
def test_every_property_of_a_drawn_corpus(drawn, data):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_corpus(drawn, Path(tmp) / "drawn")
        loaded = outcome(load_corpus, manifest)
        record_shapes(drawn, manifest, loaded)
        for check in PROPERTIES:
            note(check.__name__)
            check(drawn, manifest, loaded)
        if data is not None:
            note(assert_loaders_agree.__name__)
            assert_loaders_agree(manifest.parent, data)
