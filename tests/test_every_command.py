"""Every benchmark step's command, in process, on drawn corpora, against the
references in `oracles.py`.

Each corpus from `generators.corpora()` (the model's constructors, text of
every code point, references from file to file that hold in three draws in
four) and `corpora(distributed=True)` (corpora that validate) is written
in the canonical format and every `perfbench/workloads.STEPS` command runs
on it through `cli.main`, in a temporary working directory, as the
benchmark runs it. A command whose corpus files `oracles.load_corpus`
accepts gives exit 0, and any other the located exit 1 of
`test_corruption.check`. A report is the one the reference report
functions give for the same predictions, and an `eval-inst` run predicts
what the recursive tree evaluation (`oracles.instantiate_full`) predicts,
so these tests gate the engine, the scorers and the commands on arbitrary
programs, not only on the fixture.
About one distributed draw in four sends a value up through a binding into
the constant resolver's predictions (see `generators.corpora`), so an
engine that drops such a value fails here too.
"""

import contextlib
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, Phase, given, settings

import oracles
from generators import corpora
from layouts import write_corpus
from statreason import records
from statreason.baselines import (
    ConstantResolver,
    HeuristicResolver,
    OracleResolver,
    fit_constant_baseline,
    single_mention_coref,
    string_match_coref,
)
from statreason.corpus import Corpus, CorpusError
from statreason.engine import CaseResult, EngineConfig, EngineError, RunContext
from test_corruption import check
from workloads import MANIFEST, STEPS, command_line

# Commands that read no case, so only the other corpus files decide their exit.
READS_NO_CASE = ("eval-coref", "eval-argid", "cascade")


@contextlib.contextmanager
def working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def option(args: list[str], name: str, default=None):
    return args[args.index(name) + 1] if name in args else default


def coref_predictions(corpus: Corpus, baseline: str) -> dict:
    if baseline == "single":
        return {sid: single_mention_coref(layer) for sid, layer in corpus.layers.items()}
    if baseline == "string":
        return {
            sid: string_match_coref(layer.spans, corpus.subsections[sid].text) for sid, layer in corpus.layers.items()
        }
    return {sid: layer.clusters for sid, layer in corpus.layers.items()}  # the corpus's own coref file


def predicted_spans(corpus: Corpus, source: str) -> dict:
    if source == "heuristic":
        return {sid: tuple(oracles.heuristic_argument_id(corpus.subsections[sid].text)) for sid in corpus.layers}
    return {sid: layer.spans for sid, layer in corpus.layers.items()}  # the corpus's own spans file


def training_cases(corpus: Corpus, args: list[str]) -> list:
    """The cases an `eval-inst` step's constant resolver fits on."""
    return list(corpus.cases_of("train")) + (list(corpus.silver) if "--with-silver" in args else [])


def instantiation_run(corpus: Corpus, args: list[str]):
    """The `CaseResult`s and config of an `eval-inst` step, evaluated by the
    recursive reference."""
    config = EngineConfig(1 if "--no-structure" in args else 3, insert_gold="--insert-gold" in args)
    resolver = option(args, "--resolver")
    if resolver == "oracle":
        resolver = OracleResolver()
    elif resolver == "heuristic":
        resolver = HeuristicResolver()
    else:
        resolver = ConstantResolver(fit_constant_baseline(training_cases(corpus, args)))
    context = RunContext(corpus, config)
    results = []
    for case in corpus.cases_of(option(args, "--split", "test")):
        try:
            results.append(CaseResult(case, oracles.instantiate_full(resolver, case, context), None))
        except EngineError as exc:
            results.append(CaseResult(case, {}, str(exc)))
    return results, config


def reference(corpus: Corpus, args: list[str]):
    """A step's report by the references, and its prediction lines or None;
    None for a step that writes no report."""
    command = args[0]
    if command == "eval-coref":
        baseline = option(args, "--baseline")
        return oracles.coref_report(corpus, coref_predictions(corpus, baseline), baseline), None
    if command == "eval-argid":
        source = option(args, "--source")
        return oracles.argid_report(corpus, predicted_spans(corpus, source), source), None
    if command == "cascade":
        source = option(args, "--source")
        clusters_by_sid = {}
        for sid, spans in predicted_spans(corpus, source).items():
            partition = string_match_coref(spans, corpus.subsections[sid].text)
            clusters_by_sid[sid] = tuple(tuple((spans[i].start, spans[i].end) for i in c) for c in partition)
        return oracles.cascade_report(corpus, clusters_by_sid, source), None
    if command == "eval-inst":
        results, config = instantiation_run(corpus, args)
        predictions = [
            f"{r.case.id} arg={records.write_text(name)} value={records.write_value(value)}"
            for r in results
            for name, value in r.predicted.items()
        ]
        return oracles.instantiation_report(results, config), predictions
    return None  # validate and stats


def loads(manifest: Path, cases: bool) -> bool:
    """Whether the reference loader accepts the corpus, its cases only if `cases`."""
    try:
        oracles.load_corpus(manifest, cases)
    except CorpusError:
        return False
    return True


def assert_every_step(corpus: Corpus) -> bool:
    """Run every step on `corpus`, written in a temporary working
    directory, and check each exit, report and prediction; whether the
    reference loader accepts the corpus with its cases."""
    with tempfile.TemporaryDirectory() as tmp, working_directory(Path(tmp)):
        manifest = write_corpus(corpus, Path(MANIFEST).parent)
        valid, statutes_valid = loads(manifest, True), loads(manifest, False)
        for label, args in STEPS.items():
            out = Path("out") / label
            # An absolute manifest, so that `check` finds each message located under `tmp`.
            argv = [str(Path(tmp, MANIFEST)) if a == MANIFEST else a for a in command_line(label, out)]
            code = check(argv, tmp)
            if not (statutes_valid if args[0] in READS_NO_CASE else valid):
                assert code == 1, label
                continue
            if "constant" in args and not training_cases(corpus, args):
                assert code == 1, label  # nothing to fit on, which `check` saw located
                continue
            assert code == 0, label
            expected = reference(corpus, args)
            if expected is None:
                continue
            report, predictions = expected
            name = args[0]
            assert (out / f"{name}.report.txt").read_text(encoding="utf-8") == report.render() + "\n", label
            written = (out / f"{name}.records.txt").read_text(encoding="utf-8").splitlines()[1:]
            assert written == [f"{k} value={v:.6f}" for k, v in report.flat().items()], label
            if predictions is not None:
                lines = (out / f"{name}.predictions.txt").read_text(encoding="utf-8").splitlines()[1:]
                assert lines == predictions, label
    return valid


# No shrinking: every shrink step runs every command again, so a failing draw
# would take minutes to report; the first failing draw is reported as drawn.
SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)


@SETTINGS
@given(corpora())
def test_every_command_on_any_corpus(drawn):
    assert_every_step(drawn)


@SETTINGS
@given(corpora(distributed=True))
def test_every_command_on_a_corpus_that_validates(drawn):
    assert assert_every_step(drawn)
