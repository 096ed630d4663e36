"""The benchmark's workloads: their inputs, command steps and known answers.

Every step runs with the workload's directory as working directory and
relative paths, so reports that echo a path read the same on every run.

- fixture-battery: the `scripts/reproduce_tables.py` step list on a copy
  of the bundled 12-subsection fixture corpus. Each command does little
  work, so interpreter start-up and imports dominate. The seed is unused,
  as the fixture is fixed.
- sara-coref: coreference baselines, argument identification and the
  cascade on a generated SARA-scale corpus. Pooled CEAF and BLANC are
  quadratic in mentions, so `coref_metrics` does most of the work and the
  engine none.
- sara-inst: argument instantiation with every resolver and flag on the
  same generated corpus; the engine, tree building, value maps and
  resolver calls do most of the work, and `coref_metrics` none. No step
  passes `--jobs`.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import checker

MANIFEST = "corpus/manifest.txt"
# Generated corpora with stored reference outputs, per scale: --seed picks
# corpus seed % count, so every seed is byte-checked.
CORPUS_SEEDS = {"sara": 32, "smoke": 4}

STEPS = {
    "validate": ["validate"],
    "stats": ["stats"],
    "coref-single": ["eval-coref", "--baseline", "single"],
    "coref-string": ["eval-coref", "--baseline", "string"],
    "coref-gold": ["eval-coref", "--baseline", "import:corpus/coref.txt"],
    "argid-heuristic": ["eval-argid", "--source", "heuristic"],
    "argid-gold": ["eval-argid", "--source", "import:corpus/spans.txt"],
    "cascade-heuristic": ["cascade", "--source", "heuristic"],
    "cascade-gold": ["cascade", "--source", "import:corpus/spans.txt"],
    "inst-oracle-all": ["eval-inst", "--resolver", "oracle", "--split", "all"],
    "inst-oracle": ["eval-inst", "--resolver", "oracle"],
    "inst-constant": ["eval-inst", "--resolver", "constant"],
    "inst-constant-nostructure": ["eval-inst", "--resolver", "constant", "--no-structure"],
    "inst-heuristic": ["eval-inst", "--resolver", "heuristic"],
    "inst-constant-silver": ["eval-inst", "--resolver", "constant", "--with-silver"],
    "inst-constant-insertgold": ["eval-inst", "--resolver", "constant", "--insert-gold"],
}

WORKLOADS = {
    "fixture-battery": [
        "validate", "stats", "coref-single", "coref-string", "coref-gold", "argid-heuristic", "argid-gold",
        "cascade-heuristic", "cascade-gold", "inst-oracle-all", "inst-constant", "inst-constant-nostructure",
        "inst-heuristic", "inst-constant-silver",
    ],
    "sara-coref": ["coref-string", "coref-single", "argid-heuristic", "cascade-heuristic"],
    "sara-inst": [
        "inst-oracle", "inst-heuristic", "inst-constant", "inst-constant-nostructure", "inst-constant-silver",
        "inst-constant-insertgold",
    ],
}

GOLD_COREF = ("exact_match_f1_avg", "exact_match_f1_macro", "perfectly_resolved", "muc_f1", "ceaf_m_f1",
              "ceaf_e_f1", "blanc_f1")


def command_line(label: str, out: Path) -> list[str]:
    """statreason arguments of one step, writing into `out`."""
    args = STEPS[label] + ["--manifest", MANIFEST]
    return args if args[0] == "validate" else args + ["--out", str(out)]


@dataclass(frozen=True)
class Prepared:
    workload: str
    work: Path  # working directory; the corpus is in work/corpus
    steps: list[str]
    corpus: str  # "fixture" or "<scale>-<corpus seed>", its key in golden.json
    golden: dict  # step label -> output name -> reference fingerprint
    golden_problem: str | None  # why no reference outputs are stored, if so
    known: dict[str, dict[str, float]]  # step label -> records metric -> value


def prepare(workload: str, seed: int, scale: str, work: Path, fixture: Path) -> Prepared:
    """Write the workload's corpus under `work` and gather its answers."""
    corpus = work / "corpus"
    if workload == "fixture-battery":
        name = "fixture"
        shutil.copytree(fixture, corpus)
        # The fixture's frozen oracle-closure expectation: 100% on every case.
        oracle = {"train": 1.0, "test": 1.0, "all": 1.0}
    else:
        import gencorpus

        corpus_seed = seed % CORPUS_SEEDS[scale]
        name = f"{scale}-{corpus_seed}"
        oracle = gencorpus.generate(corpus, corpus_seed, scale)
    known = {
        "coref-gold": dict.fromkeys(GOLD_COREF, 1.0),
        "argid-gold": {"span_f1_avg": 1.0, "span_f1_macro": 1.0},
        "inst-oracle-all": {"unified": oracle["all"]},
        "inst-oracle": {"unified": oracle["test"]},
    }
    return Prepared(workload, work, WORKLOADS[workload], name, *checker.load_golden(name, corpus), known)


def check_outputs(prep: Prepared, out_root: Path, codes: list[int]) -> dict[str, list[str]]:
    """Problems of each failed step of one pass whose outputs are under
    out_root/<label>; steps that passed are left out."""
    failures = {}
    for label, code in zip(prep.steps, codes):
        problems = checker.check(
            STEPS[label][0], code, out_root / label, prep.golden.get(label), prep.known.get(label, {})
        )
        if problems:
            failures[label] = problems
    return failures
