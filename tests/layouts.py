"""Writers of a corpus held in memory: the canonical format that
`load_corpus` reads and the distributed layout that `import-sara` reads.
They need nothing beyond the package, so scripts can use them too."""

from __future__ import annotations

from pathlib import Path

from statreason import records
from statreason.corpus import Corpus, serialize_cases, serialize_coref, serialize_spans
from statreason.model import Case
from statreason.rules import print_rule


def _section_files(corpus: Corpus) -> tuple[dict[str, str], list[tuple[str, str, int, int]]]:
    """Each section file's text, and (id, file, start, end) per subsection in
    corpus order: the subsections dealt out to the files in turn, their
    texts one after another."""
    texts = dict.fromkeys(corpus.section_files, "")
    rows = []
    for k, subsection in enumerate(corpus.subsections.values()):
        name = corpus.section_files[k % len(corpus.section_files)]
        rows.append((subsection.id, name, len(texts[name]), len(texts[name]) + len(subsection.text)))
        texts[name] += subsection.text
    return texts, rows


def _write(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))


def write_corpus(corpus: Corpus, root: Path) -> Path:
    """Write `corpus` in the canonical format under `root`, each section
    file holding its subsections one after another; its manifest's path."""
    layers = list(corpus.layers.values())
    files = {
        "spans.txt": serialize_spans(layers),
        "coref.txt": serialize_coref(layers),
        "structure.txt": "".join(print_rule(rule) + "\n" for rule in corpus.program.values()),
    }
    texts, rows = _section_files(corpus)
    files.update((f"statutes/{name}", text) for name, text in texts.items())
    files["statutes/offsets.txt"] = "".join(
        f"{sid} file={records.write_text(name)} start={start} end={end}\n" for sid, name, start, end in rows
    )
    for split in dict.fromkeys(case.split for case in corpus.cases):
        files[f"cases/{split}.cases"] = serialize_cases(corpus.cases_of(split))
    manifest = "statutes=statutes\nspans=spans.txt\ncoref=coref.txt\nstructure=structure.txt\ncases=cases\n"
    if corpus.silver:
        files["silver/silver.cases"] = serialize_cases(corpus.silver)
        manifest += "silver=silver\n"
    files["manifest.txt"] = manifest
    (root / "cases").mkdir(parents=True)
    _write(root, files)
    return root / "manifest.txt"


def write_dev_split(corpus: Corpus, root: Path) -> Path:
    """Write `corpus` as `write_corpus` does, but with no silver cases and
    its last two test cases in a third split, `dev`; its manifest's path."""
    dev = {case.id for case in corpus.cases_of("test")[-2:]}
    cases = tuple(
        Case(c.id, c.description, c.query, c.inputs, c.expected, "dev") if c.id in dev else c for c in corpus.cases
    )
    fields = (corpus.manifest, corpus.subsections, corpus.layers, corpus.program, cases, (), corpus.section_files)
    return write_corpus(Corpus(*fields), root)


def write_distributed(corpus: Corpus, root: Path) -> None:
    """Write `corpus` in the distributed layout that `import_corpus` reads,
    each section file holding its subsections one after another."""
    files = {"structure.txt": "".join(print_rule(rule) + "\n" for rule in corpus.program.values())}
    texts, rows = _section_files(corpus)
    for name, text in texts.items():
        files[f"statutes/{name}"] = text
        files[f"statutes/{Path(name).with_suffix('.offsets')}"] = "".join(
            f"{sid} {start} {end}\n" for sid, file, start, end in rows if file == name
        )
    for sid, layer in corpus.layers.items():
        stem = sid.removeprefix("§").replace(")(", "_").replace("(", "_").replace(")", "")
        files[f"spans/{stem}"] = "".join(f"{s.start} {s.end}\n" for s in layer.spans)
        cluster_of = {i: k for k, cluster in enumerate(layer.clusters) for i in cluster}
        files[f"coref/{stem}"] = "".join(
            " ".join("1" if cluster_of[i] == cluster_of[j] else "0" for j in range(len(layer.spans))) + "\n"
            for i in range(len(layer.spans))
        )
        files[f"coref/{stem}.names"] = "".join(
            f"{k} {name}\n" for k, name in enumerate(layer.cluster_names) if name is not None
        )
    for case in corpus.cases + corpus.silver:
        blocks = {"Text": case.description, "Question": case.query}
        for block, values in (("Input", case.inputs), ("Output", case.expected)):
            blocks[block] = "\n".join(f"{name}={records.write_value(value)}" for name, value in values.items())
        directory = "silver" if case.split == "silver" else "cases"
        files[f"{directory}/{case.id}"] = "".join(f"% {block}\n{text}\n" for block, text in blocks.items())
    for split in ("train", "test"):
        files[f"splits/{split}.txt"] = "".join(f"{case.id}\n" for case in corpus.cases_of(split))
    _write(root, files)
