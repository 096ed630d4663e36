"""Best-effort import of a distributed statutory-reasoning dataset into the
canonical corpus format.

Every assumption about the distributed layout lives in this module and
nowhere else. The importer expects:

    <source>/statutes/<name>.txt        raw section text
    <source>/statutes/<name>.offsets    "<subsection_id> <start> <end>" per line
                                        (0-based half-open character offsets)
    <source>/spans/<subsection_id>      "<start> <end>" per line
    <source>/coref/<subsection_id>      a 0/1 coreference matrix, one row per line
    <source>/coref/<subsection_id>.names   optional "<cluster_index> <name>" lines
                                        linking clusters to rule parameters
    <source>/structure.txt              Horn clauses in the annotation language
    <source>/cases/<case_id>            "% Text" / "% Question" / "% Input" /
                                        "% Output" blocks
    <source>/splits/train.txt, test.txt case ids, one per line
    <source>/silver/<case_id>           optional, same shape as cases/

Subsection ids appear in file names with "/" unusable, so "§63(c)(5)" is
stored as "63_c_5" (leading "§" dropped, parenthesized parts joined by "_").
Records that do not fit are skipped and logged, never guessed at. Files are
read as the corpus loader reads them (UTF-8, universal newlines); a byte that
is not UTF-8 stops the import with its `path:line`.
"""

from __future__ import annotations

import re
from pathlib import Path

from . import records
from .model import ArgumentLayer, Case, Span, ValueMap, matrix_to_clusters
from .corpus import _read, serialize_cases, serialize_coref, serialize_spans
from .rules import parse_program


class ImportLog:
    __slots__ = ("imported", "skipped")

    def __init__(self) -> None:
        self.imported: list[str] = []
        self.skipped: list[str] = []

    def skip(self, what: str, reason: str) -> None:
        self.skipped.append(f"{what}: {reason}")

    def ok(self, what: str) -> None:
        self.imported.append(what)


def file_stem_to_id(stem: str) -> str:
    """"63_c_5" -> "§63(c)(5)"; a stem without separators is a bare identifier
    only when it is not numeric."""
    parts = stem.split("_")
    if len(parts) == 1 and not parts[0].isdigit():
        return parts[0]
    return "§" + parts[0] + "".join(f"({p})" for p in parts[1:])


def import_corpus(source: str | Path, dest: str | Path) -> ImportLog:
    """Convert a distributed tree into a canonical corpus under `dest`."""
    source, dest = Path(source), Path(dest)
    log = ImportLog()
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "statutes").mkdir(exist_ok=True)
    (dest / "cases").mkdir(exist_ok=True)

    offsets_lines = []
    for text_path in sorted((source / "statutes").glob("*.txt")):
        offsets_path = text_path.with_suffix(".offsets")
        if not offsets_path.exists():
            log.skip(text_path.name, "no .offsets companion")
            continue
        (dest / "statutes" / text_path.name).write_text(_read(text_path), encoding="utf-8")
        for line in _read(offsets_path).splitlines():
            parts = line.split()
            if len(parts) != 3 or not (parts[1].isdigit() and parts[2].isdigit()):
                if line.strip():
                    log.skip(f"{offsets_path.name}: {line!r}", "expected '<id> <start> <end>'")
                continue
            offsets_lines.append(
                f"{parts[0]} file={records.write_text(text_path.name)}"
                f" start={parts[1]} end={parts[2]}"
            )
            log.ok(f"subsection {parts[0]}")
    (dest / "statutes" / "offsets.txt").write_text("\n".join(offsets_lines) + "\n", encoding="utf-8")

    layers = []
    spans_dir, coref_dir = source / "spans", source / "coref"
    if spans_dir.is_dir():
        for span_path in sorted(spans_dir.iterdir()):
            sid = file_stem_to_id(span_path.name)
            spans = []
            bad = False
            for line in _read(span_path).splitlines():
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 2 or not all(p.isdigit() for p in parts):
                    log.skip(f"spans {span_path.name}: {line!r}", "expected '<start> <end>'")
                    bad = True
                    break
                spans.append(Span(int(parts[0]), int(parts[1])))
            if bad:
                continue
            spans.sort()
            clusters, names = _read_clusters(coref_dir, span_path.name, len(spans), log)
            if clusters is None:
                continue
            try:
                layers.append(ArgumentLayer(sid, tuple(spans), clusters, names))
                log.ok(f"layer {sid}")
            except ValueError as exc:
                log.skip(f"layer {sid}", str(exc))
    (dest / "spans.txt").write_text(serialize_spans(layers), encoding="utf-8")
    (dest / "coref.txt").write_text(serialize_coref(layers), encoding="utf-8")

    structure_path = source / "structure.txt"
    if structure_path.exists():
        text = _read(structure_path)
        try:
            parse_program(text)
            (dest / "structure.txt").write_text(text, encoding="utf-8")
            log.ok("structure.txt")
        except ValueError as exc:
            log.skip("structure.txt", str(exc))
            (dest / "structure.txt").write_text("", encoding="utf-8")
    else:
        log.skip("structure.txt", "not present")
        (dest / "structure.txt").write_text("", encoding="utf-8")

    splits = {}
    for split in ("train", "test"):
        listing = source / "splits" / f"{split}.txt"
        if listing.exists():
            for cid in _read(listing).split():
                splits[cid] = split
    for split in ("train", "test"):
        cases = []
        for case_path in sorted((source / "cases").iterdir()) if (source / "cases").is_dir() else []:
            if splits.get(case_path.name, "train") != split:
                continue
            case = _read_case(case_path, split, log)
            if case is not None:
                cases.append(case)
        (dest / "cases" / f"{split}.cases").write_text(serialize_cases(cases), encoding="utf-8")

    silver_dir = source / "silver"
    if silver_dir.is_dir():
        (dest / "silver").mkdir(exist_ok=True)
        silver = []
        for case_path in sorted(silver_dir.iterdir()):
            case = _read_case(case_path, "silver", log)
            if case is not None:
                silver.append(case)
        (dest / "silver" / "silver.cases").write_text(serialize_cases(silver), encoding="utf-8")

    manifest = ["statutes=statutes", "spans=spans.txt", "coref=coref.txt",
                "structure=structure.txt", "cases=cases"]
    if silver_dir.is_dir():
        manifest.append("silver=silver")
    (dest / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    return log


def _read_clusters(coref_dir: Path, name: str, n_spans: int, log: ImportLog):
    matrix_path = coref_dir / name
    if not matrix_path.exists():
        log.skip(f"coref {name}", "no matrix file; defaulting to singletons")
        return tuple((i,) for i in range(n_spans)), ()
    rows = []
    for line in _read(matrix_path).splitlines():
        if line.strip():
            rows.append([int(x) for x in line.split()])
    try:
        clusters = matrix_to_clusters(rows) if rows else ()
    except ValueError as exc:
        log.skip(f"coref {name}", str(exc))
        return None, None
    if sum(len(c) for c in clusters) != n_spans:
        log.skip(f"coref {name}", f"matrix covers {sum(len(c) for c in clusters)} mentions, spans file has {n_spans}")
        return None, None
    names_path = coref_dir / f"{name}.names"
    names: list[str | None] = [None] * len(clusters)
    if names_path.exists():
        for line in _read(names_path).splitlines():
            parts = line.split()
            if len(parts) != 2 or not parts[0].isdigit() or int(parts[0]) >= len(clusters):
                if line.strip():
                    log.skip(f"coref names {name}: {line!r}", "expected '<cluster_index> <name>'")
                continue
            names[int(parts[0])] = parts[1]
    return clusters, tuple(names)


_BLOCK_RE = re.compile(r"^%\s*(Text|Question|Input|Output)\s*$", re.MULTILINE)


def _read_case(path: Path, split: str, log: ImportLog) -> Case | None:
    text = _read(path)
    blocks: dict[str, str] = {}
    matches = list(_BLOCK_RE.finditer(text))
    for m, nxt in zip(matches, matches[1:] + [None]):
        end = nxt.start() if nxt else len(text)
        blocks[m.group(1)] = text[m.end() : end].strip()
    missing = [b for b in ("Text", "Question", "Output") if b not in blocks]
    if missing:
        log.skip(f"case {path.name}", f"missing blocks: {', '.join(missing)}")
        return None
    try:
        inputs = _parse_pairs(blocks.get("Input", ""), "Input")
        expected = _parse_pairs(blocks["Output"], "Output")
    except records.RecordError as exc:
        log.skip(f"case {path.name}", str(exc))
        return None
    description = " ".join(blocks["Text"].split())
    case = Case(path.name, description, blocks["Question"].strip(), inputs, expected, split)
    log.ok(f"case {path.name}")
    return case


def _parse_pairs(block: str, where: str) -> ValueMap:
    entries = []
    for line in block.splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise records.RecordError(f"expected '<name>=<value>', got {line!r}")
        name, _, literal = line.partition("=")
        entries.append(records.Entry(name.strip(), records.parse_value_literal(literal.strip())))
    return records.as_value_map(entries, where)
