"""Import of a distributed statutory-reasoning dataset into the canonical
corpus format.

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
A coreference matrix is read as the connected components of its links.

This module reads that layout and nothing more: what a corpus can hold,
the `model` constructors decide, and what a valid corpus is, `load_corpus`.
The importer writes each subsection, layer, rule and case it could read in
canonical form (`structure.txt` printed rule by rule with
`rules.print_rule`, in source order and without comments), loads what it
wrote, drops the item it wrote at the line of each problem found, and
repeats until the load passes; so a dropped rule takes its callers and the
cases that query it on a later pass. A layer's spans and coref records go
together. Each skip is logged as "<source file or file:line>: <message>":
the model's or the loader's message, or what of the layout did not fit.
Only regular files are read, as the loader reads them (UTF-8, universal
newlines, lines ending at "\\n" only); any other entry is skipped as "not a
file"; a byte that is not UTF-8 stops the import at its `path:line`.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from pathlib import Path

from . import records
from .corpus import CorpusError, _read, load_corpus, serialize_cases, serialize_coref, serialize_spans
from .model import ArgumentLayer, Case, Span, Subsection, ValueMap, components
from .rules import parse_program, print_rule


class ImportLog:
    __slots__ = ("imported", "skipped")

    def __init__(self) -> None:
        self.imported: list[str] = []
        self.skipped: list[str] = []

    def skip(self, what: str, reason: str) -> None:
        self.skipped.append(f"{what}: {reason}")


class _Item:
    """What was read from one source item: where it came from, its value
    and its record text in each corpus file it is written to."""

    __slots__ = ("source", "value", "texts")

    def __init__(self, source: str, value: object, texts: dict[str, str]):
        self.source, self.value, self.texts = source, value, texts


def file_stem_to_id(stem: str) -> str:
    """"63_c_5" -> "§63(c)(5)"; a stem without separators is a bare identifier
    only when it is not numeric."""
    parts = stem.split("_")
    if len(parts) == 1 and not parts[0].isdigit():
        return parts[0]
    return "§" + parts[0] + "".join(f"({p})" for p in parts[1:])


def import_corpus(source: str | Path, dest: str | Path) -> ImportLog:
    """Convert a distributed tree into a canonical corpus under `dest` that
    holds exactly the items that `load_corpus` accepts."""
    source, dest = Path(source), Path(dest)
    log = ImportLog()
    files = ["statutes/offsets.txt", "spans.txt", "coref.txt", "structure.txt", "cases/train.cases", "cases/test.cases"]
    manifest = ["statutes=statutes", "spans=spans.txt", "coref=coref.txt", "structure=structure.txt", "cases=cases"]
    if (source / "silver").is_dir():
        files.append("silver/silver.cases")
        manifest.append("silver=silver")
    for name in files:
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
    (dest / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")

    subsections, layers = _subsections(source, dest, log), _layers(source, log)
    items = subsections + layers + _rules(source, log, {i.value.id for i in subsections}) + _cases(source, log)
    while problems := _problems(dest, files, items):
        dropped: dict[_Item, str] = {}
        for item, message in problems:
            dropped.setdefault(item, message)
        for item, message in dropped.items():
            log.skip(item.source, message)
        items = [item for item in items if item not in dropped]
    log.imported.extend(item.source for item in items)
    return log


def _problems(dest: Path, files: list[str], items: list[_Item]) -> list[tuple[_Item, str]]:
    """Write `items` under `dest`, then load what was written; each problem
    found, with the item written at its line. A problem at no written line
    (a file in `dest` that the importer did not write) is raised."""
    texts: dict[str, list[str]] = {name: [] for name in files}
    owners: dict[str, list[_Item]] = {str(dest / name): [] for name in files}  # by the loader's line
    for item in items:
        for name, text in item.texts.items():
            texts[name].append(text)
            owners[str(dest / name)] += [item] * text.count("\n")
    for name, parts in texts.items():
        (dest / name).write_text("".join(parts), encoding="utf-8")
    try:
        load_corpus(dest / "manifest.txt")
    except CorpusError as exc:
        problems = [(owners[e.path][e.line - 1], e.message) for e in exc.errors if e.path in owners and e.line]
        if not problems:
            raise
        return problems
    return []


def _is_file(path: Path, source: Path, log: ImportLog) -> bool:
    """Whether `path` is a regular file; an entry there that is not one is logged."""
    if path.exists() and not path.is_file():
        log.skip(path.relative_to(source).as_posix(), "not a file")
    return path.is_file()


def _files(directory: Path, source: Path, log: ImportLog) -> list[Path]:
    """The regular files of `directory`, sorted; none if it is no directory."""
    return [path for path in sorted(directory.iterdir()) if _is_file(path, source, log)] if directory.is_dir() else []


def _subsections(source: Path, dest: Path, log: ImportLog) -> list[_Item]:
    """A subsection per offsets line; each section text is copied to `dest`."""
    items = []
    for text_path in sorted((source / "statutes").glob("*.txt")):
        offsets_path = text_path.with_suffix(".offsets")
        if not offsets_path.exists():
            log.skip(f"statutes/{text_path.name}", "no .offsets companion")
        if not (_is_file(text_path, source, log) and _is_file(offsets_path, source, log)):
            continue
        text = _read(text_path)
        (dest / "statutes" / text_path.name).write_text(text, encoding="utf-8")
        for lineno, line in enumerate(_read(offsets_path).split("\n"), 1):
            where, parts = f"statutes/{offsets_path.name}:{lineno}", line.split()
            if len(parts) != 3 or not (parts[1].isdecimal() and parts[2].isdecimal()):
                if parts:
                    log.skip(where, "expected '<id> <start> <end>'")
                continue
            try:
                sid, start, end = parts[0], int(parts[1]), int(parts[2])
                record = f"{sid} file={records.write_text(text_path.name)} start={start} end={end}\n"
                items.append(_Item(where, Subsection(sid, text[start:end]), {"statutes/offsets.txt": record}))
            except ValueError as exc:
                log.skip(where, str(exc))
    return items


def _layers(source: Path, log: ImportLog) -> list[_Item]:
    """A layer per spans file, with the clusters of its coref matrix and
    their `.names` labels."""
    items = []
    for span_path in _files(source / "spans", source, log):
        where = f"spans/{span_path.name}"
        try:
            spans = _spans(span_path)
            clusters, names = _clusters(source, span_path.name, len(spans), log)
            layer = ArgumentLayer(file_stem_to_id(span_path.name), spans, clusters, names)
        except ValueError as exc:
            log.skip(where, str(exc))
            continue
        texts = {"spans.txt": serialize_spans([layer]), "coref.txt": serialize_coref([layer])}
        items.append(_Item(where, layer, texts))
    return items


def _spans(path: Path) -> tuple[Span, ...]:
    spans = []
    for line in _read(path).split("\n"):
        parts = line.split()
        if parts:
            if len(parts) != 2 or not all(p.isdecimal() for p in parts):
                raise ValueError(f"{line!r}: expected '<start> <end>'")
            spans.append(Span(int(parts[0]), int(parts[1])))
    return tuple(spans)


def _clusters(source: Path, name: str, n_spans: int, log: ImportLog):
    """The clusters of a layer's coref matrix, singletons when it has none,
    and a label or None for each."""
    matrix_path = source / "coref" / name
    if not _is_file(matrix_path, source, log):
        return tuple((i,) for i in range(n_spans)), (None,) * n_spans
    rows = [line.split() for line in _read(matrix_path).split("\n") if line.strip()]
    for row in rows:
        if any(x not in ("0", "1") for x in row):
            raise ValueError(f"coref matrix entries must be 0 or 1, found row {' '.join(row)!r}")
    clusters = matrix_to_clusters([[int(x) for x in row] for row in rows])
    names: list[str | None] = [None] * len(clusters)
    names_path = matrix_path.with_name(f"{name}.names")
    if _is_file(names_path, source, log):
        for lineno, line in enumerate(_read(names_path).split("\n"), 1):
            parts = line.split()
            try:
                index = int(parts[0]) if len(parts) == 2 and parts[0].isdecimal() else len(clusters)
            except ValueError:  # more digits than `int` reads: out of range too
                index = len(clusters)
            if index < len(clusters):
                names[index] = parts[1]
            elif parts:
                log.skip(f"coref/{names_path.name}:{lineno}", "expected '<cluster_index> <name>'")
    return clusters, tuple(names)


def matrix_to_clusters(matrix: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Partition induced by a coreference matrix (connected components).

    The matrix must be symmetric with a unit diagonal; transitive closure is
    applied if the input is not already closed.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    for i in range(n):
        if rows[i][i] != 1:
            raise ValueError(f"matrix diagonal is not 1 at index {i}")
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")

    links = ((i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j])
    return tuple(map(tuple, components(n, links)))


def _rules(source: Path, log: ImportLog, subsections: set[str]) -> list[_Item]:
    """A rule per sound clause of `structure.txt`, one whose head is one of
    `subsections`, in source order; each other clause is skipped at its
    line, as the loader reports it."""
    path = source / "structure.txt"
    if not path.exists():
        log.skip("structure.txt", "not present")
    if not _is_file(path, source, log):
        return []
    rules, problems = parse_program(_read(path), subsections)
    for line, message in problems:
        log.skip(f"structure.txt:{line}", message)
    return [
        _Item(f"structure.txt {rule.head_id}", rule, {"structure.txt": print_rule(rule) + "\n"})
        for rule in rules.values()
    ]


def _cases(source: Path, log: ImportLog) -> list[_Item]:
    """A case per file of `cases/`, in the split its listing names (train by
    default), and per file of `silver/`."""
    splits = {}
    for split in ("train", "test"):
        listing = source / "splits" / f"{split}.txt"
        if _is_file(listing, source, log):
            for cid in _read(listing).split():
                splits[cid] = split
    items = []
    for directory in ("cases", "silver"):
        for path in _files(source / directory, source, log):
            where = f"{directory}/{path.name}"
            split = "silver" if directory == "silver" else splits.get(path.name, "train")
            try:
                case = _read_case(path, split)
            except ValueError as exc:
                log.skip(where, str(exc))
                continue
            file = "silver/silver.cases" if directory == "silver" else f"cases/{split}.cases"
            items.append(_Item(where, case, {file: serialize_cases([case])}))
    return items


_BLOCK_RE = re.compile(r"^%\s*(Text|Question|Input|Output)\s*$", re.MULTILINE)


def _read_case(path: Path, split: str) -> Case:
    text = _read(path)
    blocks: dict[str, str] = {}
    matches = list(_BLOCK_RE.finditer(text))
    for m, nxt in zip(matches, matches[1:] + [None]):
        end = nxt.start() if nxt else len(text)
        blocks[m.group(1)] = text[m.end() : end].strip()
    missing = [b for b in ("Text", "Question", "Output") if b not in blocks]
    if missing:
        raise ValueError(f"missing blocks: {', '.join(missing)}")
    inputs = _parse_pairs(blocks.get("Input", ""), "Input")
    expected = _parse_pairs(blocks["Output"], "Output")
    return Case(path.name, " ".join(blocks["Text"].split()), blocks["Question"], inputs, expected, split)


def _parse_pairs(block: str, where: str) -> ValueMap:
    entries = []
    for line in block.split("\n"):
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected '<name>=<value>', got {line!r}")
        name, _, literal = line.partition("=")
        entries.append((name.strip(), records.parse_value_literal(literal.strip())))
    return records.as_value_map(entries, where)
