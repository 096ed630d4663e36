"""Corpus loading and validation.

A corpus lives in a directory described by a manifest of key=value lines:

    statutes=statutes        directory of section text files plus offsets.txt
    spans=spans.txt          argument placeholder spans per subsection
    coref=coref.txt          span-index clusters per subsection, optionally
                             labelled with the rule's argument names
    structure=structure.txt  Horn-clause annotations, one clause per statement
    cases=cases              directory of <split>.cases files
    silver=silver            optional directory of machine-generated cases

All record files use the canonical format of `records`, read by one rule: a
line that does not parse, or bytes that are not UTF-8, end the file with that
one error in place of the file's others; every other problem is collected at
its line, in file order, a duplicate at each repeat. A reference to another
file is checked where it is made: a rule's head and callees at its clause,
a cluster label at its coref record, a query at its case; so `load_corpus`
reads the statutes, the structure, the spans and coref, then the cases, and
stops after the first file with a problem. Offsets are 0-based, half-open
character offsets into the decoded section file.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from pathlib import Path

from . import records
from .model import ArgumentLayer, Case, Frozen, Span, Subsection, check_split
from .rules import Program, iter_refs, parse_program


class FileError(Frozen):
    """A problem at a file's line (None for the whole file)."""

    __slots__ = ("path", "line", "message")

    def __str__(self) -> str:
        where = f"{self.path}:{self.line}" if self.line is not None else self.path
        return f"{where}: {self.message}"


class CorpusError(Exception):
    def __init__(self, errors: list[FileError]):
        super().__init__("\n".join(str(e) for e in errors))
        self.errors = errors


def _fail(path: Path, line: int | None, message: str):
    raise CorpusError([FileError(str(path), line, message)])


def _read(path: Path) -> str:
    """A file's text as `Path.read_text` gives it: UTF-8 with universal
    newlines. A path that is not a regular file is a CorpusError, a byte
    that is not UTF-8 one at its line, and a leading U+FEFF one at line 1:
    no written file starts with it, so it would be read as text."""
    if not path.is_file():
        _fail(path, None, "not a file")
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        _fail(path, line, f"not UTF-8: {exc.reason} (byte 0x{data[exc.start]:02x})")
    if text[:1] == "\ufeff":
        _fail(path, 1, "starts with a byte order mark (U+FEFF)")
    return text.replace("\r\n", "\n").replace("\r", "\n")


class CorpusManifest(Frozen):
    """The path of each part of a corpus; `silver` is None when the corpus
    has no silver cases."""

    __slots__ = ("statutes", "spans", "coref", "structure", "cases", "silver")

    @staticmethod
    def load(path: str | Path) -> "CorpusManifest":
        path = Path(path)
        names = ("statutes", "spans", "coref", "structure", "cases", "silver")
        entries: dict[str, tuple[str, int]] = {}  # key -> (value, line)
        for lineno, line in enumerate(_read(path).split("\n"), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                _fail(path, lineno, "manifest lines must be key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in entries and entries[key][0] != value:
                _fail(path, lineno, f"manifest key {key!r} given twice, also at line {entries[key][1]}")
            entries[key] = (value, lineno)
        missing = [k for k in names[:-1] if k not in entries]
        if missing:
            _fail(path, None, f"manifest is missing keys: {', '.join(missing)}")
        for key, (_, lineno) in entries.items():
            if key not in names:
                _fail(path, lineno, f"unknown manifest key {key!r}")
        parts = {name: path.parent / entries[name][0] for name in names if name in entries}
        for name, part in parts.items():
            is_dir = name in ("statutes", "cases", "silver")
            if not part.exists():
                _fail(path, None, f"{name} path does not exist: {part}")
            if not (part.is_dir() if is_dir else part.is_file()):
                _fail(path, None, f"{name} path is not a {'directory' if is_dir else 'file'}: {part}")
        return CorpusManifest(*(parts.get(name) for name in names))


class Corpus(Frozen):
    """A loaded corpus: subsections and layers by id, the rule program, the
    gold and silver cases, and the names of the section files."""

    __slots__ = ("manifest", "subsections", "layers", "program", "cases", "silver", "section_files")

    def cases_of(self, split: str) -> tuple[Case, ...]:
        if split == "all":
            return self.cases
        return tuple(c for c in self.cases if c.split == split)


# ---------------------------------------------------------------------------
# Loaders


def _records(path: Path, row, errors: list[FileError]) -> bool:
    """Call `row(lineno, record)` on each record of the file at `path`, a
    ValueError it raises a FileError at that line in `errors`; whether the
    file was read to its end. A line that does not parse, or bytes that are
    not UTF-8, end it: that one error replaces its others in `errors`."""
    mine = len(errors)
    try:
        for lineno, record in records.iter_records(_read(path)):
            try:
                row(lineno, record)
            except ValueError as exc:
                errors.append(FileError(str(path), lineno, str(exc)))
        return True
    except records.RecordError as exc:
        fatal = [FileError(str(path), exc.line, str(exc))]
    except CorpusError as exc:
        fatal = exc.errors
    errors[mine:] = [e for e in errors[mine:] if e.path != str(path)] + fatal
    return False


def load_statutes(statutes_dir: str | Path) -> dict[str, Subsection]:
    """Read section files and slice subsections out per the offsets index,
    by id."""
    statutes_dir = Path(statutes_dir)
    index = statutes_dir / "offsets.txt"
    if not index.exists():
        _fail(index, None, "offsets index not found")
    texts: dict[str, str | None] = {}  # None for a file that is not UTF-8
    subsections: dict[str, Subsection] = {}
    errors: list[FileError] = []

    def row(lineno: int, record: records.Record) -> None:
        fname = record.require("file")
        start, end = record.require("start"), record.require("end")
        if not (isinstance(fname, str) and isinstance(start, int) and isinstance(end, int)):
            raise records.RecordError("offsets need file=\"...\" start=<int> end=<int>")
        if "/" in fname or fname in ("", ".", ".."):
            raise records.RecordError(f"section file must be named by a file name in statutes/, got {fname!r}")
        if fname not in texts:
            if not (statutes_dir / fname).is_file():
                raise records.RecordError(f"section file not found: {fname}")
            try:
                texts[fname] = _read(statutes_dir / fname)
            except CorpusError as exc:  # the file's one error, at the first line naming it
                texts[fname] = None
                errors.extend(exc.errors)
        text = texts[fname]
        if text is None:
            return
        if not (0 <= start < end <= len(text)):
            raise records.RecordError(f"offsets ({start}, {end}) out of bounds for {fname} of length {len(text)}")
        if record.id in subsections:
            raise records.RecordError(f"duplicate subsection id {record.id}")
        subsections[record.id] = Subsection(record.id, text[start:end])

    _records(index, row, errors)
    if errors:
        raise CorpusError(errors)
    return subsections


def load_spans(
    path: str | Path, subsections: Mapping[str, Subsection]
) -> tuple[dict[str, tuple[Span, ...]], dict[str, int]]:
    """Each known subsection's spans from a spans file, checked to be sorted,
    disjoint and inside its text, and the line of its record; any problem
    is a CorpusError at path:line."""
    spans: dict[str, tuple[Span, ...]] = {}
    lines: dict[str, int] = {}

    def row(lineno: int, record: records.Record) -> None:
        items = record.require("spans")
        if record.id not in subsections:
            raise records.RecordError(f"unknown subsection {record.id}")
        if record.id in spans:
            raise records.RecordError(f"duplicate spans record for {record.id}")
        if type(items) is not list:
            raise records.RecordError("expected a [(start, end), ...] list")
        out, text = [], subsections[record.id].text
        for item in items:
            if type(item) is not tuple or type(item[0]) is not int:
                raise records.RecordError(f"expected (start, end) pairs, found {records.item_repr(item)}")
            span = Span(*item)
            if span.end > len(text):
                raise records.RecordError(
                    f"span ({span.start}, {span.end}) out of range for {record.id} of length {len(text)}"
                )
            if not span.slice(text).strip():
                raise records.RecordError(f"span ({span.start}, {span.end}) covers only whitespace")
            out.append(span)
        for a, b in zip(out, out[1:]):
            if b.start < a.end:
                raise records.RecordError(f"spans overlap or are out of order: {a}, {b}")
        spans[record.id] = tuple(out)
        lines[record.id] = lineno

    errors: list[FileError] = []
    _records(Path(path), row, errors)
    if errors:
        raise CorpusError(errors)
    return spans, lines


def load_argument_layers(
    spans_path: str | Path, coref_path: str | Path, subsections: Mapping[str, Subsection], program: Program
) -> dict[str, ArgumentLayer]:
    """Join the spans and coref files into validated argument layers, by id;
    each cluster label names a parameter of its subsection's rule."""
    spans, span_lines = load_spans(spans_path, subsections)
    layers: dict[str, ArgumentLayer] = {}
    read: set[str] = set()  # the ids that a coref record names, loaded or not

    def row(lineno: int, record: records.Record) -> None:
        read.add(record.id)
        items = record.require("clusters")
        if record.id not in spans:
            raise records.RecordError(f"{record.id} has no spans record")
        if record.id in layers:
            raise records.RecordError(f"duplicate coref record for {record.id}")
        if type(items) is not list:
            raise records.RecordError("expected a [Name:[0, 1], [2], ...] list")
        clusters, names = [], []
        for item in items:
            if type(item) is dict:
                [(label, members)] = item.items()
            elif type(item) is list:
                label, members = None, item
            else:
                raise records.RecordError(
                    f"expected clusters like Name:[0, 1] or [0, 1], found {records.item_repr(item)}"
                )
            if not all(type(i) is int for i in members):
                raise records.RecordError(f"cluster members must be span indices, got {records.item_repr(members)}")
            bad = [i for i in members if not 0 <= i < len(spans[record.id])]
            if bad:
                raise records.RecordError(f"cluster index out of range: {bad[0]}")
            clusters.append(tuple(members))
            names.append(label)
        layer = ArgumentLayer(record.id, spans[record.id], tuple(clusters), tuple(names))
        rule = program.get(record.id)
        for name, _ in layer.labelled_clusters:
            if rule is None:
                raise records.RecordError(f"layer {record.id}: cluster {name!r} named but no rule declares parameters")
            if name not in rule.params:
                raise records.RecordError(f"layer {record.id}: cluster {name!r} is not a parameter of its rule")
        layers[record.id] = layer

    errors: list[FileError] = []
    if _records(Path(coref_path), row, errors):
        for missing in sorted(set(spans) - read):
            errors.append(FileError(str(Path(spans_path)), span_lines[missing], f"no coref record for {missing}"))
    if errors:
        raise CorpusError(errors)
    return layers


def load_cases(cases_dir: str | Path, program: Program, split: str | None = None) -> list[Case]:
    """Load every <name>.cases file, each query the head of a rule of
    `program`; `split`, or else the file stem checked once by `check_split`,
    names the split. The stem `silver` is reserved."""
    cases: dict[str, Case] = {}

    def row(lineno: int, record: records.Record) -> None:
        query = record.require("query")
        description = record.require("description")
        if not isinstance(query, str) or not isinstance(description, str):
            raise records.RecordError("query and description must be quoted strings")
        inputs = records.as_value_map(record.require("inputs"), "inputs")
        expected = records.as_value_map(record.require("expected"), "expected")
        if record.id in cases:
            raise records.RecordError(f"duplicate case id {record.id}")
        case = Case(record.id, description, query, inputs, expected, name)
        if query not in program:
            # A query that is not an id names no rule; its repr keeps the problem on one line.
            shown = query if query.split() == [query] else repr(query)
            raise records.RecordError(f"case {record.id}: query {shown} has no structure rule")
        cases[record.id] = case

    errors: list[FileError] = []
    for path in sorted(Path(cases_dir).glob("*.cases")):
        name = split or path.stem  # the split of the rows `_records` reads next
        try:
            if split is None and check_split(name) == "silver":
                raise ValueError("'silver' is reserved and cannot name a split")
        except ValueError as exc:
            errors.append(FileError(str(path), None, str(exc)))
            continue
        _records(path, row, errors)
    if errors:
        raise CorpusError(errors)
    return list(cases.values())


def load_corpus(manifest_path: str | Path, cases: bool = True) -> Corpus:
    """The corpus a manifest describes; with `cases` False no cases file is
    read, and the corpus has no gold or silver case."""
    manifest = CorpusManifest.load(manifest_path)
    subsections = load_statutes(manifest.statutes)
    program, problems = parse_program(_read(manifest.structure), subsections)
    if problems:
        raise CorpusError([FileError(str(manifest.structure), line, message) for line, message in problems])
    layers = load_argument_layers(manifest.spans, manifest.coref, subsections, program)
    gold = load_cases(manifest.cases, program) if cases else []
    silver = load_cases(manifest.silver, program, split="silver") if cases and manifest.silver else []
    section_files = tuple(sorted({p.name for p in manifest.statutes.glob("*.txt") if p.is_file()} - {"offsets.txt"}))
    return Corpus(
        manifest=manifest,
        subsections=subsections,
        layers=layers,
        program=program,
        cases=tuple(gold),
        silver=tuple(silver),
        section_files=section_files,
    )


def corpus_hash(corpus: Corpus) -> str:
    """Stable digest of every corpus file, for run manifests."""
    import hashlib  # here, so that `validate` does not load it

    manifest = corpus.manifest
    paths = [manifest.spans, manifest.coref, manifest.structure]
    paths += sorted(Path(manifest.statutes).glob("*"))
    paths += sorted(Path(manifest.cases).glob("*.cases"))
    if manifest.silver:
        paths += sorted(Path(manifest.silver).glob("*.cases"))
    digest = hashlib.sha256()
    for path in paths:
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Serialization (canonical form; load -> serialize is byte-identical)


def serialize_spans(layers: list[ArgumentLayer]) -> str:
    lines = [f"{l.subsection_id} spans={records.write_spans(l.spans)}" for l in layers]
    return "\n".join(lines) + "\n"


def serialize_coref(layers: list[ArgumentLayer]) -> str:
    lines = [
        f"{l.subsection_id} clusters={records.write_clusters(l.clusters, l.cluster_names)}"
        for l in layers
    ]
    return "\n".join(lines) + "\n"


def serialize_cases(cases: list[Case]) -> str:
    lines = []
    for case in cases:
        lines.append(
            f"{case.id} query={records.write_text(case.query)}"
            f" description={records.write_text(case.description)}"
            f" inputs={records.write_value_map(case.inputs)}"
            f" expected={records.write_value_map(case.expected)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Statistics


class StatSeries(Frozen):
    """A histogram over per-unit integer counts plus summary statistics."""

    __slots__ = ("name", "counts", "mean", "stddev", "median")

    @property
    def units(self) -> int:
        return sum(self.counts.values())

    @staticmethod
    def from_values(name: str, values: list[int]) -> "StatSeries":
        if not values:
            return StatSeries(name, {}, 0.0, 0.0, 0.0)
        import statistics  # here, so that only `stats` loads it

        return StatSeries(
            name,
            dict(sorted(Counter(values).items())),
            statistics.fmean(values),
            statistics.pstdev(values),
            float(statistics.median(values)),
        )

    def table(self) -> list[str]:
        lines = [f"  {self.name}"]
        for count, units in self.counts.items():
            lines.append(f"    {count:>4}  {units}")
        lines.append(f"    total units {self.units}")
        lines.append(f"    average {self.mean:.1f}  stddev {self.stddev:.1f}  median {self.median:g}")
        return lines


class CorpusStatistics(Frozen):
    """The `stats` report: per-unit count series and corpus sizes."""

    __slots__ = (
        "placeholders_per_subsection", "arguments_per_subsection", "mentions_per_argument", "rule_arguments",
        "rule_dependencies", "input_pairs", "output_pairs", "section_file_count", "subsection_count",
        "case_count", "silver_count",
    )

    def render(self) -> str:
        """The statistics as text tables."""
        lines = [
            "corpus statistics",
            f"  section files: {self.section_file_count}"
            f"   subsections: {self.subsection_count}"
            f"   gold cases: {self.case_count}"
            f"   silver cases: {self.silver_count}",
        ]
        for series in (
            self.placeholders_per_subsection, self.arguments_per_subsection, self.mentions_per_argument,
            self.rule_arguments, self.rule_dependencies,
        ):
            lines += series.table()
        for per_split in (self.input_pairs, self.output_pairs):
            for split in ("train", "test", "all", "silver"):
                series = per_split[split]
                if series.units or split in ("train", "test", "all"):
                    lines += series.table()
        return "\n".join(lines)

    def flat(self) -> dict[str, float]:
        return {
            "subsections": float(self.subsection_count),
            "gold_cases": float(self.case_count),
            "silver_cases": float(self.silver_count),
            "placeholders_mean": self.placeholders_per_subsection.mean,
            "placeholders_stddev": self.placeholders_per_subsection.stddev,
            "arguments_mean": self.arguments_per_subsection.mean,
            "mentions_mean": self.mentions_per_argument.mean,
        }


def corpus_statistics(corpus: Corpus) -> CorpusStatistics:
    span_counts, cluster_counts, mention_counts = [], [], []
    for sid in corpus.subsections:
        layer = corpus.layers.get(sid)
        span_counts.append(len(layer.spans) if layer else 0)
        cluster_counts.append(len(layer.clusters) if layer else 0)
        if layer:
            mention_counts.extend(len(c) for c in layer.clusters)

    rule_args = [len(r.params) for r in corpus.program.values()]
    rule_deps = [len(list(iter_refs(r.body))) for r in corpus.program.values()]

    def pair_series(which: str) -> dict[str, StatSeries]:
        groups: dict[str, list[int]] = {"train": [], "test": [], "all": [], "silver": []}
        for case in (*corpus.cases, *corpus.silver):
            n = len(getattr(case, which))
            if case.split in groups:
                groups[case.split].append(n)
            if case.split != "silver":
                groups["all"].append(n)
        return {split: StatSeries.from_values(f"{which}[{split}]", v) for split, v in groups.items()}

    return CorpusStatistics(
        placeholders_per_subsection=StatSeries.from_values("placeholders per subsection", span_counts),
        arguments_per_subsection=StatSeries.from_values("arguments per subsection", cluster_counts),
        mentions_per_argument=StatSeries.from_values("mentions per argument", mention_counts),
        rule_arguments=StatSeries.from_values("rule arguments", rule_args),
        rule_dependencies=StatSeries.from_values("rule dependencies", rule_deps),
        input_pairs=pair_series("inputs"),
        output_pairs=pair_series("expected"),
        section_file_count=len(corpus.section_files),
        subsection_count=len(corpus.subsections),
        case_count=len(corpus.cases),
        silver_count=len(corpus.silver),
    )
