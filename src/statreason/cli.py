"""Command-line front end.

One subcommand per evaluation; `validate` checks every corpus file, and a
report command the files it reads (`eval-coref`, `eval-argid` and `cascade`
read no case). Runs are deterministic: the same manifest gives byte-identical
reports. Exit codes: 0 success, 1 validation or floor failure, 2 runtime or usage error.

Every command loads the corpus, so `records`, `model`, `rules` and `corpus`
load with this module; each handler imports the other modules it runs.
`main` runs as `python -m statreason` and as the `statreason` script.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import records
from .corpus import (
    Corpus,
    CorpusError,
    FileError,
    corpus_hash,
    corpus_statistics,
    load_argument_layers,
    load_corpus,
    load_spans,
)
from .model import Span, check_split


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CorpusError as exc:
        for error in exc.errors:
            print(error, file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure, distinct from validation
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="statreason")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--manifest", required=True, help="corpus manifest file")
        p.add_argument("--out", type=_out, help="directory for report + record files")
        p.add_argument(
            "--floor",
            action="append",
            type=_floor,
            default=[],
            metavar="NAME=VALUE",
            help="fail (exit 1) when a report metric drops below VALUE",
        )

    p = sub.add_parser("validate", help="load the whole corpus and run every check")
    p.add_argument("--manifest", required=True)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("stats", help="corpus statistics tables")
    common(p)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("eval-coref", help="score a coreference baseline against gold")
    common(p)
    p.add_argument("--baseline", default="string", type=_utf8, help="single, string, or import:<path>")
    p.set_defaults(handler=cmd_eval_coref)

    p = sub.add_parser("eval-argid", help="score argument identification against gold spans")
    common(p)
    p.add_argument("--source", default="heuristic", type=_utf8, help="heuristic or import:<path>")
    p.set_defaults(handler=cmd_eval_argid)

    p = sub.add_parser("cascade", help="identification followed by string-matching coreference")
    common(p)
    p.add_argument("--source", default="heuristic", type=_utf8, help="heuristic or import:<path>")
    p.set_defaults(handler=cmd_cascade)

    p = sub.add_parser("eval-inst", help="run argument instantiation and score it")
    common(p)
    p.add_argument("--resolver", default="constant", choices=["oracle", "heuristic", "constant"])
    p.add_argument("--split", default="test", type=_split, help="a split of the gold cases, or all")
    p.add_argument("--depth-cap", type=int, default=3)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--no-structure", action="store_true", help="instantiate the query's subsection alone")
    p.add_argument("--with-silver", action="store_true", help="add silver cases to the training fit")
    p.add_argument("--insert-gold", action="store_true", help="ground text with gold values (teacher forcing)")
    p.set_defaults(handler=cmd_eval_inst)

    p = sub.add_parser("import-sara", help="convert a distributed dataset tree to canonical format")
    p.add_argument("--source", required=True, type=Path)
    p.add_argument("--dest", required=True, type=Path)
    p.set_defaults(handler=cmd_import)

    return parser


def _floor(item: str) -> tuple[str, float]:
    """A --floor NAME=VALUE pair; a malformed one, or a NaN VALUE, which no
    metric falls below, is a usage error."""
    name, _, value = item.partition("=")
    try:
        if name and (floor := float(value)) == floor:
            return name, floor
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected NAME=VALUE with a numeric VALUE, got {item!r}")


def _split(name: str) -> str:
    """A --split value: all, or a name that `model.check_split` accepts, the rule for
    the name of a cases file; any other, "" or one holding "/", is a usage error."""
    try:
        return name if name == "all" else check_split(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _out(path: str) -> Path:
    """An --out value: a directory, or a path where nothing is yet; anything
    else, a file among them, is a usage error."""
    if os.path.lexists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} exists and is not a directory")
    return Path(path)


def _utf8(value: str) -> str:
    """A --source or --baseline value, which the report's title and records
    echo; one that UTF-8 cannot encode (a lone surrogate from an undecodable
    byte of the command line) is a usage error."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"{value!r} holds a character that UTF-8 cannot encode") from None
    return value


def cmd_validate(args) -> int:
    corpus = load_corpus(args.manifest)
    print(
        f"corpus ok: {len(corpus.section_files)} section files, "
        f"{len(corpus.subsections)} subsections, {len(corpus.layers)} layers, "
        f"{len(corpus.program)} rules, {len(corpus.cases)} gold cases, "
        f"{len(corpus.silver)} silver cases"
    )
    return 0


def _emit(args, name: str, report, run_line: str, predictions: list[str] | None = None) -> int:
    """Write a report's files under --out, then print it and check the floors. Each
    output is encoded to UTF-8 before any is written, and the files are written
    all or none, so a command that fails has printed and written nothing."""
    text, flat = report.render(), report.flat()
    outputs = {"report": text + "\n", "records": report_records(flat, run_line)}
    if predictions is not None:
        outputs["predictions"] = "\n".join(predictions) + "\n"
    encoded = {f"{name}.{kind}.txt": output.encode("utf-8") for kind, output in outputs.items()}
    if args.out:
        _write_all(args.out, encoded)
    print(text)
    failures = check_floors(flat, dict(args.floor))
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def _write_all(out: Path, files: dict[str, bytes]) -> None:
    """Write each of `files` into `out` under a temporary name, and move them
    into place once every one is written; a name that is a directory is
    refused before any is written."""
    for name in files:
        if (out / name).is_dir():
            raise IsADirectoryError(f"--out: {out / name} is a directory")
    out.mkdir(parents=True, exist_ok=True)
    temporary = {out / f".{name}.{os.getpid()}.tmp": out / name for name in files}
    try:
        for path, data in zip(temporary, files.values()):
            path.write_bytes(data)
        for path, target in temporary.items():
            path.replace(target)
    except BaseException:
        for path in temporary:
            path.unlink(missing_ok=True)
        raise


def report_records(flat: dict[str, float], run_line: str) -> str:
    lines = [run_line]
    for name, value in flat.items():
        lines.append(f"{name} value={value:.6f}")
    return "\n".join(lines) + "\n"


def check_floors(flat: dict[str, float], floors: dict[str, float]) -> list[str]:
    failures = []
    for name, floor in sorted(floors.items()):
        value = flat.get(name)
        if value is None:
            failures.append(f"floor {name}: no such metric in this report")
        elif value < floor:
            failures.append(f"floor {name}: {value:.4f} < {floor:.4f}")
    return failures


def _run_line(corpus: Corpus, command: str, **settings) -> str:
    settings = {"command": command, **settings, "corpus": corpus_hash(corpus)}
    parts = [f"{k}={str(v).lower() if isinstance(v, bool) else records.write_value(v)}" for k, v in settings.items()]
    return " ".join(["@run", *parts])


def cmd_stats(args) -> int:
    corpus = load_corpus(args.manifest)
    return _emit(args, "stats", corpus_statistics(corpus), _run_line(corpus, "stats"))


def cmd_eval_coref(args) -> int:
    from . import baselines, reports

    corpus = load_corpus(args.manifest, cases=False)
    if args.baseline == "single":
        predictions = {
            sid: baselines.single_mention_coref(layer) for sid, layer in corpus.layers.items()
        }
    elif args.baseline == "string":
        predictions = {
            sid: baselines.string_match_coref(layer.spans, corpus.subsections[sid].text)
            for sid, layer in corpus.layers.items()
        }
    elif args.baseline.startswith("import:"):
        path = args.baseline[len("import:") :]
        layers = load_argument_layers(corpus.manifest.spans, path, corpus.subsections, corpus.program)
        predictions = {sid: layer.clusters for sid, layer in layers.items()}
    else:
        raise ValueError(f"unknown baseline {args.baseline!r}")
    return _emit(
        args,
        "eval-coref",
        reports.coref_report(corpus, predictions, args.baseline),
        _run_line(corpus, "eval-coref", baseline=args.baseline),
        [f"{sid} clusters={records.write_clusters(clusters)}" for sid, clusters in predictions.items()],
    )


def _predicted_spans(corpus: Corpus, source: str) -> dict[str, tuple[Span, ...]]:
    if source == "heuristic":
        from . import baselines

        return {
            sid: tuple(baselines.heuristic_argument_id(sub.text))
            for sid, sub in corpus.subsections.items()
            if sid in corpus.layers
        }
    if source.startswith("import:"):
        return load_spans(source[len("import:") :], corpus.subsections)[0]
    raise ValueError(f"unknown span source {source!r}")


def cmd_eval_argid(args) -> int:
    from . import reports

    corpus = load_corpus(args.manifest, cases=False)
    predicted = _predicted_spans(corpus, args.source)
    return _emit(
        args,
        "eval-argid",
        reports.argid_report(corpus, predicted, args.source),
        _run_line(corpus, "eval-argid", source=args.source),
        [f"{sid} spans={records.write_spans(spans)}" for sid, spans in predicted.items()],
    )


def cmd_cascade(args) -> int:
    from . import baselines, reports

    corpus = load_corpus(args.manifest, cases=False)
    predicted = {
        sid: (spans, baselines.string_match_coref(spans, corpus.subsections[sid].text))
        for sid, spans in _predicted_spans(corpus, args.source).items()
    }
    report = reports.cascade_report(corpus, predicted, args.source)
    return _emit(args, "cascade", report, _run_line(corpus, "cascade", source=args.source))


def cmd_eval_inst(args) -> int:
    from . import baselines, reports
    from .engine import EngineConfig, run_cases

    corpus = load_corpus(args.manifest)
    config = EngineConfig(
        # --no-structure is a depth cap of 1; min() still rejects a bad --depth-cap.
        depth_cap=min(args.depth_cap, 1) if args.no_structure else args.depth_cap,
        truth_threshold=args.threshold,
        insert_gold=args.insert_gold,
    )
    if args.resolver == "oracle":
        resolver = baselines.OracleResolver()
    elif args.resolver == "heuristic":
        resolver = baselines.HeuristicResolver()
    else:
        train = list(corpus.cases_of("train"))
        if args.with_silver:
            train += list(corpus.silver)
        if not train:
            message = "no case in the train split, which the constant resolver fits on"
            raise CorpusError([FileError(str(corpus.manifest.cases), None, message)])
        params = baselines.fit_constant_baseline(train)
        resolver = baselines.ConstantResolver(params)
    results, notes = run_cases(resolver, corpus, args.split, config)  # no output holds the notes yet
    report = reports.instantiation_report(results, config)

    run_line = _run_line(
        corpus,
        "eval-inst",
        resolver=args.resolver,
        split=args.split,
        depth_cap=args.depth_cap,
        threshold=config.truth_threshold,
        structure=not args.no_structure,
        silver=args.with_silver,
        insert_gold=config.insert_gold,
    )
    predictions = [run_line] + [
        f"{result.case.id} arg={records.write_text(name)} value={records.write_value(value)}"
        for result in results
        for name, value in result.predicted.items()
    ]
    return _emit(args, "eval-inst", report, run_line, predictions)


def cmd_import(args) -> int:
    from . import sara_import

    log = sara_import.import_corpus(args.source, args.dest)
    for line in log.skipped:
        # A file name that is not UTF-8 holds lone surrogates: escape them as stderr does.
        line = line.encode("utf-8", "backslashreplace").decode("utf-8")
        print(f"skipped {line}", file=sys.stderr)
    print(f"imported {len(log.imported)} items, skipped {len(log.skipped)}")
    print(f"canonical corpus written to {args.dest}/manifest.txt")
    return 0

