"""The package runs on the standard library alone: importing the CLI pulls
in no numeric stack, and pyproject.toml declares no runtime dependency.
The package root exports nothing, so importing one module loads only what
that module needs, and each command loads only the modules it runs (and
never `dataclasses`). No package module imports itself through others.
Every name that the benchmark and the scripts import from the package
exists, and so does every name that the benchmark traces and every name
README's library table lists. No test module imports a test class."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = str(ROOT / "tests" / "fixtures" / "corpus" / "manifest.txt")


def _run(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return result.stdout.strip()


def test_cli_import_loads_no_numpy_or_scipy():
    code = (
        "import statreason.cli, sys; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    )
    assert _run(code) == "[]"


def test_package_root_defines_no_names_and_records_loads_alone():
    code = (
        "import statreason, sys; "
        "print([n for n in vars(statreason) if not n.startswith('_')]); "
        "import statreason.records; "
        "print(sorted(m for m in ('engine', 'rules', 'corpus', 'reports', 'baselines')"
        " if 'statreason.' + m in sys.modules))"
    )
    assert _run(code).splitlines() == ["[]", "[]"]


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []


# What each command loads of the package beyond the modules every command
# shares: the CLI, records, model, rules and corpus.
COMMAND_MODULES = {
    "validate": [],
    "stats": [],
    "eval-coref": ["baselines", "coref_metrics", "metrics", "reports"],
    "eval-argid": ["baselines", "metrics", "reports"],
    "cascade": ["baselines", "metrics", "reports"],
    "eval-inst": ["baselines", "engine", "metrics", "reports"],
    "import-sara": ["sara_import"],
}
SHARED = ["cli", "corpus", "model", "records", "rules"]


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_what_it_runs(command, tmp_path):
    if command == "import-sara":
        argv = [command, "--source", str(tmp_path), "--dest", str(tmp_path / "out")]
    else:
        argv = [command, "--manifest", MANIFEST]
    # `python -m statreason ...`, listing the modules it loaded that were not
    # loaded at start-up.
    code = (
        "import contextlib, io, runpy, sys\n"
        "before = set(sys.modules)\n"
        f"sys.argv = ['statreason', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('statreason', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, *sorted(set(sys.modules) - before))"
    )
    exit_code, *loaded = _run(code).split()
    assert exit_code == "0"
    package = sorted(m.removeprefix("statreason.") for m in loaded if m.startswith("statreason."))
    assert package == sorted(SHARED + COMMAND_MODULES[command])
    assert "dataclasses" not in loaded


def _package_imports():
    """(file, module, name) for every name that a file under perfbench/ or
    scripts/ imports from the package, at any depth; name is None for a
    plain `import statreason.<module>`."""
    for path in sorted([*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        where = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "statreason":
                yield from ((where, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((where, a.name, None) for a in node.names if a.name.split(".")[0] == "statreason")


def test_the_package_import_graph_has_no_cycle():
    # Every relative import of a package module, at module level or inside a
    # function, is an edge; a depth-first walk finds any cycle among them.
    package = ROOT / "src" / "statreason"
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for module in modules:
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        graph[module] = {
            target
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for target in ([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
            if target in modules
        }
    assert graph["reports"] and graph["engine"]  # the walk sees their imports
    done, path = set(), []

    def walk(module):
        if module in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(module) :] + [module]))
        if module not in done:
            path.append(module)
            for target in sorted(graph[module]):
                walk(target)
            done.add(path.pop())

    for module in sorted(graph):
        walk(module)


def test_benchmark_and_scripts_import_only_names_that_exist():
    imports = list(_package_imports())
    assert {where for where, _, _ in imports} >= {"perfbench/layers.py", "scripts/reproduce_tables.py"}
    missing = []
    for where, module, name in imports:
        try:
            owner = importlib.import_module(module)
            if name is not None and not hasattr(owner, name):
                importlib.import_module(f"{module}.{name}")  # a submodule not yet loaded
        except ImportError:
            missing.append(f"{where}: {module} has no {name}" if name else f"{where}: no module {module}")
    assert missing == []


# Names that perfbench/spans.py traces but that the package no longer has.
GONE_FROM_THE_PACKAGE = {
    "rules.populate_values", "model.ValueMap.merged", "model.ValueMap.without", "metrics.exact_match_coref",
    "metrics.span_prf", "reports.report_records", "reports.render_stats", "rules.check_references",
    "engine.evaluate_run", "reports.CorefReport.render", "reports.ArgIdReport.render", "reports.CascadeReport.render",
    "corpus.validate_corpus",
}


def test_every_traced_name_exists():
    # spans.py skips a name it cannot find, so a renamed function would
    # silently drop out of the per-layer trace.
    module = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    [traced] = [
        ast.literal_eval(node.value)
        for node in module.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    ]
    missing = []
    for layer, qualnames in traced.items():
        for qualname in qualnames:
            owner = importlib.import_module(f"statreason.{layer}")
            for attr in qualname.split("."):
                owner = getattr(owner, attr, None)
            if owner is None and f"{layer}.{qualname}" not in GONE_FROM_THE_PACKAGE:
                missing.append(f"{layer}.{qualname}")
    assert len(traced) >= 10 and missing == []


def test_readme_library_table_names_exist():
    # Each row of the table names its modules, then what they hold; every
    # backticked name there (up to any "(") exists in one of the row's modules.
    section = (ROOT / "README.md").read_text(encoding="utf-8").partition("## Library layout")[2]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `statreason.")]
    assert len(rows) >= 8
    missing = []
    for modules, contents in rows:
        owners = [importlib.import_module(m) for m in re.findall(r"`([^`]+)`", modules)]
        for name in (re.match(r"\w*", quoted).group() for quoted in re.findall(r"`([^`]+)`", contents)):
            if not any(hasattr(owner, name) for owner in owners):
                missing.append(f"{modules.strip()} has no {name or '(empty)'}")
    assert missing == []


def test_no_test_module_imports_a_test_class():
    # pytest collects a `Test*` class in every module whose namespace holds
    # it, so a class imported from another test module runs twice there; a
    # star import may bring one in unnamed.
    imported = [
        f"{path.name}: {alias.name}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if (alias.asname or alias.name).startswith("Test") or alias.name == "*"
    ]
    assert imported == []
