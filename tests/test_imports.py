"""Cold start: each command loads only its modules, the package exports lazily.

Module lists come from ``python -X importtime`` in a fresh process, which
names every module the process imports.  The benchmark and the scripts are
parsed, not run: every name they take from reecurve must exist, and every
top-level definition in src/ must be read by src/, the benchmark or the
scripts.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import reecurve

SRC = Path(reecurve.__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
ROOT = TRACER.parent.parent
ENTRY = {"reecurve", "reecurve.commands"}
MODULES = {"reecurve"} | {f"reecurve.{p.stem}" for p in (SRC / "reecurve").glob("*.py")}


def imported_modules(*args: str) -> set[str]:
    """Every module a fresh ``python -X importtime ARGS`` imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def loaded_modules(*args: str) -> set[str]:
    """reecurve modules a fresh ``python -X importtime ARGS`` imports."""
    names = imported_modules(*args)
    return {n for n in names if n == "reecurve" or n.startswith("reecurve.")}


def command_modules(command: str) -> set[str]:
    return loaded_modules("-m", "reecurve", *command.split())


def test_params_loads_only_params():
    assert command_modules("params --s 1") == ENTRY | {"reecurve.params"}


def test_bare_package_import_loads_no_submodule():
    assert loaded_modules("-c", "import reecurve") == {"reecurve"}


@pytest.mark.parametrize(
    "command, absent",
    [
        ("verify --s 1", {"reecurve.gf", "reecurve.series"}),
        ("orders --s 1 --series D", {"reecurve.gf", "reecurve.series", "reecurve.identities"}),
        ("orders --s 1 --series E --backend series --seed 0 --trials 1",
         {"reecurve.identities"}),
        ("weierstrass --s 1", {"reecurve.identities"}),
    ],
)
def test_command_leaves_modules_unloaded(command, absent):
    mods = command_modules(command)
    assert ENTRY <= mods
    assert not mods & absent


@pytest.mark.parametrize(
    "command",
    [
        "params --s 1",
        "verify --s 1",
        "verify --s 2 --backend series --seed 0 --trials 1",
        "orders --s 1 --series D",
        "weierstrass --s 3 --point origin",
    ],
)
def test_command_does_not_import_dataclasses(command):
    # dataclasses pulls in inspect: about 11 ms of every cold process
    assert "dataclasses" not in imported_modules("-m", "reecurve", *command.split())


def test_cli_module_loads_every_traced_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = {modname for _, modname, _ in tracer.SPAN_TARGETS}
    assert "reecurve.cli" in targets
    assert targets <= loaded_modules("-c", "import reecurve.cli")
    # a traced name that no longer exists would fail every traced op
    for _, modname, attr in tracer.SPAN_TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (modname, attr)


def reecurve_reads(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for each name a file takes from reecurve.

    That is every ``from reecurve... import name`` and every attribute read
    off a reecurve module: one bound by ``import``, or ``sys.modules[...]``
    under a module name.  A chain such as ``reecurve.cli.main`` walks
    through submodules to the first name that is not one.
    """
    bound: dict[str, str] = {}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                reads.add((node.module, alias.name))
                if f"{node.module}.{alias.name}" in MODULES:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["reecurve"] = "reecurve"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        root = node
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in bound:
            module = bound[root.id]
        elif (isinstance(root, ast.Subscript) and ast.unparse(root.value) == "sys.modules"
              and isinstance(root.slice, ast.Constant) and root.slice.value in MODULES):
            module = root.slice.value
        else:
            continue
        for attr in reversed(chain):
            if f"{module}.{attr}" not in MODULES:
                reads.add((module, attr))
                break
            module = f"{module}.{attr}"
    return reads


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_benchmark_and_scripts_find_what_they_read(path):
    # a deletion from src/ that the benchmark or a script still needs
    # fails here, not in a benchmark run
    for module, name in sorted(reecurve_reads(ast.parse(path.read_text()))):
        found = f"{module}.{name}" in MODULES or hasattr(importlib.import_module(module), name)
        assert found, f"{path.name}: {module}.{name}"


def names_read(tree: ast.AST, strings: bool = False) -> Counter:
    """How often each name is read in tree: Name loads and attribute reads.

    With strings set, each dotted part of a string constant counts too, as
    the tracer names the functions it wraps in strings.
    """
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.update(node.value.split("."))
    return reads


def unread_definitions() -> list[str]:
    """Top-level functions and classes of src/reecurve/ that nothing runs.

    A definition is unread when its name is read nowhere but in its own
    body and in other unread definitions.  Reads count in src/, perfbench/
    and scripts/, not in tests/; an ``__all__`` entry is a string in src/
    and does not count, and dunder names are the interpreter's to read.
    """
    reads: Counter = Counter()
    defs = []
    for path in sorted((SRC / "reecurve").glob("*.py")):
        tree = ast.parse(path.read_text())
        reads += names_read(tree)
        defs += [(path.stem, node) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and not node.name.startswith("__")]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reads += names_read(ast.parse(path.read_text()), strings=True)
    for path in sorted((ROOT / "scripts").glob("*.py")):
        reads += names_read(ast.parse(path.read_text()))
    unread: list[str] = []
    while True:
        found = [(stem, node) for stem, node in defs
                 if reads[node.name] == names_read(node)[node.name]]
        if not found:
            return sorted(unread)
        for stem, node in found:
            unread.append(f"{stem}.{node.name}")
            defs.remove((stem, node))
            reads -= names_read(node)


def test_src_holds_only_what_something_runs():
    # a definition that only tests read belongs in tests/reference.py
    unread = unread_definitions()
    assert not unread, f"read only by tests: {unread}"


def modules_imported(tree: ast.AST, package: str | None = None) -> set[str]:
    """The reecurve modules a file imports, anywhere in it.

    package names the file's package, for its relative imports.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package if node.level else None
            module = ".".join(filter(None, [base, node.module]))
            out.add(module)
            out |= {f"{module}.{alias.name}" for alias in node.names}
    return out & MODULES


def test_each_module_is_imported_outside_tests():
    # a module that only tests import belongs in tests/; cli.py imports
    # every module on purpose, so its imports show no module is run
    importers = {path: "reecurve" for path in (SRC / "reecurve").glob("*.py")
                 if path.name != "cli.py"}
    importers |= {path: None for folder in ("perfbench", "scripts")
                  for path in (ROOT / folder).glob("*.py")}
    imported = Counter()
    for path, package in importers.items():
        home = f"reecurve.{path.stem}" if package else None
        imported.update(modules_imported(ast.parse(path.read_text()), package) - {home})
    entry = {"reecurve", "reecurve.__init__", "reecurve.__main__"}
    unimported = sorted(MODULES - entry - set(imported))
    assert not unimported, f"imported only by tests: {unimported}"


# ---------------------------------------------------------------------------
# lazy package exports


@pytest.mark.parametrize("name", reecurve.__all__)
def test_export_resolves_to_its_module(name):
    value = getattr(reecurve, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("reecurve.")
    assert getattr(home, name) is value


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from reecurve import *", namespace)
    assert set(reecurve.__all__) <= set(namespace)
    assert set(reecurve.__all__) <= set(dir(reecurve))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        reecurve.no_such_name  # noqa: B018
    assert not hasattr(reecurve, "no_such_name")


def test_readme_import_line():
    from reecurve import divisor_degree_audit, order_sequence, vanishing_orders

    from reecurve.orders import order_sequence as home_order_sequence
    from reecurve.weierstrass import divisor_degree_audit as home_audit
    from reecurve.weierstrass import vanishing_orders as home_vanishing

    assert order_sequence is home_order_sequence
    assert vanishing_orders is home_vanishing
    assert divisor_degree_audit is home_audit
