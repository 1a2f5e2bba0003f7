"""The runtime imports nothing outside the standard library, each of its
modules binds what it defines under one name, and none imports a name it
does not use."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import semimeasures

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# package modules by file name, the scripts' and tests' by directory and name
CHECKED = {p.name: p for p in (SRC / "semimeasures").glob("*.py") if p.name != "__init__.py"}
CHECKED.update({f"{p.parent.name}/{p.name}": p for d in ("scripts", "tests") for p in (ROOT / d).glob("*.py")})


def test_cli_loads_only_stdlib_modules():
    """Import the CLI, which pulls in every module of the package, in a
    fresh interpreter and list the top-level modules it loaded.

    The child runs without ``site`` (``-S``): ``.pth`` hooks of installed
    packages import modules of their own at start-up, which says nothing
    about this package.  A third-party import in the package then fails
    outright, since site-packages is not on the path, or shows up in the
    list.
    """
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import semimeasures.cli\n"
        "print(' '.join(sorted({name.partition('.')[0] for name in sys.modules})))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "semimeasures" in loaded
    foreign = [name for name in loaded if name not in sys.stdlib_module_names and name not in ("semimeasures", "__main__")]
    assert foreign == []


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(semimeasures.__path__) if m.name != "__main__")
)
def test_each_module_binds_its_definitions_under_one_name(name):
    """A second module-level name for a function or class is an alias; the
    package's ``__init__`` is the one place that may export another name.
    ``__main__`` defines nothing: it runs ``cli.main``."""
    module = importlib.import_module(f"semimeasures.{name}")
    bound = vars(module)
    defined = [
        obj
        for attr, obj in bound.items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert defined
    for obj in defined:
        assert [attr for attr, other in bound.items() if other is obj] == [obj.__name__]


@pytest.mark.parametrize("path", sorted(CHECKED))
def test_every_imported_name_is_used(path):
    """Read from the syntax tree: each name a module, script or test file
    imports is read somewhere in it, so a deletion leaves no import behind.
    The package's ``__init__`` imports to re-export, and is not checked."""
    tree = ast.parse(CHECKED[path].read_text())
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


# the rule for counts, and the checks that keep a message of their own
COUNT_MESSAGE_OWNERS = {
    "errors._count",
    "dyadic.Dyadic.__init__",
    "functional.domain_clopen_approx",
    "strings.StagedFamily.from_events",
}


def test_count_checks_have_one_owner():
    """A count is read by ``errors._count``: no other function of the
    package spells out a "... must be non-negative" message of its own."""
    owners = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                if child.value.endswith("must be non-negative"):
                    owners.append(scope)
            visit(child, scope)

    for path in sorted((SRC / "semimeasures").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert "errors._count" in owners
    assert sorted(set(owners) - COUNT_MESSAGE_OWNERS) == []


# the type half of the count rule, and the check that keeps a message of its own
INT_NOT_BOOL_OWNERS = {"errors._index", "functional.domain_clopen_approx"}


def test_int_not_bool_checks_have_one_owner():
    """An ``int`` that is not a ``bool`` is read by ``errors._index``: no
    other function of the package asks both ``isinstance(_, int)`` and
    ``isinstance(_, bool)``."""
    asked = {}  # function scope -> the type names it hands to isinstance

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance" and len(child.args) == 2:
                kinds = child.args[1].elts if isinstance(child.args[1], ast.Tuple) else [child.args[1]]
                asked.setdefault(scope, set()).update(getattr(kind, "id", None) for kind in kinds)
            visit(child, scope)

    for path in sorted((SRC / "semimeasures").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    owners = {scope for scope, kinds in asked.items() if {"int", "bool"} <= kinds}
    assert "errors._index" in owners
    assert sorted(owners - INT_NOT_BOOL_OWNERS) == []
