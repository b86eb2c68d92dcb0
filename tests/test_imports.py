"""Every name that a module of the package or of the test suite imports is
used in that module, and every module-level name of the package, private or
public, is read somewhere in the package; no linter is needed to catch a
leftover import, a dead helper or a name only the tests use.  Every function
and method that the benchmark's tracer patches exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gridstorm").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import io\nimport os.path\nfrom a import b as c, d\nos.sep\nd()\n"
    assert unused_imports(source) == [(1, "io"), (3, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def definitions(source):
    """(line, name) of each module-level function, class or constant."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return found


def private_definitions(source):
    """(line, name) of each module-level definition whose name starts with
    an underscore."""
    return [(line, name) for line, name in definitions(source) if name.startswith("_")]


def names_read(sources):
    """Every name that the sources read, as a variable or as an attribute."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_dead_helpers_are_found():
    source = ("_A = 1\n_B: int = 2\nC = _A\ndef _f():\n    pass\n"
              "class _K:\n    pass\ndef g():\n    return m._K\n")
    dead = [(line, name) for line, name in private_definitions(source)
            if name not in names_read([source])]
    assert dead == [(2, "_B"), (4, "_f")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_private_helper_is_read(path):
    read = names_read(p.read_text(encoding="utf-8") for p in PACKAGE)
    dead = private_definitions(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in dead if name not in read] == []


# Public names that no package module reads yet, each with the reason it stays:
# rl.rollout_policy gets its pipeline caller from ROADMAP item 6.
UNREAD_PUBLIC = {("rl", "rollout_policy")}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_public_name_is_read(path):
    read = names_read(p.read_text(encoding="utf-8") for p in PACKAGE)
    unread = {name for _, name in definitions(path.read_text(encoding="utf-8"))
              if not name.startswith("_") and name not in read}
    assert unread == {name for stem, name in UNREAD_PUBLIC if stem == path.stem}


def traced_names():
    """perfbench/tracer.py's TRACED list, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    [node] = [node for node in tree.body if isinstance(node, ast.Assign)
              and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]]
    return ast.literal_eval(node.value)


def test_every_traced_name_resolves():
    """The benchmark's tracer patches each module attribute where it is bound
    and each method in its class __dict__, so a rename must fail here."""
    missing = []
    for name, module_name, attr in traced_names():
        owner = importlib.import_module(module_name)
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(name)
    assert missing == []
