"""Every name that a module of the package or of the test suite imports is
used in that module, and every module-level name of the package, private or
public, is read somewhere in the package as a name of its own module; no
linter is needed to catch a leftover import, a dead helper or a name only
the tests use.  In runs of the commands, the package reads every field of a
config section and every method and property of its classes through an
object of its own class.  Every function and method that the benchmark's
tracer patches exists."""

import ast
import dataclasses
import functools
import importlib
import json
import os
import sys
import types
from pathlib import Path

import pytest

from conftest import config_path, load_config_doc, make_plain_grid
from gridstorm.cli import main

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


def module_reads(sources):
    """(module, name) of every module-level name that the modules, given as
    {module: source}, read: loaded in its own module, imported by name from
    it (test_every_import_is_used makes such an import a read) or read as
    an attribute of it.  The package itself is the module "__init__"."""
    defined = {module: {name for _, name in definitions(source)}
               for module, source in sources.items()}
    read = set()
    for module, source in sources.items():
        aliases, tree = {}, ast.parse(source)   # aliases: names bound to a package module
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            imported = node.module or ""
            if not (node.level or imported.startswith("gridstorm")):
                continue
            owner = imported.removeprefix("gridstorm").lstrip(".") or "__init__"
            for alias in node.names:
                if owner == "__init__" and alias.name in sources:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    read.add((owner, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in defined[module]:
                    read.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    read.add((aliases[node.value.id], node.attr))
    return read


def package_sources():
    return {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}


def test_module_reads_resolve_the_owner():
    sources = {"a": "_A = 1\n_B: int = 2\nC = _A\ndef signals():\n    pass\n"
                    "class _K:\n    pass\n",
               "b": "from .a import _K\nfrom . import c\ndef g(s):\n    return s.signals, _K\n"
                    "def h():\n    return c.C\n",
               "c": "from gridstorm.a import C\n"}
    read = module_reads(sources)
    dead = [(line, name) for line, name in definitions(sources["a"]) if ("a", name) not in read]
    # s.signals reads an attribute of some object, not the module function
    assert dead == [(2, "_B"), (4, "signals")]
    assert {("a", "C"), ("a", "_K"), ("c", "C")} <= read and ("b", "g") not in read


def test_dead_helpers_are_found():
    source = ("_A = 1\n_B: int = 2\nC = _A\ndef _f():\n    pass\n"
              "class _K:\n    pass\ndef g():\n    return m._K\n")
    read = module_reads({"m": source, "n": "from .m import _K\n"})
    dead = [(line, name) for line, name in private_definitions(source)
            if ("m", name) not in read]
    assert dead == [(2, "_B"), (4, "_f")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_private_helper_is_read(path):
    read = module_reads(package_sources())
    dead = private_definitions(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in dead if (path.stem, name) not in read] == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_public_name_is_read(path):
    read = module_reads(package_sources())
    unread = {name for _, name in definitions(path.read_text(encoding="utf-8"))
              if not name.startswith("_") and (path.stem, name) not in read}
    assert unread == set()


# The dataclasses that model.config_object reads config sections into,
# by module: each field is a key that the loader accepts.
CONFIG_SECTIONS = {"model": ["AgcParams", "SafetyEnvelope", "Calibration"],
                   "falsify": ["FalsifyConfig"],
                   "rl": ["EpisodeConfig", "TrainConfig", "RewardWeights"]}
PACKAGE_DIR = str(ROOT / "src" / "gridstorm") + os.sep


def own_code(cls):
    """The code objects of the methods, properties and cached properties
    that cls itself defines."""
    codes = set()
    for value in vars(cls).values():
        for attr in ("fget", "func", "__func__"):
            value = getattr(value, attr, value)
        if hasattr(value, "__code__"):
            codes.add(value.__code__)
    return codes


def members(cls):
    """The methods and properties that cls itself defines, bar dunders and
    dataclass fields."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else ()
    kinds = (types.FunctionType, property, functools.cached_property, staticmethod,
             classmethod)
    return {name for name, value in vars(cls).items()
            if isinstance(value, kinds) and name not in fields
            and not (name.startswith("__") and name.endswith("__"))}


def package_classes():
    """Every class that a module of the package defines."""
    modules = [importlib.import_module(f"gridstorm.{p.stem}") for p in PACKAGE
               if p.stem != "__init__"]
    return [cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__]


def record_reads(monkeypatch, classes):
    """A set that collects (class name, name) for every read through an
    object of one of classes, by package code: of a dataclass field outside
    the class's own methods, and of a method or property the class defines
    anywhere.  dataclasses' own reads, as by asdict, are not package code."""
    reads = set()
    for cls in classes:
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) \
            else set()
        methods, own = members(cls), own_code(cls)
        if not fields | methods:
            continue

        def getattribute(obj, name, cls=cls, fields=fields, methods=methods, own=own):
            if name in fields or name in methods:
                code = sys._getframe(1).f_code
                if code.co_filename.startswith(PACKAGE_DIR) and (name in methods
                                                                 or code not in own):
                    reads.add((cls.__name__, name))
            return object.__getattribute__(obj, name)
        monkeypatch.setattr(cls, "__getattribute__", getattribute, raising=False)
    return reads


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def package_reads(tmp_path_factory):
    """The fields, methods and properties of package classes that toy runs
    of every command read: simulate, train-laa, validate and compare on the
    calibrated toy grid, a falsify that succeeds, so that its noise check
    runs, and one whose box excludes 0, so that it screens a clipped
    candidate and anneals."""
    tmp = tmp_path_factory.mktemp("package_reads")
    grid = config_path("toy_grid.json")
    attack = str(ROOT / "perfbench" / "inputs" / "toy_attack_seed3.json")
    train = load_config_doc("train_toy.json")
    train.update(episodes=2, steps_per_episode=20, batch_size=8)
    falsify_grid = load_config_doc("toy_grid.json")
    falsify_grid["thresholds"] = [1.25]
    falsify = ["falsify", "--config", write_json(tmp / "g.json", falsify_grid),
               "--laa", write_json(tmp / "laa.json", {"d": 100, "m": 2,
                                                      "signals": [[0, 0]] * 100})]
    runs = [
        ["simulate", "--config", grid, "--attack", attack, "--horizon", "200"],
        ["train-laa", "--config", grid, "--train-config", write_json(tmp / "t.json", train)],
        ["validate", "--config", grid, "--attack", attack, "--horizon", "200"],
        ["compare", "--config", grid, "--attack", attack, "--laa-only", "--fdia-only",
         "--combined", "--horizon", "200"],
        falsify + ["--falsify-config", write_json(tmp / "f.json", {
            "signal_basis": "true", "budget": 300, "restarts": 2, "noise_check_seeds": 2}),
                   "--seed", "1"],
        falsify + ["--falsify-config", write_json(tmp / "f0.json", {
            "range": [0.01, 0.02], "budget": 40, "restarts": 2}), "--seed", "1"],
    ]
    with pytest.MonkeyPatch.context() as monkeypatch:
        reads = record_reads(monkeypatch, package_classes())
        codes = [main(argv + (["--out", str(tmp / f"run{i}")] if argv[0] != "validate" else []))
                 for i, argv in enumerate(runs)]
    assert codes == [0, 0, 1, 0, 0, 3]   # the toy attack carries no false data
    return reads


def test_field_reads_are_recorded_per_owner(monkeypatch):
    from gridstorm.falsify import FalsifyConfig
    from gridstorm.model import Calibration, calibrate_threshold

    reads = record_reads(monkeypatch, [Calibration, FalsifyConfig])
    assert Calibration().horizon == 1000   # a test file is not package code
    assert dataclasses.asdict(Calibration()) and reads == set()
    FalsifyConfig(budget=3)                # __post_init__ is FalsifyConfig's own
    assert reads == set()
    calibrate_threshold(make_plain_grid(), Calibration(horizon=5))
    assert reads == {("Calibration", "horizon"), ("Calibration", "margin"),
                     ("Calibration", "seed")}


def test_member_reads_are_recorded_per_owner(monkeypatch):
    from gridstorm.sim import BreakerSchedule, SimTrace, detect, simulate

    reads = record_reads(monkeypatch, [SimTrace, BreakerSchedule])
    trace = simulate(make_plain_grid(), None, horizon=3)
    assert trace.n_steps == 4 and reads == set()   # a test file is not package code
    detect(trace, trace.thresholds)
    assert reads == {("SimTrace", "r_inf")}
    assert members(SimTrace) >= {"r_inf", "n_steps", "frequency"}
    assert "signals" not in members(BreakerSchedule)   # a field, not a member


@pytest.mark.parametrize("module, name", [(m, n) for m, names in CONFIG_SECTIONS.items()
                                          for n in names],
                         ids=lambda value: value)
def test_every_config_field_is_read(package_reads, module, name):
    """A config key that no package code reads changes no output."""
    cls = getattr(importlib.import_module(f"gridstorm.{module}"), name)
    assert [f.name for f in dataclasses.fields(cls)
            if (name, f.name) not in package_reads] == []


@pytest.mark.parametrize("cls", [cls for cls in package_classes() if members(cls)],
                         ids=lambda cls: f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}")
def test_every_method_and_property_is_read(package_reads, cls):
    """A method or property that only the tests read is test code."""
    assert sorted(members(cls) - {name for owner, name in package_reads
                                  if owner == cls.__name__}) == []


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
