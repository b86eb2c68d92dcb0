"""Every name that a module of the package or of the test suite imports is
used in that module, and every module-level name of the package, private or
public, is read somewhere in the package; no linter is needed to catch a
leftover import, a dead helper or a name only the tests use.  Every field of
a config section is read by the package, through an object of its own class,
in a run of the commands.  Every function and method that the benchmark's
tracer patches exists."""

import ast
import dataclasses
import importlib
import json
import os
import sys
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


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_public_name_is_read(path):
    read = names_read(p.read_text(encoding="utf-8") for p in PACKAGE)
    unread = {name for _, name in definitions(path.read_text(encoding="utf-8"))
              if not name.startswith("_") and name not in read}
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


def record_field_reads(monkeypatch, classes):
    """A set that collects (class name, field) for every field read through
    an object of one of classes by package code outside the class's own
    methods; dataclasses' own reads, as by asdict, are not package code."""
    reads = set()
    for cls in classes:
        fields, own = {f.name for f in dataclasses.fields(cls)}, own_code(cls)

        def getattribute(obj, name, cls=cls, fields=fields, own=own):
            if name in fields:
                code = sys._getframe(1).f_code
                if code.co_filename.startswith(PACKAGE_DIR) and code not in own:
                    reads.add((cls.__name__, name))
            return object.__getattribute__(obj, name)
        monkeypatch.setattr(cls, "__getattribute__", getattribute, raising=False)
    return reads


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def config_field_reads(tmp_path_factory):
    """The config fields that toy runs of every command read: simulate,
    train-laa, validate and compare on the calibrated toy grid, and a
    falsify that succeeds, so that its noise check runs."""
    classes = [getattr(importlib.import_module(f"gridstorm.{module}"), name)
               for module, names in CONFIG_SECTIONS.items() for name in names]
    tmp = tmp_path_factory.mktemp("config_reads")
    grid = config_path("toy_grid.json")
    attack = str(ROOT / "perfbench" / "inputs" / "toy_attack_seed3.json")
    train = load_config_doc("train_toy.json")
    train.update(episodes=2, steps_per_episode=20, batch_size=8)
    falsify_grid = load_config_doc("toy_grid.json")
    falsify_grid["thresholds"] = [1.25]
    runs = [
        ["simulate", "--config", grid, "--attack", attack, "--horizon", "200"],
        ["train-laa", "--config", grid, "--train-config", write_json(tmp / "t.json", train)],
        ["validate", "--config", grid, "--attack", attack, "--horizon", "200"],
        ["compare", "--config", grid, "--attack", attack, "--laa-only", "--fdia-only",
         "--combined", "--horizon", "200"],
        ["falsify", "--config", write_json(tmp / "g.json", falsify_grid),
         "--laa", write_json(tmp / "laa.json", {"d": 100, "m": 2, "signals": [[0, 0]] * 100}),
         "--falsify-config", write_json(tmp / "f.json", {"signal_basis": "true", "budget": 300,
                                                         "restarts": 2, "noise_check_seeds": 2}),
         "--seed", "1"],
    ]
    with pytest.MonkeyPatch.context() as monkeypatch:
        reads = record_field_reads(monkeypatch, classes)
        codes = [main(argv + (["--out", str(tmp / argv[0])] if argv[0] != "validate" else []))
                 for argv in runs]
    assert codes == [0, 0, 1, 0, 0]   # the toy attack carries no false data
    return reads


def test_field_reads_are_recorded_per_owner(monkeypatch):
    from gridstorm.falsify import FalsifyConfig
    from gridstorm.model import Calibration, calibrate_threshold

    reads = record_field_reads(monkeypatch, [Calibration, FalsifyConfig])
    assert Calibration().horizon == 1000   # a test file is not package code
    assert dataclasses.asdict(Calibration()) and reads == set()
    FalsifyConfig(budget=3)                # __post_init__ is FalsifyConfig's own
    assert reads == set()
    calibrate_threshold(make_plain_grid(), Calibration(horizon=5))
    assert reads == {("Calibration", "horizon"), ("Calibration", "margin"),
                     ("Calibration", "seed")}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in CONFIG_SECTIONS.items()
                                          for n in names],
                         ids=lambda value: value)
def test_every_config_field_is_read(config_field_reads, module, name):
    """A config key that no package code reads changes no output."""
    cls = getattr(importlib.import_module(f"gridstorm.{module}"), name)
    assert [f.name for f in dataclasses.fields(cls)
            if (name, f.name) not in config_field_reads] == []


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
