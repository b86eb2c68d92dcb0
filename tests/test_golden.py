"""Golden bytes of the frozen-input path and of training.

Each command runs in-process, on the frozen inputs in perfbench/inputs/
(read only) or on the benchmark's 15-episode cut of train_short.json, and
every file it writes, apart from its manifest, must keep the sha256 below.
These hold under the SkylakeX, Haswell, Sandybridge and Prescott kernels of
numpy's OpenBLAS and with numpy's SIMD dispatch cut to its baseline
(NPY_DISABLE_CPU_FEATURES), bar the trained weights, which are pinned per
kernel and SIMD level and not checked under any other.  A change that moves
one of these bytes on purpose updates the table and says so.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO_ROOT, config_path, load_config_doc
from gridstorm.cli import blas_core, main

INPUTS = os.path.join(REPO_ROOT, "perfbench", "inputs")
GRID = config_path("default_grid.json")
ATTACK = os.path.join(INPUTS, "attack_seed3.json")

FALSIFY_SHA256 = {
    "attack.json": "7db907d6347270d120bdc35be6881e03fb15923c131da59fc9679a6ce9b1d395",
    "falsify_report.txt": "c077522f256c1b23b2000092c70ddf2553fba18900373b0afe8fbccacee4204b",
}
VALIDATE_STDOUT_SHA256 = "cbcae8c6456bff071db15b8c798ed808792d741e98253c2a0e35871db1fc567f"
COMPARE_SHA256 = {
    "compare_frequency.svg": "63d1b2e13c5396d6b4b27b2bc2b55949147122a7490d1b9518608dd36a7a76a3",
    "compare_report.json": "0c7779496208a0e700797ddb477beecee8d5cec51079bfe73fecaf733d0a7434",
    "compare_residue.svg": "55b63aff4a5bf1102f0656d6a18295829a036932b9dbfb396d75b80f1cd1968e",
}

SIMULATE_SHA256 = {
    "frequency.svg": "f51f989c3d90a5d949ed73cb28be3b198d6a33e0bda0aa22fdcdce16be6441e5",
    "power.svg": "7febef97b690dd1c78cf3de266c881fcad4177bb3f75ee11416416b2c6c01065",
    "residue.svg": "232bcc2e04d92b121f987c5a29d6895249f12b19423a84141d34d042888fe125",
    "success_report.json": "d35c89d4a01a0f6d1d02d05230f74432c054af247d6d32802d9b6664b43d8db0",
    "trace.csv": "62ba8e6f7c5fcc480e4f9d15cc1ff58db22294e6fc3fddc0dbb74105922ae9c2",
}
TRAIN_SHA256 = {
    "best_schedule.json": "bc20304208f34333217de27962b840e97b0e9d20393af39446f2eb93717a3b31",
    "reward_curve.csv": "42cf98afa5c2ec22437f6023fa9bb8174c961d38bf91ff7aefb4899058f4160a",
    "reward_curve.svg": "cbe6c6847b077e9d49f57fb5b3dbac402c93ae08bf9c6fc4a73865b0f42ea898",
}
# The weights take other bits under each OpenBLAS kernel, from DDPG's
# matmuls, and without numpy's X86_V3 SIMD loops, from np.tanh and np.exp.
# Keyed by the kernel name the library reports (OPENBLAS_CORETYPE=Prescott
# reports "Katmai") and by whether numpy dispatches to X86_V3
ACTOR_SHA256 = {
    ("SkylakeX", True): "1f21b11a5b7cbe352337193d11c7e15bc87726a70a9d3004e499e7a8824e9dbf",
    ("Haswell", True): "eed851c3e5c42487bb38921a68ff33d64ae94da2b18f2bead22d3bb924e255a6",
    ("Sandybridge", True): "c1f7f55121e5ad8338f1f44b8cc01b8d4fc6dc424e00ff8663c19c7c9e80f4a9",
    ("Katmai", True): "431b504f574968bcb515247197d2cf9a4918d4a6d70475465b4028582d49bdab",
    ("SkylakeX", False): "7660f39661ca1e23d595b744a1239933f20d5d7146dd64526214de5aa3dd281d",
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def tree_sha256(out):
    """sha256 of every file the command wrote, its manifest aside."""
    names = sorted(set(os.listdir(out)) - {"manifest.json"})
    return {name: sha256((out / name).read_bytes()) for name in names}


@pytest.mark.parametrize("command, argv, want", [
    ("falsify", ["--laa", os.path.join(INPUTS, "best_schedule_seed3.json"),
                 "--falsify-config", config_path("falsify_default.json"), "--seed", "3"],
     FALSIFY_SHA256),
    ("compare", ["--attack", ATTACK, "--laa-only", "--fdia-only", "--combined",
                 "--horizon", "3000"],
     COMPARE_SHA256),
    ("simulate", ["--attack", ATTACK, "--horizon", "3000", "--seed", "9"], SIMULATE_SHA256),
])
def test_frozen_input_artifacts_keep_their_bytes(tmp_path, capsys, command, argv, want):
    out = tmp_path / command
    assert main([command, "--config", GRID, *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert tree_sha256(out) == want


def test_validate_stdout_keeps_its_bytes(capsys):
    assert main(["validate", "--config", GRID, "--attack", ATTACK, "--horizon", "3000"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == VALIDATE_STDOUT_SHA256


def test_training_artifacts_keep_their_bytes(tmp_path, capsys):
    """The benchmark's train-laa: train_short.json cut to 15 episodes."""
    doc = load_config_doc("train_short.json")
    doc["episodes"] = 15
    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "train"
    assert main(["train-laa", "--config", GRID, "--train-config", str(train_config),
                 "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    simd = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    assert manifest["blas_core"] == blas_core() and manifest["simd_found"] == simd
    key = (manifest["blas_core"], "X86_V3" in manifest["simd_found"])
    got = tree_sha256(out)
    want = dict(TRAIN_SHA256)
    if key in ACTOR_SHA256:
        want["actor.gsrl"] = ACTOR_SHA256[key]
    else:
        del got["actor.gsrl"]
    assert got == want


def test_blas_core_reads_the_kernel_a_process_picked():
    if blas_core() not in {core for core, _ in ACTOR_SHA256}:
        pytest.skip(f"OpenBLAS kernel {blas_core()!r} is not one of the pinned x86 kernels")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.path.join(REPO_ROOT, "src")}
    run = subprocess.run([sys.executable, "-c",
                          "from gridstorm.cli import blas_core; print(blas_core())"],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "Haswell\n"


def test_blas_core_is_none_without_the_library(tmp_path):
    assert blas_core(str(tmp_path / "libscipy_openblas*")) is None
    (tmp_path / "libscipy_openblas64_.so").write_bytes(b"not a shared library")
    assert blas_core(str(tmp_path / "libscipy_openblas*")) is None
