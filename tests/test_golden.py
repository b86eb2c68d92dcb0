"""Golden bytes of the frozen-input path.

Each command runs in-process on the frozen inputs in perfbench/inputs/ (read
only) and every file it writes, apart from its manifest, must keep the
sha256 below.  A change that moves one of these bytes on purpose updates the
table and says so.
"""

import hashlib
import os

import pytest

from conftest import REPO_ROOT, config_path
from gridstorm.cli import main

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
])
def test_frozen_input_artifacts_keep_their_bytes(tmp_path, capsys, command, argv, want):
    out = tmp_path / command
    assert main([command, "--config", GRID, *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert tree_sha256(out) == want


def test_validate_stdout_keeps_its_bytes(capsys):
    assert main(["validate", "--config", GRID, "--attack", ATTACK, "--horizon", "3000"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == VALIDATE_STDOUT_SHA256
