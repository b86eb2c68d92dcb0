import dataclasses
import json
import os
import sys

import numpy as np
import pytest

import gridstorm.cli as cli
from gridstorm.cli import build_parser, main
from gridstorm.falsify import load_attack_file
from gridstorm.model import load_grid_config, load_grid_config_file
from gridstorm.sim import SIGNAL_BASES, check_success, robustness, simulate

from conftest import REPO_ROOT, config_path, load_config_doc


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture()
def fast_toy_config(tmp_path):
    """Toy config with fixed thresholds so loads skip calibration."""
    doc = load_config_doc("toy_grid.json")
    doc["thresholds"] = [0.9]
    return write_json(tmp_path / "grid.json", doc)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_simulate_writes_artifacts_and_manifest(fast_toy_config, tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", fast_toy_config, "--horizon", "300",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    names = {"trace.csv", "frequency.svg", "residue.svg", "power.svg",
             "success_report.json", "manifest.json"}
    assert names <= set(os.listdir(out))
    manifest = json.loads(read(out / "manifest.json"))
    assert set(manifest["outputs"]) == names - {"manifest.json"}
    # manifest vs filesystem diff: everything listed exists, nothing unlisted
    assert set(os.listdir(out)) == set(manifest["outputs"]) | {"manifest.json"}
    assert set(manifest["wall_s"]) == {"load_grid", "simulate", "csv", "svg"}
    assert all(sec > 0.0 for sec in manifest["wall_s"].values())
    # nominal run stays inside the band
    rows = read(out / "trace.csv").decode().strip().split("\n")[1:]
    f = np.array([float(r.split(",")[20]) for r in rows])
    assert np.all(f > 59.5) and np.all(f < 60.5)


def test_manifest_records_the_parsed_command_line(fast_toy_config, tmp_path,
                                                  monkeypatch):
    argv = ["simulate", "--config", fast_toy_config, "--horizon", "5",
            "--out", str(tmp_path / "given")]
    monkeypatch.setattr(sys, "argv", ["-c"])   # a python -c host
    assert main(argv) == 0
    manifest = json.loads(read(tmp_path / "given" / "manifest.json"))
    assert manifest["command_line"] == ["gridstorm", *argv]
    # without argv, main parses the process's own arguments
    argv[-1] = str(tmp_path / "own")
    monkeypatch.setattr(sys, "argv", ["/usr/bin/gridstorm", *argv])
    assert main() == 0
    manifest = json.loads(read(tmp_path / "own" / "manifest.json"))
    assert manifest["command_line"] == ["gridstorm", *argv]


def test_simulate_rejects_bad_horizon(fast_toy_config, tmp_path):
    rc = main(["simulate", "--config", fast_toy_config, "--horizon", "0",
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_simulate_missing_config(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "x")])
    assert rc == 2


# Options deleted from the train and falsify configs and from a grid
# config's generator params, each with the value it defaulted to or that
# the shipped configs gave it: a config that names one, with any value,
# exits 2 at its section and names it.
DELETED_OPTIONS = {"action_repeat": 1, "init": {"type": "zero"},
                   "reward_variant": "paired", "stealth_mode": "until_unsafe",
                   "droop": 0.05, "nominal_frequency_hz": 60.0, "rated_power_mw": 100.0}


def assert_names_deleted_options(doc, err):
    for key in DELETED_OPTIONS.keys() & doc:
        assert f"unknown keys: [{key!r}]" in err


@pytest.mark.parametrize("section, key, value, field", [
    ("generators", "inertia", "x", "$.generators[0].params.inertia"),
    ("generators", "governor_sign", 1.0, "$.generators[0].params.governor_sign"),
    ("calibration", "horizon", 10.5, "$.calibration.horizon"),
    ("calibration", "margin", 0.9, "$.calibration"),
    ("envelope", "f_lo", "a", "$.envelope.f_lo"),
    ("noise", "process", np.diag([1e-4, -1e-6, 1e-8, 1e-8]).tolist(),
     "$.generators[0].noise.process"),
    # positive semidefinite, but no Cholesky factor even with 1e-300 I added
    ("noise", "process", (1e-4 * np.ones((4, 4))).tolist(),
     "$.generators[0].noise.process"),
    ("noise", "process", (1e-6 * np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0],
                                           [0, 0, 0, 1]])).tolist(),
     "$.generators[0].noise.process"),
    # its symmetric part is positive definite, its lower triangle's is not
    ("noise", "measurement", (1e-6 * np.array([[1, -3], [3, 1]])).tolist(),
     "$.generators[0].noise.measurement"),
    ("generators", "droop", DELETED_OPTIONS["droop"], "$.generators[0].params"),
    ("generators", "nominal_frequency_hz", DELETED_OPTIONS["nominal_frequency_hz"],
     "$.generators[0].params"),
    ("generators", "rated_power_mw", DELETED_OPTIONS["rated_power_mw"],
     "$.generators[0].params"),
    # each nominal breaker state is read as an integer, never truncated
    ("load_map", "b_nom", [0.5, 1], "$.load_map.b_nom[0]"),
    ("load_map", "b_nom", [1.9, 1], "$.load_map.b_nom[0]"),
    ("load_map", "b_nom", [True, 1], "$.load_map.b_nom[0]"),
    ("load_map", "b_nom", ["1", 1], "$.load_map.b_nom[0]"),
    ("load_map", "b_nom", [1, 2], "$.load_map.b_nom[1]"),
    ("load_map", "b_nom", 1, "$.load_map.b_nom"),
])
def test_simulate_malformed_grid_config_exit_2(tmp_path, capsys, section, key, value,
                                               field):
    doc = load_config_doc("toy_grid.json")
    gen = doc["generators"][0]
    target = {**doc, "generators": gen["params"], "noise": gen["noise"]}[section]
    target[key] = value
    config = write_json(tmp_path / "grid.json", doc)
    out = tmp_path / "x"
    rc = main(["simulate", "--config", config, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {config}: {field}: " in err
    assert_names_deleted_options(target, err)
    assert not out.exists()


def test_estimator_design_failure_exit_2(tmp_path, capsys):
    doc = load_config_doc("default_grid.json")
    doc["generators"][1]["noise"]["process"] = 1e308
    config = write_json(tmp_path / "grid.json", doc)
    out = tmp_path / "x"
    rc = main(["simulate", "--config", config, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert (f"config error: {config}: $.generators[1].gains.l: estimator design failed: "
            "Riccati iteration produced non-finite values") in err
    assert not out.exists()


def test_unstable_supplied_estimator_gain_exit_2(tmp_path, capsys):
    doc = load_config_doc("toy_grid.json")
    doc["thresholds"] = [0.9]
    doc["generators"][0]["gains"] = {"l": [[5.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    config = write_json(tmp_path / "grid.json", doc)
    out = tmp_path / "x"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 2
    assert (f"config error: {config}: $.generators[0]: estimator loop unstable: "
            "rho(A - L C) = 4.01") in capsys.readouterr().err
    assert not out.exists()


def test_simulate_byte_identical_reruns(fast_toy_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--config", fast_toy_config, "--horizon", "200",
                     "--seed", "7", "--out", str(out)]) == 0
    for name in ("trace.csv", "frequency.svg", "residue.svg", "power.svg",
                 "success_report.json"):
        assert read(out1 / name) == read(out2 / name), name


def test_train_laa_artifacts_and_determinism(fast_toy_config, tmp_path):
    train_cfg = write_json(tmp_path / "train.json",
                           {"episodes": 4, "steps_per_episode": 30})
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    for out in (out1, out2):
        rc = main(["train-laa", "--config", fast_toy_config, "--train-config",
                   train_cfg, "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert {"actor.gsrl", "reward_curve.csv", "reward_curve.svg",
                "best_schedule.json", "manifest.json"} <= set(os.listdir(out))
    assert read(out1 / "reward_curve.csv") == read(out2 / "reward_curve.csv")
    assert read(out1 / "actor.gsrl") == read(out2 / "actor.gsrl")
    rows = read(out1 / "reward_curve.csv").decode().strip().split("\n")
    assert rows[0] == "episode,reward"
    assert len(rows) == 1 + 4


def test_train_laa_manifest_records_counts_and_stage_times(fast_toy_config, tmp_path):
    train_cfg = write_json(tmp_path / "train.json",
                           {"episodes": 4, "steps_per_episode": 30, "batch_size": 16})
    out = tmp_path / "t"
    assert main(["train-laa", "--config", fast_toy_config, "--train-config",
                 train_cfg, "--seed", "3", "--out", str(out)]) == 0
    manifest = json.loads(read(out / "manifest.json"))
    # one update per step once the replay buffer holds a batch
    assert manifest["counts"] == {"env_steps": 120, "ddpg_updates": 120 - 16 + 1}
    assert set(manifest["wall_s"]) == {"load_grid", "train", "export"}
    assert all(sec > 0.0 for sec in manifest["wall_s"].values())


def test_train_laa_assert_improving_contract(fast_toy_config, tmp_path):
    train_cfg = write_json(tmp_path / "train.json",
                           {"episodes": 12, "steps_per_episode": 30})
    out = tmp_path / "t"
    rc = main(["train-laa", "--config", fast_toy_config, "--train-config",
               train_cfg, "--seed", "3", "--out", str(out),
               "--assert-improving"])
    rows = read(out / "reward_curve.csv").decode().strip().split("\n")[1:]
    curve = np.array([float(r.split(",")[1]) for r in rows])
    window = min(10, len(curve))
    ma = np.convolve(curve, np.ones(window) / window, mode="valid")
    assert rc == (0 if ma[-1] >= ma[0] else 1)


def test_train_laa_rejects_unknown_keys(fast_toy_config, tmp_path):
    train_cfg = write_json(tmp_path / "train.json", {"episodess": 4})
    rc = main(["train-laa", "--config", fast_toy_config, "--train-config",
               train_cfg, "--out", str(tmp_path / "t")])
    assert rc == 2


# numpy warns of the overflow and its nan before the update sees them
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_laa_divergence_exit_4(tmp_path, capsys):
    train_cfg = write_json(tmp_path / "train.json",
                           {"episodes": 3, "steps_per_episode": 30, "batch_size": 8,
                            "critic_lr": 1e300})
    rc = main(["train-laa", "--config", config_path("toy_grid.json"), "--train-config",
               train_cfg, "--seed", "3", "--out", str(tmp_path / "t")])
    assert rc == 4
    assert capsys.readouterr().err == ("gridstorm: internal invariant breach: "
                                       "actor gradients are non-finite\n")


@pytest.mark.parametrize("doc, field", [
    ({"init": DELETED_OPTIONS["init"]}, "$"),
    ({"stealth_mode": DELETED_OPTIONS["stealth_mode"]}, "$"),
    ({"init": {"type": "uniform", "low": 0.0, "high": 0.1}}, "$"),
    ({"action_repeat": 2}, "$"),
    ({"weights": [1, 2]}, "$.weights"),
    ({"weights": {"w4": 1.0}}, "$.weights"),
    ({"weights": {"w1": "heavy"}}, "$.weights.w1"),
    ({"reward_variant": DELETED_OPTIONS["reward_variant"]}, "$"),
    ({"episodes": "4"}, "$.episodes"),
    ({"hidden": [64, 6.5]}, "$.hidden[1]"),
    ({"action_repeat": DELETED_OPTIONS["action_repeat"]}, "$"),
    ([4], "$"),
    ({"batch_size": 0}, "$"),
    ({"buffer_capacity": 4, "batch_size": 8}, "$"),
    ({"tau": -1.0}, "$"),
    ({"hidden": [64]}, "$.hidden"),
    ({"hidden": [64, 0]}, "$"),
    ({"reward_variant": "product"}, "$"),
])
def test_train_laa_malformed_config_exit_2(fast_toy_config, tmp_path, capsys, doc,
                                           field):
    if isinstance(doc, dict):
        doc = {"episodes": 2, "steps_per_episode": 5, **doc}
    train_cfg = write_json(tmp_path / "train.json", doc)
    out = tmp_path / "t"
    rc = main(["train-laa", "--config", fast_toy_config, "--train-config",
               train_cfg, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {train_cfg}: {field}: " in err
    assert_names_deleted_options(doc, err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "train-laa"])
def test_empty_schedule_exit_2(tmp_path, capsys, command):
    doc = load_config_doc("toy_grid.json")
    doc["scheduled_load"] = [[]]
    config = write_json(tmp_path / "grid.json", doc)
    args = [command, "--config", config]
    if command == "train-laa":
        train = {"episodes": 1, "steps_per_episode": 5}
        args += ["--train-config", write_json(tmp_path / "train.json", train)]
    out = tmp_path / "x"
    rc = main(args + ["--out", str(out)])
    assert rc == 2
    assert f"config error: {config}: $.scheduled_load: " in capsys.readouterr().err
    assert not out.exists()


def test_simulate_bad_attack_file_names_the_file(fast_toy_config, tmp_path, capsys):
    attack = write_json(tmp_path / "attack.json", {"d": 3})
    out = tmp_path / "x"
    rc = main(["simulate", "--config", fast_toy_config, "--attack", attack,
               "--out", str(out)])
    assert rc == 2
    assert f"config error: {attack}: attack document missing keys" in capsys.readouterr().err
    assert not out.exists()


# the command that reads each input file, and every input file it reads
INPUT_COMMANDS = {"--config": "simulate", "--attack": "simulate",
                  "--train-config": "train-laa", "--laa": "falsify",
                  "--falsify-config": "falsify"}
COMMAND_INPUTS = {"simulate": ["--config", "--attack"],
                  "train-laa": ["--config", "--train-config"],
                  "falsify": ["--config", "--laa", "--falsify-config"]}


@pytest.mark.parametrize("flag", list(INPUT_COMMANDS))
@pytest.mark.parametrize("text, message", [
    pytest.param('{"d": 3,', "Expecting property name", id="syntax"),
    pytest.param('{"foo": 1}', "", id="schema"),
    pytest.param('{"foo": NaN}', "non-finite number: NaN", id="nan"),
    pytest.param('{"foo": -1e400}', "non-finite number: -1e400", id="overflow"),
    pytest.param('{"foo": 1' + "0" * 400 + "}", "non-finite number: 1" + "0" * 400,
                 id="huge_int"),
    pytest.param(None, "Is a directory", id="directory"),
])
def test_bad_input_file_exit_2_names_the_file(fast_toy_config, tmp_path, capsys, flag,
                                              text, message):
    inputs = {
        "--config": fast_toy_config,
        "--attack": write_json(tmp_path / "attack.json", {
            "d": 3, "breaker_schedule": [[1, 1]] * 3,
            "false_data": [[[0.0, 0.0]] * 3], "mask": [0, 1], "range": [-0.05, 0.05]}),
        "--train-config": write_json(tmp_path / "train.json",
                                     {"episodes": 1, "steps_per_episode": 5}),
        "--laa": write_json(tmp_path / "laa.json", {"d": 5, "m": 2, "signals": [[1, 1]] * 5}),
        "--falsify-config": write_json(tmp_path / "f.json", {"budget": 1, "restarts": 1}),
    }
    bad = tmp_path / "bad"
    if text is None:
        bad.mkdir()
    else:
        bad.write_text(text, encoding="utf-8")
    inputs[flag] = str(bad)
    command = INPUT_COMMANDS[flag]
    out = tmp_path / "out"
    argv = [command] + [arg for f in COMMAND_INPUTS[command] for arg in (f, inputs[f])]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    if text is None:
        assert str(bad) in err and message in err
    else:
        assert f"gridstorm: config error: {bad}: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "validate", "compare"])
@pytest.mark.parametrize("bad_range, message", [
    (5, "range: expected an array of 2, got 5"),
    ([0.05, -0.05], "range must be finite numbers [lo, hi] with lo <= hi"),
], ids=["not_a_pair", "lo_above_hi"])
def test_attack_bad_range_exit_2(fast_toy_config, tmp_path, capsys, command,
                                 bad_range, message):
    attack = write_json(tmp_path / "attack.json", {
        "d": 3, "breaker_schedule": [[1, 1]] * 3,
        "false_data": [[[0.0, 0.0]] * 3], "mask": [0, 1], "range": bad_range})
    out = tmp_path / "x"
    argv = [command, "--config", fast_toy_config, "--attack", attack]
    argv += {"simulate": ["--out", str(out)], "validate": [],
             "compare": ["--combined", "--out", str(out)]}[command]
    assert main(argv) == 2
    assert f"config error: {attack}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "validate", "compare", "compare-laa-only"])
@pytest.mark.parametrize("generators", [1, 2])
def test_attack_generator_count_mismatch_exit_2(tmp_path, capsys, command, generators):
    doc = load_config_doc("default_grid.json")
    doc["thresholds"] = [0.9] * 3
    config = write_json(tmp_path / "grid.json", doc)
    attack = write_json(tmp_path / "attack.json", {
        "d": 20, "breaker_schedule": [[1, 1, 1]] * 20,
        "false_data": [[[0.01, 0.01]] * 20] * generators, "mask": [1, 1],
        "range": [-0.05, 0.05]})
    argv = [command.split("-")[0], "--config", config, "--attack", attack]
    argv += {"simulate": ["--out", str(tmp_path / "x")], "validate": [],
             "compare": ["--laa-only", "--fdia-only", "--combined",
                         "--out", str(tmp_path / "x")],
             # laa-only swaps in zero false data, which must keep the bad shape
             "compare-laa-only": ["--laa-only", "--out", str(tmp_path / "x")]}[command]
    assert main(argv) == 2
    assert (f"invalid input: attack false data covers {generators} generators, "
            f"the grid has 3") in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    ({"range": 0.05}, "$.range"),
    ({"range": [-0.05, "x"]}, "$.range[1]"),
    ({"mask": [0, 1, 1]}, "$.mask"),
    ({"budget": "many"}, "$.budget"),
    ({"restarts": 2.5}, "$.restarts"),
    ({"signal_basis": "model"}, "$.signal_basis"),
    ({"stealth_mode": DELETED_OPTIONS["stealth_mode"]}, "$"),
    ({"seed": 1}, "$"),
    ([0.05], "$"),
    ({"budget": 0}, "$"),
    pytest.param({"range": [-1e308, 1e308]}, "$", id="range_width_overflows"),
    pytest.param({"range": [-np.inf, np.inf]}, "non-finite number", id="range_infinite"),
    ({"action_repeat": DELETED_OPTIONS["action_repeat"]}, "$"),
    ({"init": DELETED_OPTIONS["init"]}, "$"),
    ({"reward_variant": DELETED_OPTIONS["reward_variant"]}, "$"),
    ({"stealth_mode": "all_steps"}, "$"),
])
def test_falsify_malformed_config_exit_2(fast_toy_config, tmp_path, capsys, doc, field):
    laa = write_json(tmp_path / "laa.json",
                     {"d": 20, "m": 2, "signals": [[1, 1]] * 20})
    fcfg = write_json(tmp_path / "f.json", doc)
    out = tmp_path / "f"
    rc = main(["falsify", "--config", fast_toy_config, "--laa", laa,
               "--falsify-config", fcfg, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {fcfg}: {field}: " in err
    assert_names_deleted_options(doc, err)
    assert not out.exists()


def test_falsify_true_signal_basis_attack(tmp_path):
    doc = load_config_doc("toy_grid.json")
    doc["thresholds"] = [1.25]
    config = write_json(tmp_path / "grid.json", doc)
    d = 100
    laa = write_json(tmp_path / "laa.json", {"d": d, "m": 2, "signals": [[0, 0]] * d})
    fcfg = write_json(tmp_path / "f.json", {"signal_basis": "true", "budget": 300,
                                            "restarts": 2, "noise_check_seeds": 0})
    out = tmp_path / "f"
    rc = main(["falsify", "--config", config, "--laa", laa, "--falsify-config", fcfg,
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    provenance = json.loads(read(out / "attack.json"))["provenance"]
    assert provenance["signal_basis"] == "true"
    assert provenance["stealth_mode"] == "until_unsafe"
    grid = load_grid_config(doc)
    trace = simulate(grid, load_attack_file(out / "attack.json"), horizon=d)
    assert robustness(trace, grid.envelope, grid.thresholds, "true") == provenance["rho"]
    assert check_success(trace, grid.envelope, grid.thresholds, "true").success


def test_falsify_no_counterexample_exit_code(fast_toy_config, tmp_path):
    laa = write_json(tmp_path / "laa.json",
                     {"d": 20, "m": 2, "signals": [[1, 1]] * 20})
    fcfg = write_json(tmp_path / "f.json", {"range": [0.0, 0.0], "budget": 50,
                                            "restarts": 2,
                                            "noise_check_seeds": 0})
    out = tmp_path / "f"
    rc = main(["falsify", "--config", fast_toy_config, "--laa", laa,
               "--falsify-config", fcfg, "--seed", "1", "--out", str(out)])
    assert rc == 3
    assert (out / "falsify_report.txt").exists()
    assert not (out / "attack.json").exists()
    manifest = json.loads(read(out / "manifest.json"))
    # a zero-width box ends each restart after its first sample: 1 + 2
    # evaluations.  Simulations are the 1 + 10 model build runs, whose base
    # run is the zero screen, and the 2 restarts' bests re-simulated; both
    # restarts score their one sample in one round.
    assert manifest["counts"] == {"evaluations": 3, "simulations": 11 + 2,
                                  "scores": 2, "rounds": 1}
    assert set(manifest["wall_s"]) == {"load_grid", "search", "validation"}
    assert manifest["wall_s"]["load_grid"] > 0.0
    assert manifest["wall_s"]["search"] > 0.0
    assert manifest["wall_s"]["validation"] == 0.0


def test_falsify_corrupt_schedule_exit_code(fast_toy_config, tmp_path):
    bad = tmp_path / "laa.json"
    bad.write_text("{broken")
    rc = main(["falsify", "--config", fast_toy_config, "--laa", str(bad),
               "--out", str(tmp_path / "f")])
    assert rc == 2


def test_validate_zero_attack_not_successful(fast_toy_config, tmp_path, capsys):
    attack = write_json(tmp_path / "attack.json", {
        "d": 10, "breaker_schedule": [[1, 1]] * 10,
        "false_data": [[[0.0, 0.0]] * 10], "mask": [0, 1],
        "range": [-0.05, 0.05]})
    rc = main(["validate", "--config", fast_toy_config, "--attack", attack])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"]["measured"]["success"] is False
    assert payload["reports"]["true"]["success"] is False


def late_alarm_attack(tmp_path):
    """A 5-step toy-grid attack whose residue peaks at step 7, after its own
    steps, and a config whose threshold sits just below that peak."""
    doc = load_config_doc("toy_grid.json")
    doc["thresholds"] = [0.9]
    attack = write_json(tmp_path / "late.json", {
        "d": 5, "breaker_schedule": [[1, 1], [0, 1], [0, 1], [0, 0], [0, 0]],
        "false_data": [[[0.0, v] for v in (-0.002, 0.001, 0.0025, -0.005, -0.002)]],
        "mask": [0, 1], "range": [-0.05, 0.05]})
    r_inf = simulate(load_grid_config(doc), load_attack_file(attack), 300).r_inf[0]
    assert r_inf.argmax() == 7 and r_inf[:6].max() < 0.9 * r_inf.max()
    doc["thresholds"] = [float(np.nextafter(r_inf.max(), 0.0))]
    return write_json(tmp_path / "late_grid.json", doc), attack


@pytest.mark.parametrize("case, horizon, first_alarm, runs", [
    ("seed3", 3000, 41, "d"),         # an alarm inside the attack's 100 steps
    ("late_alarm", 300, 7, "d, H"),   # one after the attack's 5 steps only
    ("quiet", 300, None, "d, H"),
    ("late_alarm", 5, None, "d"),     # --horizon equal to d
    ("late_alarm", None, None, "d"),  # the default horizon, d
])
def test_validate_reports_the_full_horizon_run(fast_toy_config, tmp_path, capsys,
                                               monkeypatch, case, horizon, first_alarm,
                                               runs):
    """validate simulates the attack's d steps, and the horizon H past them
    only when they raise no alarm; its stdout is the report of one
    horizon-H run all the same."""
    if case == "seed3":
        config = config_path("default_grid.json")
        attack = os.path.join(REPO_ROOT, "perfbench", "inputs", "attack_seed3.json")
    else:
        config, attack = late_alarm_attack(tmp_path)
        if case == "quiet":
            config = fast_toy_config
    grid, vector = load_grid_config_file(config), load_attack_file(attack)
    d, full = vector.d, horizon or vector.d
    trace = simulate(grid, vector, full)
    reports = {basis: dataclasses.asdict(check_success(trace, grid.envelope,
                                                       grid.thresholds, basis))
               for basis in SIGNAL_BASES}
    assert reports["measured"]["first_detection"] == first_alarm
    want = json.dumps({"reports": reports, "basis": "measured", "horizon": full},
                      indent=1, sort_keys=True) + "\n"

    horizons, real = [], cli.simulate

    def spy(grid, attack, horizon, **kwargs):
        horizons.append(horizon)
        return real(grid, attack, horizon, **kwargs)
    monkeypatch.setattr(cli, "simulate", spy)
    argv = ["validate", "--config", config, "--attack", attack]
    rc = main(argv + (["--horizon", str(horizon)] if horizon else []))
    assert capsys.readouterr().out == want
    assert rc == (0 if reports["measured"]["success"] else 1)
    assert horizons == {"d": [d], "d, H": [d, full]}[runs]


def test_validate_horizon_below_attack_length_exit_2(tmp_path, capsys):
    config, attack = late_alarm_attack(tmp_path)
    rc = main(["validate", "--config", config, "--attack", attack, "--horizon", "4"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "gridstorm: invalid input: attack length d must be <= horizon\n"


def test_compare_requires_mode_flag(fast_toy_config, tmp_path):
    attack = write_json(tmp_path / "attack.json", {
        "d": 10, "breaker_schedule": [[1, 1]] * 10,
        "false_data": [[[0.0, 0.0]] * 10], "mask": [0, 1],
        "range": [-0.05, 0.05]})
    rc = main(["compare", "--config", fast_toy_config, "--attack", attack,
               "--out", str(tmp_path / "c")])
    assert rc == 2


def test_compare_single_mode_outputs(fast_toy_config, tmp_path):
    attack = write_json(tmp_path / "attack.json", {
        "d": 10, "breaker_schedule": [[0, 0]] * 10,
        "false_data": [[[0.0, 0.0]] * 10], "mask": [0, 1],
        "range": [-0.05, 0.05]})
    out = tmp_path / "c"
    rc = main(["compare", "--config", fast_toy_config, "--attack", attack,
               "--laa-only", "--horizon", "200", "--out", str(out)])
    assert rc == 0
    report = json.loads(read(out / "compare_report.json"))
    assert set(report["modes"]) == {"laa-only"}
    svg = read(out / "compare_frequency.svg").decode()
    assert svg.count("<polyline") == 1


def test_compare_three_modes_three_curves(fast_toy_config, tmp_path):
    attack = write_json(tmp_path / "attack.json", {
        "d": 10, "breaker_schedule": [[0, 0]] * 10,
        "false_data": [[[0.0, 0.01]] * 10], "mask": [0, 1],
        "range": [-0.05, 0.05]})
    out = tmp_path / "c"
    rc = main(["compare", "--config", fast_toy_config, "--attack", attack,
               "--laa-only", "--fdia-only", "--combined",
               "--horizon", "100", "--out", str(out)])
    assert rc == 0
    svg = read(out / "compare_frequency.svg").decode()
    assert svg.count("<polyline") == 3
    report = json.loads(read(out / "compare_report.json"))
    assert set(report["modes"]) == {"laa-only", "fdia-only", "combined"}
    manifest = json.loads(read(out / "manifest.json"))
    assert set(manifest["wall_s"]) == {"load_grid", "simulate", "svg"}
    assert all(sec > 0.0 for sec in manifest["wall_s"].values())


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["simulate"])  # missing --config
    assert err.value.code == 2


def test_seed_comes_with_a_manifest(capsys):
    """--seed is recorded in the manifest, so only the commands that write
    one take it; validate writes none."""
    parser = build_parser()
    required = {"simulate": [], "train-laa": ["--train-config", "t.json"],
                "falsify": ["--laa", "l.json"], "compare": ["--attack", "a.json"],
                "validate": ["--attack", "a.json"]}
    for command, argv in required.items():
        argv = [command, "--config", "g.json", *argv, "--seed", "5"]
        if command == "validate":
            with pytest.raises(SystemExit) as err:
                parser.parse_args(argv)
            assert err.value.code == 2 and "--seed" in capsys.readouterr().err
        else:
            args = parser.parse_args(argv)
            assert args.seed == 5 and args.out == f"out/{command.removesuffix('-laa')}"
