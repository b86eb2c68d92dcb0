import json
import os

import numpy as np
import pytest

from gridstorm.cli import main

from conftest import config_path, load_config_doc


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
    # nominal run stays inside the band
    rows = read(out / "trace.csv").decode().strip().split("\n")[1:]
    f = np.array([float(r.split(",")[20]) for r in rows])
    assert np.all(f > 59.5) and np.all(f < 60.5)


def test_simulate_rejects_bad_horizon(fast_toy_config, tmp_path):
    rc = main(["simulate", "--config", fast_toy_config, "--horizon", "0",
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_simulate_missing_config(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "x")])
    assert rc == 2


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
    # evaluations; simulations are the screen, 1 + 10 model runs, 2 re-scores
    assert manifest["counts"] == {"evaluations": 3, "simulations": 14}
    assert set(manifest["wall_s"]) == {"search", "validation"}
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


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["simulate"])  # missing --config
    assert err.value.code == 2
