"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Statistical criteria run at fixed seeds so the suite is deterministic; the
end-to-end regression drives the real CLI pipeline (train -> falsify ->
compare) on the shipped default grid.
"""

import json
import os
import time

import numpy as np
from scipy import stats

from gridstorm.cli import main
from gridstorm.falsify import (FalsificationProblem, FalsifyConfig, falsify_sa, objective,
                               zero_candidate)
from gridstorm.model import (C_OUT, build_continuous, discretize_zoh, load_grid_config,
                             spectral_radius)
from gridstorm.numerics import RngStream, dare_map, mat_exp, solve_dare
from gridstorm.rl import MLP, EpisodeConfig, GridEnv, TrainConfig, ddpg_train
from gridstorm.sim import BreakerSchedule, check_success, detect, robustness, simulate

from conftest import config_path, load_config_doc
from test_model import euler_refined, params
from test_sim import crafted_trace, _env


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. numerics suite


def test_criterion_1_numerics():
    t0 = time.monotonic()
    rng = np.random.default_rng(100)

    worst_inv = 0.0
    for _ in range(20):
        m = rng.normal(size=(5, 5))
        m *= rng.uniform(0.5, 10.0) / np.linalg.norm(m, 1)
        err = np.max(np.abs(mat_exp(m) @ mat_exp(-m) - np.eye(5)))
        worst_inv = max(worst_inv, err)

    worst_res = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        a *= rng.uniform(0.3, 0.95) / max(np.abs(np.linalg.eigvals(a)))
        g = rng.normal(size=(n, 1))
        mq = rng.normal(size=(n, n))
        q = mq @ mq.T + 1e-3 * np.eye(n)
        r = np.array([[rng.uniform(0.5, 2.0)]])
        p = solve_dare(a, g, q, r)
        worst_res = max(worst_res, np.max(np.abs(p - dare_map(p, a, g, q, r))))

    elapsed = time.monotonic() - t0
    report("1-numerics",
           worst_inv <= 1e-8 and worst_res <= 1e-8 and elapsed < 5.0,
           f"(inv identity {worst_inv:.2e}, dare residual {worst_res:.2e}, "
           f"{elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. model suite


def test_criterion_2_model():
    a_c, b_c = build_continuous(params())
    a, b = discretize_zoh(a_c, b_c, 0.01)
    a_ref, b_ref = euler_refined(a_c, b_c, 0.01)
    zoh_err = max(np.max(np.abs(a - a_ref)), np.max(np.abs(b - b_ref)))

    radii = []
    for name in ("default_grid.json", "toy_grid.json"):
        grid = load_grid_config(load_config_doc(name))
        radii.extend(spectral_radius(grid.a - grid.l @ C_OUT))

    doc = load_config_doc("default_grid.json")
    doc["noise_enabled"] = False
    doc["thresholds"] = [1.0, 1.0, 1.0]
    grid = load_grid_config(doc)
    trace = simulate(grid, None, horizon=1000)
    max_resid = float(np.max(np.abs(trace.residue)))

    report("2-model",
           zoh_err <= 1e-6 and max(radii) < 1.0 and max_resid == 0.0,
           f"(zoh vs euler {zoh_err:.2e}, max rho(A-LC) {max(radii):.4f}, "
           f"nominal residue {max_resid})")


# ---------------------------------------------------------------------------
# 3. predicate / robustness suite


def test_criterion_3_predicates():
    rng = np.random.default_rng(300)
    disagreements = 0
    detect_mismatch = 0
    for _ in range(1000):
        steps = int(rng.integers(2, 60))
        th = float(rng.uniform(0.1, 0.9))
        r_seq = rng.uniform(0, 1.0, size=steps)
        f_seq = rng.uniform(59.0, 61.0, size=steps)
        tr = crafted_trace(r_seq, f_seq, th=th)
        rho = robustness(tr, _env(), [th], "measured")
        ok = check_success(tr, _env(), [th], "measured").success
        if (rho < 0) != ok:
            disagreements += 1
        want = next((k for k, v in enumerate(r_seq) if v > th), None)
        if detect(tr, [th]) != want:
            detect_mismatch += 1
    report("3-predicates", disagreements == 0 and detect_mismatch == 0,
           f"(sign disagreements {disagreements}/1000, "
           f"detect mismatches {detect_mismatch}/1000)")


# ---------------------------------------------------------------------------
# 4. RL suite


def test_criterion_4_rl():
    t0 = time.monotonic()
    grid = load_grid_config(load_config_doc("toy_grid.json"))
    ma_up = 0
    trained_rewards, random_rewards = [], []
    for seed in (101, 202, 303):
        env = GridEnv(grid, EpisodeConfig(steps_per_episode=100, episodes=50))
        art = ddpg_train(env, TrainConfig(), RngStream(seed, 0))
        ma = np.convolve(art.reward_curve, np.ones(10) / 10, mode="valid")
        ma_up += int(ma[-1] >= ma[0])

        eval_rng = RngStream(seed, 77)
        for _ in range(20):
            env_t = GridEnv(grid, EpisodeConfig(steps_per_episode=100, episodes=1))
            obs = env_t.reset()
            total, done = 0.0, False
            while not done:
                act = art.actor.forward(env_t.normalize(obs))[0]
                obs, rew, done = env_t.step(act)
                total += rew
            trained_rewards.append(total)
        for _ in range(20):
            env_r = GridEnv(grid, EpisodeConfig(steps_per_episode=100, episodes=1))
            env_r.reset()
            total, done = 0.0, False
            while not done:
                _, rew, done = env_r.step(eval_rng.uniform(-1, 1, size=env_r.act_dim))
                total += rew
            random_rewards.append(total)

    rank = stats.mannwhitneyu(trained_rewards, random_rewards,
                              alternative="greater")

    # gradient checks (per-parameter, 100 random probes per network)
    nprng = np.random.default_rng(400)
    grad_worst = 0.0
    for squash, sizes in (("tanh", [5, 16, 16, 2]), (None, [7, 16, 16, 1])):
        net = MLP(sizes, out_squash=squash, rng=RngStream(5, 0))
        x = nprng.normal(size=(4, sizes[0]))
        w_out = nprng.normal(size=(4, sizes[-1]))
        _, cache = net.forward(x, with_cache=True)
        net.backward(cache, w_out)
        for idx in nprng.choice(net.flat.size, size=100, replace=False):
            orig = net.flat[idx]
            net.flat[idx] = orig + 1e-6
            up = float(np.sum(net.forward(x) * w_out))
            net.flat[idx] = orig - 1e-6
            down = float(np.sum(net.forward(x) * w_out))
            net.flat[idx] = orig
            numeric = (up - down) / 2e-6
            analytic = net.grad[idx]
            rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
            grad_worst = max(grad_worst, rel)

    elapsed = time.monotonic() - t0
    report("4-rl",
           ma_up >= 2 and rank.pvalue < 0.05 and grad_worst <= 1e-4
           and elapsed < 600.0,
           f"(trend up {ma_up}/3 seeds, rank-test p {rank.pvalue:.2e}, "
           f"grad rel err {grad_worst:.2e}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 5. falsification suite


def test_criterion_5_falsification():
    t0 = time.monotonic()
    doc = load_config_doc("toy_grid.json")
    doc["thresholds"] = [1.25]
    grid = load_grid_config(doc)
    laa = BreakerSchedule(signals=np.zeros((60, 2), dtype=int))
    problem = FalsificationProblem(grid=grid, laa=laa,
                                   config=FalsifyConfig(control_points=1))

    # exhaustive-grid oracle certifies the violating region is >= 5% of the box
    zgrid = np.linspace(-0.05, 0.05, 201)
    rhos = np.array([objective(problem, np.array([[[z]]])) for z in zgrid])
    frac = float(np.mean(rhos < 0))
    nontrivial = objective(problem, zero_candidate(problem)) >= 0

    wins = sum(falsify_sa(problem, RngStream(s, 0)).success for s in range(10))

    # 1-D oracle equivalence on the benign variant: rho is flat in the knot,
    # so SA's best must coincide with the exhaustive grid minimum
    benign = FalsificationProblem(grid=grid,
                                  laa=BreakerSchedule(np.ones((60, 2), dtype=int)),
                                  config=FalsifyConfig(control_points=1, budget=300,
                                                       restarts=3))
    rhos_b = np.array([objective(benign, np.array([[[z]]])) for z in zgrid])
    res_b = falsify_sa(benign, RngStream(0, 0))
    equiv = res_b.best_rho <= float(np.min(rhos_b)) + 1e-9

    elapsed = time.monotonic() - t0
    report("5-falsification",
           frac >= 0.05 and nontrivial and wins >= 9 and equiv
           and elapsed < 300.0,
           f"(violating region {frac:.1%}, SA wins {wins}/10, 1-D equivalence "
           f"{res_b.best_rho:.6f} vs grid {np.min(rhos_b):.6f}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 6. end-to-end attack-mode regression


def test_criterion_6_end_to_end(tmp_path):
    t0 = time.monotonic()
    cfg = config_path("default_grid.json")
    train_dir = str(tmp_path / "train")
    fals_dir = str(tmp_path / "falsify")
    comp_dir = str(tmp_path / "compare")

    rc = main(["train-laa", "--config", cfg,
               "--train-config", config_path("train_short.json"),
               "--seed", "3", "--out", train_dir])
    assert rc == 0
    rc = main(["falsify", "--config", cfg,
               "--laa", os.path.join(train_dir, "best_schedule.json"),
               "--falsify-config", config_path("falsify_default.json"),
               "--seed", "3", "--out", fals_dir])
    assert rc == 0, "falsification found no counter-example on the frozen seed"
    rc = main(["compare", "--config", cfg,
               "--attack", os.path.join(fals_dir, "attack.json"),
               "--laa-only", "--fdia-only", "--combined",
               "--horizon", "800", "--out", comp_dir])
    assert rc == 0

    with open(os.path.join(comp_dir, "compare_report.json")) as fh:
        modes = json.load(fh)["modes"]
    laa, fdia, comb = modes["laa-only"], modes["fdia-only"], modes["combined"]

    # LAA-only: transient at most, recovers into the band, and holds stealth
    # longer than the falsified-only replay
    laa_ok = (laa["in_band_at_end"] and not laa["success"]
              and laa["first_detection"] is not None
              and fdia["first_detection"] is not None
              and laa["first_detection"] > fdia["first_detection"])
    # FDIA-only: detected, and never even unsafe
    fdia_ok = fdia["first_detection"] is not None and not fdia["ever_unsafe"]
    # combined: out of band before first detection, within 50 steps
    comb_ok = (comb["success"] and comb["k_prime"] is not None
               and comb["k_prime"] <= 50
               and (comb["first_detection"] is None
                    or comb["first_detection"] >= comb["k_prime"])
               and comb["first_detection"] != fdia["first_detection"]
               and (comb["first_detection"] is None
                    or comb["first_detection"] > laa["first_detection"]))

    elapsed = time.monotonic() - t0
    report("6-end-to-end",
           laa_ok and fdia_ok and comb_ok and elapsed < 900.0,
           f"(laa det {laa['first_detection']}, fdia det {fdia['first_detection']}, "
           f"combined k'={comb['k_prime']} det {comb['first_detection']}, "
           f"{elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 7. reproducibility


def test_criterion_7_reproducibility(tmp_path):
    doc = load_config_doc("toy_grid.json")
    doc["thresholds"] = [0.9]
    cfg = str(tmp_path / "grid.json")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    train_cfg = str(tmp_path / "train.json")
    with open(train_cfg, "w") as fh:
        json.dump({"episodes": 4, "steps_per_episode": 30}, fh)
    laa = str(tmp_path / "laa.json")
    with open(laa, "w") as fh:
        json.dump({"d": 20, "m": 2, "signals": [[0, 0]] * 20}, fh)
    fals_cfg = str(tmp_path / "f.json")
    with open(fals_cfg, "w") as fh:
        json.dump({"budget": 60, "restarts": 2, "noise_check_seeds": 0}, fh)

    def run_all(tag):
        outs = {}
        d = tmp_path / tag
        assert main(["simulate", "--config", cfg, "--horizon", "150",
                     "--seed", "11", "--out", str(d / "sim")]) == 0
        assert main(["train-laa", "--config", cfg, "--train-config", train_cfg,
                     "--seed", "11", "--out", str(d / "train")]) == 0
        main(["falsify", "--config", cfg, "--laa", laa, "--falsify-config",
              fals_cfg, "--seed", "11", "--out", str(d / "fals")])
        assert main(["compare", "--config", cfg,
                     "--attack", str(tmp_path / "attack.json"),
                     "--laa-only", "--combined", "--horizon", "100",
                     "--out", str(d / "cmp")]) == 0
        for sub in ("sim", "train", "fals", "cmp"):
            for name in os.listdir(d / sub):
                if name == "manifest.json":  # carries wall-clock timestamps
                    continue
                with open(d / sub / name, "rb") as fh:
                    outs[f"{sub}/{name}"] = fh.read()
        return outs

    with open(tmp_path / "attack.json", "w") as fh:
        json.dump({"d": 10, "breaker_schedule": [[0, 0]] * 10,
                   "false_data": [[[0.0, 0.01]] * 10], "mask": [0, 1],
                   "range": [-0.05, 0.05]}, fh)

    first = run_all("run1")
    second = run_all("run2")
    assert set(first) == set(second)
    diff = [name for name in first if first[name] != second[name]]
    report("7-reproducibility", not diff,
           f"({len(first)} artifacts compared, differing: {diff})")
