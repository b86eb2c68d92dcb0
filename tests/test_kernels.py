"""The closed-loop kernels against their einsum transcription, bit for bit,
and step_loop's early stop on a stack that is non-finite everywhere."""

import warnings

import numpy as np
import pytest

import gridstorm.kernels as kernels
import gridstorm.rl as rl
from gridstorm.model import load_grid_config
from gridstorm.numerics import RngStream
from gridstorm.rl import EpisodeConfig, GridEnv
from gridstorm.sim import AttackVector, FalseDataSchedule, simulate_many

from conftest import load_config_doc, make_plain_grid
from test_sim import assert_same_records, random_attack


# ---------------------------------------------------------------------------
# bitwise oracle: A z and C z as the 4-wide einsums they replaced


def einsum_outputs(c, z, a_y, v, yr, ym):
    np.einsum("nos,kns->kno", c, z, out=yr)
    np.add(yr[0], a_y, out=ym)
    np.add(ym, v, out=ym)
    np.subtract(ym, yr[1], out=yr[1])


def einsum_closed_loop_step(a, c, l, z, r, bu, w, a_y, v, z1, yr1, ym1):
    np.einsum("nsj,knj->kns", a, z, out=z1)
    np.add(z1, bu, out=z1)
    np.add(z1[0], w, out=z1[0])
    np.add(z1[1], np.einsum("nso,no->ns", l, r), out=z1[1])
    einsum_outputs(c, z1, a_y, v, yr1, ym1)


@pytest.fixture()
def einsum_kernels(monkeypatch):
    """Swap the einsum steps into kernels and rl while the fixture is used."""
    def install():
        monkeypatch.setattr(kernels, "outputs", einsum_outputs)
        monkeypatch.setattr(kernels, "closed_loop_step", einsum_closed_loop_step)
        monkeypatch.setattr(rl, "closed_loop_step", einsum_closed_loop_step)
    return install


def test_matvec_contractions_match_einsum_bits():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        a, c = rng.normal(size=(n, 4, 4)), rng.normal(size=(n, 2, 4))
        z = rng.normal(size=(2, n, 4)) * 10.0 ** rng.uniform(-3, 3, size=(2, n, 1))
        for m, width in ((a, 4), (c, 2)):
            got, want = np.empty((2, n, width)), np.empty((2, n, width))
            np.matvec(m, z, out=got)
            np.einsum("nsj,knj->kns", m, z, out=want)
            assert got.tobytes() == want.tobytes()


def grid_case(case):
    doc = load_config_doc("default_grid.json")
    gains = {"feedback_gain": {"k": [[0.0, 0.0, 0.0, 0.1]]},
             "lqr": {"lqr": {"q": 1, "r": 1}}}.get(case)
    if gains:
        for gen in doc["generators"]:
            gen["gains"] = gains
    doc["thresholds"] = [0.05, 0.05, 0.05]
    return load_grid_config(doc)


@pytest.mark.parametrize("case", ["plain", "noisy", "feedback_gain", "lqr"])
def test_simulate_matches_einsum_kernels(case, einsum_kernels):
    grid = grid_case(case)
    rng = np.random.default_rng(3)
    attacks = [None] + [random_attack(grid, d, rng) for d in (30, 12)]   # a 3-run stack
    noise = case == "noisy"

    def run():
        rngs = [RngStream(9, 1).split(j) for j in range(3)] if noise else None
        return simulate_many(grid, attacks, horizon=80, noise=noise, rngs=rngs)

    got = run()
    einsum_kernels()
    for j, (tr, want) in enumerate(zip(got, run())):
        assert_same_records(tr, want, j)


@pytest.mark.parametrize("case", ["plain", "lqr"])
def test_env_step_matches_einsum_kernels(case, einsum_kernels):
    grid = grid_case(case)
    actions = RngStream(5, 0).uniform(-1.0, 1.0, size=(15, grid.n_breakers))

    def run():
        env = GridEnv(grid, EpisodeConfig(steps_per_episode=15, episodes=1,
                                          action_repeat=2))
        env.reset()
        steps = [env.step(act) for act in actions]
        return np.concatenate([np.append(obs, rew) for obs, rew, _ in steps])

    got = run()
    einsum_kernels()
    assert got.tobytes() == run().tobytes()


# ---------------------------------------------------------------------------
# early stop: a stack whose rows are all non-finite stops at the next check


def blown_attack(grid, steps, rng):
    """A random attack whose false data is infinite on every generator from
    steps[i] on for generator i."""
    attack = random_attack(grid, 60, rng)
    vals = attack.false_data.values.copy()
    for gen, step in enumerate(steps):
        vals[gen, step:, 1] = np.inf
    return AttackVector(attack.breakers, FalseDataSchedule(vals, np.array([0, 1])))


def counted_steps(monkeypatch):
    calls = []
    step = kernels.closed_loop_step

    def counting(*args):
        calls.append(1)
        step(*args)
    monkeypatch.setattr(kernels, "closed_loop_step", counting)
    return calls


def test_all_blown_stack_stops_within_one_block(monkeypatch):
    grid = make_plain_grid(n=2, thresholds=[0.1, 0.1], m=2, mcol=0.3)
    rng = np.random.default_rng(4)
    attacks = [blown_attack(grid, steps, rng) for steps in ((0, 3), (20, 7), (50, 40))]
    monkeypatch.setattr(kernels, "STOP_CHECK_STEPS", 10**9)   # no early stop
    full = simulate_many(grid, attacks, horizon=1000)
    monkeypatch.setattr(kernels, "STOP_CHECK_STEPS", 64)
    calls = counted_steps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stopped = simulate_many(grid, attacks, horizon=1000)
    assert len(calls) == 64
    assert [tr.n_steps for tr in stopped] == [1, 7, 40]
    for j, (tr, want) in enumerate(zip(stopped, full)):
        assert tr.truncated
        assert_same_records(tr, want, j)


def test_stack_with_one_finite_row_runs_the_full_horizon(monkeypatch):
    grid = make_plain_grid(n=2, thresholds=[0.1, 0.1], m=2, mcol=0.3)
    rng = np.random.default_rng(5)
    attacks = [blown_attack(grid, (0, 0), rng), blown_attack(grid, (10, 200), rng)]
    calls = counted_steps(monkeypatch)
    traces = simulate_many(grid, attacks, horizon=300)
    assert len(calls) == 300
    assert [tr.n_steps for tr in traces] == [1, 10]
