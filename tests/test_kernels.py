"""The closed-loop kernels against their per-step einsum transcription, bit
for bit, step_loop's early stop on a stack that is non-finite everywhere, and
the step_loop arguments perfbench/tracer.py reads."""

import importlib.util
import pathlib
import warnings

import numpy as np
import pytest

import gridstorm.kernels as kernels
import gridstorm.rl as rl
from gridstorm.model import C_OUT, load_grid_config
from gridstorm.numerics import RngStream
from gridstorm.rl import EpisodeConfig, GridEnv
from gridstorm.sim import AttackVector, FalseDataSchedule, simulate_many

from conftest import load_config_doc, make_plain_grid
from test_sim import assert_same_records, random_attack


# ---------------------------------------------------------------------------
# bitwise oracle: one einsum step per call, A z, C z and L r as einsums


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


def einsum_step_block(a, b, c, lt, k, steps, bu, wlr, lr, inputs):
    """step_block() as one einsum_closed_loop_step per step, which adds
    every input, the load b u too, whatever the four inputs flags say."""
    l = np.moveaxis(lt, 0, -1)
    for z0, r, u, z1, yr1, _, _, ym1, a_y, v, w in zip(*steps, wlr[:, 0]):
        u = u[..., 0]
        if k is not None:
            np.add(u, np.einsum("ns,ns->n", k, z0[1]), out=u)
        einsum_closed_loop_step(a, c, l, z0, r[..., 0].T, b * u[..., None], w, a_y, v,
                                z1, yr1, ym1)


@pytest.fixture()
def einsum_kernels(monkeypatch):
    """Swap the einsum steps into kernels and rl while the fixture is used.
    step_loop measures record 0 with np.matvec still, which has einsum's
    bits (test_matvec_contractions_match_einsum_bits)."""
    def install():
        monkeypatch.setattr(kernels, "step_block", einsum_step_block)
        monkeypatch.setattr(rl, "step_block", einsum_step_block)
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


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                     1e-310, -2.2e-308, 1e308, -1e308])


def by_output(l):
    """L (n, 4, 2) as the (2, n, 4) copy step_block takes."""
    return np.ascontiguousarray(np.moveaxis(l, -1, 0))


def test_lr_contraction_matches_einsum_bits():
    """step_block forms L r as r_0 l_0 + r_1 l_1.  Over stacks whose l and r
    hold +-0, +-inf, NaN and subnormals, the sum is einsum's bits up to the
    sign of a zero (einsum sums from +0, so -0 + -0 gives it +0), and one
    step from those l and r writes the einsum step's bits: A z + b u is
    never -0, so adding either zero to it gives the same sum.  Each of a_y,
    v, w and the load u is zero in some steps, and such a step is told so
    half the time: skipping an all-zero input gives the bits of adding it,
    since y, A z and A z + b u are never -0 either.  The load's flags come
    from a generator of their own, so that l and r keep the data drawn
    before u had a flag."""
    rng, load_rng = np.random.default_rng(7), np.random.default_rng(17)
    draws = (rng, rng, rng, load_rng)

    def sprinkle(arr):
        hit = rng.random(arr.shape) < 0.3
        arr[hit] = rng.choice(SPECIALS, size=hit.sum())
        return arr

    zeros_differ, skipped = 0, np.zeros(4, dtype=int)
    for _ in range(500):
        n = int(rng.integers(1, 25))
        a, b, c = rng.normal(size=(n, 4, 4)), rng.normal(size=(n, 4)), rng.normal(size=(n, 2, 4))
        l = sprinkle(rng.normal(size=(n, 4, 2)) * 10.0 ** rng.uniform(-3, 3, size=(n, 4, 2)))
        z, yr, ym = np.zeros((2, 2, n, 4)), np.zeros((2, 2, n, 2)), np.zeros((2, n, 2))
        u, a_y, v = rng.normal(size=(2, 2, n)), *rng.normal(size=(2, 2, n, 2))
        wlr = np.zeros((1, 2, n, 4))
        z[0], wlr[0, 0] = rng.normal(size=(2, n, 4)), rng.normal(size=(n, 4))
        yr[0, 1] = sprinkle(rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-3, 3, size=(n, 2)))
        zero = [*(rng.random(3) < 0.5), load_rng.random() < 0.5]
        for arr, off in zip((a_y[1], v[1], wlr[0, 0], u[0]), zero):
            arr[...] = 0.0 if off else arr
        inputs = tuple(bool(not off or gen.random() < 0.5) for off, gen in zip(zero, draws))
        skipped += ~np.array(inputs)
        z0, r0 = z[0].copy(), yr[0, 1].copy()

        with np.errstate(all="ignore"):
            products = r0[:, None, :] * l
            got = products[..., 0] + products[..., 1]
            want = np.einsum("nso,no->ns", l, r0)
            kernels.step_block(a, b, c, by_output(l), None,
                               kernels.step_views(z, yr, ym, u, a_y, v),
                               np.empty((1, 2, n, 4)), wlr, np.empty((2, n, 4)), inputs)
            z1, yr1, ym1 = np.empty((2, n, 4)), np.empty((2, n, 2)), np.empty((n, 2))
            einsum_closed_loop_step(a, c, l, z0, r0, b * u[0][..., None], wlr[0, 0],
                                    a_y[1], v[1], z1, yr1, ym1)
        differ = got.view(np.uint64) != want.view(np.uint64)
        assert np.all((got[differ] == 0.0) & (want[differ] == 0.0))
        zeros_differ += int(differ.sum())
        assert (z[1].tobytes(), yr[1].tobytes(), ym[1].tobytes()) == (
            z1.tobytes(), yr1.tobytes(), ym1.tobytes())
    assert zeros_differ > 0   # the stacks do reach the -0 + -0 case
    assert np.all(skipped > 50)


PATTERNS = [tuple(bool(bit) for bit in np.unravel_index(i, (2,) * 4)) for i in range(16)]


def step_blocks(block, lengths, patterns, gain):
    """Records stepped by `block` (step_block or einsum_step_block) through
    consecutive blocks of the given lengths and inputs patterns, cut from
    one set of step_views as step_loop cuts them, from a random record 0.
    An input a pattern flags False is zero over its block; so is the load,
    and with it the gain, since u carries K x_hat."""
    rng = np.random.default_rng(31)
    n, steps = 3, sum(lengths) + 1
    a, c = 0.2 * rng.normal(size=(n, 4, 4)), rng.normal(size=(n, 2, 4))
    b, lt = rng.normal(size=(n, 4)), 0.1 * rng.normal(size=(2, n, 4))
    k = 0.1 * rng.normal(size=(n, 4)) if gain else None
    z, yr, ym = np.zeros((steps, 2, n, 4)), np.zeros((steps, 2, n, 2)), np.zeros((steps, n, 2))
    z[0], yr[0] = rng.normal(size=(2, n, 4)), rng.normal(size=(2, n, 2))
    a_y, v, u = rng.normal(size=(steps, n, 2)), rng.normal(size=(steps, n, 2)), \
        rng.normal(size=(steps, 2, n))
    w = rng.normal(size=(steps - 1, n, 4))
    views = kernels.step_views(z, yr, ym, u, a_y, v)
    starts = np.cumsum([0] + lengths[:-1])
    for t0, t1, inputs in zip(starts, starts + lengths, patterns):
        for arr, lo, nonzero in ((a_y, t0 + 1, inputs[0]), (v, t0 + 1, inputs[1]),
                                 (w, t0, inputs[2]), (u, t0, inputs[3])):
            if not nonzero:
                arr[lo:lo + t1 - t0] = 0.0
        wlr = np.zeros((t1 - t0, 2, n, 4))
        wlr[:, 0] = w[t0:t1]
        block(a, b, c, lt, None if k is None else k * inputs[3],
              [s[t0:t1] for s in views], np.empty_like(wlr), wlr, np.empty((2, n, 4)),
              inputs)
    assert np.isfinite(z).all() and np.isfinite(ym).all()
    return z.tobytes(), yr.tobytes(), ym.tobytes(), u.tobytes()


@pytest.mark.parametrize("gain", [False, True])
@pytest.mark.parametrize("length", [1, 2, 64])
def test_step_block_matches_einsum_bits_for_every_inputs_pattern(length, gain):
    """One block per inputs pattern: every slot the loop leaves unzipped, and
    the record it carries from one step into the next, give the einsum
    step's bits."""
    for inputs in PATTERNS:
        want = step_blocks(einsum_step_block, [length], [inputs], gain)
        assert step_blocks(kernels.step_block, [length], [inputs], gain) == want, inputs


@pytest.mark.parametrize("gain", [False, True])
def test_consecutive_blocks_with_changing_patterns_match_einsum_bits(gain):
    """Blocks of lengths 1, 2 and 64 in turn, each with the next pattern, so
    every block starts from a record that a block of another pattern wrote."""
    lengths = [(1, 2, 64)[i % 3] for i in range(2 * len(PATTERNS))]
    patterns = PATTERNS[::-1] + PATTERNS[1::2] + PATTERNS[::2]
    assert step_blocks(kernels.step_block, lengths, patterns, gain) == \
        step_blocks(einsum_step_block, lengths, patterns, gain)


def recorded_flags(monkeypatch):
    """(k is None, inputs) of every step_block call, in order."""
    flags, block = [], kernels.step_block

    def recording(a, b, c, lt, k, *rest):
        flags.append((k is None, tuple(map(bool, rest[-1]))))
        block(a, b, c, lt, k, *rest)
    monkeypatch.setattr(kernels, "step_block", recording)
    return flags


@pytest.mark.parametrize("use_k", [False, True])
def test_blocks_with_and_without_inputs_match_einsum_kernels(use_k, einsum_kernels,
                                                            monkeypatch):
    """step_loop over four blocks: false data in the first only, process
    noise in the second only, measurement noise in the third only, and no
    load input in the second and the last.  With a gain (an LQR design or a
    supplied gains.k) u carries K x_hat in those blocks too, so step_loop
    flags it nonzero and it is added."""
    runs, edge = 4, kernels.STOP_CHECK_STEPS
    horizon = 4 * edge - 10
    cases = ["lqr", "feedback_gain"] if use_k else ["plain"]

    def run(case):
        grid = grid_case(case)
        rng = np.random.default_rng(8)
        rows = runs * grid.n_generators
        a, b, l, k = (np.concatenate([m] * runs) for m in (grid.a, grid.b, grid.l, grid.k))
        c = np.broadcast_to(C_OUT, (rows, 2, 4))
        x0 = rng.normal(scale=1e-3, size=(rows, 4))
        u_sched, u_laa = rng.normal(scale=0.01, size=(2, rows, horizon + 1))
        for load in (u_sched, u_laa):
            load[:, edge:2 * edge] = load[:, 3 * edge:] = 0.0
        a_y, w, v, *records = kernels.buffers(rows, horizon + 1)
        a_y[:, :edge + 1] = rng.normal(scale=0.01, size=(rows, edge + 1, 2))
        w[:, edge:2 * edge] = rng.normal(scale=1e-3, size=(rows, edge, 4))
        v[:, 2 * edge + 1:3 * edge + 1] = rng.normal(scale=1e-3, size=(rows, edge, 2))
        valid = kernels.step_loop(None, a, b, c, l, k, use_k, x0, x0, u_sched, u_laa,
                                  a_y, w, v, *records)
        assert valid == horizon + 1
        return [r.tobytes() for r in records]

    flags = recorded_flags(monkeypatch)
    got = [run(case) for case in cases]
    assert flags == [(not use_k, (True, False, False, True)),
                     (not use_k, (False, False, True, use_k)),
                     (not use_k, (False, True, False, True)),
                     (not use_k, (False, False, False, use_k))] * len(cases)
    einsum_kernels()
    assert got == [run(case) for case in cases]


def test_calibration_skips_the_zero_load_on_the_default_grid(monkeypatch):
    """Every block of the default grid's threshold calibration (zero
    schedule, nominal breakers, K = 0, noise on) is told its load is zero."""
    flags = recorded_flags(monkeypatch)
    grid = load_grid_config(load_config_doc("default_grid.json"))
    assert grid.noise_enabled
    assert len(flags) == -(-1000 // kernels.STOP_CHECK_STEPS)
    assert {(no_gain, inputs[3]) for no_gain, inputs in flags} == {(True, False)}


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
    """Stacks of 1, 3 and 20 runs, at horizons on both sides of the block
    edges at STOP_CHECK_STEPS and twice it."""
    grid = grid_case(case)
    rng = np.random.default_rng(3)
    noise = case == "noisy"
    cases = [([None] + [random_attack(grid, min(int(d), horizon), rng)
                        for d in rng.integers(1, 30, runs - 1)], horizon)
             for runs in (1, 3, 20) for horizon in (1, 63, 64, 65, 130)]

    def run(attacks, horizon):
        rngs = [RngStream(9, 1).split(j) for j in range(len(attacks))] if noise else None
        return simulate_many(grid, attacks, horizon=horizon, noise=noise, rngs=rngs)

    got = [run(*c) for c in cases]
    einsum_kernels()
    for i, (c, traces) in enumerate(zip(cases, got)):
        for j, (tr, want) in enumerate(zip(traces, run(*c))):
            assert_same_records(tr, want, (i, j))


@pytest.mark.parametrize("case", ["plain", "lqr"])
def test_env_step_matches_einsum_kernels(case, einsum_kernels):
    grid = grid_case(case)
    actions = RngStream(5, 0).uniform(-1.0, 1.0, size=(15, grid.n_breakers))

    def run():
        env = GridEnv(grid, EpisodeConfig(steps_per_episode=15, episodes=1))
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
    """The steps simulate stepped, one entry per step, through step_block."""
    calls = []
    block = kernels.step_block

    def counting(a, b, c, l, k, steps, *scratch):
        calls.extend([1] * len(steps[0]))
        block(a, b, c, l, k, steps, *scratch)
    monkeypatch.setattr(kernels, "step_block", counting)
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


# ---------------------------------------------------------------------------
# the benchmark's tracer reads step_loop's arguments by position


def test_tracer_counts_every_generator_step():
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    importlib.import_module("gridstorm.cli")   # the tracer patches every traced module
    grid = grid_case("plain")
    rng = np.random.default_rng(6)
    attacks = [None, random_attack(grid, 20, rng), random_attack(grid, 40, rng)]
    tracer = tracer_module.Tracer()
    with tracer.installed():
        traces = simulate_many(grid, attacks, horizon=100)
    rows, records = len(attacks) * grid.n_generators, 101
    assert [tr.n_steps for tr in traces] == [records] * len(attacks)
    assert tracer.counters["kernels.step_loop.gen_steps"] == rows * records
    assert tracer.counters["kernels.step_loop.truncated"] == 0
    assert tracer.summary()["kernels.step_loop"]["calls"] == 1
