import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

import gridstorm.rl
from gridstorm.kernels import step_block
from gridstorm.model import NOMINAL_HZ, SafetyEnvelope, load_grid_config
from gridstorm.numerics import RngStream
from gridstorm.rl import (MLP, Adam, EpisodeConfig, GridEnv, ReplayBuffer,
                          RewardWeights, TrainConfig, ddpg_train, reward, save_weights,
                          soft_update)
from gridstorm.sim import (TWO_PI, AttackVector, BreakerSchedule, FalseDataSchedule,
                           residue_norm, simulate)

from conftest import load_config_doc, make_plain_grid

ENV_BOUNDS = SafetyEnvelope(f_lo=59.5, f_hi=60.5, pe_lo=-0.1, pe_hi=0.1)


# ---------------------------------------------------------------------------
# reward


def test_reward_all_safe_all_stealthy():
    w = RewardWeights(w1=1.0, w2=1.0, w3=0.25)
    val = reward([60.0] * 3, [0.0] * 3, [0.0] * 3, w, ENV_BOUNDS, [0.1] * 3)
    assert val == pytest.approx(0.75)


def test_reward_all_unsafe_f_stealthy():
    w = RewardWeights(w1=0.0, w2=1.0, w3=0.0)
    val = reward([61.0] * 3, [0.0] * 3, [0.0] * 3, w, ENV_BOUNDS, [0.1] * 3)
    assert val == pytest.approx(3.0)


def test_reward_detected_earns_nothing():
    w = RewardWeights(w1=1.0, w2=1.0, w3=0.25)
    val = reward([61.0] * 3, [0.5] * 3, [5.0] * 3, w, ENV_BOUNDS, [0.1] * 3)
    assert val == 0.0


def test_reward_power_term_is_product_of_sums():
    w = RewardWeights(w1=1.0, w2=0.0, w3=0.0)
    # two generators power-unsafe, three stealthy -> 2 * 3
    val = reward([60.0] * 3, [0.0] * 3, [0.2, 0.2, 0.0], w, ENV_BOUNDS, [0.1] * 3)
    assert val == pytest.approx(6.0)


def test_reward_bounds_property():
    rng = np.random.default_rng(5)
    w = RewardWeights(w1=1.3, w2=0.7, w3=0.2)
    n = 4
    upper = w.w1 * n * n + (w.w2 + w.w3) * n
    for _ in range(500):
        f = rng.uniform(58, 62, n)
        r = rng.uniform(0, 0.3, n)
        pe = rng.uniform(-0.5, 0.5, n)
        val = reward(f, r, pe, w, ENV_BOUNDS, [0.1] * n)
        assert 0.0 <= val <= upper + 1e-12


def test_reward_length_mismatch():
    with pytest.raises(ValueError):
        reward([60.0], [0.0, 0.0], [0.0], RewardWeights(), ENV_BOUNDS, [0.1])


def reference_reward(f_hz, r_inf, p_e, weights, envelope, thresholds):
    """reward in its numpy formulation, on arrays."""
    f, r, pe = (np.asarray(v, dtype=float) for v in (f_hz, r_inf, p_e))
    stealth = (r <= np.asarray(thresholds, dtype=float)).astype(float)
    unsafe_pe = ((pe < envelope.pe_lo) | (pe > envelope.pe_hi)).astype(float)
    unsafe_f = ((f < envelope.f_lo) | (f > envelope.f_hi)).astype(float)
    term1 = weights.w1 * unsafe_pe.sum() * stealth.sum()
    term2 = weights.w2 * float((unsafe_f * stealth).sum())
    term3 = weights.w3 * stealth.sum()
    return float(term1 + term2 + term3)


# w1 * n_pe * n_stealth takes other bits in another product order: at
# counts (3, 3) for (w1 n_pe) n_stealth against w1 (n_pe n_stealth), and at
# (3, 5) for (w1 n_pe) n_stealth against (w1 n_stealth) n_pe
ODD_WEIGHTS = RewardWeights(w1=0.1, w2=0.7, w3=0.3)


def test_reward_matches_its_numpy_formulation_on_lists_and_arrays():
    rng = np.random.default_rng(12)
    th = np.array([0.1, 0.2, 0.05, 0.1, 0.15, 0.1])
    n = len(th)
    for _ in range(400):
        f = rng.uniform(59.0, 61.0, n)
        r = rng.uniform(0.0, 0.3, n)
        pe = rng.uniform(-0.3, 0.3, n)
        r[rng.random(n) < 0.2] = th[0]          # r == Th is stealthy
        f[rng.random(n) < 0.1] = np.nan
        r[rng.random(n) < 0.1] = np.nan         # never stealthy
        pe[rng.random(n) < 0.1] = np.nan        # never outside the envelope
        want = reference_reward(f, r, pe, ODD_WEIGHTS, ENV_BOUNDS, th)
        for args in ((f, r, pe, th), [v.tolist() for v in (f, r, pe, th)]):
            got = reward(*args[:3], ODD_WEIGHTS, ENV_BOUNDS, args[3])
            assert type(got) is float and got == want


@pytest.mark.parametrize("n_pe, n_stealth", [(3, 3), (3, 5), (5, 3), (2, 6)])
def test_reward_keeps_the_product_order(n_pe, n_stealth):
    w = RewardWeights(w1=ODD_WEIGHTS.w1, w2=0.0, w3=0.0)   # no sum to round a bit away
    n = 6
    r = [0.0] * n_stealth + [1.0] * (n - n_stealth)
    pe = [0.2] * n_pe + [0.0] * (n - n_pe)
    got = reward([60.0] * n, r, pe, w, ENV_BOUNDS, [0.1] * n)
    want = reference_reward([60.0] * n, r, pe, w, ENV_BOUNDS, [0.1] * n)
    assert got == want == w.w1 * n_pe * n_stealth


def test_reward_edges():
    w = RewardWeights(w1=1.0, w2=1.0, w3=0.25)
    # r == Th counts as stealthy; an unsafe NaN frequency does not count
    assert reward([60.0], [0.1], [0.0], w, ENV_BOUNDS, [0.1]) == 0.25
    assert reward([np.nan], [0.0], [0.0], w, ENV_BOUNDS, [0.1]) == 0.25
    assert reward([61.0], [np.nan], [0.2], w, ENV_BOUNDS, [0.1]) == 0.0
    assert reward([61.0], [np.inf], [0.2], w, ENV_BOUNDS, [0.1]) == 0.0


def test_weights_invariants():
    with pytest.raises(ValueError):
        RewardWeights(w1=-1.0)
    with pytest.raises(ValueError):
        RewardWeights(w1=0.0, w2=0.0, w3=0.0)


# ---------------------------------------------------------------------------
# approximators


def test_gradient_check_actor_and_critic():
    """Analytic backprop vs central finite differences, 100 random probes."""
    rng = RngStream(11, 0)
    nprng = np.random.default_rng(4)
    for squash, sizes in (("tanh", [6, 16, 16, 3]), (None, [9, 16, 16, 1])):
        net = MLP(sizes, out_squash=squash, rng=rng)
        x = nprng.normal(size=(5, sizes[0]))
        w_out = nprng.normal(size=(5, sizes[-1]))

        def loss():
            return float(np.sum(net.forward(x) * w_out))

        out, cache = net.forward(x, with_cache=True)
        net.backward(cache, w_out)
        probes = nprng.choice(net.flat.size, size=100, replace=False)
        eps = 1e-6
        for idx in probes:
            orig = net.flat[idx]
            net.flat[idx] = orig + eps
            up = loss()
            net.flat[idx] = orig - eps
            down = loss()
            net.flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            analytic = net.grad[idx]
            denom = max(abs(analytic) + abs(numeric), 1e-8)
            assert abs(analytic - numeric) / denom <= 1e-4


def test_gradient_check_input_gradient():
    rng = RngStream(12, 0)
    net = MLP([4, 8, 8, 2], out_squash="tanh", rng=rng)
    nprng = np.random.default_rng(8)
    x = nprng.normal(size=(1, 4))
    w_out = nprng.normal(size=(1, 2))
    _, cache = net.forward(x, with_cache=True)
    dx = net.backward(cache, w_out, input_grad=True)
    assert not np.any(net.grad)   # the parameter gradients were skipped
    eps = 1e-6
    for idx in range(4):
        xp = x.copy()
        xp[0, idx] += eps
        xm = x.copy()
        xm[0, idx] -= eps
        numeric = (np.sum(net.forward(xp) * w_out)
                   - np.sum(net.forward(xm) * w_out)) / (2 * eps)
        denom = max(abs(dx[0, idx]) + abs(numeric), 1e-8)
        assert abs(dx[0, idx] - numeric) / denom <= 1e-4


def test_soft_update_tau_one_is_hard_copy():
    rng = RngStream(13, 0)
    src = MLP([3, 8, 8, 2], rng=rng)
    dst = MLP([3, 8, 8, 2], rng=rng)
    soft_update(dst, src, tau=1.0)
    for t, s in zip(dst.params, src.params):
        assert np.array_equal(t, s)


def test_soft_update_blends():
    rng = RngStream(14, 0)
    src = MLP([3, 4, 4, 1], rng=rng)
    dst = src.copy()
    before = [p.copy() for p in dst.params]
    for p in src.params:
        p += 1.0
    soft_update(dst, src, tau=0.1)
    for t, b, s in zip(dst.params, before, src.params):
        assert np.allclose(t, 0.9 * b + 0.1 * s)


def test_adam_reduces_quadratic():
    rng = RngStream(15, 0)
    params = rng.normal(size=(5,))
    opt = Adam(params, lr=0.05)
    for _ in range(300):
        opt.step(params, 2.0 * params)  # grad of sum(p^2)
    assert np.max(np.abs(params)) < 1e-2


def test_mlp_params_are_views_of_flat():
    net = MLP([5, 7, 6, 2], out_squash="tanh", rng=RngStream(16, 0))
    assert [p.shape for p in net.params] == [(5, 7), (7,), (7, 6), (6,), (6, 2), (2,)]
    assert net.flat.size == net.grad.size == sum(p.size for p in net.params)
    for p, g in zip(net.params, net.grads):
        assert np.shares_memory(p, net.flat) and np.shares_memory(g, net.grad)
        assert p.flags.c_contiguous and g.shape == p.shape
    assert np.array_equal(np.concatenate([p.ravel() for p in net.params]), net.flat)
    dup = net.copy()
    assert not np.shares_memory(dup.flat, net.flat)
    assert not np.shares_memory(dup.grad, net.grad)
    assert np.array_equal(dup.flat, net.flat)
    net.flat += 1.0
    assert not np.array_equal(dup.flat, net.flat)


def test_mlp_init_draws_weights_layer_by_layer():
    """Weights are drawn w1, w2, w3 in turn, U(-1/sqrt(fan_in), ..); biases 0."""
    sizes = [5, 7, 6, 2]
    net = MLP(sizes, rng=RngStream(17, 0))
    rng = RngStream(17, 0)
    for (fan_in, fan_out), w, b in zip(zip(sizes[:-1], sizes[1:]),
                                       net.params[::2], net.params[1::2]):
        bound = 1.0 / np.sqrt(fan_in)
        assert np.array_equal(w, rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        assert not np.any(b)


# Per-array references: the list-based updates the flat ones replace, and
# the allocating forward pass the work arrays replace.


def reference_forward(net, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    w1, b1, w2, b2, w3, b3 = net.params
    z1 = x @ w1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2 + b2
    h2 = np.maximum(z2, 0.0)
    z3 = h2 @ w3 + b3
    out = np.tanh(z3) if net.out_squash == "tanh" else z3
    return out, (x, z1, h1, z2, h2, z3, out)


def reference_backward(net, cache, dout):
    x, z1, h1, z2, h2, z3, out = cache
    w1, b1, w2, b2, w3, b3 = net.params
    dz3 = dout * (1.0 - out * out) if net.out_squash == "tanh" else dout
    dw3 = h2.T @ dz3
    db3 = dz3.sum(axis=0)
    dz2 = (dz3 @ w3.T) * (z2 > 0.0)
    dw2 = h1.T @ dz2
    db2 = dz2.sum(axis=0)
    dz1 = (dz2 @ w2.T) * (z1 > 0.0)
    dw1 = x.T @ dz1
    db1 = dz1.sum(axis=0)
    return [dw1, db1, dw2, db2, dw3, db3], dz1 @ w1.T


class ReferenceAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def reference_soft_update(target, source, tau):
    for t, s in zip(target.params, source.params):
        t *= 1.0 - tau
        t += tau * s


@pytest.mark.parametrize("squash, sizes", [("tanh", [7, 16, 16, 3]), (None, [10, 16, 16, 1])])
def test_flat_updates_bitwise_equal_per_array_references(squash, sizes):
    net = MLP(sizes, out_squash=squash, rng=RngStream(18, 0))
    ref = net.copy()
    target, ref_target = net.copy(), net.copy()
    opt, ref_opt = Adam(net.flat, 1e-2), ReferenceAdam(ref.params, 1e-2)
    nprng = np.random.default_rng(19)
    for _ in range(40):
        x = nprng.normal(size=(8, sizes[0]))
        dout = nprng.normal(size=(8, sizes[-1]))
        _, cache = net.forward(x, with_cache=True)
        _, ref_cache = reference_forward(ref, x)
        net.backward(cache, dout)
        dx = net.backward(cache, dout, input_grad=True)
        ref_grads, ref_dx = reference_backward(ref, ref_cache, dout)
        assert all(np.array_equal(g, r) for g, r in zip(net.grads, ref_grads))
        assert np.array_equal(dx, ref_dx)
        opt.step(net.flat, net.grad)
        ref_opt.step(ref.params, ref_grads)
        assert np.array_equal(net.flat, ref.flat)
        soft_update(target, net, 0.05)
        reference_soft_update(ref_target, ref, 0.05)
        assert np.array_equal(target.flat, ref_target.flat)
    assert np.array_equal(opt.m, np.concatenate([m.ravel() for m in ref_opt.m]))
    assert np.array_equal(opt.v, np.concatenate([v.ravel() for v in ref_opt.v]))


def test_forward_reuses_its_work_arrays_per_batch_size():
    net = MLP([4, 8, 8, 2], out_squash="tanh", rng=RngStream(20, 0))
    x = np.random.default_rng(20).normal(size=(5, 4))
    out = net.forward(x)
    assert np.array_equal(out, reference_forward(net, x)[0])
    assert net.forward(x + 1.0) is out   # the next pass of 5 rows overwrites it
    assert not np.shares_memory(net.forward(x[:1]), out)


# ---------------------------------------------------------------------------
# replay buffer


def test_buffer_capacity_and_wraparound():
    buf = ReplayBuffer(8, 3, 2)
    for i in range(20):
        buf.add(np.full(3, i), np.zeros(2), float(i), np.zeros(3), False)
    assert len(buf) == 8
    assert set(buf.rew.tolist()) == set(range(12, 20))


def test_training_buffer_smaller_than_the_run_wraps(monkeypatch):
    buffers = []

    class Recorded(ReplayBuffer):
        def __init__(self, *args):
            super().__init__(*args)
            self.added = []
            buffers.append(self)

        def add(self, obs, act, rew, nxt, done):
            super().add(obs, act, rew, nxt, done)
            self.added.append(rew)
    monkeypatch.setattr(gridstorm.rl, "ReplayBuffer", Recorded)
    # 3 episodes of 20 steps store 60 transitions in a 16-row ring
    cfg = TrainConfig(hidden=(8, 8), batch_size=8, buffer_capacity=16)
    ddpg_train(toy_env(episodes=3, steps=20), cfg, RngStream(1, 0))
    (buf,) = buffers
    assert (buf.capacity, len(buf), len(buf.added)) == (16, 16, 60)
    ring = np.zeros(16)
    for i, rew in enumerate(buf.added):
        ring[i % 16] = rew
    assert np.array_equal(buf.rew, ring)


@pytest.mark.parametrize("capacity, rows", [(100_000, 60), (60, 60), (59, 59)])
def test_training_ring_is_sized_to_the_run(monkeypatch, capacity, rows):
    buffers = []

    class Recorded(ReplayBuffer):
        def __init__(self, *args):
            super().__init__(*args)
            buffers.append(self)
    monkeypatch.setattr(gridstorm.rl, "ReplayBuffer", Recorded)
    cfg = TrainConfig(hidden=(8, 8), batch_size=8, buffer_capacity=capacity)
    ddpg_train(toy_env(episodes=3, steps=20), cfg, RngStream(1, 0))
    (buf,) = buffers
    assert buf.capacity == len(buf.rows) == len(buf) == rows


def test_buffer_columns_view_one_row_array():
    buf = ReplayBuffer(4, 3, 2)
    buf.add(np.arange(3.0), [10.0, 11.0], 20.0, np.arange(30.0, 33.0), True)
    assert np.array_equal(buf.rows[0], [0, 1, 2, 10, 11, 20, 30, 31, 32, 1])
    for col in (buf.obs, buf.act, buf.rew, buf.nxt, buf.done):
        assert np.shares_memory(col, buf.rows)
    obs, act, rew, nxt, done = buf.sample(1, RngStream(2, 0))
    assert (obs.tolist(), act.tolist(), rew.tolist(), nxt.tolist(), done.tolist()) == (
        [[0, 1, 2]], [[10, 11]], [20], [[30, 31, 32]], [1])


def test_buffer_sample_unique_in_batch():
    buf = ReplayBuffer(100, 2, 1)
    for i in range(50):
        buf.add(np.full(2, i), np.zeros(1), float(i), np.zeros(2), False)
    rng = RngStream(1, 0)
    for _ in range(50):
        obs, act, rew, nxt, done = buf.sample(32, rng)
        assert len(set(rew.tolist())) == 32  # rewards are distinct markers
        assert np.all(rew < 50)


# ---------------------------------------------------------------------------
# environment


def toy_env(episodes=5, steps=50, **grid_kw):
    grid = make_plain_grid(n=1, thresholds=[0.05], mcol=0.3, m=2, **grid_kw)
    return GridEnv(grid, EpisodeConfig(steps_per_episode=steps, episodes=episodes))


def test_env_reset_equilibrium_observation():
    env = toy_env()
    obs = env.reset()
    n, m = 1, 2
    assert obs.shape == (3 * n + m,)
    assert obs[0] == 60.0      # frequency
    assert obs[1] == 0.0       # residue
    assert obs[2] == 0.0       # power deviation
    assert np.all(obs[3:] == 0.0)


def test_env_nominal_action_earns_stealth_reward():
    env = toy_env()
    env.reset()
    # both breakers stay closed: b_nom is all-ones, so any positive action
    obs, rew, done = env.step(np.array([0.5, 0.5]))
    assert rew == pytest.approx(0.25)  # w3 * n with defaults
    assert not done


def test_env_episode_bookkeeping():
    env = toy_env(steps=7)
    env.reset()
    done = False
    count = 0
    while not done:
        _, _, done = env.step(np.array([1.0, 1.0]))
        count += 1
    assert count == 7
    with pytest.raises(RuntimeError):
        env.step(np.array([1.0, 1.0]))


def test_env_aggressive_action_loses_stealth():
    grid = make_plain_grid(n=1, thresholds=[4.5e-4], mcol=0.3, m=2)
    env = GridEnv(grid, EpisodeConfig(steps_per_episode=400, episodes=1))
    env.reset()
    rewards = []
    for _ in range(400):
        _, rew, done = env.step(np.array([-1.0, -1.0]))  # open both breakers
        rewards.append(rew)
        if done:
            break
    # stealth term eventually dies once the residue crosses the threshold
    assert rewards[-1] == 0.0
    assert rewards[0] > 0.0


class ReferenceEnv(GridEnv):
    """GridEnv with step in its numpy formulation: np.clip, the load map's
    offsets on every step, np.concatenate and the array reward.  A step
    whose x, x_hat or r is non-finite ends the episode and earns 0."""

    def reset(self):
        super().reset()
        self.ref_offset, self.ref_action = np.zeros(self.n), np.zeros(self.m)
        return self.ref_observation()

    def ref_observation(self):
        f = NOMINAL_HZ + self._x[:, 0] / TWO_PI
        pe = self.ref_offset + self.grid.droop * self._x[:, 0]
        return np.concatenate([f, residue_norm(self._r), pe, self.ref_action])

    def step(self, action):
        action = np.clip(np.asarray(action, dtype=float), -1.0, 1.0)
        self.ref_offset = self.grid.load_map.offsets((action > 0.0).astype(float))
        sched = self._sched[self._step]
        np.add(sched, self.ref_offset, out=self._u_act)
        self._u_bel[...] = sched
        self._z0[...] = self._z1
        self._yr0[...] = self._yr1
        step_block(*self._block)
        self.ref_action = action
        self._step += 1
        blown = not all(np.all(np.isfinite(arr)) for arr in (self._x, self._xhat, self._r))
        obs = self.ref_observation()
        n = self.n
        rew = 0.0 if blown else reference_reward(obs[:n], obs[n:2 * n], obs[2 * n:3 * n],
                                                 self.weights, self.grid.envelope,
                                                 self.grid.thresholds)
        return obs, rew, blown or self._step >= self.cfg.steps_per_episode


def env_case_grid(case, default_grid):
    if case == "default":
        return default_grid
    if case == "lqr":
        doc = load_config_doc("default_grid.json")
        for gen in doc["generators"]:
            gen["gains"] = {"lqr": {"q": 1, "r": 1}}
        return load_grid_config(doc)
    # A - L C expands, so the estimate and r_inf grow until they are
    # non-finite while the plant stays finite
    grid = make_plain_grid(n=5, m=3, mcol=0.3)
    return dataclasses.replace(grid, l=300.0 * grid.l)


@pytest.mark.parametrize("case", ["default", "lqr", "expanding_estimator"])
def test_env_step_keeps_the_bits_of_its_numpy_formulation(default_grid, case):
    grid = env_case_grid(case, default_grid)
    steps, episodes = 160, 2
    rng = np.random.default_rng(4)
    actions = rng.normal(scale=1.5, size=(episodes * steps, grid.n_breakers))
    actions[rng.random(actions.shape) < 0.1] = 0.0
    actions[rng.random(actions.shape) < 0.05] = -0.0
    actions[rng.random(actions.shape) < 0.05] = np.nan
    assert np.any(np.abs(actions) > 1.0)
    envs = [cls(grid, EpisodeConfig(steps_per_episode=steps, episodes=episodes), ODD_WEIGHTS)
            for cls in (GridEnv, ReferenceEnv)]
    r_finite, lengths = set(), []
    with np.errstate(all="ignore"):
        for episode in np.split(actions, episodes):
            got, want = (env.reset() for env in envs)
            assert got.tobytes() == want.tobytes()
            for t, action in enumerate(episode, 1):
                got, want = (env.step(action.copy()) for env in envs)
                assert got[0].dtype == want[0].dtype
                assert got[0].tobytes() == want[0].tobytes()
                assert type(got[1]) is float and got[1] == want[1]
                assert got[2] == want[2]
                r_finite.update(np.isfinite(got[0][grid.n_generators:2 * grid.n_generators]))
                if got[2]:
                    break
            lengths.append(t)
    if case == "expanding_estimator":   # each episode ends where r_inf first goes non-finite
        assert r_finite == {True, False} and max(lengths) < steps
    else:
        assert r_finite == {True} and lengths == [steps] * episodes


def test_env_observation_reads_the_detector_statistic():
    """r_inf is residue_norm of the residue record, so a NaN in either
    output makes it NaN; the dynamics alone make both NaN at once."""
    env = GridEnv(make_plain_grid(n=4), EpisodeConfig())
    env.reset()
    env._r[...] = [[1.0, np.nan], [np.nan, 1.0], [np.inf, np.nan], [-2.0, -0.0]]
    _, r_inf, _ = env._observation([0.0] * 4)
    assert np.array(r_inf).tobytes() == residue_norm(env._r).tobytes()


@pytest.mark.parametrize("case", ["zero_init", "feedback_gain", "lqr", "schedule",
                                  "expanding_estimator"])
def test_env_matches_simulate_over_executed_schedule(case):
    """The env steps simulate's records.  Where a record goes non-finite,
    the env ends its episode at the step whose record simulate's trace
    of the executed schedule is truncated before."""
    doc = load_config_doc("default_grid.json")
    # five columns, shorter than the 36-step episode: both hold the last one
    sched = np.array([[0.01, -0.02, 0.015, 0.005, -0.01],
                      [0.0, 0.01, 0.02, -0.01, 0.03],
                      [-0.015, 0.0, 0.005, 0.01, 0.02]])
    if case == "schedule":
        doc["scheduled_load"] = sched.tolist()
    gains = {"feedback_gain": {"k": [[0.0, 0.0, 0.0, 0.1]]},
             "lqr": {"lqr": {"q": 1, "r": 1}}}.get(case)
    if gains:
        for gen in doc["generators"]:
            gen["gains"] = gains
    grid, steps = load_grid_config(doc), 36
    if case == "expanding_estimator":
        grid, steps = env_case_grid(case, None), 400
    env = GridEnv(grid, EpisodeConfig(steps_per_episode=steps, episodes=1))
    env.reset()
    states = [(env._x.copy(), env._xhat.copy(), env._r.copy())]
    observations = []
    actions = RngStream(5, 0).uniform(-1.0, 1.0, size=(steps, grid.n_breakers))
    with np.errstate(all="ignore"):
        for act in actions:
            obs, _, done = env.step(act)
            observations.append(obs)
            states.append((env._x.copy(), env._xhat.copy(), env._r.copy()))
            if done:
                break

    schedule = env.executed_schedule()
    attack = AttackVector(schedule, FalseDataSchedule(
        np.zeros((grid.n_generators, schedule.d, 2)), np.array([0, 1])))
    tr = simulate(grid, attack, horizon=schedule.d)
    if case == "expanding_estimator":
        assert tr.truncated and tr.n_steps == len(observations) < steps
    else:
        assert not tr.truncated and len(observations) == steps
    for j, (x, xhat, r) in enumerate(states[:tr.n_steps]):
        assert np.array_equal(x, tr.x[:, j]), j
        assert np.array_equal(xhat, tr.xhat[:, j]), j
        assert np.array_equal(r, tr.residue[:, j]), j
    # observed p_e: the last command's load offset plus droop times d_omega
    n = grid.n_generators
    droop = grid.droop
    offsets = grid.load_map.matrix @ (schedule.signals - grid.load_map.b_nom).T
    for j, obs in enumerate(observations[:tr.n_steps - 1], 1):
        want = offsets[:, j - 1] + droop * tr.x[:, j, 0]
        assert np.array_equal(obs[2 * n:3 * n], want), j
    # K x_hat reaches plant and estimator alike: their inputs differ by the offset
    d = schedule.d
    assert np.allclose(tr.u_actual[:, :d] - tr.u_believed[:, :d], offsets,
                       rtol=0.0, atol=1e-12)
    if gains:
        assert np.any(tr.u_believed != 0.0)
    if case == "schedule":
        assert np.array_equal(tr.u_believed[:, :5], sched)
        assert np.all(tr.u_believed[:, 5:] == sched[:, -1:])


# ---------------------------------------------------------------------------
# training


def test_training_deterministic_and_improving():
    env1 = toy_env(episodes=12, steps=40)
    art1 = ddpg_train(env1, TrainConfig(), RngStream(5, 0))
    env2 = toy_env(episodes=12, steps=40)
    art2 = ddpg_train(env2, TrainConfig(), RngStream(5, 0))
    assert np.array_equal(art1.reward_curve, art2.reward_curve)
    assert art1.best_episode == art2.best_episode
    assert np.array_equal(art1.best_schedule.signals, art2.best_schedule.signals)
    assert len(art1.reward_curve) == 12


class ReferenceReplayBuffer:
    """The five-array ring of raw observations that the row ring replaces."""

    def __init__(self, capacity, obs_dim, act_dim):
        self.capacity = int(capacity)
        self.obs = np.zeros((capacity, obs_dim))
        self.act = np.zeros((capacity, act_dim))
        self.rew = np.zeros(capacity)
        self.nxt = np.zeros((capacity, obs_dim))
        self.done = np.zeros(capacity)
        self.size = self.idx = 0

    def add(self, obs, act, rew, nxt, done):
        i = self.idx
        self.obs[i], self.act[i], self.rew[i] = obs, act, rew
        self.nxt[i], self.done[i] = nxt, float(done)
        self.idx = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch, rng):
        idx = rng.choice(self.size, size=batch, replace=False)
        return (self.obs[idx], self.act[idx], self.rew[idx],
                self.nxt[idx], self.done[idx])


def reference_update(env, nets, opts, buffer, cfg, rng):
    actor, critic, actor_t, critic_t = nets
    obs, act, rew, nxt, done = buffer.sample(cfg.batch_size, rng)
    z, zn = env.normalize(obs), env.normalize(nxt)
    an, _ = reference_forward(actor_t, zn)
    qn = reference_forward(critic_t, np.concatenate([zn, an], axis=1))[0][:, 0]
    target = rew + cfg.gamma * (1.0 - done) * qn
    q, cache_c = reference_forward(critic, np.concatenate([z, act], axis=1))
    dq = (2.0 / cfg.batch_size) * (q[:, 0] - target)[:, None]
    grads, _ = reference_backward(critic, cache_c, dq)
    opts[1].step(critic.params, grads)
    a_pi, cache_a = reference_forward(actor, z)
    q_pi, cache_q = reference_forward(critic, np.concatenate([z, a_pi], axis=1))
    _, dinput = reference_backward(critic, cache_q, np.full_like(q_pi, -1.0 / cfg.batch_size))
    grads, _ = reference_backward(actor, cache_a, dinput[:, env.obs_dim:])
    opts[0].step(actor.params, grads)
    reference_soft_update(actor_t, actor, cfg.tau)
    reference_soft_update(critic_t, critic, cfg.tau)


def reference_ddpg_train(env, cfg, rng):
    """ddpg_train from the allocating references: the nets, the optimizers'
    moments, the reward curve and each episode's executed schedule."""
    h1, h2 = cfg.hidden
    actor = MLP([env.obs_dim, h1, h2, env.act_dim], out_squash="tanh", rng=rng)
    critic = MLP([env.obs_dim + env.act_dim, h1, h2, 1], rng=rng)
    nets = (actor, critic, actor.copy(), critic.copy())
    opts = (ReferenceAdam(actor.params, cfg.actor_lr), ReferenceAdam(critic.params, cfg.critic_lr))
    buffer = ReferenceReplayBuffer(cfg.buffer_capacity, env.obs_dim, env.act_dim)
    curve, schedules, sigma = [], [], cfg.noise_sigma
    for _ in range(env.cfg.episodes):
        obs, total, done = env.reset(), 0.0, False
        while not done:
            act = reference_forward(actor, env.normalize(obs))[0][0]
            act = np.clip(act + rng.normal(scale=sigma, size=env.act_dim), -1.0, 1.0)
            nxt, rew, done = env.step(act)
            buffer.add(obs, act, rew, nxt, done)
            total += rew
            obs = nxt
            if buffer.size >= cfg.batch_size:
                reference_update(env, nets, opts, buffer, cfg, rng)
        curve.append(total)
        schedules.append(env.executed_schedule().signals)
        sigma *= cfg.noise_decay
    return nets, opts, np.array(curve), schedules


@pytest.mark.parametrize("case", ["toy_wrapping_ring", "default_grid"])
def test_training_bitwise_equal_allocating_references(monkeypatch, default_grid, case):
    made = []

    def recorded(cls):
        class Recorded(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)
        return Recorded
    monkeypatch.setattr(gridstorm.rl, "MLP", recorded(MLP))
    monkeypatch.setattr(gridstorm.rl, "Adam", recorded(Adam))
    if case == "toy_wrapping_ring":   # 60 transitions in a 16-row ring
        def env():
            return toy_env(episodes=3, steps=20)
        cfg = TrainConfig(hidden=(8, 8), batch_size=8, buffer_capacity=16)
    else:                             # 37 updates at batch 64
        def env():
            return GridEnv(default_grid, EpisodeConfig(steps_per_episode=50, episodes=2))
        cfg = TrainConfig()
    art = ddpg_train(env(), cfg, RngStream(9, 0))
    actor, critic, actor_t, critic_t, opt_a, opt_c = made
    nets, opts, curve, schedules = reference_ddpg_train(env(), cfg, RngStream(9, 0))

    def same_bits(a, b):   # unlike ==, tells -0.0 from 0.0
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    assert art.ddpg_updates > 0
    assert actor is art.actor
    for net, ref in zip((actor, critic, actor_t, critic_t), nets):
        assert same_bits(net.flat, ref.flat)
    for opt, ref in zip((opt_a, opt_c), opts):
        assert same_bits(opt.m, np.concatenate([m.ravel() for m in ref.m]))
        assert same_bits(opt.v, np.concatenate([v.ravel() for v in ref.v]))
    assert same_bits(art.reward_curve, curve)
    assert art.best_episode == np.argmax(curve)
    assert np.array_equal(art.best_schedule.signals, schedules[art.best_episode])


def test_update_allocates_little_once_warm(monkeypatch, default_grid):
    """Below glibc's 128 KiB trim threshold, so the heap is not handed back
    and faulted in again between updates."""
    peaks = []
    update = gridstorm.rl._update

    def traced(*args):
        tracemalloc.start()
        try:
            update(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    monkeypatch.setattr(gridstorm.rl, "_update", traced)
    env = GridEnv(default_grid, EpisodeConfig(steps_per_episode=70, episodes=1))
    ddpg_train(env, TrainConfig(), RngStream(3, 0))
    assert len(peaks) == 7
    assert max(peaks[1:]) <= 128 * 1024, peaks


def replay_schedule(env: GridEnv, schedule: BreakerSchedule):
    """Drive the env with a fixed breaker schedule; returns cumulative reward.

    Actions are +-1 encodings of the breaker bits, so the decode in step()
    reproduces the schedule exactly.
    """
    env.reset()
    total = 0.0
    for bits in schedule.signals:
        _, rew, done = env.step(2.0 * bits - 1.0)
        total += rew
        if done:
            break
    return total


def test_best_schedule_replay_reproduces_reward():
    env = toy_env(episodes=8, steps=40)
    art = ddpg_train(env, TrainConfig(), RngStream(6, 0))
    env2 = toy_env(episodes=8, steps=40)
    replayed = replay_schedule(env2, art.best_schedule)
    assert replayed == pytest.approx(art.best_reward, abs=1e-9)


def rollout_policy(actor: MLP, env: GridEnv, steps: int) -> BreakerSchedule:
    """Deterministic noise-free rollout of the actor for `steps` env steps."""
    obs = env.reset()
    for _ in range(steps):
        act = actor.forward(env.normalize(obs))[0]
        obs, _, done = env.step(act)
        if done:
            break
    return env.executed_schedule()


def test_rollout_policy_deterministic():
    env = toy_env(episodes=4, steps=30)
    art = ddpg_train(env, TrainConfig(), RngStream(7, 0))
    env2 = toy_env(episodes=1, steps=30)
    s1 = rollout_policy(art.actor, env2, 30)
    s2 = rollout_policy(art.actor, env2, 30)
    assert np.array_equal(s1.signals, s2.signals)
    assert s1.d == 30


def test_zero_weight_actor_opens_all_breakers():
    env = toy_env(episodes=1, steps=5)
    actor = MLP([env.obs_dim, 8, 8, env.act_dim], out_squash="tanh")  # zero weights
    sched = rollout_policy(actor, env, 5)
    # tanh(0) = 0, threshold at > 0 maps 0 to open
    assert np.all(sched.signals == 0)


def test_critic_fits_immediate_reward_when_gamma_zero():
    env = toy_env(episodes=6, steps=40)
    rng = RngStream(8, 0)
    # collect transitions with random actions
    obs_list, act_list, rew_list = [], [], []
    for _ in range(env.cfg.episodes):
        obs = env.reset()
        done = False
        while not done:
            act = rng.uniform(-1, 1, size=env.act_dim)
            nxt, rew, done = env.step(act)
            obs_list.append(env.normalize(obs))
            act_list.append(act)
            rew_list.append(rew)
            obs = nxt
    z = np.array(obs_list)
    acts = np.array(act_list)
    rews = np.array(rew_list)
    critic = MLP([env.obs_dim + env.act_dim, 32, 32, 1], rng=rng)
    opt = Adam(critic.flat, 1e-2)
    inputs = np.concatenate([z, acts], axis=1)
    for _ in range(400):
        q, cache = critic.forward(inputs, with_cache=True)
        err = q[:, 0] - rews
        critic.backward(cache, (2.0 / len(rews)) * err[:, None])
        opt.step(critic.flat, critic.grad)
    mse = float(np.mean((critic.forward(inputs)[:, 0] - rews) ** 2))
    mse_zero = float(np.mean(rews ** 2))
    assert mse < mse_zero


# ---------------------------------------------------------------------------
# serialization: save_weights against a reader of the GSRL layout


def header_u32(blob, offset, count=1):
    """count little-endian uint32 of a GSRL header, read at offset."""
    if len(blob) < offset + 4 * count:
        raise ValueError("weights file header is truncated")
    return struct.unpack_from(f"<{count}I", blob, offset)


def load_weights(path, out_squash=None) -> MLP:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != gridstorm.rl.MAGIC:
        raise ValueError("not a GSRL weights file")
    version, = header_u32(blob, 4)
    if version != gridstorm.rl.FORMAT_VERSION:
        raise ValueError(f"unsupported weights format version {version}")
    n_sizes, = header_u32(blob, 8)
    sizes = header_u32(blob, 12, n_sizes)
    off = 12 + 4 * n_sizes
    mlp = MLP(list(sizes), out_squash=out_squash)
    if len(blob) != off + 8 * mlp.flat.size:
        raise ValueError("weights file has trailing or missing bytes")
    mlp.flat[...] = np.frombuffer(blob, dtype="<f8", offset=off)
    return mlp


def test_weights_roundtrip_bit_exact(tmp_path):
    net = MLP([5, 16, 16, 2], out_squash="tanh", rng=RngStream(21, 0))
    path = tmp_path / "actor.gsrl"
    save_weights(path, net)
    loaded = load_weights(path, out_squash="tanh")
    assert loaded.sizes == net.sizes
    for a, b in zip(net.params, loaded.params):
        assert np.array_equal(a, b)
    x = np.ones((1, 5))
    assert np.array_equal(net.forward(x), loaded.forward(x))


def test_weights_file_layout(tmp_path):
    net = MLP([3, 4, 4, 1], rng=RngStream(22, 0))
    path = tmp_path / "w.gsrl"
    save_weights(path, net)
    blob = path.read_bytes()
    assert blob[:4] == b"GSRL"
    assert int.from_bytes(blob[4:8], "little") == 1
    assert int.from_bytes(blob[8:12], "little") == 4
    sizes = [int.from_bytes(blob[12 + 4 * i:16 + 4 * i], "little") for i in range(4)]
    assert sizes == [3, 4, 4, 1]
    n_floats = (3 * 4 + 4) + (4 * 4 + 4) + (4 * 1 + 1)
    assert len(blob) == 12 + 16 + 8 * n_floats


@pytest.mark.parametrize("cut, extra", [(8, b""), (3, b""), (0, b"\x00" * 8), (0, b"\x01")])
def test_weights_reject_trailing_or_missing_bytes(tmp_path, cut, extra):
    path = tmp_path / "w.gsrl"
    save_weights(path, MLP([3, 4, 4, 1], rng=RngStream(23, 0)))
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - cut] + extra)
    with pytest.raises(ValueError, match="trailing or missing bytes"):
        load_weights(path)


@pytest.mark.parametrize("keep", [4, 6, 8, 10, 12, 18, 27])
def test_weights_reject_cut_header(tmp_path, keep):
    # the header is GSRL, the version, the size count and 4 sizes: 28 bytes
    path = tmp_path / "w.gsrl"
    save_weights(path, MLP([3, 4, 4, 1], rng=RngStream(23, 0)))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="header is truncated"):
        load_weights(path)


def test_weights_reject_garbage(tmp_path):
    path = tmp_path / "bad.gsrl"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        load_weights(path)
