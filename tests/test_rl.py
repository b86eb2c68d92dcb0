import numpy as np
import pytest

from gridstorm.model import SafetyEnvelope, load_grid_config
from gridstorm.numerics import RngStream
from gridstorm.rl import (MLP, Adam, EpisodeConfig, GridEnv, ReplayBuffer,
                          RewardWeights, TrainConfig, ddpg_train, load_weights,
                          replay_schedule, reward, rollout_policy, save_weights,
                          soft_update)
from gridstorm.sim import AttackVector, FalseDataSchedule, simulate

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


def test_reward_product_variant():
    w = RewardWeights(w1=0.0, w2=1.0, w3=0.0)
    val = reward([61.0, 61.0, 60.0], [0.0] * 3, [0.0] * 3, w, ENV_BOUNDS,
                 [0.1] * 3, variant="product")
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
        grads, _ = net.backward(cache, w_out)
        flat = [(pi, idx) for pi, p in enumerate(net.params)
                for idx in range(p.size)]
        probes = nprng.choice(len(flat), size=100, replace=False)
        eps = 1e-6
        for probe in probes:
            pi, idx = flat[probe]
            p = net.params[pi]
            orig = p.flat[idx]
            p.flat[idx] = orig + eps
            up = loss()
            p.flat[idx] = orig - eps
            down = loss()
            p.flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[pi].flat[idx]
            denom = max(abs(analytic) + abs(numeric), 1e-8)
            assert abs(analytic - numeric) / denom <= 1e-4


def test_gradient_check_input_gradient():
    rng = RngStream(12, 0)
    net = MLP([4, 8, 8, 2], out_squash="tanh", rng=rng)
    nprng = np.random.default_rng(8)
    x = nprng.normal(size=(1, 4))
    w_out = nprng.normal(size=(1, 2))
    _, cache = net.forward(x, with_cache=True)
    _, dx = net.backward(cache, w_out)
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
    params = [rng.normal(size=(5,))]
    opt = Adam(params, lr=0.05)
    for _ in range(300):
        opt.step(params, [2.0 * params[0]])  # grad of sum(p^2)
    assert np.max(np.abs(params[0])) < 1e-2


# ---------------------------------------------------------------------------
# replay buffer


def test_buffer_capacity_and_wraparound():
    buf = ReplayBuffer(8, 3, 2)
    for i in range(20):
        buf.add(np.full(3, i), np.zeros(2), float(i), np.zeros(3), False)
    assert len(buf) == 8
    assert set(buf.rew.tolist()) == set(range(12, 20))


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


def test_env_reset_uniform_init_readback():
    grid = make_plain_grid(n=1, thresholds=[0.05], m=2)
    cfg = EpisodeConfig(steps_per_episode=10, episodes=1,
                        init={"type": "uniform",
                              "low": [-0.1, 0.0, 0.0, 0.0],
                              "high": [0.1, 0.0, 0.0, 0.0]})
    env = GridEnv(grid, cfg)
    obs1 = env.reset(RngStream(3, 0))
    obs2 = env.reset(RngStream(3, 0))
    assert np.array_equal(obs1, obs2)
    assert obs1[0] != 60.0  # sampled rotor-speed deviation is visible


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


def test_env_action_repeat():
    grid = make_plain_grid(n=1, thresholds=[0.05], m=2)
    env = GridEnv(grid, EpisodeConfig(steps_per_episode=5, episodes=1,
                                      action_repeat=3))
    env.reset()
    for _ in range(5):
        env.step(np.array([-1.0, 1.0]))
    sched = env.executed_schedule()
    assert sched.d == 15
    assert np.array_equal(sched.signals[0], sched.signals[1])


@pytest.mark.parametrize("case", ["zero_init", "uniform_init", "feedback_gain"])
def test_env_matches_simulate_over_executed_schedule(case):
    doc = load_config_doc("default_grid.json")
    init = {"type": "zero"}
    if case == "uniform_init":
        init = {"type": "uniform", "low": [-0.02, -0.01, -0.01, -0.01],
                "high": [0.02, 0.01, 0.01, 0.01]}
    if case == "feedback_gain":
        for gen in doc["generators"]:
            gen["gains"] = {"k": [[0.0, 0.0, 0.0, 0.1]]}
    grid = load_grid_config(doc)
    repeat, steps = 3, 12
    env = GridEnv(grid, EpisodeConfig(steps_per_episode=steps, episodes=1,
                                      init=init, action_repeat=repeat))
    env.reset(RngStream(4, 0))
    x0 = env._x.copy()
    states = [(env._x, env._xhat, env._r)]
    actions = RngStream(5, 0).uniform(-1.0, 1.0, size=(steps, grid.n_breakers))
    for act in actions:
        env.step(act)
        states.append((env._x, env._xhat, env._r))

    schedule = env.executed_schedule()
    attack = AttackVector(schedule, FalseDataSchedule(
        np.zeros((grid.n_generators, schedule.d, 2)), np.array([0, 1])))
    tr = simulate(grid, attack, horizon=schedule.d, init=x0)
    assert not tr.truncated
    for j, (x, xhat, r) in enumerate(states):
        assert np.array_equal(x, tr.x[:, j * repeat]), j
        assert np.array_equal(xhat, tr.xhat[:, j * repeat]), j
        assert np.array_equal(r, tr.residue[:, j * repeat]), j
    if case == "feedback_gain":
        assert np.any(tr.u_believed != 0.0)   # K x_hat reached the estimator


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


def test_best_schedule_replay_reproduces_reward():
    env = toy_env(episodes=8, steps=40)
    art = ddpg_train(env, TrainConfig(), RngStream(6, 0))
    env2 = toy_env(episodes=8, steps=40)
    replayed = replay_schedule(env2, art.best_schedule)
    assert replayed == pytest.approx(art.best_reward, abs=1e-9)


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
        obs = env.reset(rng)
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
    opt = Adam(critic.params, 1e-2)
    inputs = np.concatenate([z, acts], axis=1)
    for _ in range(400):
        q, cache = critic.forward(inputs, with_cache=True)
        err = q[:, 0] - rews
        grads, _ = critic.backward(cache, (2.0 / len(rews)) * err[:, None])
        opt.step(critic.params, grads)
    mse = float(np.mean((critic.forward(inputs)[:, 0] - rews) ** 2))
    mse_zero = float(np.mean(rews ** 2))
    assert mse < mse_zero


# ---------------------------------------------------------------------------
# serialization


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


def test_weights_reject_garbage(tmp_path):
    path = tmp_path / "bad.gsrl"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        load_weights(path)
