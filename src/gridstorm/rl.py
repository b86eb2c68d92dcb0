"""Breaker-schedule synthesis by reinforcement learning.

A small, dependency-free DDPG: two-hidden-layer ReLU approximators with
analytic backpropagation, Adam updates, a ring replay buffer, and soft target
networks.  The environment wraps the grid simulator one step at a time with
false data held at zero; the agent's continuous actions are sign-thresholded
into binary breaker commands.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .kernels import believed_input, closed_loop_step
from .model import GridModel
from .sim import TWO_PI, BreakerSchedule


class TrainingDiverged(RuntimeError):
    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# ---------------------------------------------------------------------------
# Function approximators


class MLP:
    """Two hidden ReLU layers; optional tanh squash on the output."""

    def __init__(self, sizes, out_squash=None, rng=None):
        if len(sizes) != 4:
            raise ValueError("sizes must be [in, hidden1, hidden2, out]")
        self.sizes = list(int(s) for s in sizes)
        self.out_squash = out_squash
        self.params = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            if rng is None:
                w = np.zeros((fan_in, fan_out))
            else:
                w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            self.params.append(w)
            self.params.append(np.zeros(fan_out))

    def forward(self, x, with_cache=False):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        w1, b1, w2, b2, w3, b3 = self.params
        z1 = x @ w1 + b1
        h1 = np.maximum(z1, 0.0)
        z2 = h1 @ w2 + b2
        h2 = np.maximum(z2, 0.0)
        z3 = h2 @ w3 + b3
        out = np.tanh(z3) if self.out_squash == "tanh" else z3
        if not with_cache:
            return out
        return out, (x, z1, h1, z2, h2, z3, out)

    def backward(self, cache, dout):
        """Gradients of sum(dout * out) w.r.t. params and input."""
        x, z1, h1, z2, h2, z3, out = cache
        w1, b1, w2, b2, w3, b3 = self.params
        if self.out_squash == "tanh":
            dz3 = dout * (1.0 - out * out)
        else:
            dz3 = dout
        dw3 = h2.T @ dz3
        db3 = dz3.sum(axis=0)
        dh2 = dz3 @ w3.T
        dz2 = dh2 * (z2 > 0.0)
        dw2 = h1.T @ dz2
        db2 = dz2.sum(axis=0)
        dh1 = dz2 @ w2.T
        dz1 = dh1 * (z1 > 0.0)
        dw1 = x.T @ dz1
        db1 = dz1.sum(axis=0)
        dx = dz1 @ w1.T
        return [dw1, db1, dw2, db2, dw3, db3], dx

    def copy(self):
        dup = MLP(self.sizes, self.out_squash)
        dup.params = [p.copy() for p in self.params]
        return dup


def soft_update(target: MLP, source: MLP, tau):
    """target <- tau*source + (1-tau)*target; tau=1 is an exact hard copy."""
    if tau == 1.0:
        for t, s in zip(target.params, source.params):
            t[...] = s
        return
    for t, s in zip(target.params, source.params):
        t *= 1.0 - tau
        t += tau * s


class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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


# ---------------------------------------------------------------------------
# Replay buffer


class ReplayBuffer:
    def __init__(self, capacity, obs_dim, act_dim):
        self.capacity = int(capacity)
        self.obs = np.zeros((capacity, obs_dim))
        self.act = np.zeros((capacity, act_dim))
        self.rew = np.zeros(capacity)
        self.nxt = np.zeros((capacity, obs_dim))
        self.done = np.zeros(capacity)
        self.size = 0
        self.idx = 0

    def add(self, obs, act, rew, nxt, done):
        i = self.idx
        self.obs[i] = obs
        self.act[i] = act
        self.rew[i] = rew
        self.nxt[i] = nxt
        self.done[i] = float(done)
        self.idx = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch, rng):
        """Uniform without replacement within the batch."""
        idx = rng.choice(self.size, size=batch, replace=False)
        return (self.obs[idx], self.act[idx], self.rew[idx],
                self.nxt[idx], self.done[idx])

    def __len__(self):
        return self.size


# ---------------------------------------------------------------------------
# Reward and environment


@dataclass(frozen=True)
class RewardWeights:
    w1: float = 1.0
    w2: float = 1.0
    w3: float = 0.25

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0 or self.w3 < 0:
            raise ValueError("weights must be non-negative")
        if self.w1 == self.w2 == self.w3 == 0:
            raise ValueError("at least one weight must be positive")


def reward(f_hz, r_inf, p_e, weights, envelope, thresholds, variant="paired"):
    """Stealth-and-damage reward for one step.

    p_e is the electrical-power deviation relative to schedule; each term is
    gated by the per-generator stealth indicator, so a detected agent earns
    nothing.  variant="product" couples the frequency term like the power
    term, as a product of sums.
    """
    f = np.asarray(f_hz, dtype=float)
    r = np.asarray(r_inf, dtype=float)
    pe = np.asarray(p_e, dtype=float)
    th = np.asarray(thresholds, dtype=float)
    if not (f.shape == r.shape == pe.shape == th.shape):
        raise ValueError("f, r_inf, p_e, thresholds must share length n")
    stealth = (r <= th).astype(float)
    unsafe_pe = ((pe < envelope.pe_lo) | (pe > envelope.pe_hi)).astype(float)
    unsafe_f = ((f < envelope.f_lo) | (f > envelope.f_hi)).astype(float)
    term1 = weights.w1 * unsafe_pe.sum() * stealth.sum()
    if variant == "paired":
        term2 = weights.w2 * float((unsafe_f * stealth).sum())
    elif variant == "product":
        term2 = weights.w2 * unsafe_f.sum() * stealth.sum()
    else:
        raise ValueError(f"unknown reward variant {variant!r}")
    term3 = weights.w3 * stealth.sum()
    return float(term1 + term2 + term3)


@dataclass(frozen=True)
class EpisodeConfig:
    steps_per_episode: int
    episodes: int
    init: dict = field(default_factory=lambda: {"type": "zero"})
    action_repeat: int = 1

    def __post_init__(self):
        if self.steps_per_episode < 1 or self.episodes < 1:
            raise ValueError("steps_per_episode and episodes must be >= 1")
        if self.action_repeat < 1:
            raise ValueError("action_repeat must be >= 1")


class GridEnv:
    """One-step interface over the closed loop, false data held at zero.

    Observations are raw per the agent contract: [f_i..., r_inf_i..., pe_i...,
    previous action...]; normalize() maps them to unit scale for the nets.
    """

    def __init__(self, grid: GridModel, episode_config: EpisodeConfig,
                 weights: RewardWeights = None, reward_variant="paired"):
        self.grid = grid
        self.cfg = episode_config
        self.weights = weights or RewardWeights()
        self.reward_variant = reward_variant
        self.n = grid.n_generators
        self.m = grid.n_breakers
        self.obs_dim = 3 * self.n + self.m
        self.act_dim = self.m
        a, b, c, l, k = grid.stacked()
        self._a, self._b, self._c, self._l, self._k = a, b, c, l, k
        self._use_k = bool(np.any(k != 0.0))
        params = [p for p, _ in grid.generators]
        self._nominal = np.array([p.nominal_frequency_hz for p in params])
        self._droop = np.array([p.droop for p in params])
        self._sched_total = grid.scheduled_load
        self._done = True

        th = grid.thresholds
        env = grid.envelope
        half_band = 0.5 * (env.f_hi - env.f_lo)
        center = np.concatenate([self._nominal, np.zeros(self.n),
                                 np.zeros(self.n), np.zeros(self.m)])
        scale = np.concatenate([np.full(self.n, half_band), th,
                                np.full(self.n, max(abs(env.pe_lo), abs(env.pe_hi))),
                                np.ones(self.m)])
        self._center, self._scale = center, scale

    # The loop state is z = [x; x_hat] and yr = [y; r]; each step makes new
    # arrays, so a caller may keep the views below across steps.
    @property
    def _x(self):
        return self._z[0]

    @property
    def _xhat(self):
        return self._z[1]

    @property
    def _r(self):
        return self._yr[1]

    def normalize(self, obs):
        return (obs - self._center) / self._scale

    def _sched(self, k):
        t = min(k, self._sched_total.shape[1] - 1)
        return self._sched_total[:, t]

    def reset(self, rng=None):
        init = self.cfg.init
        if init.get("type", "zero") == "zero":
            x0 = np.zeros((self.n, 4))
        elif init["type"] == "uniform":
            if rng is None:
                raise ValueError("uniform init requires an rng")
            lo = np.asarray(init["low"], dtype=float)
            hi = np.asarray(init["high"], dtype=float)
            x0 = rng.uniform(size=(self.n, 4)) * (hi - lo) + lo
        else:
            raise ValueError(f"unknown init type {init!r}")
        self._z = np.stack([x0, x0])
        self._yr = np.zeros((2, self.n, 2))
        self._k_step = 0
        self._env_step = 0
        self._prev_action = np.zeros(self.m)
        self._done = False
        self._executed = []
        return self._observation()

    def _observation(self):
        f = self._nominal + self._x[:, 0] / TWO_PI
        r_inf = np.max(np.abs(self._r), axis=1)
        u_act = self._sched(self._k_step) + self._last_offset()
        pe = u_act + self._droop * self._x[:, 0] - self._sched(self._k_step)
        return np.concatenate([f, r_inf, pe, self._prev_action])

    def _last_offset(self):
        if not self._executed:
            return np.zeros(self.n)
        b = self._executed[-1]
        return self.grid.load_map.matrix @ (b - self.grid.load_map.b_nom.astype(float))

    def step(self, action):
        """Threshold the action into breaker commands, advance, reward."""
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset() first")
        action = np.clip(np.asarray(action, dtype=float), -1.0, 1.0)
        if action.shape != (self.m,):
            raise ValueError(f"action must have length {self.m}")
        breakers = (action > 0.0).astype(float)
        offset = self.grid.load_map.matrix @ (breakers - self.grid.load_map.b_nom.astype(float))

        for _ in range(self.cfg.action_repeat):
            sched = self._sched(self._k_step)
            u = np.array([sched + offset,
                          believed_input(self._k, self._use_k, sched, self._xhat)])
            z1, yr1 = np.empty_like(self._z), np.empty_like(self._yr)
            closed_loop_step(self._a, self._c, self._l, self._z, self._r,
                             self._b * u[..., None], 0.0, 0.0, 0.0,
                             z1, yr1, np.empty((self.n, 2)))
            self._z, self._yr = z1, yr1
            self._k_step += 1
            self._executed.append(breakers.copy())

        self._prev_action = action
        self._env_step += 1
        blown = not np.all(np.isfinite(self._x))
        self._done = blown or self._env_step >= self.cfg.steps_per_episode

        f = self._nominal + self._x[:, 0] / TWO_PI
        r_inf = np.max(np.abs(self._r), axis=1)
        u_act = self._sched(self._k_step) + offset
        pe_dev = u_act + self._droop * self._x[:, 0] - self._sched(self._k_step)
        rew = 0.0 if blown else reward(f, r_inf, pe_dev, self.weights,
                                       self.grid.envelope, self.grid.thresholds,
                                       self.reward_variant)
        return self._observation(), rew, self._done

    def executed_schedule(self):
        return BreakerSchedule(signals=np.array(self._executed, dtype=int))


# ---------------------------------------------------------------------------
# DDPG


@dataclass(frozen=True)
class TrainConfig:
    hidden: tuple = (64, 64)
    gamma: float = 0.99
    tau: float = 0.005
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    batch_size: int = 64
    buffer_capacity: int = 100_000
    noise_sigma: float = 0.2
    noise_decay: float = 0.995


@dataclass
class TrainArtifacts:
    actor: MLP
    reward_curve: np.ndarray
    best_schedule: BreakerSchedule
    best_episode: int
    best_reward: float
    seed: tuple


def ddpg_train(env: GridEnv, cfg: TrainConfig, rng) -> TrainArtifacts:
    """Train an actor against the grid environment; deterministic per rng.

    The recorded best schedule is the breaker sequence actually executed
    during the best-reward episode, so replaying it through the simulator
    reproduces that episode's cumulative reward.
    """
    h1, h2 = cfg.hidden
    actor = MLP([env.obs_dim, h1, h2, env.act_dim], out_squash="tanh", rng=rng)
    critic = MLP([env.obs_dim + env.act_dim, h1, h2, 1], rng=rng)
    actor_t = actor.copy()
    critic_t = critic.copy()
    opt_a = Adam(actor.params, cfg.actor_lr)
    opt_c = Adam(critic.params, cfg.critic_lr)
    buffer = ReplayBuffer(cfg.buffer_capacity, env.obs_dim, env.act_dim)

    curve = np.zeros(env.cfg.episodes)
    best_reward = -np.inf
    best_schedule = None
    best_episode = -1
    sigma = cfg.noise_sigma

    for ep in range(env.cfg.episodes):
        obs = env.reset(rng)
        total = 0.0
        done = False
        while not done:
            z = env.normalize(obs)
            act = actor.forward(z)[0] + rng.normal(scale=sigma, size=env.act_dim)
            act = np.clip(act, -1.0, 1.0)
            nxt, rew, done = env.step(act)
            buffer.add(obs, act, rew, nxt, done)
            total += rew
            obs = nxt

            if len(buffer) >= cfg.batch_size:
                _update(env, actor, critic, actor_t, critic_t, opt_a, opt_c,
                        buffer, cfg, rng)
        curve[ep] = total
        if total > best_reward:
            best_reward = total
            best_schedule = env.executed_schedule()
            best_episode = ep
        sigma *= cfg.noise_decay

    return TrainArtifacts(actor=actor, reward_curve=curve,
                          best_schedule=best_schedule, best_episode=best_episode,
                          best_reward=float(best_reward),
                          seed=(rng.seed, rng.stream_id))


def _update(env, actor, critic, actor_t, critic_t, opt_a, opt_c, buffer, cfg, rng):
    obs, act, rew, nxt, done = buffer.sample(cfg.batch_size, rng)
    z = env.normalize(obs)
    zn = env.normalize(nxt)

    # critic toward r + gamma * Q_target(s', actor_target(s'))
    an = actor_t.forward(zn)
    qn = critic_t.forward(np.concatenate([zn, an], axis=1))[:, 0]
    target = rew + cfg.gamma * (1.0 - done) * qn
    q, cache_c = critic.forward(np.concatenate([z, act], axis=1), with_cache=True)
    err = q[:, 0] - target
    loss = float(np.mean(err ** 2))
    if not np.isfinite(loss):
        raise TrainingDiverged("critic loss is non-finite", {
            "loss": loss, "q_head": q[:8, 0].tolist(), "target_head": target[:8].tolist(),
        })
    dq = (2.0 / cfg.batch_size) * err[:, None]
    grads_c, _ = critic.backward(cache_c, dq)
    opt_c.step(critic.params, grads_c)

    # actor along the critic's action gradient (ascent on Q)
    a_pi, cache_a = actor.forward(z, with_cache=True)
    q_pi, cache_q = critic.forward(np.concatenate([z, a_pi], axis=1), with_cache=True)
    _, dinput = critic.backward(cache_q, np.full_like(q_pi, -1.0 / cfg.batch_size))
    dact = dinput[:, env.obs_dim:]
    grads_a, _ = actor.backward(cache_a, dact)
    if not all(np.all(np.isfinite(g)) for g in grads_a):
        raise TrainingDiverged("actor gradients are non-finite", {"loss": loss})
    opt_a.step(actor.params, grads_a)

    soft_update(actor_t, actor, cfg.tau)
    soft_update(critic_t, critic, cfg.tau)


def rollout_policy(actor: MLP, env: GridEnv, steps: int) -> BreakerSchedule:
    """Deterministic noise-free rollout of the actor for `steps` env steps."""
    obs = env.reset()
    for _ in range(steps):
        act = actor.forward(env.normalize(obs))[0]
        obs, _, done = env.step(act)
        if done:
            break
    return env.executed_schedule()


def replay_schedule(env: GridEnv, schedule: BreakerSchedule):
    """Drive the env with a fixed breaker schedule; returns cumulative reward.

    Actions are +-1 encodings of the breaker bits, so the decode in step()
    reproduces the schedule exactly.
    """
    obs = env.reset()
    total = 0.0
    rep = env.cfg.action_repeat
    for t in range(0, schedule.d, rep):
        act = 2.0 * schedule.signals[t] - 1.0
        obs, rew, done = env.step(act)
        total += rew
        if done:
            break
    return total


# ---------------------------------------------------------------------------
# Weight serialization: magic "GSRL", version u32, layer sizes, f64 tensors.

MAGIC = b"GSRL"
FORMAT_VERSION = 1


def save_weights(path, mlp: MLP):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(mlp.sizes)))
        fh.write(struct.pack(f"<{len(mlp.sizes)}I", *mlp.sizes))
        for p in mlp.params:
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_weights(path, out_squash=None) -> MLP:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError("not a GSRL weights file")
    version, = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported weights format version {version}")
    n_sizes, = struct.unpack_from("<I", blob, 8)
    sizes = struct.unpack_from(f"<{n_sizes}I", blob, 12)
    off = 12 + 4 * n_sizes
    mlp = MLP(list(sizes), out_squash=out_squash)
    params = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = np.frombuffer(blob, dtype="<f8", count=fan_in * fan_out, offset=off)
        off += 8 * fan_in * fan_out
        b = np.frombuffer(blob, dtype="<f8", count=fan_out, offset=off)
        off += 8 * fan_out
        params.append(w.reshape(fan_in, fan_out).copy())
        params.append(b.copy())
    if off != len(blob):
        raise ValueError("weights file has trailing or missing bytes")
    mlp.params = params
    return mlp
