"""Breaker-schedule synthesis by reinforcement learning.

A small, dependency-free DDPG: two-hidden-layer ReLU approximators with
analytic backpropagation, Adam updates, a ring replay buffer, and soft target
networks.  The environment wraps the grid simulator one step at a time with
false data held at zero; the agent's continuous actions are sign-thresholded
into binary breaker commands.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .kernels import all_finite, step_block, step_views
from .model import NOMINAL_HZ, GridModel
from .sim import TWO_PI, BreakerSchedule, residue_norm


class TrainingDiverged(RuntimeError):
    """A DDPG update met a non-finite critic loss or actor gradient."""


# ---------------------------------------------------------------------------
# Function approximators


class MLP:
    """Two hidden ReLU layers; optional tanh squash on the output.

    The parameters live in one contiguous vector `flat` and their gradients
    in `grad`; `params` and `grads` are [w1, b1, w2, b2, w3, b3] views into
    them, in the GSRL file's order.
    """

    def __init__(self, sizes, out_squash=None, rng=None):
        if len(sizes) != 4:
            raise ValueError("sizes must be [in, hidden1, hidden2, out]")
        self.sizes = list(int(s) for s in sizes)
        self.out_squash = out_squash
        shapes = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            shapes += [(fan_in, fan_out), (fan_out,)]
        size = sum(int(np.prod(s)) for s in shapes)
        self.flat, self.grad = np.zeros(size), np.zeros(size)
        self.params = _views(self.flat, shapes)
        self.grads = _views(self.grad, shapes)
        self._work = {}
        if rng is not None:
            for w in self.params[::2]:
                bound = 1.0 / np.sqrt(w.shape[0])
                w[...] = rng.uniform(-bound, bound, size=w.shape)

    def _arrays(self, rows):
        """z1 h1 z2 h2 z3 out, dz3 dz2 dz1 dx and the ReLU masks of z1 and
        z2 for a batch of `rows`, made on the first pass of that size."""
        work = self._work.get(rows)
        if work is None:
            n_in, n1, n2, n_out = self.sizes
            work = [np.empty((rows, w)) for w in (n1, n1, n2, n2, n_out, n_out,
                                                  n_out, n2, n1, n_in)]
            work += [np.empty((rows, n1), dtype=bool), np.empty((rows, n2), dtype=bool)]
            self._work[rows] = work
        return work

    def forward(self, x, with_cache=False):
        """The output for a float array x, a batch of rows or one row, and
        with_cache what backward reads: views of work arrays that the next
        forward of the same batch size overwrites, so a caller copies what
        it keeps."""
        if x.ndim == 1:
            x = x[None]
        w1, b1, w2, b2, w3, b3 = self.params
        z1, h1, z2, h2, z3, out = self._arrays(len(x))[:6]
        np.add(np.matmul(x, w1, out=z1), b1, out=z1)
        np.maximum(z1, 0.0, out=h1)
        np.add(np.matmul(h1, w2, out=z2), b2, out=z2)
        np.maximum(z2, 0.0, out=h2)
        np.add(np.matmul(h2, w3, out=z3), b3, out=z3)
        out = np.tanh(z3, out=out) if self.out_squash == "tanh" else z3
        if not with_cache:
            return out
        return out, (x, z1, h1, z2, h2, z3, out)

    def backward(self, cache, dout, input_grad=False):
        """Gradients of sum(dout * out) w.r.t. the parameters, written into
        `grad`; with input_grad, only the gradient w.r.t. the input, which
        is returned as a work array."""
        x, z1, h1, z2, h2, z3, out = cache
        w1, b1, w2, b2, w3, b3 = self.params
        gw1, gb1, gw2, gb2, gw3, gb3 = self.grads
        dz3, dz2, dz1, dx, mask1, mask2 = self._arrays(len(x))[6:]
        if self.out_squash == "tanh":   # dz3 = dout * (1 - out^2)
            np.multiply(out, out, out=dz3)
            np.subtract(1.0, dz3, out=dz3)
            np.multiply(dout, dz3, out=dz3)
        else:
            dz3 = dout
        if not input_grad:
            np.matmul(h2.T, dz3, out=gw3)
            np.add.reduce(dz3, axis=0, out=gb3)
        np.matmul(dz3, w3.T, out=dz2)
        dz2 *= np.greater(z2, 0.0, out=mask2)
        if not input_grad:
            np.matmul(h1.T, dz2, out=gw2)
            np.add.reduce(dz2, axis=0, out=gb2)
        np.matmul(dz2, w2.T, out=dz1)
        dz1 *= np.greater(z1, 0.0, out=mask1)
        if input_grad:
            return np.matmul(dz1, w1.T, out=dx)
        np.matmul(x.T, dz1, out=gw1)
        np.add.reduce(dz1, axis=0, out=gb1)

    def copy(self):
        dup = MLP(self.sizes, self.out_squash)
        dup.flat[...] = self.flat
        return dup


def _views(buffer, shapes):
    """Consecutive views of buffer with the given shapes."""
    views, off = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(buffer[off:off + size].reshape(shape))
        off += size
    return views


def soft_update(target: MLP, source: MLP, tau):
    """target <- tau*source + (1-tau)*target; tau=1 is an exact hard copy.
    A target is never trained, so its `grad` holds tau*source."""
    if tau == 1.0:
        target.flat[...] = source.flat
        return
    target.flat *= 1.0 - tau
    target.flat += np.multiply(tau, source.flat, out=target.grad)


class Adam:
    """Adam over one flat parameter vector and its gradient vector."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self._s1, self._s2 = np.empty_like(params), np.empty_like(params)
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        m, v, s1, s2 = self.m, self.v, self._s1, self._s2
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grads, out=s1)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, grads, out=s1)
        v += np.multiply(s1, grads, out=s1)
        # params -= lr * (m / b1c) / (sqrt(v / b2c) + eps)
        np.divide(m, b1c, out=s1)
        s1 *= self.lr
        np.sqrt(np.divide(v, b2c, out=s2), out=s2)
        s2 += self.eps
        params -= np.divide(s1, s2, out=s1)


# ---------------------------------------------------------------------------
# Replay buffer


class ReplayBuffer:
    """A ring of transitions, one row [obs | act | rew | nxt | done] each.
    `obs`, `act`, `rew`, `nxt` and `done` are column views of `rows`; sample
    returns the same views of a batch, which the next sample overwrites.
    ddpg_train stores normalized observations."""

    def __init__(self, capacity, obs_dim, act_dim):
        self.capacity = int(capacity)
        self._dims = (obs_dim, act_dim)
        self.rows = np.zeros((self.capacity, 2 * obs_dim + act_dim + 2))
        self.obs, self.act, self.rew, self.nxt, self.done = self._columns(self.rows)
        self._batch = self.rows[:0]
        self.size = 0
        self.idx = 0

    def _columns(self, rows):
        o, a = self._dims
        return rows[:, :o], rows[:, o:o + a], rows[:, o + a], rows[:, o + a + 1:-1], rows[:, -1]

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
        if len(self._batch) != batch:
            self._batch = np.empty((batch, self.rows.shape[1]))
        # the indices are in range; mode "raise" would gather into a copy first
        return self._columns(np.take(self.rows, idx, axis=0, out=self._batch, mode="clip"))

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


def reward(f_hz, r_inf, p_e, weights, envelope, thresholds):
    """Stealth-and-damage reward for one step, from n values per argument
    (lists or arrays): w1 n_pe n_stealth + w2 n_f + w3 n_stealth.

    p_e is the electrical-power deviation relative to schedule.  n_stealth
    counts the generators whose residue is within threshold, n_pe those
    whose p_e leaves the envelope, and n_f the stealthy ones whose frequency
    leaves it, so a detected agent earns nothing.  A NaN value is never
    stealthy and never outside the envelope.
    """
    if not len(f_hz) == len(r_inf) == len(p_e) == len(thresholds):
        raise ValueError("f, r_inf, p_e, thresholds must share length n")
    f_lo, f_hi, pe_lo, pe_hi = envelope.f_lo, envelope.f_hi, envelope.pe_lo, envelope.pe_hi
    n_stealth = n_pe = n_f = 0.0
    for f, r, pe, th in zip(f_hz, r_inf, p_e, thresholds):
        if pe < pe_lo or pe > pe_hi:
            n_pe += 1.0
        if r <= th:
            n_stealth += 1.0
            if f < f_lo or f > f_hi:
                n_f += 1.0
    return float(weights.w1 * n_pe * n_stealth + weights.w2 * n_f + weights.w3 * n_stealth)


@dataclass(frozen=True)
class EpisodeConfig:
    """The episode section of a train config, which is its top level.
    Every episode starts from the zero state."""

    steps_per_episode: int = 100
    episodes: int = 50

    def __post_init__(self):
        if self.steps_per_episode < 1 or self.episodes < 1:
            raise ValueError("steps_per_episode and episodes must be >= 1")


class GridEnv:
    """One-step interface over the closed loop, false data held at zero.

    Observations are raw per the agent contract: [f_i..., r_inf_i..., pe_i...,
    previous action...]; normalize() maps them to unit scale for the nets.
    pe_i, which the reward judges against the envelope, is relative to the
    schedule and leaves out K x_hat: the load offset of the last breaker
    command plus droop times d_omega.  SimTrace.p_e is absolute (schedule,
    offset and K x_hat included), so the two differ when either is non-zero.

    An episode ends after steps_per_episode steps or where simulate()
    truncates: at the first non-finite x, x_hat or r, a step that earns 0.

    A step forms the observation and the reward on Python floats, which
    round each operation as numpy's ufuncs do, and looks up the load
    offsets of a breaker pattern it has met before.
    """

    def __init__(self, grid: GridModel, episode_config: EpisodeConfig,
                 weights: RewardWeights = None):
        self.grid = grid
        self.cfg = episode_config
        self.weights = weights or RewardWeights()
        self.n = grid.n_generators
        self.m = grid.n_breakers
        self.obs_dim = 3 * self.n + self.m
        self.act_dim = self.m
        self._droop = grid.droop.tolist()
        self._thresholds = grid.thresholds.tolist()
        # load offsets by breaker pattern, (action > 0).tobytes(): the array
        # the plant input adds and its floats for pe
        self._offsets = {}
        # A step copies record 1 to record 0 and advances it through a
        # one-step block back into record 1.  _x, _xhat and _r view record 1,
        # which every step overwrites, so a caller copies what it keeps.
        n = self.n
        z, yr = np.zeros((2, 2, n, 4)), np.zeros((2, 2, n, 2))
        u, zeros = np.zeros((2, 2, n)), np.zeros((2, n, 2))
        steps = step_views(z, yr, np.empty((2, n, 2)), u, zeros, zeros)
        self._block = (grid.a, grid.b, np.ascontiguousarray(np.moveaxis(grid.l, -1, 0)),
                       grid.k if np.any(grid.k) else None, steps, np.empty((1, 2, n, 4)),
                       np.zeros((1, 2, n, 4)), np.empty((2, n, 4)),
                       (False, False, False, True))   # no false data, no noise, a load
        self._z0, self._z1, self._yr0, self._yr1 = z[0], z[1], yr[0], yr[1]
        self._u_act, self._u_bel = u[0, 0], u[0, 1]
        self._x, self._xhat, self._r = z[1, 0], z[1, 1], yr[1, 1]
        # the scheduled load of every step of an episode, step-major
        self._sched = np.ascontiguousarray(
            grid.schedule(0, episode_config.steps_per_episode).T)
        self._done = True

        th = grid.thresholds
        env = grid.envelope
        half_band = 0.5 * (env.f_hi - env.f_lo)
        center = np.concatenate([np.full(self.n, NOMINAL_HZ), np.zeros(self.n),
                                 np.zeros(self.n), np.zeros(self.m)])
        scale = np.concatenate([np.full(self.n, half_band), th,
                                np.full(self.n, max(abs(env.pe_lo), abs(env.pe_hi))),
                                np.ones(self.m)])
        self._center, self._scale = center, scale

    def normalize(self, obs):
        return (obs - self._center) / self._scale

    def reset(self):
        self._z1[...] = 0.0
        self._yr1[...] = 0.0
        self._step = 0
        self._prev_action = [0.0] * self.m
        self._offset = [0.0] * self.n   # load offset of the last breaker command
        self._done = False
        self._executed = []
        f, r, pe = self._observation(self._x[:, 0].tolist())
        return np.array(f + r + pe + self._prev_action)

    def _observation(self, d_omega):
        """f, r_inf and pe as lists of floats, from d_omega's."""
        f = [NOMINAL_HZ + w / TWO_PI for w in d_omega]
        pe = [off + droop * w for off, droop, w in zip(self._offset, self._droop, d_omega)]
        return f, residue_norm(self._r).tolist(), pe

    def step(self, action):
        """Threshold the action into breaker commands, advance, reward."""
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset() first")
        action = np.asarray(action, dtype=float).clip(-1.0, 1.0)
        if action.shape != (self.m,):
            raise ValueError(f"action must have length {self.m}")
        closed = action > 0.0
        key = closed.tobytes()
        offsets = self._offsets.get(key)
        if offsets is None:
            offsets = self.grid.load_map.offsets(closed.astype(float))
            offsets = self._offsets[key] = (offsets, offsets.tolist())
        u_offset, self._offset = offsets

        sched = self._sched[self._step]
        np.add(sched, u_offset, out=self._u_act)
        self._u_bel[...] = sched
        self._z0[...] = self._z1
        self._yr0[...] = self._yr1
        step_block(*self._block)
        self._executed.append(closed)

        self._prev_action = action.tolist()
        self._step += 1
        blown = not all_finite(self._z1, self._r)
        self._done = blown or self._step >= self.cfg.steps_per_episode

        f, r, pe = self._observation(self._x[:, 0].tolist())
        obs = np.array(f + r + pe + self._prev_action)
        rew = 0.0 if blown else reward(f, r, pe, self.weights, self.grid.envelope,
                                       self._thresholds)
        return obs, rew, self._done

    def executed_schedule(self):
        return BreakerSchedule(signals=np.array(self._executed, dtype=int))


# ---------------------------------------------------------------------------
# DDPG


@dataclass(frozen=True)
class TrainConfig:
    hidden: tuple[int, int] = (64, 64)
    gamma: float = 0.99
    tau: float = 0.005
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    batch_size: int = 64
    buffer_capacity: int = 100_000
    noise_sigma: float = 0.2
    noise_decay: float = 0.995

    def __post_init__(self):
        if min(self.hidden) < 1:
            raise ValueError("hidden widths must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.buffer_capacity < self.batch_size:
            raise ValueError("buffer_capacity must be >= batch_size")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")


@dataclass
class TrainArtifacts:
    actor: MLP
    reward_curve: np.ndarray
    best_schedule: BreakerSchedule
    best_episode: int
    best_reward: float
    env_steps: int       # GridEnv.step calls
    ddpg_updates: int    # critic and actor updates


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
    opt_a = Adam(actor.flat, cfg.actor_lr)
    opt_c = Adam(critic.flat, cfg.critic_lr)
    buffer = ReplayBuffer(min(cfg.buffer_capacity, env.cfg.episodes * env.cfg.steps_per_episode),
                          env.obs_dim, env.act_dim)
    za = np.empty((cfg.batch_size, env.obs_dim + env.act_dim))   # the critic's input
    dq_pi = np.full((cfg.batch_size, 1), -1.0 / cfg.batch_size)   # d(-mean Q)/dQ
    dq_pi.setflags(write=False)

    curve = np.zeros(env.cfg.episodes)
    best_reward = -np.inf
    best_schedule = None
    best_episode = -1
    sigma = cfg.noise_sigma
    env_steps = updates = 0

    for ep in range(env.cfg.episodes):
        z = env.normalize(env.reset())
        total = 0.0
        done = False
        while not done:
            act = actor.forward(z)[0] + rng.normal(scale=sigma, size=env.act_dim)
            act = act.clip(-1.0, 1.0)
            nxt, rew, done = env.step(act)
            env_steps += 1
            zn = env.normalize(nxt)
            buffer.add(z, act, rew, zn, done)
            total += rew
            z = zn

            if len(buffer) >= cfg.batch_size:
                _update(env, actor, critic, actor_t, critic_t, opt_a, opt_c,
                        buffer, za, dq_pi, cfg, rng)
                updates += 1
        curve[ep] = total
        if total > best_reward:
            best_reward = total
            best_schedule = env.executed_schedule()
            best_episode = ep
        sigma *= cfg.noise_decay

    return TrainArtifacts(actor=actor, reward_curve=curve,
                          best_schedule=best_schedule, best_episode=best_episode,
                          best_reward=float(best_reward), env_steps=env_steps,
                          ddpg_updates=updates)


def _update(env, actor, critic, actor_t, critic_t, opt_a, opt_c, buffer, za, dq_pi, cfg,
            rng):
    z, act, rew, zn, done = buffer.sample(cfg.batch_size, rng)
    o = env.obs_dim

    # critic toward r + gamma * Q_target(s', actor_target(s'))
    za[:, :o] = zn
    za[:, o:] = actor_t.forward(zn)
    qn = critic_t.forward(za)[:, 0]
    target = rew + cfg.gamma * (1.0 - done) * qn
    za[:, :o] = z
    za[:, o:] = act
    q, cache_c = critic.forward(za, with_cache=True)
    err = q[:, 0] - target
    loss = float(np.add.reduce(err * err) / len(err))   # np.mean's own arithmetic
    if not math.isfinite(loss):
        raise TrainingDiverged("critic loss is non-finite")
    dq = (2.0 / cfg.batch_size) * err[:, None]
    critic.backward(cache_c, dq)
    opt_c.step(critic.flat, critic.grad)

    # actor along the critic's action gradient (ascent on Q)
    a_pi, cache_a = actor.forward(z, with_cache=True)
    za[:, o:] = a_pi
    _, cache_q = critic.forward(za, with_cache=True)
    dinput = critic.backward(cache_q, dq_pi, input_grad=True)
    actor.backward(cache_a, dinput[:, o:])
    if not np.isfinite(actor.grad).all():
        raise TrainingDiverged("actor gradients are non-finite")
    opt_a.step(actor.flat, actor.grad)

    soft_update(actor_t, actor, cfg.tau)
    soft_update(critic_t, critic, cfg.tau)


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
        fh.write(mlp.flat.astype("<f8", copy=False).tobytes())
