"""Attacked / unattacked closed-loop simulation and the detection predicates.

simulate() advances every generator loop under an optional attack vector:
breaker toggling alters the true load input while the estimator keeps
believing the schedule, and additive false data corrupts the measured
outputs before they reach the residue detector; simulate_many() runs
several attacks on one grid in a single step loop.  The resulting trace
feeds detect / check_success / robustness, which give the boolean and
quantitative semantics of the "unsafe before first detection" attack goal.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .kernels import buffers, step_loop, valid_counts
from .model import C_OUT, NOMINAL_HZ, GridModel, noise_factors

TWO_PI = 2.0 * math.pi
SIGNAL_BASES = ("measured", "true")


@dataclass(frozen=True)
class BreakerSchedule:
    """d x m binary breaker commands; 1 = closed/connected."""

    signals: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.signals)
        if sig.ndim != 2 or sig.shape[0] < 1:
            raise ValueError("signals must be d x m with d >= 1")
        if not np.all((sig == 0) | (sig == 1)):
            raise ValueError("breaker signals must be binary")
        sig = sig.astype(np.int64)
        sig.setflags(write=False)
        object.__setattr__(self, "signals", sig)

    @property
    def d(self):
        return self.signals.shape[0]

    @property
    def m(self):
        return self.signals.shape[1]


@dataclass(frozen=True)
class FalseDataSchedule:
    """Per-generator additive output corruption, masked per output channel."""

    values: np.ndarray   # n x d x q
    mask: np.ndarray     # q binary; 0 columns must be identically zero

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)   # frozen below, so a copy
        mask = np.asarray(self.mask)
        if vals.ndim != 3:
            raise ValueError("values must be n x d x q")
        if mask.shape != (vals.shape[2],) or not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask must be q binary entries")
        mask = mask.astype(np.int64)
        off = np.where(mask == 0)[0]
        if np.any(vals[:, :, off] != 0.0):
            raise ValueError("masked-off output columns must be identically zero")
        vals.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mask", mask)

    @property
    def d(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class AttackVector:
    """Paired breaker schedule and false-data schedule of equal length."""

    breakers: BreakerSchedule
    false_data: FalseDataSchedule

    def __post_init__(self):
        if self.breakers.d != self.false_data.d:
            raise ValueError("breaker and false-data schedules must share d")

    @property
    def d(self):
        return self.breakers.d


def residue_norm(residue):
    """The detector statistic: the inf-norm of the two residue outputs on
    the last axis, the bits of np.max(np.abs(residue), axis=-1)."""
    return np.maximum(np.abs(residue[..., 0]), np.abs(residue[..., 1]))


def _read_only(arr):
    arr.setflags(write=False)
    return arr


class SimTrace:
    """Immutable per-step record of a closed-loop run.

    Arrays are indexed [generator, step, ...]; records run 0..horizon unless
    the state went non-finite, in which case the trace is truncated and
    flagged rather than discarded.
    """

    def __init__(self, ts, droop, thresholds, x, xhat, y, y_meas,
                 residue, u_believed, u_actual, truncated):
        self.ts = float(ts)
        self.droop = droop
        self.thresholds = thresholds
        self.x = x
        self.xhat = xhat
        self.y = y
        self.y_meas = y_meas
        self.residue = residue
        self.u_believed = u_believed
        self.u_actual = u_actual
        self.truncated = bool(truncated)

        for arr in (self.x, self.xhat, self.y, self.y_meas, self.residue,
                    self.u_believed, self.u_actual, self.droop, self.thresholds):
            arr.setflags(write=False)

    # the derived arrays are formed on first read, read-only like the records

    @cached_property
    def f_hz(self):
        return _read_only(NOMINAL_HZ + self.x[:, :, 0] / TWO_PI)

    @cached_property
    def f_meas_hz(self):
        return _read_only(NOMINAL_HZ + self.y_meas[:, :, 0] / TWO_PI)

    @cached_property
    def p_e(self):
        return _read_only(self.u_actual + self.droop[:, None] * self.x[:, :, 0])

    @cached_property
    def r_inf(self):
        return _read_only(residue_norm(self.residue))

    @cached_property
    def stealthy(self):
        return _read_only(self.r_inf <= self.thresholds[:, None])

    @property
    def n_generators(self):
        return self.x.shape[0]

    @property
    def n_steps(self):
        """Number of records (horizon + 1 when not truncated)."""
        return self.x.shape[1]

    def frequency(self, basis="measured"):
        if basis == "measured":
            return self.f_meas_hz
        if basis == "true":
            return self.f_hz
        raise ValueError(f"unknown signal basis {basis!r}")


@dataclass(frozen=True)
class SuccessReport:
    success: bool
    k_prime: Optional[int]
    first_detection: Optional[int]
    stealthy_until_unsafe: bool
    signal_basis: str

    def __post_init__(self):
        if self.success:
            assert self.k_prime is not None
            assert self.first_detection is None or self.first_detection >= self.k_prime


def simulate(grid: GridModel, attack: Optional[AttackVector], horizon: int,
             noise=False, rng=None) -> SimTrace:
    """Run the closed loop for `horizon` steps (records 0..horizon), from
    the zero state.

    The plant and the estimator both consume the schedule (its last column
    held, see GridModel.schedule) plus K x_hat (the configured feedback gain,
    0 by default); the plant also takes any breaker-induced load alteration,
    the estimator the falsified measurements.  After the attack's d steps the
    breakers revert to nominal and false data drops to zero.
    """
    rngs = None if rng is None else [rng]
    return simulate_many(grid, [attack], horizon, noise, rngs)[0]


def simulate_many(grid: GridModel, attacks, horizon: int, noise=False,
                  rngs=None) -> list:
    """simulate() of each attack (None: no attack), all in one step loop.

    The R runs are stacked along the generator axis as R * n independent
    rows, so each trace is bitwise the one simulate() gives.  With noise,
    run j draws from rngs[j] its process noise, generator by generator, then
    its measurement noise, each in one call.  A run that
    goes non-finite truncates only its own trace.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    for attack in attacks:
        if attack is None:
            continue
        if attack.breakers.m != grid.n_breakers:
            raise ValueError("attack breaker count does not match grid")
        if len(attack.false_data.values) != grid.n_generators:
            raise ValueError(f"attack false data covers {len(attack.false_data.values)} "
                             f"generators, the grid has {grid.n_generators}")
        if attack.d > horizon:
            raise ValueError("attack length d must be <= horizon")
    if noise and (rngs is None or len(rngs) != len(attacks)):
        raise ValueError("noise=True requires an rng per run")

    n, runs = grid.n_generators, len(attacks)
    a, b, l, k = (np.concatenate([m] * runs) for m in (grid.a, grid.b, grid.l, grid.k))
    c = np.broadcast_to(C_OUT, (runs * n,) + C_OUT.shape)   # no op reads it; see step_loop
    use_k = bool(np.any(grid.k != 0.0))
    n_steps = horizon + 1

    x0 = np.zeros((runs * n, 4))
    u_sched = np.concatenate([grid.schedule(0, n_steps)] * runs)
    u_laa = np.zeros((runs * n, n_steps))
    a_y, w, v, z, yr, ym, u = buffers(runs * n, n_steps)
    for j, attack in enumerate(attacks):
        if attack is not None:
            u_laa[j * n:(j + 1) * n, :attack.d] = grid.load_map.offsets(attack.breakers.signals)
            a_y[j * n:(j + 1) * n, :attack.d] = attack.false_data.values

    if noise:
        chol_q, chol_r = (f.swapaxes(-1, -2) for f in noise_factors(grid.q_noise, grid.r_noise))
        for j, rng in enumerate(rngs):
            w[j * n:(j + 1) * n] = rng.normal(size=(n, horizon, 4)) @ chol_q
            v[j * n:(j + 1) * n] = rng.normal(size=(n, n_steps, 2)) @ chol_r

    valid = step_loop(None, a, b, c, l, k, use_k, x0, x0,
                      u_sched, u_laa, a_y, w, v, z, yr, ym, u)
    counts = [n_steps] * runs
    if valid < n_steps:
        counts = valid_counts(z, yr).reshape(runs, n).min(axis=1)

    traces = []
    for j, steps in enumerate(counts):
        rows, cut = slice(j * n, (j + 1) * n), slice(0, steps)
        traces.append(SimTrace(
            ts=grid.ts, droop=grid.droop, thresholds=grid.thresholds,
            x=z[rows, cut, 0], xhat=z[rows, cut, 1], y=yr[rows, cut, 0],
            y_meas=ym[rows, cut], residue=yr[rows, cut, 1],
            u_believed=u[rows, cut, 1], u_actual=u[rows, cut, 0],
            truncated=steps < n_steps))
    return traces


def detect(trace: SimTrace, thresholds) -> Optional[int]:
    """First step at which any generator's residue inf-norm strictly exceeds
    its threshold; None if never crossed."""
    th = np.asarray(thresholds, dtype=float)
    crossed = np.any(trace.r_inf > th[:, None], axis=0)
    idx = np.flatnonzero(crossed)
    return int(idx[0]) if idx.size else None


def _first_unsafe(trace, envelope, basis):
    f = trace.frequency(basis)
    unsafe = np.any((f < envelope.f_lo) | (f > envelope.f_hi), axis=0)
    idx = np.flatnonzero(unsafe)
    return int(idx[0]) if idx.size else None


def check_success(trace: SimTrace, envelope, thresholds,
                  signal_basis="measured") -> SuccessReport:
    """Success predicate: some step k' is unsafe while every residue stayed
    at or below threshold at all steps strictly before k'."""
    first_det = detect(trace, thresholds)
    first_unsafe = _first_unsafe(trace, envelope, signal_basis)
    success = first_unsafe is not None and (first_det is None or first_unsafe <= first_det)
    stealthy_until_unsafe = first_det is None or (
        first_unsafe is not None and first_det >= first_unsafe)
    return SuccessReport(
        success=success,
        k_prime=first_unsafe if success else None,
        first_detection=first_det,
        stealthy_until_unsafe=stealthy_until_unsafe,
        signal_basis=signal_basis,
    )


def robustness(trace: SimTrace, envelope, thresholds, signal_basis="measured") -> float:
    """Quantitative semantics of the stealthy-unsafe goal; negative iff the
    check_success predicate holds.

    rho = min over k' of max(s(k'), g(k')) where s is the worst signed
    frequency margin at k' (negative outside the band) and g is the largest
    residue excess over threshold at any step before k' (the empty maximum at
    k'=0 is floored at -min(Th)).
    """
    return robustness_terms(frequency_margin(trace.frequency(signal_basis), envelope),
                            residue_term(trace.r_inf, thresholds))


def frequency_margin(f, envelope):
    """s(k'), from the frequency (..., generators, steps): the worst signed
    margin to the band at each step."""
    return np.minimum.reduce(np.minimum(envelope.f_hi - f, f - envelope.f_lo), axis=-2)


def residue_term(r_inf, thresholds):
    """g(k'), from the residue inf-norm (..., generators, steps): the largest
    excess over threshold at any step before k', -min(Th) at k' = 0."""
    th = np.asarray(thresholds, dtype=float)
    return running_excess(r_inf - th[:, None], -float(np.min(th)))


def running_excess(excess, floor):
    """residue_term from the excess r_inf - Th (..., generators, steps) and
    floor = -min(Th), for callers that hold Th's column and floor."""
    worst_excess = np.maximum.reduce(excess, axis=-2)
    g = np.empty_like(worst_excess)
    g[..., 0] = floor
    np.maximum.accumulate(worst_excess[..., :-1], axis=-1, out=g[..., 1:])
    return g


def robustness_terms(s, g):
    """robustness() from its per-step terms s(k') and g(k').

    Leading axes stack independent traces and give an array of rhos; each is
    bitwise the float its trace alone gives, since min and max are exact.
    """
    rho = np.minimum.reduce(np.maximum(s, g), axis=-1)
    return float(rho) if rho.ndim == 0 else rho


CSV_COLUMNS = ("k", "t_s", "gen", "x1", "x2", "x3", "x4",
               "xhat1", "xhat2", "xhat3", "xhat4",
               "u_believed", "u_actual", "y1", "y2", "ymeas1", "ymeas2",
               "r1", "r2", "rinf", "f_hz", "pe_pu", "stealthy")


CSV_CHUNK_STEPS = 256   # steps formatted per write; bounds the writer's memory
_CSV_ROW = "%d,%.9g,%d," + "%.9g," * (len(CSV_COLUMNS) - 4) + "%d\n"


def write_trace_csv(trace: SimTrace, fh):
    """One row per (step, generator); numbers carry 9 significant digits.

    Rows are written CSV_CHUNK_STEPS steps at a time: numpy lays out the
    chunk's cells and one row template formats them.  '%.9g' % v gives the
    same text as format(v, '.9g') for every double, inf, nan and -0.0
    included.
    """
    fh.write(",".join(CSV_COLUMNS) + "\n")
    n = trace.n_generators
    fields = [trace.x, trace.xhat, trace.u_believed[:, :, None],
              trace.u_actual[:, :, None], trace.y, trace.y_meas, trace.residue,
              trace.r_inf[:, :, None], trace.f_hz[:, :, None], trace.p_e[:, :, None],
              trace.stealthy[:, :, None]]
    for t0 in range(0, trace.n_steps, CSV_CHUNK_STEPS):
        steps = np.arange(t0, min(t0 + CSV_CHUNK_STEPS, trace.n_steps))
        cells = np.empty((steps.size, n, len(CSV_COLUMNS)))
        cells[:, :, 0] = steps[:, None]
        cells[:, :, 1] = (steps * trace.ts)[:, None]
        cells[:, :, 2] = np.arange(n)
        col = 3
        for field in fields:
            width = field.shape[2]
            cells[:, :, col:col + width] = field[:, t0:t0 + steps.size].swapaxes(0, 1)
            col += width
        fh.write((_CSV_ROW * (steps.size * n)) % tuple(cells.ravel().tolist()))
