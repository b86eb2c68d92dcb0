"""Attacked / unattacked closed-loop simulation and the detection predicates.

simulate() advances every generator loop under an optional attack vector:
breaker toggling alters the true load input while the estimator keeps
believing the schedule, and additive false data corrupts the measured
outputs before they reach the residue detector.  The resulting trace feeds
detect / check_success / robustness, which give the boolean and quantitative
semantics of the "unsafe before first detection" attack goal.
"""

import hashlib
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import buffers, step_loop
from .model import GridModel, LoadMap

TWO_PI = 2.0 * math.pi


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
        vals = np.asarray(self.values, dtype=float)
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

    def digest(self):
        h = hashlib.sha256()
        h.update(self.breakers.signals.tobytes())
        h.update(self.false_data.values.tobytes())
        h.update(self.false_data.mask.tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class StepRecord:
    k: int
    x: np.ndarray           # n x 4 true state
    xhat: np.ndarray        # n x 4 estimate
    u_believed: np.ndarray  # n
    u_actual: np.ndarray    # n
    y: np.ndarray           # n x 2 true output
    y_meas: np.ndarray      # n x 2 measured (falsified) output
    residue: np.ndarray     # n x 2
    f_hz: np.ndarray        # n true frequency
    p_e: np.ndarray         # n electrical power deviation
    stealthy: np.ndarray    # n bool, ||r_i||_inf <= Th_i


class SimTrace:
    """Immutable per-step record of a closed-loop run.

    Arrays are indexed [generator, step, ...]; records run 0..horizon unless
    the state went non-finite, in which case the trace is truncated and
    flagged rather than discarded.
    """

    def __init__(self, ts, nominal_hz, droop, thresholds, x, xhat, y, y_meas,
                 residue, u_believed, u_actual, seed, grid_digest, attack_digest,
                 truncated):
        self.ts = float(ts)
        self.nominal_hz = nominal_hz
        self.droop = droop
        self.thresholds = thresholds
        self.x = x
        self.xhat = xhat
        self.y = y
        self.y_meas = y_meas
        self.residue = residue
        self.u_believed = u_believed
        self.u_actual = u_actual
        self.seed = seed
        self.grid_digest = grid_digest
        self.attack_digest = attack_digest
        self.truncated = bool(truncated)

        self.f_hz = nominal_hz[:, None] + x[:, :, 0] / TWO_PI
        self.f_meas_hz = nominal_hz[:, None] + y_meas[:, :, 0] / TWO_PI
        self.p_e = u_actual + droop[:, None] * x[:, :, 0]
        self.r_inf = np.max(np.abs(residue), axis=2)
        self.stealthy = self.r_inf <= thresholds[:, None]
        for arr in (self.x, self.xhat, self.y, self.y_meas, self.residue,
                    self.u_believed, self.u_actual, self.f_hz, self.f_meas_hz,
                    self.p_e, self.r_inf, self.stealthy, self.nominal_hz,
                    self.droop, self.thresholds):
            arr.setflags(write=False)

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
        if basis in ("true", "true_state"):
            return self.f_hz
        raise ValueError(f"unknown signal basis {basis!r}")

    def record(self, k):
        k = int(k)
        if not 0 <= k < self.n_steps:
            raise IndexError(f"step {k} outside trace of {self.n_steps} records")
        return StepRecord(
            k=k, x=self.x[:, k], xhat=self.xhat[:, k],
            u_believed=self.u_believed[:, k], u_actual=self.u_actual[:, k],
            y=self.y[:, k], y_meas=self.y_meas[:, k], residue=self.residue[:, k],
            f_hz=self.f_hz[:, k], p_e=self.p_e[:, k], stealthy=self.stealthy[:, k],
        )


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

    def to_dict(self):
        return {
            "success": self.success,
            "k_prime": self.k_prime,
            "first_detection": self.first_detection,
            "stealthy_until_unsafe": self.stealthy_until_unsafe,
            "signal_basis": self.signal_basis,
        }


def apply_load_map(load_map: LoadMap, breaker_state) -> np.ndarray:
    """Per-generator load deviation for a breaker state vector.

    Deviation form: dP_L_i = sum_j M[i, j] * (b_j - b_nom_j), zero at nominal.
    """
    b = np.asarray(breaker_state)
    if b.shape != (load_map.n_breakers,):
        raise ValueError(
            f"breaker state must have length {load_map.n_breakers}, got {b.shape}")
    if not np.all((b == 0) | (b == 1)):
        raise ValueError("breaker state must be binary")
    return load_map.matrix @ (b.astype(float) - load_map.b_nom.astype(float))


def _pad_schedule(sched, n, length):
    """Extend the per-generator schedule to `length` steps, holding the last value."""
    out = np.zeros((n, length))
    t = min(sched.shape[1], length)
    if t:
        out[:, :t] = sched[:, :t]
        if t < length:
            out[:, t:] = sched[:, t - 1:t]
    return out

def _laa_offsets(load_map, breakers, n, length):
    """Per-generator load offsets for each step; nominal (zero) past the schedule."""
    out = np.zeros((n, length))
    if breakers is None:
        return out
    d = min(breakers.d, length)
    delta = breakers.signals[:d].astype(float) - load_map.b_nom.astype(float)
    out[:, :d] = load_map.matrix @ delta.T
    return out


def simulate(grid: GridModel, attack: Optional[AttackVector], horizon: int,
             init=None, noise=False, rng=None) -> SimTrace:
    """Run the closed loop for `horizon` steps (records 0..horizon).

    The plant consumes the schedule plus any breaker-induced load alteration;
    the estimator consumes the schedule (plus K x_hat when a feedback gain is
    configured) and the falsified measurements.  After the attack's d steps
    the breakers revert to nominal and false data drops to zero.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if attack is not None:
        if attack.breakers.m != grid.n_breakers:
            raise ValueError("attack breaker count does not match grid")
        if attack.d > horizon:
            raise ValueError("attack length d must be <= horizon")
    if noise and rng is None:
        raise ValueError("noise=True requires an rng")

    n = grid.n_generators
    a, b, c, l, k = grid.stacked()
    use_k = bool(np.any(k != 0.0))
    n_steps = horizon + 1

    x0 = np.zeros((n, 4)) if init is None else np.array(init, dtype=float)
    if x0.shape != (n, 4):
        raise ValueError(f"init must be {n}x4")
    xhat0 = x0.copy()

    u_sched = _pad_schedule(grid.scheduled_load, n, n_steps)
    u_laa = _laa_offsets(grid.load_map, attack.breakers if attack else None, n, n_steps)

    a_y, w, v, z, yr, ym, u = buffers(n, n_steps)
    if attack is not None:
        a_y[:, :attack.d] = attack.false_data.values

    if noise:
        for i, (_, loop) in enumerate(grid.generators):
            chol_q = np.linalg.cholesky(loop.q_noise + 1e-300 * np.eye(4))
            w[i] = rng.normal(size=(horizon, 4)) @ chol_q.T
        for i, (_, loop) in enumerate(grid.generators):
            chol_r = np.linalg.cholesky(loop.r_noise)
            v[i] = rng.normal(size=(n_steps, 2)) @ chol_r.T

    steps = step_loop(None, a, b, c, l, k, use_k, x0, xhat0,
                      u_sched, u_laa, a_y, w, v, z, yr, ym, u)
    truncated = steps < n_steps
    z, yr, ym, u = z[:, :steps], yr[:, :steps], ym[:, :steps], u[:, :steps]

    params = [p for p, _ in grid.generators]
    return SimTrace(
        ts=grid.ts,
        nominal_hz=np.array([p.nominal_frequency_hz for p in params]),
        droop=np.array([p.droop for p in params]),
        thresholds=grid.thresholds.copy(),
        x=z[:, :, 0], xhat=z[:, :, 1], y=yr[:, :, 0], y_meas=ym,
        residue=yr[:, :, 1], u_believed=u[:, :, 1], u_actual=u[:, :, 0],
        seed=None if rng is None else (rng.seed, rng.stream_id),
        grid_digest=grid_digest(grid),
        attack_digest=None if attack is None else attack.digest(),
        truncated=truncated,
    )


def grid_digest(grid: GridModel):
    h = hashlib.sha256()
    for p, loop in grid.generators:
        h.update(repr(p).encode())
        for arr in (loop.a, loop.b, loop.c, loop.k_gain, loop.l_gain,
                    loop.q_noise, loop.r_noise):
            h.update(arr.tobytes())
    h.update(grid.load_map.matrix.tobytes())
    h.update(grid.load_map.b_nom.tobytes())
    h.update(grid.thresholds.tobytes())
    h.update(grid.scheduled_load.tobytes())
    return h.hexdigest()[:16]


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


def robustness(trace: SimTrace, envelope, thresholds, signal_basis="measured",
               stealth_mode="until_unsafe") -> float:
    """Quantitative semantics of the stealthy-unsafe goal; negative iff the
    check_success predicate holds.

    rho = min over k' of max(s(k'), g(k')) where s is the worst signed
    frequency margin at k' (negative outside the band) and g is the largest
    residue excess over threshold at any step before k' (the empty maximum at
    k'=0 is floored at -min(Th)).  stealth_mode="all_steps" instead requires
    stealth over the whole trace.
    """
    return robustness_terms(trace.frequency(signal_basis), trace.r_inf, envelope,
                            thresholds, stealth_mode)


def robustness_terms(f, r_inf, envelope, thresholds,
                     stealth_mode="until_unsafe") -> float:
    """robustness() from its two signals, each generators x steps: the
    frequency on the chosen basis and the residue inf-norm."""
    th = np.asarray(thresholds, dtype=float)
    margin = np.minimum(envelope.f_hi - f, f - envelope.f_lo)  # per gen, per step
    s = np.min(margin, axis=0)
    excess = r_inf - th[:, None]
    worst_excess = np.max(excess, axis=0)

    if stealth_mode == "all_steps":
        return float(max(np.max(worst_excess), np.min(s)))
    if stealth_mode != "until_unsafe":
        raise ValueError(f"unknown stealth_mode {stealth_mode!r}")

    # g[k'] = max excess over steps < k'; running maximum shifted by one.
    g = np.empty_like(s)
    g[0] = -float(np.min(th))
    if s.size > 1:
        np.maximum.accumulate(worst_excess[:-1], out=g[1:])
    return float(np.min(np.maximum(s, g)))


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


def trace_csv_text(trace: SimTrace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()
