"""AGC plant construction, discretization, gain design, and grid assembly.

A generator loop is the four-state system (rotor-speed deviation, mechanical
power, valve position, power reference) driven by the load deviation; its
physical parameters are the six keys of AgcParams, and its droop is
1/regulation.  The grid holds n such loops as arrays stacked along a leading
generator axis, with an m-breaker load topology, safety envelopes, and
per-generator residue-detector thresholds.

Conventions: power quantities are per-unit on each generator's rating; the
rotor-speed deviation state is rad/s and is reported as
f = NOMINAL_HZ + dw / (2*pi), every loop at 60 Hz.
"""

import dataclasses
import json
import math
import typing
from dataclasses import dataclass

import numpy as np

from .numerics import RiccatiDivergence, RngStream, mat_exp, solve_dare

N_STATES = 4
N_OUTPUTS = 2
NOMINAL_HZ = 60.0

# The output map of every generator loop: y = (d_omega, d_p_ref), the state
# components MEASURED.  The kernels copy those components rather than form
# C_OUT z: the bits are the same wherever z is finite and its measured
# components are not -0, as in every record the kernels step.
MEASURED = slice(0, N_STATES, 3)
C_OUT = np.eye(N_STATES)[MEASURED]
C_OUT.setflags(write=False)

THRESHOLD_FLOOR = 1e-9


class ConfigError(ValueError):
    """An input schema or invariant violation, at a $.field path or a file."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# The config reader.  Every config section is a dataclass whose fields name
# the section's keys and declare their types and defaults; its __post_init__
# holds the range checks.


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "a boolean"}


def require_keys(doc, path, keys_required, keys_optional=()):
    """doc must be an object with every required key and no key outside
    the required and optional ones."""
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    unknown = set(doc) - set(keys_required) - set(keys_optional)
    if unknown:
        raise ConfigError(path, f"unknown keys: {sorted(unknown)}")
    missing = set(keys_required) - set(doc)
    if missing:
        raise ConfigError(path, f"missing keys: {sorted(missing)}")


def config_value(value, kind, path):
    """A config value read as a field of type kind.

    kind is int, float (an integer is taken as a float), str, bool,
    Literal[...] of the allowed values, or tuple[...] of these for an array
    of that length, whose entries are reported at path[i].
    """
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is typing.Literal:
        if value not in args:
            raise ConfigError(path, f"expected one of {list(args)}, got {value!r}")
        return value
    if origin is tuple:
        if not isinstance(value, list) or len(value) != len(args):
            raise ConfigError(path, f"expected an array of {len(args)}, got {value!r}")
        return tuple(config_value(v, k, f"{path}[{i}]")
                     for i, (v, k) in enumerate(zip(value, args)))
    is_bool = isinstance(value, bool)   # bool is an int subclass
    if isinstance(value, kind) and (kind is bool or not is_bool):
        return value
    if kind is float and isinstance(value, int) and not is_bool:
        return float(value)
    raise ConfigError(path, f"expected {_KIND_NAMES[kind]}, got {value!r}")


def config_object(cls, doc, path):
    """The dataclass cls read from the config object doc at path.

    The keys are cls's field names: the fields without a default are
    required, any other key is rejected, and each value is read by
    config_value against its field's type.  A ValueError from cls's own
    checks is reported at path, unless it is a ConfigError, which names
    its own path.
    """
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    require_keys(doc, path, required, [f.name for f in fields])
    kwargs = {f.name: config_value(doc[f.name], f.type, f"{path}.{f.name}")
              for f in fields if f.name in doc}
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _finite(text):
    """A JSON number or NaN/Infinity constant as a float, if finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number: {text}")
    return value


def _finite_int(text):
    """A JSON integer, if a float holds it finite."""
    _finite(text)
    return int(text)


def read_json_file(path, parse):
    """parse() of the JSON document in the file at path, the one reader of
    every input file.  A ValueError on the way (malformed UTF-8 or JSON, a
    NaN/Infinity constant or a literal that overflows a float, such as 1e400
    or an integer of 400 digits, or parse's own ConfigError with its $.field
    path) is a ConfigError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite, parse_constant=_finite,
                            parse_int=_finite_int)
        return parse(doc)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def write_json(path, doc):
    """doc as JSON with one-space indents and sorted keys, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class AgcParams:
    """Physical parameters of one generator's AGC loop.

    governor_sign picks the sign of the rotor-speed coupling into the valve
    equation (-1 is the physical convention, +1 the alternate printed-matrix
    variant).
    """

    inertia: float                  # H, seconds
    regulation: float               # R, per-unit
    turbine_delay: float            # T_TR, seconds
    governor_delay: float           # T_G, seconds
    integrator_gain: float          # K_ref, per-unit
    governor_sign: int = -1

    def __post_init__(self):
        if not self.inertia > 0:
            raise ValueError("inertia must be > 0")
        if not self.turbine_delay > 0:
            raise ValueError("turbine_delay must be > 0")
        if not self.governor_delay > 0:
            raise ValueError("governor_delay must be > 0")
        if not self.regulation > 0:
            raise ValueError("regulation must be > 0")
        if self.governor_sign not in (-1, 1):
            raise ValueError("governor_sign must be -1 or +1")

    @property
    def droop(self):
        """D = 1/R, per-unit."""
        return 1.0 / self.regulation


@dataclass(frozen=True)
class LoadMap:
    """Breaker-to-load topology: entry [i, j] is the per-unit load that
    breaker j's feeder contributes to generator i."""

    matrix: np.ndarray   # n x m, entries >= 0
    b_nom: np.ndarray    # m nominal breaker states in {0, 1}

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)   # a copy: the caller's stays writable
        b = np.asarray(self.b_nom)
        if m.ndim != 2 or m.shape[1] < 1:
            raise ValueError("load map matrix must be n x m with m >= 1")
        if np.any(m < 0):
            raise ValueError("load map entries must be >= 0")
        if b.shape != (m.shape[1],) or not np.all((b == 0) | (b == 1)):
            raise ValueError("b_nom must be m binary entries")
        b = b.astype(np.int64)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "b_nom", b)
        dead = np.where(~m.any(axis=0))[0]
        if dead.size:
            raise ValueError(f"load map columns with all-zero entries: {dead.tolist()}")
        m.setflags(write=False)
        b.setflags(write=False)

    @property
    def n_breakers(self):
        return self.matrix.shape[1]

    def offsets(self, signals):
        """Per-generator load offsets M (b - b_nom) of breaker states: (n,)
        for one state of shape (m,), (n, d) for a block of d states (d, m)."""
        return self.matrix @ (np.asarray(signals, dtype=float)
                              - self.b_nom.astype(float)).T


@dataclass(frozen=True)
class SafetyEnvelope:
    f_lo: float
    f_hi: float
    pe_lo: float
    pe_hi: float

    def __post_init__(self):
        if not self.f_lo < self.f_hi:
            raise ValueError("f_lo must be < f_hi")
        if not self.pe_lo < self.pe_hi:
            raise ValueError("pe_lo must be < pe_hi")


@dataclass(frozen=True)
class Calibration:
    """Detector-threshold calibration: an unattacked noisy run of horizon
    steps on RngStream(seed, 0); each threshold is margin times the peak
    residue of its generator."""

    horizon: int = 1000
    margin: float = 1.1
    seed: int = 2024

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self.margin >= 1.0:
            raise ValueError("margin must be >= 1")


@dataclass(frozen=True)
class GridModel:
    """n generator loops with their load topology, safety envelope and
    residue thresholds.  The loop arrays are read-only and stacked along a
    leading generator axis, the layout kernels.step_loop steps; every loop
    reads its outputs through C_OUT."""

    droop: np.ndarray                 # n droops D = 1/R, per-unit
    a: np.ndarray                     # n x 4 x 4 discretized plant
    b: np.ndarray                     # n x 4 load input
    l: np.ndarray                     # n x 4 x 2 estimator gains
    k: np.ndarray                     # n x 4 state-feedback gains (0 by default)
    q_noise: np.ndarray               # n x 4 x 4 process covariances
    r_noise: np.ndarray               # n x 2 x 2 measurement covariances
    ts: float                         # sampling period of every loop, seconds
    load_map: LoadMap
    envelope: SafetyEnvelope
    thresholds: np.ndarray            # n residue thresholds
    scheduled_load: np.ndarray        # n x T_sched per-unit load schedule, T_sched >= 1
    noise_enabled: bool = True

    def __post_init__(self):
        n = len(self.droop)
        if n < 1:
            raise ValueError("grid needs at least one generator")
        if not self.ts > 0:
            raise ValueError("ts must be > 0")
        shapes = {"droop": (), "a": (4, 4), "b": (4,), "l": (4, 2),
                  "k": (4,), "q_noise": (4, 4), "r_noise": (2, 2), "thresholds": ()}
        for name, shape in shapes.items():
            arr = np.array(getattr(self, name), dtype=float)   # frozen below, so a copy
            if arr.shape != (n,) + shape:
                raise ValueError(f"{name} must have shape {(n,) + shape}, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.thresholds <= 0):
            raise ValueError("thresholds must be n positive values")
        sched = np.array(self.scheduled_load, dtype=float)
        object.__setattr__(self, "scheduled_load", sched)
        if sched.ndim != 2 or sched.shape[0] != n or sched.shape[1] < 1:
            raise ValueError("scheduled_load must be n x T with T >= 1")
        if self.load_map.matrix.shape[0] != n:
            raise ValueError("load map rows must match generator count")
        sched.setflags(write=False)

    @property
    def n_generators(self):
        return len(self.droop)

    @property
    def n_breakers(self):
        return self.load_map.n_breakers

    def schedule(self, start, length):
        """Scheduled load of steps start..start + length - 1, n x length;
        past the end of scheduled_load its last column is held."""
        last = self.scheduled_load.shape[1] - 1
        return self.scheduled_load[:, np.minimum(np.arange(start, start + length), last)]


def build_continuous(params: AgcParams):
    """The four-state continuous-time AGC loop (A_c, B_c) of one generator,
    4 x 4 and 4 x 1; its output map is C_OUT."""
    d, h = params.droop, params.inertia
    t_tr, t_g = params.turbine_delay, params.governor_delay
    r, k_ref = params.regulation, params.integrator_gain
    rate_coupling = params.governor_sign / (r * t_g)
    a_c = np.array([
        [-d / (2 * h), 1 / (2 * h), 0.0, 0.0],
        [0.0, -1 / t_tr, 1 / t_tr, 0.0],
        [rate_coupling, 0.0, -1 / t_g, 1 / t_g],
        [-k_ref, 0.0, 0.0, 0.0],
    ])
    b_c = np.array([[-1 / (2 * h)], [0.0], [0.0], [0.0]])
    return a_c, b_c


def discretize_zoh(a_c, b_c, ts: float):
    """Exact zero-order-hold discretization (A, B) of (A_c, B_c) via the
    block matrix exponential; the output map and zero feedthrough carry over.
    """
    if not ts > 0:
        raise ValueError("ts must be > 0")
    n, k = a_c.shape[0], b_c.shape[1]
    block = np.zeros((n + k, n + k))
    block[:n, :n] = a_c
    block[:n, n:] = b_c
    ed = mat_exp(block * ts)
    a, b = ed[:n, :n], ed[:n, n:]
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("discretization produced non-finite matrices")
    return a, b


def spectral_radius(m):
    """The spectral radius of the matrix m, or of each matrix of a stack."""
    return np.max(np.abs(np.linalg.eigvals(m)), axis=-1)


class DesignFailure(ValueError):
    """A gain design failed on problem `problem`, its index in the stack."""

    def __init__(self, problem, message):
        super().__init__(message)
        self.problem = problem


def design_kalman_gain(a, c, q_n, r_n):
    """Steady-state estimator gain L = A P C' (C P C' + R)^-1.

    P solves the filter Riccati equation (dual of the control form).  The
    arguments may be stacks (k, ...) of k loops, designed in one stacked
    Riccati solve, each bitwise as if alone.  The returned gain always
    satisfies rho(A - L C) < 1; otherwise DesignFailure names the loop.
    """
    a, c, q_n, r_n = (np.asarray(m, dtype=float) for m in (a, c, q_n, r_n))
    ct = np.swapaxes(c, -1, -2)
    try:
        p = solve_dare(np.swapaxes(a, -1, -2), ct, q_n, r_n)
    except RiccatiDivergence as exc:
        raise DesignFailure(exc.problem, str(exc)) from None
    s = c @ p @ ct + r_n
    l = a @ p @ ct @ np.linalg.inv(s)
    rad = spectral_radius(a - l @ c)
    for i, rho in enumerate(np.atleast_1d(rad)):
        if not rho < 1.0:
            raise DesignFailure(i, f"designed estimator is not contracting: rho = {rho}")
    return l


def design_lqr_gain(a, b, q_c, r_c):
    """Discrete LQR gain K = (R + B'PB)^-1 B'PA from the control Riccati solution."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = solve_dare(a, b, np.asarray(q_c, dtype=float), np.asarray(r_c, dtype=float))
    return np.linalg.solve(r_c + b.T @ p @ b, b.T @ p @ a)


def calibrate_threshold(grid: GridModel, calibration: Calibration):
    """Per-generator detector thresholds from an unattacked noisy run.

    Th_i = margin * max_k ||r_i_k||_inf over the calibration horizon,
    floored at THRESHOLD_FLOOR so a noise-free grid still yields usable
    thresholds.  Raises if the nominal run itself leaves the frequency
    envelope.
    """
    from .sim import simulate  # local import to avoid a cycle

    trace = simulate(grid, attack=None, horizon=calibration.horizon,
                     noise=grid.noise_enabled, rng=RngStream(calibration.seed, 0))
    f = trace.f_hz
    if np.any(f < grid.envelope.f_lo) or np.any(f > grid.envelope.f_hi):
        raise ValueError("nominal run leaves the frequency envelope; "
                         "grid is mis-configured")
    peak = np.max(trace.r_inf, axis=1)
    return np.maximum(calibration.margin * peak, THRESHOLD_FLOOR)


# ---------------------------------------------------------------------------
# Grid-config loading


def _matrix(value, path, shape=None):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(path, "expected a numeric array") from None
    if shape is not None and arr.shape != shape:
        raise ConfigError(path, f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(path, "non-finite entries")
    return arr


def _covariance(value, path, dim):
    """Scalar -> scaled identity; otherwise a full dim x dim matrix."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < 0:
            raise ConfigError(path, "covariance scale must be >= 0")
        return float(value) * np.eye(dim)
    return _matrix(value, path, (dim, dim))


def noise_factors(q_noise, r_noise, path="$.generators"):
    """The Cholesky factors, one generator's or stacked, that the noise draw
    scales its normals by: of q_noise + 1e-300 I, so a zero variance factors,
    and of r_noise, each read from its lower triangle.  A failure is a
    ConfigError at path.noise.process or path.noise.measurement."""
    factors = []
    for key, cov in (("process", q_noise + 1e-300 * np.eye(N_STATES)), ("measurement", r_noise)):
        try:
            factors.append(np.linalg.cholesky(cov))
        except np.linalg.LinAlgError as exc:
            raise ConfigError(f"{path}.noise.{key}", f"no Cholesky factor: {exc}") from None
    return factors


def _load_generator(doc, path, ts):
    """One generator's loop arrays, keyed by GridModel field, its estimator
    gain l None when it is left to design_kalman_gain."""
    require_keys(doc, path, ["params"], ["gains", "noise"])
    params = config_object(AgcParams, doc["params"], f"{path}.params")

    noise = doc.get("noise", {})
    require_keys(noise, f"{path}.noise", [], ["process", "measurement"])
    q_n = _covariance(noise.get("process", 1e-6), f"{path}.noise.process", N_STATES)
    r_n = _covariance(noise.get("measurement", 1e-6), f"{path}.noise.measurement", N_OUTPUTS)
    noise_factors(q_n, r_n, path)
    if np.min(np.linalg.eigvalsh(0.5 * (r_n + r_n.T))) <= 0:
        raise ConfigError(f"{path}.noise.measurement", "must be positive definite")

    a, b = discretize_zoh(*build_continuous(params), ts)

    gains = doc.get("gains", {})
    require_keys(gains, f"{path}.gains", [], ["k", "l", "lqr"])
    if "k" in gains and "lqr" in gains:
        raise ConfigError(f"{path}.gains", "give either k or lqr, not both")
    if "lqr" in gains:
        lqr = gains["lqr"]
        require_keys(lqr, f"{path}.gains.lqr", ["q", "r"])
        # The loop applies u = u_sched + K x_hat; the LQR gain is for u = -K x.
        k = -design_lqr_gain(a, b, _covariance(lqr["q"], f"{path}.gains.lqr.q", N_STATES),
                             _covariance(lqr["r"], f"{path}.gains.lqr.r", 1))
    else:
        k = _matrix(gains.get("k", np.zeros((1, N_STATES))),
                    f"{path}.gains.k", (1, N_STATES))
    l = None
    if "l" in gains:   # design_kalman_gain checks the gains it designs
        l = _matrix(gains["l"], f"{path}.gains.l", (N_STATES, N_OUTPUTS))
        rho = spectral_radius(a - l @ C_OUT)
        if not rho < 1.0:
            raise ConfigError(path, f"estimator loop unstable: rho(A - L C) = {rho}")
    return dict(droop=params.droop, a=a, b=b[:, 0], l=l, k=k[0],
                q_noise=q_n, r_noise=r_n)


def _load_generators(gens_doc, ts):
    """Every generator's loop arrays, stacked by GridModel field.  The
    estimator gains left out of the config are designed in one stacked call,
    after every generator has been read."""
    paths = [f"$.generators[{i}]" for i in range(len(gens_doc))]
    loops = [_load_generator(g, path, ts) for g, path in zip(gens_doc, paths)]
    design = [i for i, loop in enumerate(loops) if loop["l"] is None]
    if design:
        a, q_n, r_n = (np.stack([loops[i][key] for i in design])
                       for key in ("a", "q_noise", "r_noise"))
        try:
            gains = design_kalman_gain(a, np.broadcast_to(C_OUT, (len(design), 2, 4)), q_n, r_n)
        except DesignFailure as exc:
            raise ConfigError(f"{paths[design[exc.problem]]}.gains.l",
                              f"estimator design failed: {exc}") from None
        for i, l in zip(design, gains):
            loops[i]["l"] = l
    return {key: np.stack([loop[key] for loop in loops]) for key in loops[0]}


def load_grid_config(document) -> GridModel:
    """Build a fully validated GridModel from a parsed config document.

    Estimator gains are designed on load when not supplied; thresholds are
    calibrated from a nominal noisy run when absent.  Errors are
    ConfigErrors at their $.field path.
    """
    require_keys(document, "$",
                 ["generators", "load_map", "envelope", "sampling_period_s"],
                 ["thresholds", "scheduled_load", "calibration", "noise_enabled"])

    ts = config_value(document["sampling_period_s"], float, "$.sampling_period_s")
    if ts <= 0:
        raise ConfigError("$.sampling_period_s", "must be > 0")

    gens_doc = document["generators"]
    if not isinstance(gens_doc, list) or not gens_doc:
        raise ConfigError("$.generators", "must be a non-empty array")
    loops = _load_generators(gens_doc, ts)
    n = len(gens_doc)

    lm_doc = document["load_map"]
    require_keys(lm_doc, "$.load_map", ["matrix", "b_nom"])
    matrix = _matrix(lm_doc["matrix"], "$.load_map.matrix")
    b_nom = lm_doc["b_nom"]
    if not isinstance(b_nom, list):
        raise ConfigError("$.load_map.b_nom", f"expected an array, got {b_nom!r}")
    for i, state in enumerate(b_nom):
        if config_value(state, int, f"$.load_map.b_nom[{i}]") not in (0, 1):
            raise ConfigError(f"$.load_map.b_nom[{i}]", f"expected 0 or 1, got {state!r}")
    try:
        load_map = LoadMap(matrix=matrix, b_nom=b_nom)
    except ValueError as exc:
        raise ConfigError("$.load_map", str(exc)) from None
    if load_map.matrix.shape[0] != n:
        raise ConfigError("$.load_map.matrix",
                          f"expected {n} rows (one per generator), got {load_map.matrix.shape[0]}")

    envelope = config_object(SafetyEnvelope, document["envelope"], "$.envelope")

    sched = document.get("scheduled_load", [[0.0]] * n)
    sched = _matrix(sched, "$.scheduled_load")
    if sched.ndim != 2 or sched.shape[0] != n or sched.shape[1] < 1:
        raise ConfigError("$.scheduled_load", f"must be {n} rows of at least one column")

    noise_enabled = config_value(document.get("noise_enabled", True), bool,
                                 "$.noise_enabled")
    calibration = config_object(Calibration, document.get("calibration", {}),
                                "$.calibration")
    calibrate = "thresholds" not in document
    if calibrate:
        thresholds = np.ones(n)    # placeholders for the calibration run
    else:
        thresholds = _matrix(document["thresholds"], "$.thresholds", (n,))
        if np.any(thresholds <= 0):
            raise ConfigError("$.thresholds", "must be positive")
    grid = GridModel(**loops, ts=ts, load_map=load_map,
                     envelope=envelope, thresholds=thresholds,
                     scheduled_load=sched, noise_enabled=noise_enabled)
    if calibrate:
        grid = dataclasses.replace(grid, thresholds=calibrate_threshold(grid, calibration))
    return grid


def load_grid_config_file(path) -> GridModel:
    return read_json_file(path, load_grid_config)
