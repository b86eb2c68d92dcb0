"""False-data synthesis by stochastic falsification.

Given a fixed breaker schedule, searches the bounded false-data box for a
d-step injection sequence whose combined trace is unsafe before first
detection (robustness < 0).  The search is Monte-Carlo sampling plus
simulated-annealing acceptance over a zero-order-hold control-point
parameterization, with independent restarts.

With the breaker schedule fixed and noise off, the trace signals that
robustness reads are affine in the knots.  So the search scores candidates
with an AffineModel built from 1 + q_att * P simulations, not with one
simulation each.  The zero screen and every reported rho come from
simulation: each restart's best model-scored candidate is re-scored with
objective().
"""

import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import GridModel
from .numerics import RngStream
from .sim import (AttackVector, BreakerSchedule, FalseDataSchedule, SimTrace,
                  SuccessReport, check_success, robustness, robustness_terms,
                  simulate)

N_OUTPUTS = 2

SIGMA_INIT = 0.10          # proposal scale, fraction of box width
SIGMA_FLOOR = 0.005
REJECTION_WINDOW = 20      # consecutive rejections before halving sigma
COOLING_WINDOW = 20        # evaluations per temperature decay
COOLING_FACTOR = 0.98


class ValidationMismatch(RuntimeError):
    """Deterministic re-simulation disagreed with the search result."""


@dataclass(frozen=True)
class FalsificationProblem:
    grid: GridModel
    laa: BreakerSchedule
    d: int
    range_lo: float
    range_hi: float
    mask: np.ndarray                  # q binary, at least one 1
    init: Optional[np.ndarray] = None  # n x 4 initial state
    control_points: int = 10
    signal_basis: str = "measured"
    stealth_mode: str = "until_unsafe"

    def __post_init__(self):
        mask = np.asarray(self.mask).astype(np.int64)
        object.__setattr__(self, "mask", mask)
        if mask.shape != (N_OUTPUTS,) or not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask must be q binary entries")
        if mask.sum() < 1:
            raise ValueError("mask must attack at least one output")
        if not self.range_lo <= self.range_hi:
            raise ValueError("range_lo must be <= range_hi")
        if self.control_points < 1:
            raise ValueError("control_points must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.laa.d != self.d:
            raise ValueError("breaker schedule length must equal d")
        if self.init is not None:
            init = np.asarray(self.init, dtype=float)
            if init.shape != (self.grid.n_generators, 4):
                raise ValueError("init must be n x 4")
            object.__setattr__(self, "init", init)
        mask.setflags(write=False)

    @property
    def n_attacked(self):
        return int(self.mask.sum())

    @property
    def dims(self):
        return self.grid.n_generators * self.n_attacked * self.control_points


@dataclass(frozen=True)
class Candidate:
    """Knot values per (generator, attacked output): n x q_att x P."""

    knots: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)


def knot_boundaries(d, p):
    return [int(np.floor(j * d / p)) for j in range(p + 1)]


def decode_control_points(candidate: Candidate, d: int) -> FalseDataSchedule:
    """Zero-order-hold expansion of the knots onto d steps.

    Knot j covers steps floor(j*d/P) .. floor((j+1)*d/P)-1; with P = d the
    decode is the identity.
    """
    n, q_att, p = candidate.knots.shape
    bounds = knot_boundaries(d, p)
    attacked = np.flatnonzero(candidate.mask)
    values = np.zeros((n, d, N_OUTPUTS))
    for j in range(p):
        lo, hi = bounds[j], bounds[j + 1]
        if lo >= hi:
            continue
        values[:, lo:hi, attacked] = candidate.knots[:, None, :, j]
    return FalseDataSchedule(values=values, mask=candidate.mask.copy())


def _trace(problem: FalsificationProblem, candidate: Candidate) -> SimTrace:
    schedule = decode_control_points(candidate, problem.d)
    attack = AttackVector(breakers=problem.laa, false_data=schedule)
    return simulate(problem.grid, attack, horizon=problem.d,
                    init=problem.init, noise=False)


def objective(problem: FalsificationProblem, candidate: Candidate) -> float:
    """Robustness of the combined trace for this candidate; +inf on blow-up."""
    trace = _trace(problem, candidate)
    if trace.truncated:
        return float("inf")
    return robustness(trace, problem.grid.envelope, problem.grid.thresholds,
                      problem.signal_basis, problem.stealth_mode)


def _signals(problem: FalsificationProblem, trace: SimTrace) -> np.ndarray:
    """n x steps x 3: the frequency on the problem's basis and both residues."""
    f = trace.frequency(problem.signal_basis)
    return np.concatenate([f[:, :, None], trace.residue], axis=2)


@dataclass(frozen=True)
class AffineModel:
    """The noise-free trace of one problem as an affine map of its knots.

    With the breaker schedule fixed and noise off, false data enters the
    measured outputs and, through the residue, the estimator, both linearly;
    it never reaches the plant.  So the frequency and the residue are the
    trace at all-zero knots plus each knot's value times its unit response.
    """

    problem: FalsificationProblem
    base: np.ndarray        # n x steps x 3, from _signals at all-zero knots
    responses: np.ndarray   # n x (q_att * P) x (steps * 3), one row per knot

    def signals(self, candidate: Candidate) -> np.ndarray:
        """The candidate's _signals, from the model."""
        n, k, _ = self.responses.shape
        delta = np.einsum("nk,nkm->nm", candidate.knots.reshape(n, k), self.responses)
        return self.base + delta.reshape(self.base.shape)

    def score(self, candidate: Candidate) -> float:
        """objective() of the candidate from the model; +inf when non-finite."""
        sig = self.signals(candidate)
        if not np.all(np.isfinite(sig)):
            return float("inf")
        p = self.problem
        return robustness_terms(sig[:, :, 0], np.max(np.abs(sig[:, :, 1:]), axis=2),
                                p.grid.envelope, p.grid.thresholds, p.stealth_mode)


def affine_model(problem: FalsificationProblem):
    """Build the AffineModel of a problem from 1 + q_att * P simulations.

    False data does not couple generators (each generator's plant and
    estimator step on their own), so one run with a knot set to 1 on every
    generator gives that knot's response on all of them.  Returns (model,
    simulations run); the model is None when a run truncates, because the
    trace is then not affine.
    """
    n, q_att, p = problem.grid.n_generators, problem.n_attacked, problem.control_points
    runs = []
    for unit in range(-1, q_att * p):       # -1: the all-zero base run
        knots = np.zeros((n, q_att * p))
        if unit >= 0:
            knots[:, unit] = 1.0
        trace = _trace(problem, Candidate(knots=knots.reshape(n, q_att, p),
                                          mask=problem.mask))
        if trace.truncated:
            return None, len(runs) + 1
        runs.append(_signals(problem, trace))
    sig = np.stack(runs, axis=1)            # n x (1 + q_att * P) x steps x 3
    responses = (sig[:, 1:] - sig[:, :1]).reshape(n, q_att * p, -1)
    return AffineModel(problem=problem, base=sig[:, 0], responses=responses), len(runs)


def sample_candidate(problem: FalsificationProblem, rng: RngStream) -> Candidate:
    shape = (problem.grid.n_generators, problem.n_attacked, problem.control_points)
    knots = rng.uniform(problem.range_lo, problem.range_hi, size=shape)
    return Candidate(knots=knots, mask=problem.mask.copy())


def zero_candidate(problem: FalsificationProblem) -> Candidate:
    shape = (problem.grid.n_generators, problem.n_attacked, problem.control_points)
    zero = np.clip(np.zeros(shape), problem.range_lo, problem.range_hi)
    return Candidate(knots=zero, mask=problem.mask.copy())


@dataclass
class RestartHistory:
    restart: int
    evaluations: int
    best_rho: float
    success: bool


@dataclass
class FalsifyResult:
    best_candidate: Candidate
    best_schedule: FalseDataSchedule
    best_rho: float
    evaluations: int
    success: bool
    history: list = field(default_factory=list)
    simulations: int = 0     # every simulate() run of the search

    def __post_init__(self):
        assert self.success == (self.best_rho < 0.0)


def _anneal_restart(problem, budget, rng, score):
    """One simulated-annealing restart; returns (best_rho, best_candidate, evals)."""
    width = problem.range_hi - problem.range_lo
    evals = 0

    current = sample_candidate(problem, rng)
    rho_cur = score(current)
    evals += 1
    best, rho_best = current, rho_cur
    if rho_best < 0.0 or width <= 0.0:
        return rho_best, best, evals

    temp = max(abs(rho_cur), 1e-12)
    sigma = SIGMA_INIT
    consecutive_rejects = 0

    while evals < budget:
        step = rng.normal(scale=sigma * width, size=current.knots.shape)
        proposal = Candidate(
            knots=np.clip(current.knots + step, problem.range_lo, problem.range_hi),
            mask=current.mask)
        rho_new = score(proposal)
        evals += 1
        if rho_new < rho_best:
            best, rho_best = proposal, rho_new
            if rho_best < 0.0:
                break
        delta = rho_new - rho_cur
        accept = delta <= 0.0
        if not accept and np.isfinite(delta):
            accept = rng.uniform() < np.exp(-delta / temp)
        if accept:
            current, rho_cur = proposal, rho_new
            consecutive_rejects = 0
        else:
            consecutive_rejects += 1
            if consecutive_rejects >= REJECTION_WINDOW:
                sigma = max(sigma / 2.0, SIGMA_FLOOR)
                consecutive_rejects = 0
        if evals % COOLING_WINDOW == 0:
            temp *= COOLING_FACTOR
    return rho_best, best, evals


def falsify_sa(problem: FalsificationProblem, budget: int, restarts: int,
               rng: RngStream) -> FalsifyResult:
    """Monte-Carlo sampled, simulated-annealing driven robustness minimization.

    The zero injection (the search's natural starting assignment) is screened
    first; each restart then anneals from an independent uniform sample with
    its own split rng stream, and no restart starts once one has found a
    counter-example.  The annealing scores candidates with the problem's
    AffineModel when the search can make more scores than the model's
    1 + q_att * P build runs cost, and with objective() otherwise or when a
    build run truncates.  Each restart's best model score is then replaced
    by objective() of its candidate, so only simulated values are reported
    and compared (lowest rho, earliest restart wins).  A budget below the
    restart count runs one restart per evaluation.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    z = zero_candidate(problem)
    rho_zero = objective(problem, z)
    evaluations = simulations = 1
    best_rho, best_cand = rho_zero, z
    history = [RestartHistory(restart=-1, evaluations=1, best_rho=rho_zero,
                              success=rho_zero < 0.0)]

    if rho_zero >= 0.0:
        restarts = min(restarts, budget)
        budgets = [budget // restarts + (1 if i < budget % restarts else 0)
                   for i in range(restarts)]
        # A zero-width box stops each restart after its first score.
        max_scores = budget if problem.range_hi > problem.range_lo else restarts
        model = None
        if max_scores > 1 + problem.n_attacked * problem.control_points:
            model, built = affine_model(problem)
            simulations += built
        if model is not None:
            score = model.score
        else:
            def score(cand):
                nonlocal simulations
                simulations += 1
                return objective(problem, cand)

        for i in range(restarts):
            rho_i, cand_i, evals_i = _anneal_restart(problem, budgets[i], rng.split(i),
                                                     score)
            if model is not None:   # objective() scores are already simulated
                rho_i = objective(problem, cand_i)
                simulations += 1
            evaluations += evals_i
            history.append(RestartHistory(restart=i, evaluations=evals_i,
                                          best_rho=rho_i, success=rho_i < 0.0))
            if rho_i < best_rho:   # ties keep the earliest restart
                best_rho, best_cand = rho_i, cand_i
            if rho_i < 0.0:
                break

    return FalsifyResult(
        best_candidate=best_cand,
        best_schedule=decode_control_points(best_cand, problem.d),
        best_rho=float(best_rho),
        evaluations=evaluations,
        success=best_rho < 0.0,
        history=history,
        simulations=simulations,
    )


@dataclass
class SynthesisOutcome:
    attack: Optional[AttackVector]
    result: FalsifyResult
    validation: Optional[SuccessReport]
    noise_success_fraction: Optional[float]
    wall_s: dict            # seconds spent in "search" and "validation"


def synthesize_and_validate(grid: GridModel, laa: BreakerSchedule, rng: RngStream,
                            d=None, range_lo=-0.05, range_hi=0.05,
                            mask=(0, 1), init=None, control_points=10,
                            signal_basis="measured", stealth_mode="until_unsafe",
                            budget=2000, restarts=10,
                            noise_check_seeds=20) -> SynthesisOutcome:
    """Run the search, then re-simulate the winner and assert it still wins.

    Returns the verified attack vector (None when no counter-example exists
    within budget) plus a Monte-Carlo success fraction under the grid's
    configured noise, as a robustness indicator for the deterministic result.
    """
    problem = FalsificationProblem(
        grid=grid, laa=laa, d=laa.d if d is None else d,
        range_lo=range_lo, range_hi=range_hi, mask=np.asarray(mask),
        init=init, control_points=control_points,
        signal_basis=signal_basis, stealth_mode=stealth_mode)
    t0 = time.perf_counter()
    result = falsify_sa(problem, budget=budget, restarts=restarts,
                        rng=rng.split(0xFA15))
    t_search = time.perf_counter()
    if not result.success:
        return SynthesisOutcome(attack=None, result=result, validation=None,
                                noise_success_fraction=None,
                                wall_s={"search": t_search - t0, "validation": 0.0})

    attack = AttackVector(breakers=laa, false_data=result.best_schedule)
    rho_check = objective(problem, result.best_candidate)
    if rho_check != result.best_rho:
        raise ValidationMismatch(
            f"re-simulated rho {rho_check!r} != search rho {result.best_rho!r}")
    trace = simulate(grid, attack, horizon=problem.d, init=problem.init,
                     noise=False)
    report = check_success(trace, grid.envelope, grid.thresholds, signal_basis)
    if not report.success:
        raise ValidationMismatch("validation re-run does not satisfy the "
                                 "success predicate despite rho < 0")

    frac = None
    if noise_check_seeds:
        wins = 0
        for s in range(noise_check_seeds):
            noisy = simulate(grid, attack, horizon=problem.d, init=problem.init,
                             noise=True, rng=rng.split(0xBEEF + s))
            rep = check_success(noisy, grid.envelope, grid.thresholds, signal_basis)
            wins += int(rep.success)
        frac = wins / noise_check_seeds

    return SynthesisOutcome(attack=attack, result=result, validation=report,
                            noise_success_fraction=frac,
                            wall_s={"search": t_search - t0,
                                    "validation": time.perf_counter() - t_search})


# ---------------------------------------------------------------------------
# Attack-vector interchange format


def attack_to_document(attack: AttackVector, range_lo, range_hi, provenance=None):
    return {
        "d": attack.d,
        "breaker_schedule": attack.breakers.signals.tolist(),
        "false_data": attack.false_data.values.tolist(),
        "mask": attack.false_data.mask.tolist(),
        "range": [range_lo, range_hi],
        "provenance": provenance or {},
    }


def save_attack(path, attack: AttackVector, range_lo, range_hi, provenance=None):
    doc = attack_to_document(attack, range_lo, range_hi, provenance)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_attack(document) -> AttackVector:
    """Parse and validate an attack-vector document (dict or JSON text)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid attack JSON: {exc}") from None
    required = {"d", "breaker_schedule", "false_data", "mask", "range"}
    if not isinstance(document, dict):
        raise ValueError("attack document must be an object")
    missing = required - set(document)
    if missing:
        raise ValueError(f"attack document missing keys: {sorted(missing)}")
    d = document["d"]
    breakers = BreakerSchedule(signals=np.asarray(document["breaker_schedule"]))
    false_data = FalseDataSchedule(values=np.asarray(document["false_data"], dtype=float),
                                   mask=np.asarray(document["mask"]))
    if breakers.d != d or false_data.d != d:
        raise ValueError("schedule lengths disagree with d")
    lo, hi = document["range"]
    if np.any(false_data.values < lo) or np.any(false_data.values > hi):
        raise ValueError("false data outside its declared range")
    return AttackVector(breakers=breakers, false_data=false_data)


def load_attack_file(path) -> AttackVector:
    with open(path, "r", encoding="utf-8") as fh:
        return load_attack(fh.read())


# ---------------------------------------------------------------------------
# Breaker-schedule interchange format


def save_schedule(path, schedule: BreakerSchedule):
    doc = {"d": schedule.d, "m": schedule.m, "signals": schedule.signals.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_schedule(document) -> BreakerSchedule:
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid schedule JSON: {exc}") from None
    if not isinstance(document, dict) or "signals" not in document:
        raise ValueError("schedule document must be an object with 'signals'")
    schedule = BreakerSchedule(signals=np.asarray(document["signals"]))
    if "d" in document and schedule.d != document["d"]:
        raise ValueError("schedule length disagrees with d")
    if "m" in document and schedule.m != document["m"]:
        raise ValueError("schedule width disagrees with m")
    return schedule


def load_schedule_file(path) -> BreakerSchedule:
    with open(path, "r", encoding="utf-8") as fh:
        return load_schedule(fh.read())
