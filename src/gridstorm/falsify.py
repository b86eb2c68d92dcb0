"""False-data synthesis by stochastic falsification.

Given a fixed breaker schedule, searches the bounded false-data box for a
d-step injection sequence whose combined trace is unsafe before first
detection (robustness < 0).  The search is Monte-Carlo sampling plus
simulated-annealing acceptance over a zero-order-hold control-point
parameterization, with independent restarts.

With the breaker schedule fixed and noise off, the trace signals that
robustness reads are affine in the knots.  So the search scores every
candidate with an AffineModel built from 1 + q_att * P runs in one loop,
not with one simulation each; a build run that blows up makes every model
score +inf.  Each restart draws from its own stream, so the restarts
anneal in lockstep: one round scores the next proposal of every active
restart in one stacked call.  Every reported rho comes from simulation.
The model is built first; the zero screen is its all-zero base run when
the box holds 0, else a run of its own; a restart whose model score turns
negative is simulated as soon as it stops, the other restarts' best
candidates in one stacked run at the end.  The winner is then simulated
once more, and that one trace must give the same rho and satisfy the
success predicate.
"""

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, Optional

import numpy as np

from .model import N_OUTPUTS, GridModel, config_value, read_json_file, write_json
from .numerics import RngStream
from .sim import (SIGNAL_BASES, AttackVector, BreakerSchedule, FalseDataSchedule,
                  SimTrace, SuccessReport, check_success, frequency_margin, robustness,
                  robustness_terms, running_excess, simulate, simulate_many)

SIGMA_INIT = 0.10          # proposal scale, fraction of box width
SIGMA_FLOOR = 0.005
REJECTION_WINDOW = 20      # consecutive rejections before halving sigma
COOLING_WINDOW = 20        # evaluations per temperature decay
COOLING_FACTOR = 0.98


class ValidationMismatch(RuntimeError):
    """Deterministic re-simulation disagreed with the search result."""


@dataclass(frozen=True)
class FalsifyConfig:
    """The falsify config: the false-data box, the search and the checks of
    its winner.  range bounds every injected value, mask picks the attacked
    outputs, and noise_check_seeds noisy re-runs estimate how often the
    verified attack also succeeds under the grid's noise."""

    range: tuple[float, float] = (-0.05, 0.05)
    mask: tuple[int, int] = (0, 1)
    control_points: int = 10
    budget: int = 2000
    restarts: int = 10
    signal_basis: Literal[SIGNAL_BASES] = "measured"
    noise_check_seeds: int = 20

    def __post_init__(self):
        if not self.range[0] <= self.range[1]:
            raise ValueError("range[0] must be <= range[1]")
        if not np.isfinite(self.range[1] - self.range[0]):
            raise ValueError("range must have a finite width")
        if (len(self.mask) != N_OUTPUTS or not set(self.mask) <= {0, 1}
                or 1 not in self.mask):
            raise ValueError(f"mask must be {N_OUTPUTS} binary entries, at least one 1")
        for name in ("control_points", "budget", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.noise_check_seeds < 0:
            raise ValueError("noise_check_seeds must be >= 0")


@dataclass(frozen=True)
class FalsificationProblem:
    """A falsify config applied to one grid and breaker schedule."""

    grid: GridModel
    laa: BreakerSchedule
    config: FalsifyConfig

    @cached_property
    def mask(self):
        mask = np.array(self.config.mask)
        mask.setflags(write=False)
        return mask

    @property
    def d(self):
        return self.laa.d

    @property
    def n_attacked(self):
        return sum(self.config.mask)


def knot_boundaries(d, p):
    return [j * d // p for j in range(p + 1)]


def decode_control_points(knots: np.ndarray, mask, d: int) -> FalseDataSchedule:
    """Zero-order-hold expansion of n x q_att x P knots onto d steps of the
    outputs that mask attacks.

    Knot j covers steps floor(j*d/P) .. floor((j+1)*d/P)-1, none when P > d
    leaves its segment empty; with P = d the decode is the identity.
    """
    held = np.repeat(knots, np.diff(knot_boundaries(d, knots.shape[2])), axis=2)
    values = np.zeros((len(knots), d, N_OUTPUTS))
    values[:, :, np.flatnonzero(mask)] = held.swapaxes(1, 2)
    return FalseDataSchedule(values=values, mask=mask)


def _attack(problem: FalsificationProblem, knots: np.ndarray) -> AttackVector:
    return AttackVector(breakers=problem.laa,
                        false_data=decode_control_points(knots, problem.mask, problem.d))


def _rho(problem: FalsificationProblem, trace: SimTrace) -> float:
    if trace.truncated:
        return float("inf")
    return robustness(trace, problem.grid.envelope, problem.grid.thresholds,
                      problem.config.signal_basis)


def objective(problem: FalsificationProblem, knots: np.ndarray) -> float:
    """Robustness of the combined trace for these knots; +inf on blow-up."""
    return float(_simulated_rhos(problem, [knots])[0])


def _signals(problem: FalsificationProblem, trace: SimTrace) -> np.ndarray:
    """n x steps x 3: the frequency on the problem's basis and both residues."""
    f = trace.frequency(problem.config.signal_basis)
    return np.concatenate([f[:, :, None], trace.residue], axis=2)


@dataclass(frozen=True)
class AffineModel:
    """The noise-free trace of one problem as an affine map of its knots.

    With the breaker schedule fixed and noise off, false data enters the
    measured outputs and, through the residue, the estimator, both linearly;
    with a feedback gain K it also reaches the plant, through K x_hat, again
    linearly (with K = 0 it never does).  So the frequency and the residue
    are the trace at all-zero knots plus each knot's value times its unit
    response.
    """

    problem: FalsificationProblem
    base: np.ndarray        # n x steps x 3, from _signals at all-zero knots
    responses: np.ndarray   # n x (q_att * P) x (steps * 3), one row per knot
    base_rho: float         # the simulated rho at all-zero knots, _rho of the base run
    # s(k') when no knot moves the frequency, else None: each model frequency
    # is then base + 0.0 (the einsum sums from +0), and a score forms only
    # the residue channels, whose (base, responses) _scored holds
    fixed_margin: Optional[np.ndarray] = field(init=False, repr=False)
    _scored: tuple = field(init=False, repr=False)
    _residue_th: tuple = field(init=False, repr=False)   # Th as a column, -min(Th)

    def __post_init__(self):
        for arr in (self.base, self.responses):
            arr.setflags(write=False)
        n, k, _ = self.responses.shape
        by_channel = self.responses.reshape(n, k, -1, 3)
        f = self.base[..., 0] + 0.0
        fixed = not by_channel[..., 0].any() and np.isfinite(f).all()
        channels = slice(1, 3) if fixed else slice(0, 3)
        object.__setattr__(self, "fixed_margin", frequency_margin(
            f, self.problem.grid.envelope) if fixed else None)
        base, resp = (np.ascontiguousarray(arr[..., channels]) for arr in (self.base, by_channel))
        object.__setattr__(self, "_scored", (base, resp.reshape(n, k, -1)))
        th = self.problem.grid.thresholds
        object.__setattr__(self, "_residue_th", (th[:, None], -float(np.min(th))))

    def score_many(self, knots: np.ndarray) -> np.ndarray:
        """objective() of each candidate in a stack of knots, from the model;
        +inf where its signals are non-finite."""
        sig = _affine_signals(*self._scored, knots)
        finite = np.logical_and.reduce(np.isfinite(sig), axis=(1, 2, 3))
        if finite.all():
            return self._rho_many(sig)
        rho = np.full(len(sig), np.inf)
        if finite.any():
            rho[finite] = self._rho_many(sig[finite])
        return rho

    def _rho_many(self, sig):
        """robustness_terms of each finite candidate in a stack of scored
        signals, overwriting its residue channels with their magnitudes."""
        s = (frequency_margin(sig[..., 0], self.problem.grid.envelope)
             if self.fixed_margin is None else self.fixed_margin)
        r = np.abs(sig[..., -2:], out=sig[..., -2:])
        r_inf = np.maximum(r[..., 0], r[..., 1])      # residue_norm's bits
        th, floor = self._residue_th
        return robustness_terms(s, running_excess(np.subtract(r_inf, th, out=r_inf), floor))


def _affine_signals(base, responses, knots):
    """base + each knot times its response row, per candidate: R x base.shape."""
    n, k, _ = responses.shape
    delta = np.einsum("rnk,nkm->rnm", knots.reshape(len(knots), n, k), responses)
    delta = delta.reshape(len(knots), *base.shape)
    return np.add(delta, base, out=delta)


def affine_model(problem: FalsificationProblem) -> AffineModel:
    """Build the AffineModel of a problem from 1 + q_att * P runs in one loop.

    False data does not couple generators (each generator's plant and
    estimator step on their own), so one run with a knot set to 1 on every
    generator gives that knot's response on all of them.  A run that
    truncates leaves NaN past its last record, so every score of the model
    is +inf.
    """
    n, q_att = problem.grid.n_generators, problem.n_attacked
    p = problem.config.control_points
    attacks = []
    for unit in range(-1, q_att * p):       # -1: the all-zero base run
        knots = np.zeros((n, q_att * p))
        if unit >= 0:
            knots[:, unit] = 1.0
        attacks.append(_attack(problem, knots.reshape(n, q_att, p)))
    traces = simulate_many(problem.grid, attacks, horizon=problem.d)
    sig = np.full((n, len(traces), problem.d + 1, 3), np.nan)
    for j, trace in enumerate(traces):
        sig[:, j, :trace.n_steps] = _signals(problem, trace)
    responses = (sig[:, 1:] - sig[:, :1]).reshape(n, q_att * p, -1)
    return AffineModel(problem=problem, base=sig[:, 0], responses=responses,
                       base_rho=_rho(problem, traces[0]))


def _knot_shape(problem: FalsificationProblem):
    return (problem.grid.n_generators, problem.n_attacked, problem.config.control_points)


def sample_candidate(problem: FalsificationProblem, rng: RngStream) -> np.ndarray:
    """Uniform knots over the false-data box: n x q_att x P."""
    return rng.uniform(*problem.config.range, size=_knot_shape(problem))


def zero_candidate(problem: FalsificationProblem) -> np.ndarray:
    """The zero injection, clipped into the false-data box."""
    return np.clip(np.zeros(_knot_shape(problem)), *problem.config.range)


@dataclass
class RestartHistory:
    restart: int
    evaluations: int
    best_rho: float

    @property
    def success(self):
        return self.best_rho < 0.0


@dataclass
class FalsifyResult:
    best_knots: np.ndarray
    best_schedule: FalseDataSchedule
    best_rho: float
    evaluations: int
    history: list = field(default_factory=list)
    simulations: int = 0     # every closed-loop run of the search, stacked or not
    scores: int = 0          # annealing candidates scored, speculative ones included
    rounds: int = 0          # stacked scoring rounds of the lockstep restarts

    @property
    def success(self):
        return self.best_rho < 0.0


def _simulated_rhos(problem: FalsificationProblem, knots) -> np.ndarray:
    """The robustness of each candidate in a stack of knots, all simulated
    in one step loop; +inf where a run blows up."""
    attacks = [_attack(problem, k) for k in knots]
    traces = simulate_many(problem.grid, attacks, horizon=problem.d)
    return np.array([_rho(problem, trace) for trace in traces])


class _Chain:
    """One simulated-annealing restart, advanced one scored proposal at a time.

    The chain draws its proposals and acceptances from its own stream, so how
    its rounds interleave with other chains' does not change any draw.
    """

    def __init__(self, rng, budget, knots, rho, width):
        self.rng, self.budget, self.width = rng, budget, width
        self.current, self.rho_cur = knots, rho
        self.best, self.rho_best = knots, rho
        self.evals = 1
        self.temp = max(abs(rho), 1e-12)
        self.sigma = SIGMA_INIT
        self.rejects = 0
        # A zero-width box stops the chain after its first score.
        self.done = rho < 0.0 or width <= 0.0 or budget <= 1

    def step(self):
        return self.rng.normal(scale=self.sigma * self.width, size=self.current.shape)

    def update(self, proposal, rho):
        """Take the score of one proposal: keep the best, accept or reject."""
        self.evals += 1
        if rho < self.rho_best:
            self.best, self.rho_best = proposal, rho
            if rho < 0.0:
                self.done = True
                return
        delta = rho - self.rho_cur
        accept = delta <= 0.0
        if not accept and math.isfinite(delta):
            accept = self.rng.uniform() < np.exp(-delta / self.temp)
        if accept:
            self.current, self.rho_cur = proposal, rho
            self.rejects = 0
        else:
            self.rejects += 1
            if self.rejects >= REJECTION_WINDOW:
                self.sigma = max(self.sigma / 2.0, SIGMA_FLOOR)
                self.rejects = 0
        if self.evals % COOLING_WINDOW == 0:
            self.temp *= COOLING_FACTOR
        self.done = self.evals >= self.budget


def _anneal_lockstep(problem, budgets, rng, score):
    """Anneal restart i from rng.split(i) for budgets[i] scores, all restarts
    in lockstep; returns (ran, scores, rounds, simulations).

    Each round scores the next proposal of every active restart with one
    score() call on the stacked knots.  A restart whose best model score
    turns negative stops and is simulated at once.  A simulated success
    drops every later restart, since a search that ran the restarts one by
    one would never start them; a refuted one drops nothing.  Once every
    restart has stopped, the others' best candidates are simulated in one
    stacked run.  ran holds (chain, simulated rho) of every restart up to
    the first simulated success, whichever run found it, in index order.
    """
    lo, hi = problem.config.range
    rngs = [rng.split(i) for i in range(len(budgets))]
    knots = np.stack([sample_candidate(problem, r) for r in rngs])
    chains = [_Chain(r, b, k, rho, hi - lo)
              for r, b, k, rho in zip(rngs, budgets, knots, score(knots).tolist())]
    rhos = {}     # restart -> simulated rho of its best candidate; each runs once

    def simulate_bests(restarts):
        if restarts:
            sim = _simulated_rhos(problem, [chains[i].best for i in restarts])
            rhos.update(zip(restarts, sim.tolist()))

    end = len(chains)       # restarts past the first simulated success never count
    updated = range(end)
    scores, rounds = len(chains), 1
    while True:
        negative = [i for i in updated if chains[i].rho_best < 0.0]
        simulate_bests(negative)
        end = min([end] + [i + 1 for i in negative if rhos[i] < 0.0])
        if not (updated := [i for i in range(end) if not chains[i].done]):
            break
        active = [chains[i] for i in updated]
        proposals = np.empty((len(active),) + knots.shape[1:])   # chains keep its rows
        for chain, row in zip(active, proposals):
            np.add(chain.current, chain.step(), out=row)
        np.clip(proposals, lo, hi, out=proposals)
        for chain, proposal, rho in zip(active, proposals, score(proposals).tolist()):
            chain.update(proposal, rho)
        scores += len(active)
        rounds += 1
    simulate_bests([i for i in range(end) if i not in rhos])
    # a best the model scored >= 0 may still simulate negative
    end = next((i + 1 for i in range(end) if rhos[i] < 0.0), end)
    return [(chains[i], rhos[i]) for i in range(end)], scores, rounds, len(rhos)


def falsify_sa(problem: FalsificationProblem, rng: RngStream) -> FalsifyResult:
    """Monte-Carlo sampled, simulated-annealing driven robustness minimization.

    The problem's AffineModel is built first, whatever the screen finds.
    The zero injection (the search's natural starting assignment) is then
    screened: when the box holds 0 its rho is the model's base_rho, from the
    build's all-zero run; else one simulation screens the clipped candidate.
    Each restart then anneals from an independent uniform sample with its
    own split rng stream.  The restarts anneal in lockstep, and the result
    is the one a search running them one after another gives: no restart
    counts once one has found a counter-example, and the lowest rho wins,
    ties to the earliest restart.  The annealing scores every candidate with
    the problem's AffineModel, whatever the budget; each restart's best model
    score is then replaced by the simulated rho of its candidate, at once
    when it is negative, so only simulated values are reported and compared.
    The budget and the restart count are those of problem.config; a budget
    below the restart count runs one restart per evaluation.
    """
    model = affine_model(problem)
    z = zero_candidate(problem)
    lo, hi = problem.config.range
    # with 0 in the box, z is the build's all-zero knots: stacked runs are
    # bitwise lone runs, so the base run's rho is objective(problem, z)
    zero_in_box = lo <= 0.0 <= hi
    rho_zero = model.base_rho if zero_in_box else objective(problem, z)
    # the 1 + q_att * P build runs, and a lone zero screen
    evaluations, simulations = 1, 1 + model.responses.shape[1] + (not zero_in_box)
    scores = rounds = 0
    best_rho, best_knots = rho_zero, z
    history = [RestartHistory(restart=-1, evaluations=1, best_rho=rho_zero)]

    if rho_zero >= 0.0:
        budget = problem.config.budget
        restarts = min(problem.config.restarts, budget)
        budgets = [budget // restarts + (1 if i < budget % restarts else 0)
                   for i in range(restarts)]
        ran, scores, rounds, simulated = _anneal_lockstep(problem, budgets, rng,
                                                          model.score_many)
        simulations += simulated      # the restarts' simulated bests

        for i, (chain, rho_i) in enumerate(ran):
            evaluations += chain.evals
            history.append(RestartHistory(restart=i, evaluations=chain.evals, best_rho=rho_i))
            if rho_i < best_rho:   # ties keep the earliest restart
                best_rho, best_knots = rho_i, chain.best.copy()

    return FalsifyResult(
        best_knots=best_knots,
        best_schedule=decode_control_points(best_knots, problem.mask, problem.d),
        best_rho=float(best_rho),
        evaluations=evaluations,
        history=history,
        simulations=simulations,
        scores=scores,
        rounds=rounds,
    )


@dataclass
class SynthesisOutcome:
    attack: Optional[AttackVector]
    result: FalsifyResult
    validation: Optional[SuccessReport]
    noise_success_fraction: Optional[float]
    wall_s: dict            # seconds spent in "search" and "validation"


def synthesize_and_validate(grid: GridModel, laa: BreakerSchedule, rng: RngStream,
                            config: FalsifyConfig) -> SynthesisOutcome:
    """Run the search, then re-simulate the winner and assert it still wins.

    One noise-free re-simulation must reproduce the search's rho exactly and
    satisfy the success predicate, or ValidationMismatch is raised.  Returns
    the verified attack vector (None when no counter-example exists within
    budget) plus a Monte-Carlo success fraction under the grid's configured
    noise, as a robustness indicator for the deterministic result.
    """
    problem = FalsificationProblem(grid=grid, laa=laa, config=config)
    t0 = time.perf_counter()
    result = falsify_sa(problem, rng.split(0xFA15))
    t_search = time.perf_counter()
    if not result.success:
        return SynthesisOutcome(attack=None, result=result, validation=None,
                                noise_success_fraction=None,
                                wall_s={"search": t_search - t0, "validation": 0.0})

    attack = AttackVector(breakers=laa, false_data=result.best_schedule)
    trace = simulate(grid, attack, horizon=problem.d, noise=False)
    rho_check = _rho(problem, trace)
    if rho_check != result.best_rho:
        raise ValidationMismatch(
            f"re-simulated rho {rho_check!r} != search rho {result.best_rho!r}")
    report = check_success(trace, grid.envelope, grid.thresholds, config.signal_basis)
    if not report.success:
        raise ValidationMismatch("validation re-run does not satisfy the "
                                 "success predicate despite rho < 0")

    frac = None
    if config.noise_check_seeds:
        seeds = range(config.noise_check_seeds)
        noisy = simulate_many(grid, [attack] * len(seeds), horizon=problem.d,
                              noise=True, rngs=[rng.split(0xBEEF + s) for s in seeds])
        wins = sum(check_success(trace, grid.envelope, grid.thresholds,
                                 config.signal_basis).success for trace in noisy)
        frac = wins / len(seeds)

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
    write_json(path, attack_to_document(attack, range_lo, range_hi, provenance))


def load_attack(document) -> AttackVector:
    """Validate a parsed attack-vector document; errors are ValueErrors."""
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
    lo, hi = config_value(document["range"], tuple[float, float], "range")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ValueError(f"range must be finite numbers [lo, hi] with lo <= hi, "
                         f"got {document['range']!r}")
    if not np.all((lo <= false_data.values) & (false_data.values <= hi)):   # NaN fails
        raise ValueError("false data outside its declared range")
    return AttackVector(breakers=breakers, false_data=false_data)


def load_attack_file(path) -> AttackVector:
    return read_json_file(path, load_attack)


# ---------------------------------------------------------------------------
# Breaker-schedule interchange format


def save_schedule(path, schedule: BreakerSchedule):
    write_json(path, {"d": schedule.d, "m": schedule.m,
                      "signals": schedule.signals.tolist()})


def load_schedule(document) -> BreakerSchedule:
    """Validate a parsed breaker-schedule document; errors are ValueErrors."""
    if not isinstance(document, dict) or "signals" not in document:
        raise ValueError("schedule document must be an object with 'signals'")
    schedule = BreakerSchedule(signals=np.asarray(document["signals"]))
    if "d" in document and schedule.d != document["d"]:
        raise ValueError("schedule length disagrees with d")
    if "m" in document and schedule.m != document["m"]:
        raise ValueError("schedule width disagrees with m")
    return schedule


def load_schedule_file(path) -> BreakerSchedule:
    return read_json_file(path, load_schedule)
