import dataclasses
import functools
import json
import pathlib
import re

import numpy as np
import pytest
from scipy.optimize import linprog

import gridstorm.falsify
from gridstorm.cli import main
from gridstorm.falsify import (COOLING_FACTOR, COOLING_WINDOW, REJECTION_WINDOW,
                               SIGMA_FLOOR, SIGMA_INIT, AffineModel, _affine_signals,
                               FalsificationProblem, FalsifyConfig, FalsifyResult,
                               RestartHistory, ValidationMismatch, affine_model,
                               decode_control_points, falsify_sa, knot_boundaries,
                               load_attack, load_attack_file, load_schedule,
                               load_schedule_file, objective, sample_candidate,
                               save_attack, save_schedule, synthesize_and_validate,
                               zero_candidate)
from gridstorm.model import ConfigError, config_object, design_lqr_gain, load_grid_config
from gridstorm.numerics import RngStream
from gridstorm.sim import (AttackVector, BreakerSchedule, check_success, frequency_margin,
                           residue_norm, residue_term, robustness_terms, simulate)

from conftest import load_config_doc, make_plain_grid


def make_problem(grid=None, d=40, p=10, lo=-0.05, hi=0.05, laa_open=False):
    grid = grid or make_plain_grid(n=1, thresholds=[0.01], m=2, mcol=0.3)
    m = grid.n_breakers
    fill = 0 if laa_open else 1
    laa = BreakerSchedule(signals=np.full((d, m), fill, dtype=int))
    return FalsificationProblem(grid=grid, laa=laa,
                                config=FalsifyConfig(range=(lo, hi), control_points=p))


def with_config(problem, **changes):
    return dataclasses.replace(problem, config=dataclasses.replace(problem.config, **changes))


# ---------------------------------------------------------------------------
# control-point decode


def test_decode_identity_when_p_equals_d():
    prob = make_problem(d=12, p=12)
    rng = RngStream(1, 0)
    knots = sample_candidate(prob, rng)
    sched = decode_control_points(knots, prob.mask, 12)
    assert np.array_equal(sched.values[0, :, 1], knots[0, 0])
    assert np.all(sched.values[:, :, 0] == 0.0)


def test_decode_single_knot_is_constant():
    sched = decode_control_points(np.full((1, 1, 1), 0.3), np.array([0, 1]), 25)
    assert np.all(sched.values[0, :, 1] == 0.3)


def test_decode_segment_lengths_by_counting():
    sched = decode_control_points(np.arange(4.0).reshape(1, 1, 4) + 1.0,
                                  np.array([0, 1]), 100)
    for j in range(4):
        assert int(np.sum(sched.values[0, :, 1] == j + 1.0)) == 25


def test_decode_uneven_segments_cover_all_steps():
    sched = decode_control_points(np.arange(3.0).reshape(1, 1, 3) + 1.0,
                                  np.array([0, 1]), 10)  # floor(j*10/3) -> segments 3,3,4
    vals = sched.values[0, :, 1]
    assert np.all(vals > 0)
    assert [int(np.sum(vals == k + 1.0)) for k in range(3)] == [3, 3, 4]


def loop_decode(knots, mask, d):
    """The zero-order hold written one knot at a time: the decode's oracle."""
    n, _, p = knots.shape
    bounds = knot_boundaries(d, p)
    attacked = np.flatnonzero(mask)
    values = np.zeros((n, d, 2))
    for j in range(p):
        lo, hi = bounds[j], bounds[j + 1]
        if lo >= hi:
            continue
        values[:, lo:hi, attacked] = knots[:, None, :, j]
    return values


@pytest.mark.parametrize("mask", [(0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("d, p", [(10, 3), (12, 12), (5, 9), (1, 4)],
                         ids=["p_below_d", "p_equals_d", "p_above_d", "one_step"])
def test_decode_matches_per_knot_loop(mask, d, p):
    rng = np.random.default_rng(d * p)
    knots = rng.uniform(-1.0, 1.0, size=(3, sum(mask), p))
    knots[0, 0, 0] = -0.0
    sched = decode_control_points(knots, np.array(mask), d)
    assert sched.values.tobytes() == loop_decode(knots, mask, d).tobytes()
    assert sched.mask.tolist() == list(mask)


# ---------------------------------------------------------------------------
# objective


def test_objective_benign_is_positive():
    prob = make_problem()
    assert objective(prob, zero_candidate(prob)) > 0


def test_objective_purity_bit_identical():
    prob = make_problem()
    knots = sample_candidate(prob, RngStream(2, 0))
    vals = {objective(prob, knots) for _ in range(5)}
    assert len(vals) == 1


def test_objective_blowup_returns_inf():
    grid = make_plain_grid(n=1, thresholds=[0.01], m=2,
                           sched=np.array([[np.inf]]))
    prob = make_problem(grid=grid)
    assert objective(prob, zero_candidate(prob)) == np.inf


# ---------------------------------------------------------------------------
# sampling


def test_sample_degenerate_box():
    prob = make_problem(lo=0.25, hi=0.25)
    assert np.all(sample_candidate(prob, RngStream(3, 0)) == 0.25)


def test_sample_within_range_property():
    prob = make_problem(lo=-0.4, hi=0.1)
    rng = RngStream(4, 0)
    for _ in range(200):
        knots = sample_candidate(prob, rng)
        assert np.all(knots >= -0.4) and np.all(knots <= 0.1)


def test_sample_mean_statistics():
    prob = make_problem(lo=-1.0, hi=1.0, p=5)
    rng = RngStream(5, 0)
    draws = np.array([sample_candidate(prob, rng) for _ in range(20_000)])
    assert np.max(np.abs(draws.mean(axis=0))) <= 0.02


# ---------------------------------------------------------------------------
# simulated annealing


def stealthy_unsafe_problem():
    """LAA alone is unsafe and never detected: zero injection already wins."""
    grid = make_plain_grid(n=1, thresholds=[100.0], m=2, mcol=0.45,
                           inertia=0.02, regulation=20.0)
    return make_problem(grid=grid, d=40, laa_open=True)


def test_zero_candidate_early_exit():
    prob = stealthy_unsafe_problem()
    assert objective(prob, zero_candidate(prob)) < 0
    res = falsify_sa(with_config(prob, budget=2000, restarts=10), RngStream(6, 0))
    assert res.success
    assert res.evaluations <= 1 + 10  # screen + at most one eval per restart


def test_infeasible_zero_range_returns_no_counterexample():
    prob = make_problem(lo=0.0, hi=0.0)
    res = falsify_sa(with_config(prob, budget=300, restarts=3), RngStream(7, 0))
    assert not res.success
    assert res.best_rho > 0
    assert res.evaluations <= 301


def test_best_rho_equals_minimum_of_all_evaluations(monkeypatch):
    prob = make_problem(d=30, p=4)
    seen = []
    real = AffineModel.score_many

    def spy(model, knots):
        rhos = real(model, knots)
        seen.extend(rhos.tolist())
        return rhos

    monkeypatch.setattr(AffineModel, "score_many", spy)
    rho_zero = objective(prob, zero_candidate(prob))
    res = falsify_sa(with_config(prob, budget=200, restarts=2), RngStream(8, 0))
    assert res.evaluations == 1 + len(seen)       # zero screen + model scores
    # reported rho is simulated; the model's scores agree to rounding
    assert res.best_rho == objective(prob, res.best_knots)
    assert abs(res.best_rho - min([rho_zero] + seen)) <= 1e-12


def test_budget_below_restarts_spends_exactly_budget():
    prob = make_problem(d=30, p=4)
    for budget in range(1, 6):
        res = falsify_sa(with_config(prob, budget=budget, restarts=4), RngStream(21, 0))
        assert not res.success
        assert res.evaluations == budget + 1, budget
        assert len(res.history) == 1 + min(budget, 4)


def test_falsify_blowup_reports_inf_without_success():
    grid = make_plain_grid(n=1, thresholds=[0.01], m=2,
                           sched=np.array([[np.inf]]))
    prob = make_problem(grid=grid)
    knots = np.stack([zero_candidate(prob), sample_candidate(prob, RngStream(22, 1))])
    assert affine_model(prob).score_many(knots).tolist() == [np.inf, np.inf]
    res = falsify_sa(with_config(prob, budget=30, restarts=3), RngStream(22, 0))
    assert not res.success
    assert res.best_rho == np.inf
    assert res.evaluations == 31
    # the 11 build runs, stacked in one loop, all truncated (the base run is
    # the zero screen) + the 3 restarts' bests, re-simulated in one stacked run
    assert res.simulations == 14


def overflowing_units_problem():
    """Zero schedule, nominal breakers and an unstable gain on d_omega: the
    base run stays at rest, and every unit-knot run overflows within d."""
    grid = dataclasses.replace(make_plain_grid(n=1, thresholds=[0.01], m=2),
                               k=np.array([[1e40, 0.0, 0.0, 0.0]]))
    return make_problem(grid=grid, d=40, p=4)


def test_model_with_finite_base_and_overflowing_units_scores_inf():
    prob = with_config(overflowing_units_problem(), budget=30, restarts=3)
    model = affine_model(prob)
    assert np.all(model.base[..., 0] == 60.0) and np.all(model.base[..., 1:] == 0.0)
    # each unit run's records past its truncation are NaN
    assert np.all(np.isnan(model.responses).any(axis=2))
    rng = RngStream(25, 0)
    knots = np.stack([zero_candidate(prob)] + [sample_candidate(prob, rng) for _ in range(5)])
    assert model.score_many(knots).tolist() == [np.inf] * 6
    res = falsify_sa(prob, RngStream(26, 0))
    assert not res.success
    assert res.evaluations == 30 + 1
    assert res.history[0].best_rho == objective(prob, zero_candidate(prob)) == 0.5
    # no model score beats a restart's first sample, so that sample is its best
    for i, h in enumerate(res.history[1:]):
        assert h.best_rho == objective(prob, sample_candidate(prob, RngStream(26, 0).split(i)))


def test_tiny_budget_search_builds_the_model(monkeypatch):
    sizes = []
    real_many = gridstorm.falsify.simulate_many

    def many_spy(grid, attacks, *args, **kwargs):
        sizes.append(len(attacks))
        return real_many(grid, attacks, *args, **kwargs)

    monkeypatch.setattr(gridstorm.falsify, "simulate_many", many_spy)
    prob = with_config(make_problem(d=30, p=4), budget=5, restarts=3)   # 5 <= 1 + 1 * 4
    res = falsify_sa(prob, RngStream(27, 0))
    assert not res.success and res.evaluations == 1 + 5
    # the 1 + 4 build runs, whose base run is the zero screen, then the 3
    # restarts' bests
    assert sizes == [1 + 4, 3]
    assert res.simulations == 5 + 3


def test_box_without_zero_screens_its_clipped_candidate_first(monkeypatch):
    sizes, screened = [], []
    real_many, real_objective = gridstorm.falsify.simulate_many, gridstorm.falsify.objective

    def many_spy(grid, attacks, *args, **kwargs):
        sizes.append(len(attacks))
        return real_many(grid, attacks, *args, **kwargs)

    def objective_spy(problem, knots):
        screened.append(knots.copy())
        return real_objective(problem, knots)

    monkeypatch.setattr(gridstorm.falsify, "simulate_many", many_spy)
    monkeypatch.setattr(gridstorm.falsify, "objective", objective_spy)
    prob = with_config(make_problem(d=30, p=4, lo=0.01, hi=0.05), budget=5, restarts=3)
    res = falsify_sa(prob, RngStream(27, 0))
    assert not res.success and res.evaluations == 1 + 5
    # the 1 + 4 build runs, then the screen of the knots clipped to 0.01 and
    # the 3 restarts' bests
    assert [k.tolist() for k in screened] == [[[[0.01] * 4]]]
    assert sizes == [1 + 4, 1, 3]
    assert res.simulations == 5 + 1 + 3
    assert res.history[0].best_rho == real_objective(prob, screened[0])


def test_zero_screen_success_still_builds_the_model():
    """A zero screen that succeeds ends the search after one evaluation,
    with the screen's rho; the build's runs are made all the same, and a box
    without 0 screens its clipped candidate in one more run."""
    grid, laa = validating_problem()
    for box, screen_runs in (((-0.05, 0.05), 0), ((0.001, 0.05), 1)):
        prob = FalsificationProblem(grid=grid, laa=laa, config=FalsifyConfig(
            range=box, control_points=4, budget=200, restarts=2))
        rho = objective(prob, zero_candidate(prob))
        assert rho < 0.0
        res = falsify_sa(prob, RngStream(12, 0))
        assert res.success and res.evaluations == 1
        assert np.float64(res.best_rho).tobytes() == np.float64(rho).tobytes()
        assert res.best_knots.tobytes() == zero_candidate(prob).tobytes()
        assert [h.restart for h in res.history] == [-1]
        assert res.simulations == (1 + prob.n_attacked * prob.config.control_points
                                   + screen_runs)
        assert res.scores == res.rounds == 0


def model_grid(test):
    """Run test over the (mask, basis, gain) grid of model_grid_problem."""
    for mark in (pytest.mark.parametrize("gain", ["zero", "lqr"],
                                         ids=["until_unsafe", "until_unsafe-lqr"]),
                 pytest.mark.parametrize("basis", ["measured", "true"]),
                 pytest.mark.parametrize("mask", [(0, 1), (1, 0), (1, 1)])):
        test = mark(test)
    return test


def model_grid_problem(mask, basis, gain):
    # three generators guard the one-knot-on-every-generator build
    grid = make_plain_grid(n=3, thresholds=[0.02, 0.03, 0.024], m=2, mcol=0.45,
                           inertia=0.02, regulation=20.0)
    if gain == "lqr":
        # K x_hat carries the false data into the plant
        grid = dataclasses.replace(grid, k=[
            -design_lqr_gain(a, b[:, None], np.eye(4), np.eye(1))[0]
            for a, b in zip(grid.a, grid.b)])
    laa = BreakerSchedule(signals=np.zeros((30, 2), dtype=int))
    config = FalsifyConfig(range=(-0.05, 0.08), mask=mask, control_points=5,
                           signal_basis=basis)
    return FalsificationProblem(grid=grid, laa=laa, config=config)


@model_grid
def test_affine_model_agrees_with_objective(mask, basis, gain):
    prob = model_grid_problem(mask, basis, gain)
    grid, laa, config = prob.grid, prob.laa, prob.config
    model = affine_model(prob)
    units = prob.n_attacked * config.control_points
    assert model.responses.shape == (3, units, 31 * 3)
    if basis == "true":
        # the plant's frequency responds to false data iff there is a gain
        moved = np.any(model.responses.reshape(3, units, *model.base.shape[1:])[..., 0] != 0.0)
        assert moved == (gain == "lqr")
    rng = RngStream(23, 0)
    knots = np.stack([sample_candidate(prob, rng) for _ in range(50)])
    scores, signals = model.score_many(knots), model_signals(model, knots)
    rhos = []
    for cand, score, sig in zip(knots, scores, signals):
        rho = objective(prob, cand)
        assert abs(score - rho) <= 1e-12
        rhos.append(rho)
        # the frequency too, which need not bind rho
        trace = simulate(grid, AttackVector(laa, decode_control_points(cand, mask, 30)),
                         horizon=30)
        assert np.max(np.abs(sig[:, :, 0] - trace.frequency(basis))) <= 1e-12
        assert np.max(np.abs(sig[:, :, 1:] - trace.residue)) <= 1e-12
    assert len(set(rhos)) > 1     # the candidates move rho


def model_signals(model, knots):
    """The frequency and both residues (R x n x steps x 3) of each
    candidate in a stack of knots, from the model."""
    return _affine_signals(model.base, model.responses, knots)


def signals_rho(problem, sig):
    """robustness_terms of the terms of model signals (..., n, steps, 3)."""
    return robustness_terms(frequency_margin(sig[..., 0], problem.grid.envelope),
                            residue_term(residue_norm(sig[..., 1:]), problem.grid.thresholds))


@model_grid
def test_fixed_frequency_score_is_the_full_composition(mask, basis, gain):
    """The model fixes s(k') exactly where the false data cannot move the
    frequency: without a gain, on the true basis or with the frequency
    output unattacked.  Either way its scores are robustness_terms of its
    signals, bit for bit."""
    prob = model_grid_problem(mask, basis, gain)
    model = affine_model(prob)
    assert (model.fixed_margin is not None) == (gain == "zero" and (basis == "true" or
                                                                   mask[0] == 0))
    rng = RngStream(24, 0)
    knots = np.stack([sample_candidate(prob, rng) for _ in range(50)])
    want = signals_rho(prob, model_signals(model, knots))
    assert model.score_many(knots).tobytes() == want.tobytes()


@functools.cache
def shipped_problem():
    """The shipped falsify config on the default grid and the frozen seed-3
    breaker schedule."""
    root = pathlib.Path(__file__).parents[1]
    with open(root / "configs" / "falsify_default.json", encoding="utf-8") as fh:
        config = config_object(FalsifyConfig, json.load(fh), "$")
    return FalsificationProblem(
        grid=load_grid_config(load_config_doc("default_grid.json")),
        laa=load_schedule_file(root / "perfbench" / "inputs" / "best_schedule_seed3.json"),
        config=config)


def test_shipped_problem_fixes_the_frequency_margin():
    model = affine_model(shipped_problem())
    assert model.fixed_margin is not None
    assert model.fixed_margin.shape == (shipped_problem().d + 1,)


def test_shipped_model_base_rho_is_the_zero_screen():
    prob = shipped_problem()
    rho = objective(prob, zero_candidate(prob))
    assert np.float64(affine_model(prob).base_rho).tobytes() == np.float64(rho).tobytes()


def test_model_arrays_are_read_only():
    model = affine_model(open_toy_problem(40))
    for arr in (model.base, model.responses):
        with pytest.raises(ValueError):
            arr[...] = 0.0


def toy_problem(breakers):
    """The criterion-5 toy problem with P = 4: breakers all open (0) or closed (1)."""
    doc = load_config_doc("toy_grid.json")
    doc["thresholds"] = [1.25]
    laa = BreakerSchedule(signals=np.full((60, 2), breakers, dtype=int))
    return FalsificationProblem(grid=load_grid_config(doc), laa=laa,
                                config=FalsifyConfig(control_points=4))


def lp_optimum(problem):
    """Exact minimum rho* of a mask (0, 1) problem, and knots that reach it.

    False data on output 2 leaves the frequency alone, so its margin s(k') is
    fixed and only the residue, affine in the knots z, moves.  Hence
    rho* = min over k' of max(s(k'), LP(k')), where LP(k') minimises over the
    box the worst residue excess max_{t < k', i, o} |r_ito(z)| - Th_i.  The
    unit responses come from one simulation per (generator, knot).
    """
    n, p = problem.grid.n_generators, problem.config.control_points
    (lo, hi), th = problem.config.range, problem.grid.thresholds

    def run(knots):
        sched = decode_control_points(knots, problem.mask, problem.d)
        return simulate(problem.grid, AttackVector(problem.laa, sched), horizon=problem.d)

    base = run(np.zeros((n, 1, p)))
    resp = []
    for unit in np.eye(n * p):
        trace = run(unit.reshape(n, 1, p))
        assert np.array_equal(trace.frequency(problem.config.signal_basis),
                              base.frequency(problem.config.signal_basis))
        resp.append(trace.residue - base.residue)
    resp = np.stack(resp, axis=-1)                   # n x steps x 2 x (n * p)

    s = frequency_margin(base.frequency(problem.config.signal_basis), problem.grid.envelope)
    rho_star, z_star = max(s[0], -np.min(th)), np.zeros(n * p)   # k' = 0
    for kp in range(1, problem.d + 1):
        if s[kp] >= rho_star:
            continue
        r0 = base.residue[:, :kp].reshape(-1)
        r1 = resp[:, :kp].reshape(-1, n * p)
        th_rows = np.repeat(th, kp * 2)
        # variables (z, tau): minimise tau s.t. +-(r0 + r1 z) - Th <= tau
        a_ub = np.block([[r1, -np.ones((r1.shape[0], 1))],
                         [-r1, -np.ones((r1.shape[0], 1))]])
        b_ub = np.concatenate([th_rows - r0, th_rows + r0])
        cost = np.zeros(n * p + 1)
        cost[-1] = 1.0
        lp = linprog(cost, A_ub=a_ub, b_ub=b_ub, method="highs",
                     bounds=[(lo, hi)] * (n * p) + [(None, None)])
        assert lp.status == 0, lp.message
        if lp.fun >= rho_star:
            break                                    # LP(k') never decreases
        if max(s[kp], lp.fun) < rho_star:
            rho_star, z_star = max(s[kp], lp.fun), lp.x[:-1]
    return rho_star, z_star.reshape(n, 1, p)


@pytest.mark.parametrize("breakers", [0, 1])
def test_sa_never_beats_exact_lp_optimum(breakers):
    prob = toy_problem(breakers)
    rho_star, knots = lp_optimum(prob)
    lo, hi = prob.config.range
    assert np.all(knots >= lo) and np.all(knots <= hi)
    assert abs(objective(prob, knots) - rho_star) <= 1e-9
    res = falsify_sa(with_config(prob, budget=2000, restarts=4), RngStream(24, 0))
    assert res.best_rho >= rho_star - 1e-12
    if breakers == 0:
        assert rho_star < 0.0     # the open variant has a counter-example


def test_returned_schedule_respects_mask_and_range():
    prob = make_problem(d=30, p=4, lo=-0.02, hi=0.03)
    res = falsify_sa(with_config(prob, budget=150, restarts=2), RngStream(9, 0))
    vals = res.best_schedule.values
    assert np.all(vals[:, :, 0] == 0.0)
    assert np.all(vals >= -0.02) and np.all(vals <= 0.03)


def test_history_covers_restarts():
    prob = make_problem(d=30, p=4)
    res = falsify_sa(with_config(prob, budget=100, restarts=4), RngStream(10, 0))
    tags = [h.restart for h in res.history]
    assert tags[0] == -1  # zero screen
    assert tags[1:] == [0, 1, 2, 3]
    assert sum(h.evaluations for h in res.history) == res.evaluations


# ---------------------------------------------------------------------------
# lockstep restarts against the sequential search


def _anneal_restart(problem, budget, rng, score):
    """One simulated-annealing restart; returns (best_rho, best_knots, evals)."""
    lo, hi = problem.config.range
    width = hi - lo
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
        step = rng.normal(scale=sigma * width, size=current.shape)
        proposal = np.clip(current + step, lo, hi)
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


def one_model_score(model, knots):
    """The model's score of one candidate, from its own einsum."""
    n, k, _ = model.responses.shape
    delta = np.einsum("nk,nkm->nm", knots.reshape(n, k), model.responses)
    sig = model.base + delta.reshape(model.base.shape)
    if not np.all(np.isfinite(sig)):
        return float("inf")
    p = model.problem
    return robustness_terms(frequency_margin(sig[:, :, 0], p.grid.envelope),
                            residue_term(np.max(np.abs(sig[:, :, 1:]), axis=2), p.grid.thresholds))


def sequential_falsify(problem, rng, negative=frozenset()):
    """falsify_sa with its restarts run one after another, one candidate
    scored at a time.  Model scores of knots whose bytes are in `negative`
    are forced to -1."""
    z = zero_candidate(problem)
    rho_zero = objective(problem, z)
    evaluations = 1
    best_rho, best_knots = rho_zero, z
    history = [RestartHistory(restart=-1, evaluations=1, best_rho=rho_zero)]
    if rho_zero >= 0.0:
        budget = problem.config.budget
        restarts = min(problem.config.restarts, budget)
        budgets = [budget // restarts + (1 if i < budget % restarts else 0)
                   for i in range(restarts)]
        model = affine_model(problem)

        def score(knots):
            if knots.tobytes() in negative:
                return -1.0
            return one_model_score(model, knots)

        for i in range(restarts):
            rho_i, knots_i, evals_i = _anneal_restart(problem, budgets[i], rng.split(i),
                                                      score)
            rho_i = objective(problem, knots_i)
            evaluations += evals_i
            history.append(RestartHistory(restart=i, evaluations=evals_i, best_rho=rho_i))
            if rho_i < best_rho:
                best_rho, best_knots = rho_i, knots_i
            if rho_i < 0.0:
                break
    return FalsifyResult(best_knots=best_knots,
                         best_schedule=decode_control_points(best_knots, problem.mask,
                                                             problem.d),
                         best_rho=float(best_rho), evaluations=evaluations,
                         history=history)


def assert_same_search(got, want):
    bits = np.float64
    assert bits(got.best_rho).tobytes() == bits(want.best_rho).tobytes()
    assert got.best_knots.tobytes() == want.best_knots.tobytes()
    assert got.best_schedule.values.tobytes() == want.best_schedule.values.tobytes()
    assert got.evaluations == want.evaluations
    assert got.success == want.success
    assert ([(h.restart, h.evaluations, bits(h.best_rho).tobytes(), h.success)
             for h in got.history]
            == [(h.restart, h.evaluations, bits(h.best_rho).tobytes(), h.success)
                for h in want.history])


def open_toy_problem(d, **config):
    """The toy grid with its breakers open: the search finds counter-examples."""
    doc = load_config_doc("toy_grid.json")
    doc["thresholds"] = [1.25]
    laa = BreakerSchedule(signals=np.zeros((d, 2), dtype=int))
    return FalsificationProblem(grid=load_grid_config(doc), laa=laa,
                                config=FalsifyConfig(control_points=4, **config))


def three_generator_problem():
    """Breakers open on three generators, both outputs attacked: no
    counter-example, and the temperature schedule shapes the winner."""
    grid = make_plain_grid(n=3, thresholds=[0.02, 0.03, 0.024], m=2, mcol=0.45,
                           inertia=0.02, regulation=20.0)
    return with_config(make_problem(grid=grid, laa_open=True), mask=(1, 1))


def blowup_problem():
    return make_problem(grid=make_plain_grid(n=1, thresholds=[0.01], m=2,
                                             sched=np.array([[np.inf]])))


# id: (problem, budget, restarts, seed, winning restart); the tiny-budget
# searches score fewer candidates than the model's 1 + q_att * P build runs
SEARCHES = {
    "model-no-success": (lambda: make_problem(d=30, p=4), 200, 3, 8, None),
    "model-both-outputs-no-success": (three_generator_problem, 300, 2, 0, None),
    "model-middle-success": (lambda: open_toy_problem(40), 150, 4, 1, 1),
    "model-middle-success-true": (lambda: open_toy_problem(40, signal_basis="true"),
                                  150, 4, 1, 1),
    "tiny-budget-no-success": (lambda: make_problem(p=10), 11, 3, 8, None),
    "tiny-budget-middle-success": (lambda: open_toy_problem(60), 5, 4, 30, 2),
    "zero-width": (lambda: make_problem(lo=0.0, hi=0.0), 300, 3, 7, None),
    "zero-width-model": (lambda: make_problem(p=1, lo=0.02, hi=0.02), 300, 3, 7, None),
    "budget-below-restarts": (lambda: make_problem(d=30, p=4), 3, 5, 21, None),
    "blowup": (blowup_problem, 30, 3, 22, None),
    "true-basis": (lambda: with_config(make_problem(d=30, p=4), signal_basis="true"),
                   120, 3, 9, None),
    # the shipped problem, on the fixed-frequency path
    **{f"shipped-seed{seed}": (shipped_problem, 300, 4, seed, None) for seed in (1, 2, 3)},
}


@pytest.mark.parametrize("case", list(SEARCHES))
def test_lockstep_search_equals_sequential_search(case):
    make, budget, restarts, seed, winner = SEARCHES[case]
    prob = with_config(make(), budget=budget, restarts=restarts)
    want = sequential_falsify(prob, RngStream(seed, 0))
    got = falsify_sa(prob, RngStream(seed, 0))
    assert_same_search(got, want)
    wins = [h.restart for h in got.history if h.success]
    assert wins == ([] if winner is None else [winner])


@pytest.mark.parametrize("case", list(SEARCHES))
def test_speculative_scores_stay_within_the_winners_evaluations(case):
    make, budget, restarts, seed, winner = SEARCHES[case]
    res = falsify_sa(with_config(make(), budget=budget, restarts=restarts), RngStream(seed, 0))
    speculative = res.scores - res.evaluations + 1
    if winner is None:
        assert speculative == 0
    else:
        after = min(restarts, budget) - 1 - winner
        assert 0 < speculative <= after * res.history[-1].evaluations
    assert 1 <= res.rounds <= res.scores


def test_model_score_reads_both_residues():
    prob = open_toy_problem(40)   # the residue binds rho
    model = affine_model(prob)
    # the two residue channels swapped: the inf-norm, so rho, is the same
    swap = [0, 2, 1]
    swapped = AffineModel(problem=prob, base=model.base[..., swap],
                          responses=model.responses.reshape(1, 4, 41, 3)[..., swap]
                          .reshape(1, 4, -1), base_rho=model.base_rho)
    rng = RngStream(31, 0)
    knots = np.stack([sample_candidate(prob, rng) for _ in range(20)])
    assert model.score_many(knots).tobytes() == swapped.score_many(knots).tobytes()


def test_model_score_is_inf_where_signals_overflow():
    prob = open_toy_problem(40)
    model = affine_model(prob)
    huge = AffineModel(problem=prob, base=model.base,
                       responses=np.full_like(model.responses, 1e308), base_rho=model.base_rho)
    knots = np.stack([np.ones((1, 1, 4)), np.zeros((1, 1, 4))])   # 4e308, 0
    assert huge.score_many(knots[:1]).tolist() == [np.inf]
    rhos = huge.score_many(knots)
    assert rhos[0] == np.inf
    assert rhos[1:].tobytes() == model.score_many(knots[1:]).tobytes()


def test_fixed_path_score_is_inf_where_residues_overflow():
    prob = open_toy_problem(40)
    model = affine_model(prob)
    responses = np.full((1, 4, 41, 3), 1e308)
    responses[..., 0] = 0.0
    huge = AffineModel(problem=prob, base=model.base, responses=responses.reshape(1, 4, -1),
                       base_rho=model.base_rho)
    assert huge.fixed_margin is not None
    knots = np.stack([np.ones((1, 1, 4)), np.zeros((1, 1, 4)), np.full((1, 1, 4), 1e-9),
                      np.array([[[0.0, 0.0, 0.0, 0.5]]])])   # 4e308, 0, 4e299, 5e307
    rhos = huge.score_many(knots)
    assert rhos[0] == np.inf
    want = signals_rho(prob, model_signals(huge, knots[1:]))
    assert np.all(np.isfinite(want))
    assert rhos[1:].tobytes() == want.tobytes()
    assert rhos[1:2].tobytes() == model.score_many(knots[1:2]).tobytes()


def test_winners_are_simulated_in_one_stacked_run(monkeypatch):
    calls = {"objective": 0, "simulate_many": []}
    real_objective, real_many = gridstorm.falsify.objective, gridstorm.falsify.simulate_many

    def objective_spy(*args):
        calls["objective"] += 1
        return real_objective(*args)

    def many_spy(grid, attacks, *args, **kwargs):
        calls["simulate_many"].append(len(attacks))
        return real_many(grid, attacks, *args, **kwargs)

    monkeypatch.setattr(gridstorm.falsify, "objective", objective_spy)
    monkeypatch.setattr(gridstorm.falsify, "simulate_many", many_spy)
    res = falsify_sa(open_toy_problem(40, budget=150, restarts=4), RngStream(1, 0))
    assert res.success and [h.restart for h in res.history] == [-1, 0, 1]
    assert calls["objective"] == 0        # the zero screen is the base run
    # the 1 + 4 build runs, restarts 2 and then 1 as each turns negative,
    # then restart 0's best
    assert calls["simulate_many"] == [5, 1, 1, 1]
    assert res.simulations == 5 + 3
    # the tiny-budget search: no restart turns negative before the last
    # round, so the three that count are simulated in one stacked run
    calls["simulate_many"].clear()
    res = falsify_sa(open_toy_problem(60, budget=5, restarts=4), RngStream(30, 0))
    assert [h.restart for h in res.history] == [-1, 0, 1, 2]
    assert calls["simulate_many"] == [5, 1, 2]


def test_later_restart_simulated_first_is_dropped_by_an_earlier_success(monkeypatch):
    prob = open_toy_problem(40, budget=150, restarts=4)
    simulated = []
    real_many = gridstorm.falsify.simulate_many

    def many_spy(grid, attacks, *args, **kwargs):
        traces = real_many(grid, attacks, *args, **kwargs)
        simulated.append([(a.false_data.values.tobytes(), gridstorm.falsify._rho(prob, t))
                          for a, t in zip(attacks, traces)])
        return traces

    monkeypatch.setattr(gridstorm.falsify, "simulate_many", many_spy)
    res = falsify_sa(prob, RngStream(1, 0))
    model = affine_model(prob)
    rho_2, knots_2, evals_2 = _anneal_restart(prob, 37, RngStream(1, 0).split(2),
                                              lambda k: one_model_score(model, k))
    # restart 2 turns negative after 27 scores, before restart 1 does after 35
    assert rho_2 < 0.0 and evals_2 == 27 < res.history[2].evaluations == 35
    [(values, rho)] = simulated[1]
    assert values == decode_control_points(knots_2, prob.mask, prob.d).values.tobytes()
    assert rho < 0.0
    # restart 1 wins, so restarts 2 and 3 never count; restart 3 stopped
    # with restart 2, after 27 scores
    assert [h.restart for h in res.history] == [-1, 0, 1]
    assert res.simulations == 5 + 3
    assert res.scores == 38 + 35 + 27 + 27
    assert_same_search(res, sequential_falsify(prob, RngStream(1, 0)))


def test_refuted_model_success_drops_no_restart(monkeypatch):
    prob = with_config(make_problem(d=30, p=4), budget=200, restarts=4)
    rng = RngStream(8, 0)
    # restart 1's first sample scores -1 on the model, but not when simulated
    fake = sample_candidate(prob, rng.split(1)).tobytes()
    real = AffineModel.score_many

    def disagreeing(model, knots):
        rhos = real(model, knots)
        for j, row in enumerate(knots):
            if row.tobytes() == fake:
                rhos[j] = -1.0
        return rhos

    monkeypatch.setattr(AffineModel, "score_many", disagreeing)
    want = sequential_falsify(prob, rng, negative={fake})
    got = falsify_sa(prob, rng)
    assert_same_search(got, want)
    assert not got.success
    assert got.history[2].evaluations == 1 and got.history[2].best_rho >= 0.0
    assert [h.evaluations for h in got.history[3:]] == [50, 50]
    # restart 1 is simulated once, after the first round, while the others
    # anneal on; their bests are simulated together at the end
    assert got.rounds == 1 + 49
    assert got.simulations == 5 + 1 + 3
    assert got.scores == got.evaluations - 1


def test_success_the_model_missed_drops_later_restarts(monkeypatch):
    prob = open_toy_problem(40, budget=150, restarts=4)
    # the model scores no candidate below 0, so no restart stops early and
    # only the final stacked run finds restart 1's counter-example
    real, real_one = AffineModel.score_many, one_model_score
    monkeypatch.setattr(AffineModel, "score_many", lambda m, k: np.maximum(real(m, k), 0.0))
    monkeypatch.setitem(globals(), "one_model_score", lambda m, k: max(real_one(m, k), 0.0))
    got = falsify_sa(prob, RngStream(1, 0))
    assert_same_search(got, sequential_falsify(prob, RngStream(1, 0)))
    assert [(h.restart, h.evaluations, h.success) for h in got.history] == [
        (-1, 1, False), (0, 38, False), (1, 38, True)]
    assert got.rounds == 38 and got.scores == 150
    assert got.simulations == 5 + 4


# ---------------------------------------------------------------------------
# synthesize-and-validate


def test_synthesize_none_on_infeasible():
    grid = make_plain_grid(n=1, thresholds=[0.01], m=2)
    laa = BreakerSchedule(signals=np.ones((30, 2), dtype=int))
    out = synthesize_and_validate(grid, laa, RngStream(11, 0), FalsifyConfig(
        range=(0.0, 0.0), budget=50, restarts=2, noise_check_seeds=0))
    assert out.attack is None
    assert not out.result.success


def test_synthesize_validates_and_is_repeatable():
    prob_grid = make_plain_grid(n=1, thresholds=[100.0], m=2, mcol=0.45,
                                inertia=0.02, regulation=20.0)
    laa = BreakerSchedule(signals=np.zeros((40, 2), dtype=int))
    config = FalsifyConfig(budget=200, restarts=2, noise_check_seeds=0)
    out1 = synthesize_and_validate(prob_grid, laa, RngStream(12, 0), config)
    out2 = synthesize_and_validate(prob_grid, laa, RngStream(12, 0), config)
    assert out1.attack is not None
    assert out1.validation.success
    assert out1.validation == out2.validation
    assert np.array_equal(out1.attack.false_data.values,
                          out2.attack.false_data.values)
    # the returned vector still satisfies the predicate when re-simulated
    tr = simulate(prob_grid, out1.attack, horizon=laa.d)
    rep = check_success(tr, prob_grid.envelope, prob_grid.thresholds, "measured")
    assert rep.success


def simulate_after_search(monkeypatch, replacement, name="simulate"):
    """From the end of the search on, falsify's `name` (simulate() by
    default) is replacement(real)."""
    real_search, real_simulate = gridstorm.falsify.falsify_sa, getattr(gridstorm.falsify, name)

    def search(*args, **kwargs):
        result = real_search(*args, **kwargs)
        monkeypatch.setattr(gridstorm.falsify, name, replacement(real_simulate))
        return result

    monkeypatch.setattr(gridstorm.falsify, "falsify_sa", search)


def nudged(real_simulate):
    """simulate() with every generator's scheduled load raised by 1e-8 p.u."""
    def run(grid, *args, **kwargs):
        grid = dataclasses.replace(grid, scheduled_load=grid.scheduled_load + 1e-8)
        return real_simulate(grid, *args, **kwargs)
    return run


def validating_problem():
    grid = make_plain_grid(n=1, thresholds=[100.0], m=2, mcol=0.45,
                           inertia=0.02, regulation=20.0)
    return grid, BreakerSchedule(signals=np.zeros((40, 2), dtype=int))


def test_synthesize_raises_when_validation_rho_differs(monkeypatch):
    simulate_after_search(monkeypatch, nudged)
    grid, laa = validating_problem()
    with pytest.raises(ValidationMismatch, match="re-simulated rho"):
        synthesize_and_validate(grid, laa, RngStream(12, 0), FalsifyConfig(
            budget=200, restarts=2, noise_check_seeds=0))


def test_falsify_cli_exits_4_when_validation_rho_differs(monkeypatch, tmp_path):
    simulate_after_search(monkeypatch, nudged)
    doc = load_config_doc("toy_grid.json")
    doc["thresholds"] = [1.25]
    paths = {}
    for name, content in (("grid", doc), ("laa", {"signals": [[0, 0]] * 100}),
                          ("falsify", {"signal_basis": "true", "budget": 300,
                                       "restarts": 2, "noise_check_seeds": 0})):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(content, fh)
    out = tmp_path / "f"
    rc = main(["falsify", "--config", paths["grid"], "--laa", paths["laa"],
               "--falsify-config", paths["falsify"], "--seed", "1", "--out", str(out)])
    assert rc == 4
    assert not (out / "attack.json").exists()


def test_validation_simulates_winner_once_without_noise(monkeypatch):
    noise_flags = []   # one per run, in order

    def spy(real_simulate):
        def run(*args, **kwargs):
            noise_flags.append(kwargs.get("noise", False))
            return real_simulate(*args, **kwargs)
        return run

    def spy_many(real_simulate_many):
        def run(grid, attacks, *args, **kwargs):
            noise_flags.extend([kwargs.get("noise", False)] * len(attacks))
            return real_simulate_many(grid, attacks, *args, **kwargs)
        return run

    simulate_after_search(monkeypatch, spy)
    simulate_after_search(monkeypatch, spy_many, "simulate_many")
    grid, laa = validating_problem()
    out = synthesize_and_validate(grid, laa, RngStream(12, 0), FalsifyConfig(
        budget=200, restarts=2, noise_check_seeds=3))
    assert out.validation.success
    assert noise_flags == [False, True, True, True]


# ---------------------------------------------------------------------------
# interchange files


def test_attack_roundtrip(tmp_path):
    sig = np.array([[1, 0], [0, 1], [1, 1]])
    vals = np.zeros((1, 3, 2))
    vals[0, :, 1] = [0.01, -0.02, 0.0]
    from gridstorm.sim import FalseDataSchedule
    attack = AttackVector(BreakerSchedule(sig),
                          FalseDataSchedule(vals, np.array([0, 1])))
    path = tmp_path / "attack.json"
    save_attack(path, attack, -0.05, 0.05, provenance={"seed": 1})
    loaded = load_attack_file(path)
    assert np.array_equal(loaded.breakers.signals, sig)
    assert np.array_equal(loaded.false_data.values, vals)


def test_attack_rejects_out_of_range():
    for value in (0.2, float("nan")):   # NaN compares False with either bound
        doc = {"d": 1, "breaker_schedule": [[1]], "false_data": [[[0.0, value]]],
               "mask": [0, 1], "range": [-0.05, 0.05]}
        with pytest.raises(ValueError, match="false data outside its declared range"):
            load_attack(doc)


def test_attack_rejects_missing_keys():
    with pytest.raises(ValueError, match="missing"):
        load_attack({"d": 3})


def test_schedule_roundtrip(tmp_path):
    sched = BreakerSchedule(signals=np.array([[1, 0], [0, 0]]))
    path = tmp_path / "laa.json"
    save_schedule(path, sched)
    loaded = load_schedule_file(path)
    assert np.array_equal(loaded.signals, sched.signals)


def test_schedule_rejects_corrupt(tmp_path):
    path = tmp_path / "laa.json"
    path.write_text("not json {")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: Expecting value"):
        load_schedule_file(path)
    with pytest.raises(ValueError):
        load_schedule({"d": 2, "m": 1, "signals": [[1]]})
    with pytest.raises(ValueError):
        load_schedule({"signals": [[2, 0]]})
