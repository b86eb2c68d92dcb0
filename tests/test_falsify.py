import json

import numpy as np
import pytest
from scipy.optimize import linprog

from gridstorm.falsify import (AffineModel, Candidate, FalsificationProblem,
                               FalsifyResult, affine_model, decode_control_points,
                               falsify_sa, load_attack, load_schedule, objective,
                               sample_candidate, save_attack, save_schedule,
                               synthesize_and_validate, zero_candidate)
from gridstorm.model import load_grid_config
from gridstorm.numerics import RngStream
from gridstorm.sim import AttackVector, BreakerSchedule, check_success, simulate

from conftest import load_config_doc, make_plain_grid


def make_problem(grid=None, d=40, p=10, lo=-0.05, hi=0.05, laa_open=False,
                 **kw):
    grid = grid or make_plain_grid(n=1, thresholds=[0.01], m=2, mcol=0.3)
    m = grid.n_breakers
    fill = 0 if laa_open else 1
    laa = BreakerSchedule(signals=np.full((d, m), fill, dtype=int))
    return FalsificationProblem(grid=grid, laa=laa, d=d, range_lo=lo,
                                range_hi=hi, mask=np.array([0, 1]),
                                control_points=p, **kw)


# ---------------------------------------------------------------------------
# control-point decode


def test_decode_identity_when_p_equals_d():
    prob = make_problem(d=12, p=12)
    rng = RngStream(1, 0)
    cand = sample_candidate(prob, rng)
    sched = decode_control_points(cand, 12)
    assert np.array_equal(sched.values[0, :, 1], cand.knots[0, 0])
    assert np.all(sched.values[:, :, 0] == 0.0)


def test_decode_single_knot_is_constant():
    cand = Candidate(knots=np.full((1, 1, 1), 0.3), mask=np.array([0, 1]))
    sched = decode_control_points(cand, 25)
    assert np.all(sched.values[0, :, 1] == 0.3)


def test_decode_segment_lengths_by_counting():
    cand = Candidate(knots=np.arange(4.0).reshape(1, 1, 4) + 1.0,
                     mask=np.array([0, 1]))
    sched = decode_control_points(cand, 100)
    for j in range(4):
        assert int(np.sum(sched.values[0, :, 1] == j + 1.0)) == 25


def test_decode_uneven_segments_cover_all_steps():
    cand = Candidate(knots=np.arange(3.0).reshape(1, 1, 3) + 1.0,
                     mask=np.array([0, 1]))
    sched = decode_control_points(cand, 10)  # floor(j*10/3) -> segments 3,3,4
    vals = sched.values[0, :, 1]
    assert np.all(vals > 0)
    assert [int(np.sum(vals == k + 1.0)) for k in range(3)] == [3, 3, 4]


# ---------------------------------------------------------------------------
# objective


def test_objective_benign_is_positive():
    prob = make_problem()
    assert objective(prob, zero_candidate(prob)) > 0


def test_objective_purity_bit_identical():
    prob = make_problem()
    cand = sample_candidate(prob, RngStream(2, 0))
    vals = {objective(prob, cand) for _ in range(5)}
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
    cand = sample_candidate(prob, RngStream(3, 0))
    assert np.all(cand.knots == 0.25)


def test_sample_within_range_property():
    prob = make_problem(lo=-0.4, hi=0.1)
    rng = RngStream(4, 0)
    for _ in range(200):
        cand = sample_candidate(prob, rng)
        assert np.all(cand.knots >= -0.4) and np.all(cand.knots <= 0.1)


def test_sample_mean_statistics():
    prob = make_problem(lo=-1.0, hi=1.0, p=5)
    rng = RngStream(5, 0)
    draws = np.array([sample_candidate(prob, rng).knots for _ in range(20_000)])
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
    res = falsify_sa(prob, budget=2000, restarts=10, rng=RngStream(6, 0))
    assert res.success
    assert res.evaluations <= 1 + 10  # screen + at most one eval per restart


def test_infeasible_zero_range_returns_no_counterexample():
    prob = make_problem(lo=0.0, hi=0.0)
    res = falsify_sa(prob, budget=300, restarts=3, rng=RngStream(7, 0))
    assert not res.success
    assert res.best_rho > 0
    assert res.evaluations <= 301


def test_best_rho_equals_minimum_of_all_evaluations(monkeypatch):
    prob = make_problem(d=30, p=4)
    seen = []
    real = AffineModel.score

    def spy(model, cand):
        rho = real(model, cand)
        seen.append(rho)
        return rho

    monkeypatch.setattr(AffineModel, "score", spy)
    rho_zero = objective(prob, zero_candidate(prob))
    res = falsify_sa(prob, budget=200, restarts=2, rng=RngStream(8, 0))
    assert res.evaluations == 1 + len(seen)       # zero screen + model scores
    # reported rho is simulated; the model's scores agree to rounding
    assert res.best_rho == objective(prob, res.best_candidate)
    assert abs(res.best_rho - min([rho_zero] + seen)) <= 1e-12


def test_budget_below_restarts_spends_exactly_budget():
    prob = make_problem(d=30, p=4)
    for budget in range(1, 6):
        res = falsify_sa(prob, budget=budget, restarts=4, rng=RngStream(21, 0))
        assert not res.success
        assert res.evaluations == budget + 1, budget
        assert len(res.history) == 1 + min(budget, 4)


def test_falsify_blowup_reports_inf_without_success():
    grid = make_plain_grid(n=1, thresholds=[0.01], m=2,
                           sched=np.array([[np.inf]]))
    prob = make_problem(grid=grid)
    assert affine_model(prob)[0] is None
    res = falsify_sa(prob, budget=30, restarts=3, rng=RngStream(22, 0))
    assert not res.success
    assert res.best_rho == np.inf
    assert res.evaluations == 31
    # screen + the one truncated build run + 30 objective() scores; each
    # restart's best is one of those scores, so it is not simulated again
    assert res.simulations == 32


@pytest.mark.parametrize("mask", [(0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("basis", ["measured", "true"])
@pytest.mark.parametrize("stealth", ["until_unsafe", "all_steps"])
def test_affine_model_agrees_with_objective(mask, basis, stealth):
    # three generators guard the one-knot-on-every-generator build
    grid = make_plain_grid(n=3, thresholds=[0.02, 0.03, 0.024], m=2, mcol=0.45,
                           inertia=0.02, regulation=20.0)
    init = np.array([[0.02, -0.01, 0.005, 0.0], [-0.01, 0.005, 0.0, 0.002],
                     [0.04, -0.02, 0.01, 0.0]])
    laa = BreakerSchedule(signals=np.zeros((30, 2), dtype=int))
    prob = FalsificationProblem(grid=grid, laa=laa, d=30, range_lo=-0.05,
                                range_hi=0.08, mask=np.array(mask), init=init,
                                control_points=5, signal_basis=basis,
                                stealth_mode=stealth)
    model, built = affine_model(prob)
    assert built == 1 + prob.n_attacked * prob.control_points
    rng = RngStream(23, 0)
    rhos = []
    for _ in range(50):
        cand = sample_candidate(prob, rng)
        rho = objective(prob, cand)
        assert abs(model.score(cand) - rho) <= 1e-12
        rhos.append(rho)
        # the frequency too, which need not bind rho
        trace = simulate(grid, AttackVector(laa, decode_control_points(cand, 30)),
                         horizon=30, init=init)
        sig = model.signals(cand)
        assert np.max(np.abs(sig[:, :, 0] - trace.frequency(basis))) <= 1e-12
        assert np.max(np.abs(sig[:, :, 1:] - trace.residue)) <= 1e-12
    assert len(set(rhos)) > 1     # the candidates move rho


def toy_problem(breakers):
    """The criterion-5 toy problem with P = 4: breakers all open (0) or closed (1)."""
    doc = load_config_doc("toy_grid.json")
    doc["thresholds"] = [1.25]
    laa = BreakerSchedule(signals=np.full((60, 2), breakers, dtype=int))
    return FalsificationProblem(grid=load_grid_config(doc), laa=laa, d=60,
                                range_lo=-0.05, range_hi=0.05,
                                mask=np.array([0, 1]), control_points=4)


def lp_optimum(problem):
    """Exact minimum rho* of a mask (0, 1) problem, and knots that reach it.

    False data on output 2 leaves the frequency alone, so its margin s(k') is
    fixed and only the residue, affine in the knots z, moves.  Hence
    rho* = min over k' of max(s(k'), LP(k')), where LP(k') minimises over the
    box the worst residue excess max_{t < k', i, o} |r_ito(z)| - Th_i.  The
    unit responses come from one simulation per (generator, knot).
    """
    n, p = problem.grid.n_generators, problem.control_points
    lo, hi, th = problem.range_lo, problem.range_hi, problem.grid.thresholds

    def run(knots):
        sched = decode_control_points(Candidate(knots=knots, mask=problem.mask),
                                      problem.d)
        return simulate(problem.grid, AttackVector(problem.laa, sched),
                        horizon=problem.d, init=problem.init)

    base = run(np.zeros((n, 1, p)))
    resp = []
    for unit in np.eye(n * p):
        trace = run(unit.reshape(n, 1, p))
        assert np.array_equal(trace.frequency(problem.signal_basis),
                              base.frequency(problem.signal_basis))
        resp.append(trace.residue - base.residue)
    resp = np.stack(resp, axis=-1)                   # n x steps x 2 x (n * p)

    env = problem.grid.envelope
    f = base.frequency(problem.signal_basis)
    s = np.min(np.minimum(env.f_hi - f, f - env.f_lo), axis=0)
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
    assert np.all(knots >= prob.range_lo) and np.all(knots <= prob.range_hi)
    assert abs(objective(prob, Candidate(knots=knots, mask=prob.mask))
               - rho_star) <= 1e-9
    res = falsify_sa(prob, budget=2000, restarts=4, rng=RngStream(24, 0))
    assert res.best_rho >= rho_star - 1e-12
    if breakers == 0:
        assert rho_star < 0.0     # the open variant has a counter-example


def test_returned_schedule_respects_mask_and_range():
    prob = make_problem(d=30, p=4, lo=-0.02, hi=0.03)
    res = falsify_sa(prob, budget=150, restarts=2, rng=RngStream(9, 0))
    vals = res.best_schedule.values
    assert np.all(vals[:, :, 0] == 0.0)
    assert np.all(vals >= -0.02) and np.all(vals <= 0.03)


def test_history_covers_restarts():
    prob = make_problem(d=30, p=4)
    res = falsify_sa(prob, budget=100, restarts=4, rng=RngStream(10, 0))
    tags = [h.restart for h in res.history]
    assert tags[0] == -1  # zero screen
    assert tags[1:] == [0, 1, 2, 3]
    assert sum(h.evaluations for h in res.history) == res.evaluations


def test_result_invariant_success_iff_negative():
    with pytest.raises(AssertionError):
        FalsifyResult(best_candidate=None, best_schedule=None, best_rho=0.5,
                      evaluations=1, success=True)


# ---------------------------------------------------------------------------
# synthesize-and-validate


def test_synthesize_none_on_infeasible():
    grid = make_plain_grid(n=1, thresholds=[0.01], m=2)
    laa = BreakerSchedule(signals=np.ones((30, 2), dtype=int))
    out = synthesize_and_validate(grid, laa, RngStream(11, 0), range_lo=0.0,
                                  range_hi=0.0, budget=50, restarts=2,
                                  noise_check_seeds=0)
    assert out.attack is None
    assert not out.result.success


def test_synthesize_validates_and_is_repeatable():
    prob_grid = make_plain_grid(n=1, thresholds=[100.0], m=2, mcol=0.45,
                                inertia=0.02, regulation=20.0)
    laa = BreakerSchedule(signals=np.zeros((40, 2), dtype=int))
    out1 = synthesize_and_validate(prob_grid, laa, RngStream(12, 0),
                                   budget=200, restarts=2, noise_check_seeds=0)
    out2 = synthesize_and_validate(prob_grid, laa, RngStream(12, 0),
                                   budget=200, restarts=2, noise_check_seeds=0)
    assert out1.attack is not None
    assert out1.validation.success
    assert out1.validation == out2.validation
    assert np.array_equal(out1.attack.false_data.values,
                          out2.attack.false_data.values)
    # the returned vector still satisfies the predicate when re-simulated
    tr = simulate(prob_grid, out1.attack, horizon=laa.d)
    rep = check_success(tr, prob_grid.envelope, prob_grid.thresholds, "measured")
    assert rep.success


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
    loaded = load_attack(path.read_text())
    assert np.array_equal(loaded.breakers.signals, sig)
    assert np.array_equal(loaded.false_data.values, vals)


def test_attack_rejects_out_of_range(tmp_path):
    doc = {"d": 1, "breaker_schedule": [[1]], "false_data": [[[0.0, 0.2]]],
           "mask": [0, 1], "range": [-0.05, 0.05]}
    with pytest.raises(ValueError, match="range"):
        load_attack(json.dumps(doc))


def test_attack_rejects_missing_keys():
    with pytest.raises(ValueError, match="missing"):
        load_attack(json.dumps({"d": 3}))


def test_schedule_roundtrip(tmp_path):
    sched = BreakerSchedule(signals=np.array([[1, 0], [0, 0]]))
    path = tmp_path / "laa.json"
    save_schedule(path, sched)
    loaded = load_schedule(path.read_text())
    assert np.array_equal(loaded.signals, sched.signals)


def test_schedule_rejects_corrupt():
    with pytest.raises(ValueError):
        load_schedule("not json {")
    with pytest.raises(ValueError):
        load_schedule(json.dumps({"d": 2, "m": 1, "signals": [[1]]}))
    with pytest.raises(ValueError):
        load_schedule(json.dumps({"signals": [[2, 0]]}))
