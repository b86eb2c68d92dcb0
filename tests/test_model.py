import dataclasses

import numpy as np
import pytest

from gridstorm.model import (C_OUT, AgcParams, Calibration, ConfigError, LoadMap,
                             build_continuous, calibrate_threshold,
                             design_kalman_gain, design_lqr_gain, discretize_zoh,
                             load_grid_config, spectral_radius)
from gridstorm.sim import FalseDataSchedule

from conftest import load_config_doc, make_plain_grid


def params(**overrides):
    base = dict(inertia=5.0, regulation=1.0, turbine_delay=0.5,
                governor_delay=0.2, integrator_gain=7.0)
    base.update(overrides)
    return AgcParams(**base)


def test_continuous_entries_match_closed_forms():
    a_c, b_c = build_continuous(params())
    assert a_c[0, 0] == -0.1
    assert a_c[0, 1] == 0.1
    assert b_c[0, 0] == -0.1
    assert a_c[1, 1] == -2.0 and a_c[1, 2] == 2.0
    assert a_c[2, 2] == -5.0 and a_c[2, 3] == 5.0
    assert a_c[3, 0] == -7.0
    # physics sign convention on the rotor-speed coupling into the valve
    assert a_c[2, 0] == -5.0
    assert np.array_equal(C_OUT, [[1, 0, 0, 0], [0, 0, 0, 1]])


def test_governor_sign_flag_selects_printed_variant():
    a_c, _ = build_continuous(params(governor_sign=1))
    assert a_c[2, 0] == +5.0


def test_droop_is_derived_from_regulation(default_grid):
    assert params(regulation=20.0).droop == 1.0 / 20.0
    # bit for bit the 0.05 that the shipped configs' dropped droop key gave
    assert default_grid.droop.tolist() == [0.05] * default_grid.n_generators


def test_zero_integrator_gain_freezes_reference_row():
    a_c, _ = build_continuous(params(integrator_gain=0.0))
    assert np.array_equal(a_c[3], [0.0, 0.0, 0.0, 0.0])


def charpoly_leverrier(m):
    """Faddeev-LeVerrier characteristic polynomial (independent of eig)."""
    n = m.shape[0]
    coeffs = [1.0]
    ak = m.copy()
    for k in range(1, n + 1):
        c = -np.trace(ak) / k
        coeffs.append(c)
        if k < n:
            ak = m @ (ak + c * np.eye(n))
    return np.array(coeffs)


def test_continuous_eigenvalues_match_polynomial_root_oracle():
    rng = np.random.default_rng(13)
    for _ in range(5):
        p = params(inertia=float(rng.uniform(1, 8)),
                   turbine_delay=float(rng.uniform(0.2, 1.0)),
                   governor_delay=float(rng.uniform(0.05, 0.4)),
                   integrator_gain=float(rng.uniform(0.0, 5.0)))
        a, _ = build_continuous(p)
        want = np.sort_complex(np.roots(charpoly_leverrier(a)))
        got = np.sort_complex(np.linalg.eigvals(a))
        assert np.allclose(got, want, atol=1e-8)


def test_params_invariants():
    with pytest.raises(ValueError):
        params(inertia=0.0)
    with pytest.raises(ValueError):
        params(governor_delay=-0.1)


# ---------------------------------------------------------------------------
# discretization


def zoh_pair(a_c, b_c, ts):
    """Scalar/general ZOH through the public block-exponential path."""
    return discretize_zoh(np.atleast_2d(np.asarray(a_c, dtype=float)),
                          np.atleast_2d(np.asarray(b_c, dtype=float)), ts)


def test_zoh_identity_case():
    a, b = zoh_pair(np.zeros((2, 2)), np.zeros((2, 1)), 0.5)
    assert np.array_equal(a, np.eye(2))
    assert np.array_equal(b, np.zeros((2, 1)))


def test_zoh_scalar_closed_form():
    a, b = zoh_pair([[-1.0]], [[1.0]], 0.1)
    assert abs(a[0, 0] - np.exp(-0.1)) <= 1e-10
    assert abs(b[0, 0] - (1.0 - np.exp(-0.1))) <= 1e-10


def euler_refined(a_c, b_c, ts, substeps=10_000):
    """Oracle: forward-Euler with substeps so fine the error is ~(ts/substeps)."""
    n = a_c.shape[0]
    h = ts / substeps
    a = np.eye(n)
    b = np.zeros_like(b_c)
    for _ in range(substeps):
        b = b + h * (a_c @ b + b_c)
        a = a + h * (a_c @ a)
    return a, b


def test_zoh_matches_fine_step_euler_oracle():
    a_c, b_c = build_continuous(params())
    a, b = discretize_zoh(a_c, b_c, 0.01)
    a_ref, b_ref = euler_refined(a_c, b_c, 0.01)
    assert np.max(np.abs(a - a_ref)) <= 1e-6
    assert np.max(np.abs(b - b_ref)) <= 1e-6


def test_zoh_semigroup_property():
    a_c, b_c = build_continuous(params(integrator_gain=1.0))
    ts = 0.04
    a_full, b_full = discretize_zoh(a_c, b_c, ts)
    a_half, b_half = discretize_zoh(a_c, b_c, ts / 2)
    assert np.max(np.abs(a_half @ a_half - a_full)) <= 1e-8
    assert np.max(np.abs(a_half @ b_half + b_half - b_full)) <= 1e-8


def test_zoh_rejects_bad_ts():
    with pytest.raises(ValueError):
        discretize_zoh(*build_continuous(params()), 0.0)


# ---------------------------------------------------------------------------
# gain design


def test_kalman_gain_tracks_noise_free_loop():
    # C = I and tiny measurement noise: the estimator trusts measurements and
    # the estimation error collapses geometrically.
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    a *= 0.9 / spectral_radius(a)
    c = np.eye(4)
    l = design_kalman_gain(a, c, 1e-4 * np.eye(4), 1e-12 * np.eye(4))
    e = np.ones(4)
    for _ in range(200):
        e = (a - l @ c) @ e
    assert np.max(np.abs(e)) < 1e-9


def test_kalman_gain_matches_covariance_recursion_oracle():
    a = np.array([[0.9]])
    c = np.array([[1.0]])
    q = np.array([[0.01]])
    r = np.array([[0.1]])
    p = q.copy()
    for _ in range(10_000):
        s = c @ p @ c.T + r
        k = a @ p @ c.T @ np.linalg.inv(s)
        p = a @ p @ a.T - k @ c @ p @ a.T + q
    l_oracle = a @ p @ c.T @ np.linalg.inv(c @ p @ c.T + r)
    l = design_kalman_gain(a, c, q, r)
    assert np.max(np.abs(l - l_oracle)) <= 1e-8


def test_stacked_kalman_design_equals_lone_designs():
    # loops of different inertia and noise, whose Riccati solves stop at
    # different iterations
    loops = []
    for inertia, scale in ((2.0, 1e-8), (5.0, 1e-4), (9.0, 1.0)):
        a, _ = discretize_zoh(*build_continuous(params(inertia=inertia)), 0.01)
        loops.append((a, C_OUT, scale * np.eye(4), np.diag([0.06, 1e-8])))
    stacked = design_kalman_gain(*(np.stack(m) for m in zip(*loops)))
    for i, loop in enumerate(loops):
        assert stacked[i].tobytes() == design_kalman_gain(*loop).tobytes(), i


def test_config_designs_missing_estimator_gains_in_one_solve(default_grid, monkeypatch):
    import gridstorm.model as model
    calls = []
    solve = model.solve_dare

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return solve(*args, **kwargs)
    monkeypatch.setattr(model, "solve_dare", counting)
    doc = load_config_doc("default_grid.json")
    doc["thresholds"] = default_grid.thresholds.tolist()
    supplied = default_grid.l[1] * 0.5
    doc["generators"][1]["gains"] = {"l": supplied.tolist()}
    grid = load_grid_config(doc)
    assert calls == [(2, 4, 4)]
    for i, l in enumerate(grid.l):
        want = supplied if i == 1 else default_grid.l[i]
        assert l.tobytes() == want.tobytes(), i


def test_config_reads_every_generator_before_designing_estimators():
    # generator 0's estimator design would fail, but generator 2's schema
    # error is found first: every generator is read before the stacked design
    doc = load_config_doc("default_grid.json")
    doc["generators"][0]["noise"]["process"] = 1e308
    doc["generators"][2]["params"]["inertia"] = "x"
    with pytest.raises(ConfigError, match=r"generators\[2\]\.params\.inertia"):
        load_grid_config(doc)
    doc["generators"][2]["params"]["inertia"] = 5.0
    with pytest.raises(ConfigError, match=r"generators\[0\]\.gains\.l: estimator design"):
        load_grid_config(doc)


def test_designed_estimators_are_contracting(default_grid):
    for a, l in zip(default_grid.a, default_grid.l):
        assert spectral_radius(a - l @ C_OUT) < 1.0


def test_lqr_zero_state_cost_gives_zero_gain():
    a = np.array([[0.5]])
    b = np.array([[1.0]])
    k = design_lqr_gain(a, b, np.zeros((1, 1)), np.eye(1))
    assert np.max(np.abs(k)) <= 1e-12


def test_lqr_stabilizes_unstable_scalar():
    k = design_lqr_gain(np.array([[1.1]]), np.array([[1.0]]), np.eye(1), np.eye(1))
    assert abs(1.1 - k[0, 0]) < 1.0


def test_lqr_on_discretized_plant_contracts():
    a, b = discretize_zoh(*build_continuous(params(integrator_gain=1.0)), 0.01)
    k = design_lqr_gain(a, b, np.eye(4), np.eye(1))
    assert spectral_radius(a - b @ k) <= min(1.0, spectral_radius(a)) + 1e-12


# ---------------------------------------------------------------------------
# threshold calibration


def test_calibrate_noise_free_hits_floor():
    grid = make_plain_grid(n=1, thresholds=[1.0])
    th = calibrate_threshold(grid, Calibration(horizon=200, seed=0))
    assert np.array_equal(th, [1e-9])


def test_calibrate_shared_input_step_stays_floor():
    sched = np.concatenate([np.zeros((1, 50)), 0.05 * np.ones((1, 1))], axis=1)
    grid = make_plain_grid(n=1, thresholds=[1.0], sched=sched)
    th = calibrate_threshold(grid, Calibration(horizon=400, seed=0))
    assert np.array_equal(th, [1e-9])


def test_calibrate_multi_seed_spread_below_20_percent():
    doc = load_config_doc("toy_grid.json")
    doc["thresholds"] = [1.0]  # placeholder; calibration runs explicitly below
    grid = load_grid_config(doc)
    ths = [calibrate_threshold(grid, Calibration(seed=s))[0] for s in (1, 2, 3)]
    spread = (max(ths) - min(ths)) / min(ths)
    assert spread < 0.20, f"threshold spread {spread:.3f} across seeds"


def test_calibrate_rejects_unsafe_nominal():
    sched = 100.0 * np.ones((1, 1))  # schedule alone drives frequency out
    grid = make_plain_grid(n=1, thresholds=[1.0], sched=sched)
    with pytest.raises(ValueError, match="nominal"):
        calibrate_threshold(grid, Calibration(horizon=400, seed=0))


def test_calibrate_rejects_margin_below_one():
    with pytest.raises(ValueError, match="margin"):
        Calibration(horizon=100, margin=0.9)


# ---------------------------------------------------------------------------
# config loading


def test_default_config_loads_three_generators(default_grid):
    assert default_grid.n_generators == 3
    assert default_grid.n_breakers == 3
    assert default_grid.ts == 0.01
    assert np.all(default_grid.thresholds > 0)


def test_grid_loop_arrays_are_read_only(default_grid):
    assert default_grid.a.shape == (3, 4, 4) and default_grid.l.shape == (3, 4, 2)
    for name in ("a", "b", "l", "k", "q_noise", "r_noise", "thresholds"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(default_grid, name)[0] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        C_OUT[0, 0] = 2.0


def test_constructors_freeze_a_copy_not_the_callers_array(default_grid):
    """LoadMap, GridModel (dataclasses.replace too) and FalseDataSchedule
    keep read-only copies; the float arrays they were given stay writable."""
    m, th, values = np.ones((1, 2)), np.array([0.1, 0.2, 0.3]), np.zeros((3, 4, 2))
    load_map = LoadMap(m, np.array([1, 1]))
    grid = dataclasses.replace(default_grid, thresholds=th)
    false_data = FalseDataSchedule(values, np.array([0, 1]))
    for given, kept in ((m, load_map.matrix), (th, grid.thresholds),
                        (values, false_data.values)):
        assert given.flags.writeable and not kept.flags.writeable
        given[...] = 7.0
        assert not np.any(kept == 7.0)


def test_config_rejects_empty_generators():
    doc = load_config_doc("toy_grid.json")
    doc["generators"] = []
    with pytest.raises(ConfigError, match="generators"):
        load_grid_config(doc)


def test_config_rejects_unknown_keys():
    doc = load_config_doc("toy_grid.json")
    doc["surprise"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        load_grid_config(doc)
    doc = load_config_doc("toy_grid.json")
    doc["generators"][0]["params"]["frobnicate"] = 2
    with pytest.raises(ConfigError, match="frobnicate"):
        load_grid_config(doc)


def test_config_rejects_bad_load_map():
    doc = load_config_doc("toy_grid.json")
    doc["load_map"]["matrix"] = [[0.25, 0.0]]  # dead second column
    with pytest.raises(ConfigError, match="load_map"):
        load_grid_config(doc)


def test_config_rejects_empty_schedule():
    doc = load_config_doc("toy_grid.json")
    doc["scheduled_load"] = [[]]   # one row, as the toy grid has one generator
    with pytest.raises(ConfigError, match=r"^\$\.scheduled_load: "):
        load_grid_config(doc)
    with pytest.raises(ValueError, match="scheduled_load"):
        make_plain_grid(n=1, sched=np.zeros((1, 0)))


def test_config_explicit_thresholds_skip_calibration():
    doc = load_config_doc("toy_grid.json")
    doc["thresholds"] = [0.5]
    grid = load_grid_config(doc)
    assert np.array_equal(grid.thresholds, [0.5])


def test_config_supplied_gain_is_used():
    doc = load_config_doc("toy_grid.json")
    doc["generators"][0]["gains"] = {"k": [[0.0, 0.0, 0.0, 0.1]]}
    grid = load_grid_config(doc)
    assert grid.k[0, 3] == 0.1


def test_estimator_error_decays_geometrically():
    grid = make_plain_grid(n=1, thresholds=[1.0])
    m = grid.a[0] - grid.l[0] @ C_OUT
    e = np.array([1.0, 0.5, -0.5, 0.25])
    norms = []
    for _ in range(1000):
        e = m @ e
        norms.append(np.linalg.norm(e))
    assert norms[-1] < 1e-6 * norms[0]
