import dataclasses
import io
import warnings

import numpy as np
import pytest

import gridstorm.sim as sim
from gridstorm.model import (C_OUT, NOMINAL_HZ, LoadMap, design_lqr_gain, load_grid_config,
                             spectral_radius)
from gridstorm.numerics import RngStream
from gridstorm.sim import (CSV_CHUNK_STEPS, CSV_COLUMNS, AttackVector,
                           BreakerSchedule, FalseDataSchedule, SimTrace,
                           check_success, detect, frequency_margin, residue_norm,
                           residue_term, robustness, robustness_terms, simulate,
                           simulate_many, write_trace_csv)

from conftest import load_config_doc, make_plain_grid

TWO_PI = 2.0 * np.pi

def zero_attack(n, d, m, mask=(0, 1)):
    return AttackVector(
        breakers=BreakerSchedule(signals=np.ones((d, m), dtype=int)),
        false_data=FalseDataSchedule(values=np.zeros((n, d, 2)),
                                     mask=np.array(mask)))


# ---------------------------------------------------------------------------
# load map


def test_load_map_nominal_state_is_zero():
    lm = LoadMap(matrix=np.array([[0.2, 0.0], [0.0, 0.3]]), b_nom=np.array([1, 1]))
    assert np.array_equal(lm.offsets(np.array([1, 1])), [0.0, 0.0])


def test_load_map_hand_example_with_matrix_oracle():
    m = np.array([[0.2, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.1]])
    lm = LoadMap(matrix=m, b_nom=np.array([1, 1, 1]))
    b = np.array([0, 1, 1])
    got = lm.offsets(b)
    assert np.allclose(got, [-0.2, 0.0, 0.0])
    # matrix-multiply oracle
    assert np.array_equal(got, m @ (b - np.array([1, 1, 1])))
    # a block of d states gives one column per state
    block = lm.offsets(np.array([b, [1, 1, 1], [1, 0, 0]]))
    assert block.shape == (3, 3)
    assert np.array_equal(block[:, 0], got)
    assert np.array_equal(block[:, 1], [0.0, 0.0, 0.0])
    assert np.allclose(block[:, 2], [0.0, -0.3, -0.1])


def test_load_map_toggle_is_involution():
    lm = LoadMap(matrix=np.array([[0.2, 0.1]]), b_nom=np.array([1, 0]))
    flipped = np.array([0, 1])
    back = np.array([1, 0])
    assert np.any(lm.offsets(flipped) != 0.0)
    assert np.array_equal(lm.offsets(back), [0.0])


def test_load_map_rejects_bad_state():
    # breaker states reach the load map only through a BreakerSchedule,
    # which must be binary, and simulate, which checks its width
    with pytest.raises(ValueError, match="binary"):
        BreakerSchedule(signals=np.array([[2]]))
    grid = make_plain_grid(n=1, m=1)
    with pytest.raises(ValueError, match="breaker count"):
        simulate(grid, zero_attack(1, 3, 2), horizon=5)


# ---------------------------------------------------------------------------
# reference step loop: an independent transcription of the closed-loop update


def reference_simulate(grid, attack, horizon, w=None, v=None):
    """Plain dict-of-lists reimplementation of the attacked recursion; w and
    v are optional process (n x horizon x 4) and measurement
    (n x horizon+1 x 2) noise.  Plant and estimator both apply the feedback
    K x_hat of each loop's gain row grid.k[i]."""
    n = grid.n_generators
    lm = grid.load_map
    out = {"x": [], "xhat": [], "y": [], "ym": [], "r": []}
    xs = [np.zeros(4) for _ in range(n)]
    xhats = [x.copy() for x in xs]
    sched = grid.scheduled_load

    def sched_at(i, k):
        t = min(k, sched.shape[1] - 1)
        return sched[i, t]

    def laa_at(k):
        if attack is None or k >= attack.d:
            return np.zeros(n)
        return lm.matrix @ (attack.breakers.signals[k] - lm.b_nom).astype(float)

    def ay_at(i, k):
        if attack is None or k >= attack.d:
            return np.zeros(2)
        return attack.false_data.values[i, k]

    rs = []
    for i in range(n):
        y = C_OUT @ xs[i]
        ym = y + ay_at(i, 0) + (0.0 if v is None else v[i, 0])
        rs.append(ym - C_OUT @ xhats[i])
        out["x"].append([xs[i].copy()])
        out["xhat"].append([xhats[i].copy()])
        out["y"].append([y])
        out["ym"].append([ym])
        out["r"].append([rs[i].copy()])

    for k in range(1, horizon + 1):
        offs = laa_at(k - 1)
        for i in range(n):
            a, b, c, l = grid.a[i], grid.b[i], C_OUT, grid.l[i]
            fb = grid.k[i] @ xhats[i]
            u_act = sched_at(i, k - 1) + offs[i] + fb
            u_bel = sched_at(i, k - 1) + fb
            x = a @ xs[i] + b * u_act + (0.0 if w is None else w[i, k - 1])
            xhat = a @ xhats[i] + b * u_bel + l @ rs[i]
            y = c @ x
            ym = y + ay_at(i, k) + (0.0 if v is None else v[i, k])
            r = ym - c @ xhat
            xs[i], xhats[i], rs[i] = x, xhat, r
            out["x"][i].append(x.copy())
            out["xhat"][i].append(xhat.copy())
            out["y"][i].append(y)
            out["ym"][i].append(ym)
            out["r"][i].append(r.copy())
    steps = range(horizon + 1)
    fb = [[grid.k[i] @ out["xhat"][i][k] for k in steps]
          for i in range(n)]
    out["ub"] = [[sched_at(i, k) + fb[i][k] for k in steps] for i in range(n)]
    out["ua"] = [[sched_at(i, k) + laa_at(k)[i] + fb[i][k] for k in steps]
                 for i in range(n)]
    return {key: np.array(val) for key, val in out.items()}


def reference_case():
    rng = np.random.default_rng(21)
    grid = make_plain_grid(n=2, thresholds=[0.5, 0.5], mcol=0.3,
                           sched=rng.normal(scale=0.05, size=(2, 40)))
    sig = rng.integers(0, 2, size=(30, 2))
    vals = np.zeros((2, 30, 2))
    vals[:, :, 1] = rng.normal(scale=0.02, size=(2, 30))
    attack = AttackVector(breakers=BreakerSchedule(sig),
                          false_data=FalseDataSchedule(vals, np.array([0, 1])))
    return grid, attack, reference_simulate(grid, attack, 60)


def assert_matches_reference(tr, ref):
    assert np.allclose(tr.x, ref["x"], atol=1e-12)
    assert np.allclose(tr.xhat, ref["xhat"], atol=1e-12)
    assert np.allclose(tr.residue, ref["r"], atol=1e-12)
    assert np.allclose(tr.y_meas, ref["ym"], atol=1e-12)
    assert np.allclose(tr.u_believed, ref["ub"], atol=1e-12)
    assert np.allclose(tr.u_actual, ref["ua"], atol=1e-12)


def test_simulate_matches_reference_loop():
    grid, attack, ref = reference_case()
    assert_matches_reference(simulate(grid, attack, horizon=60), ref)


def test_simulate_with_gain_matches_reference_loop():
    grid, attack, _ = reference_case()
    grid = dataclasses.replace(grid, k=[
        -design_lqr_gain(a, b[:, None], np.eye(4), np.eye(1))[0]
        for a, b in zip(grid.a, grid.b)])
    tr = simulate(grid, attack, horizon=60)
    assert np.any(np.abs(tr.u_believed - grid.scheduled_load[:, :1]) > 1e-6)
    assert_matches_reference(tr, reference_simulate(grid, attack, 60))


def test_lqr_gain_reaches_the_plant():
    doc = load_config_doc("toy_grid.json")
    doc["generators"][0]["gains"] = {"lqr": {"q": 1, "r": 1}}
    doc.update(noise_enabled=False, thresholds=[0.9], scheduled_load=[[0.1]])
    grid = load_grid_config(doc)
    assert spectral_radius(grid.a[0] + np.outer(grid.b[0], grid.k[0])) < 1.0
    tr = simulate(grid, None, horizon=400)
    assert not tr.truncated
    assert np.any(tr.u_believed != 0.1)                # the feedback acts
    assert np.array_equal(tr.u_actual, tr.u_believed)  # on plant and estimator alike
    assert np.max(np.abs(tr.residue)) == 0.0


def test_noisy_simulate_matches_reference_loop(monkeypatch):
    grid, attack, _ = reference_case()
    horizon, n = 60, grid.n_generators
    # simulate's draw order: every generator's process noise, then every
    # generator's measurement noise, each shaped by its Cholesky factor
    rng = RngStream(17, 1)
    w = np.array([rng.normal(size=(horizon, 4))
                  @ np.linalg.cholesky(q + 1e-300 * np.eye(4)).T for q in grid.q_noise])
    v = np.array([rng.normal(size=(horizon + 1, 2))
                  @ np.linalg.cholesky(r).T for r in grid.r_noise])
    assert w.shape == (n, horizon, 4) and np.all(w != 0.0) and np.all(v != 0.0)
    ref = reference_simulate(grid, attack, horizon, w=w, v=v)
    drawn, step_loop = [], sim.step_loop

    def recording(*args):
        drawn.append(args[12:14])   # the w and v simulate drew
        return step_loop(*args)
    monkeypatch.setattr(sim, "step_loop", recording)
    tr = simulate(grid, attack, horizon=horizon, noise=True, rng=RngStream(17, 1))
    assert_matches_reference(tr, ref)
    # one draw per kind, scaled by a stacked matmul, gives the loop's bits
    assert [arr.tobytes() for arr in drawn[0]] == [w.tobytes(), v.tobytes()]


def test_noise_draw_scales_by_the_lower_cholesky_factors(monkeypatch):
    """With a non-diagonal Q and R, w and v are the normals times the
    transposed lower Cholesky factors, which the reference forms itself; a
    transposed factor draws other noise."""
    q = 1e-6 * (np.eye(4) + 0.5 * np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0],
                                            [0, 0, 0, 0]]))
    r = 1e-6 * np.array([[1.0, 0.4], [0.4, 1.0]])
    grid = dataclasses.replace(make_plain_grid(n=2, thresholds=[0.5, 0.5], mcol=0.3),
                               q_noise=[q, 2.0 * q], r_noise=[r, 3.0 * r])
    horizon, seeds = 25, (31, 32)
    drawn, step_loop = [], sim.step_loop

    def recording(*args):
        drawn.append(args[12:14])   # the w and v simulate_many drew
        return step_loop(*args)
    monkeypatch.setattr(sim, "step_loop", recording)
    simulate_many(grid, [None, None], horizon, noise=True,
                  rngs=[RngStream(seed, 1) for seed in seeds])
    chol_q = [np.linalg.cholesky(cov + 1e-300 * np.eye(4)) for cov in grid.q_noise]
    chol_r = [np.linalg.cholesky(cov) for cov in grid.r_noise]
    w, v = [], []
    for seed in seeds:
        rng = RngStream(seed, 1)
        w += [rng.normal(size=(horizon, 4)) @ f.T for f in chol_q]
        v += [rng.normal(size=(horizon + 1, 2)) @ f.T for f in chol_r]
    assert [arr.tobytes() for arr in drawn[0]] == [np.array(w).tobytes(),
                                                   np.array(v).tobytes()]


def test_equilibrium_stays_exactly_zero():
    grid = make_plain_grid(n=2, thresholds=[0.1, 0.1])
    tr = simulate(grid, None, horizon=50)
    assert np.all(tr.x == 0.0)
    assert np.all(tr.residue == 0.0)
    assert np.all(tr.f_hz == 60.0)
    assert detect(tr, grid.thresholds) is None


def test_scheduled_step_keeps_residue_zero_and_recovers():
    sched = np.concatenate([np.zeros((1, 10)), 0.2 * np.ones((1, 1))], axis=1)
    grid = make_plain_grid(n=1, thresholds=[0.1], sched=sched)
    tr = simulate(grid, None, horizon=3000)
    assert np.max(np.abs(tr.residue)) == 0.0
    dw = tr.x[0, :, 0]
    peak = np.max(np.abs(dw))
    assert peak > 0.0
    # integrator action pulls the deviation back toward zero
    assert np.abs(dw[-1]) < 0.05 * peak


def test_shared_input_zero_residue_any_schedule():
    rng = np.random.default_rng(3)
    sched = rng.normal(scale=0.1, size=(2, 200))
    grid = make_plain_grid(n=2, thresholds=[0.1, 0.1], sched=sched)
    tr = simulate(grid, None, horizon=400)
    assert np.max(np.abs(tr.residue)) == 0.0


def test_simulate_determinism_byte_identical():
    grid = make_plain_grid(n=2, thresholds=[0.1, 0.1], noise_enabled=True)
    tr1 = simulate(grid, None, horizon=100, noise=True, rng=RngStream(9, 4))
    tr2 = simulate(grid, None, horizon=100, noise=True, rng=RngStream(9, 4))
    assert np.array_equal(tr1.x, tr2.x)
    assert np.array_equal(tr1.residue, tr2.residue)
    assert csv_text(tr1) == csv_text(tr2)


def long_horizon_case():
    grid = make_plain_grid(n=3, thresholds=[0.1] * 3, mcol=0.2)
    sig = np.zeros((100, 3), dtype=int)
    attack = AttackVector(BreakerSchedule(sig),
                          FalseDataSchedule(np.zeros((3, 100, 2)), np.array([0, 1])))
    return grid, attack


def test_backend_agreement_long_horizon():
    grid, attack = long_horizon_case()
    tr = simulate(grid, attack, horizon=800)
    ref = reference_simulate(grid, attack, 800)
    assert np.allclose(tr.x, ref["x"], atol=1e-9, rtol=1e-9)
    assert np.allclose(tr.residue, ref["r"], atol=1e-9, rtol=1e-9)


def test_trace_step_identities():
    grid = make_plain_grid(n=2, thresholds=[0.05, 0.05], mcol=0.3)
    sig = np.zeros((20, 2), dtype=int)
    attack = AttackVector(BreakerSchedule(sig),
                          FalseDataSchedule(np.zeros((2, 20, 2)), np.array([0, 1])))
    tr = simulate(grid, attack, horizon=40)
    c = C_OUT
    for k in (0, 1, 17, 40):
        want = tr.y_meas[:, k] - np.einsum("os,ns->no", c, tr.xhat[:, k])
        assert np.allclose(tr.residue[:, k], want, atol=1e-15)
        assert np.allclose(tr.f_hz[:, k], 60.0 + tr.x[:, k, 0] / TWO_PI)
        assert np.array_equal(tr.stealthy[:, k],
                              np.max(np.abs(tr.residue[:, k]), axis=1) <= grid.thresholds)
    # the records and the arrays derived from them on first read: read-only,
    # and each formed once
    for name in ("x", "xhat", "y", "y_meas", "residue", "u_believed", "u_actual",
                 "f_hz", "f_meas_hz", "p_e", "r_inf", "stealthy"):
        assert not getattr(tr, name).flags.writeable, name
        assert getattr(tr, name) is getattr(tr, name), name


def test_simulate_truncates_on_blowup():
    # linear dynamics cannot overflow from bounded inputs in a few steps, so
    # drive the loop with an already-infinite schedule
    grid = make_plain_grid(n=1, thresholds=[0.1], sched=np.array([[np.inf]]))
    tr = simulate(grid, None, horizon=50)
    assert tr.truncated
    assert tr.n_steps == 1


def truncated_trace():
    """10 finite schedule steps, then an infinite one, over horizon 50."""
    sched = np.concatenate([0.1 * np.ones((2, 10)), np.full((2, 1), np.inf)], axis=1)
    return simulate(make_plain_grid(n=2, thresholds=[0.1, 0.1], sched=sched),
                    None, horizon=50)


def test_simulate_truncates_mid_horizon_keeping_finite_records():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tr = truncated_trace()
    # step 10 consumes the infinite input, so record 11 is the first non-finite
    assert tr.truncated
    assert tr.n_steps == 11
    for arr in (tr.x, tr.xhat, tr.y, tr.y_meas, tr.residue):
        assert np.all(np.isfinite(arr))


def test_attack_longer_than_horizon_rejected():
    grid = make_plain_grid(n=1, thresholds=[0.1])
    with pytest.raises(ValueError):
        simulate(grid, zero_attack(1, 30, 1), horizon=20)


def test_post_attack_padding_reverts_to_nominal():
    grid = make_plain_grid(n=1, thresholds=[10.0], mcol=0.4)
    sig = np.zeros((10, 1), dtype=int)  # open for 10 steps, then revert
    attack = AttackVector(BreakerSchedule(sig),
                          FalseDataSchedule(np.zeros((1, 10, 2)), np.array([0, 1])))
    tr = simulate(grid, attack, horizon=50)
    assert np.all(tr.u_actual[0, :10] == -0.4)
    assert np.all(tr.u_actual[0, 10:] == 0.0)


# ---------------------------------------------------------------------------
# stacked runs: simulate_many against one simulate call per run

RECORDS = ("x", "xhat", "y", "y_meas", "residue", "u_believed", "u_actual")


def assert_same_records(got, want, label):
    assert got.n_steps == want.n_steps and got.truncated == want.truncated, label
    for name in RECORDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (label, name)


def random_attack(grid, d, rng):
    vals = np.zeros((grid.n_generators, d, 2))
    vals[:, :, 1] = rng.uniform(-0.05, 0.05, size=(grid.n_generators, d))
    return AttackVector(BreakerSchedule(rng.integers(0, 2, size=(d, grid.n_breakers))),
                        FalseDataSchedule(vals, np.array([0, 1])))


@pytest.mark.parametrize("case", ["plain", "noisy", "feedback_gain", "lqr",
                                  "governor_sign", "schedule"])
def test_simulate_many_bitwise_equals_separate_runs(case):
    doc = load_config_doc("default_grid.json")
    if case == "schedule":   # five columns, the last one held
        doc["scheduled_load"] = [[0.01, -0.02, 0.015, 0.005, -0.01],
                                 [0.0, 0.01, 0.02, -0.01, 0.03],
                                 [-0.015, 0.0, 0.005, 0.01, 0.02]]
    gains = {"feedback_gain": {"k": [[0.0, 0.0, 0.0, 0.1]]},
             "lqr": {"lqr": {"q": 1, "r": 1}}}.get(case)
    for gen in doc["generators"]:
        if gains:
            gen["gains"] = gains
        if case == "governor_sign":   # the printed-matrix variant, unstable open loop
            gen["params"]["governor_sign"] = 1
    grid = load_grid_config(doc)
    assert np.all(spectral_radius(grid.a) > 1.0) == (case == "governor_sign")
    rng = np.random.default_rng(7)
    attacks = [None] + [random_attack(grid, d, rng) for d in (40, 7, 25)]
    noise = case == "noisy"

    def rngs():   # a fresh split stream per run
        return [RngStream(31, 2).split(j) for j in range(len(attacks))] if noise else None

    stacked = simulate_many(grid, attacks, horizon=60, noise=noise, rngs=rngs())
    assert len(stacked) == len(attacks)
    # the unattacked run has residue exactly 0 unless there is noise
    assert np.any(stacked[0].residue != 0.0) == noise
    for j, (attack, tr) in enumerate(zip(attacks, stacked)):
        alone = simulate(grid, attack, horizon=60, noise=noise,
                         rng=rngs()[j] if noise else None)
        assert not tr.truncated and tr.n_steps == 61
        assert_same_records(tr, alone, j)


def test_simulate_many_truncates_only_the_blown_up_run():
    grid = make_plain_grid(n=2, thresholds=[0.1, 0.1], m=2, mcol=0.3)
    rng = np.random.default_rng(8)

    def blown(gen, step):
        attack = random_attack(grid, 10, rng)
        vals = attack.false_data.values.copy()
        vals[gen, step, 1] = np.inf
        return AttackVector(attack.breakers, FalseDataSchedule(vals, np.array([0, 1])))

    attacks = [random_attack(grid, 10, rng), blown(1, 4), None, blown(0, 0),
               random_attack(grid, 30, rng)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = simulate_many(grid, attacks, horizon=50)
        alone = [simulate(grid, attack, horizon=50) for attack in attacks]
    assert [tr.truncated for tr in stacked] == [False, True, False, True, False]
    # record 4 carries generator 1's infinite residue, so both generators
    # keep records 0..3; record 0 is never checked, so an infinite residue
    # there cuts the run at record 1, where the state takes it up
    assert [tr.n_steps for tr in stacked] == [51, 4, 51, 1, 51]
    assert np.all(np.isfinite(stacked[1].residue))
    for j, (tr, want) in enumerate(zip(stacked, alone)):
        assert_same_records(tr, want, j)


# ---------------------------------------------------------------------------
# detector and predicates on crafted traces


def crafted_trace(r_inf_seq, f_seq, ts=0.01, th=1.0):
    """SimTrace with prescribed per-step residue inf-norms and frequencies."""
    r_inf_seq = np.asarray(r_inf_seq, dtype=float)
    f_seq = np.asarray(f_seq, dtype=float)
    steps = r_inf_seq.size
    x = np.zeros((1, steps, 4))
    x[0, :, 0] = (f_seq - NOMINAL_HZ) * TWO_PI
    residue = np.zeros((1, steps, 2))
    residue[0, :, 0] = r_inf_seq
    y_meas = np.zeros((1, steps, 2))
    y_meas[0, :, 0] = x[0, :, 0]
    return SimTrace(ts=ts, droop=np.array([1.0]),
                    thresholds=np.array([th]), x=x, xhat=np.zeros((1, steps, 4)),
                    y=np.zeros((1, steps, 2)), y_meas=y_meas, residue=residue,
                    u_believed=np.zeros((1, steps)), u_actual=np.zeros((1, steps)),
                    truncated=False)


def test_detect_strict_boundary_semantics():
    th = 0.5
    seq = [0.0] * 5 + [th - 1e-9, th, th + 1e-9, 0.0]
    tr = crafted_trace(seq, [60.0] * len(seq), th=th)
    assert detect(tr, [th]) == 7  # crossing is strict >


def test_detect_all_zero_residues():
    tr = crafted_trace([0.0] * 10, [60.0] * 10)
    assert detect(tr, [0.5]) is None


def test_detect_matches_linear_scan_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n_steps = int(rng.integers(1, 40))
        th = float(rng.uniform(0.2, 1.0))
        seq = rng.uniform(0, 1.2, size=n_steps)
        tr = crafted_trace(seq, [60.0] * n_steps, th=th)
        got = detect(tr, [th])
        want = None
        for k, v in enumerate(seq):
            if v > th:
                want = k
                break
        assert got == want


def test_detect_prefix_monotonicity():
    rng = np.random.default_rng(19)
    seq = rng.uniform(0, 1.0, size=60)
    full = crafted_trace(seq, [60.0] * 60, th=0.8)
    k_full = detect(full, [0.8])
    for cut in (10, 30, 59):
        pre = crafted_trace(seq[:cut], [60.0] * cut, th=0.8)
        k_pre = detect(pre, [0.8])
        if k_pre is not None:
            assert k_full is not None and k_pre == k_full
        elif k_full is not None:
            assert k_full >= cut


def test_check_success_constructed_cases():
    # all safe
    tr = crafted_trace([0.0] * 40, [60.0] * 40)
    assert not check_success(tr, _env(), [1.0], "measured").success

    # unsafe at 30, detected at 25 -> not a success
    seq_r = [0.0] * 25 + [2.0] * 15
    seq_f = [60.0] * 30 + [61.0] * 10
    rep = check_success(crafted_trace(seq_r, seq_f), _env(), [1.0], "measured")
    assert not rep.success and rep.first_detection == 25

    # unsafe at 20, detected at 25 -> success with k' = 20
    seq_r = [0.0] * 25 + [2.0] * 15
    seq_f = [60.0] * 20 + [61.0] * 20
    rep = check_success(crafted_trace(seq_r, seq_f), _env(), [1.0], "measured")
    assert rep.success and rep.k_prime == 20 and rep.first_detection == 25
    assert rep.stealthy_until_unsafe


def _env():
    from gridstorm.model import SafetyEnvelope
    return SafetyEnvelope(f_lo=59.5, f_hi=60.5, pe_lo=-0.1, pe_hi=0.1)


def test_robustness_hand_example():
    th = 0.3
    seq_f = [60.0] * 5 + [60.6] + [60.0] * 4
    tr = crafted_trace([0.0] * 10, seq_f, th=th)
    rho = robustness(tr, _env(), [th], "measured")
    assert rho == pytest.approx(max(-0.1, -th), abs=1e-12)
    assert rho < 0


def test_robustness_all_safe_positive():
    tr = crafted_trace([0.1] * 20, [60.1] * 20, th=0.5)
    assert robustness(tr, _env(), [0.5], "measured") > 0


def exhaustive_rho(r_inf, f, th, f_lo=59.5, f_hi=60.5):
    """Brute-force oracle: direct double loop over k' and k < k'."""
    best = np.inf
    for kp in range(len(f)):
        s = min(f_hi - f[kp], f[kp] - f_lo)
        g = -th
        for k in range(kp):
            g = max(g, r_inf[k] - th)
        best = min(best, max(s, g))
    return best


def test_robustness_matches_exhaustive_oracle():
    rng = np.random.default_rng(29)
    for _ in range(100):
        steps = int(rng.integers(2, 30))
        th = float(rng.uniform(0.2, 0.8))
        r_seq = rng.uniform(0, 1.0, size=steps)
        f_seq = rng.uniform(59.2, 60.8, size=steps)
        tr = crafted_trace(r_seq, f_seq, th=th)
        got = robustness(tr, _env(), [th], "measured")
        want = exhaustive_rho(r_seq, f_seq, th)
        assert got == pytest.approx(want, abs=1e-12)


def scalar_robustness_terms(f, r_inf, envelope, thresholds):
    """robustness_terms of the terms of one generators x steps trace."""
    th = np.asarray(thresholds, dtype=float)
    s = np.min(np.minimum(envelope.f_hi - f, f - envelope.f_lo), axis=0)
    worst_excess = np.max(r_inf - th[:, None], axis=0)
    g = np.empty_like(s)
    g[0] = -float(np.min(th))
    if s.size > 1:
        np.maximum.accumulate(worst_excess[:-1], out=g[1:])
    return float(np.min(np.maximum(s, g)))


def test_robustness_terms_stack_is_bitwise_each_trace():
    rng = np.random.default_rng(37)
    th = [0.3, 0.45, 0.2]
    for steps in (1, 2, 7, 40):
        f = rng.uniform(59.3, 60.7, size=(9, 3, steps))
        r_inf = rng.uniform(0.0, 0.6, size=(9, 3, steps))
        f[0] = 60.5                      # margin exactly +0.0 everywhere
        r_inf[1] = np.array(th)[:, None]  # excess exactly 0.0 everywhere
        f[2], r_inf[2] = 59.5, 0.2       # both terms tie at 0.0
        f[3, 1, -1] = np.nan
        r_inf[4, 0, 0] = np.inf
        stack = robustness_terms(frequency_margin(f, _env()), residue_term(r_inf, th))
        assert stack.shape == (9,)
        for j in range(9):
            want = scalar_robustness_terms(f[j], r_inf[j], _env(), th)
            alone = robustness_terms(frequency_margin(f[j], _env()), residue_term(r_inf[j], th))
            assert isinstance(alone, float)
            assert np.float64(alone).tobytes() == np.float64(want).tobytes(), (steps, j)
            assert stack[j].tobytes() == np.float64(want).tobytes(), (steps, j)


def test_sign_consistency_on_random_corpus():
    rng = np.random.default_rng(31)
    disagreements = 0
    for _ in range(1200):
        steps = int(rng.integers(2, 50))
        th = float(rng.uniform(0.1, 0.9))
        r_seq = rng.uniform(0, 1.0, size=steps)
        f_seq = rng.uniform(59.0, 61.0, size=steps)
        tr = crafted_trace(r_seq, f_seq, th=th)
        rho = robustness(tr, _env(), [th], "measured")
        ok = check_success(tr, _env(), [th], "measured").success
        if (rho < 0) != ok:
            disagreements += 1
    assert disagreements == 0


def test_signal_basis_selects_frequency_source():
    # measured frequency is falsified out of band; true state stays at 60
    steps = 10
    x = np.zeros((1, steps, 4))
    y_meas = np.zeros((1, steps, 2))
    y_meas[0, 5:, 0] = 0.7 * TWO_PI  # +0.7 Hz on the measured channel
    tr = SimTrace(ts=0.01, droop=np.array([1.0]),
                  thresholds=np.array([10.0]), x=x, xhat=np.zeros_like(x),
                  y=np.zeros((1, steps, 2)), y_meas=y_meas,
                  residue=np.zeros((1, steps, 2)),
                  u_believed=np.zeros((1, steps)), u_actual=np.zeros((1, steps)),
                  truncated=False)
    assert check_success(tr, _env(), [10.0], "measured").success
    assert not check_success(tr, _env(), [10.0], "true").success


# ---------------------------------------------------------------------------
# qualitative attack-mode ordering (greedy false data as a constructive probe)


def test_fdia_only_detected_earlier_than_paired_combination(default_grid):
    """A false-data sequence that masks a load alteration trips the detector
    much faster when replayed without the load alteration it was masking."""
    grid = default_grid
    d = 60
    open_all = BreakerSchedule(signals=np.zeros((d, 3), dtype=int))
    nominal = BreakerSchedule(signals=np.ones((d, 3), dtype=int))

    # per-step lookahead: the injection acts on the estimate one step later
    # (through L), so each value is chosen to minimize the predicted next
    # estimation error under a residue budget
    candidates = np.linspace(-0.05, 0.05, 41)
    vals = np.zeros((3, d, 2))
    for i in range(3):
        a, b, c, l = grid.a[i], grid.b[i], C_OUT, grid.l[i]
        row = grid.load_map.matrix[i]
        x = np.zeros(4)
        xhat = np.zeros(4)
        for k in range(d - 1):
            u_act = row @ (open_all.signals[k] - grid.load_map.b_nom).astype(float)
            x_next = a @ x + b * u_act
            best_a, best_cost = 0.0, np.inf
            for cand in candidates:
                r_k = c @ x + np.array([0.0, cand]) - c @ xhat
                if np.max(np.abs(r_k)) > 0.8 * np.min(grid.thresholds):
                    continue
                e_next = x_next - (a @ xhat + l @ r_k)
                cost = abs(e_next[0]) + 0.3 * abs(e_next[3])
                if cost < best_cost:
                    best_a, best_cost = cand, cost
            vals[i, k, 1] = best_a
            r = c @ x + np.array([0.0, best_a]) - c @ xhat
            xhat = a @ xhat + l @ r
            x = x_next
    fd = FalseDataSchedule(values=vals, mask=np.array([0, 1]))

    combined = simulate(grid, AttackVector(open_all, fd), horizon=200)
    fdia_only = simulate(grid, AttackVector(nominal, fd), horizon=200)
    k_combined = detect(combined, grid.thresholds)
    k_fdia = detect(fdia_only, grid.thresholds)
    assert k_fdia is not None
    assert k_combined is None or k_fdia < k_combined


def test_laa_only_transient_recovers_toward_band(default_grid):
    d = 100
    open_all = BreakerSchedule(signals=np.zeros((d, 3), dtype=int))
    fd0 = FalseDataSchedule(values=np.zeros((3, d, 2)), mask=np.array([0, 1]))
    tr = simulate(default_grid, AttackVector(open_all, fd0), horizon=800)
    f = tr.f_hz
    assert np.any(f > 60.5)  # transient excursion happens
    assert np.all((f[:, -1] > 59.5) & (f[:, -1] < 60.5))  # but recovers


# ---------------------------------------------------------------------------
# detector statistic


def test_residue_norm_is_bitwise_the_max_of_abs():
    specials = np.array([np.inf, -np.inf, np.nan, -np.nan, -0.0, 0.0, 5e-324, -5e-324,
                         1e300, -1e300, 0.1, -0.1, 1.0 / 3.0])
    pairs = np.stack(np.meshgrid(specials, specials), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(4)
    for r in (pairs, pairs.reshape(13, 13, 2), rng.normal(size=(4, 3, 101, 2))):
        want, got = np.max(np.abs(r), axis=-1), residue_norm(r)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# CSV export


def csv_text(trace):
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()


def test_trace_csv_shape_and_format():
    grid = make_plain_grid(n=2, thresholds=[0.1, 0.1],
                           sched=0.123456789123 * np.ones((2, 1)))
    tr = simulate(grid, None, horizon=5)
    text = csv_text(tr)
    lines = text.strip().split("\n")
    assert lines[0] == ("k,t_s,gen,x1,x2,x3,x4,xhat1,xhat2,xhat3,xhat4,"
                        "u_believed,u_actual,y1,y2,ymeas1,ymeas2,r1,r2,rinf,"
                        "f_hz,pe_pu,stealthy")
    assert len(lines) == 1 + 6 * 2
    row0 = lines[1].split(",")
    assert row0[0] == "0" and row0[2] == "0"
    assert row0[11] == "0.123456789"  # 9 significant digits
    assert row0[-1] in ("0", "1")


def reference_trace_csv(trace):
    """The trace CSV written one cell at a time with format(v, ".9g")."""
    def fmt(value):
        return format(float(value), ".9g")

    lines = [",".join(CSV_COLUMNS)]
    for t in range(trace.n_steps):
        for i in range(trace.n_generators):
            row = [str(t), fmt(t * trace.ts), str(i)]
            row += [fmt(val) for val in trace.x[i, t]]
            row += [fmt(val) for val in trace.xhat[i, t]]
            row += [fmt(trace.u_believed[i, t]), fmt(trace.u_actual[i, t])]
            row += [fmt(val) for val in trace.y[i, t]]
            row += [fmt(val) for val in trace.y_meas[i, t]]
            row += [fmt(val) for val in trace.residue[i, t]]
            row += [fmt(trace.r_inf[i, t]), fmt(trace.f_hz[i, t]),
                    fmt(trace.p_e[i, t]), str(int(trace.stealthy[i, t]))]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def special_values_trace():
    """Two generators, five steps, every field drawn from awkward doubles."""
    specials = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324,
                         1e300, -1e300, 0.1, 1.0 / 3.0, 123456789.123456789])
    rng = np.random.default_rng(8)

    def draw(*shape):
        return rng.choice(specials, size=shape)

    n, steps = 2, 5
    with np.errstate(invalid="ignore", over="ignore"):
        return SimTrace(ts=0.01, droop=np.array([1.0, 20.0]),
                        thresholds=np.array([0.1, 1e300]),
                        x=draw(n, steps, 4), xhat=draw(n, steps, 4), y=draw(n, steps, 2),
                        y_meas=draw(n, steps, 2), residue=draw(n, steps, 2),
                        u_believed=draw(n, steps), u_actual=draw(n, steps),
                        truncated=False)


def one_record_trace():
    grid = make_plain_grid(n=2, thresholds=[0.1, 0.1], sched=np.full((2, 1), np.inf))
    return simulate(grid, None, horizon=5)


def noisy_trace(horizon):
    grid = make_plain_grid(n=3, thresholds=[0.1] * 3, mcol=0.2, noise_enabled=True,
                           sched=0.05 * np.ones((3, 1)))
    return simulate(grid, None, horizon=horizon, noise=True, rng=RngStream(13, 1))


@pytest.mark.parametrize("make_trace, n_records", [
    (lambda: noisy_trace(2 * CSV_CHUNK_STEPS + 6), 2 * CSV_CHUNK_STEPS + 7),
    (lambda: noisy_trace(CSV_CHUNK_STEPS), CSV_CHUNK_STEPS + 1),
    (one_record_trace, 1),
    (truncated_trace, 11),
    (special_values_trace, 5),
], ids=["noisy_multi_chunk", "chunk_plus_one", "one_record", "truncated",
        "special_values"])
def test_trace_csv_matches_per_cell_oracle(make_trace, n_records):
    tr = make_trace()
    assert tr.n_steps == n_records
    text = csv_text(tr)
    assert text == reference_trace_csv(tr)
    assert text.count("\n") == 1 + n_records * tr.n_generators
