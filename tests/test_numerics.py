import numpy as np
import pytest

import gridstorm.numerics
from gridstorm.model import C_OUT
from gridstorm.numerics import (CHECK_ITERATIONS, RiccatiDivergence, RngStream, dare_map,
                                mat_exp, solve_dare)


def taylor_exp(m, terms=50):
    """Independent oracle: plain truncated Taylor series, no scaling."""
    n = m.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms):
        term = term @ m / k
        acc = acc + term
    return acc


def test_mat_exp_zero_is_identity():
    assert np.array_equal(mat_exp(np.zeros((2, 2))), np.eye(2))


def test_mat_exp_diagonal_analytic():
    got = mat_exp(np.diag([-1.0, 2.0]))
    want = np.diag([np.exp(-1.0), np.exp(2.0)])
    assert np.allclose(got, want, rtol=1e-10, atol=0)
    assert abs(got[0, 1]) < 1e-15 and abs(got[1, 0]) < 1e-15


def test_mat_exp_matches_taylor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.uniform(-0.5, 0.5, size=(4, 4))
        m *= 1.0 / max(1.0, np.linalg.norm(m, 2))  # keep ||M|| <= 1
        assert np.allclose(mat_exp(m), taylor_exp(m), rtol=1e-9, atol=1e-12)


def test_mat_exp_inverse_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.normal(size=(5, 5))
        m *= 10.0 / np.linalg.norm(m, 1)  # ||M||_1 = 10
        prod = mat_exp(m) @ mat_exp(-m)
        assert np.max(np.abs(prod - np.eye(5))) <= 1e-8


def test_mat_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        mat_exp(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        mat_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_dare_scalar_a_zero():
    # a=0 kills the recursion: the map reduces to P = q.
    p = solve_dare(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert np.allclose(p, [[1.0]], atol=1e-12)


def covariance_iteration(a, c, q, r, steps=10_000):
    """Oracle: run the Kalman prediction-covariance recursion to steady state."""
    p = q.copy()
    for _ in range(steps):
        s = c @ p @ c.T + r
        k = a @ p @ c.T @ np.linalg.inv(s)
        p = a @ p @ a.T - k @ c @ p @ a.T + q
    return p


def test_dare_scalar_filter_form_matches_covariance_oracle():
    a = np.array([[0.5]])
    c = np.array([[1.0]])
    q = np.array([[1.0]])
    r = np.array([[1.0]])
    want = covariance_iteration(a, c, q, r)
    got = solve_dare(a.T, c.T, q, r)
    assert np.allclose(got, want, atol=1e-8)


def test_dare_residual_on_random_stabilizable_systems():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n))
        a *= 0.9 / max(np.abs(np.linalg.eigvals(a)))  # spectral radius 0.9
        g = rng.normal(size=(n, 1))
        mq = rng.normal(size=(n, n))
        q = mq @ mq.T + 1e-3 * np.eye(n)
        r = np.array([[1.0 + rng.uniform()]])
        p = solve_dare(a, g, q, r)
        assert np.max(np.abs(p - dare_map(p, a, g, q, r))) <= 1e-8
        # symmetric PSD
        assert np.max(np.abs(p - p.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-8


def test_dare_divergence_reported():
    # Unstable scalar with no measurement authority: g=0 forces P -> a^2 P + q to blow up.
    with pytest.raises(RiccatiDivergence):
        solve_dare(np.array([[2.0]]), np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]),
                   max_iter=500)


def test_dare_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_dare(np.eye(2), np.ones((3, 1)), np.eye(2), np.eye(1))


# ---------------------------------------------------------------------------
# stacked Riccati solves against the lone fixed-point iteration


def lone_dare_map(p, a, g, q, r):
    apa = a.T @ p @ a
    pg = p @ g
    gain = np.linalg.solve(r + g.T @ pg, (a.T @ pg).T)
    return apa - (a.T @ pg) @ gain + q


def lone_solve_dare(a, g, q, r, tol=1e-10, max_iter=100_000, own_bound=False):
    """Bitwise oracle: the one-problem iteration that stacked solves replace.
    own_bound scales each step's bound by its own iterate, not the one before."""
    p = q.copy()
    for it in range(1, max_iter + 1):
        nxt = lone_dare_map(p, a, g, q, r)
        nxt = 0.5 * (nxt + nxt.T)
        assert np.all(np.isfinite(nxt))
        step = np.max(np.abs(nxt - p))
        scale = max(1.0, np.max(np.abs(nxt if own_bound else p)))
        p = nxt
        if step <= tol * scale:
            return p, it
    raise AssertionError("oracle did not converge")


def filter_problems(k, seed):
    """k filter-form problems (A', C', Q, R) whose estimators contract at
    different rates, so the iterations stop at different counts."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, 4, 4))
    a *= (np.linspace(0.3, 0.97, k) / np.abs(np.linalg.eigvals(a)).max(axis=1))[:, None, None]
    c = rng.normal(size=(k, 2, 4))
    mq = rng.normal(size=(k, 4, 4))
    q = mq @ mq.swapaxes(1, 2) * np.logspace(-6, 0, k)[:, None, None]
    r = np.eye(2) * np.logspace(0, -4, k)[:, None, None]
    return a.swapaxes(1, 2), c.swapaxes(1, 2), q, r


def test_stacked_dare_bitwise_equals_lone_solves():
    a, g, q, r = filter_problems(5, seed=8)
    got = solve_dare(a, g, q, r)
    assert got.shape == (5, 4, 4)
    iterations = set()
    for i in range(5):
        want, it = lone_solve_dare(a[i], g[i], q[i], r[i])
        iterations.add(it)
        assert got[i].tobytes() == want.tobytes(), i
        assert solve_dare(a[i], g[i], q[i], r[i]).tobytes() == want.tobytes(), i
    assert len(iterations) == 5


def test_dare_with_huge_noise_stops_on_relative_residual(default_grid, monkeypatch):
    # Q = 1e300 I: float spacing near P keeps an absolute residual far above
    # tol, so only the relative stop ends the iteration before the cap.
    calls = []

    def counting_map(*args):
        calls.append(1)
        return dare_map(*args)

    a, c, r = default_grid.a[1], C_OUT, default_grid.r_noise[1]
    problem = (a.T, c.T, 1e300 * np.eye(4), r)
    monkeypatch.setattr(gridstorm.numerics, "dare_map", counting_map)
    p = solve_dare(*problem)
    want, iterations = lone_solve_dare(*problem)
    assert np.max(np.abs(p)) > 1e300 and p.tobytes() == want.tobytes()
    # the map runs in batches of CHECK_ITERATIONS, and never past the batch
    # that holds the stopping iterate
    assert iterations <= len(calls) < iterations + CHECK_ITERATIONS
    assert iterations < 1000


def test_stacked_dare_names_the_failing_problem():
    a, g, q, r = filter_problems(4, seed=8)
    counts = [lone_solve_dare(a[i], g[i], q[i], r[i])[1] for i in range(4)]
    # a cap between the counts fails every problem that needs more
    cap = sorted(counts)[1]
    with pytest.raises(RiccatiDivergence, match="did not reach") as err:
        solve_dare(a, g, q, r, max_iter=cap)
    assert err.value.problem == min(i for i in range(4) if counts[i] > cap)
    # a blow-up is reported for its own problem, without a floating-point
    # warning, and does not mask a lower-index failure that comes later
    q_blown = q.copy()
    q_blown[3] = 1e308 * np.eye(4)
    with pytest.raises(RiccatiDivergence, match="non-finite") as err:
        solve_dare(a, g, q_blown, r)
    assert err.value.problem == 3
    assert counts[2] > cap
    with pytest.raises(RiccatiDivergence, match="did not reach") as err:
        solve_dare(a, g, q_blown, r, max_iter=cap)
    assert err.value.problem == 2


def counted_problem(iterations):
    """A scalar problem whose lone solve stops after exactly `iterations` maps.

    With G = 0 the map is P <- a^2 P + q.  P stays below 1, so the bound is
    tol itself, and the step at map i is q a^(2i), which first drops to
    tol = 1e-10 at i = iterations."""
    a = 10.0 ** (-3.0 / (iterations - 0.5))
    return np.array([[a]]), np.zeros((1, 1)), np.array([[1e-4]]), np.eye(1)


def stack_problems(problems):
    return tuple(np.stack(arrs) for arrs in zip(*problems))


def recording_map(record, inner=dare_map):
    """A dare_map that records, per call that returns, each problem's input P
    keyed by its A."""
    def mapped(p, a, *rest):
        nxt = inner(p, a, *rest)
        record.append({ai.tobytes(): pi.tobytes() for ai, pi in zip(a, p)})
        return nxt
    return mapped


def test_stacked_dare_stops_at_the_batch_edges():
    c = CHECK_ITERATIONS
    counts = [c - 1, c, c + 1, 2 * c + 3]
    problems = [counted_problem(i) for i in counts]
    for problem, count in zip(problems, counts):
        assert lone_solve_dare(*problem)[1] == count
    # P >> 1 here, so its bound is relative, far above the others'
    problems.append((np.array([[0.9]]), np.zeros((1, 1)), np.array([[1e6]]), np.eye(1)))
    got = solve_dare(*stack_problems(problems))
    for i, problem in enumerate(problems):
        assert got[i].tobytes() == lone_solve_dare(*problem)[0].tobytes(), i


def test_dare_bound_comes_from_the_previous_iterate():
    # Two decoupled entries: P[0, 0] -> 1e100 sets the bound, and still grows
    # at map 17 by less than it; P[1, 1] is far smaller, so its step is finely
    # spaced, and q[1, 1] puts that step at map 17 above tol * |P16| but not
    # above tol * |P17|.
    problem = (np.diag([0.5, np.sqrt(0.7)]), np.zeros((2, 1)),
               np.diag([0.75e100, 4.298662212553128e+92]), np.eye(1))
    want, count = lone_solve_dare(*problem)
    assert count == 18 and lone_solve_dare(*problem, own_bound=True)[1] == 17
    assert solve_dare(*problem).tobytes() == want.tobytes()


def test_stacked_dare_cap_inside_a_batch(monkeypatch):
    c = CHECK_ITERATIONS
    problems = [counted_problem(c - 1), counted_problem(c + 3)]
    calls = []
    monkeypatch.setattr(gridstorm.numerics, "dare_map", recording_map(calls))
    with pytest.raises(RiccatiDivergence, match="did not reach") as err:
        solve_dare(*stack_problems(problems), max_iter=c + 2)
    assert err.value.problem == 1 and len(calls) == c + 2
    calls.clear()
    got = solve_dare(*stack_problems(problems), max_iter=c + 3)
    assert len(calls) == c + 3
    for i, problem in enumerate(problems):
        assert got[i].tobytes() == lone_solve_dare(*problem)[0].tobytes(), i


def picky_map(p, *stack):
    """dare_map, but raising as np.linalg.solve may on a non-finite input."""
    if not np.isfinite(p).all():
        raise np.linalg.LinAlgError("Singular matrix")
    return dare_map(p, *stack)


@pytest.mark.parametrize("inner", [dare_map, picky_map])
def test_stacked_dare_blow_up_mid_batch(monkeypatch, inner):
    c = CHECK_ITERATIONS
    # P <- 100 P + q overflows c // 2 + 1 maps in, inside the first batch
    blown = np.array([[10.0]]), np.zeros((1, 1)), np.array([[10.0 ** (308 - c)]]), np.eye(1)
    converging = [counted_problem(c + 1), counted_problem(2 * c + 3)]
    record, alone = [], []
    monkeypatch.setattr(gridstorm.numerics, "dare_map", recording_map(record, inner))
    with pytest.raises(RiccatiDivergence, match="non-finite") as err:
        solve_dare(*stack_problems([converging[0], blown, converging[1]]))
    assert err.value.problem == 1
    monkeypatch.setattr(gridstorm.numerics, "dare_map", recording_map(alone))
    got = solve_dare(*stack_problems(converging))
    # the blow-up changes no bit of the other problems' iterates
    for i, problem in enumerate(converging):
        key = problem[0].tobytes()
        want, count = lone_solve_dare(*problem)
        inputs = [m[key] for m in record if key in m][:count]
        assert len(inputs) == count and inputs == [m[key] for m in alone if key in m][:count]
        assert got[i].tobytes() == want.tobytes(), i
    # a solve that raises on the first map of a batch raises as it did
    with pytest.raises(np.linalg.LinAlgError):
        solve_dare(np.array([[0.5]]), np.zeros((1, 1)), np.eye(1), np.zeros((1, 1)))


def test_rng_determinism_and_separation():
    a = RngStream(42, 1).uniform(size=1000)
    b = RngStream(42, 1).uniform(size=1000)
    c = RngStream(42, 2).uniform(size=1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_law_of_large_numbers():
    draws = RngStream(7, 0).uniform(size=1_000_000)
    assert abs(float(draws.mean()) - 0.5) <= 0.002


def test_rng_split_independence():
    base = RngStream(5, 3)
    kids = [base.split(i) for i in range(4)]
    seqs = [k.uniform(size=100) for k in kids]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(seqs[i], seqs[j])
    # splitting is deterministic
    again = RngStream(5, 3).split(2).uniform(size=100)
    assert np.array_equal(seqs[2], again)


def test_rng_frozen_reference_draws():
    # Guards cross-platform / cross-run byte identity of the Philox stream.
    got = RngStream(123, 7).uniform(size=4)
    want = np.array([0.10398137582682843, 0.9878583044780416,
                     0.9929982076816014, 0.5786930632312249])
    assert np.array_equal(got, want)


def test_rng_provides_all_draw_kinds():
    rng = RngStream(9, 0)
    u = rng.uniform(size=10)
    g = rng.normal(size=10)
    c = rng.choice(100, size=10)
    assert u.shape == g.shape == c.shape == (10,)
    assert np.all((u >= 0) & (u < 1))
    assert c.dtype.kind == "i" and np.all((c >= 0) & (c < 100))
    assert np.unique(c).size == 10   # drawn without replacement
