"""Dense linear-algebra helpers and reproducible random streams.

Everything here is deliberately dependency-light: a scaling-and-squaring
matrix exponential, a fixed-point discrete Riccati solver, and counter-based
random streams (Philox) that can be split deterministically, one per
search restart.
"""

import math

import numpy as np

# Factorials 1/k! for the degree-13 series core.
_INV_FACT = np.array([1.0 / math.factorial(k) for k in range(14)])


class RiccatiDivergence(RuntimeError):
    """Fixed-point Riccati iteration failed to converge within the cap."""


def _check_square(m, name):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def mat_exp(m):
    """e^M by scaling-and-squaring with a degree-13 series core.

    The input is scaled by 2^-s until its 1-norm is <= 0.5, the truncated
    series is summed by Horner evaluation, and the result squared s times.
    Relative error is well below 1e-10 for ||M||_1 <= 50.
    """
    m = _check_square(m, "M")
    n = m.shape[0]
    norm = np.linalg.norm(m, 1)
    squarings = 0
    if norm > 0.5:
        squarings = int(math.ceil(math.log2(norm / 0.5)))
    a = m / (2.0 ** squarings)

    # Horner: I*c13 folded in from the highest degree downwards.
    eye = np.eye(n)
    acc = eye * _INV_FACT[13]
    for k in range(12, -1, -1):
        acc = a @ acc + eye * _INV_FACT[k]
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def dare_map(p, a, g, q, r):
    """One application of the discrete algebraic Riccati map.

    f(P) = A'PA - A'PG (R + G'PG)^-1 G'PA + Q.  Feeding (A^T, C^T) yields the
    dual (filter) form used for steady-state Kalman covariances.
    """
    apa = a.T @ p @ a
    pg = p @ g
    gain = np.linalg.solve(r + g.T @ pg, (a.T @ pg).T)
    return apa - (a.T @ pg) @ gain + q


def solve_dare(a, g, q, r, tol=1e-10, max_iter=100_000, damping=1.0):
    """Fixed-point solution of the discrete algebraic Riccati equation.

    Iterates P <- (1-damping)*P + damping*f(P) from P0 = Q and stops when the
    fixed-point residual ||P - f(P)||_inf drops below `tol`.  With the default
    damping of 1 this is the Riccati difference recursion, whose step size
    equals the residual, so the stopping rule bounds the residual directly.

    Raises RiccatiDivergence when the cap is hit or iterates blow up, which
    signals a non-stabilizable / non-detectable configuration.
    """
    a = _check_square(a, "A")
    q = _check_square(q, "Q")
    g = np.asarray(g, dtype=float)
    r = np.asarray(r, dtype=float)
    if g.ndim != 2 or g.shape[0] != a.shape[0]:
        raise ValueError(f"G must be {a.shape[0]}xk, got shape {g.shape}")
    if r.shape != (g.shape[1], g.shape[1]):
        raise ValueError(f"R must be {g.shape[1]}x{g.shape[1]}, got shape {r.shape}")
    if not (0.0 < damping <= 1.0):
        raise ValueError("damping must be in (0, 1]")

    p = q.copy()
    for _ in range(max_iter):
        nxt = dare_map(p, a, g, q, r)
        nxt = 0.5 * (nxt + nxt.T)
        if not np.all(np.isfinite(nxt)):
            raise RiccatiDivergence("Riccati iteration produced non-finite values")
        step = np.max(np.abs(nxt - p))
        p = (1.0 - damping) * p + damping * nxt
        if step <= tol:
            return p
    raise RiccatiDivergence(
        f"Riccati iteration did not reach tol={tol} within {max_iter} iterations"
    )


class RngStream:
    """Deterministic, splittable random stream (Philox counter-based).

    Identical (seed, stream_id) pairs reproduce identical draw sequences on
    every platform; distinct stream ids are statistically independent, so
    each falsification restart draws the same numbers whatever ran before it.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        )

    def split(self, child_index):
        """Derive an independent child stream; deterministic in the index."""
        child = (self.stream_id * 1_000_003 + int(child_index) + 1) & 0xFFFFFFFFFFFFFFFF
        return RngStream(self.seed, child)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def choice(self, n, size, replace=False):
        return self._gen.choice(n, size=size, replace=replace)
