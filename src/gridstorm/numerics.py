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
    """Fixed-point Riccati iteration blew up or failed to converge within the
    cap; problem is the index of the failing problem in its stack."""

    def __init__(self, message, problem=0):
        super().__init__(message)
        self.problem = problem


def _check_square(m, name, ndim=2):
    """m as floats: a finite square matrix, or with ndim=3 a stack of them."""
    m = np.asarray(m, dtype=float)
    if m.ndim != ndim or m.shape[-2] != m.shape[-1]:
        kind = "square" if ndim == 2 else "a stack of square matrices"
        raise ValueError(f"{name} must be {kind}, got shape {m.shape}")
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
    dual (filter) form used for steady-state Kalman covariances.  Stacks
    (k, ...) of problems are mapped one by one.
    """
    at = np.swapaxes(a, -1, -2)
    pg = p @ g
    apg = at @ pg
    gain = np.linalg.solve(r + np.swapaxes(g, -1, -2) @ pg, np.swapaxes(apg, -1, -2))
    return at @ p @ a - apg @ gain + q


def solve_dare(a, g, q, r, tol=1e-10, max_iter=100_000):
    """Fixed-point solution of the discrete algebraic Riccati equation.

    Iterates the Riccati difference recursion P <- f(P) from P0 = Q and stops
    when the fixed-point residual ||P - f(P)||_inf (largest entry magnitude)
    is at most tol * max(1, ||P||_inf): relative once P outgrows 1, where the
    float spacing of P alone can exceed tol.  The step size equals the
    residual, so the stopping rule bounds the residual directly.

    a (n, n), g (n, m), q (n, n) and r (m, m) may also be stacks (k, ...) of
    k problems, solved together: each problem stops at its own iteration and
    drops out of the later ones, so each P is bitwise what a lone call
    returns.

    Raises RiccatiDivergence, naming the lowest-index failing problem, when
    its iterates blow up or the cap is hit, which signals a
    non-stabilizable / non-detectable configuration.
    """
    lone = np.ndim(a) == 2
    a = _check_square(a, "A", 2 if lone else 3)
    q = _check_square(q, "Q", a.ndim)
    g = np.asarray(g, dtype=float)
    r = np.asarray(r, dtype=float)
    n = a.shape[-1]
    if g.shape[:-1] != a.shape[:-1] or q.shape != a.shape:
        raise ValueError(f"G must be {n}xm and Q {n}x{n}, got shapes {g.shape}, {q.shape}")
    m = g.shape[-1]
    if r.shape != a.shape[:-2] + (m, m):
        raise ValueError(f"R must be {m}x{m}, got shape {r.shape}")
    if lone:
        a, g, q, r = a[None], g[None], q[None], r[None]
    k = a.shape[0]

    # Only the problems still iterating are mapped; the subset keeps each
    # problem's matrix layout, so each gets the bits of a lone call.
    p = q.copy()
    todo = np.arange(k)
    blown = np.zeros(k, dtype=bool)
    p_todo, stack = p, (a, g, q, r)
    bound = tol * np.maximum(1.0, np.abs(q).reshape(k, -1).max(axis=1))
    # The finiteness test reports a blow-up, so its overflow warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            nxt = dare_map(p_todo, *stack)
            nxt = 0.5 * (nxt + np.swapaxes(nxt, -1, -2))
            rows = nxt.reshape(todo.size, -1)
            size = np.abs(rows).max(axis=1)     # inf or NaN unless the row is finite
            finite = np.isfinite(size)
            going = finite & (np.abs(rows - p_todo.reshape(todo.size, -1)).max(axis=1) > bound)
            bound = tol * np.maximum(1.0, size)
            if going.all():
                p_todo = nxt
                continue
            p[todo[finite]] = nxt[finite]
            blown[todo[~finite]] = True
            todo, p_todo, bound = todo[going], nxt[going], bound[going]
            if not todo.size:
                break
            stack = tuple(arr[todo] for arr in (a, g, q, r))
    failed = np.flatnonzero(blown | np.isin(np.arange(k), todo))
    if failed.size:
        i = int(failed[0])
        if blown[i]:
            raise RiccatiDivergence("Riccati iteration produced non-finite values", i)
        raise RiccatiDivergence(
            f"Riccati iteration did not reach tol={tol} within {max_iter} iterations", i)
    return p[0] if lone else p


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

    def choice(self, n, size, replace=False):
        return self._gen.choice(n, size=size, replace=replace)
