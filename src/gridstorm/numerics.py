"""Dense linear-algebra helpers and reproducible random streams.

Everything here is deliberately dependency-light: a scaling-and-squaring
matrix exponential, a fixed-point discrete Riccati solver, and counter-based
random streams (Philox) that can be split deterministically, one per
search restart.  The Riccati solver maps a batch of CHECK_ITERATIONS
iterates between stop tests and stores them, so one vectorized test picks
the iterate a test after every map would stop at.
"""

import math

import numpy as np

# Factorials 1/k! for the degree-13 series core.
_INV_FACT = np.array([1.0 / math.factorial(k) for k in range(14)])

# Riccati maps between two stop tests of solve_dare.
CHECK_ITERATIONS = 16


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
    at = a.mT
    pg = p @ g
    apg = at @ pg
    gain = np.linalg.solve(r + g.mT @ pg, apg.mT)
    return at @ p @ a - apg @ gain + q


def solve_dare(a, g, q, r, tol=1e-10, max_iter=100_000):
    """Fixed-point solution of the discrete algebraic Riccati equation.

    Iterates the Riccati difference recursion P <- f(P) from P0 = Q and stops
    at the first iterate whose fixed-point residual ||P - f(P)||_inf (largest
    entry magnitude) is at most tol * max(1, ||P||_inf): relative once P
    outgrows 1, where the float spacing of P alone can exceed tol.  The step
    size equals the residual, so the stopping rule bounds the residual
    directly.

    The map runs CHECK_ITERATIONS times between stop tests, and stores each
    iterate; one vectorized test then measures every stored step against
    the bound of its predecessor and returns the first iterate that passes,
    the one a test after every map stops at.  The map never runs past
    max_iter.

    a (n, n), g (n, m), q (n, n) and r (m, m) may also be stacks (k, ...) of
    k problems, solved together: each problem stops at its own iterate and
    drops out of the later batches, so each P is bitwise what a lone call
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
    mapped = 0
    # The finiteness test reports a blow-up, so its overflow warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        while todo.size and mapped < max_iter:
            # its[j] is the batch's j-th iterate, its[0] the one it starts from
            its = np.empty((CHECK_ITERATIONS + 1,) + p_todo.shape)
            its[0] = p_todo
            maps = min(CHECK_ITERATIONS, max_iter - mapped)
            for j in range(1, maps + 1):
                try:
                    nxt = dare_map(its[j - 1], *stack)
                except np.linalg.LinAlgError:
                    if j == 1:
                        raise
                    maps = j - 1    # a blown iterate the test below reports
                    break
                np.add(nxt, nxt.mT, out=its[j])
                its[j] *= 0.5
            mapped += maps
            rows = its[:maps + 1].reshape(maps + 1, todo.size, -1)
            size = np.abs(rows).max(axis=2)     # inf or NaN unless the row is finite
            finite = np.isfinite(size[1:])
            step = np.abs(rows[1:] - rows[:-1]).max(axis=2)
            ended = ~(finite & (step > tol * np.maximum(1.0, size[:-1])))
            going = ~ended.any(axis=0)
            if going.all():
                p_todo = its[maps]
                continue
            out = np.flatnonzero(~going)
            first = ended[:, out].argmax(axis=0)    # each ended problem's first ended map
            ok = finite[first, out]
            p[todo[out[ok]]] = its[first[ok] + 1, out[ok]]
            blown[todo[out[~ok]]] = True
            todo, p_todo = todo[going], its[maps, going]
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
