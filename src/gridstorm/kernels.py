"""The closed-loop plant/estimator recurrence, written once in numpy.

Every generator's plant state x and estimate x_hat advance together as one
block z = [x; x_hat] of shape (2, n, 4), so a step costs three contractions
whatever the number of generators.  A z and C z are np.matvec calls, which
give einsum's bits at half its call cost; L r and K x_hat stay einsums,
because np.matvec and np.vecdot round those sums differently and the
artifacts would change.  closed_loop_step() advances the block by one step
into caller-provided arrays; the simulator runs it over a whole horizon
through step_loop(), which writes straight into the trace records, and the
RL environment runs it once per sub-step.  Within a step the [x; x_hat] (or
[y; r]) stacking axis comes first, so each half is one contiguous (n, ...)
array; the records are indexed [generator, step, ...].  Rows never couple,
so sim.simulate_many() stacks R runs of one grid as R * n rows and steps
them all in one step_loop() call.

The plant and the estimator apply the same control input u_sched + K x_hat;
the plant's also carries the breaker load offset u_laa.  Bit-identity rests
on the operation order, which stays u_act = (u_sched + u_laa) + K x_hat,
u_bel = u_sched + K x_hat, (A x + b u_act) + w, (A x_hat + b u_bel) + L r,
(y + a_y) + v and y_meas - C x_hat.  Without a gain (K = 0) the K x_hat
terms are skipped.
"""

import numpy as np


def add_feedback(k, xhat, u):
    """Add the feedback K x_hat to both rows of u = [u_act; u_bel] (2, n)."""
    np.add(u, np.einsum("ns,ns->n", k, xhat), out=u)


def outputs(c, z, a_y, v, yr, ym):
    """The measurement half of a step, written into yr = [y; r] and ym.

    C z gives [y; C x_hat] in one matvec; y_meas = (y + a_y) + v, and the
    residue r = y_meas - C x_hat then overwrites C x_hat.
    """
    np.matvec(c, z, out=yr)
    np.add(yr[0], a_y, out=ym)
    np.add(ym, v, out=ym)
    np.subtract(ym, yr[1], out=yr[1])


def closed_loop_step(a, c, l, z, r, bu, w, a_y, v, z1, yr1, ym1):
    """One step of every loop: writes z = [x; x_hat] (2, n, 4), [y; r]
    (2, n, 2) and y_meas (n, 2) at t+1 into z1, yr1 and ym1, which must not
    overlap the inputs.

    bu = [b u_act; b u_bel] (2, n, 4), that is b * u[..., None] for
    u = [u_act; u_bel] (2, n): the plant consumes the actual input and
    process noise w, the estimator the believed input and L times the
    residue r.  a_y and v are the false data and measurement noise of step
    t+1; w, a_y and v may be 0.0.
    """
    np.matvec(a, z, out=z1)
    np.add(z1, bu, out=z1)
    np.add(z1[0], w, out=z1[0])
    np.add(z1[1], np.einsum("nso,no->ns", l, r), out=z1[1])
    outputs(c, z1, a_y, v, yr1, ym1)


def buffers(n, n_steps):
    """Zeroed inputs a_y, w, v and records z, yr, ym, u for step_loop.

    They have the [generator, step, ...] shapes step_loop lists but are
    stored step-major, so that each step's block is one contiguous array and
    the in-place ufuncs take numpy's contiguous fast path.
    """
    def alloc(steps, *block, gen_axis=0):
        return np.moveaxis(np.zeros((steps,) + block), (1 + gen_axis, 0), (0, 1))
    return (alloc(n_steps, n, 2), alloc(n_steps - 1, n, 4), alloc(n_steps, n, 2),
            alloc(n_steps, 2, n, 4, gen_axis=1), alloc(n_steps, 2, n, 2, gen_axis=1),
            alloc(n_steps, n, 2), alloc(n_steps, 2, n, gen_axis=1))


def row_finite(z, r):
    """Per row, whether its state z = [x; x_hat] (..., 2, rows, 4) and its
    residue r (..., rows, 2) are all finite."""
    return np.isfinite(z).all(axis=(-3, -1)) & np.isfinite(r).all(axis=-1)


def valid_counts(z, yr):
    """Per row, the number of valid records: the first step >= 1 whose state
    z or residue yr[:, :, 1] is non-finite, or all records if none is."""
    ok = row_finite(z.swapaxes(1, 2), yr[:, :, 1])
    ok[:, 0] = True
    return np.where(ok.all(axis=1), ok.shape[1], ok.argmin(axis=1))


# Steps between step_loop's checks for a stack whose rows are all non-finite.
STOP_CHECK_STEPS = 64


# The unused leading slot stays because perfbench/tracer.py reads this
# function's arguments by position (args[1], args[3], args[6], args[14]).
def step_loop(_unused, a, b, c, l, k, use_k, x0, xhat0, u_sched, u_laa, a_y, w, v,
              z, yr, ym, u):
    """Fill the records 0..horizon of every row; return the number of
    records valid on every row, the minimum of valid_counts(z, yr).

    Every array is indexed [generator, step, ...]: the inputs are a_y and v
    (n, steps, 2) and w (n, steps - 1, 4); the records are z = [x; x_hat]
    (n, steps, 2, 4), yr = [y; r] (n, steps, 2, 2), ym (n, steps, 2) and
    u = [u_act, u_bel] (n, steps, 2); buffers() allocates them all.  The
    horizon runs with floating-point warnings off, so a row that goes
    non-finite does not stop the others; its records past its valid count
    are meaningless.  Every STOP_CHECK_STEPS steps the loop stops if no row
    is finite any more, which leaves every valid count as it was.
    """
    n_steps = z.shape[1]
    zs, yrs, us = z.transpose(1, 2, 0, 3), yr.transpose(1, 2, 0, 3), u.transpose(1, 2, 0)
    yms, ws, ays, vs = (np.moveaxis(arr, 1, 0) for arr in (ym, w, a_y, v))

    zs[0, 0] = x0
    zs[0, 1] = xhat0
    with np.errstate(all="ignore"):
        outputs(c, zs[0], ays[0], vs[0], yrs[0], yms[0])
        np.add(u_sched, u_laa, out=u[:, :, 0])
        u[:, :, 1] = u_sched
        for t0 in range(0, n_steps - 1, STOP_CHECK_STEPS):
            if t0 and not row_finite(zs[t0], yrs[t0, 1]).any():
                break
            for t in range(t0, min(t0 + STOP_CHECK_STEPS, n_steps - 1)):
                z0, z1 = zs[t], zs[t + 1]
                if use_k:
                    add_feedback(k, z0[1], us[t])
                closed_loop_step(a, c, l, z0, yrs[t, 1], b * us[t][..., None], ws[t],
                                 ays[t + 1], vs[t + 1], z1, yrs[t + 1], yms[t + 1])
        else:
            if use_k:
                add_feedback(k, zs[-1, 1], us[-1])
    return int(valid_counts(z, yr).min())
