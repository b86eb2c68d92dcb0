"""The closed-loop plant/estimator recurrence, written once in numpy.

Every generator's plant state x and estimate x_hat advance together as one
block z = [x; x_hat] of shape (2, n, 4), so a step costs the same few ufunc
calls whatever the number of generators.  A z and C z are np.matvec calls,
which give einsum's bits at half its call cost.  step_block() advances the
block through a run of step-major records, walking views made once by
step_views(), with no per-step indexing or Python call.  step_loop() runs
it over a whole horizon a block of STOP_CHECK_STEPS steps at a time,
writing straight into the trace records; the RL environment runs it over
a one-step block per env step.  Within a step the
[x; x_hat] (or [y; r]) stacking axis comes first, so each half is one
contiguous (n, ...) array; the records are indexed [generator, step, ...].
Rows never couple, so sim.simulate_many() stacks R runs of one grid as
R * n rows and steps them all in one step_loop() call.

The plant and the estimator apply the same control input u_sched + K x_hat;
the plant's also carries the breaker load offset u_laa.  Bit-identity rests
on the operation order, which stays u_act = (u_sched + u_laa) + K x_hat,
u_bel = u_sched + K x_hat, (A z + b u) + [w; L r], L r = r_0 l_0 + r_1 l_1
(each product rounded, as einsum rounds it; L is copied to (2, n, 4) so
that both terms are contiguous), (y + a_y) + v and y_meas - C x_hat.
Without a gain (K = 0) the K x_hat terms are skipped.  L r can be a zero
of the other sign than einsum's, but A z + b u is never -0 (np.matvec sums
from +0), so the sum is einsum's bits all the same.  So too an input that
is all zero over a block (a_y outside the attack, v and w without noise)
is skipped: x + 0 is x for every x but -0, and none of A z + b u, y = C z
and y + a_y is ever -0.  With a_y and v both skipped, r = y - C x_hat and
y_meas is copied from y after the block.  Without a gain, a block whose
load input u is all zero (a zero schedule with nominal breakers, as in every
threshold calibration) skips b u as well: b is finite, so b u is +-0, and
A z is never -0.
"""

import numpy as np


def add_feedback(k, xhat, u):
    """Add the feedback K x_hat to both rows of u = [u_act; u_bel] (2, n)."""
    np.add(u, np.einsum("ns,ns->n", k, xhat), out=u)


def step_views(z, yr, ym, u, a_y, v):
    """The views step_block() walks, indexed by the step t that advances
    record t to t + 1, from step-major records: z (steps, 2, n, 4),
    yr (steps, 2, n, 2), u = [u_act; u_bel] (steps, 2, n) and ym, a_y, v
    (steps, n, 2).  Slicing each view by steps gives a block's views."""
    return (z[:-1], yr[:-1, 1].swapaxes(-1, -2)[..., None], u[:-1, :, :, None],
            z[1:], yr[1:], yr[1:, 0], yr[1:, 1], ym[1:], a_y[1:], v[1:])


def step_block(a, b, c, lt, k, steps, bu, wlr, lr, inputs):
    """Advance every loop through one block of steps, in place.

    Step t writes record t + 1: z = (A z + b u) + [w; L r] from record t,
    then [y; r] and y_meas from C z, a_y and v.  lt is L as (2, n, 4), with
    lt[o] = L[..., o]; steps are step_views() cut to the block; bu and wlr
    (steps, 2, n, 4) and lr (2, n, 4) are scratch, and wlr[:, 0] must hold
    each step's process noise w.  inputs flags whether the block's a_y, v,
    w and u may be nonzero; one flagged False must be all zero and is not
    added.  Without a gain (k None) b u is formed once for the block, else
    per step after add_feedback has added K x_hat into u.
    """
    if k is None and inputs[3]:
        np.multiply(b, steps[2], out=bu)
    # [w; L r] goes into z, or into x_hat alone without w; y_meas adds the
    # flagged measurement inputs in order
    zw, wlr_w = (steps[3], wlr) if inputs[2] else (steps[3][:, 1], wlr[:, 1])
    meas = [x for x, nonzero in zip(steps[8:], inputs) if nonzero]
    lr0, lr1 = lr
    for z0, r, u, z1, yr1, y1, r1, ym1, bu_t, zw_t, wlr_t, lr_t, *meas_t in zip(
            *steps[:8], bu, zw, wlr_w, wlr[:, 1], *meas):
        if k is not None:
            add_feedback(k, z0[1], u[..., 0])
            np.multiply(b, u, out=bu_t)
        np.matvec(a, z0, out=z1)
        if inputs[3]:
            np.add(z1, bu_t, out=z1)
        np.multiply(r, lt, out=lr)
        np.add(lr0, lr1, out=lr_t)
        np.add(zw_t, wlr_t, out=zw_t)
        np.matvec(c, z1, out=yr1)
        for m in meas_t:
            np.add(y1, m, out=ym1)
            y1 = ym1
        np.subtract(y1, r1, out=r1)
    if not meas:
        np.copyto(steps[7], steps[5])


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


# Steps in one step_block() call of step_loop, which checks between blocks
# for a stack whose rows are all non-finite.
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
    are meaningless.  After every block of STOP_CHECK_STEPS steps the loop
    stops if no row is finite any more, which leaves every valid count as
    it was.
    """
    rows, n_steps = z.shape[:2]
    zs, yrs, us = z.transpose(1, 2, 0, 3), yr.transpose(1, 2, 0, 3), u.transpose(1, 2, 0)
    yms, ws, ays, vs = (np.moveaxis(arr, 1, 0) for arr in (ym, w, a_y, v))
    views = step_views(zs, yrs, yms, us, ays, vs)
    block = min(STOP_CHECK_STEPS, n_steps - 1)
    bu, wlr, lr = *np.empty((2, block, 2, rows, 4)), np.empty((2, rows, 4))
    lt = np.ascontiguousarray(np.moveaxis(l, -1, 0))

    zs[0, 0] = x0
    zs[0, 1] = xhat0
    with np.errstate(all="ignore"):
        np.matvec(c, zs[0], out=yrs[0])   # record 0's [y; r] and y_meas, as in step_block
        np.add(yrs[0, 0], ays[0], out=yms[0])
        np.add(yms[0], vs[0], out=yms[0])
        np.subtract(yms[0], yrs[0, 1], out=yrs[0, 1])
        np.add(u_sched, u_laa, out=u[:, :, 0])
        u[:, :, 1] = u_sched
        for t0 in range(0, n_steps - 1, STOP_CHECK_STEPS):
            if t0 and not row_finite(zs[t0], yrs[t0, 1]).any():
                break
            t1 = min(t0 + STOP_CHECK_STEPS, n_steps - 1)
            inputs = (ays[t0 + 1:t1 + 1].any(), vs[t0 + 1:t1 + 1].any(), ws[t0:t1].any(),
                      use_k or us[t0:t1].any())
            wlr[:t1 - t0, 0] = ws[t0:t1]
            step_block(a, b, c, lt, k if use_k else None, [s[t0:t1] for s in views],
                       bu[:t1 - t0], wlr[:t1 - t0], lr, inputs)
        else:
            if use_k:
                add_feedback(k, zs[-1, 1], us[-1])
    return int(valid_counts(z, yr).min())
