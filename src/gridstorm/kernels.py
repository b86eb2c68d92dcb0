"""The closed-loop plant/estimator recurrence, written once in numpy.

Every generator's plant state x and estimate x_hat advance together as one
block z = [x; x_hat] of shape (2, n, 4), so a step costs the same few ufunc
calls whatever the number of generators.  A z and C z are np.matvec calls,
which give einsum's bits at half its call cost.  step_block() advances the
block through a run of step-major records, walking views made once by
step_views(), with no per-step indexing.  A step's Python work is the views
it zips, each about a sixth of a ufunc call's cost, so it zips only the
ones its block reads: the state it starts from is the record the step
before wrote, u and the scratch b u come in only with a gain or a load,
and y_meas only with a measurement input.  step_loop() runs it over a whole
horizon a block of STOP_CHECK_STEPS steps at a time, writing straight into
the trace records; the RL environment runs it over a one-step block per env
step.  Within a step the
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

from itertools import repeat

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
    per step after add_feedback has added K x_hat into u; either way it is
    added only when the load is flagged.
    """
    add, multiply, subtract, matvec = np.add, np.multiply, np.subtract, np.matvec
    z, r, u, z1s, yr1s, y1s, r1s, ym1s = steps[:8]
    meas = [m for m, nonzero in zip(steps[8:], inputs) if nonzero]
    unused = repeat(None)
    # a slot the block does not use yields None, so every flag pattern runs
    # the one loop below and a step makes only the views it reads
    loads = bu if inputs[3] else unused
    if k is None and inputs[3]:
        np.multiply(b, u, out=bu)
    gains = unused if k is None else zip(z[:, 1], u[..., 0], u)
    # [w; L r] goes into z, or into x_hat alone without w
    noises, x_hats = (wlr, unused) if inputs[2] else (unused, z1s[:, 1])
    # y_meas is y plus the flagged measurement inputs in order; without
    # one, the residue is formed from y and y_meas copied after the block
    ys, yms = (y1s, ym1s) if meas else (unused, y1s)
    m0s, m1s = (meas + [unused, unused])[:2]
    lr0, lr1 = lr
    z0 = z[0]
    for r0, z1, yr1, y1, r1, ym1, lr_t, wlr_t, xh1, bu_t, m0, m1, gain in zip(
            r, z1s, yr1s, ys, r1s, yms, wlr[:, 1], noises, x_hats, loads, m0s, m1s, gains):
        if gain is not None:
            xh0, u_t, u_col = gain
            add_feedback(k, xh0, u_t)
            if bu_t is not None:
                multiply(b, u_col, bu_t)
        matvec(a, z0, z1)
        if bu_t is not None:
            add(z1, bu_t, z1)
        multiply(r0, lt, lr)
        add(lr0, lr1, lr_t)
        if xh1 is None:
            add(z1, wlr_t, z1)
        else:
            add(xh1, lr_t, xh1)
        matvec(c, z1, yr1)
        if m0 is not None:
            add(y1, m0, ym1)
            if m1 is not None:
                add(ym1, m1, ym1)
        subtract(ym1, r1, r1)
        z0 = z1
    if not meas:
        np.copyto(ym1s, y1s)


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


def nonzero_blocks(arr, starts):
    """Per block of arr's leading (step) axis, one starting at each of
    starts and running to the next, whether it holds a nonzero value."""
    hit = np.logical_or.reduceat(arr != 0.0, starts)
    return hit.reshape(len(hit), -1).any(axis=1).tolist()


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
    it was.  Which inputs each block flags nonzero is found for all blocks
    at once, before the first.
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
        starts = range(0, n_steps - 1, STOP_CHECK_STEPS)
        flags = [nonzero_blocks(x, starts) for x in (ays[1:], vs[1:], ws)]
        flags.append([True] * len(starts) if use_k else nonzero_blocks(us[:-1], starts))
        for t0, *inputs in zip(starts, *flags):
            if t0 and not row_finite(zs[t0], yrs[t0, 1]).any():
                break
            t1 = min(t0 + STOP_CHECK_STEPS, n_steps - 1)
            wlr[:t1 - t0, 0] = ws[t0:t1]
            step_block(a, b, c, lt, k if use_k else None, [s[t0:t1] for s in views],
                       bu[:t1 - t0], wlr[:t1 - t0], lr, inputs)
        else:
            if use_k:
                add_feedback(k, zs[-1, 1], us[-1])
    if np.isfinite(z).all() and np.isfinite(yr[:, :, 1]).all():
        return n_steps   # valid_counts' answer when every record is finite, at a tenth of its cost
    return int(valid_counts(z, yr).min())
