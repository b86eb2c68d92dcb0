"""The closed-loop plant/estimator recurrence, written once in numpy.

Every generator's plant state x and estimate x_hat advance together as one
block z = [x; x_hat] of shape (2, n, 4), so a step costs three einsums
(A z, L r, C z) whatever the number of generators.  closed_loop_step()
advances the block by one step into caller-provided arrays; simulate() runs
it over a whole horizon through step_loop(), which writes straight into the
trace records, and the RL environment runs it once per sub-step.  Within a
step the [x; x_hat] (or [y; r]) stacking axis comes first, so each half is
one contiguous (n, ...) array; the records are indexed [generator, step, ...].

Bit-identity rests on the operation order, which stays (A x + b u_act) + w,
(A x_hat + b u_bel) + L r, (y + a_y) + v and y_meas - C x_hat.
"""

import numpy as np


def believed_input(k, use_k, u_sched, xhat):
    """The estimator's input: the schedule, plus K x_hat when a gain is set."""
    if use_k:
        return u_sched + np.einsum("ns,ns->n", k, xhat)
    return u_sched


def outputs(c, z, a_y, v, yr, ym):
    """The measurement half of a step, written into yr = [y; r] and ym.

    C z gives [y; C x_hat] in one einsum; y_meas = (y + a_y) + v, and the
    residue r = y_meas - C x_hat then overwrites C x_hat.
    """
    np.einsum("nos,kns->kno", c, z, out=yr)
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
    np.einsum("nsj,knj->kns", a, z, out=z1)
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


# The unused leading slot stays because perfbench/tracer.py reads this
# function's arguments by position (args[1], args[3], args[6], args[14]).
def step_loop(_unused, a, b, c, l, k, use_k, x0, xhat0, u_sched, u_laa, a_y, w, v,
              z, yr, ym, u):
    """Fill the records 0..horizon; return how many are valid.

    Every array is indexed [generator, step, ...]: the inputs are a_y and v
    (n, steps, 2) and w (n, steps - 1, 4); the records are z = [x; x_hat]
    (n, steps, 2, 4), yr = [y; r] (n, steps, 2, 2), ym (n, steps, 2) and
    u = [u_act, u_bel] (n, steps, 2); buffers() allocates them all.  A
    return below horizon + 1 means the state went non-finite and the run was
    truncated at that step.
    """
    n_steps = z.shape[1]
    zs, yrs, us = z.transpose(1, 2, 0, 3), yr.transpose(1, 2, 0, 3), u.transpose(1, 2, 0)
    yms, ws, ays, vs = (np.moveaxis(arr, 1, 0) for arr in (ym, w, a_y, v))

    zs[0, 0] = x0
    zs[0, 1] = xhat0
    outputs(c, zs[0], ays[0], vs[0], yrs[0], yms[0])
    np.add(u_sched, u_laa, out=u[:, :, 0])
    for t in range(n_steps - 1):
        z0, z1 = zs[t], zs[t + 1]
        us[t, 1] = believed_input(k, use_k, u_sched[:, t], z0[1])
        closed_loop_step(a, c, l, z0, yrs[t, 1], b * us[t][..., None], ws[t],
                         ays[t + 1], vs[t + 1], z1, yrs[t + 1], yms[t + 1])
        if not (np.isfinite(z1).all() and np.isfinite(yrs[t + 1, 1]).all()):
            return t + 1
    us[-1, 1] = believed_input(k, use_k, u_sched[:, -1], zs[-1, 1])
    return n_steps
