"""The closed-loop plant/estimator recurrence, written once in numpy.

closed_loop_step() advances every generator loop by one step; simulate()
runs it for a whole horizon through step_loop(), and the RL environment
runs it once per sub-step.  All arrays are stacked over generators on the
leading axis.
"""

import numpy as np


def believed_input(k, use_k, u_sched, xhat):
    """The estimator's input: the schedule, plus K x_hat when a gain is set."""
    if use_k:
        return u_sched + np.einsum("ns,ns->n", k, xhat)
    return u_sched


def outputs(c, x, xhat, a_y, v):
    """y = C x, y_meas = y + false data + noise, and the residue r = y_meas - C x_hat."""
    y = np.einsum("nos,ns->no", c, x)
    ym = y + a_y + v
    return y, ym, ym - np.einsum("nos,ns->no", c, xhat)


def closed_loop_step(a, b, c, l, x, xhat, r, u_act, u_bel, w, a_y, v):
    """One step of every loop: returns x, x_hat, y, y_meas and r at t+1.

    The plant consumes the actual input u_act and process noise w; the
    estimator consumes the believed input u_bel and L times the residue r.
    a_y and v are the false data and measurement noise of step t+1; w, a_y
    and v may be 0.0.
    """
    x1 = np.einsum("nsj,nj->ns", a, x) + b * u_act[:, None] + w
    xhat1 = (np.einsum("nsj,nj->ns", a, xhat) + b * u_bel[:, None]
             + np.einsum("nso,no->ns", l, r))
    return (x1, xhat1) + outputs(c, x1, xhat1, a_y, v)


# The unused leading slot stays because perfbench/tracer.py reads this
# function's arguments by position (args[1], args[3], args[6], args[14]).
def step_loop(_unused, a, b, c, l, k, use_k, x0, xhat0, u_sched, u_laa, a_y, w, v,
              x, xhat, y, ym, r, ub, ua):
    """Fill the caller-allocated records 0..horizon; return how many are valid.

    A return below horizon + 1 means the state went non-finite and the run
    was truncated at that step.
    """
    n_steps = x.shape[1]
    x[:, 0] = x0
    xhat[:, 0] = xhat0
    y[:, 0], ym[:, 0], r[:, 0] = outputs(c, x[:, 0], xhat[:, 0], a_y[:, 0], v[:, 0])
    np.add(u_sched, u_laa, out=ua)

    for t in range(n_steps):
        ub[:, t] = believed_input(k, use_k, u_sched[:, t], xhat[:, t])
        if t == n_steps - 1:
            break
        (x[:, t + 1], xhat[:, t + 1], y[:, t + 1], ym[:, t + 1],
         r[:, t + 1]) = closed_loop_step(a, b, c, l, x[:, t], xhat[:, t], r[:, t],
                                         ua[:, t], ub[:, t], w[:, t],
                                         a_y[:, t + 1], v[:, t + 1])
        if not (np.all(np.isfinite(x[:, t + 1]))
                and np.all(np.isfinite(xhat[:, t + 1]))
                and np.all(np.isfinite(r[:, t + 1]))):
            return t + 1
    return n_steps
