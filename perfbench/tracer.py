"""Span tracing of gridstorm's public functions, installed from outside.

The program is not edited: each traced function is replaced by a wrapper in
every gridstorm module namespace that bound it, so a name imported with
``from .sim import simulate`` into falsify and cli is traced there too and
calls made through that binding stay inside their caller's span.  Methods
are patched on their class.

A span is (name, start, end, parent, run id).  Spans are kept in memory and
written out once, when the benchmark ends.  A span's self time is its
duration minus the time its child spans cover.
"""

import contextlib
import csv
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute path) for every traced boundary.
TRACED = [
    ("kernels.step_loop", "gridstorm.kernels", "step_loop"),
    ("sim.simulate", "gridstorm.sim", "simulate"),
    ("sim.robustness", "gridstorm.sim", "robustness"),
    ("sim.check_success", "gridstorm.sim", "check_success"),
    ("sim.write_trace_csv", "gridstorm.sim", "write_trace_csv"),
    ("svgplot.LinePlot.save", "gridstorm.svgplot", "LinePlot.save"),
    ("falsify.objective", "gridstorm.falsify", "objective"),
    ("falsify.falsify_sa", "gridstorm.falsify", "falsify_sa"),
    ("falsify.synthesize_and_validate", "gridstorm.falsify", "synthesize_and_validate"),
    ("rl.GridEnv.step", "gridstorm.rl", "GridEnv.step"),
    ("rl.MLP.forward", "gridstorm.rl", "MLP.forward"),
    ("rl.MLP.backward", "gridstorm.rl", "MLP.backward"),
    ("rl.Adam.step", "gridstorm.rl", "Adam.step"),
    ("rl.soft_update", "gridstorm.rl", "soft_update"),
    ("rl.ReplayBuffer.sample", "gridstorm.rl", "ReplayBuffer.sample"),
    ("rl.ddpg_train", "gridstorm.rl", "ddpg_train"),
    ("model.load_grid_config", "gridstorm.model", "load_grid_config"),
    ("model.calibrate_threshold", "gridstorm.model", "calibrate_threshold"),
    ("model.design_kalman_gain", "gridstorm.model", "design_kalman_gain"),
    ("numerics.solve_dare", "gridstorm.numerics", "solve_dare"),
    ("numerics.mat_exp", "gridstorm.numerics", "mat_exp"),
    ("numerics.RngStream.normal", "gridstorm.numerics", "RngStream.normal"),
    ("cli.simulate", "gridstorm.cli", "cmd_simulate"),
    ("cli.train-laa", "gridstorm.cli", "cmd_train_laa"),
    ("cli.falsify", "gridstorm.cli", "cmd_falsify"),
    ("cli.validate", "gridstorm.cli", "cmd_validate"),
    ("cli.compare", "gridstorm.cli", "cmd_compare"),
]


def step_loop_flops(n_states, n_outputs, use_k):
    """Floating-point operations of one generator step of the closed loop,
    counted from the array shapes (multiply and add each count one)."""
    ns, no = n_states, n_outputs
    flops = 2 * ns * ns + 3 * ns               # x' = A x + b ua + w
    flops += 2 * ns * ns + 2 * ns + 2 * ns * no  # xhat' = A xhat + b ub + L r
    flops += 2 * (2 * no * ns) + 3 * no         # y, ym = y + a + v, r = ym - C xhat
    if use_k:
        flops += 2 * ns + 1                     # ub = u + K xhat
    return flops


def _count_step_loop(counters, args, result):
    a, c, use_k, x = args[1], args[3], args[6], args[14]
    n, n_steps = x.shape[0], x.shape[1]
    counters["kernels.step_loop.gen_steps"] += n * result
    counters["kernels.step_loop.truncated"] += int(result < n_steps)
    counters["kernels.step_loop.flops_computed"] += (
        n * max(result - 1, 0) * step_loop_flops(a.shape[1], c.shape[1], use_k))


def _count_falsify_sa(counters, args, result):
    restarts = [h for h in result.history if h.restart >= 0]
    counters["falsify.restarts_run"] += len(restarts)
    counters["falsify.restarts_succeeded"] += sum(int(h.success) for h in restarts)


def _count_plot_bytes(counters, args, result):
    counters["svgplot.LinePlot.save.bytes"] += os.path.getsize(args[1])


AFTER = {
    "kernels.step_loop": _count_step_loop,
    "falsify.falsify_sa": _count_falsify_sa,
    "svgplot.LinePlot.save": _count_plot_bytes,
}


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.names = []      # span name per span
        self.starts = []
        self.ends = []
        self.parents = []    # index of the enclosing span, -1 at top level
        self.run_ids = []
        self.counters = defaultdict(float)
        self.run_id = 0
        self._stack = []

    def _wrap(self, name, fn):
        after = AFTER.get(name)
        csv_bytes = name == "sim.write_trace_csv"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.run_ids.append(self.run_id)
            self.ends.append(0.0)
            self._stack.append(idx)
            before = args[1].tell() if csv_bytes else 0
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if csv_bytes:
                self.counters["sim.write_trace_csv.bytes"] += args[1].tell() - before
            if after is not None:
                after(self.counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name, in every module that bound it; undo on exit."""
        patched = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "gridstorm" or key.startswith("gridstorm.")]
        try:
            for name, module_name, attr in TRACED:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, original))
                    patched.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patched.append((module, key, original))
            yield self
        finally:
            for obj, key, original in reversed(patched):
                setattr(obj, key, original)

    def durations(self):
        """Per span: (duration, self time), in seconds."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur, dur - child

    def summary(self):
        """Per span name: calls, busy_s, self_s, p50_us, p99_us."""
        dur, self_time = self.durations()
        by_name = defaultdict(list)
        for i, name in enumerate(self.names):
            by_name[name].append(i)
        out = {}
        for name, idx in by_name.items():
            d = dur[idx]
            out[name] = {
                "calls": len(idx),
                "busy_s": float(d.sum()),
                "self_s": float(self_time[idx].sum()),
                "p50_us": float(np.percentile(d, 50) * 1e6),
                "p99_us": float(np.percentile(d, 99) * 1e6),
            }
        return out

    def write(self, path):
        """Write every span as CSV: name, start_s, end_s, parent, run_id."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "run_id"])
            for i, name in enumerate(self.names):
                writer.writerow([i, name, repr(self.starts[i]), repr(self.ends[i]),
                                 self.parents[i], self.run_ids[i]])
