"""gridstorm pipeline benchmark.

Drives the real ``gridstorm.cli.main`` in-process on one workload, checks
every output, and prints the metrics; the last line of stdout is one JSON
object.  Run from the repository root:

    python3 perfbench/run.py --workload falsify-default --seed 3 --seconds 35 --trace 0

The load is one single-threaded process and a closed loop: a workload is a
sequence of passes, each pass a fixed list of CLI commands, and each command
starts only after the previous one finished.  Passes repeat until the next
one would overrun ``--seconds``; timings are medians over passes, rescaled
for host speed (see PROBE_REF_S).  With ``--trace 1`` the run times half its
passes untraced and half traced (see tracer.py) and prints the per-layer
metrics, per traced pass.  See perfbench/README.md for the workloads and
metrics.
"""

import os

# Pinned before numpy is imported: the thread counts change both speed and,
# through GRIDSTORM_THREADS, the falsification search path.
PINNED_ENV = {
    "GRIDSTORM_THREADS": "1",
    "GRIDSTORM_BACKEND": "numpy",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

SCALES = {
    "full": {
        "grid": "configs/default_grid.json",
        "setup_runs": 9,
        "schedule": "perfbench/inputs/best_schedule_seed3.json",
        # The shipped search settings with the budget cut from 20000 to 300,
        # so one pass is a fixed 301 evaluations; see README.md.
        "falsify_budget": 300,
        # train_short.json cut from 60 to 15 episodes: the same per-step work
        # in passes short enough for the host-speed probes to track.
        "train_config": "configs/train_short.json",
        "train_overrides": {"episodes": 15},
        "attack": "perfbench/inputs/attack_seed3.json",
        "horizon": 3000,
        "noise_seeds": 2,
    },
    "toy": {
        "grid": "configs/toy_grid.json",
        "setup_runs": 2,
        "schedule": "perfbench/inputs/toy_schedule_seed3.json",
        "falsify_budget": 8,
        "train_config": "configs/train_toy.json",
        "train_overrides": {"episodes": 2, "steps_per_episode": 20, "batch_size": 8},
        "attack": "perfbench/inputs/toy_attack_seed3.json",
        "horizon": 200,
        "noise_seeds": 1,
    },
}

# Per-layer metrics: span statistics per traced pass (p50/p99 over calls),
# counters per traced pass, and three derived values.
SPAN_STATS = [
    ("kernels.step_loop", ("calls", "busy_s")),
    ("sim.simulate", ("calls", "busy_s", "self_s", "p50_us", "p99_us")),
    ("sim.robustness", ("calls", "busy_s")),
    ("sim.check_success", ("calls", "busy_s")),
    ("sim.write_trace_csv", ("busy_s",)),
    ("svgplot.LinePlot.save", ("calls", "busy_s")),
    ("falsify.objective", ("calls", "busy_s", "self_s", "p50_us", "p99_us")),
    ("falsify.falsify_sa", ("busy_s",)),
    ("rl.GridEnv.step", ("calls", "busy_s")),
    ("rl.MLP.forward", ("calls", "busy_s")),
    ("rl.MLP.backward", ("calls", "busy_s")),
    ("rl.Adam.step", ("calls", "busy_s")),
    ("rl.soft_update", ("busy_s",)),
    ("rl.ReplayBuffer.sample", ("busy_s",)),
    ("rl.ddpg_train", ("self_s",)),
    ("model.load_grid_config", ("calls", "busy_s")),
    ("model.calibrate_threshold", ("busy_s",)),
    ("model.design_kalman_gain", ("busy_s",)),
    ("numerics.solve_dare", ("calls", "busy_s")),
    ("numerics.mat_exp", ("busy_s",)),
    ("numerics.RngStream.normal", ("calls", "busy_s")),
    ("cli.simulate", ("busy_s",)),
    ("cli.train-laa", ("busy_s",)),
    ("cli.falsify", ("busy_s",)),
    ("cli.validate", ("busy_s",)),
    ("cli.compare", ("busy_s",)),
]
COUNTERS = [
    ("kernels.step_loop.gen_steps", "count"),
    ("kernels.step_loop.truncated", "count"),
    ("kernels.step_loop.flops_computed", "flop"),
    ("sim.write_trace_csv.bytes", "bytes"),
    ("svgplot.LinePlot.save.bytes", "bytes"),
    ("falsify.restarts_run", "count"),
    ("falsify.restarts_succeeded", "count"),
]
DERIVED = [
    ("kernels.step_loop.us_per_gen_step", "us"),
    ("falsify.validation_s", "s"),
    ("trace.overhead_s", "s"),
]
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us"}


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"{span}.{stat}", STAT_UNITS[stat])
             for span, stats in SPAN_STATS for stat in stats]
    return names + COUNTERS + DERIVED


class CheckFailed(Exception):
    """An operation returned an unexpected exit code or a wrong output."""


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest_dir(path):
    """sha256 of every file in a command's output directory but manifest.json,
    which records wall-clock times and is outside the byte-identity contract."""
    return {p.name: sha256_file(p) for p in sorted(Path(path).iterdir())
            if p.name != "manifest.json"}


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


class Context:
    """One benchmark run: its seed, sizes, output directory and op counts."""

    def __init__(self, workload, seed, scale, trace):
        self.seed = seed
        self.scale = SCALES[scale]
        self.out = OUT / workload / f"seed{seed}-trace{trace}"
        self.grid_path = str(ROOT / self.scale["grid"])
        self.attempted = 0
        self.failed = 0
        self.log = None

    def cli(self, argv, expected=(0,)):
        """Run one gridstorm command in-process; returns (exit code, stdout)."""
        from gridstorm.cli import main

        self.attempted += 1
        buf = io.StringIO()
        saved_argv = sys.argv
        sys.argv = ["gridstorm", *argv]
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except Exception:  # a crash is one failed operation; report it and stop
            traceback.print_exc(file=sys.stderr)
            code = None
        finally:
            sys.argv = saved_argv
        self.log.write(f"$ gridstorm {' '.join(argv)}\n{buf.getvalue()}exit {code}\n")
        if code not in expected:
            self.failed += 1
            raise CheckFailed(f"gridstorm {argv[0]} exited {code}, expected {expected}")
        return code, buf.getvalue()

    def check(self, fn, *args):
        """Run an output check; a failure counts against the last operation."""
        try:
            fn(*args)
        except CheckFailed:
            self.failed += 1
            raise


# ---------------------------------------------------------------------------
# Workloads


class FalsifyDefault:
    """`gridstorm falsify` on the frozen seed-3 breaker schedule."""

    def prepare(self, ctx, grid):
        from gridstorm.falsify import load_schedule_file

        with open(ROOT / "configs/falsify_default.json", encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["budget"] = ctx.scale["falsify_budget"]
        cfg_path = ctx.out / "falsify_config.json"
        cfg_path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        self.cfg = cfg
        self.schedule = load_schedule_file(ROOT / ctx.scale["schedule"])
        self.dir = ctx.out / "falsify"
        self.argv = ["falsify", "--config", ctx.grid_path,
                     "--laa", str(ROOT / ctx.scale["schedule"]),
                     "--falsify-config", str(cfg_path),
                     "--seed", str(ctx.seed), "--out", str(self.dir)]
        self.first = None
        self.exact = {}

    def run_pass(self, ctx):
        self.code, _ = ctx.cli(self.argv, expected=(0, 3))

    def check(self, ctx, grid):
        from gridstorm.falsify import load_attack_file
        from gridstorm.sim import check_success, robustness, simulate

        report = (self.dir / "falsify_report.txt").read_text(encoding="utf-8")
        fields = dict(line.split(": ", 1) for line in report.splitlines()
                      if ": " in line and not line.startswith(" "))
        best_rho = float(fields["best rho"])
        evaluations = int(fields["evaluations"])
        restart_rhos = [float(line.split("rho=")[1].split()[0])
                        for line in report.splitlines() if "rho=" in line]
        require(best_rho == min(restart_rhos), "best rho is not the restarts' minimum")
        attack_path = self.dir / "attack.json"
        if self.code == 0:
            doc = json.loads(attack_path.read_text(encoding="utf-8"))
            attack = load_attack_file(attack_path)
            require(attack.breakers.signals.tolist() == self.schedule.signals.tolist(),
                    "attack does not keep the input breaker schedule")
            trace = simulate(grid, attack, horizon=attack.d, noise=False)
            basis = self.cfg["signal_basis"]
            rho = robustness(trace, grid.envelope, grid.thresholds, basis)
            require(rho == doc["provenance"]["rho"] == best_rho,
                    f"re-simulated rho {rho!r}, attack rho {doc['provenance']['rho']!r} "
                    f"and reported rho {best_rho!r} differ")
            require(rho < 0.0, "reported counter-example has rho >= 0")
            require(check_success(trace, grid.envelope, grid.thresholds, basis).success,
                    "re-simulated attack does not satisfy the success predicate")
            self.exact["noise_success_fraction"] = doc["provenance"]["noise_success_fraction"]
        else:
            require(fields["success"] == "False", "exit 3 but the report claims success")
            require(best_rho >= 0.0, "exit 3 with a negative best rho")
            require(evaluations == self.cfg["budget"] + 1,
                    f"exhausted search spent {evaluations} evaluations, "
                    f"expected budget + zero screen = {self.cfg['budget'] + 1}")
            require(not attack_path.exists(), "exit 3 but attack.json was written")
        digest = digest_dir(self.dir)
        self.first = self.first or digest
        require(digest == self.first, "same-seed falsify artifacts differ between passes")
        self.exact.update(falsify_evals=evaluations, falsify_best_rho=best_rho,
                          verified_counterexample=self.code == 0)
        self.work = evaluations

    def summary(self, pass_s):
        return {"falsify_s": (pass_s, "s"),
                "falsify_evals_per_s": (self.work / pass_s, "1/s"),
                **{k: (v, "") for k, v in self.exact.items()}}


class TrainDefault:
    """`gridstorm train-laa` on the default grid with train_short.json."""

    def prepare(self, ctx, grid):
        with open(ROOT / ctx.scale["train_config"], encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg.update(ctx.scale["train_overrides"])
        cfg_path = ctx.out / "train_config.json"
        cfg_path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        self.cfg = cfg
        self.dir = ctx.out / "train"
        self.argv = ["train-laa", "--config", ctx.grid_path,
                     "--train-config", str(cfg_path),
                     "--seed", str(ctx.seed), "--out", str(self.dir)]
        self.first = None

    def run_pass(self, ctx):
        ctx.cli(self.argv)

    def check(self, ctx, grid):
        from gridstorm.falsify import load_schedule_file

        lines = (self.dir / "reward_curve.csv").read_text(encoding="utf-8").splitlines()
        require(lines[0] == "episode,reward", "reward_curve.csv header changed")
        rewards = [float(line.split(",")[1]) for line in lines[1:]]
        require(len(rewards) == self.cfg["episodes"], "reward curve has the wrong length")
        schedule = load_schedule_file(self.dir / "best_schedule.json")
        steps = self.cfg["steps_per_episode"] * self.cfg.get("action_repeat", 1)
        require(schedule.d == steps and schedule.m == grid.n_breakers,
                "best schedule has the wrong shape")
        digest = digest_dir(self.dir)
        self.first = self.first or digest
        require(digest == self.first, "same-seed training artifacts differ between passes")
        self.best_reward = max(rewards)

    def summary(self, pass_s):
        steps = self.cfg["episodes"] * self.cfg["steps_per_episode"]
        return {"train_s": (pass_s, "s"),
                "train_env_steps_per_s": (steps / pass_s, "1/s"),
                "train_best_reward": (self.best_reward, "")}


class ReportLong:
    """The frozen seed-3 attack replayed at a long horizon: noisy `simulate`
    for several noise seeds, then `validate`, then a three-mode `compare`."""

    def prepare(self, ctx, grid):
        from gridstorm.falsify import load_attack_file
        from gridstorm.sim import check_success, simulate

        attack_path = str(ROOT / ctx.scale["attack"])
        h = str(ctx.scale["horizon"])
        n = ctx.scale["noise_seeds"]
        self.sim_dirs = [ctx.out / f"simulate-{j}" for j in range(n)]
        self.compare_dir = ctx.out / "compare"
        self.commands = [
            ["simulate", "--config", ctx.grid_path, "--attack", attack_path,
             "--horizon", h, "--seed", str(ctx.seed * n + j), "--out", str(d)]
            for j, d in enumerate(self.sim_dirs)]
        self.validate = ["validate", "--config", ctx.grid_path, "--attack", attack_path,
                         "--horizon", h]
        self.compare = ["compare", "--config", ctx.grid_path, "--attack", attack_path,
                        "--laa-only", "--fdia-only", "--combined", "--horizon", h,
                        "--out", str(self.compare_dir)]
        # What validate and compare must report, from an independent re-simulation.
        attack = load_attack_file(attack_path)
        trace = simulate(grid, attack, horizon=ctx.scale["horizon"], noise=False)
        self.expect_success = check_success(trace, grid.envelope, grid.thresholds).success
        with open(attack_path, encoding="utf-8") as fh:
            rho = json.load(fh)["provenance"].get("rho")
        require(rho is None or (rho < 0.0) == self.expect_success,
                "frozen attack no longer reproduces its recorded verdict")
        self.rows = (ctx.scale["horizon"] + 1) * grid.n_generators
        self.first = None

    def run_pass(self, ctx):
        for argv in self.commands:
            ctx.cli(argv)
        self.validate_code, self.validate_out = ctx.cli(self.validate, expected=(0, 1))
        ctx.cli(self.compare)

    def check(self, ctx, grid):
        for d in self.sim_dirs:
            with open(d / "trace.csv", encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            require(rows == self.rows, f"{d.name}/trace.csv has {rows} rows, "
                                       f"expected (H+1)*n = {self.rows}")
        verdict = json.loads(self.validate_out)["reports"]["measured"]["success"]
        require(verdict == self.expect_success == (self.validate_code == 0),
                "validate disagrees with the re-simulated verdict")
        with open(self.compare_dir / "compare_report.json", encoding="utf-8") as fh:
            modes = json.load(fh)["modes"]
        require(sorted(modes) == ["combined", "fdia-only", "laa-only"],
                "compare report lacks a mode")
        require(modes["combined"]["success"] == self.expect_success,
                "compare's combined verdict disagrees with validate")
        digest = {d.name: digest_dir(d) for d in self.sim_dirs + [self.compare_dir]}
        self.first = self.first or digest
        require(digest == self.first, "same-seed report artifacts differ between passes")

    def summary(self, pass_s):
        return {"report_s": (pass_s, "s")}


WORKLOADS = {
    "falsify-default": FalsifyDefault,
    "train-default": TrainDefault,
    "report-long": ReportLong,
}


# ---------------------------------------------------------------------------
# Measurement

SETUP_CODE = ("import sys\n"
              "from gridstorm.cli import main\n"
              "from gridstorm.model import load_grid_config_file\n"
              "load_grid_config_file(sys.argv[1])\n")

# The speed of a shared host drifts by up to +-30% within minutes while the
# program stays the same.  So every timed item is bracketed by a fixed
# reference computation, and a timing is reported as wall time rescaled to a
# host on which that reference takes PROBE_REF_S: the median over items of
# wall / (mean of the two probes around it) * PROBE_REF_S.
PROBE_REF_S = 0.05


def probe():
    """Wall time of a fixed reference computation of the program's two kinds
    of work: small einsums as in the step loop, 64-wide matmuls as in the MLP."""
    a = np.full((3, 4, 4), 0.2)
    x = np.ones((3, 4))
    w = np.full((64, 64), 0.01)
    h = np.ones((64, 64))
    t0 = time.perf_counter()
    for _ in range(2500):
        x = np.einsum("nsj,nj->ns", a, x) + 0.01
        h = np.maximum(h @ w, 0.0) + 0.01
    return time.perf_counter() - t0


class Timings:
    """Wall times of repeated items, each with a probe before and after."""

    def __init__(self):
        self.wall = []
        self.probes = [probe()]

    def add(self, seconds):
        self.wall.append(seconds)
        self.probes.append(probe())

    def median_wall(self):
        return statistics.median(self.wall)

    def rescaled(self):
        p = self.probes
        return PROBE_REF_S * statistics.median(
            t / (0.5 * (p[i] + p[i + 1])) for i, t in enumerate(self.wall))


def measure_setup(grid_path, runs):
    """Fresh interpreters that import gridstorm and load (and calibrate) the
    grid config: what every CLI command pays before its work."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timings = Timings()
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, grid_path], env=env,
                                cwd=ROOT, stdout=subprocess.DEVNULL)
        # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantize the measurement; the timer only guards a hang.
        guard = threading.Timer(120, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited {code}")
        timings.add(time.perf_counter() - t0)
    return timings


def measure(ctx, workload, grid, seconds, tracer=None):
    """Run passes until the next one would overrun `seconds`."""
    timings = Timings()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id += 1
        t0 = time.perf_counter()
        workload.run_pass(ctx)
        dt = time.perf_counter() - t0
        timings.add(dt)
        ctx.check(workload.check, ctx, grid)
        if time.perf_counter() - start + dt > seconds:
            return timings


def per_layer(tracer, n_passes, overhead_s):
    stats = tracer.summary()
    values = {}
    for span, keys in SPAN_STATS:
        s = stats.get(span, {})
        for key in keys:
            v = s.get(key, 0.0)
            values[f"{span}.{key}"] = v if key.endswith("_us") else v / n_passes
    for name, _ in COUNTERS:
        values[name] = tracer.counters[name] / n_passes
    gen_steps = tracer.counters["kernels.step_loop.gen_steps"]
    busy = stats.get("kernels.step_loop", {}).get("busy_s", 0.0)
    values["kernels.step_loop.us_per_gen_step"] = busy / gen_steps * 1e6 if gen_steps else 0.0
    sv = stats.get("falsify.synthesize_and_validate", {}).get("busy_s", 0.0)
    sa = stats.get("falsify.falsify_sa", {}).get("busy_s", 0.0)
    values["falsify.validation_s"] = (sv - sa) / n_passes
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gridstorm").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "openblas": blas.get("version"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "pinned_env": PINNED_ENV,
    }


def run(args):
    import gridstorm.cli  # noqa: F401  (the tracer patches loaded modules only)
    from gridstorm.model import load_grid_config_file

    ctx = Context(args.workload, args.seed, "toy" if args.toy else "full", args.trace)
    shutil.rmtree(ctx.out, ignore_errors=True)
    ctx.out.mkdir(parents=True)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "toy": args.toy, "env": environment()}
    workload = WORKLOADS[args.workload]()
    grid = load_grid_config_file(ctx.grid_path)
    summary = {}
    error = None
    with open(ctx.out / "commands.log", "w", encoding="utf-8") as log:
        ctx.log = log
        try:
            workload.prepare(ctx, grid)
            if args.trace:
                from tracer import Tracer

                untraced = measure(ctx, workload, grid, args.seconds / 2)
                tracer = Tracer()
                with tracer.installed():
                    traced = measure(ctx, workload, grid, args.seconds / 2, tracer)
                tracer.write(ctx.out / "spans.csv")
                overhead = traced.rescaled() - untraced.rescaled()
                metrics = per_layer(tracer, len(traced.wall), overhead)
                passes = untraced
                result["traced"] = vars(traced)
            else:
                setup = measure_setup(ctx.grid_path, ctx.scale["setup_runs"])
                passes = measure(ctx, workload, grid, args.seconds)
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                metrics = {"setup_s": {"value": setup.rescaled(), "unit": "s"},
                           "pass_s": {"value": passes.rescaled(), "unit": "s"},
                           "peak_rss_mb": {"value": rss, "unit": "MiB"}}
                summary.update(setup_s=(setup.rescaled(), "s"),
                               setup_wall_s=(setup.median_wall(), "s"),
                               pass_s=(passes.rescaled(), "s"),
                               peak_rss_mb=(rss, "MiB"))
                result["setup"] = vars(setup)
            result["passes"] = vars(passes)
            summary["host_probe_s"] = (statistics.median(passes.probes), "s")
            summary.update(workload.summary(passes.median_wall()))
        except CheckFailed as exc:
            error = str(exc)
            metrics = {}
    summary["error_rate"] = (ctx.failed / max(ctx.attempted, 1), "")
    result.update(summary={k: v for k, (v, _) in summary.items()}, error=error,
                  attempted=ctx.attempted, failed=ctx.failed)
    (ctx.out / "result.json").write_text(json.dumps(result, indent=1) + "\n",
                                         encoding="utf-8")

    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    walls = result.get("passes", {}).get("wall", [])
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} untraced passes, wall s {[round(t, 3) for t in walls]}")
    for name, (value, unit) in summary.items():
        print(f"  {name:<26} {value!r} {unit}")
    if error:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps({"correct": error is None, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0 if error is None else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy grid and tiny budgets, for the smoke test")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/gridstorm/cli.py", "configs/default_grid.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a gridstorm checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
