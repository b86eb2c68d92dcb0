"""gridstorm command-line pipeline.

Subcommands: simulate, train-laa, falsify, validate, compare.  Every command
takes one master seed, splits it into per-stage streams, and records a run
manifest next to its outputs.  Exit codes: 0 success, 1 predicate false,
2 input error, 3 no counter-example, 4 internal invariant breach.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import datetime
import functools
import glob
import hashlib
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .falsify import (FalsifyConfig, ValidationMismatch, load_attack_file,
                      load_schedule_file, save_attack, save_schedule,
                      synthesize_and_validate)
from .model import (NOMINAL_HZ, ConfigError, config_object, load_grid_config_file,
                    read_json_file, require_keys, write_json)
from .numerics import RngStream
from .rl import (EpisodeConfig, GridEnv, RewardWeights, TrainConfig, TrainingDiverged,
                 ddpg_train, save_weights)
from .sim import (SIGNAL_BASES, AttackVector, BreakerSchedule,
                  FalseDataSchedule, check_success, detect, simulate, simulate_many,
                  write_trace_csv)
from .svgplot import LinePlot

EXIT_OK = 0
EXIT_PREDICATE_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_COUNTEREXAMPLE = 3
EXIT_INTERNAL = 4

# numpy's bundled OpenBLAS, as its Linux wheels ship it
OPENBLAS_GLOB = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                             "libscipy_openblas*")


@functools.cache
def blas_core(pattern=OPENBLAS_GLOB):
    """The name of the kernel that numpy's bundled OpenBLAS picked for this
    process ("SkylakeX", "Haswell", ...; OPENBLAS_CORETYPE sets it), or None
    without the library or its scipy_openblas_get_corename64_ symbol.  The
    training weights hold their bytes only per kernel."""
    for path in sorted(glob.glob(pattern)):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


class _Manifest:
    def __init__(self, out_dir, args, load_grid_s):
        self.out_dir = out_dir
        self.data = {
            "version": __version__,
            "command_line": args.command_line,
            "blas_core": blas_core(),
            # numpy's SIMD targets past its baseline: np.tanh and np.exp take other bits
            "simd_found": np.show_config(mode="dicts")["SIMD Extensions"].get("found", []),
            "config_sha256": _sha256_file(args.config),
            "seeds": {"master": args.seed},
            "started": _utc_now(),
            "finished": None,
            "outputs": [],
            "wall_s": {"load_grid": load_grid_s},
        }

    def stage_seed(self, name, stream_id):
        self.data["seeds"][name] = {"seed": self.data["seeds"]["master"],
                                    "stream_id": stream_id}

    @contextlib.contextmanager
    def timed(self, stage):
        """Add the wall seconds of the with-block to wall_s[stage]."""
        t0 = time.perf_counter()
        yield
        wall_s = self.data["wall_s"]
        wall_s[stage] = wall_s.get(stage, 0.0) + time.perf_counter() - t0

    def add(self, path):
        self.data["outputs"].append(os.path.basename(path))
        return path

    def write(self):
        self.data["finished"] = _utc_now()
        for name in self.data["outputs"]:
            if not os.path.exists(os.path.join(self.out_dir, name)):
                raise RuntimeError(f"manifest lists missing output {name}")
        path = os.path.join(self.out_dir, "manifest.json")
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, suffix=".tmp")
        os.close(fd)
        write_json(tmp, self.data)
        os.replace(tmp, path)


def _load_grid(path):
    """The grid of the config file at path, and the wall seconds its load
    took: reading, estimator design and threshold calibration."""
    t0 = time.perf_counter()
    grid = load_grid_config_file(path)
    return grid, time.perf_counter() - t0


def _utc_now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _plot_frequency(trace, envelope, path, basis="true", detection=None):
    plot = LinePlot("Generator frequency", "time [s]", "f [Hz]")
    plot.set_band(envelope.f_lo, envelope.f_hi)
    t = np.arange(trace.n_steps) * trace.ts
    f = trace.frequency(basis)
    for i in range(trace.n_generators):
        plot.add_series(f"gen {i + 1}", t, f[i])
    if detection is not None:
        plot.add_vline(detection * trace.ts, "first alarm")
    plot.save(path)


def _plot_residue(trace, thresholds, path, detection=None):
    plot = LinePlot("Detector residue (inf-norm)", "time [s]", "||r||_inf")
    t = np.arange(trace.n_steps) * trace.ts
    for i in range(trace.n_generators):
        plot.add_series(f"gen {i + 1}", t, trace.r_inf[i])
    for i, th in enumerate(thresholds):
        plot.add_hline(th, f"Th gen {i + 1}")
    if detection is not None:
        plot.add_vline(detection * trace.ts, "first alarm")
    plot.save(path)


def _plot_power(trace, envelope, path):
    plot = LinePlot("Electrical power deviation", "time [s]", "P_e [pu]")
    plot.set_band(envelope.pe_lo, envelope.pe_hi)
    t = np.arange(trace.n_steps) * trace.ts
    for i in range(trace.n_generators):
        plot.add_series(f"gen {i + 1}", t, trace.p_e[i])
    plot.save(path)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    grid, load_s = _load_grid(args.config)
    if args.horizon < 1:
        raise ConfigError("--horizon", "must be >= 1")
    attack = load_attack_file(args.attack) if args.attack else None
    out_dir = _ensure_out(args.out)
    manifest = _Manifest(out_dir, args, load_s)
    manifest.stage_seed("simulate", 1)
    rng = RngStream(args.seed, 1)

    with manifest.timed("simulate"):
        trace = simulate(grid, attack, horizon=args.horizon,
                         noise=grid.noise_enabled, rng=rng)
    first_alarm = detect(trace, grid.thresholds)
    with manifest.timed("csv"), open(manifest.add(os.path.join(out_dir, "trace.csv")),
                                     "w", encoding="utf-8") as fh:
        write_trace_csv(trace, fh)
    with manifest.timed("svg"):
        _plot_frequency(trace, grid.envelope,
                        manifest.add(os.path.join(out_dir, "frequency.svg")),
                        basis=args.signal_basis, detection=first_alarm)
        _plot_residue(trace, grid.thresholds,
                      manifest.add(os.path.join(out_dir, "residue.svg")),
                      detection=first_alarm)
        _plot_power(trace, grid.envelope,
                    manifest.add(os.path.join(out_dir, "power.svg")))

    report = check_success(trace, grid.envelope, grid.thresholds, args.signal_basis)
    write_json(manifest.add(os.path.join(out_dir, "success_report.json")),
               dataclasses.asdict(report))
    manifest.write()
    print(f"simulate: wrote {out_dir} (detection={report.first_detection}, "
          f"k_prime={report.k_prime}, truncated={trace.truncated})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train-laa


def _train_setup(grid, doc):
    """The training env on grid and the train config of a train config
    document.  The episode and training sections share its top level; the
    reward weights are its "weights" object."""
    names = {cls: {f.name for f in dataclasses.fields(cls)}
             for cls in (EpisodeConfig, TrainConfig)}
    require_keys(doc, "$", [], {"weights"}.union(*names.values()))
    episode, train = (config_object(cls, {k: v for k, v in doc.items() if k in keys}, "$")
                      for cls, keys in names.items())
    weights = config_object(RewardWeights, doc.get("weights", {}), "$.weights")
    return GridEnv(grid, episode, weights=weights), train


def cmd_train_laa(args):
    grid, load_s = _load_grid(args.config)
    env, train_cfg = read_json_file(args.train_config, lambda doc: _train_setup(grid, doc))
    out_dir = _ensure_out(args.out)
    manifest = _Manifest(out_dir, args, load_s)
    manifest.stage_seed("train", 2)

    with manifest.timed("train"):
        artifacts = ddpg_train(env, train_cfg, RngStream(args.seed, 2))
    manifest.data["counts"] = {"env_steps": artifacts.env_steps,
                               "ddpg_updates": artifacts.ddpg_updates}

    with manifest.timed("export"):
        save_weights(manifest.add(os.path.join(out_dir, "actor.gsrl")), artifacts.actor)
        curve_path = manifest.add(os.path.join(out_dir, "reward_curve.csv"))
        with open(curve_path, "w", encoding="utf-8") as fh:
            fh.write("episode,reward\n")
            for ep, rew in enumerate(artifacts.reward_curve):
                fh.write(f"{ep},{format(rew, '.9g')}\n")
        plot = LinePlot("Episode reward", "episode", "reward")
        plot.add_series("reward", np.arange(len(artifacts.reward_curve)),
                        artifacts.reward_curve)
        plot.save(manifest.add(os.path.join(out_dir, "reward_curve.svg")))
        save_schedule(manifest.add(os.path.join(out_dir, "best_schedule.json")),
                      artifacts.best_schedule)
    manifest.write()

    curve = artifacts.reward_curve
    window = min(10, len(curve))
    ma = np.convolve(curve, np.ones(window) / window, mode="valid")
    print(f"train-laa: best episode {artifacts.best_episode} "
          f"reward {artifacts.best_reward:.3f}; moving average "
          f"{ma[0]:.3f} -> {ma[-1]:.3f}")
    if args.assert_improving and ma[-1] < ma[0]:
        print("train-laa: reward trend is not improving", file=sys.stderr)
        return EXIT_PREDICATE_FALSE
    return EXIT_OK


# ---------------------------------------------------------------------------
# falsify


def cmd_falsify(args):
    grid, load_s = _load_grid(args.config)
    laa = load_schedule_file(args.laa)
    config = FalsifyConfig() if args.falsify_config is None else read_json_file(
        args.falsify_config, lambda doc: config_object(FalsifyConfig, doc, "$"))
    out_dir = _ensure_out(args.out)
    manifest = _Manifest(out_dir, args, load_s)
    manifest.stage_seed("falsify", 3)

    outcome = synthesize_and_validate(grid, laa, RngStream(args.seed, 3), config)
    result = outcome.result
    manifest.data["counts"] = {"evaluations": result.evaluations,
                               "simulations": result.simulations,
                               "scores": result.scores, "rounds": result.rounds}
    manifest.data["wall_s"].update(outcome.wall_s)

    report_path = manifest.add(os.path.join(out_dir, "falsify_report.txt"))
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(f"success: {result.success}\n")
        fh.write(f"best rho: {result.best_rho!r}\n")
        fh.write(f"evaluations: {result.evaluations}\n")
        if outcome.validation is not None:
            v = outcome.validation
            fh.write(f"k_prime: {v.k_prime}\nfirst_detection: {v.first_detection}\n")
            fh.write(f"noise success fraction: {outcome.noise_success_fraction}\n")
        fh.write("restarts (index, evaluations, best rho):\n")
        for h in result.history:
            tag = "zero-screen" if h.restart < 0 else f"restart {h.restart}"
            fh.write(f"  {tag}: evals={h.evaluations} rho={h.best_rho!r} "
                     f"success={h.success}\n")

    if outcome.attack is None:
        manifest.write()
        print(f"falsify: no counter-example within budget "
              f"(best rho {result.best_rho:.6g}); report at {report_path}")
        return EXIT_NO_COUNTEREXAMPLE

    provenance = {
        "seed": args.seed, "stream_id": 3, "budget": config.budget,
        "restarts": config.restarts, "rho": result.best_rho,
        "evaluations": result.evaluations,
        "noise_success_fraction": outcome.noise_success_fraction,
        "control_points": config.control_points,
        # the one attack goal: unsafe before the first alarm
        "signal_basis": config.signal_basis, "stealth_mode": "until_unsafe",
    }
    save_attack(manifest.add(os.path.join(out_dir, "attack.json")),
                outcome.attack, *config.range, provenance)
    manifest.write()
    v = outcome.validation
    print(f"falsify: success rho={result.best_rho:.6g} k_prime={v.k_prime} "
          f"first_detection={v.first_detection} evals={result.evaluations}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args):
    grid = load_grid_config_file(args.config)
    attack = load_attack_file(args.attack)
    horizon = args.horizon if args.horizon else attack.d
    # A noise-free run's records are the first records of any longer run,
    # and an alarm by step d fixes both reports, so the horizon past the
    # attack's own steps is simulated only when they raise no alarm.
    trace = simulate(grid, attack, horizon=min(horizon, attack.d), noise=False)
    if horizon > attack.d and detect(trace, grid.thresholds) is None:
        trace = simulate(grid, attack, horizon=horizon, noise=False)
    reports = {
        basis: dataclasses.asdict(check_success(trace, grid.envelope, grid.thresholds, basis))
        for basis in SIGNAL_BASES
    }
    payload = {"reports": reports, "basis": args.signal_basis,
               "horizon": horizon}
    print(json.dumps(payload, indent=1, sort_keys=True))
    ok = reports[args.signal_basis]["success"]
    return EXIT_OK if ok else EXIT_PREDICATE_FALSE


# ---------------------------------------------------------------------------
# compare


def _mode_attack(mode, attack, b_nom):
    d = attack.d
    if mode == "combined":
        return attack
    if mode == "laa-only":
        zero_fd = FalseDataSchedule(values=np.zeros_like(attack.false_data.values),
                                    mask=attack.false_data.mask)
        return AttackVector(breakers=attack.breakers, false_data=zero_fd)
    if mode == "fdia-only":
        nominal = BreakerSchedule(signals=np.tile(b_nom, (d, 1)))
        return AttackVector(breakers=nominal, false_data=attack.false_data)
    raise ValueError(mode)


def cmd_compare(args):
    modes = [name for name, on in (("laa-only", args.laa_only),
                                   ("fdia-only", args.fdia_only),
                                   ("combined", args.combined)) if on]
    if not modes:
        raise ConfigError("--laa-only/--fdia-only/--combined",
                          "select at least one mode")
    grid, load_s = _load_grid(args.config)
    attack = load_attack_file(args.attack)
    out_dir = _ensure_out(args.out)
    manifest = _Manifest(out_dir, args, load_s)

    mode_attacks = [_mode_attack(mode, attack, grid.load_map.b_nom)
                    for mode in modes]
    with manifest.timed("simulate"):
        traces = dict(zip(modes, simulate_many(grid, mode_attacks, horizon=args.horizon)))
    summary = {}
    for mode, trace in traces.items():
        rep = check_success(trace, grid.envelope, grid.thresholds,
                            args.signal_basis)
        f = trace.frequency(args.signal_basis)
        in_band_end = bool(np.all((f[:, -1] >= grid.envelope.f_lo)
                                  & (f[:, -1] <= grid.envelope.f_hi)))
        ever_unsafe = bool(np.any((f < grid.envelope.f_lo) | (f > grid.envelope.f_hi)))
        summary[mode] = dict(dataclasses.asdict(rep), in_band_at_end=in_band_end,
                             ever_unsafe=ever_unsafe)

    # plot the generator with the largest excursion under the most attacked mode
    ref_mode = modes[-1]
    ref_f = traces[ref_mode].frequency(args.signal_basis)
    gen = int(np.argmax(np.max(np.abs(ref_f - NOMINAL_HZ), axis=1)))

    fplot = LinePlot(f"Frequency under attack (gen {gen + 1})", "time [s]", "f [Hz]")
    fplot.set_band(grid.envelope.f_lo, grid.envelope.f_hi)
    rplot = LinePlot(f"Residue under attack (gen {gen + 1})", "time [s]", "||r||_inf")
    rplot.add_hline(grid.thresholds[gen], "Th")
    for mode in modes:
        tr = traces[mode]
        t = np.arange(tr.n_steps) * tr.ts
        fplot.add_series(mode, t, tr.frequency(args.signal_basis)[gen])
        rplot.add_series(mode, t, tr.r_inf[gen])
    with manifest.timed("svg"):
        fplot.save(manifest.add(os.path.join(out_dir, "compare_frequency.svg")))
        rplot.save(manifest.add(os.path.join(out_dir, "compare_residue.svg")))
    write_json(manifest.add(os.path.join(out_dir, "compare_report.json")),
               {"modes": summary, "plotted_generator": gen,
                "signal_basis": args.signal_basis, "horizon": args.horizon})
    manifest.write()
    for mode in modes:
        s = summary[mode]
        print(f"compare[{mode}]: success={s['success']} k_prime={s['k_prime']} "
              f"first_detection={s['first_detection']} "
              f"in_band_at_end={s['in_band_at_end']}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gridstorm",
        description="AGC grid attack-synthesis workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default):
        p.add_argument("--config", required=True, help="grid config JSON")
        if out_default is not None:
            p.add_argument("--seed", type=int, default=0, help="master seed")
            p.add_argument("--out", default=out_default, help="output directory")

    p = sub.add_parser("simulate", help="run the closed loop and export trace/plots")
    common(p, "out/simulate")
    p.add_argument("--attack", help="attack vector JSON")
    p.add_argument("--horizon", type=int, default=800)
    p.add_argument("--signal-basis", choices=SIGNAL_BASES, default="measured")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-laa", help="train the breaker-schedule agent")
    common(p, "out/train")
    p.add_argument("--train-config", required=True, help="training config JSON")
    p.add_argument("--assert-improving", action="store_true",
                   help="exit nonzero unless the reward trend improves")
    p.set_defaults(func=cmd_train_laa)

    p = sub.add_parser("falsify", help="synthesize false data for a breaker schedule")
    common(p, "out/falsify")
    p.add_argument("--laa", required=True, help="breaker schedule JSON")
    p.add_argument("--falsify-config", help="falsification config JSON")
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("validate", help="re-simulate an attack vector and report")
    common(p, None)
    p.add_argument("--attack", required=True, help="attack vector JSON")
    p.add_argument("--horizon", type=int, default=0,
                   help="simulation horizon (default: attack length)")
    p.add_argument("--signal-basis", choices=SIGNAL_BASES, default="measured")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare", help="overlay attack modes on one grid")
    common(p, "out/compare")
    p.add_argument("--attack", required=True, help="attack vector JSON")
    p.add_argument("--laa-only", action="store_true")
    p.add_argument("--fdia-only", action="store_true")
    p.add_argument("--combined", action="store_true")
    p.add_argument("--horizon", type=int, default=800)
    p.add_argument("--signal-basis", choices=SIGNAL_BASES, default="measured")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.command_line = ["gridstorm", *argv]
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"gridstorm: config error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"gridstorm: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValidationMismatch, TrainingDiverged) as exc:
        print(f"gridstorm: internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"gridstorm: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
