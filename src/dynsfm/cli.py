"""Command-line harness: simulate, solve, eval, sweep, pipeline.

Exit codes: 0 success, 2 configuration, 3 I/O, 4 solver, 5 evaluation.
"""

import argparse
import functools
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import jsonio, so3
from .baseline import DeadReckonState, dead_reckon_positions
from .config import (NOISE_SEED_OFFSET, _integer, _number, _object,
                     config_from_dict, config_to_dict, options_from_dict,
                     reference_config)
from .derivatives import savgol_filter
from .errors import ConfigError, DynSfmError
from .evaluate import evaluate
from .simulate import simulate_dataset
from .solver import SolverOptions, reconstruct

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4
EXIT_EVAL = 5


class _CliFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _load(path, what, parse, code=EXIT_IO):
    """parse(the JSON object in the file at path).

    An unreadable file exits EXIT_IO. A file that is not JSON (or nested or
    sized past what the reader can hold), and a document that parse
    rejects with TypeError or a DynSfmError (every parser names a document
    that is not a JSON object), exit with code: EXIT_CONFIG for the
    documents that configure a run, EXIT_IO for data files.
    """
    try:
        return parse(jsonio.read_json(path))
    except OSError as err:
        raise _CliFailure(EXIT_IO, f"cannot read {what}: {err}")
    except (ValueError, TypeError, DynSfmError) as err:
        # ValueError covers invalid JSON
        raise _CliFailure(code, f"bad {what}: {err}")
    except (RecursionError, MemoryError) as err:
        raise _CliFailure(code, f"bad {what}: {type(err).__name__}: {err}")


def _load_config(path, seed_override=None):
    cfg = _load(path, "config", config_from_dict, EXIT_CONFIG)
    if seed_override is not None:
        cfg.seed = seed_override
        try:
            cfg.validate()
        except ConfigError as err:
            raise _CliFailure(EXIT_CONFIG, f"bad --seed: {err}")
    return cfg


def _simulate(cfg):
    filters = (tuple(savgol_filter(*cfg.flow_filter, d) for d in (1, 2))
               if cfg.flow_mode == "numeric" else None)
    return simulate_dataset(
        duration=cfg.duration, t_s=cfg.t_s, n_points=cfg.points,
        extent=cfg.extent, amp_trans=cfg.amp_trans, amp_rot=cfg.amp_rot,
        seed=cfg.seed, noise=cfg.noise, flow_mode=cfg.flow_mode,
        flow_filters=filters)


def _write(path, obj):
    path = Path(path)
    _write_outputs(path.parent, {path.name: obj}, {})


def _write_outputs(out, docs, tables):
    """Write JSON documents and CSV (header, rows) tables, keyed by file
    name, into the directory out. An OSError exits EXIT_IO naming the
    file it could not write (the first one when out cannot be made)."""
    out = Path(out)
    path = out.joinpath(*[*docs, *tables][:1])
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, doc in docs.items():
            path = out / name
            jsonio.write_json(path, doc)
        for name, (header, rows) in tables.items():
            path = out / name
            jsonio.write_csv(path, header, rows)
    except OSError as err:
        raise _CliFailure(EXIT_IO, f"cannot write {path}: {err}")


def _eval_outputs(recon, dataset):
    """Error report plus the plot-ready trajectory/structure tables; the
    measurements the dead reckoning reads are validated first, and a
    non-finite report value or table exits EXIT_EVAL naming it."""
    traj, scene = dataset.trajectory, dataset.scene
    try:
        dataset.measurements.validate()
        report = evaluate(recon, traj, scene, dataset.gravity)
    except DynSfmError as err:
        raise _CliFailure(EXIT_EVAL, f"evaluation failed: {err}")
    align = report.alignment
    gt_log = so3.rotation_vector(traj.rotations)
    est_log = so3.rotation_vector(align.rotation @ recon.rotations)
    meas = dataset.measurements
    init = DeadReckonState(traj.rotations[0].copy(), traj.T[0].copy(),
                           traj.dT[0].copy())
    imu_T = dead_reckon_positions(meas.gyro, meas.accel, dataset.gravity,
                                  init, dataset.t_s)
    F = traj.n_frames
    window = max(1, F // 4)
    dr_err = imu_T[F - window:] - traj.T[F - window:]
    dr_rmse = float(np.sqrt((dr_err ** 2).sum(axis=1).mean()))
    est_T = align.apply(recon.positions)
    table = np.hstack([gt_log, est_log, traj.T, est_T, imu_T])
    rows = [[f, f * dataset.t_s, *r] for f, r in enumerate(table.tolist())]
    traj_header = ["frame", "t",
                   "gt_logR_x", "gt_logR_y", "gt_logR_z",
                   "est_logR_x", "est_logR_y", "est_logR_z",
                   "gt_T_x", "gt_T_y", "gt_T_z",
                   "est_T_x", "est_T_y", "est_T_z",
                   "imu_T_x", "imu_T_y", "imu_T_z"]
    struct_table = np.hstack([scene.points, align.apply(recon.structure)])
    struct_header = ["point", "gt_x", "gt_y", "gt_z", "est_x", "est_y", "est_z"]
    struct_rows = [[p, *r] for p, r in enumerate(struct_table.tolist())]
    report_dict = jsonio.report_to_dict(
        report, extra={"dead_reckoning_terminal_rmse": dr_rmse})
    for name, value in [*report_dict.items(), ("trajectory table", table),
                        ("structure table", struct_table)]:
        if not np.isfinite(value).all():
            raise _CliFailure(EXIT_EVAL,
                              f"evaluation failed: non-finite {name}")
    return report_dict, (traj_header, rows), (struct_header, struct_rows)


def cmd_simulate(args):
    cfg = _load_config(args.config, args.seed)
    dataset = _simulate(cfg)
    _write(args.out, jsonio.dataset_to_dict(dataset))
    if not args.quiet:
        traj = dataset.trajectory
        print(f"frames={traj.n_frames} points={dataset.scene.n_points} "
              f"peak_speed={traj.peak_speed:.3f} m/s "
              f"peak_rotation={np.degrees(traj.peak_rotation):.1f} deg")
    return 0


def _load_dataset(path):
    return _load(path, "dataset file", jsonio.dataset_from_dict)


def _solve(dataset, options):
    try:
        return reconstruct(dataset.measurements, options)
    except DynSfmError as err:
        raise _CliFailure(EXIT_SOLVER, f"solver failed: {err}")


def cmd_solve(args):
    dataset = _load_dataset(args.dataset)
    options = SolverOptions()
    if args.options:
        options = _load(args.options, "solver options", options_from_dict,
                        EXIT_CONFIG)
    recon = _solve(dataset, options)
    _write(args.out, jsonio.reconstruction_to_dict(recon))
    if not args.quiet:
        r = recon.residuals
        print(f"sigma_ratio={r['sigma_ratio']:.3e} "
              f"rotation_lsq={r['rotation_lsq']:.3e} "
              f"translation_lsq={r['translation_lsq']:.3e}")
    return 0


def cmd_eval(args):
    dataset = _load_dataset(args.dataset)
    recon = _load(args.recon, "reconstruction file",
                  jsonio.reconstruction_from_dict)
    report, traj_csv, struct_csv = _eval_outputs(recon, dataset)
    _write_outputs(args.out, {"report.json": report},
                   {"trajectory.csv": traj_csv, "structure.csv": struct_csv})
    if not args.quiet:
        print(f"trans_rmse={report['trans_rmse']:.4e} "
              f"struct_rmse={report['struct_rmse']:.4e} "
              f"rot_err_mean={report['rot_err_mean']:.4e} "
              f"dr_terminal_rmse={report['dead_reckoning_terminal_rmse']:.4e}")
    return 0


def cmd_pipeline(args):
    cfg = _load_config(args.config, args.seed)
    dataset = _simulate(cfg)
    recon = _solve(dataset, cfg.solver)
    report, traj_csv, struct_csv = _eval_outputs(recon, dataset)
    docs = {"dataset.json": jsonio.dataset_to_dict(dataset),
            "reconstruction.json": jsonio.reconstruction_to_dict(recon),
            "report.json": report}
    _write_outputs(args.out, docs,
                   {"trajectory.csv": traj_csv, "structure.csv": struct_csv})
    if not args.quiet:
        print(f"trans_rmse={report['trans_rmse']:.4e} "
              f"gravity_angle_err={report['gravity_angle_err']:.4e} "
              f"dr_terminal_rmse={report['dead_reckoning_terminal_rmse']:.4e}")
    return 0


SWEEP_HEADER = ["seed", "noise_scale", "status", "trans_rmse",
                "dr_terminal_rmse", "rot_err_mean", "axis_err_x",
                "axis_err_y", "axis_err_z", "gravity_angle_err",
                "struct_rmse", "sigma_ratio"]


def _sweep_spec(doc, default_seed):
    """(seeds, noise scales) of a sweep document."""
    _object(doc, {"seeds", "noise_scales"}, "sweep")
    for name in ("seeds", "noise_scales"):
        if not isinstance(doc.get(name, []), list):
            raise ConfigError(f"{name}: must be a list, got {doc[name]!r}")
    seeds = [_integer(s, "seeds") for s in doc.get("seeds", [default_seed])]
    scales = [_number(s, "noise_scales")
              for s in doc.get("noise_scales", [1.0])]
    if not seeds or min(seeds) < 0:
        raise ConfigError("seeds: need a nonempty list of nonnegative integers")
    if not scales or not all(math.isfinite(s) and s >= 0 for s in scales):
        raise ConfigError("noise_scales: need a nonempty list of finite, "
                          "nonnegative numbers")
    return seeds, scales


def cmd_sweep(args):
    cfg = _load_config(args.config)
    seeds, scales = _load(args.sweep, "sweep spec",
                          lambda doc: _sweep_spec(doc, cfg.seed), EXIT_CONFIG)
    rows = []
    failures = 0
    for scale in scales:
        for seed in seeds:
            noise = replace(cfg.noise.scaled(scale),
                            seed=seed + NOISE_SEED_OFFSET)
            run_cfg = replace(cfg, seed=seed, noise=noise)
            try:
                dataset = _simulate(run_cfg)
                recon = _solve(dataset, run_cfg.solver)
                report, _, _ = _eval_outputs(recon, dataset)
                rows.append([seed, scale, "ok", report["trans_rmse"],
                             report["dead_reckoning_terminal_rmse"],
                             report["rot_err_mean"], *report["per_axis_err"],
                             report["gravity_angle_err"],
                             report["struct_rmse"],
                             recon.residuals["sigma_ratio"]])
            except _CliFailure as err:
                failures += 1
                rows.append([seed, scale, "failed"]
                            + [""] * (len(SWEEP_HEADER) - 3))
                if not args.quiet:
                    print(f"run seed={seed} scale={scale} failed: {err}",
                          file=sys.stderr)
    _write_outputs(args.out, {}, {"aggregate.csv": (SWEEP_HEADER, rows)})
    if not args.quiet:
        print(f"{len(rows) - failures}/{len(rows)} runs succeeded")
    if failures == len(rows):
        raise _CliFailure(EXIT_SOLVER, "all sweep runs failed")
    return 0


def cmd_print_config(args):
    _write(args.out, config_to_dict(reference_config()))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="dynsfm",
        description="Affine structure-from-motion with inertial "
                    "measurements: simulation, closed-form solver, "
                    "dead-reckoning baseline and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--quiet", action="store_true",
                       help="suppress the summary line")

    p = sub.add_parser("simulate", help="generate a dataset file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    common(p)

    p = sub.add_parser("solve", help="reconstruct motion and structure")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--options", default=None,
                   help="JSON file with solver options")
    common(p)

    p = sub.add_parser("eval", help="compare a reconstruction to ground truth")
    p.add_argument("--recon", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    common(p)

    p = sub.add_parser("sweep", help="run a seed/noise sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--sweep", required=True, help="sweep spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    common(p)

    p = sub.add_parser("pipeline", help="simulate, solve and eval in one go")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    common(p)

    p = sub.add_parser("example-config", help="write the default config")
    p.add_argument("--out", required=True)
    p.set_defaults(quiet=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up on each call, so a rebound cmd_* attribute takes effect
    commands = {"simulate": cmd_simulate, "solve": cmd_solve,
                "eval": cmd_eval, "sweep": cmd_sweep,
                "pipeline": cmd_pipeline, "example-config": cmd_print_config}
    # a warning is one "warning: <message>" line, without the source line
    # Python prints; the library's and the caller's filters stay as they are
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            return commands[args.command](args)
        except _CliFailure as err:
            print(f"error: {err}", file=sys.stderr)
            return err.code


if __name__ == "__main__":
    sys.exit(main())
