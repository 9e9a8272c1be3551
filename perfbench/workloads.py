"""The benchmark's workloads: how each builds its inputs from a seed, runs
one op and checks that op's outputs.

Every dynsfm module is fetched through ``sys.modules`` (see tracer.dyn),
after run.py has put the checkout's ``src`` on the import path.
"""

import functools
import json
import math
import shutil
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import dyn, rebound

NOISE_SEED_OFFSET = 10_000_019   # the CLI's convention for noise seeds
EXTENT, AMP_TRANS, AMP_ROT_DEG = 2.0, 0.35, 30.0   # default scene and trajectory
POOL_SIZE = 3                    # datasets a library workload cycles through
# accuracy metric -> ErrorReport attribute, which is also its report.json key
ACCURACY = {"trans_rmse_m": "trans_rmse", "struct_rmse_m": "struct_rmse",
            "rot_err_rad": "rot_err_mean", "gravity_err_rad": "gravity_angle_err"}


class OutputCheckFailed(Exception):
    """An op returned, but its outputs are wrong."""


def op_seed(seed, i):
    """Seed of op i of a run with benchmark seed `seed`."""
    return int(np.random.default_rng([seed, i]).integers(2 ** 31))


def accuracy_of(report):
    return {key: float(getattr(report, attr)) for key, attr in ACCURACY.items()}


def check_reconstruction(recon, n_frames, n_points):
    """Shapes, finiteness and proper rotations of a Reconstruction."""
    shapes = {"rotations": (n_frames, 3, 3), "tau": (n_frames, 3),
              "nu": (n_frames, 3), "gravity": (3,),
              "structure": (n_points, 3)}
    for name, shape in shapes.items():
        value = getattr(recon, name)
        if value.shape != shape:
            raise OutputCheckFailed(f"{name} has shape {value.shape}, "
                                    f"expected {shape}")
        if not np.all(np.isfinite(value)):
            raise OutputCheckFailed(f"{name} is not finite")
    for key, value in recon.residuals.items():
        if not math.isfinite(value):
            raise OutputCheckFailed(f"residual {key} = {value}")
    R = recon.rotations
    gram = np.einsum("fji,fjk->fik", R, R) - np.eye(3)
    if np.abs(gram).max() > 1e-9 or np.linalg.det(R).min() <= 0:
        raise OutputCheckFailed("rotations are not proper orthonormal")


def check_accuracy(acc, limits):
    for key, value in acc.items():
        if not math.isfinite(value):
            raise OutputCheckFailed(f"{key} = {value}")
        if limits and value > limits[key]:
            raise OutputCheckFailed(f"{key} = {value:.3e} above the "
                                    f"documented regime ({limits[key]:.0e})")


@dataclass(frozen=True)
class LibraryWorkload:
    """One op is `reconstruct` with default SolverOptions plus `evaluate`,
    on a dataset from a pool the set-up builds."""
    name: str
    duration: float
    t_s: float
    points: int
    noisy: bool
    flow_window: int = 0        # 0: analytic flows; else numeric quadratic
    limits: dict = None         # accuracy ceilings checked on every op

    def make_input(self, seed):
        simulate, derivatives = dyn("simulate"), dyn("derivatives")
        noise, flow_mode, filters = None, "analytic", None
        if self.noisy:
            noise = simulate.NoiseSpec(seed=seed + NOISE_SEED_OFFSET,
                                       **dyn("config").REFERENCE_NOISE)
        if self.flow_window:
            flow_mode = "numeric"
            filters = (derivatives.savgol_filter(2, self.flow_window, 1),
                       derivatives.savgol_filter(2, self.flow_window, 2))
        return simulate.simulate_dataset(
            duration=self.duration, t_s=self.t_s, n_points=self.points,
            extent=EXTENT, amp_trans=AMP_TRANS,
            amp_rot=math.radians(AMP_ROT_DEG), seed=seed, noise=noise,
            flow_mode=flow_mode, flow_filters=filters)

    def setup(self, seed, tracer=None):
        pool = []
        for i in range(POOL_SIZE):
            with tracer.unit("build") if tracer else nullcontext():
                pool.append(self.make_input(op_seed(seed, i)))
        return pool

    def prepare(self, state, i):
        return state[i % len(state)]

    def prepare_reference(self, state, seed):
        return self.make_input(seed)

    def run(self, state, dataset):
        """The timed op. Returns (outputs, reconstruct seconds)."""
        solver = dyn("solver")
        t0 = time.perf_counter()
        recon = solver.reconstruct(dataset.measurements, solver.SolverOptions())
        solve_s = time.perf_counter() - t0
        report = dyn("evaluate").evaluate(recon, dataset.trajectory,
                                          dataset.scene, dataset.gravity)
        return (recon, report), solve_s

    def check(self, state, dataset, outputs):
        recon, report = outputs
        check_reconstruction(recon, dataset.trajectory.n_frames,
                             dataset.scene.n_points)
        acc = accuracy_of(report)
        check_accuracy(acc, self.limits)
        return acc

    def cleanup(self, state, inp):
        pass

    def close(self, state):
        pass


@dataclass
class _PipelineState:
    seed: int
    config: dict
    solve_s: list = field(default_factory=list)
    recons: list = field(default_factory=list)
    patches: ExitStack = field(default_factory=ExitStack)


@dataclass(frozen=True)
class _PipelineOp:
    config_path: Path
    out_dir: Path


@dataclass(frozen=True)
class PipelineWorkload:
    """One op is the CLI `pipeline` subcommand, called in-process through
    dynsfm.cli.main, writing into a fresh directory."""
    name: str
    config: str           # repository-relative path of the base config
    root: Path            # checkout root
    work: Path            # scratch directory inside the checkout

    def setup(self, seed, tracer=None):
        solver = dyn("solver")
        state = _PipelineState(
            seed=seed, config=dyn("jsonio").read_json(self.root / self.config))
        self.work.mkdir(parents=True, exist_ok=True)
        reconstruct = solver.reconstruct

        # Times the reconstruct call inside the pipeline and keeps its
        # result for the output check: one clock pair per op.
        @functools.wraps(reconstruct)
        def timed_reconstruct(*args, **kwargs):
            t0 = time.perf_counter()
            recon = reconstruct(*args, **kwargs)
            state.solve_s.append(time.perf_counter() - t0)
            state.recons.append(recon)
            return recon
        state.patches.enter_context(
            rebound({id(reconstruct): (reconstruct, timed_reconstruct)}))
        return state

    def close(self, state):
        state.patches.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def _op(self, state, seed, tag):
        cfg = dict(state.config, seed=seed)
        cfg["noise"] = dict(cfg["noise"], seed=seed + NOISE_SEED_OFFSET)
        out_dir = self.work / tag
        out_dir.mkdir(parents=True)
        config_path = out_dir / "config.json"
        config_path.write_text(json.dumps(cfg))
        return _PipelineOp(config_path=config_path, out_dir=out_dir / "out")

    def prepare(self, state, i):
        return self._op(state, op_seed(state.seed, i), f"op{i}")

    def prepare_reference(self, state, seed):
        return self._op(state, seed, f"ref{seed}")

    def run(self, state, op):
        state.solve_s.clear()
        state.recons.clear()
        code = dyn("cli").main(["pipeline", "--config", str(op.config_path),
                                "--out", str(op.out_dir), "--quiet"])
        solve_s = state.solve_s[0] if state.solve_s else float("nan")
        recon = state.recons[0] if state.recons else None
        return (code, recon), solve_s

    def check(self, state, op, outputs):
        code, recon = outputs
        if code != 0:
            raise OutputCheckFailed(f"cli exit code {code}")
        jsonio = dyn("jsonio")
        d = op.out_dir
        report = jsonio.read_json(d / "report.json")
        dataset = jsonio.dataset_from_dict(jsonio.read_json(d / "dataset.json"))
        written = jsonio.reconstruction_from_dict(
            jsonio.read_json(d / "reconstruction.json"))
        F, P = dataset.trajectory.n_frames, dataset.scene.n_points
        check_reconstruction(written, F, P)
        for name in ("rotations", "tau", "nu", "gravity", "structure"):
            if not np.array_equal(getattr(written, name), getattr(recon, name)):
                raise OutputCheckFailed(f"reconstruction.json {name} differs "
                                        "from the solver's result")
        acc = accuracy_of(dyn("evaluate").evaluate(
            written, dataset.trajectory, dataset.scene, dataset.gravity))
        written_acc = {key: report[attr] for key, attr in ACCURACY.items()}
        check_accuracy(written_acc, None)
        # The written arrays equal the solver's bit for bit, but their
        # memory layout differs, so BLAS may round differently; arccos near
        # 1 then resolves an angle only to ~sqrt(2 eps) = 2e-8 rad.
        for key, value in acc.items():
            if not math.isclose(written_acc[key], value, rel_tol=1e-9,
                                abs_tol=2e-8):
                raise OutputCheckFailed(f"report.json {key} = "
                                        f"{written_acc[key]!r}, in-process "
                                        f"evaluate gives {value!r}")
        for table, rows in (("trajectory.csv", F), ("structure.csv", P)):
            lines = (d / table).read_text().splitlines()
            cells = np.array([line.split(",") for line in lines[1:]], float)
            if len(lines) - 1 != rows or not np.all(np.isfinite(cells)):
                raise OutputCheckFailed(f"{table}: bad rows")
        return written_acc

    def cleanup(self, state, op):
        shutil.rmtree(op.config_path.parent, ignore_errors=True)
