"""The example scripts run end to end and write the files they document."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from dynsfm.derivatives import differentiate_tracks, savgol_filter

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"


def run_script(name, out, cwd):
    """Run one script in a fresh interpreter; returns its stdout lines."""
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), str(out)],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_reference_experiment_writes_artifacts(tmp_path):
    out = tmp_path / "results"
    lines = run_script("run_reference_experiment.py", out, tmp_path)
    for tag in ("noiseless", "reference_noise"):
        # the config, dataset, reconstruction and report, plus the plot CSVs
        assert sorted(p.name for p in (out / tag).iterdir()) == [
            "config.json", "dataset.json", "reconstruction.json",
            "report.json", "structure.csv", "trajectory.csv"]
        assert f"{tag}:" in lines
    assert lines[-1] == f"artifacts written under {out}/"


def test_noise_sweep_writes_aggregate(tmp_path):
    out = tmp_path / "sweep"
    lines = run_script("noise_sweep.py", out, tmp_path)
    assert sorted(p.name for p in out.iterdir()) == [
        "aggregate.csv", "config.json", "sweep.json"]
    rows = (out / "aggregate.csv").read_text().splitlines()
    assert rows[0].startswith("seed,noise_scale,status,")
    assert len(rows) == 21 and all(",ok," in row for row in rows[1:])
    assert lines[0] == "runs: 20"
    assert lines[-1] == f"aggregate table: {out / 'aggregate.csv'}"


def test_readme_library_example_runs(capsys):
    # the python block under "## Library example" runs as written, and its
    # numeric flows are add_noise's default: quadratic 5-tap fits
    section = README.read_text().split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    report, meas = namespace["report"], namespace["dataset"].measurements
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1 and printed[0].startswith(f"{report.trans_rmse} ")
    assert math.isfinite(report.trans_rmse)
    filters = (savgol_filter(2, 5, 1), savgol_filter(2, 5, 2))
    flows, dflows = differentiate_tracks(meas.tracks, meas.t_s, *filters)
    assert np.array_equal(meas.flows, flows)
    assert np.array_equal(meas.double_flows, dflows)
