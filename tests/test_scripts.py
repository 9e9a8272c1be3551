"""The example scripts run end to end and write the files they document."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
