"""Self-test of the benchmark on a shortened run (about two minutes).

    python3 -m pytest -q perfbench

Checks that every metric of BENCHMARK.json is printed, with its unit, for
every workload; that no op fails at this commit; and that a corrupted op
is counted as failed instead of raised.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def sections(lines):
    """Summary lines of each workload: {workload: [[name, value, unit]]}."""
    out, current = {}, None
    for line in lines[:-1]:
        head = line.split(":")[0]
        if head in WORKLOADS:
            current = out.setdefault(head, [])
        elif current is not None and line.startswith("  "):
            current.append(line.split())
    return out


@pytest.fixture(scope="module")
def end_to_end():
    return bench(0)


@pytest.fixture(scope="module")
def traced():
    return bench(1)


@pytest.mark.parametrize("trace_key", ["end_to_end", "per_layer"])
def test_every_metric_printed_with_unit(trace_key, end_to_end, traced):
    lines = end_to_end if trace_key == "end_to_end" else traced
    result = json.loads(lines[-1])
    printed = sections(lines)
    for workload in WORKLOADS:
        rows = {row[0]: row for row in printed[workload]}
        for metric in SPEC[trace_key]:
            name, unit = metric["name"], metric["unit"]
            entry = result["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], (int, float))
            assert rows[name][-1] == unit
            if trace_key == "end_to_end":
                assert entry["value"] > 0, (workload, name)


def test_pipeline_only_times_printed(traced):
    rows = {row[0]: row for row in sections(traced)["reference_pipeline"]}
    for name in run.PRINTED_ONLY:
        assert float(rows[name][1]) > 0 and rows[name][-1] == "s"


def test_no_op_fails(end_to_end, traced):
    for lines in (end_to_end, traced):
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= len(WORKLOADS) * run.MIN_OPS
    printed = sections(end_to_end)
    for workload in WORKLOADS:
        rates = [row for row in printed[workload] if row[0] == "error_rate"]
        assert rates == [["error_rate", "0", "1"]]


@pytest.fixture(scope="module")
def workloads():
    run.load_program()
    return run.make_workloads()


def test_nan_track_op_counted_as_failed(workloads):
    wl = dataclasses.replace(workloads["long_horizon"], duration=1.0)
    dataset = wl.make_input(5)
    tracks = dataset.measurements.tracks.copy()
    tracks[3, 2, 0] = np.nan
    bad = dataclasses.replace(
        dataset, measurements=dataclasses.replace(dataset.measurements,
                                                  tracks=tracks))
    rec = run.attempt(wl, None, bad)
    assert not rec["ok"] and rec["error"]
    assert run.attempt(wl, None, dataset)["ok"]


def test_failing_cli_op_counted_as_failed(workloads):
    wl = workloads["reference_pipeline"]
    state = wl.setup(5)
    try:
        state.config["points"] = 2      # rejected by the config check
        rec = run.attempt(wl, state, wl.prepare(state, 1))
    finally:
        wl.close(state)
    assert not rec["ok"] and "exit code 2" in rec["error"]
