"""Smoke test of the benchmark: every workload, its checks and the traced
run at a tiny size, plus the refusal to run without the sources."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# At smoke size the Monte-Carlo closures average 10 short runs, too few for
# their 10% tolerance; every other check must pass or be a known defect.
SMOKE_STATISTICAL = {"mc-closure", "stationarity"}


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _smoke(workload, trace, capsys):
    result = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--smoke"])
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    labels = {line.split("[", 1)[1].split(",", 1)[0]
              for line in lines if line.startswith("failure [")}
    return result, labels


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_smoke(workload, capsys):
    import workloads

    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, labels = _smoke(workload, trace, capsys)
        assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared(kind)
        unexpected = labels - set(workloads.KNOWN_DEFECTS)
        if workload == "langevin":
            unexpected -= SMOKE_STATISTICAL
        else:
            assert result["correct"]
        assert not unexpected


def test_host_clock_normalises_segments(monkeypatch):
    import hostclock

    monkeypatch.setattr(hostclock, "probe_s", lambda: 2.0 * hostclock.REFERENCE_S)
    clock = hostclock.HostClock()
    clock.start()
    time.sleep(0.01)
    assert clock.lap() == 0.5
    assert len(clock.probes) == 2
    assert clock.measured_s >= 0.01
    assert clock.normalised_s == pytest.approx(0.5 * clock.measured_s)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "freqdomain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
