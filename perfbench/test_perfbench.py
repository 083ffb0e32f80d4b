"""Tiny-size runs of every workload, checked against ``BENCHMARK.json``.

Each workload is run at ``--size tiny`` untraced and traced: the result
line must carry every end-to-end (resp. per-layer) metric named in
``BENCHMARK.json`` with its unit, and the traced run must write its
Chrome trace and self-time table.  Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "1",
            "--seconds", "2",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == {metric["name"]: metric["unit"] for metric in expected}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if trace:
        stem = ROOT / ".perfbench" / f"{workload}-seed1"
        events = json.loads(Path(f"{stem}.trace.json").read_text(encoding="utf-8"))["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
        assert "phase" in Path(f"{stem}.layers.txt").read_text(encoding="utf-8")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
