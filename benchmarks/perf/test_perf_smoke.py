"""Smoke test of the performance benchmark (outside ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py -q

Runs ``run.py --quick`` — 3 slices, tiny inputs, no bounds — end to end
and traced, and asserts that every metric ``BENCHMARK.json`` declares is
printed exactly once per workload with a finite value, and that nothing
failed.  Tier-1 does not collect this file, so its time is unchanged.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(*flags: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *flags],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def _printed(output: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> every value printed for it."""
    printed: dict[tuple[str, str], list[float]] = {}
    for line in output.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] in WORKLOADS:
            try:
                value = float(parts[2])
            except ValueError:
                continue
            printed.setdefault((parts[0], parts[1]), []).append(value)
    return printed


@pytest.mark.parametrize(
    "flags, section", [((), "end_to_end"), (("--trace",), "per_layer")]
)
def test_every_declared_metric_is_printed_once_and_finite(flags, section):
    output = _run(*flags)
    printed = _printed(output)
    for workload in WORKLOADS:
        for metric in CONTRACT[section]:
            values = printed.get((workload, metric["name"]), [])
            assert len(values) == 1, (workload, metric["name"], values)
            assert math.isfinite(values[0]), (workload, metric["name"])
    assert "FAILED" not in output


def test_single_workload_ends_with_the_result_object():
    output = _run("--workload", "wc_inline")
    result = json.loads(output.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for metric in CONTRACT["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def _process_ids() -> set[int]:
    return {int(p.name) for p in Path("/proc").iterdir() if p.name.isdigit()}


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_shm_run_leaves_no_process_behind():
    """``multiprocessing``'s resource tracker ends only after its parent
    unless the parent stops it: the driver refuses a run it outlives."""
    before = _process_ids()
    _run("--workload", "wc_shm")
    left = _process_ids() - before
    assert not left, left


def test_aa_refuses_a_traced_pass():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--aa", "--trace"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2 and "--aa" in proc.stderr


def test_trace_file_has_parented_spans():
    _run("--workload", "wc_shm", "--trace")
    trace = json.loads(
        (ROOT / "benchmarks" / "results" / "perf" / "trace.json").read_text()
    )
    spans = trace["spans"]
    assert spans and all(s["end"] >= s["start"] for s in spans)
    names = {s["name"] for s in spans}
    assert {"engine.run", "engine.LocalEngine", "apps.build_wc"} <= names
    assert any(s["parent"] is not None and s["slice"] for s in spans)
