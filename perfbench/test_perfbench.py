"""Tests of the benchmark itself: run with ``python -m pytest perfbench``.

The smoke runs go through the command line exactly as the benchmark is
run, with a short window and few ops; the other tests drive the runner's
functions in-process.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.core import ops as core_ops  # noqa: E402
from repro.runtime import kernels  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run_cli(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--min-ops", "3", "--setups", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_reports_every_metric(workload, trace):
    proc = _run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert result["metrics"]["success_ratio"]["value"] == 1.0


def test_corrupted_reference_lowers_success_ratio():
    workload = WORKLOADS["knn_dense"](5)
    workload.compute_references()
    indices, distances = workload.expected[0]
    distances = distances.copy()
    distances[0, 0] += 1.0
    workload.expected[0] = (indices, distances)
    size = len(workload.pool)
    outcome = run.measure(workload, seconds=0.0, min_ops=2 * size)
    attempted = len(outcome["latencies"])
    assert attempted == 2 * size  # the run went on past the failures
    assert outcome["correct"] == attempted - 2  # item 0 failed both times
    assert outcome["errors"] == {}


@pytest.mark.parametrize("workload", ["tile_stream", "apsp_sparse_auto"])
def test_traced_self_times_sum_to_op_wall(workload):
    bench = WORKLOADS[workload](7)
    bench.compute_references()
    originals = (kernels.mmo_tiled, core_ops.mmo)
    tracer = layers.Tracer(keep_ops=8)
    outcome = run.measure(bench, seconds=0.0, min_ops=8, tracer=tracer)
    assert outcome["correct"] == len(outcome["latencies"])
    # Wrappers are gone once each traced op ends.
    assert (kernels.mmo_tiled, core_ops.mmo) == originals

    resolution = time.get_clock_info("perf_counter").resolution
    by_op: dict[int, list[tuple]] = {}
    for op, *span in tracer.kept:
        by_op.setdefault(op, []).append(tuple(span))
    assert len(by_op) == tracer.totals.ops == 4
    for spans in by_op.values():
        tolerance = (len(spans) + 1) * max(resolution, 1e-9)
        own = layers.self_times(spans)
        wall = spans[0][3] - spans[0][2]
        assert abs(sum(own) - wall) <= tolerance
        # Children lie inside their parent, so no self time is negative.
        assert min(own) >= -tolerance
        for _, _, start, end, parent, _ in spans[1:]:
            assert spans[parent][2] <= start <= end <= spans[parent][3]
        assert {span[0] for span in spans} > {"op", "runtime", "sched"}
    totals = tracer.totals
    total_tolerance = (len(tracer.kept) + 1) * max(resolution, 1e-9)
    assert abs(sum(totals.self_s.values()) - totals.wall) <= total_tolerance


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run_cli("tile_stream", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_ratios_cancel_a_uniform_host_slowdown():
    # The host slows 1.5x during the third op, the ops and the probes after
    # it alike, so every op reads the same number of probe times.  The op
    # between a fast and a slow probe is taken at their mean.
    latencies = [2.0, 2.0, 2.5, 3.0]
    probes = [0.1, 0.1, 0.1, 0.15, 0.15]
    assert run.host_ratios(latencies, probes) == pytest.approx([20.0] * 4)
