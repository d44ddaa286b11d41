"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

They start the benchmark in a subprocess, as a user would, so they take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from run import quantile, tail  # noqa: E402

SEEDS = (11, 23)
# The layer each workload exists to load, and the layers it must leave idle.
DESIGN = {
    "construct": ("faces", ("limits",)),
    "hull": ("geometry", ("hypermetrics", "faces", "poulsen", "limits")),
    "metric": ("hypermetrics", ("geometry", "faces", "poulsen")),
}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, seconds: int = 1) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Traced results: the first seed twice, the second seed once, per workload."""
    runs = {}
    for workload in DESIGN:
        runs[workload] = [result(bench(workload, seed, 1)) for seed in (SEEDS[0], SEEDS[0], SEEDS[1])]
    return runs


def values(res: dict) -> dict[str, float]:
    return {name: metric["value"] for name, metric in res["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(DESIGN))
def test_traced_counters_repeat_for_a_seed(traced, workload):
    first, again, _ = (values(r) for r in traced[workload])
    assert {k: first[k] for k in tracing.COUNTERS} == {k: again[k] for k in tracing.COUNTERS}
    assert first["numerics.lp_calls"] > 0


@pytest.mark.parametrize("workload", sorted(DESIGN))
@pytest.mark.parametrize("run", [0, 2], ids=[f"seed{s}" for s in SEEDS])
def test_layer_dominance_pattern(traced, workload, run):
    metrics = values(traced[workload][run])
    layer, idle = DESIGN[workload]
    assert tracing.dominance(metrics)[0] == layer
    assert metrics[f"{layer}.wall_share"] > 0.5
    for quiet in idle:
        assert metrics[f"{quiet}.wall_share"] == 0, quiet
    if workload != "construct":
        assert metrics["faces.exposure_calls"] == 0


@pytest.mark.parametrize("workload", sorted(DESIGN))
def test_no_operation_fails(traced, workload):
    for res in traced[workload]:
        assert res["correct"] and res["failed"] == 0
    untraced = result(bench(workload, SEEDS[1], 0))
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] > 0
    assert set(untraced["metrics"]) == {"setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mib"}


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    done = bench("hull", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 51)]
    value, percentile = tail(samples)
    assert percentile == 80.0 and 40.0 < value < 41.0
    assert sum(1 for s in samples if s > value) == 10


def test_quantile_is_a_smooth_median():
    assert quantile([float(i) for i in range(1, 51)], 0.5) == pytest.approx(25.5)
    assert quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert quantile([5.0], 0.5) == 5.0
    # Moving one sample near the median moves the estimate a little, not to the next sample.
    near = [1.0, 2.0, 3.0, 10.0, 11.0, 12.0]
    moved = quantile(near[:2] + [3.5] + near[3:], 0.5) - quantile(near, 0.5)
    assert 0 < moved < 0.5
