"""Tiny-size runs of every workload through perfbench/run.py, and the
harness's own guards.  Run with: python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# operations in one --tiny round, and how many of them fail
TINY_ROUND = {"exact-series": (10, 0), "numeric-values": (11, 1),
              "two-param": (2, 0), "selftest": (1, 0)}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(TINY_ROUND))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert (result["attempted"], result["failed"]) == TINY_ROUND[workload]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_prints_every_layer_metric():
    proc = run_bench("--workload", "exact-series", "--seed", "3", "--seconds",
                     "0", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["attempted"], result["failed"]) == TINY_ROUND["exact-series"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["torsion.torsion_infinitesimal.self_s"]["value"] > 0
    assert metrics["series.mul.calls"]["value"] > 0
    assert metrics["cli.grr-check.s"]["value"] > 0
    assert 0 <= metrics["trace.uncovered_share"]["value"] < 0.5


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "exact-series", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def test_an_operation_past_its_limit_is_stopped_and_failed(alarm):
    import mpmath
    op = types.SimpleNamespace(run=lambda: time.sleep(5), result=None)
    start = time.perf_counter()
    seconds, failure = worker.run_op(op, 0.2, mpmath.mp)
    assert time.perf_counter() - start < 2
    assert failure.startswith("stopped")


def test_an_operation_that_changes_the_global_precision_fails(alarm):
    import mpmath
    mp = mpmath.mp

    def leaky():
        mp.dps = 30
        return 1

    op = types.SimpleNamespace(run=leaky, result=None)
    _, failure = worker.run_op(op, 5, mp)
    assert "mp.dps" in failure
    assert mp.dps == 15


def test_later_rounds_do_not_repeat_the_inputs_of_a_slot():
    import workloads
    for base_ell in range(-3, 6):
        inputs = {workloads.twist_and_offset(base_ell, r) for r in range(45)}
        assert len(inputs) == 45
