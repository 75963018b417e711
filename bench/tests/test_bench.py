"""Tests of the benchmark itself: span arithmetic, seeded inputs, metric names."""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import sweepctrl  # noqa: E402
from sweepctrl import cli, optimizer, sweeping  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_synthetic_tree():
    # 0: root [0, 100] with children 1 [10, 30], 2 [20, 50] (overlapping 1),
    # 3 [60, 70] and 5 [90, 120] (runs past the root's end); 4 [62, 65] is a
    # child of 3.
    start = np.array([0, 10, 20, 60, 62, 90])
    end = np.array([100, 30, 50, 70, 65, 120])
    parent = np.array([-1, 0, 0, 0, 3, 0])
    got = spans.self_times(start, end, parent)
    # Root: 100 minus the union [10, 50] + [60, 70] + [90, 100] = 60.
    assert got.tolist() == [40, 20, 30, 7, 3, 30]


def test_layer_entries_count_only_calls_from_outside_the_layer():
    names = ["bench.task", "polyhedra.project", "polyhedra.project_raw", "sweeping.simulate"]
    name_id = np.array([0, 1, 2, 3, 1])
    parent = np.array([-1, 0, 1, 0, 3])
    assert spans.layer_entries(names, name_id, parent).tolist() == [True, True, False, True, True]


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    def first(seed):
        return list(itertools.islice(workloads.task_inputs(workload, seed), 4))

    a, b, c = first(5), first(5), first(6)
    assert all(_same(x, y) for x, y in zip(a, b))
    assert not all(_same(x, y) for x, y in zip(a, c))


def test_wrappers_sit_at_every_binding_and_come_off():
    originals = (sweeping.simulate, optimizer.simulate, cli.verify_certificate, sweepctrl.project)
    with spans.tracing(spans.Tracer()):
        assert optimizer.simulate is sweeping.simulate is not originals[0]
        assert cli.verify_certificate is not originals[2]
        assert sweepctrl.project is not originals[3]
    assert (sweeping.simulate, optimizer.simulate, cli.verify_certificate, sweepctrl.project) == originals


@pytest.mark.parametrize("trace, key", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_reported(tmp_path, trace, key):
    expected = {m["name"]: m["unit"] for m in CONTRACT[key]}
    for workload in workloads.WORKLOADS:
        rec = harness.run(ROOT, tmp_path, workload, seed=3, seconds=0.01, trace=trace, launches=1)
        assert rec["correct"], rec["failures"]
        assert rec["attempted"] >= 1 and rec["failed"] == 0
        assert {k: v["unit"] for k, v in rec["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in rec["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "project", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
