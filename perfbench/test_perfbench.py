"""Tests of the benchmark itself, at smoke sizes.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# counts a later change may quote: they must repeat exactly run to run
EXACT_COUNTS = [
    "grid.fft.calls_per_step",
    "grid.ifft.calls_per_step",
    "spectral.proj.calls_per_step",
    "spectral.symbol.calls_per_step",
    "spectral.bilinear_B.nodes_evaluated",
    "spectral.bilinear_B.node_yield",
    "laws.rho_of_l.calls_per_step",
    "laws.rho_of_l.root_solves_per_point",
    "states.invert_normal_form.iterations",
    "solver.nonlinear_tendencies.calls_per_step",
    "snapshots.save_snapshot.bytes",
]
# counts quoted when the benchmark was defined (they do not depend on size)
QUOTED = {
    "lifespan-2d": {"grid.fft.calls_per_step": 48, "grid.ifft.calls_per_step": 70},
    "general-law": {"laws.rho_of_l.root_solves_per_point": 1.0},
}


def bench(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


def smoke(workload, trace, seed=20260823):
    return result_of(bench(ROOT, "--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace), "--smoke"))


def assert_metrics(result, declared):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = smoke(workload, 1), smoke(workload, 1)
    assert_metrics(first, BENCHMARK["per_layer"])
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name, value in QUOTED.get(workload, {}).items():
        assert first["metrics"][name]["value"] == value, name


@pytest.mark.parametrize("workload, seed", [("lifespan-2d", 1906), ("normalform-2d", 12345)])
def test_reference_tables_hold_on_another_seed(workload, seed):
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0", "--smoke")
    assert result_of(proc)["correct"] is True
    assert "reference tables: checked" in proc.stdout


@pytest.mark.parametrize("smoke", [True, False])
def test_normalform_tables_hold_on_a_second_realization(smoke):
    # the timed runs move one fixed field; this checks the stored tables of
    # another field, which the quadrature and the codec were not tuned on
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    nf = workloads.NormalForm2D
    result = nf.unit(12345, smoke, None, realization=workloads.SECOND_SEED)
    assert workloads.check_tables(result, workloads.load_reference(), nf, smoke)
    assert [c for c in result.checks if not c.passed] == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "lifespan-2d", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_table_matches_benchmark_json():
    sys.path.insert(0, str(ROOT / "src"))
    import spans

    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == spans.LAYER_METRICS
    import workloads

    assert WORKLOADS == list(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    import run

    assert run.tail(list(range(10))) == (None, None)
    pct, value = run.tail(list(range(20)))
    assert (pct, value) == (50.0, 9)
    assert sum(1 for v in range(20) if v > value) == 10
    pct, value = run.tail(list(range(20)), high=False)
    assert sum(1 for v in range(20) if v < value) == 10
