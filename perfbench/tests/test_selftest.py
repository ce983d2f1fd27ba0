"""Self-test of the benchmark: toy-size runs of every workload.

    python3 -m pytest -q perfbench/tests

Checks that every metric named in BENCHMARK.json prints with its unit,
that the seed-code outputs match their pins, and that a perturbed result
is caught (``correct`` false, ``ok_share`` below 1).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=bench.WORKLOADS)
def toy(request):
    workload = request.param
    return {trace: bench.run_children(workload, bench.DEFAULT_SEED,
                                      bench.NOMINAL_SECONDS, trace, "toy")
            for trace in (False, True)}


def test_benchmark_json_names_every_printed_metric():
    spec = benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()


def test_every_metric_prints_with_its_unit(toy):
    untraced = bench.evaluate(toy[False])
    traced = bench.evaluate(toy[True])
    for result, units in ((untraced, bench.END_TO_END),
                          (traced, bench.per_layer_units())):
        assert result["correct"], [it for it in bench.check_items(toy[False])
                                   if not it["ok"]]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == set(units)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))
    for name, metric in untraced["metrics"].items():
        assert metric["value"] > 0, name
    assert untraced["metrics"]["ok_share"]["value"] == 1.0


def test_toy_outputs_are_pinned(toy):
    key = bench.pin_key(toy[False])
    assert key in bench.load_pins(), f"no pinned outputs for {key}"


def test_perturbed_result_is_caught(toy):
    run = copy.deepcopy(toy[False])
    item = run["children"][0]["items"][0]
    output = item["output"]
    field = next(k for k, v in output.items() if isinstance(v, (int, dict)))
    if isinstance(output[field], int):
        output[field] += 1
    else:
        output[field] = {"perturbed": True}
    result = bench.evaluate(run)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_worker_side_failure_counts_against_ok_share(toy):
    run = copy.deepcopy(toy[False])
    run["children"][-1]["items"][-1]["ok"] = False
    result = bench.evaluate(run, pins={})
    assert not result["correct"]
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_busy_calibration_counts_against_ok_share(toy):
    run = copy.deepcopy(toy[False])
    run["children"][0]["clock"]["cpu_share"] = 2.0
    result = bench.evaluate(run)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_cli_prints_result_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "yield_grid",
         "--seed", "3", "--seconds", "30", "--trace", "0", "--size", "toy"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    command = benchmark_spec()["command"]
    proc = subprocess.run(
        command + ["--workload", "ler_decode", "--seed", "1",
                   "--seconds", "30", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_clock_scales_each_stretch_by_its_calibrations():
    import child

    clock = child.HostClock()
    ref = child.REFERENCE_SLICE_S
    # Kernel at reference speed, then twice as slow: the first second of
    # work counts at the mean of the two (1/1.5), later work at 1/2.
    clock.marks = [(0.0, ref), (1.0, 2 * ref)]
    assert clock.scaled(0.5) == pytest.approx(0.5 / 1.5)
    assert clock.scaled(1.0) == pytest.approx(1 / 1.5)
    assert clock.scaled(3.0) == pytest.approx(1 / 1.5 + 1.0)
    assert clock.span(1.0, 3.0) == pytest.approx(1.0)
