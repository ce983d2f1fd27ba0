"""Fused-sweep benchmark: heterogeneous task fusion vs task-by-task.

The paper's workload is sweep-shaped — many small LER points per
(d, p, layout) grid — and a 7-task d=3/d=5 mixed sweep is exactly the
regime where per-shard dispatch overhead dominates: each task plans only
one or two shards per wave, so run task-by-task a 4-worker pool idles
three workers while every dispatch re-pays its own round-trip.  Shard-group
fusion (:class:`repro.stabilizer.packed.FusedProgram`) batches compatible
shards of *different* tasks into one worker invocation, so one dispatch
advances many sweep points at once.

This benchmark times the 7-task sweep at ``workers=4`` twice:

* **task-by-task**: one ``run_ler`` per task with fusion disabled
  (``executor._FUSE_TASKS = 1``) — the historical baseline, and
* **fused**: one ``run_sweep`` with fusion on, where the planner groups
  pending shards up to the ``_FUSE_TASKS``/``_FUSE_SHOTS`` budgets.

Fusion is pure dispatch, so the results are asserted bit-identical — here
and across the serial / process / socket backends at worker counts 1, 2
and 4 — and the on-disk cache records are asserted byte-identical between
a fused and an unfused engine.  The >= 2x wall-clock gate (this PR's
acceptance criterion) only fires on hosts with >= 4 CPUs: on fewer cores
both paths serialise onto the same silicon.  The measured series and the
realised fusion counters always land in ``BENCH_fused_sweep.json``.
"""

import contextlib
import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.adaptation import adapt_patch
from repro.engine import Engine, EngineConfig, LerPointTask, ShotPolicy, SweepItem
from repro.engine.rng import child_stream
from repro.noise.fabrication import DefectSet
from repro.surface_code.layout import RotatedSurfaceCodeLayout

from conftest import print_series, unfused, write_bench_json

REPO_ROOT = Path(__file__).resolve().parent.parent

_WORKERS = 4
_SHARD_SIZE = 512
# Seven mixed points: four d=3 and three d=5, each a fixed budget of one or
# two shards — small circuits, high task count, the regime where fusion
# pays (a d=9+ task saturates the pool on its own and gains nothing).
_POINTS = ((3, 0.004), (3, 0.008), (3, 0.014), (3, 0.020),
           (5, 0.006), (5, 0.010), (5, 0.014))
_SHOTS_PER_TASK = 1024
_GATE_SPEEDUP = 2.0


def _tasks():
    patches = {d: adapt_patch(RotatedSurfaceCodeLayout(d), DefectSet.of())
               for d in sorted({d for d, _ in _POINTS})}
    return [LerPointTask.from_patch("memory", patches[d], p)
            for d, p in _POINTS]


def _items(tasks, seed):
    """The exact (task, policy, child seed) cells every path executes."""
    policy = ShotPolicy.fixed(_SHOTS_PER_TASK)
    return [SweepItem(task, policy, child_stream(seed, i))
            for i, task in enumerate(tasks)]


def _key(results):
    return [(r.failures, r.shots, r.num_shards, r.num_detectors,
             r.num_dem_errors) for r in results]


def _launch_worker():
    env = dict(os.environ)
    extra = [str(REPO_ROOT / "src")]
    if env.get("PYTHONPATH"):
        extra.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(extra)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.engine.worker", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT)
    line = proc.stdout.readline().strip()
    parts = line.split()
    assert parts[:1] == ["REPRO_WORKER_LISTENING"], line
    return proc, (parts[1], int(parts[2]))


@pytest.fixture(scope="module")
def worker_hosts():
    """Two localhost repro.engine.worker processes for the socket check."""
    procs, hosts = [], []
    try:
        for _ in range(2):
            proc, host = _launch_worker()
            procs.append(proc)
            hosts.append(host)
        yield tuple(hosts)
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=10)


def test_fused_sweep_throughput(benchmark, benchmark_seed, worker_hosts,
                                tmp_path):
    fused_engine = Engine(EngineConfig(max_workers=_WORKERS,
                                       shard_size=_SHARD_SIZE))
    plain_engine = Engine(EngineConfig(max_workers=_WORKERS,
                                       shard_size=_SHARD_SIZE))
    tasks = _tasks()
    items = _items(tasks, benchmark_seed)
    rows = []
    measured = {}
    fusion = {}

    def run():
        # Warm both engines' pools and task contexts so neither timed path
        # pays process spawns or circuit/DEM/decoder builds.
        fused_engine.run_ler_many(tasks, shots=4 * _SHARD_SIZE,
                                  seed=benchmark_seed + 1)
        with unfused():
            plain_engine.run_ler_many(tasks, shots=4 * _SHARD_SIZE,
                                      seed=benchmark_seed + 1)

        # Fused first: residual cache warmth can only bias against it.
        start = time.perf_counter()
        fused = fused_engine.run_sweep(items)
        t_fused = time.perf_counter() - start
        stats = fused_engine.last_fusion
        fusion.update(asdict(stats),
                      fused_shot_fraction=stats.fused_shot_fraction)
        assert stats.fused_groups > 0, \
            "benchmark never fused (vacuous comparison)"

        with unfused():
            start = time.perf_counter()
            taskwise = [plain_engine.run_ler(it.task, policy=it.policy,
                                             seed=it.seed) for it in items]
            t_taskwise = time.perf_counter() - start

        # Fusion is pure dispatch: identical numbers, here and everywhere.
        assert _key(fused) == _key(taskwise)

        shots = sum(r.shots for r in fused)
        measured["speedup"] = t_taskwise / t_fused
        measured["shots"] = shots
        measured["reference"] = _key(fused)
        for label, seconds in (("task-by-task", t_taskwise),
                               ("fused", t_fused)):
            rate = shots / max(seconds, 1e-9)
            measured[label] = (seconds, rate)
            rows.append((label,
                         f"{shots} shots in {seconds:6.2f}s "
                         f"= {rate:8.0f} shots/s"))
        rows.append(("speedup", f"{measured['speedup']:4.2f}x "
                     f"(gate {_GATE_SPEEDUP}x on >={_WORKERS} CPUs)"))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(f"Fused sweep ({len(items)} tasks d=3/d=5, "
                 f"workers={_WORKERS})", rows)

    # ------------------------------------------------------------------
    # Bit-identity across every backend and worker count (1 / 2 / 4).
    # ------------------------------------------------------------------
    reference = measured["reference"]
    backends = {
        "serial": Engine(EngineConfig(backend="serial",
                                      shard_size=_SHARD_SIZE)),
        "process-2": Engine(EngineConfig(max_workers=2,
                                         shard_size=_SHARD_SIZE)),
        "process-4": Engine(EngineConfig(max_workers=4,
                                         shard_size=_SHARD_SIZE)),
        "socket-2": Engine(EngineConfig(backend="socket", hosts=worker_hosts,
                                        shard_size=_SHARD_SIZE)),
    }
    for name, engine in backends.items():
        assert _key(engine.run_sweep(items)) == reference, \
            f"{name} diverged under fusion"

    # ------------------------------------------------------------------
    # Cache records byte-identical: fused engine vs unfused engine.
    # ------------------------------------------------------------------
    blobs = {}
    for label, dispatch in (("fused", contextlib.nullcontext),
                            ("unfused", unfused)):
        cache_dir = tmp_path / label
        engine = Engine(EngineConfig(max_workers=_WORKERS,
                                     shard_size=_SHARD_SIZE,
                                     cache_dir=str(cache_dir)))
        with dispatch():
            cold = engine.run_sweep(items)
        assert not any(r.from_cache for r in cold)
        blobs[label] = {p.relative_to(cache_dir): p.read_bytes()
                        for p in sorted(cache_dir.rglob("*.json"))}
    assert blobs["fused"] and blobs["fused"] == blobs["unfused"]

    cpus = os.cpu_count() or 1
    gated = cpus >= _WORKERS
    write_bench_json(
        "fused_sweep",
        [{
            "label": label,
            "shots": measured["shots"],
            "seconds": measured[label][0],
            "shots_per_sec": measured[label][1],
        } for label in ("task-by-task", "fused")],
        speedup=measured["speedup"],
        fusion=fusion,
        workers=_WORKERS,
        shard_size=_SHARD_SIZE,
        tasks=len(items),
        cpu_count=cpus,
        gate={"min_speedup": _GATE_SPEEDUP, "enforced": gated},
    )

    # Acceptance criterion of the task-fusion PR.  Batching dispatches can
    # only win wall-clock when the workers actually have separate cores.
    if gated:
        assert measured["speedup"] >= _GATE_SPEEDUP, measured
