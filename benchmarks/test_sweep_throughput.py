"""Sweep-scheduler benchmark: fused vs interleaved vs task-by-task.

Runs a mixed d=3 sweep — adaptive points whose waves drain at very
different rates plus one fixed-budget point — through the engine three
times with ``max_workers=4``:

* the **task-by-task path**: one ``run_ler`` per task, which is what
  ``run_ler_many`` did before the sweep scheduler (a draining adaptive wave
  leaves most of the pool idle until the task finishes),
* the **interleaved path**: one ``run_sweep`` over all tasks with fusion
  disabled (``executor._FUSE_TASKS = 1``), where every pending task's shards share the
  pool but each shard is its own dispatch, and
* the **fused path**: the same ``run_sweep`` with shard-group fusion on
  (the defaults), where compatible shards of different tasks ride one
  worker invocation (:class:`repro.stabilizer.packed.FusedProgram`).

All paths execute the *identical* shard set (same per-task child seeds,
same wave plans), so the measured differences are pure scheduling and
dispatch: the ``LerResult``s are asserted bit-identical every run, on any
host.  The fused path is timed *first*, so residual worker-cache warmth
can only bias the comparison against it.

The >= 1.3x interleaving gate — the sweep-scheduler PR's acceptance
criterion — only fires on hosts with >= 4 CPUs: on fewer cores the paths
serialise onto the same silicon and the scheduling win shrinks to
pool-overhead noise by construction.  (The fused path's own >= 2x gate
lives in ``test_fused_sweep.py``.)  The shots/sec series always lands in
``BENCH_sweep_scheduler.json`` via the BENCH artifact, so the trajectory
is on record either way.
"""

import os
import time
from dataclasses import asdict

from repro.core.adaptation import adapt_patch
from repro.engine import Engine, EngineConfig, LerPointTask, ShotPolicy, SweepItem
from repro.engine.rng import child_stream
from repro.noise.fabrication import DefectSet
from repro.surface_code.layout import RotatedSurfaceCodeLayout

from conftest import print_series, unfused, write_bench_json

_WORKERS = 4
_SHARD_SIZE = 512
# Adaptive points: the low-p point drains its whole budget in geometrically
# growing waves while the high-p points stop after a wave or two of one to
# two shards each — waves that, run task-by-task, leave most of a 4-worker
# pool idle.  That asymmetry is the utilisation cliff interleaving fixes.
_ADAPTIVE_PS = (0.004, 0.010, 0.014, 0.018, 0.022, 0.026)
_ADAPTIVE_POLICY = ShotPolicy.adaptive(8192, min_shots=512,
                                       target_failures=50)
_FIXED_P = 0.006
_FIXED_POLICY = ShotPolicy.fixed(4096)
_GATE_SPEEDUP = 1.3


def _tasks():
    patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    tasks = [LerPointTask.from_patch("memory", patch, p)
             for p in _ADAPTIVE_PS]
    tasks.append(LerPointTask.from_patch("memory", patch, _FIXED_P))
    return tasks


def _items(tasks, seed):
    """The exact (task, policy, child seed) cells all paths execute."""
    policies = [_ADAPTIVE_POLICY] * len(_ADAPTIVE_PS) + [_FIXED_POLICY]
    return [SweepItem(task, policy, child_stream(seed, i))
            for i, (task, policy) in enumerate(zip(tasks, policies))]


def test_sweep_scheduler_throughput(benchmark, benchmark_seed):
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
        # Warm every worker's task contexts so no timed path pays
        # circuit/DEM/decoder builds (4 shards per task fan across the pool,
        # so each worker sees most tasks at least once).  Both engines share
        # one pool width, so warming either warms the silicon; warm both so
        # each engine's own backend processes exist before timing.
        fused_engine.run_ler_many(tasks, shots=4 * _SHARD_SIZE,
                                  seed=benchmark_seed + 1)
        with unfused():
            plain_engine.run_ler_many(tasks, shots=4 * _SHARD_SIZE,
                                      seed=benchmark_seed + 1)

        start = time.perf_counter()
        fused = fused_engine.run_sweep(items)
        t_fused = time.perf_counter() - start
        stats = fused_engine.last_fusion
        fusion.update(asdict(stats),
                      fused_shot_fraction=stats.fused_shot_fraction)

        with unfused():
            start = time.perf_counter()
            interleaved = plain_engine.run_sweep(items)
            t_interleaved = time.perf_counter() - start

            start = time.perf_counter()
            taskwise = [plain_engine.run_ler(it.task, policy=it.policy,
                                             seed=it.seed)
                        for it in items]
            t_taskwise = time.perf_counter() - start

        # Scheduling and fusion must be invisible in the numbers, everywhere.
        def key(rs):
            return [(r.failures, r.shots, r.num_shards) for r in rs]

        assert key(fused) == key(interleaved) == key(taskwise)

        shots = sum(r.shots for r in fused)
        measured["speedup"] = t_taskwise / t_interleaved
        measured["fused_speedup"] = t_taskwise / t_fused
        measured["shots"] = shots
        for label, seconds in (("task-by-task", t_taskwise),
                               ("interleaved", t_interleaved),
                               ("fused", t_fused)):
            rate = shots / max(seconds, 1e-9)
            measured[label] = (seconds, rate)
            rows.append((label,
                         f"{shots} shots in {seconds:6.2f}s "
                         f"= {rate:8.0f} shots/s"))
        rows.append(("interleave speedup",
                     f"{measured['speedup']:4.2f}x "
                     f"(gate {_GATE_SPEEDUP}x on >=4 CPUs)"))
        rows.append(("fused speedup", f"{measured['fused_speedup']:4.2f}x "
                     "(gated in test_fused_sweep)"))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(f"Sweep scheduler ({len(items)} tasks, "
                 f"workers={_WORKERS})", rows)

    cpus = os.cpu_count() or 1
    gated = cpus >= _WORKERS
    write_bench_json(
        "sweep_scheduler",
        [{
            "label": label,
            "shots": measured["shots"],
            "seconds": measured[label][0],
            "shots_per_sec": measured[label][1],
        } for label in ("task-by-task", "interleaved", "fused")],
        speedup=measured["speedup"],
        fused_speedup=measured["fused_speedup"],
        fusion=fusion,
        workers=_WORKERS,
        shard_size=_SHARD_SIZE,
        tasks=len(items),
        cpu_count=cpus,
        gate={"min_speedup": _GATE_SPEEDUP, "enforced": gated},
    )

    # Acceptance criterion of the sweep-scheduler PR.  Pool scheduling can
    # only win wall-clock when the workers actually have separate cores.
    if gated:
        assert measured["speedup"] >= _GATE_SPEEDUP, measured
