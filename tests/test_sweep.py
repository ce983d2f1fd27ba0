"""Tests for cross-task shard interleaving and engine-routed yield estimation.

The sweep scheduler's contract is that interleaving is *invisible* in the
numbers: ``run_ler_many`` / ``run_sweep`` must be bit-identical to running
every item alone, for any worker count, any policy mix, and any cache
warm/cold permutation.  Same for yield runs, which always execute as a
frozen ``YieldTask`` through ``Engine.run_yield`` — on an explicit engine,
on the default engine or from a figure entry point.
"""

from dataclasses import astuple

import pytest

from repro.chiplet.boundary import STANDARD_3
from repro.core import adapt_patch
from repro.core.postselection import DefectFreeCriterion
from repro.engine import (
    Engine,
    EngineConfig,
    LerPointTask,
    ResultCache,
    ShotPolicy,
    SweepItem,
    YieldTask,
    default_engine,
    set_default_engine,
)
from repro.engine.executor import _run_ler_shard
from repro.experiments.paper import figure12_yield
from repro.noise import DefectSet, LINK_AND_QUBIT, LINK_ONLY
from repro.surface_code import RotatedSurfaceCodeLayout

WORKER_COUNTS = (1, 2, 4)


def d3_task(p: float = 0.01) -> LerPointTask:
    patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    return LerPointTask.from_patch("memory", patch, p)


def result_tuple(r):
    return (r.failures, r.shots, r.num_shards, r.num_detectors, r.num_dem_errors)


def serial_reference(items):
    """The task-by-task path: one item at a time on a serial engine."""
    engine = Engine(EngineConfig(max_workers=1, shard_size=128))
    return [engine.run_ler(it.task, policy=it.policy, seed=it.seed)
            for it in items]


# ----------------------------------------------------------------------
# Cross-task interleaving: bit-identity with the task-by-task path
# ----------------------------------------------------------------------
class TestCrossTaskInterleaving:
    TASKS = staticmethod(lambda: [d3_task(p) for p in (0.005, 0.01, 0.02)])

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_fixed_multishard_batch_matches_serial_per_task(self, workers):
        tasks = self.TASKS()
        engine = Engine(EngineConfig(max_workers=workers, shard_size=128))
        got = engine.run_ler_many(tasks, shots=512, seed=9)
        ref = serial_reference([SweepItem(t, ShotPolicy.fixed(512),
                                          it.seed)
                                for t, it in zip(tasks, _items(tasks, 9))])
        assert [result_tuple(r) for r in got] == [result_tuple(r) for r in ref]
        assert all(r.num_shards == 4 for r in got)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_adaptive_batch_matches_serial_per_task(self, workers):
        tasks = self.TASKS()
        policy = ShotPolicy.adaptive(4096, min_shots=128, target_failures=20)
        engine = Engine(EngineConfig(max_workers=workers, shard_size=128))
        got = engine.run_ler_many(tasks, policy=policy, seed=31)
        ref = serial_reference([SweepItem(t, policy, it.seed)
                                for t, it in zip(tasks, _items(tasks, 31))])
        assert [result_tuple(r) for r in got] == [result_tuple(r) for r in ref]
        # The high-p point stops early, the low-p point drains its budget:
        # exactly the mixed-wave shape interleaving is meant to overlap.
        assert got[0].shots > got[-1].shots

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_mixed_adaptive_and_fixed_sweep(self, workers):
        tasks = self.TASKS()
        items = [
            SweepItem(tasks[0], ShotPolicy.adaptive(4096, min_shots=128,
                                                    target_failures=15), 1),
            SweepItem(tasks[1], ShotPolicy.fixed(640), 2),
            SweepItem(tasks[2], ShotPolicy.fixed(64), 3),
        ]
        engine = Engine(EngineConfig(max_workers=workers, shard_size=128))
        got = engine.run_sweep(items)
        ref = serial_reference(items)
        assert [result_tuple(r) for r in got] == [result_tuple(r) for r in ref]

    def test_single_shard_batch_keeps_legacy_raw_seeds(self):
        """Fixed one-shard items are seeded with the raw item seed (legacy)."""
        task = d3_task()
        engine = Engine(EngineConfig(max_workers=1, shard_size=4096))
        got = engine.run_ler_many([task], shots=400, seed=9)[0]
        # run_ler_many derives child stream 0 of seed 9 for the single item.
        from repro.engine.rng import child_stream
        failures, _, _ = _run_ler_shard(task, child_stream(9, 0), 400)
        assert got.failures == failures

    def test_empty_sweep(self):
        assert Engine(EngineConfig()).run_sweep([]) == []

    def test_unseeded_sweep_runs_and_is_uncached(self, tmp_path):
        engine = Engine(EngineConfig(max_workers=2, shard_size=128,
                                     cache_dir=str(tmp_path)))
        results = engine.run_ler_many(self.TASKS(), shots=256, seed=None)
        assert [r.shots for r in results] == [256, 256, 256]
        assert len(ResultCache(tmp_path)) == 0


# ----------------------------------------------------------------------
# Cache warm/cold permutations
# ----------------------------------------------------------------------
class TestSweepCachePermutations:
    def test_cold_then_warm_sweep(self, tmp_path):
        tasks = [d3_task(p) for p in (0.005, 0.01, 0.02)]
        policy = ShotPolicy.adaptive(2048, min_shots=128, target_failures=15)
        engine = Engine(EngineConfig(max_workers=2, shard_size=128,
                                     cache_dir=str(tmp_path)))
        cold = engine.run_ler_many(tasks, policy=policy, seed=5)
        assert all(not r.from_cache for r in cold)
        warm = engine.run_ler_many(tasks, policy=policy, seed=5)
        assert all(r.from_cache for r in warm)
        assert ([result_tuple(r) for r in cold]
                == [result_tuple(r) for r in warm])

    def test_partially_warm_sweep_mixes_hits_and_live_runs(self, tmp_path):
        tasks = [d3_task(p) for p in (0.005, 0.01, 0.02)]
        policy = ShotPolicy.fixed(512)
        engine = Engine(EngineConfig(max_workers=2, shard_size=128,
                                     cache_dir=str(tmp_path)))
        # Warm only the middle task (same child stream the sweep will use).
        items = _items(tasks, 7, policy)
        engine.run_ler(items[1].task, policy=policy, seed=items[1].seed)

        results = engine.run_ler_many(tasks, shots=512, seed=7)
        assert [r.from_cache for r in results] == [False, True, False]
        ref = serial_reference(items)
        assert ([result_tuple(r) for r in results]
                == [result_tuple(r) for r in ref])

    def test_cache_is_worker_count_invariant(self, tmp_path):
        tasks = [d3_task(p) for p in (0.01, 0.02)]
        cold = Engine(EngineConfig(max_workers=4, shard_size=128,
                                   cache_dir=str(tmp_path)))
        warm = Engine(EngineConfig(max_workers=1, shard_size=128,
                                   cache_dir=str(tmp_path)))
        first = cold.run_ler_many(tasks, shots=512, seed=3)
        second = warm.run_ler_many(tasks, shots=512, seed=3)
        assert all(r.from_cache for r in second)
        assert ([result_tuple(r) for r in first]
                == [result_tuple(r) for r in second])

    def test_cache_contains(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        assert key not in cache
        cache.put(key, {"x": 1})
        assert key in cache


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------
class TestPoolFailureHandling:
    def test_starmap_failure_propagates_and_pool_survives(self):
        engine = Engine(EngineConfig(max_workers=2))
        task = d3_task()
        # shots=-1 raises inside the worker; the remaining futures must be
        # cancelled instead of stranding the pool, and the pool must stay
        # usable afterwards.
        jobs = [(task, 1, 64), (task, 2, -1)] + [(task, i, 64)
                                                 for i in range(3, 20)]
        with pytest.raises(ValueError):
            engine.starmap(_run_ler_shard, jobs)
        out = engine.starmap(_run_ler_shard, [(task, 1, 64), (task, 2, 64)])
        assert len(out) == 2


# ----------------------------------------------------------------------
# Worker-side task-context memo
# ----------------------------------------------------------------------
class TestWorkerTaskMemo:
    def test_memo_is_lru_bounded_and_env_sized(self, monkeypatch):
        """Hits refresh recency, builds evict the least-recently-used entry,
        and the bound follows _TASK_MEMO_LIMIT (sweeps bigger than the memo
        would otherwise rebuild contexts on every interleaved shard)."""
        import repro.engine.executor as ex

        monkeypatch.setattr(ex, "_TASK_MEMO_LIMIT", 2)
        ex._TASK_MEMO.clear()
        try:
            t1, t2, t3 = d3_task(0.005), d3_task(0.01), d3_task(0.02)
            ex._context_for(t1)
            ex._context_for(t2)
            ctx1 = ex._TASK_MEMO[t1.content_hash()]
            ex._context_for(t1)   # LRU refresh: t2 is now the eviction victim
            ex._context_for(t3)
            assert t2.content_hash() not in ex._TASK_MEMO
            assert ex._TASK_MEMO[t1.content_hash()] is ctx1
            assert len(ex._TASK_MEMO) == 2
        finally:
            ex._TASK_MEMO.clear()


# ----------------------------------------------------------------------
# Engine-routed yield estimation
# ----------------------------------------------------------------------
def yield_task(samples, **overrides):
    fields = dict(chiplet_size=7, defect_model_kind=LINK_AND_QUBIT,
                  defect_rate=0.01, samples=samples, target_distance=5)
    return YieldTask(**{**fields, **overrides})


def yield_tuple(r):
    return (r.samples, r.accepted, r.distance_counts,
            r.accepted_distance_counts)


class TestYieldEngineRouting:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_worker_count_invariant(self, workers):
        engine = Engine(EngineConfig(max_workers=workers))
        got = engine.run_yield(yield_task(60), seed=11)
        ref = Engine(EngineConfig()).run_yield(yield_task(60), seed=11)
        assert yield_tuple(got) == yield_tuple(ref)

    def test_boundary_standard_and_defect_free_round_trip(self):
        std = STANDARD_3.with_target(5)
        task = yield_task(40, boundary=astuple(std))
        assert task.boundary == ("standard-3", False, True, 5)
        assert task.boundary_standard() == std
        got = Engine(EngineConfig(max_workers=2)).run_yield(task, seed=11)
        ref = Engine(EngineConfig(backend="serial")).run_yield(task, seed=11)
        assert yield_tuple(got) == yield_tuple(ref)

        free = yield_task(40, criterion_kind="defect_free",
                          target_distance=None)
        assert free.criterion() == DefectFreeCriterion()

    def test_seeded_runs_are_engine_config_invariant(self, tmp_path):
        """A serial, a process-pool and a cached default engine all give
        the same counts, for a direct run and at a figure entry point."""
        def runs():
            task = yield_task(40)
            fig = figure12_yield(target_distance=5, chiplet_sizes=(5, 7),
                                 defect_rates=(0.01, 0.02), samples=30,
                                 seed=4)
            return (yield_tuple(default_engine().run_yield(task, seed=11)),
                    yield_tuple(default_engine().run_yield(task, seed=11)),
                    [p.yield_fraction for p in fig["super-stabilizer"]])

        pool = Engine(EngineConfig(max_workers=2))
        previous = default_engine()
        try:
            set_default_engine(Engine(EngineConfig(backend="serial")))
            plain = runs()
            set_default_engine(pool)
            pooled = runs()
            set_default_engine(Engine(EngineConfig(cache_dir=str(tmp_path))))
            cold, warm = runs(), runs()
        finally:
            set_default_engine(previous)
        assert plain[0] == plain[1]  # repeated runs do not advance a stream
        assert plain == pooled == cold == warm
        assert yield_tuple(pool.run_yield(yield_task(40), seed=11)) == plain[0]
        assert len(ResultCache(tmp_path)) == 5  # 1 direct run + 4 figure cells

    def test_cache_cold_then_warm(self, tmp_path):
        engine = Engine(EngineConfig(cache_dir=str(tmp_path)))
        cold = engine.run_yield(yield_task(50), seed=11)
        warm = engine.run_yield(yield_task(50), seed=11)
        assert not cold.from_cache
        assert warm.from_cache
        assert yield_tuple(cold) == yield_tuple(warm)
        assert len(ResultCache(tmp_path)) == 1

    def test_unseeded_yield_runs_are_never_cached(self, tmp_path):
        engine = Engine(EngineConfig(cache_dir=str(tmp_path)))
        result = engine.run_yield(yield_task(20), seed=None)
        assert result.samples == 20
        assert len(ResultCache(tmp_path)) == 0

    def test_content_hash_sensitivity(self):
        base = dict(chiplet_size=7, defect_model_kind=LINK_ONLY,
                    defect_rate=0.01, samples=50, target_distance=5)
        a = YieldTask(**base)
        assert a.content_hash() == YieldTask(**base).content_hash()
        assert a.content_hash() != YieldTask(**{**base, "samples": 51}).content_hash()
        assert a.content_hash() != YieldTask(**{**base, "allow_rotation": True}).content_hash()
        assert a.content_hash() != YieldTask(
            **{**base, "boundary": ("standard-1", True, True, 5)}).content_hash()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            YieldTask(chiplet_size=7, defect_model_kind="bogus",
                      defect_rate=0.01, samples=10, target_distance=5)
        with pytest.raises(ValueError):
            YieldTask(chiplet_size=7, defect_model_kind=LINK_ONLY,
                      defect_rate=0.01, samples=0, target_distance=5)
        with pytest.raises(ValueError):
            YieldTask(chiplet_size=7, defect_model_kind=LINK_ONLY,
                      defect_rate=0.01, samples=10, target_distance=None)
        with pytest.raises(ValueError):
            YieldTask(chiplet_size=7, defect_model_kind=LINK_ONLY,
                      defect_rate=0.01, samples=10, criterion_kind="magic",
                      target_distance=5)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _items(tasks, seed, policy=None):
    """SweepItems with the exact child seeds run_ler_many derives."""
    from repro.engine.rng import child_stream

    policy = policy or ShotPolicy.fixed(512)
    return [SweepItem(t, policy, child_stream(seed, i))
            for i, t in enumerate(tasks)]


# ----------------------------------------------------------------------
# Wave progress callbacks (the service's partial-result stream)
# ----------------------------------------------------------------------
class TestWaveCallbacks:
    def test_wave_updates_accumulate_to_the_result(self):
        engine = Engine(EngineConfig(shard_size=128))
        # An unreachable failure target forces the full geometric ramp:
        # waves of 256, 512 and 256 shots up to the 1024-shot budget.
        policy = ShotPolicy.adaptive(1024, min_shots=256,
                                     target_failures=10**6)
        updates = []
        result = engine.run_ler(d3_task(0.02), policy=policy, seed=9,
                                on_wave=updates.append)
        assert [u.wave_shots for u in updates] == [256, 512, 256]
        assert [u.wave for u in updates] == list(range(len(updates)))
        assert all(u.index == 0 for u in updates)
        # Per-wave deltas sum to the cumulative totals, which end at the
        # final result.
        assert sum(u.wave_failures for u in updates) == result.failures
        assert sum(u.wave_shots for u in updates) == result.shots
        assert (updates[-1].failures, updates[-1].shots) == \
            (result.failures, result.shots)
        monotone = [u.shots for u in updates]
        assert monotone == sorted(monotone)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_callbacks_never_change_the_numbers(self, workers):
        tasks = [d3_task(p) for p in (0.005, 0.01)]
        ref = Engine(EngineConfig(shard_size=128)).run_ler_many(
            tasks, shots=512, seed=3)
        engine = Engine(EngineConfig(max_workers=workers, shard_size=128))
        seen = []
        got = engine.run_ler_many(tasks, shots=512, seed=3,
                                  on_wave=seen.append)
        assert [result_tuple(r) for r in got] == \
            [result_tuple(r) for r in ref]
        assert {u.index for u in seen} == {0, 1}

    def test_cache_hits_produce_no_waves(self, tmp_path):
        engine = Engine(EngineConfig(shard_size=128,
                                     cache_dir=str(tmp_path)))
        tasks = [d3_task(p) for p in (0.005, 0.01)]
        engine.run_ler_many(tasks, shots=512, seed=3)
        updates = []
        rerun = engine.run_ler_many(tasks, shots=512, seed=3,
                                    on_wave=updates.append)
        assert all(r.from_cache for r in rerun)
        assert updates == []  # nothing executed, nothing to stream

    def test_callback_exception_aborts_the_sweep(self):
        engine = Engine(EngineConfig(max_workers=2, shard_size=128))

        def boom(update):
            raise RuntimeError("watcher died")

        with pytest.raises(RuntimeError, match="watcher died"):
            engine.run_ler_many([d3_task()], shots=512, seed=3, on_wave=boom)
