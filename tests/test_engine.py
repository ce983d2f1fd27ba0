"""Tests for the parallel Monte-Carlo execution engine (repro.engine).

Covers the engine's three load-bearing guarantees:

* determinism — bit-identical failure counts for ``max_workers`` 1 and 4,
  and single-shard runs identical to the frozen reference sampler and
  decoder;
* caching — hit/miss behaviour, schema-bump invalidation, corruption safety;
* adaptive scheduling — early stop on target failures / CI width, with the
  guaranteed minimum number of shots always honoured.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.stats import BinomialEstimate
from repro.core import adapt_patch
from repro.decoder.matching import MatchingGraph
from repro.decoder.reference import reference_mwpm_decode
from repro.engine import (
    CutoffCellTask,
    Engine,
    EngineConfig,
    LerPointTask,
    PatchSampleTask,
    ResultCache,
    ShotPolicy,
    ShotScheduler,
    YieldTask,
    child_stream,
    seed_fingerprint,
    spawn_streams,
    task_from_payload,
)
from repro.engine.rng import from_fingerprint
from repro.engine.scheduler import rng_mode_shot_cost
from repro.experiments import run_memory_experiment, sample_defective_patches
from repro.noise import DefectModel, DefectSet, LINK_AND_QUBIT
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.stabilizer.dem import build_detector_error_model
from repro.stabilizer.reference import reference_packed_sample
from repro.surface_code import RotatedSurfaceCodeLayout, build_memory_circuit
from repro.surface_code.layout import StabilityLayout


def d3_task(p: float = 0.01) -> LerPointTask:
    patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    return LerPointTask.from_patch("memory", patch, p)


def _pinned_tasks() -> dict:
    layout = RotatedSurfaceCodeLayout(5)
    defects = DefectSet.of(qubits=[(5, 5)], links=[((1, 7), (0, 6))])
    stability = LerPointTask.from_patch(
        "stability", adapt_patch(StabilityLayout(4), DefectSet.of()), 0.005,
        rounds=3)
    return {
        "memory_d3": d3_task(0.01),
        "memory_d5_adapted_bitgen": LerPointTask.from_patch(
            "memory", adapt_patch(layout, defects), 0.002, rng_mode="bitgen"),
        "stability_l4": stability,
        "cutoff_keep": CutoffCellTask(
            strategy="keep", bad_qubit_error_rate=0.1,
            **{f.name: getattr(stability, f.name)
               for f in dataclasses.fields(LerPointTask)}),
    }


# sha256 content hashes of ``_pinned_tasks()``, recorded while ``decoder``
# was still a dataclass field of ``LerPointTask``.
PINNED_TASK_HASHES = {
    "memory_d3":
        "99b3ebe10af5dc44d975d3c94691ab07aa33d44ce81844d08478d8c11d5746f4",
    "memory_d5_adapted_bitgen":
        "45443e34dff971de2533d88e2653a458009c23e23c32fb9dfe797f6bbb378532",
    "stability_l4":
        "e38eec4eb98db92822cccb6f6811f07bf71c9fbb7267616c9334db520a494b7a",
    "cutoff_keep":
        "737b0765c20633d51441cba2a923733026b3a7bdb98e5cfec8f2188e9970082a",
}


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------
class TestRngStreams:
    def test_child_stream_is_random_access_spawn(self):
        root = np.random.SeedSequence(42)
        spawned = np.random.SeedSequence(42).spawn(5)
        for i in (0, 2, 4):
            a = child_stream(root, i).generate_state(4)
            assert np.array_equal(a, spawned[i].generate_state(4))

    def test_spawn_streams_matches_child_stream(self):
        streams = spawn_streams(7, 3)
        for i, s in enumerate(streams):
            assert np.array_equal(s.generate_state(2),
                                  child_stream(7, i).generate_state(2))

    def test_streams_are_order_independent(self):
        late = child_stream(3, 17).generate_state(4)
        again = child_stream(3, 17).generate_state(4)
        assert np.array_equal(late, again)

    def test_fingerprint_roundtrip(self):
        seq = child_stream(123, 4)
        fp = seed_fingerprint(seq)
        rebuilt = from_fingerprint(fp)
        assert np.array_equal(seq.generate_state(4), rebuilt.generate_state(4))

    def test_unseeded_fingerprint_is_none(self):
        assert seed_fingerprint(None) is None
        assert from_fingerprint(None) is None


# ----------------------------------------------------------------------
# Task specs
# ----------------------------------------------------------------------
class TestTaskSpecs:
    def test_content_hash_is_stable_and_sensitive(self):
        a, b = d3_task(0.01), d3_task(0.01)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != d3_task(0.02).content_hash()

    def test_task_rebuilds_equivalent_patch(self):
        layout = RotatedSurfaceCodeLayout(5)
        patch = adapt_patch(layout, DefectSet.of(qubits=[(5, 5)]))
        task = LerPointTask.from_patch("memory", patch, 0.01)
        rebuilt = task.patch()
        assert rebuilt.disabled_data == patch.disabled_data
        assert rebuilt.stabilizers == patch.stabilizers

    @pytest.mark.parametrize("decoder", ["unionfind", "magic"])
    def test_unknown_decoder_payload_rejected(self, decoder):
        payload = dict(d3_task().payload(), decoder=decoder)
        with pytest.raises(ValueError, match=f"unknown decoder '{decoder}'"):
            task_from_payload(LerPointTask.kind, payload)

    @pytest.mark.parametrize("cls", [LerPointTask, CutoffCellTask])
    def test_decoder_is_a_constant_not_a_field(self, cls):
        assert cls.decoder == "mwpm"
        assert "decoder" not in {f.name for f in dataclasses.fields(cls)}
        fields = {f.name: getattr(d3_task(), f.name)
                  for f in dataclasses.fields(LerPointTask)}
        with pytest.raises(TypeError, match="decoder"):
            cls(decoder="mwpm", **fields)

    def test_from_patch_takes_no_decoder(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        with pytest.raises(TypeError, match="decoder"):
            LerPointTask.from_patch("memory", patch, 0.01, decoder="mwpm")

    @pytest.mark.parametrize("name", sorted(PINNED_TASK_HASHES))
    def test_pinned_content_hashes(self, name):
        task = _pinned_tasks()[name]
        assert task.payload()["decoder"] == "mwpm"
        assert task.content_hash() == PINNED_TASK_HASHES[name]

    def test_cutoff_cell_hash_differs_by_strategy(self):
        patch = adapt_patch(StabilityLayout(4), DefectSet.of())
        base = LerPointTask.from_patch("stability", patch, 0.005, rounds=3)
        fields = dict(
            experiment=base.experiment, layout_kind=base.layout_kind,
            size=base.size, faulty_qubits=base.faulty_qubits,
            faulty_links=base.faulty_links,
            physical_error_rate=base.physical_error_rate,
            rounds=base.rounds, noise=base.noise,
        )
        keep = CutoffCellTask(strategy="keep", bad_qubit_error_rate=0.1, **fields)
        disable = CutoffCellTask(strategy="disable", **fields)
        assert keep.content_hash() != disable.content_hash()

    def test_payload_round_trip_preserves_hash(self):
        patch = adapt_patch(StabilityLayout(4), DefectSet.of())
        base = LerPointTask.from_patch("stability", patch, 0.005, rounds=3)
        cutoff = CutoffCellTask(
            strategy="keep", bad_qubit_error_rate=0.1,
            experiment=base.experiment, layout_kind=base.layout_kind,
            size=base.size, faulty_qubits=base.faulty_qubits,
            faulty_links=base.faulty_links,
            physical_error_rate=base.physical_error_rate,
            rounds=base.rounds, noise=base.noise)
        tasks = [
            d3_task(0.01),
            base,
            cutoff,
            PatchSampleTask(size=5, defect_model_kind=LINK_AND_QUBIT,
                            defect_rate=0.02, num_patches=3, min_distance=3),
            YieldTask(chiplet_size=7, defect_model_kind=LINK_AND_QUBIT,
                      defect_rate=0.01, samples=10, target_distance=5,
                      boundary=("standard-3", True, False, None)),
        ]
        for task in tasks:
            rebuilt = task_from_payload(task.kind, task.payload())
            assert rebuilt == task
            assert rebuilt.content_hash() == task.content_hash()

    def test_task_from_payload_rejects_junk(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            task_from_payload("bogus", {})
        with pytest.raises(ValueError, match="must be an object"):
            task_from_payload("ler_point", None)
        with pytest.raises(ValueError, match="malformed"):
            task_from_payload("ler_point", {"nope": 1})


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_single_shard_matches_legacy_simulation(self):
        """Default engine path == the frozen per-target sampling loop plus
        per-shot reference MWPM."""
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        circuit = build_memory_circuit(patch, CircuitNoiseModel.standard(0.01), 3)
        graph = MatchingGraph(build_detector_error_model(circuit))
        samples = reference_packed_sample(circuit, 400, seed=9)
        actual = samples.observables
        legacy = sum(
            bool(np.any(reference_mwpm_decode(graph, row) != actual[s]))
            for s, row in enumerate(samples.detectors))

        result = run_memory_experiment(patch, 0.01, shots=400, seed=9)
        assert result.failures == legacy

    @pytest.mark.parametrize("workers", [1, 4])
    def test_sharded_runs_are_worker_count_invariant(self, workers):
        engine = Engine(EngineConfig(max_workers=workers, shard_size=64))
        result = engine.run_ler(d3_task(), shots=512, seed=7)
        assert result.num_shards == 8
        # Reference values from a serial run; the parametrised parallel run
        # must reproduce them bit for bit.
        serial = Engine(EngineConfig(max_workers=1, shard_size=64)).run_ler(
            d3_task(), shots=512, seed=7)
        assert result.failures == serial.failures
        assert result.shots == serial.shots

    def test_run_ler_many_parallel_matches_serial(self):
        tasks = [d3_task(p) for p in (0.005, 0.01, 0.02)]
        serial = Engine(EngineConfig(max_workers=1)).run_ler_many(
            tasks, shots=300, seed=5)
        parallel = Engine(EngineConfig(max_workers=4)).run_ler_many(
            tasks, shots=300, seed=5)
        assert [r.failures for r in serial] == [r.failures for r in parallel]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_patch_sampling_is_worker_count_invariant(self, workers):
        model = DefectModel(LINK_AND_QUBIT, 0.03)
        engine = Engine(EngineConfig(max_workers=workers))
        patches = sample_defective_patches(5, model, 3, seed=11,
                                           min_distance=3, engine=engine)
        assert len(patches) == 3
        reference = sample_defective_patches(
            5, model, 3, seed=11, min_distance=3,
            engine=Engine(EngineConfig(max_workers=1)))
        assert [p.defects for p in patches] == [p.defects for p in reference]


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_returns_identical_numbers(self, tmp_path):
        engine = Engine(EngineConfig(cache_dir=str(tmp_path)))
        first = engine.run_ler(d3_task(), shots=300, seed=3)
        second = engine.run_ler(d3_task(), shots=300, seed=3)
        assert not first.from_cache
        assert second.from_cache
        assert second.failures == first.failures
        assert second.shots == first.shots

    def test_different_seed_or_shots_misses(self, tmp_path):
        engine = Engine(EngineConfig(cache_dir=str(tmp_path)))
        engine.run_ler(d3_task(), shots=300, seed=3)
        assert not engine.run_ler(d3_task(), shots=300, seed=4).from_cache
        assert not engine.run_ler(d3_task(), shots=400, seed=3).from_cache

    def test_unseeded_runs_are_never_cached(self, tmp_path):
        engine = Engine(EngineConfig(cache_dir=str(tmp_path)))
        engine.run_ler(d3_task(), shots=200, seed=None)
        assert len(ResultCache(tmp_path)) == 0

    def test_schema_bump_invalidates(self, tmp_path):
        engine = Engine(EngineConfig(cache_dir=str(tmp_path)))
        engine.run_ler(d3_task(), shots=300, seed=3)
        cache = ResultCache(tmp_path)
        keys = list(cache.keys())
        assert len(keys) == 1
        # Same files read under a bumped schema version: all misses.
        bumped = ResultCache(tmp_path, schema_version=cache.schema_version + 1)
        assert bumped.get(keys[0]) is None
        assert cache.get(keys[0]) is not None

    def test_corrupt_record_is_a_miss(self, tmp_path):
        engine = Engine(EngineConfig(cache_dir=str(tmp_path)))
        engine.run_ler(d3_task(), shots=300, seed=3)
        cache = ResultCache(tmp_path)
        key = next(iter(cache.keys()))
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        rerun = engine.run_ler(d3_task(), shots=300, seed=3)
        assert not rerun.from_cache  # recomputed, not crashed

    def test_invalidate_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1})
        cache.put("cd" * 32, {"x": 2})
        assert len(cache) == 2
        assert cache.invalidate("ab" * 32)
        assert not cache.invalidate("ab" * 32)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_foreign_files_are_invisible(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1})
        # Files a co-located service (or an editor) might drop in the tree:
        (tmp_path / "service.db").write_bytes(b"SQLite format 3\x00")
        (tmp_path / "service.db-wal").write_bytes(b"wal")
        (tmp_path / "ab" / "notes.json").write_text("{}")      # non-hex stem
        (tmp_path / "ab" / f"{'cd' * 32}.json").write_text("{}")  # wrong dir
        (tmp_path / "README").write_text("hands off")
        assert list(cache.keys()) == ["ab" * 32]
        assert len(cache) == 1
        assert cache.get("ab" * 32)["x"] == 1
        # clear() removes only our record and leaves foreign files alone.
        assert cache.clear() == 1
        assert (tmp_path / "service.db").exists()
        assert (tmp_path / "ab" / "notes.json").exists()
        assert (tmp_path / "ab" / f"{'cd' * 32}.json").exists()

    def test_put_bytes_are_sorted_ascii_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = {"z": [1.5, None], "label": "défaut ψ", "a": {"k": "ü"}}
        cache.put("ab" * 32, record)
        body = dict(record, schema_version=cache.schema_version)
        written = cache.path_for("ab" * 32).read_bytes()
        assert written == json.dumps(body, sort_keys=True).encode("ascii")
        # The same bytes a streamed json.dump into a UTF-8 text file writes.
        streamed = tmp_path / "streamed.json"
        with open(streamed, "w", encoding="utf-8") as fh:
            json.dump(body, fh, sort_keys=True)
        assert written == streamed.read_bytes()
        assert cache.get("ab" * 32) == body

    def test_torn_write_is_invisible_until_replaced(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1})
        # A writer killed mid-put leaves only a tmp file, never a torn
        # record under the final name.
        orphan = tmp_path / "ab" / "tmp1234.tmp"
        orphan.write_text('{"x": 2, "schema_')
        assert list(cache.keys()) == ["ab" * 32]
        assert cache.get("ab" * 32) == {"x": 1,
                                        "schema_version": cache.schema_version}
        assert cache.clear() == 1
        assert not orphan.exists()  # clear sweeps the orphan

    def test_patch_sampling_uses_cache(self, tmp_path):
        model = DefectModel(LINK_AND_QUBIT, 0.03)
        engine = Engine(EngineConfig(cache_dir=str(tmp_path)))
        first = sample_defective_patches(5, model, 2, seed=1, min_distance=3,
                                         engine=engine)
        assert len(ResultCache(tmp_path)) == 1
        second = sample_defective_patches(5, model, 2, seed=1, min_distance=3,
                                          engine=engine)
        assert [p.defects for p in first] == [p.defects for p in second]


# ----------------------------------------------------------------------
# Adaptive scheduler
# ----------------------------------------------------------------------
class TestShotScheduler:
    def test_fixed_policy_plans_everything_in_one_wave(self):
        sched = ShotScheduler(ShotPolicy.fixed(1000), shard_size=256)
        wave = sched.next_wave()
        assert [n for _, n in wave] == [256, 256, 256, 232]
        assert [i for i, _ in wave] == [0, 1, 2, 3]
        sched.record(5, 1000)
        assert sched.next_wave() == []

    def test_early_stop_on_target_failures(self):
        policy = ShotPolicy.adaptive(10**6, min_shots=100, target_failures=50)
        sched = ShotScheduler(policy, shard_size=100)
        sched.record(60, sum(n for _, n in sched.next_wave()))
        assert sched.should_stop()
        assert sched.next_wave() == []
        assert sched.shots_done == 100

    def test_minimum_shots_guaranteed_even_with_failures(self):
        policy = ShotPolicy.adaptive(10**6, min_shots=400, target_failures=1)
        sched = ShotScheduler(policy, shard_size=100)
        wave = sched.next_wave()
        # First wave covers the guaranteed minimum, not less.
        assert sum(n for _, n in wave) == 400
        sched.record(10, 200)  # partial bookkeeping below the minimum
        assert not sched.should_stop()
        sched.record(0, 200)
        assert sched.should_stop()

    def test_runs_to_max_without_failures(self):
        policy = ShotPolicy.adaptive(1000, min_shots=100, target_failures=10)
        sched = ShotScheduler(policy, shard_size=1000)
        total = 0
        while True:
            wave = sched.next_wave()
            if not wave:
                break
            shots = sum(n for _, n in wave)
            total += shots
            sched.record(0, shots)
        assert total == 1000

    def test_waves_grow_geometrically(self):
        policy = ShotPolicy.adaptive(10_000, min_shots=100, target_failures=10**9)
        sched = ShotScheduler(policy, shard_size=10_000)
        sizes = []
        for _ in range(4):
            wave = sched.next_wave()
            shots = sum(n for _, n in wave)
            sizes.append(shots)
            sched.record(0, shots)
        assert sizes == [100, 200, 400, 800]

    def test_rel_ci_halfwidth_stop(self):
        policy = ShotPolicy.adaptive(10**9, min_shots=100,
                                     target_failures=None,
                                     target_rel_halfwidth=0.5)
        sched = ShotScheduler(policy, shard_size=10**6)
        sched.next_wave()
        sched.record(80, 100)  # plentiful failures: CI is tight
        assert sched.should_stop()

    def test_adaptive_engine_run_stops_early_at_high_p(self):
        engine = Engine(EngineConfig(shard_size=128))
        policy = ShotPolicy.adaptive(10_000, min_shots=256, target_failures=20)
        result = engine.run_ler(d3_task(0.03), policy=policy, seed=1)
        assert result.failures >= 20
        assert 256 <= result.shots < 10_000

    def test_adaptive_engine_run_exhausts_budget_at_low_p(self):
        engine = Engine(EngineConfig(shard_size=512))
        policy = ShotPolicy.adaptive(1024, min_shots=512, target_failures=10**6)
        result = engine.run_ler(d3_task(0.001), policy=policy, seed=1)
        assert result.shots == 1024

    def test_adaptive_runs_are_worker_count_invariant(self):
        policy = ShotPolicy.adaptive(4096, min_shots=256, target_failures=25)
        runs = [
            Engine(EngineConfig(max_workers=w, shard_size=128)).run_ler(
                d3_task(0.02), policy=policy, seed=13)
            for w in (1, 4)
        ]
        assert runs[0].failures == runs[1].failures
        assert runs[0].shots == runs[1].shots


# ----------------------------------------------------------------------
# Cost estimation: pinned to the scheduler's own wave arithmetic
# ----------------------------------------------------------------------
class TestEstimatedCost:
    """``ShotPolicy.estimated_cost`` must equal the shots a real
    ``ShotScheduler`` spends when no failure ever arrives — these tests
    drive one independently and compare."""

    @staticmethod
    def drive(policy, shard_size):
        """Total shots of a scheduler fed zero failures."""
        sched = ShotScheduler(policy, shard_size)
        while True:
            wave = sched.next_wave()
            if not wave:
                return sched.shots_done
            sched.record(0, sum(n for _, n in wave))

    @pytest.mark.parametrize("shots, shard", [(1000, 256), (4096, 4096),
                                              (100, 256), (5000, 999)])
    def test_fixed_policy_costs_exactly_its_budget(self, shots, shard):
        policy = ShotPolicy.fixed(shots)
        assert policy.estimated_cost() == self.drive(policy, shard)
        assert policy.estimated_cost() == shots

    def test_adaptive_zero_rate_runs_to_max(self):
        policy = ShotPolicy.adaptive(10_000, min_shots=100,
                                     target_failures=10)
        assert policy.estimated_cost() == self.drive(policy, 512)
        assert policy.estimated_cost() == 10_000

    @pytest.mark.parametrize("rng_mode", ["exact", "bitgen"])
    def test_random_policies_cost_their_zero_failure_run(self, rng_mode):
        # Any policy, any shard size: the price is the shots a scheduler
        # spends when no failure arrives, weighted by the sampler mode.
        rng = np.random.default_rng(19)
        for _ in range(200):
            max_shots = int(rng.integers(1, 20_000))
            policy = ShotPolicy.adaptive(
                max_shots, min_shots=int(rng.integers(1, max_shots + 1)),
                target_failures=int(rng.integers(1, 200)))
            shard = int(rng.integers(1, 5000))
            assert policy.estimated_cost(rng_mode=rng_mode) \
                == rng_mode_shot_cost(rng_mode, self.drive(policy, shard))


# ----------------------------------------------------------------------
# Engine odds and ends
# ----------------------------------------------------------------------
class TestEngineApi:
    def test_requires_exactly_one_budget_spec(self):
        engine = Engine(EngineConfig())
        with pytest.raises(ValueError):
            engine.run_ler(d3_task())
        with pytest.raises(ValueError):
            engine.run_ler(d3_task(), shots=10, policy=ShotPolicy.fixed(10))

    def test_from_env_parses_variables(self):
        cfg = EngineConfig.from_env({"REPRO_WORKERS": "3",
                                     "REPRO_CACHE": "/tmp/x",
                                     "REPRO_SHARD_SIZE": "99"})
        assert cfg == EngineConfig(max_workers=3, shard_size=99,
                                   cache_dir="/tmp/x")
        assert EngineConfig.from_env({}) == EngineConfig()

    def test_estimate_matches_counts(self):
        engine = Engine(EngineConfig())
        result = engine.run_ler(d3_task(0.02), shots=300, seed=2)
        assert result.estimate == BinomialEstimate(result.failures, 300)
        assert result.shots == 300
        assert result.task.decoder == "mwpm"
