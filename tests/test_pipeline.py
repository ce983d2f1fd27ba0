"""Tests for the fused sample→decode→tally pipeline.

The two load-bearing properties:

* chunking is invisible — chunk sizes 1, 7 and ``shots`` produce identical
  tallies (the satellite acceptance criterion), and
* the pipeline is bit-identical to the frozen references for the same
  seed — :func:`~repro.stabilizer.reference.reference_packed_sample`
  followed by per-shot
  :func:`~repro.decoder.reference.reference_mwpm_decode` — which is what
  keeps every engine result stable across sampler and decoder changes.
"""

import numpy as np

import pytest

from repro.core.adaptation import adapt_patch
from repro.decoder import MatchingGraph, MwpmDecoder
from repro.decoder.reference import reference_mwpm_decode
from repro.engine import DecodingPipeline, PipelineStats
from repro.engine import pipeline as pipeline_mod
from repro.engine.executor import Engine, EngineConfig
from repro.engine.tasks import LerPointTask
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.noise.fabrication import DefectSet
from repro.stabilizer.dem import build_detector_error_model
from repro.stabilizer.reference import reference_packed_sample
from repro.surface_code.circuits import build_memory_circuit
from repro.surface_code.layout import RotatedSurfaceCodeLayout


def _circuit(distance=3, p=0.004, rounds=None):
    patch = adapt_patch(RotatedSurfaceCodeLayout(distance), DefectSet.of())
    return build_memory_circuit(patch, CircuitNoiseModel.standard(p),
                                rounds or distance)


def _decoder(circuit):
    return MwpmDecoder(build_detector_error_model(circuit))


def _reference_failures(circuit, shots, seed):
    """The frozen path: per-target sampling loop, per-shot MWPM, tally."""
    samples = reference_packed_sample(circuit, shots, seed=seed)
    graph = MatchingGraph(build_detector_error_model(circuit))
    actual = samples.observables
    return sum(
        bool(np.any(reference_mwpm_decode(graph, row) != actual[s]))
        for s, row in enumerate(samples.detectors))


class TestChunkInvariance:
    def test_chunk_sizes_never_change_tallies(self, monkeypatch):
        circuit = _circuit()
        shots = 40
        tallies = {}
        for chunk in (1, 7, shots):
            monkeypatch.setattr(pipeline_mod, "CHUNK_SHOTS", chunk)
            pipeline = DecodingPipeline(circuit, _decoder(circuit))
            stats = pipeline.run(shots, seed=31)
            tallies[chunk] = stats.failures
            assert stats.shots == shots
            assert stats.chunks == -(-shots // chunk)
        assert len(set(tallies.values())) == 1, tallies

    def test_chunk_size_read_on_each_run(self, monkeypatch):
        """A pipeline built before the chunk size changes runs at the new
        size: the constant is read per call, not captured at construction."""
        circuit = _circuit()
        pipeline = DecodingPipeline(circuit, _decoder(circuit))
        before = pipeline.run(40, seed=31)
        monkeypatch.setattr(pipeline_mod, "CHUNK_SHOTS", 10)
        after = pipeline.run(40, seed=31)
        assert (before.chunks, after.chunks) == (1, 4)
        assert after.failures == before.failures

    def test_chunk_size_is_not_a_constructor_argument(self):
        circuit = _circuit()
        with pytest.raises(TypeError):
            DecodingPipeline(circuit, _decoder(circuit), chunk_shots=8)


class TestBitIdentityWithLegacyPath:
    @pytest.mark.parametrize("p", [0.001, 0.006])
    def test_pipeline_matches_frozen_reference_path(self, p, monkeypatch):
        monkeypatch.setattr(pipeline_mod, "CHUNK_SHOTS", 32)
        circuit = _circuit(p=p)
        shots = 120
        pipeline = DecodingPipeline(circuit, _decoder(circuit))
        stats = pipeline.run(shots, seed=77)
        assert stats.failures == _reference_failures(circuit, shots, seed=77)

    def test_repeat_runs_are_deterministic_and_warm(self, monkeypatch):
        monkeypatch.setattr(pipeline_mod, "CHUNK_SHOTS", 16)
        circuit = _circuit()
        pipeline = DecodingPipeline(circuit, _decoder(circuit))
        first = pipeline.run(60, seed=5)
        second = pipeline.run(60, seed=5)
        assert first.failures == second.failures
        # The second run decodes nothing new: every syndrome is memoised.
        assert second.distinct_syndromes == 0
        assert second.memo_hits > 0


class TestPipelineStats:
    def test_stats_accounting(self, monkeypatch):
        monkeypatch.setattr(pipeline_mod, "CHUNK_SHOTS", 25)
        circuit = _circuit(p=0.002)
        pipeline = DecodingPipeline(circuit, _decoder(circuit))
        stats = pipeline.run(100, seed=13)
        assert isinstance(stats, PipelineStats)
        assert stats.chunks == 4
        assert 0 <= stats.failures <= stats.shots == 100
        assert 0 <= stats.empty_shots <= stats.shots
        # At p=0.002 the dedup machinery must be doing real work: far fewer
        # distinct decodes than shots.
        assert 1 <= stats.distinct_syndromes < stats.shots
        assert stats.dedup_factor > 1.0

    def test_sample_decode_time_split(self, monkeypatch):
        monkeypatch.setattr(pipeline_mod, "CHUNK_SHOTS", 25)
        circuit = _circuit(p=0.002)
        pipeline = DecodingPipeline(circuit, _decoder(circuit))
        stats = pipeline.run(100, seed=13)
        assert stats.sample_seconds > 0.0
        assert stats.decode_seconds > 0.0
        assert 0.0 < stats.sample_fraction < 1.0
        # The split never affects the numbers.
        again = DecodingPipeline(circuit, _decoder(circuit)).run(100, seed=13)
        assert again.failures == stats.failures

    def test_shots_must_be_positive(self):
        circuit = _circuit()
        with pytest.raises(ValueError):
            DecodingPipeline(circuit, _decoder(circuit)).run(0)

    def test_memo_counters_surfaced(self, monkeypatch):
        """The syndrome-memo hit/eviction counters flow through the stats
        (and from there into the BENCH decoder artifacts), so
        REPRO_SYNDROME_CACHE can be sized from CI data."""
        monkeypatch.setenv("REPRO_SYNDROME_CACHE", "2")
        monkeypatch.setattr(pipeline_mod, "CHUNK_SHOTS", 25)
        circuit = _circuit(p=0.006)
        tiny = DecodingPipeline(circuit, _decoder(circuit))
        stats = tiny.run(150, seed=13)
        # A 2-entry memo cannot hold this run's distinct syndromes: the
        # churn must be visible, and the memo pinned at its limit.
        assert stats.memo_evictions > 0
        assert stats.memo_size == 2
        assert stats.memo_pressure > 0.0

        monkeypatch.setenv("REPRO_SYNDROME_CACHE", "65536")
        roomy = DecodingPipeline(circuit, _decoder(circuit))
        relaxed = roomy.run(150, seed=13)
        assert relaxed.memo_evictions == 0
        assert relaxed.memo_pressure == 0.0
        assert relaxed.memo_size == relaxed.distinct_syndromes
        # Eviction pressure is observability only — never the numbers.
        assert relaxed.failures == stats.failures


class TestFixedSeedFailureCounts:
    """Frozen end-to-end tallies: the vectorised sampler (and any future
    sampler change) must keep these exact fixed-seed failure counts.

    Captured from the pre-vectorisation pipeline (PR 2) at p=2e-3 with
    seed 20240427 over 4000 shots.
    """

    EXPECTED = {3: 28, 5: 6}

    @pytest.mark.parametrize("distance", [3, 5])
    def test_memory_failure_counts_unchanged(self, distance):
        circuit = _circuit(distance=distance, p=2e-3, rounds=distance)
        pipeline = DecodingPipeline(circuit, _decoder(circuit))
        stats = pipeline.run(4000, seed=20240427)
        assert stats.failures == self.EXPECTED[distance]


class TestEngineIntegration:
    def test_engine_result_matches_legacy_numbers(self):
        # The executor now routes every shard through the pipeline; numbers
        # must stay bit-identical to the pre-pipeline engine (and to the
        # frozen reference path, for single-shard fixed-policy runs).
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        task = LerPointTask.from_patch("memory", patch, 0.004)
        engine = Engine(EngineConfig())
        result = engine.run_ler(task, shots=300, seed=404)
        circuit = task.build_circuit()
        assert result.failures == _reference_failures(circuit, 300, seed=404)

    def test_multi_shard_determinism(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        task = LerPointTask.from_patch("memory", patch, 0.006)
        small_shards = Engine(EngineConfig(shard_size=64))
        big_shards = Engine(EngineConfig(shard_size=4096))
        many = small_shards.run_ler(task, shots=512, seed=9)
        # Shard split changes RNG stream assignment (documented), but the
        # result must be reproducible run to run.
        again = Engine(EngineConfig(shard_size=64)).run_ler(task, shots=512, seed=9)
        assert many.failures == again.failures
        one = big_shards.run_ler(task, shots=512, seed=9)
        assert one.shots == many.shots == 512
