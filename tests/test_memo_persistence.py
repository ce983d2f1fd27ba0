"""Syndrome-memo LRU and on-disk memo persistence.

Two decode-side behaviours:

* the cross-batch syndrome memo evicts least-recently-used (hits refresh
  recency) instead of FIFO, so hot syndromes survive long varied sweeps;
* the memo round-trips through the content-addressed on-disk cache
  (keyed by task hash + decoder name), so a restarted worker's first
  shard starts warm (``memo_size > 0`` before any decode), and a
  malformed persisted memo is a cache miss, never a crash.
"""

import numpy as np
import pytest

import repro.engine.executor as ex
from repro.core import adapt_patch
from repro.decoder.base import BatchDecoderBase
from repro.engine import Engine, EngineConfig, LerPointTask
from repro.engine.cache import ResultCache
from repro.engine.pipeline import DecodingPipeline, memo_cache_key, memo_preload
from repro.noise import DefectSet
from repro.surface_code import RotatedSurfaceCodeLayout


class CountingDecoder(BatchDecoderBase):
    """Deterministic fake decoder: parity = {min fired index}."""

    num_observables = 2

    def __init__(self):
        super().__init__()
        self.calls = []

    def _decode_fired(self, fired):
        self.calls.append(fired)
        return frozenset({min(fired) % self.num_observables})


def _task(p=0.003):
    patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    return LerPointTask.from_patch("memory", patch, p)


@pytest.fixture(autouse=True)
def _clean_memo_state(monkeypatch):
    """Isolate each test from ambient cache config and warm task memos."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    memo_preload(None)
    ex._TASK_MEMO.clear()
    yield
    memo_preload(None)
    ex._TASK_MEMO.clear()


# ----------------------------------------------------------------------
# LRU eviction
# ----------------------------------------------------------------------
class TestLruMemo:
    def test_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYNDROME_CACHE", "2")
        dec = CountingDecoder()
        dec.decode_fired((1,))          # memo: {1}
        dec.decode_fired((2,))          # memo: {1, 2}
        dec.decode_fired((1,))          # hit refreshes (1) -> {2, 1}
        dec.decode_fired((3,))          # evicts (2), the true LRU entry
        assert dec.memo_evictions == 1
        assert (1,) in dec._syndrome_memo      # survived thanks to the hit
        assert (2,) not in dec._syndrome_memo  # FIFO would have kept this
        dec.decode_fired((1,))
        assert dec.calls.count((1,)) == 1      # never re-decoded

    def test_fifo_regression_shape(self, monkeypatch):
        # Without an interleaved hit, LRU degenerates to FIFO order.
        monkeypatch.setenv("REPRO_SYNDROME_CACHE", "2")
        dec = CountingDecoder()
        for key in ((1,), (2,), (3,)):
            dec.decode_fired(key)
        assert (1,) not in dec._syndrome_memo
        assert dec.memo_evictions == 1

    def test_eviction_counter_semantics(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYNDROME_CACHE", "3")
        dec = CountingDecoder()
        for i in range(10):
            dec.decode_fired((i,))
        assert dec.memo_evictions == 7
        assert dec.memo_size == 3


# ----------------------------------------------------------------------
# Export / import
# ----------------------------------------------------------------------
class TestMemoExportImport:
    def test_round_trip(self):
        a = CountingDecoder()
        for key in ((1,), (2, 5), (3,)):
            a.decode_fired(key)
        b = CountingDecoder()
        assert b.import_memo(a.export_memo()) == 3
        assert b._syndrome_memo == a._syndrome_memo
        b.decode_fired((2, 5))
        assert b.calls == []            # pure memo hit, no decode
        assert b.memo_hits == 1

    def test_import_respects_limit_keeps_hottest(self, monkeypatch):
        a = CountingDecoder()
        for i in range(6):
            a.decode_fired((i,))
        monkeypatch.setenv("REPRO_SYNDROME_CACHE", "2")
        b = CountingDecoder()
        assert b.import_memo(a.export_memo()) == 2
        # export is coldest-first, so the hottest tail survives.
        assert set(b._syndrome_memo) == {(4,), (5,)}

    def test_import_skips_malformed(self):
        b = CountingDecoder()
        entries = [[[1], [0]], "garbage", [[2], [1]], [[], [0]]]
        assert b.import_memo(entries) == 2
        assert set(b._syndrome_memo) == {(1,), (2,)}

    def test_import_disabled_memo(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYNDROME_CACHE", "0")
        b = CountingDecoder()
        assert b.import_memo([[[1], [0]]]) == 0
        assert b.memo_size == 0


# ----------------------------------------------------------------------
# On-disk persistence
# ----------------------------------------------------------------------
class TestMemoPersistence:
    def test_persist_and_preload_cycle(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        task = _task()
        circuit = task.build_circuit()

        def pipeline_for():
            from repro.decoder.matching import MatchingGraph, MwpmDecoder
            from repro.stabilizer.dem import build_detector_error_model
            graph = MatchingGraph(build_detector_error_model(circuit))
            return DecodingPipeline(circuit, MwpmDecoder(graph))

        p1 = pipeline_for()
        assert p1.attach_memo_store(cache, task.content_hash(),
                                    task.decoder) == 0
        p1.run(4000, seed=20240427)
        assert p1.persist_memo() is True
        assert p1.persist_memo() is False      # unchanged since last save
        size = p1.decoder.memo_size
        assert size > 0

        # A brand-new pipeline (fresh process stand-in) starts warm: the
        # memo is populated before any shard has been decoded.
        p2 = pipeline_for()
        assert p2.decoder.memo_size == 0
        imported = p2.attach_memo_store(cache, task.content_hash(),
                                        task.decoder)
        assert imported == size
        assert p2.preloaded_memo_entries == size
        assert p2.decoder.memo_size == size
        assert p2.decoder.decoded_syndromes == 0

        # Identical numbers either way (decoding is a pure function).
        s1 = pipeline_for().run(4000, seed=20240427)
        s2 = p2.run(4000, seed=20240427)
        assert s2.failures == s1.failures
        assert s2.distinct_syndromes < s1.distinct_syndromes  # warm start

    def test_memo_keys_are_decoder_scoped(self, tmp_path):
        h = "a" * 64
        assert memo_cache_key(h, "mwpm") != memo_cache_key(h, "unionfind")
        assert memo_cache_key(h, "mwpm") != memo_cache_key("b" * 64, "mwpm")

    def test_context_for_roundtrip_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        task = _task()
        p1, _ = ex._context_for(task)
        p1.run(4000, seed=20240427)
        # _run_ler_shard persists after every shard; emulate one shard.
        f1 = ex._run_ler_shard(task, np.random.SeedSequence(1), 1000)
        ex._TASK_MEMO.clear()
        p2, _ = ex._context_for(task)
        assert p2.preloaded_memo_entries > 0
        assert p2.decoder.memo_size > 0      # warm before the first shard
        # Bit-identity: the warm pipeline reproduces the cold shard result.
        ex._TASK_MEMO[task.content_hash()] = (p2, 0)
        f2 = ex._run_ler_shard(task, np.random.SeedSequence(1), 1000)
        assert f2[0] == f1[0]

    def test_memo_preload_override_beats_env(self, tmp_path, monkeypatch):
        override = tmp_path / "override"
        task = _task()
        memo_preload(str(override))
        p1, _ = ex._context_for(task)
        p1.run(2000, seed=3)
        assert p1.persist_memo() is True
        ex._TASK_MEMO.clear()
        key = memo_cache_key(task.content_hash(), task.decoder)
        assert ResultCache(str(override)).get(key) is not None

    @pytest.mark.parametrize("entries", [None, 5, {}])
    def test_malformed_memo_record_is_a_miss(self, tmp_path, monkeypatch,
                                             entries):
        # A record with the current schema, kind and task hash but unusable
        # entries must neither crash the run nor change its numbers.
        task = _task(0.01)
        engine = Engine(EngineConfig(backend="serial"))
        ref = engine.run_ler(task, shots=2000, seed=9)
        ex._TASK_MEMO.clear()
        cache = ResultCache(str(tmp_path))
        key = memo_cache_key(task.content_hash(), task.decoder)
        cache.put(key, {"kind": "syndrome_memo",
                        "task_hash": task.content_hash(),
                        "decoder": task.decoder, "entries": entries})
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        got = engine.run_ler(task, shots=2000, seed=9)
        assert (got.failures, got.shots, got.num_shards) \
            == (ref.failures, ref.shots, ref.num_shards)
        pipeline, _ = ex._context_for(task)
        assert pipeline.preloaded_memo_entries == 0
        assert cache.get(key)["entries"]     # rewritten by the run
