"""Golden bytes of every on-disk cache record kind.

Each record kind the engine persists — an LER result, a yield result, a
patch-sample batch and a syndrome memo — is written from fixed seeds and the
sha256 of the file's bytes is pinned.  A change to a record's shape, field
names, number formatting or key derivation changes these digests, which is
exactly what must never happen silently: existing caches on disk would stop
answering (or, worse, answer with a different meaning).
"""

import hashlib

import pytest

import repro.engine.executor as ex
from repro.chiplet.boundary import STANDARD_4
from repro.core import adapt_patch
from repro.engine import (Engine, EngineConfig, LerPointTask, PatchSampleTask,
                          ShotPolicy, YieldTask)
from repro.engine.cache import ResultCache
from repro.engine.executor import ler_cache_key, seeded_task_key
from repro.engine.pipeline import memo_cache_key, memo_preload
from repro.engine.rng import seed_fingerprint
from repro.noise import LINK_AND_QUBIT, DefectSet
from repro.surface_code import RotatedSurfaceCodeLayout

SHARD_SIZE = 500


@pytest.fixture(autouse=True)
def _clean_memo_state(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SYNDROME_CACHE", raising=False)
    memo_preload(None)
    ex._TASK_MEMO.clear()
    yield
    memo_preload(None)
    ex._TASK_MEMO.clear()


def _engine(tmp_path):
    return Engine(EngineConfig(backend="serial", shard_size=SHARD_SIZE,
                               cache_dir=str(tmp_path)))


def _digest(cache: ResultCache, key: str) -> str:
    return hashlib.sha256(cache.path_for(key).read_bytes()).hexdigest()


def _ler_task():
    patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    return LerPointTask.from_patch("memory", patch, 0.01)


def _yield_tasks():
    std = STANDARD_4.with_target(5)
    base = dict(chiplet_size=7, defect_model_kind=LINK_AND_QUBIT,
                defect_rate=0.01, samples=40, target_distance=5)
    return [YieldTask(allow_rotation=True, **base),
            YieldTask(boundary=(std.name, std.require_no_deformation,
                                std.all_edges, std.target_distance), **base)]


class TestGoldenRecordBytes:
    def test_adaptive_multi_shard_ler_record(self, tmp_path):
        task = _ler_task()
        policy = ShotPolicy.adaptive(4000, min_shots=1000, target_failures=60)
        result = _engine(tmp_path).run_ler(task, policy=policy, seed=7)
        assert result.num_shards > 1
        key = ler_cache_key(task, 7, policy, SHARD_SIZE)
        assert _digest(ResultCache(tmp_path), key) == GOLDEN["ler"]

    def test_yield_records_with_rotation_and_boundary(self, tmp_path):
        engine = _engine(tmp_path)
        cache = ResultCache(tmp_path)
        for task, name in zip(_yield_tasks(), ("yield_rotation",
                                               "yield_boundary")):
            engine.run_yield(task, seed=11)
            key = seeded_task_key(task, seed_fingerprint(11))
            assert _digest(cache, key) == GOLDEN[name], name

    def test_patch_sample_record(self, tmp_path):
        task = PatchSampleTask(size=5, defect_model_kind=LINK_AND_QUBIT,
                               defect_rate=0.02, num_patches=3)
        assert len(_engine(tmp_path).sample_patches(task, seed=5)) == 3
        key = seeded_task_key(task, seed_fingerprint(5))
        assert _digest(ResultCache(tmp_path), key) == GOLDEN["patches"]

    def test_syndrome_memo_record(self, tmp_path):
        memo_preload(str(tmp_path))
        task = _ler_task()
        Engine(EngineConfig(backend="serial", shard_size=SHARD_SIZE)
               ).run_ler(task, shots=1500, seed=3)
        key = memo_cache_key(task.content_hash(), task.decoder)
        assert _digest(ResultCache(tmp_path), key) == GOLDEN["memo"]


GOLDEN = {
    "ler":
        "a58593a571cc7a2a7d51334c51f39779a19a174d160f7b4d34ee6286f407cf21",
    "yield_rotation":
        "49b9a59fd754c22901c3dbd0be792452cd7d192704e90c3e93cab4919e2d70bc",
    "yield_boundary":
        "64f26f648049f4aaed0bdd6445cc305aeb909ad3492e68e350bb7f1ee0353468",
    "patches":
        "51d6facee9bb7f6e5b34c3fa48f91984a6e0261f1a82ed469a957244af72314b",
    "memo":
        "cd31bcc7e6787fa670c56f46cd10b2fd64fb28189ac9b4b7c2bd2ed823495d4d",
}
