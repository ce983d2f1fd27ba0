"""Golden bytes of every on-disk cache record kind.

Each record kind the engine persists — an LER result, a yield result, a
patch-sample batch and a syndrome memo — is written from fixed seeds and the
sha256 of the file's bytes is pinned.  The content hashes and canonical
payloads of LER and cutoff-cell specs (which key those records) are pinned
too, including non-default noise: bad qubits, factor overrides and numpy
scalars that the spec constructors must normalise to plain JSON numbers.  A change to a record's shape, field
names, number formatting or key derivation changes these digests, which is
exactly what must never happen silently: existing caches on disk would stop
answering (or, worse, answer with a different meaning).
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import repro.engine.executor as ex
from repro.chiplet.boundary import STANDARD_4
from repro.core import adapt_patch
from repro.engine import (CutoffCellTask, Engine, EngineConfig, LerPointTask,
                          PatchSampleTask, ShotPolicy, YieldTask,
                          task_from_payload)
from repro.engine.cache import ResultCache
from repro.engine.executor import ler_cache_key, seeded_task_key
from repro.engine.pipeline import memo_cache_key, memo_preload
from repro.engine.rng import seed_fingerprint
from repro.engine.tasks import canonical_json
from repro.noise import LINK_AND_QUBIT, CircuitNoiseModel, DefectSet
from repro.surface_code import RotatedSurfaceCodeLayout, StabilityLayout

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


def _ler_specs():
    clean = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    defective = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of(
        qubits=[(5, 5)], links=[((3, 3), (2, 2))]))
    stability = adapt_patch(StabilityLayout(4), DefectSet.of())
    excised = adapt_patch(StabilityLayout(4), DefectSet.of(qubits=[(3, 3)]))
    bad = (CircuitNoiseModel.standard(0.004)
           .with_bad_qubit((np.int64(5), np.int64(3)), np.float32(0.1))
           .with_bad_qubit((3, 3), 0.05))
    overrides = CircuitNoiseModel(p=np.float64(0.003), reset_factor=0.5,
                                  idle_data_factor=0.0)
    keep = CutoffCellTask.from_patch("stability", stability, 0.004,
                                     rounds=5, noise=bad)
    disable = CutoffCellTask.from_patch("stability", excised, 0.004, rounds=5)
    return {
        "ler_default": LerPointTask.from_patch("memory", clean, 0.01),
        "ler_defective_bitgen": LerPointTask.from_patch(
            "memory", defective, 2e-3, rng_mode="bitgen"),
        "ler_noise_overrides": LerPointTask.from_patch(
            "memory", defective, 0.003, rounds=4, noise=overrides),
        "ler_stability_bad_qubits": LerPointTask.from_patch(
            "stability", stability, 0.004, rounds=5, noise=bad),
        "cutoff_keep": replace(keep, strategy="keep",
                               bad_qubit_error_rate=0.1),
        "cutoff_disable": replace(disable, strategy="disable"),
    }


GOLDEN_SPECS = {
    "ler_default": (
        "99b3ebe10af5dc44d975d3c94691ab07aa33d44ce81844d08478d8c11d5746f4",
        '{"decoder":"mwpm","experiment":"memory","faulty_links":[],"fault'
        'y_qubits":[],"layout_kind":"rotated","noise":{"bad_qubits":[],"i'
        'dle_data_factor":0.8,"p":0.01,"readout_factor":0.533333333333333'
        '3,"reset_factor":0.0,"single_qubit_factor":0.8},"physical_error_'
        'rate":0.01,"rounds":3,"size":3}'),
    "ler_defective_bitgen": (
        "0647829b8ea22b3826174334d37516e3d9a2bea95a8ca9b0f20c92d29e7f03d8",
        '{"decoder":"mwpm","experiment":"memory","faulty_links":[[[3,3],['
        '2,2]]],"faulty_qubits":[[5,5]],"layout_kind":"rotated","noise":{'
        '"bad_qubits":[],"idle_data_factor":0.8,"p":0.002,"readout_factor'
        '":0.5333333333333333,"reset_factor":0.0,"single_qubit_factor":0.'
        '8},"physical_error_rate":0.002,"rng_mode":"bitgen","rounds":5,"s'
        'ize":5}'),
    "ler_noise_overrides": (
        "e49f8f816bdc32e86a1d7e8cdf8ef54ec778792b18fe1f7fc7d7df5873a75cf5",
        '{"decoder":"mwpm","experiment":"memory","faulty_links":[[[3,3],['
        '2,2]]],"faulty_qubits":[[5,5]],"layout_kind":"rotated","noise":{'
        '"bad_qubits":[],"idle_data_factor":0.0,"p":0.003,"readout_factor'
        '":0.5333333333333333,"reset_factor":0.5,"single_qubit_factor":0.'
        '8},"physical_error_rate":0.003,"rounds":4,"size":5}'),
    "ler_stability_bad_qubits": (
        "fbbd59db1883c690f2348553f35f012704a3f952bf99781dfda7d653ca512a69",
        '{"decoder":"mwpm","experiment":"stability","faulty_links":[],"fa'
        'ulty_qubits":[],"layout_kind":"stability","noise":{"bad_qubits":'
        '[[[3,3],0.05],[[5,3],0.10000000149011612]],"idle_data_factor":0.'
        '8,"p":0.004,"readout_factor":0.5333333333333333,"reset_factor":0'
        '.0,"single_qubit_factor":0.8},"physical_error_rate":0.004,"round'
        's":5,"size":4}'),
    "cutoff_keep": (
        "4e7dfa80009bce69081baa76be4fe004b8312c4d3d2ccc7ae8930fb9d1f41a52",
        '{"bad_qubit_error_rate":0.1,"decoder":"mwpm","experiment":"stabi'
        'lity","faulty_links":[],"faulty_qubits":[],"layout_kind":"stabil'
        'ity","noise":{"bad_qubits":[[[3,3],0.05],[[5,3],0.10000000149011'
        '612]],"idle_data_factor":0.8,"p":0.004,"readout_factor":0.533333'
        '3333333333,"reset_factor":0.0,"single_qubit_factor":0.8},"physic'
        'al_error_rate":0.004,"rounds":5,"size":4,"strategy":"keep"}'),
    "cutoff_disable": (
        "92be6a75b67928d5cd50004abec0e6825b64263e01fb1de2e734ef5d7d1af889",
        '{"bad_qubit_error_rate":null,"decoder":"mwpm","experiment":"stab'
        'ility","faulty_links":[],"faulty_qubits":[[3,3]],"layout_kind":"'
        'stability","noise":{"bad_qubits":[],"idle_data_factor":0.8,"p":0'
        '.004,"readout_factor":0.5333333333333333,"reset_factor":0.0,"sin'
        'gle_qubit_factor":0.8},"physical_error_rate":0.004,"rounds":5,"s'
        'ize":4,"strategy":"disable"}'),
}


class TestGoldenSpecs:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_content_hash_and_payload(self, name):
        task = _ler_specs()[name]
        digest, payload = GOLDEN_SPECS[name]
        assert canonical_json(task.payload()) == payload
        assert task.content_hash() == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_payload_round_trip(self, name):
        task = _ler_specs()[name]
        digest, payload = GOLDEN_SPECS[name]
        rebuilt = task_from_payload(task.kind, json.loads(payload))
        assert rebuilt == task
        assert rebuilt.content_hash() == digest


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
