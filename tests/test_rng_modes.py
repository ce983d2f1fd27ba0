"""Bitgen fast-RNG mode: determinism, invariances, statistics, task wiring.

The bitgen sampler draws noise as combined raw ``uint64`` words plus a
thinning correction (see :mod:`repro.stabilizer.packed`).  It is a *second*
deterministic stream, not a reordering of the exact one, so the suite pins:

* determinism per seed, and bit-identity across the fused (no-trace),
  stepwise (trace) and row-block-split execution shapes — stronger than
  exact mode, whose guarantee is only fused == stepwise;
* ghost-lane hygiene (whole-word draws never leak beyond ``shots``);
* the fixed-seed output words of a d = 3 memory circuit, with and without
  a bad qubit (bitgen has no reference loop, so a digest stands in);
* coarse-mask probability and end-to-end channel frequencies against
  analytic values, plus Wilson-CI agreement with exact mode on a real
  surface-code LER point;
* the task-spec plumbing: ``rng_mode`` validation, content-hash and cache
  separation from exact mode, payload round-trips (``"exact"`` payloads
  omit the field, so pre-existing hashes are untouched).
"""

import hashlib

import numpy as np
import pytest

import repro.stabilizer.packed as packed_mod
from repro.analysis.stats import wilson_interval
from repro.core import adapt_patch
from repro.engine import Engine, EngineConfig, LerPointTask
from repro.engine.cache import ResultCache
from repro.engine.executor import ler_cache_key
from repro.engine.scheduler import ShotPolicy
from repro.engine.tasks import CutoffCellTask, task_from_payload
from repro.experiments.cutoff import center_data_qubit
from repro.noise import DefectSet
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.service.specs import normalize_spec
from repro.stabilizer import Circuit, PackedFrameSimulator
from repro.stabilizer.bitpack import popcount
from repro.stabilizer.packed import (
    RNG_MODES,
    _BITGEN_K,
    _compile_bitgen_channel,
    _tail_mask,
)
from repro.surface_code import RotatedSurfaceCodeLayout
from repro.surface_code.circuits import build_memory_circuit


def _noisy_circuit(p=0.01) -> Circuit:
    """Every instruction family the sampler implements, bitgen-relevant."""
    c = Circuit(6)
    c.append("R", [0, 1, 2, 3])
    c.append("RX", [4, 5])
    c.append("X_ERROR", [0, 1], p)
    c.append("Z_ERROR", [4], p)
    c.append("Y_ERROR", [2], p)
    c.append("DEPOLARIZE1", [3], p)
    c.append("H", [1])
    c.append("S", [2])
    c.append("CX", [0, 3, 1, 2])
    c.append("CZ", [4, 5])
    c.append("DEPOLARIZE2", [0, 1], p)
    c.append("MR", [3])
    c.append("M", [0, 1])
    c.append("MX", [4])
    c.append("DETECTOR", [0])
    c.append("DETECTOR", [1, 2])
    c.append("M", [2])
    c.append("OBSERVABLE_INCLUDE", [3], 0)
    return c


def _d3_circuit(p=0.002) -> Circuit:
    patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    task = LerPointTask.from_patch("memory", patch, p)
    return task.build_circuit()


# ----------------------------------------------------------------------
# Sampler-level contracts
# ----------------------------------------------------------------------
class TestBitgenSampler:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="rng_mode"):
            PackedFrameSimulator(_noisy_circuit(), rng_mode="fast")

    def test_modes_tuple(self):
        assert RNG_MODES == ("exact", "bitgen")

    def test_deterministic_per_seed(self):
        c = _noisy_circuit()
        a = PackedFrameSimulator(c, seed=7, rng_mode="bitgen").sample(515)
        b = PackedFrameSimulator(c, seed=7, rng_mode="bitgen").sample(515)
        assert np.array_equal(a.detectors_packed, b.detectors_packed)
        assert np.array_equal(a.observables_packed, b.observables_packed)

    def test_different_seeds_differ(self):
        c = _d3_circuit(0.02)
        a = PackedFrameSimulator(c, seed=1, rng_mode="bitgen").sample(2000)
        b = PackedFrameSimulator(c, seed=2, rng_mode="bitgen").sample(2000)
        assert not np.array_equal(a.detectors_packed, b.detectors_packed)

    def test_differs_from_exact_stream(self):
        c = _d3_circuit(0.02)
        a = PackedFrameSimulator(c, seed=3, rng_mode="bitgen").sample(2000)
        b = PackedFrameSimulator(c, seed=3, rng_mode="exact").sample(2000)
        assert not np.array_equal(a.detectors_packed, b.detectors_packed)

    def test_reseed_reproduces(self):
        sim = PackedFrameSimulator(_d3_circuit(), seed=5, rng_mode="bitgen")
        a = sim.sample(700)
        b = sim.reseed(5).sample(700)
        assert np.array_equal(a.detectors_packed, b.detectors_packed)

    def test_trace_path_bit_identical(self):
        # Stepwise (trace) programs split fused channel runs per
        # instruction; the bitgen word stream is consumed per *row*, so the
        # samples must not move.  Exact mode has the same guarantee; bitgen
        # earns it through the dual-stream design.
        c = _noisy_circuit()
        fused = PackedFrameSimulator(c, seed=11, rng_mode="bitgen").sample(515)
        calls = []
        traced = PackedFrameSimulator(c, seed=11, rng_mode="bitgen").sample(
            515, trace=lambda i, inst, x, z, m: calls.append(i))
        assert calls  # the hook really fired
        assert np.array_equal(fused.detectors_packed, traced.detectors_packed)
        assert np.array_equal(fused.observables_packed,
                              traced.observables_packed)

    def test_block_split_bit_identical(self, monkeypatch):
        # Shrinking _BLOCK_BYTES forces multi-block channel execution;
        # per-row word consumption keeps the samples bit-identical.
        c = _d3_circuit(0.02)
        big = PackedFrameSimulator(c, seed=13, rng_mode="bitgen").sample(3000)
        monkeypatch.setattr(packed_mod, "_BLOCK_BYTES", 1 << 12)
        small = PackedFrameSimulator(c, seed=13, rng_mode="bitgen").sample(3000)
        assert np.array_equal(big.detectors_packed, small.detectors_packed)
        assert np.array_equal(big.observables_packed, small.observables_packed)

    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 515])
    def test_ghost_lanes_stay_clear(self, shots):
        # Whole-word draws must never leak frame bits beyond `shots`.
        s = PackedFrameSimulator(_noisy_circuit(0.4), seed=17,
                                 rng_mode="bitgen").sample(shots)
        tail = _tail_mask(shots)
        for rows in (s.detectors_packed, s.observables_packed):
            if rows.size:
                assert not np.any(rows[:, -1] & ~tail)
        # popcount-based consumers therefore see real shots only.
        assert 0.0 <= s.detection_fraction() <= 1.0

    @pytest.mark.parametrize("bad_p, digest", [
        (None, "cf4d9c0de493b239ebd1ecf8ceceedebb23f248e73b9e33c31d595c7ee57641c"),
        (0.1, "0bce38d098b20c8ee5ac072d8dd97bf92df682002372549ac4fc2120fd691fb8"),
    ])
    def test_fixed_seed_words_pinned(self, bad_p, digest):
        # Bitgen has no reference loop to agree with, so its output words
        # are pinned: a kernel refactor that moves any variate, flip or
        # stream draw changes the digest.  The bad qubit puts a 0.1-rate
        # row inside fused ops of 0.004-rate rows.
        noise = CircuitNoiseModel.standard(0.004)
        if bad_p is not None:
            noise = noise.with_bad_qubit(center_data_qubit(3), bad_p)
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        c = build_memory_circuit(patch, noise, 3)
        s = PackedFrameSimulator(c, seed=2024, rng_mode="bitgen").sample(1000)
        got = hashlib.sha256(s.detectors_packed.tobytes()
                             + s.observables_packed.tobytes()).hexdigest()
        assert got == digest


class TestBitgenStatistics:
    def test_compile_channel_p_hi_dominates(self):
        p = np.array([0.0, 1e-6, 1e-3, 0.01, 0.3, 0.5, 1.0 - 1e-9, 1.0])
        mbits, full, p_hi, ubits = _compile_bitgen_channel(p)
        assert mbits.shape == (_BITGEN_K, p.size)
        assert np.all(p_hi >= p)           # thinning can only reject
        assert np.all(p_hi - p <= 2.0 ** -_BITGEN_K + 1e-12)
        assert ubits is None               # mixed probabilities
        assert full is not None and bool(full[-1])  # p=1 saturates

    def test_compile_channel_uniform_fast_path(self):
        mbits, full, p_hi, ubits = _compile_bitgen_channel(
            np.full(7, 1e-3))
        assert ubits is not None and len(ubits) == _BITGEN_K
        assert full is None
        # The tuple is exactly the per-row bit columns.
        assert list(ubits) == [bool(b) for b in mbits[:, 0]]

    def test_coarse_mask_frequency(self):
        # X_ERROR(p) directly flips a measured-and-detected qubit: the
        # detection fraction estimates p.  0.3 exercises a dense-ish m
        # with plenty of set and clear bits at K=12.
        p, shots = 0.3, 1 << 15
        c = Circuit(1)
        c.append("R", [0])
        c.append("X_ERROR", [0], p)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        s = PackedFrameSimulator(c, seed=23, rng_mode="bitgen").sample(shots)
        got = popcount(s.detectors_packed) / shots
        assert abs(got - p) < 4 * np.sqrt(p * (1 - p) / shots)

    def test_dep1_pauli_split(self):
        # DEPOLARIZE1(p) on a measured qubit flips M iff the Pauli has an X
        # component (X or Y): detection fraction ~ 2p/3 — this pins the
        # thinning-residual Pauli arithmetic, not just the hit rate.
        p, shots = 0.3, 1 << 15
        c = Circuit(1)
        c.append("R", [0])
        c.append("DEPOLARIZE1", [0], p)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        s = PackedFrameSimulator(c, seed=29, rng_mode="bitgen").sample(shots)
        want = 2 * p / 3
        got = popcount(s.detectors_packed) / shots
        assert abs(got - want) < 4 * np.sqrt(want * (1 - want) / shots)

    def test_ler_wilson_ci_agreement(self):
        # End-to-end statistical equivalence on a real surface-code point:
        # the bitgen failure rate must land inside (an overlap of) the
        # exact-mode Wilson interval.  Fixed seeds keep this deterministic.
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        eng = Engine(EngineConfig(backend="serial"))
        shots = 30000
        cis = {}
        for mode in ("exact", "bitgen"):
            task = LerPointTask.from_patch("memory", patch, 0.005,
                                           rng_mode=mode)
            res = eng.run_ler(task, shots=shots, seed=20240427)
            cis[mode] = wilson_interval(res.failures, res.shots)
        (lo_e, hi_e), (lo_b, hi_b) = cis["exact"], cis["bitgen"]
        assert lo_e <= hi_b and lo_b <= hi_e, f"CIs disjoint: {cis}"


# ----------------------------------------------------------------------
# Task-spec plumbing: hashes, cache separation, payload round-trips
# ----------------------------------------------------------------------
def _tasks(p=0.002):
    patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    return (LerPointTask.from_patch("memory", patch, p),
            LerPointTask.from_patch("memory", patch, p, rng_mode="bitgen"))


class TestRngModeTaskField:
    def test_invalid_mode_rejected(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        with pytest.raises(ValueError, match="rng_mode"):
            LerPointTask.from_patch("memory", patch, 0.002, rng_mode="turbo")

    def test_content_hashes_never_collide(self):
        exact, bitgen = _tasks()
        assert exact.content_hash() != bitgen.content_hash()

    def test_exact_payload_omits_field(self):
        # Backward compatibility: every pre-existing payload/hash/cache
        # record predates rng_mode, so the default must not change them.
        exact, bitgen = _tasks()
        assert "rng_mode" not in exact.payload()
        assert bitgen.payload()["rng_mode"] == "bitgen"

    def test_payload_round_trip(self):
        exact, bitgen = _tasks()
        for t in (exact, bitgen):
            back = task_from_payload(t.kind, t.payload())
            assert back == t
            assert back.content_hash() == t.content_hash()
        legacy = exact.payload()
        assert task_from_payload("ler_point", legacy).rng_mode == "exact"

    def test_cutoff_cell_round_trip(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        task = CutoffCellTask.from_patch("memory", patch, 0.002,
                                         rng_mode="bitgen")
        assert task.payload()["rng_mode"] == "bitgen"
        back = task_from_payload("cutoff_cell", task.payload())
        assert back == task and back.strategy == "disable"
        other = CutoffCellTask.from_patch("memory", patch, 0.002)
        assert other.content_hash() != task.content_hash()

    def test_service_spec_preserves_mode(self):
        _, bitgen = _tasks()
        spec = normalize_spec({"kind": "ler", "task_kind": bitgen.kind,
                               "task": bitgen.payload(),
                               "policy": ShotPolicy.fixed(64).payload(),
                               "seed": 5})
        assert spec["task"]["rng_mode"] == "bitgen"
        rebuilt = task_from_payload(spec["task_kind"], spec["task"])
        assert rebuilt == bitgen

    def test_cache_records_never_collide(self, tmp_path):
        # Same parameters, same seed, same policy: the two modes must land
        # in *distinct* on-disk records holding their own numbers.
        exact, bitgen = _tasks()
        eng = Engine(EngineConfig(backend="serial",
                                  cache_dir=str(tmp_path)))
        r_exact = eng.run_ler(exact, shots=2000, seed=20240427)
        r_bitgen = eng.run_ler(bitgen, shots=2000, seed=20240427)

        policy = ShotPolicy.fixed(2000)
        seed = np.random.SeedSequence(20240427)
        k_exact = ler_cache_key(exact, seed, policy, eng.config.shard_size)
        k_bitgen = ler_cache_key(bitgen, seed, policy, eng.config.shard_size)
        assert k_exact != k_bitgen

        cache = ResultCache(str(tmp_path))
        rec_exact, rec_bitgen = cache.get(k_exact), cache.get(k_bitgen)
        assert rec_exact is not None and rec_bitgen is not None
        assert rec_exact["failures"] == r_exact.failures
        assert rec_bitgen["failures"] == r_bitgen.failures
        # Warm rerun of either mode replays its own record.
        assert eng.run_ler(bitgen, shots=2000,
                           seed=20240427).failures == r_bitgen.failures

    def test_exact_fixed_seed_regression_unchanged(self):
        # The paper-reproduction pin: bitgen's arrival must not move the
        # exact stream (d=3: 28 failures at p=2e-3, seed 20240427, 4000
        # shots — same count PR 3 froze).
        exact, _ = _tasks()
        eng = Engine(EngineConfig(backend="serial"))
        assert eng.run_ler(exact, shots=4000, seed=20240427).failures == 28
