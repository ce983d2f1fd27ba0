"""Packed frame simulation against the frozen per-target reference loop.

The packed simulator must consume the RNG stream exactly like the frozen
loop in :mod:`repro.stabilizer.reference` and hold a bit-identical frame
after **every** instruction — that is what keeps the pipeline's tallies
bit-identical across sampler changes.  The ``trace`` hooks on both expose
the frame after each instruction.

The suite pins the simulator against that loop for every instruction
family, on both flip-mask strategies (sparse below ``_SPARSE_P_MAX``, dense
above), on the fused no-trace path and the stepwise trace path, at shot
counts straddling the 64-bit word boundary, and on circuits with duplicate
targets and chained two-qubit pairs (the fancy-indexing hazard cases).
"""

import numpy as np
import pytest

from repro.stabilizer import Circuit, PackedFrameSimulator
from repro.stabilizer.bitpack import (
    num_words,
    pack_bits,
    pack_rows,
    popcount,
    unpack_bits,
)
from repro.stabilizer.packed import _SPARSE_P_MAX
from repro.stabilizer.reference import reference_packed_sample


def _noisy_circuit(p=0.1) -> Circuit:
    """Exercise every instruction the simulators implement."""
    c = Circuit(6)
    c.append("R", [0, 1, 2, 3])
    c.append("RX", [4, 5])
    c.append("X_ERROR", [0, 1], p)
    c.append("Z_ERROR", [4], p)
    c.append("Y_ERROR", [2], p)
    c.append("DEPOLARIZE1", [3], p)
    c.append("H", [1])
    c.append("S", [2])
    c.append("X", [0])
    c.append("Z", [5])
    c.append("CX", [0, 3, 1, 2])
    c.append("CZ", [4, 5])
    c.append("DEPOLARIZE2", [0, 1], p)
    c.append("TICK")
    c.append("MR", [3])
    c.append("M", [0, 1])
    c.append("MX", [4])
    c.append("DETECTOR", [0])
    c.append("DETECTOR", [1, 2])
    c.append("M", [2])
    c.append("OBSERVABLE_INCLUDE", [4], 0)
    c.append("OBSERVABLE_INCLUDE", [3], 1)
    return c


def _memory_circuit(distance=3, p=0.005):
    from repro.core.adaptation import adapt_patch
    from repro.noise.circuit_noise import CircuitNoiseModel
    from repro.noise.fabrication import DefectSet
    from repro.surface_code.circuits import build_memory_circuit
    from repro.surface_code.layout import RotatedSurfaceCodeLayout

    patch = adapt_patch(RotatedSurfaceCodeLayout(distance), DefectSet.of())
    return build_memory_circuit(patch, CircuitNoiseModel.standard(p), distance)


class TestBitpack:
    @pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 200])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n)
        bits = rng.random(n) < 0.4
        packed = pack_bits(bits)
        assert packed.shape == (num_words(n),)
        assert packed.dtype == np.uint64
        assert np.array_equal(unpack_bits(packed, n), bits)
        assert popcount(packed) == int(bits.sum())

    def test_roundtrip_matrix(self):
        rng = np.random.default_rng(0)
        bits = rng.random((5, 130)) < 0.5
        assert np.array_equal(unpack_bits(pack_bits(bits), 130), bits)

    def test_padding_bits_are_zero(self):
        packed = pack_bits(np.ones(3, dtype=bool))
        assert popcount(packed) == 3

    @pytest.mark.parametrize("shape", [(1,), (17,), (5, 9), (3, 1), (128,)])
    def test_popcount_fast_path_matches_fallback(self, shape):
        """The np.bitwise_count fast path (numpy >= 2.0) and the
        unpackbits fallback must count bit-identically on any word
        pattern, including all-ones and empty words."""
        from repro.stabilizer import bitpack

        rng = np.random.default_rng(42)
        words = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        words.flat[0] = 0
        words.flat[-1] = np.uint64(2**64 - 1)
        expected = bitpack._popcount_unpack(np.ascontiguousarray(words))
        assert popcount(words) == expected
        if bitpack._HAS_BITWISE_COUNT:
            assert int(np.bitwise_count(words).sum()) == expected

    def test_popcount_fallback_used_when_bitwise_count_missing(self, monkeypatch):
        """Pre-2.0 numpy takes the unpackbits path and counts identically."""
        from repro.stabilizer import bitpack

        words = np.random.default_rng(7).integers(0, 2**64, size=33,
                                                  dtype=np.uint64)
        with_fast = popcount(words)
        monkeypatch.setattr(bitpack, "_HAS_BITWISE_COUNT", False)
        assert popcount(words) == with_fast

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_pack_rows_matches_per_row_pack_bits(self, n):
        rng = np.random.default_rng(n)
        bits = rng.random((7, n)) < 0.3
        rows = pack_rows(bits)
        assert rows.shape == (7, num_words(n))
        assert rows.dtype == np.uint64
        for i in range(7):
            assert np.array_equal(rows[i], pack_bits(bits[i])), i
        assert np.array_equal(unpack_bits(rows, n), bits)

    def test_pack_rows_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pack_rows(np.ones(8, dtype=bool))
        with pytest.raises(ValueError):
            pack_rows(np.ones((2, 3, 4), dtype=bool))


class TestPackedSamples:
    def test_shapes_and_views(self):
        circuit = _memory_circuit()
        samples = PackedFrameSimulator(circuit, seed=3).sample(70)
        assert samples.num_shots == 70
        assert samples.detectors.shape == (70, circuit.num_detectors)
        assert samples.observables.shape == (70, circuit.num_observables)

    def test_sparse_extraction_matches_dense(self):
        circuit = _memory_circuit(p=0.01)
        samples = PackedFrameSimulator(circuit, seed=5).sample(150)
        dense = samples.detectors
        fired = samples.fired_detectors()
        assert len(fired) == 150
        for s in range(150):
            assert fired[s] == tuple(np.flatnonzero(dense[s]))
        # Windowed extraction (word-unaligned boundaries).
        window = samples.fired_detectors(67, 131)
        for i, s in enumerate(range(67, 131)):
            assert window[i] == tuple(np.flatnonzero(dense[s]))
        obs_window = samples.flipped_observables(1, 150)
        dense_obs = samples.observables
        for i, s in enumerate(range(1, 150)):
            assert obs_window[i] == tuple(np.flatnonzero(dense_obs[s]))

    def test_detection_fraction_matches_dense(self):
        circuit = _memory_circuit(p=0.01)
        samples = PackedFrameSimulator(circuit, seed=6).sample(100)
        want = reference_packed_sample(circuit, 100, seed=6)
        assert np.array_equal(samples.detectors, want.detectors)
        assert samples.detection_fraction() == pytest.approx(
            want.detectors.mean())

    def test_range_validation(self):
        circuit = _memory_circuit()
        samples = PackedFrameSimulator(circuit, seed=1).sample(10)
        with pytest.raises(ValueError):
            samples.fired_detectors(5, 11)
        assert samples.fired_detectors(4, 4) == []

    @pytest.mark.parametrize("shots", [63, 64, 65])
    def test_sparse_extraction_at_word_boundaries(self, shots):
        """Shot counts straddling the 64-bit word edge, including windows
        that start past word 0 (``word_lo > 0``)."""
        circuit = _memory_circuit(p=0.02)
        samples = PackedFrameSimulator(circuit, seed=shots).sample(shots)
        dense = samples.detectors
        assert samples.fired_detectors() == [
            tuple(np.flatnonzero(dense[s])) for s in range(shots)]
        windows = [(0, shots), (0, 63), (shots - 1, shots), (shots, shots)]
        if shots >= 65:
            windows += [(64, shots), (64, 65), (63, 65)]
        for start, stop in windows:
            got = samples.fired_detectors(start, stop)
            assert got == [tuple(np.flatnonzero(dense[s]))
                           for s in range(start, stop)], (start, stop)

    def test_windows_past_first_word(self):
        circuit = _memory_circuit(p=0.02)
        samples = PackedFrameSimulator(circuit, seed=3).sample(200)
        dense_obs = samples.observables
        for start, stop in [(64, 128), (65, 129), (128, 200), (129, 191)]:
            got = samples.flipped_observables(start, stop)
            assert got == [tuple(np.flatnonzero(dense_obs[s]))
                           for s in range(start, stop)], (start, stop)


class TestZeroShotContract:
    """``sample(0)`` is representable in engine shard math: the simulator
    returns an empty sample instead of raising; negatives still raise."""

    def test_packed_zero_shots_empty(self):
        circuit = _memory_circuit()
        samples = PackedFrameSimulator(circuit, seed=1).sample(0)
        assert samples.num_shots == 0
        assert samples.detectors_packed.shape == (circuit.num_detectors, 0)
        assert samples.observables_packed.shape == (circuit.num_observables, 0)
        assert samples.detectors.shape == (0, circuit.num_detectors)
        assert samples.fired_detectors() == []
        assert samples.flipped_observables() == []
        assert samples.detection_fraction() == 0.0

    def test_unpacked_zero_shots_empty(self):
        # The dense shot-major views the frozen references and the decoder
        # benchmark read must be empty boolean arrays of the right width.
        circuit = _memory_circuit()
        samples = PackedFrameSimulator(circuit, seed=1).sample(0)
        assert samples.detectors.shape == (0, circuit.num_detectors)
        assert samples.observables.shape == (0, circuit.num_observables)
        assert samples.detectors.dtype == bool
        assert samples.observables.dtype == bool

    def test_zero_shots_consume_no_rng_state(self):
        circuit = _noisy_circuit()
        plain = PackedFrameSimulator(circuit, seed=8).sample(33)
        sim = PackedFrameSimulator(circuit, seed=8)
        sim.sample(0)
        after_empty = sim.sample(33)
        assert np.array_equal(plain.detectors_packed, after_empty.detectors_packed)

    def test_negative_shots_raise(self):
        with pytest.raises(ValueError):
            PackedFrameSimulator(_noisy_circuit()).sample(-1)


def _duplicate_target_circuit(p=0.2) -> Circuit:
    """Duplicate targets and chained pairs: every fancy-indexing hazard.

    Sequential per-target semantics (the frozen reference loop) are the
    ground truth; buffered fancy indexing would silently drop or misorder these
    updates without the dedup/grouping logic.
    """
    c = Circuit(5)
    c.append("R", [0, 1, 2, 3, 4])
    c.append("X_ERROR", [0, 0, 1], p)          # duplicate noise target
    c.append("Y_ERROR", [2, 2], p)             # even dup: flips may cancel
    c.append("DEPOLARIZE1", [3, 3, 0], p)
    c.append("H", [1, 1, 2])                   # even dup = identity on 1
    c.append("S", [2, 2, 0])
    c.append("CX", [0, 1, 1, 2, 2, 3])         # chained pairs (RAW hazards)
    c.append("CZ", [0, 1, 1, 2])               # chained CZ
    c.append("CX", [0, 1, 2, 3, 0, 4])         # qubit 0 controls twice
    c.append("DEPOLARIZE2", [0, 1, 1, 2], p)   # pair chain shares qubit 1
    c.append("M", [0, 0, 1])                   # repeated measurement
    c.append("MR", [2, 2])                     # repeated measure-reset
    c.append("MX", [4, 4])
    c.append("DETECTOR", [0, 1])
    c.append("DETECTOR", [])                   # empty detector: all-zero row
    c.append("DETECTOR", [3, 4, 3])            # duplicate measurement ref
    c.append("OBSERVABLE_INCLUDE", [5, 5, 6], 0)
    return c


class TestVectorisedAgainstFrozenReference:
    """The vectorised dispatch must be bit-identical to the frozen
    per-target loop for every instruction family, on both flip-mask
    strategies and both execution paths (fused and stepwise)."""

    # p values on both sides of the sparse/dense strategy threshold.
    PS = [0.004, _SPARSE_P_MAX, 0.05, 0.3]

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 130])
    def test_fused_path_matches_reference(self, p, shots):
        circuit = _noisy_circuit(p)
        got = PackedFrameSimulator(circuit, seed=17).sample(shots)
        want = reference_packed_sample(circuit, shots, seed=17)
        assert np.array_equal(got.detectors_packed, want.detectors_packed)
        assert np.array_equal(got.observables_packed, want.observables_packed)

    @pytest.mark.parametrize("p,shots", [
        (0.004, 70), (0.3, 70),
        (0.1, 1), (0.1, 7), (0.1, 64), (0.1, 130),   # word-boundary cases
    ])
    def test_stepwise_trace_matches_reference_per_instruction(self, p, shots):
        circuit = _noisy_circuit(p)
        got, want = [], []
        PackedFrameSimulator(circuit, seed=23).sample(
            shots, trace=lambda i, inst, x, z, m: got.append((i, inst.name, x, z, m)))
        reference_packed_sample(
            circuit, shots, seed=23,
            trace=lambda i, inst, x, z, m: want.append((i, inst.name, x, z, m)))
        assert len(got) == len(want) == len(circuit)
        for (i, name, px, pz, pm), (_, _, rx, rz, rm) in zip(got, want):
            assert np.array_equal(px, rx), f"X diverged after {i}:{name}"
            assert np.array_equal(pz, rz), f"Z diverged after {i}:{name}"
            assert np.array_equal(pm, rm), f"meas diverged after {i}:{name}"

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("shots", [1, 64, 130])
    def test_duplicate_targets_and_chained_pairs(self, p, shots):
        circuit = _duplicate_target_circuit(p)
        got = PackedFrameSimulator(circuit, seed=31).sample(shots)
        want = reference_packed_sample(circuit, shots, seed=31)
        assert np.array_equal(got.detectors_packed, want.detectors_packed)
        assert np.array_equal(got.observables_packed, want.observables_packed)

    def test_memory_circuit_agreement(self):
        circuit = _memory_circuit()
        for shots in (1, 64, 257):
            want = reference_packed_sample(circuit, shots, seed=7)
            got = PackedFrameSimulator(circuit, seed=7).sample(shots)
            assert np.array_equal(got.detectors_packed, want.detectors_packed)
            assert np.array_equal(got.observables_packed,
                                  want.observables_packed)

    def test_memory_circuit_matches_reference_at_low_p(self):
        circuit = _memory_circuit(p=0.001)
        got = PackedFrameSimulator(circuit, seed=41).sample(300)
        want = reference_packed_sample(circuit, 300, seed=41)
        assert np.array_equal(got.detectors_packed, want.detectors_packed)
        assert np.array_equal(got.observables_packed, want.observables_packed)

    @pytest.mark.parametrize("name,targets,arg", [
        ("DEPOLARIZE2", (0, 1, 2, 3), 0.015060604154043557),  # clip-edge p
        ("X_ERROR", (0, 1, 2), 0.004),
        ("Z_ERROR", (0, 2), 0.004),
        ("Y_ERROR", (1,), 0.004),
        ("DEPOLARIZE1", (0, 1, 2), 0.004),
        ("DEPOLARIZE2", (0, 1, 2, 3), 0.004),
        ("X_ERROR", (0, 1, 2), 0.4),
        ("DEPOLARIZE1", (0, 1, 2), 0.4),
        ("DEPOLARIZE2", (0, 1, 2, 3), 0.4),
        ("H", (0, 1, 2), 0.0),
        ("S", (1, 2), 0.0),
        ("CX", (0, 1, 2, 3), 0.0),
        ("CZ", (0, 3), 0.0),
        ("R", (0, 1), 0.0),
        ("RX", (2,), 0.0),
    ])
    def test_single_instruction_families(self, name, targets, arg):
        """One instruction of each family after a noisy warm-up frame."""
        c = Circuit(4)
        c.append("R", [0, 1, 2, 3])
        c.append("DEPOLARIZE1", [0, 1, 2, 3], 0.5)  # populate the frame
        c.append(name, targets, arg)
        c.append("M", [0, 1, 2, 3])
        c.append("DETECTOR", [0])
        c.append("DETECTOR", [1, 2])
        c.append("OBSERVABLE_INCLUDE", [3], 0)
        got = PackedFrameSimulator(c, seed=5).sample(130)
        want = reference_packed_sample(c, 130, seed=5)
        assert np.array_equal(got.detectors_packed, want.detectors_packed)
        assert np.array_equal(got.observables_packed, want.observables_packed)


class _ConstantRng:
    """Stub generator: every draw returns one fixed value (fills ``out=``)."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None, out=None):
        if out is not None:
            out[...] = self.value
            return out
        return np.full(size, self.value)


class TestDepolarize2ClipEdge:
    """A draw within 1 ulp below p can round ``r / (p/15)`` to exactly 15.0;
    the frozen reference clips the Pauli code to 14 (Z⊗Z) and the vectorised
    kernels must match instead of silently dropping the error."""

    P_EDGE = 0.015060604154043557

    @pytest.mark.parametrize("scale", [1, 2])  # sparse (p <= 0.02) and dense
    def test_edge_draw_applies_zz(self, scale):
        p = self.P_EDGE * scale
        r = float(np.nextafter(p, 0))
        assert r < p and r / (p / 15) == 15.0  # the FP edge this test pins
        c = Circuit(2)
        c.append("R", [0, 1])
        c.append("DEPOLARIZE2", [0, 1], p)
        c.append("MX", [0, 1])  # X-basis measurement records the Z frame
        c.append("DETECTOR", [0])
        c.append("DETECTOR", [1])
        sim = PackedFrameSimulator(c, seed=0)
        sim.rng = _ConstantRng(r)
        got = sim.sample(1)
        assert got.fired_detectors() == [(0, 1)]
