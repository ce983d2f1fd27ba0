"""Sparse extraction and the fired-shot tally agree with the dense views.

:meth:`~repro.stabilizer.packed.PackedDetectorSamples.fired_detectors` and
``flipped_observables`` scan packed words and build tuples only for shots
that fired; :meth:`~repro.engine.pipeline.DecodingPipeline.decode_samples`
counts empty-syndrome failures from the observable words and compares
predictions on fired shots only.  These tests pin both against the dense
``.detectors`` / ``.observables`` copies and a per-shot tally, on random
unaligned ranges, empty windows, circuits without detectors or observables,
and shot counts that are not a multiple of 64.
"""

import numpy as np
import pytest

from repro.core.adaptation import adapt_patch
from repro.decoder import MwpmDecoder
from repro.engine import pipeline as pipeline_mod
from repro.engine.pipeline import DecodingPipeline
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.noise.fabrication import DefectSet
from repro.stabilizer.bitpack import pack_rows
from repro.stabilizer.circuit import Circuit
from repro.stabilizer.dem import build_detector_error_model
from repro.stabilizer.packed import PackedDetectorSamples, PackedFrameSimulator
from repro.surface_code.circuits import build_memory_circuit
from repro.surface_code.layout import RotatedSurfaceCodeLayout


def _dense_tuples(dense, start, stop):
    return [tuple(np.flatnonzero(row).tolist()) for row in dense[start:stop]]


def _samples(rows, obs_rows, shots, density, seed):
    """Random packed samples: ``density`` of the bits set, tails zero."""
    rng = np.random.default_rng(seed)

    def words(n):
        bits = rng.random((n, shots)) < density
        return pack_rows(bits) if n else np.zeros((0, -(-shots // 64)), np.uint64)

    return PackedDetectorSamples(words(rows), words(obs_rows), shots)


def _assert_matches_dense(samples, start, stop):
    assert samples.fired_detectors(start, stop) == _dense_tuples(
        samples.detectors, start, stop)
    assert samples.flipped_observables(start, stop) == _dense_tuples(
        samples.observables, start, stop)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shots", [1, 63, 64, 65, 200, 1000])
@pytest.mark.parametrize("density", [0.0, 0.003, 0.05, 0.5])
def test_random_ranges_match_dense_views(shots, density):
    samples = _samples(37, 3, shots, density, seed=shots)
    rng = np.random.default_rng(shots + 1)
    ranges = [(0, shots), (0, 0), (shots, shots)]
    for _ in range(25):
        a, b = sorted(rng.integers(0, shots + 1, size=2).tolist())
        ranges.append((a, b))
    for start, stop in ranges:
        _assert_matches_dense(samples, start, stop)


@pytest.mark.parametrize("rows, obs_rows", [(0, 2), (5, 0), (0, 0)])
def test_zero_detectors_or_observables(rows, obs_rows):
    samples = _samples(rows, obs_rows, 130, 0.2, seed=rows + obs_rows)
    for start, stop in [(0, 130), (3, 70), (64, 64), (65, 129)]:
        _assert_matches_dense(samples, start, stop)
        assert len(samples.fired_detectors(start, stop)) == stop - start


def test_all_empty_window_inside_busy_words():
    """Set bits on both sides of a range never leak into it."""
    shots = 256
    bits = np.zeros((4, shots), dtype=bool)
    bits[:, :70] = True
    bits[:, 140:] = True
    samples = PackedDetectorSamples(pack_rows(bits), pack_rows(bits[:1]), shots)
    assert samples.fired_detectors(70, 140) == [()] * 70
    assert samples.flipped_observables(70, 140) == [()] * 70
    _assert_matches_dense(samples, 69, 141)


def test_sampled_circuit_matches_dense_views():
    circuit = build_memory_circuit(
        adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of()),
        CircuitNoiseModel.standard(0.01), 3)
    samples = PackedFrameSimulator(circuit, seed=5).sample(333)
    for start, stop in [(0, 333), (1, 332), (100, 101), (64, 128)]:
        _assert_matches_dense(samples, start, stop)


def test_out_of_range_rejected():
    samples = _samples(3, 1, 10, 0.5, seed=0)
    with pytest.raises(ValueError):
        samples.fired_detectors(5, 11)
    with pytest.raises(ValueError):
        samples.flipped_observables(6, 5)


# ----------------------------------------------------------------------
# Tally
# ----------------------------------------------------------------------
def _per_shot_tally(samples, decoder):
    """Failures and empty shots counted shot by shot from the dense views."""
    detectors, observables = samples.detectors, samples.observables
    failures = empty = 0
    for fired, flipped in zip(detectors, observables):
        fired = np.flatnonzero(fired).tolist()
        empty += not fired
        failures += decoder.decode_fired(fired) != set(np.flatnonzero(flipped).tolist())
    return failures, empty


def _circuit_without_observables():
    c = Circuit(3)
    c.append("X_ERROR", [0, 1, 2], 0.2)
    c.append("M", [0, 1, 2])
    c.append("DETECTOR", [0, 1])
    c.append("DETECTOR", [1, 2])
    return c


def _circuit_without_detectors():
    c = Circuit(2)
    c.append("X_ERROR", [0, 1], 0.2)
    c.append("M", [0, 1])
    c.append("OBSERVABLE_INCLUDE", [0], 0)
    c.append("OBSERVABLE_INCLUDE", [0, 1], 1)
    return c


def _memory(p):
    patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    return build_memory_circuit(patch, CircuitNoiseModel.standard(p), 3)


@pytest.mark.parametrize("circuit", [
    _memory(0.004), _memory(0.03), _circuit_without_observables(),
    _circuit_without_detectors()],
    ids=["memory-low-p", "memory-high-p", "no-observables", "no-detectors"])
def test_chunk_sizes_give_identical_failures_and_empty_shots(circuit,
                                                             monkeypatch):
    shots = 1001
    decoder = MwpmDecoder(build_detector_error_model(circuit))
    samples = PackedFrameSimulator(circuit, seed=9).sample(shots)
    expected = _per_shot_tally(samples, decoder)
    for chunk in (1, 63, 64, 65, 1000):
        monkeypatch.setattr(pipeline_mod, "CHUNK_SHOTS", chunk)
        stats = DecodingPipeline(circuit, decoder).decode_samples(samples)
        assert (stats.failures, stats.empty_shots) == expected, chunk
        assert stats.chunks == -(-shots // chunk)
