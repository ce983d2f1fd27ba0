"""Property tests: batched/deduplicated decoding is bit-identical to the
per-shot reference, with and without observables.

:func:`repro.decoder.reference.reference_mwpm_decode` is the frozen
pre-pipeline per-shot MWPM algorithm (fresh Dijkstra sweep over the fired
detectors, fresh networkx matching graph, dict-counted path parities).  The
batched decoder must reproduce it exactly on every shot of every random
batch.
"""

import numpy as np
import pytest

from repro.decoder import MatchingGraph, MwpmDecoder
from repro.decoder.reference import reference_mwpm_decode as _reference_mwpm_decode
from repro.stabilizer.dem import DemError, DetectorErrorModel


# ----------------------------------------------------------------------
# DEM fixtures
# ----------------------------------------------------------------------
def _line_dem(n=6, p=0.05, with_observables=True):
    obs = (0,) if with_observables else ()
    errors = [DemError(p, (0,), obs), DemError(p, (n - 1,), ())]
    for i in range(n - 1):
        errors.append(DemError(p, (i, i + 1), (1,) if with_observables and i == 2 else ()))
    num_obs = 2 if with_observables else 0
    return DetectorErrorModel(num_detectors=n, num_observables=num_obs, errors=errors)


def _grid_dem(rows=3, cols=4, p=0.03, with_observables=True, seed=5):
    """A 2-D grid of detectors; left/right columns connect to the boundary."""
    rng = np.random.default_rng(seed)
    errors = []
    def idx(r, c):
        return r * cols + c
    for r in range(rows):
        errors.append(DemError(p, (idx(r, 0),), (0,) if with_observables else ()))
        errors.append(DemError(p, (idx(r, cols - 1),), ()))
        for c in range(cols - 1):
            obs = (1,) if with_observables and rng.random() < 0.3 else ()
            errors.append(DemError(float(rng.uniform(0.01, 0.2)),
                                   (idx(r, c), idx(r, c + 1)), obs))
    for r in range(rows - 1):
        for c in range(cols):
            errors.append(DemError(float(rng.uniform(0.01, 0.2)),
                                   (idx(r, c), idx(r + 1, c)), ()))
    num_obs = 2 if with_observables else 0
    return DetectorErrorModel(rows * cols, num_obs, errors)


def _memory_dem(distance=3, p=0.004):
    from repro.core.adaptation import adapt_patch
    from repro.noise.circuit_noise import CircuitNoiseModel
    from repro.noise.fabrication import DefectSet
    from repro.stabilizer.dem import build_detector_error_model
    from repro.surface_code.circuits import build_memory_circuit
    from repro.surface_code.layout import RotatedSurfaceCodeLayout

    patch = adapt_patch(RotatedSurfaceCodeLayout(distance), DefectSet.of())
    circuit = build_memory_circuit(patch, CircuitNoiseModel.standard(p), distance)
    return build_detector_error_model(circuit)


def _fired(batch):
    """Per-shot fired-detector index tuples of a dense boolean batch."""
    return [tuple(int(i) for i in np.flatnonzero(row)) for row in batch]


def _parity(prediction):
    """Observable parity set of a dense reference prediction."""
    return frozenset(int(i) for i in np.flatnonzero(prediction))


def _random_batch(num_detectors, shots, rng, density=0.15):
    batch = rng.random((shots, num_detectors)) < density
    # Force duplicates and empties into the batch so dedup paths are hit.
    if shots >= 4:
        batch[shots // 2] = batch[0]
        batch[shots // 2 + 1] = False
    return batch


DEMS = [
    pytest.param(_line_dem(with_observables=True), id="line-obs"),
    pytest.param(_line_dem(with_observables=False), id="line-no-obs"),
    pytest.param(_grid_dem(with_observables=True), id="grid-obs"),
    pytest.param(_grid_dem(with_observables=False), id="grid-no-obs"),
]


# ----------------------------------------------------------------------
# Bit-identity properties
# ----------------------------------------------------------------------
class TestMwpmBatchBitIdentity:
    @pytest.mark.parametrize("dem", DEMS)
    def test_matches_reference_on_random_batches(self, dem):
        graph = MatchingGraph(dem)
        decoder = MwpmDecoder(graph)
        rng = np.random.default_rng(11)
        for _ in range(3):
            batch = _random_batch(dem.num_detectors, 24, rng)
            result = decoder.decode_fired_batch(_fired(batch))
            for s in range(batch.shape[0]):
                expected = _reference_mwpm_decode(graph, batch[s])
                assert result[s] == _parity(expected), s

    def test_matches_reference_on_circuit_dem(self):
        dem = _memory_dem()
        graph = MatchingGraph(dem)
        decoder = MwpmDecoder(graph)
        rng = np.random.default_rng(23)
        batch = _random_batch(dem.num_detectors, 32, rng, density=0.05)
        result = decoder.decode_fired_batch(_fired(batch))
        for s in range(batch.shape[0]):
            expected = _reference_mwpm_decode(graph, batch[s])
            assert result[s] == _parity(expected), s

    @pytest.mark.parametrize("dem", DEMS)
    def test_single_shot_decode_matches_reference(self, dem):
        graph = MatchingGraph(dem)
        decoder = MwpmDecoder(graph)
        rng = np.random.default_rng(3)
        for _ in range(20):
            syndrome = rng.random(dem.num_detectors) < 0.2
            assert decoder.decode_fired(np.flatnonzero(syndrome)) == _parity(
                _reference_mwpm_decode(graph, syndrome))


# ----------------------------------------------------------------------
# Dedup / caching behaviour
# ----------------------------------------------------------------------
class TestDedupMachinery:
    def test_empty_batch_never_touches_dijkstra(self):
        graph = MatchingGraph(_line_dem())
        decoder = MwpmDecoder(graph)
        decoder.decode_fired_batch(_fired(np.zeros((50, 6), dtype=bool)))
        assert graph.cache_stats()["geodesic_sources"] == 0
        assert decoder.decoded_syndromes == 0

    def test_one_decode_per_distinct_syndrome(self):
        decoder = MwpmDecoder(MatchingGraph(_line_dem()))
        batch = np.zeros((40, 6), dtype=bool)
        batch[::2, 1] = True
        batch[::2, 2] = True
        batch[1::4, 0] = True
        batch[0, 0] = True  # one shot upgraded to {0, 1, 2}
        result = decoder.decode_fired_batch(_fired(batch))
        assert len(result) == 40
        # Three distinct non-empty syndromes: {1,2}, {0,1,2}, {0}.
        assert decoder.decoded_syndromes == 3

    def test_one_dijkstra_sweep_per_distinct_fired_detector(self):
        graph = MatchingGraph(_line_dem())
        decoder = MwpmDecoder(graph)
        rng = np.random.default_rng(2)
        batch = rng.random((64, 6)) < 0.3
        decoder.decode_fired_batch(_fired(batch))
        fired_ever = {int(d) for row in batch for d in np.flatnonzero(row)}
        assert graph.cache_stats()["geodesic_sources"] == len(fired_ever)

    def test_cross_batch_memo_hits(self):
        decoder = MwpmDecoder(MatchingGraph(_line_dem()))
        batch = [(2,)] * 8
        decoder.decode_fired_batch(batch)
        first = decoder.decoded_syndromes
        decoder.decode_fired_batch(batch)
        assert decoder.decoded_syndromes == first  # all memo hits
        assert decoder.memo_hits > 0

    def test_memo_limit_zero_disables_cross_batch_memo(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYNDROME_CACHE", "0")
        decoder = MwpmDecoder(MatchingGraph(_line_dem()))
        batch = [(2,)] * 4
        decoder.decode_fired_batch(batch)
        decoder.decode_fired_batch(batch)
        # Decoded once per batch (within-batch dedup still applies).
        assert decoder.decoded_syndromes == 2

    def test_full_memo_evicts_fifo_and_keeps_admitting(self, monkeypatch):
        # Regression: the memo used to stop admitting entries once full,
        # degrading a long varied run to a permanently stale cache with
        # zero admission — recent syndromes could never hit again.
        monkeypatch.setenv("REPRO_SYNDROME_CACHE", "2")
        decoder = MwpmDecoder(MatchingGraph(_line_dem()))
        s1, s2, s3 = (0,), (1,), (2,)
        decoder.decode_fired(s1)
        decoder.decode_fired(s2)
        decoder.decode_fired(s3)            # cap hit: evicts s1 (oldest)
        assert decoder.decoded_syndromes == 3
        assert decoder.memo_evictions == 1
        hits_before = decoder.memo_hits
        decoder.decode_fired(s3)            # admitted past the cap -> hit
        decoder.decode_fired(s2)
        assert decoder.memo_hits == hits_before + 2
        decoder.decode_fired(s1)            # was evicted -> decoded again
        assert decoder.decoded_syndromes == 4
        assert decoder.memo_evictions == 2
        assert len(decoder._syndrome_memo) == 2

    def test_memo_hits_keep_rising_past_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYNDROME_CACHE", "4")
        decoder = MwpmDecoder(MatchingGraph(_line_dem()))
        for wave in range(6):
            # A sliding window of distinct syndromes, each seen twice: the
            # second visit must always hit even though the workload has
            # cycled far past the cap.
            syndrome = (wave % 6,)
            decoder.decode_fired(syndrome)
            before = decoder.memo_hits
            decoder.decode_fired(syndrome)
            assert decoder.memo_hits == before + 1, wave

    def test_predictions_identical_across_evictions(self, monkeypatch):
        big = MwpmDecoder(MatchingGraph(_line_dem()))   # default-sized memo
        monkeypatch.setenv("REPRO_SYNDROME_CACHE", "1")
        tiny = MwpmDecoder(MatchingGraph(_line_dem()))
        rng = np.random.default_rng(77)
        fired = _fired(rng.random((32, 6)) < 0.25)
        assert tiny.decode_fired_batch(fired) == big.decode_fired_batch(fired)
        assert tiny.memo_evictions > 0

    def test_fired_batch_matches_per_shot_decode(self):
        decoder_a = MwpmDecoder(MatchingGraph(_line_dem()))
        decoder_b = MwpmDecoder(MatchingGraph(_line_dem()))
        rng = np.random.default_rng(9)
        sparse = _fired(rng.random((16, 6)) < 0.25)
        parities = decoder_b.decode_fired_batch(sparse)
        for s, parity in enumerate(parities):
            assert parity == decoder_a.decode_fired(sparse[s]), s

    def test_integer_ndarray_index_lists_via_decode_fired_batch(self):
        # np.flatnonzero output per shot routes through decode_fired_batch.
        decoder = MwpmDecoder(MatchingGraph(_line_dem()))
        dense = np.zeros((2, 6), dtype=bool)
        dense[0, 3] = True
        dense[1, 0] = True
        dense[1, 2] = True
        parities = decoder.decode_fired_batch([np.flatnonzero(r) for r in dense])
        b = MwpmDecoder(MatchingGraph(_line_dem())).decode_fired_batch(
            _fired(dense))
        assert parities == b


# ----------------------------------------------------------------------
# Boundary-surrogate fallback handling (the fixed silent-continue bug)
# ----------------------------------------------------------------------
class TestBoundaryFallback:
    def _orphan_dem(self):
        """Detectors 0,1 reach the boundary; 2,3 form an isolated component
        whose connecting edge flips observable 0."""
        return DetectorErrorModel(4, 1, [
            DemError(0.1, (0,), ()),
            DemError(0.1, (0, 1), ()),
            DemError(0.1, (1,), ()),
            DemError(0.1, (2, 3), (0,)),
        ])

    def test_orphan_component_gets_one_fallback_anchor(self):
        graph = MatchingGraph(self._orphan_dem())
        assert graph._fallback_edges == frozenset({2})
        assert np.isfinite(graph.pair_distance(2, graph.boundary))
        assert np.isfinite(graph.pair_distance(3, graph.boundary))

    def test_isolated_detector_correction_not_dropped(self):
        # Detector 3 fires alone: its only route to the boundary runs over
        # the real (2,3) edge to the component anchor, so the observable it
        # carries must be applied.  The historical decoder silently skipped
        # the walk and predicted no flip.
        decoder = MwpmDecoder(MatchingGraph(self._orphan_dem()))
        assert decoder.decode_fired((3,)) == frozenset({0})

    def test_anchor_detector_matches_boundary_directly(self):
        decoder = MwpmDecoder(MatchingGraph(self._orphan_dem()))
        assert decoder.decode_fired((2,)) == frozenset()

    def test_orphan_pair_still_matches_internally(self):
        decoder = MwpmDecoder(MatchingGraph(self._orphan_dem()))
        assert decoder.decode_fired((2, 3)) == frozenset({0})

    def test_boundary_connected_dems_gain_no_fallback_edges(self):
        assert MatchingGraph(_line_dem())._fallback_edges == frozenset()
        assert MatchingGraph(_memory_dem())._fallback_edges == frozenset()


# ----------------------------------------------------------------------
# Path-parity cache semantics (set-XOR / frozenset satellite)
# ----------------------------------------------------------------------
class TestPathParityCache:
    def test_parity_is_hashable_frozenset(self):
        graph = MatchingGraph(_line_dem())
        parity = graph.path_parity(0, graph.boundary)
        assert isinstance(parity, frozenset)
        assert parity == frozenset({0})
        # Cached object is reused allocation-free.
        assert graph.path_parity(graph.boundary, 0) is parity

    def test_parity_xor_cancels_even_traversals(self):
        # Edge (2,3) carries observable 1 in the line DEM; a path crossing
        # it twice would cancel.  Here we check odd counting end to end:
        graph = MatchingGraph(_line_dem())
        assert graph.path_parity(2, 3) == frozenset({1})
        assert graph.path_parity(1, 4) == frozenset({1})
        assert graph.path_parity(1, 2) == frozenset()
