"""Tests for the MWPM decoder."""

import numpy as np
import pytest

from repro.decoder import MatchingGraph, MwpmDecoder
from repro.stabilizer.dem import DemError, DetectorErrorModel


def _line_dem(n: int = 4, p: float = 0.05) -> DetectorErrorModel:
    """A 1-D chain of detectors (repetition-code style) with boundary edges.

    Detector i and i+1 are linked by an error; the two chain ends connect to
    the boundary; the left boundary edge flips the logical observable.
    """
    errors = [DemError(p, (0,), (0,)), DemError(p, (n - 1,), ())]
    for i in range(n - 1):
        errors.append(DemError(p, (i, i + 1), ()))
    return DetectorErrorModel(num_detectors=n, num_observables=1, errors=errors)


class TestMatchingGraph:
    def test_edges_and_boundary(self):
        graph = MatchingGraph(_line_dem())
        assert graph.num_detectors == 4
        assert graph.num_edges() == 5
        assert graph.edge_between(0, graph.boundary) is not None
        assert graph.observables_on_edge(0, graph.boundary) == (0,)
        assert graph.observables_on_edge(1, 2) == ()

    def test_rejects_hyperedges(self):
        dem = DetectorErrorModel(3, 0, [DemError(0.1, (0, 1, 2), ())])
        with pytest.raises(ValueError):
            MatchingGraph(dem)

    def test_parallel_edges_keep_most_likely(self):
        dem = DetectorErrorModel(2, 1, [
            DemError(0.01, (0, 1), (0,)),
            DemError(0.2, (0, 1), ()),
        ])
        graph = MatchingGraph(dem)
        assert graph.observables_on_edge(0, 1) == ()


class TestMwpmDecoder:
    def test_empty_syndrome_predicts_nothing(self):
        dec = MwpmDecoder(_line_dem())
        assert not dec.decode(np.zeros(4, dtype=bool)).any()

    def test_single_interior_error_corrected(self):
        dec = MwpmDecoder(_line_dem())
        # An error on edge (1,2) fires detectors 1 and 2 and flips no observable.
        prediction = dec.decode(np.array([False, True, True, False]))
        assert not prediction.any()

    def test_boundary_error_flips_observable(self):
        dec = MwpmDecoder(_line_dem())
        # The left boundary error fires only detector 0 and flips the observable.
        prediction = dec.decode(np.array([True, False, False, False]))
        assert prediction[0]

    def test_right_boundary_error_no_observable(self):
        dec = MwpmDecoder(_line_dem())
        prediction = dec.decode(np.array([False, False, False, True]))
        assert not prediction.any()

    def test_two_errors_matched_pairwise(self):
        dec = MwpmDecoder(_line_dem(n=6))
        # Errors on edges (0,1) and (3,4): four detectors fire; the decoder
        # should pair them up locally and predict no logical flip.
        syndrome = np.array([True, True, False, True, True, False])
        assert not dec.decode(syndrome).any()

    def test_batch_decoding_and_error_count(self):
        dec = MwpmDecoder(_line_dem())
        syndromes = np.array([
            [True, False, False, False],
            [False, True, True, False],
        ])
        result = dec.decode_batch(syndromes)
        assert result.predicted_observables.shape == (2, 1)
        actual = np.array([[True], [False]])
        assert result.logical_error_count(actual) == 0
        actual_wrong = np.array([[False], [True]])
        assert result.logical_error_count(actual_wrong) == 2

    def test_shape_mismatch_rejected(self):
        dec = MwpmDecoder(_line_dem())
        result = dec.decode_batch(np.zeros((2, 4), dtype=bool))
        with pytest.raises(ValueError):
            result.logical_error_count(np.zeros((3, 1), dtype=bool))

    def test_odd_number_of_fired_detectors_uses_boundary(self):
        dec = MwpmDecoder(_line_dem())
        # Three detectors fired: one must match the boundary.
        prediction = dec.decode(np.array([True, True, True, False]))
        assert prediction.shape == (1,)

