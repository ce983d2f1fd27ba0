"""Tests for the MWPM decoder."""

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
        assert dec.decode_fired(()) == frozenset()

    def test_single_interior_error_corrected(self):
        dec = MwpmDecoder(_line_dem())
        # An error on edge (1,2) fires detectors 1 and 2 and flips no observable.
        assert dec.decode_fired((1, 2)) == frozenset()

    def test_boundary_error_flips_observable(self):
        dec = MwpmDecoder(_line_dem())
        # The left boundary error fires only detector 0 and flips the observable.
        assert dec.decode_fired((0,)) == frozenset({0})

    def test_right_boundary_error_no_observable(self):
        dec = MwpmDecoder(_line_dem())
        assert dec.decode_fired((3,)) == frozenset()

    def test_two_errors_matched_pairwise(self):
        dec = MwpmDecoder(_line_dem(n=6))
        # Errors on edges (0,1) and (3,4): four detectors fire; the decoder
        # should pair them up locally and predict no logical flip.
        assert dec.decode_fired((0, 1, 3, 4)) == frozenset()

    def test_batch_decoding(self):
        dec = MwpmDecoder(_line_dem())
        assert dec.decode_fired_batch([(0,), (1, 2), ()]) == [
            frozenset({0}), frozenset(), frozenset()]

    def test_unsorted_fired_indices_are_canonicalised(self):
        dec = MwpmDecoder(_line_dem(n=6))
        assert dec.decode_fired((4, 3, 1, 0)) == dec.decode_fired((0, 1, 3, 4))
        assert dec.decoded_syndromes == 1

    def test_odd_number_of_fired_detectors_uses_boundary(self):
        dec = MwpmDecoder(_line_dem())
        # Three detectors fired: one must match the boundary.
        assert dec.decode_fired((0, 1, 2)) <= frozenset({0})
