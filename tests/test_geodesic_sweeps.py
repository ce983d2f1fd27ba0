"""Batched geodesic sweeps give the rows of per-source undirected Dijkstra.

:class:`~repro.decoder.matching.MatchingGraph` fills the geodesic rows of a
batch's new detectors with one *directed* multi-source Dijkstra call over
its symmetric adjacency.  The decoder's parities (and so every tally) read
those rows, so they must equal — distances and predecessors — the rows of
one undirected sweep per source, which is what the frozen reference
decoder computes.
"""

from functools import lru_cache

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.core import adapt_patch, evaluate_patch
from repro.decoder import MatchingGraph, MwpmDecoder
from repro.decoder import matching
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.noise.fabrication import LINK_AND_QUBIT, LINK_ONLY, DefectModel, DefectSet
from repro.stabilizer.dem import build_detector_error_model
from repro.surface_code.circuits import build_memory_circuit
from repro.surface_code.layout import RotatedSurfaceCodeLayout


@lru_cache(maxsize=None)
def _graph(distance, kind):
    """Matching graph of a defect-free (``kind=None``) or seeded adapted patch."""
    layout = RotatedSurfaceCodeLayout(distance)
    if kind is None:
        patch = adapt_patch(layout, DefectSet.of())
    else:
        rng = np.random.default_rng(distance)
        while True:
            defects = DefectModel(kind, 0.02).sample(layout, rng)
            patch = adapt_patch(layout, defects)
            if (not defects.is_empty() and patch.valid
                    and evaluate_patch(patch).distance >= 2):
                break
    circuit = build_memory_circuit(patch, CircuitNoiseModel.standard(1e-3), distance)
    return MatchingGraph(build_detector_error_model(circuit))


@pytest.mark.parametrize("distance", [3, 5, 7, 9])
@pytest.mark.parametrize("kind", [None, LINK_ONLY, LINK_AND_QUBIT],
                         ids=["defect-free", "link-only", "link-and-qubit"])
def test_batched_directed_rows_equal_per_source_undirected_rows(distance, kind):
    graph = _graph(distance, kind)
    adjacency = graph.adjacency
    assert (adjacency != adjacency.T).nnz == 0
    rng = np.random.default_rng(distance)
    sources = rng.permutation(graph.num_detectors)[:120].tolist()
    graph.prefetch_geodesics(sources)
    for source in sources:
        dist, pred = dijkstra(adjacency, directed=False, indices=[source],
                              return_predecessors=True)
        row, row_pred = graph.geodesics_from(source)
        assert np.array_equal(row, dist[0]), source
        assert np.array_equal(row_pred, pred[0]), source


def _counting_dijkstra(monkeypatch):
    calls = []
    real = matching.dijkstra

    def counted(*args, **kwargs):
        calls.append(kwargs.get("indices"))
        return real(*args, **kwargs)

    monkeypatch.setattr(matching, "dijkstra", counted)
    return calls


def test_new_syndromes_of_a_batch_cost_one_dijkstra_call(monkeypatch):
    graph = MatchingGraph(build_detector_error_model(build_memory_circuit(
        adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of()),
        CircuitNoiseModel.standard(1e-3), 5)))
    decoder = MwpmDecoder(graph)
    calls = _counting_dijkstra(monkeypatch)
    batch = [(), (3,), (3, 40), (7, 8, 9), (), (3, 40), (30, 31, 50, 51)]
    decoder.decode_fired_batch(batch)
    assert len(calls) == 1
    assert sorted(calls[0]) == sorted({d for key in batch for d in key})
    # Known syndromes, and new ones over known detectors, sweep nothing.
    decoder.decode_fired_batch([(3, 40), (3, 7, 8), (9,)])
    assert len(calls) == 1
    # A batch with one new detector sweeps just that one.
    decoder.decode_fired_batch([(3, 41)])
    assert calls[1:] == [[41]]
