"""Enumerated matching is bit-identical to the reference.

:class:`~repro.decoder.matching.MwpmDecoder` scores every pairing of a
syndrome with at most ``MAX_K`` fired detectors (one and two in closed
form), splits heavier syndromes into separable clusters of at most
``MAX_K`` and enumerates those, and falls back to networkx blossom only for
genuine ties and clusters larger than ``MAX_K``.  These tests pin every
path against the frozen per-shot
:func:`~repro.decoder.reference.reference_mwpm_decode`: exhaustively for
every weight-1 and weight-2 syndrome of d=3/5/7 memory DEMs, on random
syndromes of seeded adapted patches up to d=9 and weight ``2 * MAX_K``, and
on hand-built exact ties, split syndromes and oversized clusters.
"""

import math
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import adapt_patch, evaluate_patch
from repro.decoder import MatchingGraph, MwpmDecoder
from repro.decoder.matching import MAX_K, _pairing_table
from repro.decoder.reference import reference_mwpm_decode
from repro.engine.pipeline import DecodingPipeline
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.noise.fabrication import LINK_AND_QUBIT, LINK_ONLY, DefectModel, DefectSet
from repro.stabilizer.dem import (DemError, DetectorErrorModel,
                                  build_detector_error_model)
from repro.surface_code.circuits import build_memory_circuit
from repro.surface_code.layout import RotatedSurfaceCodeLayout

_P = 1e-3


def _adapted_patch(distance, kind, seed, rate=0.02):
    """The first usable adapted patch (valid, distance >= 2, some defect)."""
    layout = RotatedSurfaceCodeLayout(distance)
    model = DefectModel(kind, rate)
    rng = np.random.default_rng(seed)
    while True:
        defects = model.sample(layout, rng)
        if defects.is_empty():
            continue
        patch = adapt_patch(layout, defects)
        if patch.valid and evaluate_patch(patch).distance >= 2:
            return patch


@lru_cache(maxsize=None)
def _memory_circuit(distance, kind=None, seed=0):
    """Memory circuit of a defect-free (``kind=None``) or adapted patch."""
    if kind is None:
        patch = adapt_patch(RotatedSurfaceCodeLayout(distance), DefectSet.of())
    else:
        patch = _adapted_patch(distance, kind, seed)
    return build_memory_circuit(patch, CircuitNoiseModel.standard(_P), distance)


@lru_cache(maxsize=None)
def _memory_graph(distance, kind=None, seed=0):
    circuit = _memory_circuit(distance, kind, seed)
    return MatchingGraph(build_detector_error_model(circuit))


def _reference(graph, fired):
    dense = np.zeros(graph.num_detectors, dtype=bool)
    dense[list(fired)] = True
    return frozenset(np.flatnonzero(reference_mwpm_decode(graph, dense)).tolist())


# ----------------------------------------------------------------------
# Pairing tables
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k, count", [(1, 1), (2, 2), (3, 4), (4, 10), (5, 26),
                                      (6, 76), (7, 232), (8, 764), (9, 2620),
                                      (10, 9496)])
def test_pairing_table_lists_every_pairing_once(k, count):
    table, partners = _pairing_table(k)
    assert table.shape == partners.shape == (count, k)
    assert len({row.tobytes() for row in partners}) == count
    own = np.arange(k)
    # Each row is an involution: partners of partners are the detectors.
    assert (np.take_along_axis(partners, partners.astype(np.intp), axis=1) == own).all()
    assert (partners[0] == own).all()
    costs = np.arange(k * (k + 1), dtype=float).reshape(k, k + 1)
    costs[0, 0] = 0.0
    for row, pairing in zip(table, partners):
        expected = sum(costs[i, k if j == i else j]
                       for i, j in enumerate(pairing) if j >= i)
        assert costs.ravel()[row].sum() == expected


# ----------------------------------------------------------------------
# Exhaustive weight-1/2 bit-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("distance", [3, 5, 7])
@pytest.mark.parametrize("kind", [None, LINK_AND_QUBIT], ids=["defect-free", "adapted"])
def test_every_weight_one_and_two_syndrome_matches_reference(distance, kind):
    graph = _memory_graph(distance, kind)
    decoder = MwpmDecoder(graph)
    detectors = range(graph.num_detectors)
    for fired in [(d,) for d in detectors] + list(combinations(detectors, 2)):
        assert decoder.decode_fired(fired) == _reference(graph, fired), fired


# ----------------------------------------------------------------------
# Random syndromes on seeded adapted patches: both paths
# ----------------------------------------------------------------------
def _needs_blossom(graph, fired):
    """Whether the routing rule sends a syndrome to blossom.

    At most ``MAX_K`` detectors: when the enumerator sees a tie.  Above:
    when a cluster is larger than ``MAX_K`` or a cluster, enumerated on its
    own, sees a tie.
    """
    decoder = MwpmDecoder(graph)
    fired = tuple(sorted(fired))
    rows = [graph.geodesics_from(d)[0] for d in fired]
    if len(fired) <= MAX_K:
        return decoder._enumerated(fired, rows) is None
    clusters = decoder._clusters(fired, rows)
    if max(map(len, clusters)) > MAX_K:
        return True
    return any(decoder._enumerated(tuple(fired[i] for i in members),
                                   [rows[i] for i in members]) is None
               for members in clusters)


def _assert_separable(graph, fired, clusters):
    """Pairs across clusters cost and flip what two boundary matches do."""
    fired = tuple(sorted(fired))
    boundary = graph.boundary
    label = {i: c for c, members in enumerate(clusters) for i in members}
    assert sorted(label) == list(range(len(fired)))
    for i, j in combinations(range(len(fired)), 2):
        if label[i] == label[j]:
            continue
        u, v = fired[i], fired[j]
        apart = graph.pair_distance(u, boundary) + graph.pair_distance(v, boundary)
        assert graph.pair_distance(u, v) == pytest.approx(apart, rel=1e-9)
        assert graph.path_parity(u, v) == (graph.path_parity(u, boundary)
                                           ^ graph.path_parity(v, boundary))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_random_syndromes_on_adapted_patches_match_reference(data):
    distance = data.draw(st.sampled_from([3, 5, 7, 9]), label="distance")
    kind = data.draw(st.sampled_from([LINK_ONLY, LINK_AND_QUBIT]), label="kind")
    seed = data.draw(st.integers(0, 2), label="seed")
    graph = _memory_graph(distance, kind, seed)
    weight = data.draw(st.integers(1, min(2 * MAX_K, graph.num_detectors)),
                       label="weight")
    fired = data.draw(st.lists(st.integers(0, graph.num_detectors - 1),
                               min_size=weight, max_size=weight, unique=True),
                      label="fired")
    decoder = MwpmDecoder(graph)
    assert decoder.decode_fired(fired) == _reference(graph, fired)
    assert decoder.blossom_calls == _needs_blossom(graph, fired)
    if weight > MAX_K:
        key = tuple(sorted(fired))
        rows = [graph.geodesics_from(d)[0] for d in key]
        _assert_separable(graph, key, decoder._clusters(key, rows))


def test_syndromes_above_max_k_take_blossom_only_for_ties_or_large_clusters():
    graph = _memory_graph(5)
    decoder = MwpmDecoder(graph)
    fired = tuple(range(0, 2 * (MAX_K + 1), 2))
    assert decoder.decode_fired(fired) == _reference(graph, fired)
    assert decoder.blossom_calls == _needs_blossom(graph, fired)


# ----------------------------------------------------------------------
# A genuine tie
# ----------------------------------------------------------------------
def _tie_dem(p=0.01, p_boundary=1e-4):
    """A square 0-1-2-3-0 of equally likely edges; only 0-1 flips observable 0.

    Syndrome {0, 1, 2, 3} has two minimum-weight pairings of equal cost,
    (0-1, 2-3) flipping observable 0 and (1-2, 3-0) flipping nothing.
    Every detector also reaches the boundary, through a much less likely
    edge, so no boundary match competes.
    """
    errors = [DemError(p, (0, 1), (0,)), DemError(p, (1, 2), ()),
              DemError(p, (2, 3), ()), DemError(p, (3, 0), ())]
    errors += [DemError(p_boundary, (d,), ()) for d in range(4)]
    return DetectorErrorModel(num_detectors=4, num_observables=1, errors=errors)


def test_tie_with_different_parities_falls_back_to_blossom():
    graph = MatchingGraph(_tie_dem())
    decoder = MwpmDecoder(graph)
    fired = (0, 1, 2, 3)
    rows = [graph.geodesics_from(d)[0] for d in fired]
    assert decoder._enumerated(fired, rows) is None
    assert decoder.decode_fired(fired) == _reference(graph, fired)
    assert decoder.blossom_calls == 1


# ----------------------------------------------------------------------
# Cluster split above MAX_K
# ----------------------------------------------------------------------
def _with_boundary_singletons(dem, count, p=0.02):
    """``dem`` plus ``count`` detectors that only reach the boundary.

    Every other one flips observable 0 on its boundary edge.  Such a
    detector is its own cluster: its only path to anything else runs
    through the boundary.
    """
    n = dem.num_detectors
    errors = list(dem.errors) + [DemError(p * (1 + i / 10), (n + i,), (0,) if i % 2 else ())
                                 for i in range(count)]
    return DetectorErrorModel(num_detectors=n + count,
                              num_observables=dem.num_observables, errors=errors)


def _groups_dem(groups=3, size=4):
    """``groups`` disjoint chains of ``size`` detectors, no exact ties.

    Chain edges are likely and each detector's boundary edge is not, so
    every chain is one cluster; weights differ everywhere, so no two
    pairings cost the same.
    """
    rng = np.random.default_rng(4)
    errors = []
    for g in range(groups):
        base = g * size
        for i in range(size):
            errors.append(DemError(float(rng.uniform(1e-4, 1e-3)), (base + i,),
                                   (0,) if i == 0 else ()))
            if i + 1 < size:
                errors.append(DemError(float(rng.uniform(5e-3, 5e-2)),
                                       (base + i, base + i + 1), (0,) if i % 2 else ()))
    return DetectorErrorModel(num_detectors=groups * size, num_observables=1,
                              errors=errors)


def test_tie_inside_a_separable_cluster_reaches_blossom():
    graph = MatchingGraph(_with_boundary_singletons(_tie_dem(), MAX_K))
    decoder = MwpmDecoder(graph)
    fired = tuple(range(graph.num_detectors))
    rows = [graph.geodesics_from(d)[0] for d in fired]
    clusters = decoder._clusters(fired, rows)
    assert sorted(map(len, clusters)) == [1] * MAX_K + [4]
    assert decoder.decode_fired(fired) == _reference(graph, fired)
    assert decoder.blossom_calls == 1


def test_pair_as_cheap_as_the_boundary_but_of_other_parity_stays_linked():
    """Detectors 0 and 1 cost (almost) the same paired or sent to the
    boundary, but only their edge flips observable 0: splitting them would
    hide that tie from blossom."""
    p_boundary = 0.1
    w_pair = 2 * math.log((1 - p_boundary) / p_boundary) - 1e-12
    pair = DetectorErrorModel(num_detectors=2, num_observables=1, errors=[
        DemError(p_boundary, (0,), ()), DemError(p_boundary, (1,), ()),
        DemError(1 / (1 + math.exp(w_pair)), (0, 1), (0,))])
    graph = MatchingGraph(_with_boundary_singletons(pair, MAX_K))
    apart = 2 * graph.pair_distance(0, graph.boundary)
    assert graph.pair_distance(0, 1) < apart
    assert graph.pair_distance(0, 1) == pytest.approx(apart, rel=1e-12)
    assert graph.path_parity(0, 1) == frozenset({0})
    decoder = MwpmDecoder(graph)
    fired = tuple(range(graph.num_detectors))
    rows = [graph.geodesics_from(d)[0] for d in fired]
    assert sorted(map(len, decoder._clusters(fired, rows))) == [1] * MAX_K + [2]
    assert decoder.decode_fired(fired) == _reference(graph, fired)
    assert decoder.blossom_calls == 1


def test_splittable_syndrome_above_max_k_never_reaches_blossom(monkeypatch):
    graph = MatchingGraph(_with_boundary_singletons(_groups_dem(), 3))
    decoder = MwpmDecoder(graph)
    fired = tuple(range(graph.num_detectors))
    assert len(fired) > MAX_K
    expected = _reference(graph, fired)

    def no_blossom(*args):
        raise AssertionError("blossom called for a splittable syndrome")

    monkeypatch.setattr(MwpmDecoder, "_blossom", no_blossom)
    assert decoder.decode_fired(fired) == expected
    assert decoder.blossom_calls == 0
    rows = [graph.geodesics_from(d)[0] for d in fired]
    clusters = decoder._clusters(fired, rows)
    assert sorted(map(len, clusters)) == [1, 1, 1, 4, 4, 4]
    _assert_separable(graph, fired, clusters)


def test_cluster_larger_than_max_k_reaches_blossom():
    graph = MatchingGraph(_groups_dem(groups=1, size=MAX_K + 2))
    decoder = MwpmDecoder(graph)
    fired = tuple(range(graph.num_detectors))
    rows = [graph.geodesics_from(d)[0] for d in fired]
    assert [len(c) for c in decoder._clusters(fired, rows)] == [MAX_K + 2]
    assert decoder.decode_fired(fired) == _reference(graph, fired)
    assert decoder.blossom_calls == 1


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_weight_two_memory_syndromes_never_reach_blossom():
    graph = _memory_graph(5)
    decoder = MwpmDecoder(graph)
    detectors = range(graph.num_detectors)
    decoder.decode_fired_batch([(d,) for d in detectors]
                               + list(combinations(detectors, 2)))
    assert decoder.decoded_syndromes > 0
    assert decoder.blossom_calls == 0


def test_pipeline_stats_report_per_run_blossom_delta():
    circuit = _memory_circuit(3)
    graph = MatchingGraph(build_detector_error_model(circuit))
    decoder = MwpmDecoder(graph)
    decoder.decode_fired(tuple(range(MAX_K + 1)))
    assert decoder.blossom_calls == 1
    stats = DecodingPipeline(circuit, decoder).run(2000, seed=3)
    assert stats.distinct_syndromes > 0
    assert stats.blossom_calls == decoder.blossom_calls - 1
