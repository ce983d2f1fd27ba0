"""Minimum-weight perfect-matching decoder built on a detector error model.

This replaces PyMatching.  The decoder operates in two stages:

1. :class:`MatchingGraph` turns a graph-like :class:`DetectorErrorModel` into
   a weighted graph whose nodes are detectors plus a single virtual boundary
   node.  Each error mechanism with two detectors becomes an edge between
   them; mechanisms with one detector become edges to the boundary.  Edge
   weights are the usual log-likelihood weights ``w = log((1-p)/p)``, and each
   edge remembers which logical observables it flips.  Detectors whose
   connected component never reaches the boundary get an explicit *fallback*
   edge to it (weight :data:`_MAX_WEIGHT`), so every detector has a finite
   boundary distance and the matching and the post-matching path walk agree
   on what a boundary match means.

   The graph also owns the decoder's *geodesic cache*: single-source Dijkstra
   sweeps (distances + predecessors) are computed lazily, once per source
   detector, and the observable parity of each detector-pair geodesic is
   memoised as a frozenset.  All shots — and all batches — share these
   caches.

2. :class:`MwpmDecoder` decodes *distinct* syndromes (the deduplicating batch
   machinery lives in :class:`~repro.decoder.base.BatchDecoderBase`).  A
   syndrome of ``k`` fired detectors is a perfect-matching problem on the
   fired nodes plus one boundary surrogate each; up to surrogate-surrogate
   pairs, its perfect matchings are the ways to pair some fired detectors
   and send the rest to the boundary (1, 2, 4, 10, 26, 76, 232, 764, 2620
   and 9496 of them for k = 1..10).  For ``k <= MAX_K`` every such pairing
   is scored at once: one numpy gather of cached geodesic distances through
   a precomputed per-``k`` index table, and a row sum.  The predicted
   observable flip is the XOR of the cached path parities of the matched
   pairs.  When every pairing within a relative ``1e-9`` of the minimum
   gives the same parity, that parity is returned — blossom would pick one
   of those pairings, so the answer is the same.  A genuine tie (the
   near-optimal pairings disagree), ``k > MAX_K`` or a non-finite boundary
   distance falls back to a complete graph over the fired detectors solved
   with networkx's blossom implementation (``min_weight_matching``), whose
   matched pairs are XORed the same way.

Decoding a batch therefore performs at most one Dijkstra sweep per distinct
fired detector and one pairing enumeration (rarely a blossom matching) per
distinct syndrome — at low physical error rates, orders of magnitude less
work than the historical shot-by-shot loop, with bit-identical predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from ..stabilizer.dem import DetectorErrorModel
from .base import BatchDecoderBase

__all__ = ["MatchingGraph", "MwpmDecoder"]

_MIN_PROBABILITY = 1e-12
_MAX_WEIGHT = 60.0

#: Largest syndrome weight decoded by enumerating every pairing (9496 of
#: them at k = 10, about 1 ms against 4 ms of blossom); heavier syndromes go
#: to blossom.
MAX_K = 10
# Pairings whose cost is within this relative distance of the minimum count
# as tied with it (blossom's float arithmetic may return any of them).
_TIE_RTOL = 1e-9


def _weight_of(p: float) -> float:
    """Log-likelihood edge weight for an error probability."""
    p = min(max(p, _MIN_PROBABILITY), 0.5 - 1e-9)
    return float(np.log((1.0 - p) / p))


def _partners(k: int) -> np.ndarray:
    """Every pairing of ``k`` detectors as a ``(P, k)`` partner array.

    ``partners[p, i]`` is the detector matched with ``i`` in pairing ``p``,
    or ``i`` itself for a boundary match.  Row 0 matches every detector to
    the boundary.
    """
    if k <= 1:
        return np.zeros((1, k), dtype=np.int8)
    alone = _partners(k - 1)
    blocks = [np.hstack([alone, np.full((len(alone), 1), k - 1, dtype=np.int8)])]
    rest = _partners(k - 2)
    for m in range(k - 1):
        # Detector k - 1 pairs with m; the other k - 2 pair among themselves.
        others = np.array([i for i in range(k - 1) if i != m], dtype=np.int8)
        block = np.empty((len(rest), k), dtype=np.int8)
        block[:, others] = others[rest]
        block[:, m] = k - 1
        block[:, k - 1] = m
        blocks.append(block)
    return np.vstack(blocks)


@lru_cache(maxsize=None)
def _pairing_table(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Partner array of every pairing of ``k`` detectors and its gather table.

    Row ``p`` of the ``(P, k)`` table holds flat indices into the
    row-major ``(k, k + 1)`` cost matrix of :meth:`MwpmDecoder._enumerated`
    (column ``k`` is the boundary): ``i * (k + 1) + j`` for a matched pair
    ``i < j``, ``i * (k + 1) + k`` for a boundary match and 0 — the zero
    distance from detector 0 to itself — for the second end of a pair.
    """
    partners = _partners(k)
    own = np.arange(k)
    table = np.where(partners > own, own * (k + 1) + partners,
                     np.where(partners == own, own * (k + 1) + k, 0))
    table = table.astype(np.intp)
    # Shared by every decoder in the process.
    table.flags.writeable = partners.flags.writeable = False
    return table, partners


@dataclass
class _Edge:
    u: int
    v: int
    weight: float
    probability: float
    observables: Tuple[int, ...]


class MatchingGraph:
    """Weighted detector graph with a virtual boundary node.

    The boundary node has index ``num_detectors``.
    """

    def __init__(self, dem: DetectorErrorModel):
        self.num_detectors = dem.num_detectors
        self.num_observables = dem.num_observables
        self.boundary = dem.num_detectors
        self._edges: Dict[Tuple[int, int], _Edge] = {}

        for err in dem.errors:
            if not err.detectors:
                continue
            if len(err.detectors) == 1:
                u, v = err.detectors[0], self.boundary
            elif len(err.detectors) == 2:
                u, v = err.detectors
            else:
                raise ValueError(
                    "matching graph requires a graph-like DEM; got an error "
                    f"touching {len(err.detectors)} detectors"
                )
            key = (min(u, v), max(u, v))
            candidate = _Edge(key[0], key[1], _weight_of(err.probability),
                              err.probability, err.observables)
            existing = self._edges.get(key)
            # Keep the most likely mechanism for each detector pair; parallel
            # edges with different observable masks are resolved in favour of
            # the lower weight, as PyMatching does.
            if existing is None or candidate.probability > existing.probability:
                self._edges[key] = candidate

        self._build_sparse()
        # Geodesic cache: source -> (distance row, predecessor row) of one
        # Dijkstra sweep, and (u, v) -> frozenset observable parity of the
        # u-v geodesic.  Lazily filled, shared by every shot and batch;
        # growth is bounded by the graph itself (n sweeps of O(n) each,
        # O(n^2) pair parities worst case), and whole graphs are evicted by
        # the executor's per-worker task memo.
        self._geodesic_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._parity_cache: Dict[Tuple[int, int], FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    def _build_sparse(self) -> None:
        n = self.num_detectors + 1
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for (u, v), e in self._edges.items():
            rows.extend((u, v))
            cols.extend((v, u))
            vals.extend((e.weight, e.weight))
        connected_to_boundary = {u for (u, v) in self._edges if v == self.boundary}
        connected_to_boundary |= {v for (u, v) in self._edges if u == self.boundary}
        self._fallback_boundary_weight = _MAX_WEIGHT
        self._boundary_connected = connected_to_boundary

        adjacency = csr_matrix(
            (np.array(vals, dtype=float), (np.array(rows), np.array(cols))),
            shape=(n, n),
        ) if rows else csr_matrix((n, n), dtype=float)

        # Guarantee every detector can reach the boundary so matching always
        # succeeds even for detectors with no single-detector mechanism:
        # every connected component that never touches the boundary gets one
        # explicit fallback edge (weight ``_fallback_boundary_weight``) from
        # its lowest-index detector to the boundary node.  Boundary distances
        # are then finite for every detector, and the post-matching path walk
        # traverses the fallback edge like any other — the real edges on the
        # way to the component's anchor contribute their observables instead
        # of the whole correction being silently dropped.
        self._fallback_edges: frozenset = frozenset()
        if self.num_detectors > 0:
            _, labels = connected_components(adjacency, directed=False)
            boundary_label = labels[self.boundary]
            anchors: Dict[int, int] = {}
            for d in range(self.num_detectors):
                if labels[d] != boundary_label:
                    label = int(labels[d])
                    if label not in anchors or d < anchors[label]:
                        anchors[label] = d
            if anchors:
                self._fallback_edges = frozenset(anchors.values())
                for d in self._fallback_edges:
                    rows.extend((d, self.boundary))
                    cols.extend((self.boundary, d))
                    vals.extend((_MAX_WEIGHT, _MAX_WEIGHT))
                adjacency = csr_matrix(
                    (np.array(vals, dtype=float), (np.array(rows), np.array(cols))),
                    shape=(n, n),
                )
        self.adjacency = adjacency

    # ------------------------------------------------------------------
    @property
    def edges(self) -> List[_Edge]:
        return list(self._edges.values())

    def num_edges(self) -> int:
        return len(self._edges)

    def edge_between(self, u: int, v: int) -> _Edge | None:
        return self._edges.get((min(u, v), max(u, v)))

    def observables_on_edge(self, u: int, v: int) -> Tuple[int, ...]:
        edge = self.edge_between(u, v)
        return edge.observables if edge is not None else ()

    # ------------------------------------------------------------------
    # Geodesic cache
    # ------------------------------------------------------------------
    def geodesics_from(self, source: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cached (distances, predecessors) of one Dijkstra sweep from ``source``."""
        cached = self._geodesic_cache.get(source)
        if cached is None:
            dist, predecessors = dijkstra(
                self.adjacency,
                directed=False,
                indices=[source],
                return_predecessors=True,
            )
            cached = (dist[0], predecessors[0])
            self._geodesic_cache[source] = cached
        return cached

    def pair_distance(self, u: int, v: int) -> float:
        """Geodesic distance between two nodes (cached per source)."""
        return float(self.geodesics_from(u)[0][v])

    def path_parity(self, u: int, v: int) -> FrozenSet[int]:
        """Observables flipped an odd number of times along the u-v geodesic.

        Computed by set-XOR over the edges of the cached shortest path and
        memoised per (unordered) detector pair, so repeated syndromes pay no
        path walk and no allocation.  Returns an empty set when ``v`` is
        unreachable from ``u`` (callers gate on :meth:`pair_distance`).
        """
        if u == v:
            return frozenset()
        key = (u, v) if u < v else (v, u)
        cached = self._parity_cache.get(key)
        if cached is not None:
            return cached
        _, predecessors = self.geodesics_from(key[0])
        parity: set = set()
        node = key[1]
        guard = 0
        while node != key[0]:
            prev = predecessors[node]
            if prev < 0:
                parity.clear()
                break
            parity.symmetric_difference_update(
                self.observables_on_edge(int(prev), int(node)))
            node = int(prev)
            guard += 1
            if guard > self.num_detectors + 2:
                raise RuntimeError("predecessor walk failed to terminate")
        result = frozenset(parity)
        self._parity_cache[key] = result
        return result

    def cache_stats(self) -> Dict[str, int]:
        """Sizes of the lazy caches (observability for the pipeline stats)."""
        return {
            "geodesic_sources": len(self._geodesic_cache),
            "path_parities": len(self._parity_cache),
        }


class MwpmDecoder(BatchDecoderBase):
    """Exact minimum-weight perfect-matching decoder.

    ``decode_fired`` / ``decode_fired_batch`` (inherited from
    :class:`~repro.decoder.base.BatchDecoderBase`) canonicalise and
    deduplicate syndromes; only *distinct* syndromes reach the matching
    stage below, which in turn only pays Dijkstra for detectors it has not
    seen before (the sweeps live in the shared :class:`MatchingGraph`).
    Syndromes of at most :data:`MAX_K` fired detectors are matched by
    enumerating every pairing; ``blossom_calls`` counts the ones that
    needed networkx blossom instead.
    """

    def __init__(self, graph: MatchingGraph | DetectorErrorModel):
        super().__init__()
        if isinstance(graph, DetectorErrorModel):
            graph = MatchingGraph(graph)
        self.graph = graph
        self.num_observables = graph.num_observables

    # ------------------------------------------------------------------
    def _decode_fired(self, fired: Tuple[int, ...]) -> FrozenSet[int]:
        """Match one distinct syndrome and XOR the matched path parities."""
        dist_rows = [self.graph.geodesics_from(d)[0] for d in fired]
        if len(fired) <= MAX_K:
            parity = self._enumerated(fired, dist_rows)
            if parity is not None:
                return parity
        self.blossom_calls += 1
        return self._blossom(fired, dist_rows)

    def _enumerated(self, fired: Tuple[int, ...],
                    dist_rows: List[np.ndarray]) -> Optional[FrozenSet[int]]:
        """Parity shared by every minimum-cost pairing, or None.

        None means blossom must decide: a boundary distance is not finite,
        or the (near-)minimum pairings disagree on parity — a genuine tie.
        """
        graph = self.graph
        boundary = graph.boundary
        k = len(fired)
        columns = np.array(fired + (boundary,))
        costs = np.array([row[columns] for row in dist_rows])
        table, partners = _pairing_table(k)
        totals = costs.ravel()[table].sum(axis=1)
        # Pairing 0 sends every detector to the boundary.
        if not math.isfinite(totals[0]):  # pragma: no cover - fallback edges
            return None
        best = totals.min()
        near = np.flatnonzero(totals <= best + _TIE_RTOL * max(best, 1.0))
        parity = None
        for p in near:
            candidate: FrozenSet[int] = frozenset()
            for i, j in enumerate(partners[p].tolist()):
                if j >= i:
                    candidate ^= graph.path_parity(
                        fired[i], boundary if j == i else fired[j])
            if parity is None:
                parity = candidate
            elif candidate != parity:
                return None
        return parity

    def _blossom(self, fired: Tuple[int, ...],
                 dist_rows: List[np.ndarray]) -> FrozenSet[int]:
        """Solve the matching with networkx blossom (ties and large k)."""
        graph = self.graph
        boundary = graph.boundary
        k = len(fired)

        # Build the matching problem: fired nodes plus a boundary surrogate
        # for each.  Surrogates are mutually connected with zero weight so
        # that unmatched-to-boundary pairings are free.
        g = nx.Graph()
        for i in range(k):
            di = dist_rows[i]
            for j in range(i + 1, k):
                w = di[fired[j]]
                if np.isfinite(w):
                    g.add_edge(("d", i), ("d", j), weight=float(w))
            bw = di[boundary]
            if not np.isfinite(bw):  # pragma: no cover - fallback edges
                bw = graph._fallback_boundary_weight
            g.add_edge(("d", i), ("b", i), weight=float(bw))
            for j in range(i):
                g.add_edge(("b", i), ("b", j), weight=0.0)
        if k == 1:
            g.add_node(("b", 0))

        matching = nx.min_weight_matching(g)

        parity: set = set()
        for a, b in matching:
            if a[0] == "b" and b[0] == "b":
                continue
            if a[0] == "b":
                a, b = b, a
            source = fired[a[1]]
            if b[0] == "b":
                if not np.isfinite(dist_rows[a[1]][boundary]):  # pragma: no cover
                    continue
                target = boundary
            else:
                target = fired[b[1]]
            parity ^= graph.path_parity(source, target)
        return frozenset(parity)
