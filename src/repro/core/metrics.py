"""Figures of merit for adapted surface-code patches.

The paper identifies two indicators that predict the logical fidelity of a
defective patch without running expensive Monte-Carlo simulations (Sec. 4.2):

1. the **code distance** ``d`` of the adapted patch - the least number of
   physical errors that can cause a logical failure; and
2. the **number of minimum-weight logical operators** - how many distinct
   ways a logical failure can occur with exactly ``d`` errors.

Both are computed on a *chain graph*: nodes are the reliably-inferable parity
checks of one type (intact/deformed stabilizers and super-stabilizer
products), plus two virtual boundary nodes; every enabled data qubit
contributes an edge between the (at most two) checks whose product support
contains it, or an edge to a boundary node when it sits next to a boundary or
a deformation hole connected to a boundary.  The code distance is the length
of the shortest boundary-to-boundary path and the operator count is the
number of shortest paths (counted with edge multiplicity).

The module also provides the secondary quantities plotted in Figs. 8-10:
the fraction of disabled data qubits, the diameter of the largest cluster of
disabled qubits, and the raw number of faulty qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Set, Tuple

from ..noise.fabrication import DefectSet
from ..surface_code.layout import Coord, plaquette_kind
from .adaptation import adapt_patch, cluster_diameter
from .patch import AdaptedPatch

__all__ = [
    "ChainGraph",
    "PatchMetrics",
    "build_chain_graph",
    "code_distance",
    "defect_free_metrics",
    "num_shortest_logicals",
    "evaluate_patch",
]

_BOUNDARY_A = "boundary_a"
_BOUNDARY_B = "boundary_b"


# ----------------------------------------------------------------------
# Chain graph construction
# ----------------------------------------------------------------------
@dataclass
class ChainGraph:
    """Multigraph on which error chains of one Pauli type live.

    ``adjacency`` maps each node to its neighbours, and each neighbour to the
    list of data qubits realising that edge (parallel edges correspond to
    distinct physical qubits and therefore to distinct logical operators).
    """

    adjacency: Dict[object, Dict[object, List[Coord]]]
    error_type: str

    def shortest_path_length(self) -> Optional[int]:
        """Length of the shortest boundary-to-boundary path (the code distance)."""
        return self.shortest_paths()[0]

    def shortest_path_count(self) -> int:
        """Number of shortest boundary-to-boundary paths, with multiplicity."""
        return self.shortest_paths()[1]

    def shortest_paths(self) -> Tuple[Optional[int], int]:
        """Shortest boundary-to-boundary path length and path count, from one BFS.

        The length is ``None`` (and the count 0) when no path exists.  Paths
        are counted with edge multiplicity, level by level; the search stops
        after the level that reaches boundary B.
        """
        dist = {_BOUNDARY_A: 0}
        counts = {_BOUNDARY_A: 1}
        frontier = [_BOUNDARY_A]
        depth = 0
        while frontier and _BOUNDARY_B not in dist:
            depth += 1
            nxt = []
            for node in frontier:
                paths = counts[node]
                for nb, qubits in self.adjacency.get(node, {}).items():
                    seen = dist.get(nb)
                    if seen is None:
                        dist[nb] = depth
                        counts[nb] = paths * len(qubits)
                        nxt.append(nb)
                    elif seen == depth:
                        counts[nb] += paths * len(qubits)
            frontier = nxt
        if _BOUNDARY_B not in dist:
            return None, 0
        return depth, counts[_BOUNDARY_B]

    def shortest_path_qubits(self, avoid: Set[Coord] = frozenset()) -> Optional[List[Coord]]:
        """Data qubits of one shortest boundary-to-boundary chain.

        Edges whose qubit is in ``avoid`` are skipped; returns ``None`` when no
        path exists under that restriction.  Used to pick logical-operator
        representatives that avoid gauge regions.
        """
        dist = self._bfs_distances(avoid)
        if _BOUNDARY_B not in dist:
            return None
        # Walk back from boundary B following strictly decreasing distances.
        path: List[Coord] = []
        node = _BOUNDARY_B
        while node != _BOUNDARY_A:
            for nb, qubits in self.adjacency.get(node, {}).items():
                usable = [q for q in qubits if q not in avoid]
                if usable and dist.get(nb) == dist[node] - 1:
                    path.append(usable[0])
                    node = nb
                    break
            else:  # pragma: no cover - defensive; dist guarantees progress
                return None
        return path

    def _bfs_distances(self, avoid: Set[Coord] = frozenset()) -> Dict[object, int]:
        dist = {_BOUNDARY_A: 0}
        frontier = [_BOUNDARY_A]
        while frontier:
            nxt = []
            for node in frontier:
                for nb, qubits in self.adjacency.get(node, {}).items():
                    if avoid and not any(q not in avoid for q in qubits):
                        continue
                    if nb not in dist:
                        dist[nb] = dist[node] + 1
                        nxt.append(nb)
            frontier = nxt
        return dist


@lru_cache(maxsize=None)
def _diagonal_plaquettes(size: int) -> Dict[str, Dict[Coord, Tuple[Coord, ...]]]:
    """Per check kind, the diagonal plaquettes of every data qubit of a width.

    Positions keep the ``(dx, dy)`` scan order of :func:`build_chain_graph`;
    all four lie inside the candidate box of either layout kind.
    """
    table: Dict[str, Dict[Coord, Tuple[Coord, ...]]] = {"X": {}, "Z": {}}
    for x in range(1, 2 * size, 2):
        for y in range(1, 2 * size, 2):
            diagonal = ((x - 1, y - 1), (x - 1, y + 1), (x + 1, y - 1), (x + 1, y + 1))
            for kind, row in table.items():
                row[(x, y)] = tuple(p for p in diagonal if plaquette_kind(p) == kind)
    return table


def _void_sides(start: Coord, occupied: Set[Coord], top: int, axis: int,
                sides_of: Dict[Coord, Tuple[bool, bool]]) -> Tuple[bool, bool]:
    """Whether the void component of ``start`` reaches coordinate 0 / ``top`` along ``axis``.

    The void is every candidate plaquette position without a reliable check
    of the detecting kind (``occupied`` holds their ancillas); components
    connect through edge-adjacent positions.  The answer is stored in
    ``sides_of`` for every position of the component.
    """
    seen = {start}
    stack = [start]
    near = far = False
    while stack:
        pos = stack.pop()
        if pos[axis] == 0:
            near = True
        elif pos[axis] == top:
            far = True
        x, y = pos
        for nb in ((x + 2, y), (x - 2, y), (x, y + 2), (x, y - 2)):
            if (0 <= nb[0] <= top and 0 <= nb[1] <= top
                    and nb not in occupied and nb not in seen):
                seen.add(nb)
                stack.append(nb)
    sides = (near, far)
    for pos in seen:
        sides_of[pos] = sides
    return sides


def build_chain_graph(patch: AdaptedPatch, error_type: str = "X") -> ChainGraph:
    """Build the chain multigraph for errors of ``error_type`` ('X' or 'Z').

    X errors are detected by Z checks and terminate on the ``y`` boundaries;
    Z errors are detected by X checks and terminate on the ``x`` boundaries.
    Check nodes are ``("u", i)``, numbering the detecting kind's regular
    stabilizers and then its super-stabilizers in patch order.
    """
    if error_type not in ("X", "Z"):
        raise ValueError("error_type must be 'X' or 'Z'")
    detecting_kind = "Z" if error_type == "X" else "X"
    l = patch.layout.size
    top = 2 * l
    axis = 1 if error_type == "X" else 0

    # Map data qubit -> check nodes whose (product) support contains it.
    membership: Dict[Coord, List[object]] = {}
    occupied: Set[Coord] = set()
    units = [(c.data, (c.ancilla,)) for c in patch.stabilizers
             if c.kind == detecting_kind]
    units += [(ss.product_support, [g.ancilla for g in ss.gauges])
              for ss in patch.super_stabilizers if ss.kind == detecting_kind]
    for idx, (support, ancillas) in enumerate(units):
        node = ("u", idx)
        for d in support:
            members = membership.get(d)
            if members is None:
                membership[d] = [node]
            else:
                members.append(node)
        occupied.update(ancillas)

    adjacency: Dict[object, Dict[object, List[Coord]]] = {}

    def add_edge(u: object, v: object, qubit: Coord) -> None:
        adjacency.setdefault(u, {}).setdefault(v, []).append(qubit)
        adjacency.setdefault(v, {}).setdefault(u, []).append(qubit)

    diagonals = _diagonal_plaquettes(l)[detecting_kind]
    sides_of: Dict[Coord, Tuple[bool, bool]] = {}
    for qubit in patch.active_data:
        members = membership.get(qubit, ())
        if len(members) >= 2:
            for u, v in combinations(members, 2):
                add_edge(u, v, qubit)
            continue
        # Fewer than two reliable checks: look at the missing check positions.
        labels: Set[object] = set()
        for pos in diagonals[qubit]:
            if pos in occupied:
                continue
            near, far = sides_of.get(pos) or _void_sides(
                pos, occupied, top, axis, sides_of)
            if near and far:
                labels.add(_BOUNDARY_A if qubit[axis] < l else _BOUNDARY_B)
            elif near:
                labels.add(_BOUNDARY_A)
            elif far:
                labels.add(_BOUNDARY_B)
        if len(members) == 1:
            for label in labels:
                add_edge(members[0], label, qubit)
        elif len(labels) == 2:
            add_edge(_BOUNDARY_A, _BOUNDARY_B, qubit)

    adjacency.setdefault(_BOUNDARY_A, {})
    adjacency.setdefault(_BOUNDARY_B, {})
    return ChainGraph(adjacency=adjacency, error_type=error_type)


# ----------------------------------------------------------------------
# Scalar metrics
# ----------------------------------------------------------------------
def code_distance(patch: AdaptedPatch, error_type: str = "X") -> int:
    """Code distance of the adapted patch along one error type.

    Returns 0 when no undetectable chain exists in the graph model (which
    also covers invalid patches).
    """
    graph = build_chain_graph(patch, error_type)
    length = graph.shortest_path_length()
    return 0 if length is None else int(length)


def num_shortest_logicals(patch: AdaptedPatch, error_type: str = "X") -> int:
    """Number of minimum-weight logical operators of one error type."""
    return build_chain_graph(patch, error_type).shortest_path_count()


@dataclass(frozen=True)
class PatchMetrics:
    """All per-patch figures of merit used by the paper's analyses."""

    distance_x: int
    distance_z: int
    num_shortest_x: int
    num_shortest_z: int
    num_faulty_qubits: int
    num_faulty_links: int
    num_disabled_data: int
    disabled_data_fraction: float
    largest_cluster_diameter: float
    valid: bool

    @property
    def distance(self) -> int:
        """The code distance: the worse of the two directions."""
        return min(self.distance_x, self.distance_z)

    @property
    def num_shortest(self) -> int:
        """Min-weight logical operator count along the limiting direction."""
        if self.distance_x < self.distance_z:
            return self.num_shortest_x
        if self.distance_z < self.distance_x:
            return self.num_shortest_z
        return self.num_shortest_x + self.num_shortest_z


def evaluate_patch(patch: AdaptedPatch) -> PatchMetrics:
    """Compute every figure of merit for one adapted patch."""
    if patch.valid and patch.defects.is_empty():
        return defect_free_metrics(type(patch.layout), patch.layout.size)
    return _measure(patch)


@lru_cache(maxsize=None)
def defect_free_metrics(layout_type: type, size: int) -> PatchMetrics:
    """Metrics of the defect-free patch of one layout type and width.

    Adaptation is deterministic, so every valid defect-free patch of that
    type and width measures the same; :func:`evaluate_patch` answers those
    from this memo.
    """
    return _measure(adapt_patch(layout_type(size), DefectSet.of()))


def _measure(patch: AdaptedPatch) -> PatchMetrics:
    """Every figure of merit; an invalid patch gets zero distances."""
    dx = dz = count_x = count_z = 0
    largest = 0.0
    if patch.valid:
        dx, count_x = build_chain_graph(patch, "X").shortest_paths()
        dz, count_z = build_chain_graph(patch, "Z").shortest_paths()
        largest = _largest_cluster_diameter(
            set(patch.disabled_data) | set(patch.disabled_ancillas))
    dx, dz = dx or 0, dz or 0
    return PatchMetrics(
        distance_x=int(dx),
        distance_z=int(dz),
        num_shortest_x=count_x,
        num_shortest_z=count_z,
        num_faulty_qubits=patch.defects.num_faulty_qubits,
        num_faulty_links=patch.defects.num_faulty_links,
        num_disabled_data=len(patch.disabled_data),
        disabled_data_fraction=patch.disabled_data_fraction(),
        largest_cluster_diameter=largest,
        valid=bool(dx > 0 and dz > 0),
    )


#: Offsets within Chebyshev distance 2, the reach of :func:`defect_clusters`.
_CLUSTER_BOX = tuple((dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)
                     if dx or dy)


def _largest_cluster_diameter(sites: Set[Coord]) -> float:
    """Largest :func:`cluster_diameter` over the :func:`defect_clusters` of ``sites``.

    Which sites form a cluster does not depend on the order clusters are
    found in, so this flood fill skips the order-pinned scan of
    :func:`defect_clusters`.
    """
    seen: Set[Coord] = set()
    largest = 0.0
    for start in sites:
        if start in seen:
            continue
        seen.add(start)
        cluster = [start]
        for x, y in cluster:  # grows while it is read: a breadth-first fill
            for dx, dy in _CLUSTER_BOX:
                nb = (x + dx, y + dy)
                if nb in sites and nb not in seen:
                    seen.add(nb)
                    cluster.append(nb)
        largest = max(largest, cluster_diameter(cluster))
    return largest
