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
from typing import Dict, List, Optional, Set, Tuple

from ..surface_code.layout import Coord, plaquette_kind
from .adaptation import cluster_diameter, defect_clusters
from .patch import AdaptedPatch

__all__ = [
    "ChainGraph",
    "PatchMetrics",
    "build_chain_graph",
    "code_distance",
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
        dist = self._bfs_distances()
        return dist.get(_BOUNDARY_B)

    def shortest_path_count(self) -> int:
        """Number of shortest boundary-to-boundary paths, with multiplicity."""
        return self._count_shortest(self._bfs_distances())

    def shortest_paths(self) -> Tuple[Optional[int], int]:
        """``(shortest_path_length(), shortest_path_count())`` from one BFS."""
        dist = self._bfs_distances()
        return dist.get(_BOUNDARY_B), self._count_shortest(dist)

    def _count_shortest(self, dist: Dict[object, int]) -> int:
        if _BOUNDARY_B not in dist:
            return 0
        counts: Dict[object, int] = {_BOUNDARY_A: 1}
        # BFS fills ``dist`` in non-decreasing distance order.
        for node, depth in dist.items():
            if node not in counts:
                continue
            for nb, qubits in self.adjacency.get(node, {}).items():
                if dist.get(nb) == depth + 1:
                    counts[nb] = counts.get(nb, 0) + counts[node] * len(qubits)
        return counts.get(_BOUNDARY_B, 0)

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


def _void_components(
    patch: AdaptedPatch, occupied: Set[Coord]
) -> Tuple[Dict[Coord, int], Dict[int, Dict[str, bool]]]:
    """Connected components of candidate plaquette positions with no reliable check.

    Returns a map position -> component id and, per component, which patch
    sides (top/bottom/left/right exteriors) it touches.
    """
    layout = patch.layout
    l = layout.size
    void = [pos for pos in layout.candidate_plaquettes() if pos not in occupied]
    void_set = set(void)
    comp_of: Dict[Coord, int] = {}
    touches: Dict[int, Dict[str, bool]] = {}
    comp_id = 0
    for start in void:
        if start in comp_of:
            continue
        stack = [start]
        comp_of[start] = comp_id
        info = {"top": False, "bottom": False, "left": False, "right": False}
        while stack:
            x, y = stack.pop()
            if y == 0:
                info["top"] = True
            if y == 2 * l:
                info["bottom"] = True
            if x == 0:
                info["left"] = True
            if x == 2 * l:
                info["right"] = True
            for dx, dy in ((2, 0), (-2, 0), (0, 2), (0, -2)):
                nb = (x + dx, y + dy)
                if nb in void_set and nb not in comp_of:
                    comp_of[nb] = comp_id
                    stack.append(nb)
        touches[comp_id] = info
        comp_id += 1
    return comp_of, touches


def build_chain_graph(patch: AdaptedPatch, error_type: str = "X") -> ChainGraph:
    """Build the chain multigraph for errors of ``error_type`` ('X' or 'Z').

    X errors are detected by Z checks and terminate on the ``y`` boundaries;
    Z errors are detected by X checks and terminate on the ``x`` boundaries.
    """
    if error_type not in ("X", "Z"):
        raise ValueError("error_type must be 'X' or 'Z'")
    detecting_kind = "Z" if error_type == "X" else "X"
    units = patch.units(detecting_kind)
    layout = patch.layout
    l = layout.size

    # Map data qubit -> unit indices whose product support contains it.
    membership: Dict[Coord, List[int]] = {}
    for idx, unit in enumerate(units):
        for d in unit.support:
            membership.setdefault(d, []).append(idx)

    occupied: Set[Coord] = set()
    for unit in units:
        occupied.update(unit.ancillas)
    comp_of, touches = _void_components(patch, occupied)

    adjacency: Dict[object, Dict[object, List[Coord]]] = {}

    def add_edge(u: object, v: object, qubit: Coord) -> None:
        if u == v:
            return
        adjacency.setdefault(u, {}).setdefault(v, []).append(qubit)
        adjacency.setdefault(v, {}).setdefault(u, []).append(qubit)

    def boundary_label(position: Coord, qubit: Coord) -> Optional[object]:
        comp = comp_of.get(position)
        if comp is None:
            return None
        info = touches[comp]
        if error_type == "X":
            near, far, axis_value = "top", "bottom", qubit[1]
        else:
            near, far, axis_value = "left", "right", qubit[0]
        if not (info[near] or info[far]):
            return None
        if info[near] and info[far]:
            return _BOUNDARY_A if axis_value < l else _BOUNDARY_B
        return _BOUNDARY_A if info[near] else _BOUNDARY_B

    for qubit in patch.active_data:
        members = membership.get(qubit, [])
        if len(members) >= 2:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    add_edge(("u", members[i]), ("u", members[j]), qubit)
            continue
        # Fewer than two reliable checks: look at the missing check positions.
        x, y = qubit
        member_ancillas = set()
        for m in members:
            member_ancillas.update(units[m].ancillas)
        labels: Set[object] = set()
        for dx in (-1, 1):
            for dy in (-1, 1):
                pos = (x + dx, y + dy)
                if not (0 <= pos[0] <= 2 * l and 0 <= pos[1] <= 2 * l):
                    continue
                if plaquette_kind(pos) != detecting_kind:
                    continue
                if pos in member_ancillas:
                    continue
                label = boundary_label(pos, qubit)
                if label is not None:
                    labels.add(label)
        if len(members) == 1:
            for label in labels:
                add_edge(("u", members[0]), label, qubit)
        elif len(members) == 0 and len(labels) == 2:
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
    if not patch.valid:
        return PatchMetrics(
            distance_x=0, distance_z=0, num_shortest_x=0, num_shortest_z=0,
            num_faulty_qubits=patch.defects.num_faulty_qubits,
            num_faulty_links=patch.defects.num_faulty_links,
            num_disabled_data=len(patch.disabled_data),
            disabled_data_fraction=patch.disabled_data_fraction(),
            largest_cluster_diameter=0.0,
            valid=False,
        )
    dx, count_x = build_chain_graph(patch, "X").shortest_paths()
    dz, count_z = build_chain_graph(patch, "Z").shortest_paths()
    dx, dz = dx or 0, dz or 0
    disabled_sites = set(patch.disabled_data) | set(patch.disabled_ancillas)
    clusters = defect_clusters(disabled_sites)
    largest = max((cluster_diameter(c) for c in clusters), default=0.0)
    return PatchMetrics(
        distance_x=int(dx),
        distance_z=int(dz),
        num_shortest_x=count_x,
        num_shortest_z=count_z,
        num_faulty_qubits=patch.defects.num_faulty_qubits,
        num_faulty_links=patch.defects.num_faulty_links,
        num_disabled_data=len(patch.disabled_data),
        disabled_data_fraction=patch.disabled_data_fraction(),
        largest_cluster_diameter=float(largest),
        valid=bool(dx > 0 and dz > 0),
    )
