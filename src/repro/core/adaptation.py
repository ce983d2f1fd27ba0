"""Adapting the rotated surface code to an arbitrary set of fabrication defects.

This module implements the paper's core contribution (Sec. 3, Fig. 3): an
automated procedure that takes a chiplet layout and a :class:`DefectSet` and
produces an :class:`AdaptedPatch` whose stabilizers avoid every faulty
component, using

* **super-stabilizers** around interior defect clusters - the broken checks
  surrounding a cluster are kept as gauge operators and only their product is
  treated as a reliable stabilizer; and
* **boundary deformations** for defects too close to a patch boundary to be
  enclosed by gauge operators - the affected region is excised and the
  surrounding reduced checks become the new (deformed) boundary stabilizers.

Algorithm (re-derivation of the prose of the paper's Sec. 3)
------------------------------------------------------------
The procedure is a fixpoint over three monotone state components: the set of
*excised* data qubits, the set of *excised* ancillas, and the set of defect
clusters designated for *boundary handling*.

1. Faulty links disable their data endpoint unless the measurement-qubit
   endpoint is already disabled (Sec. 4 of the paper).
2. Faulty measurement qubits that are *not* designated for boundary handling
   disable all of their neighbouring data qubits (Fig. 1b).
3. Structural rules run to fixpoint:
   * an ancilla left with at most one enabled data qubit is excised;
   * an ancilla left with exactly two enabled data qubits lying on the same
     diagonal is excised;
   * a data qubit left with no enabled X check or no enabled Z check is
     excised.
4. Defect clusters are the connected components (Chebyshev distance <= 2) of
   the disabled qubits.  A cluster is *interior* (super-stabilizer handling)
   when every disabled data qubit in it appears in an even number of enabled
   checks of each type - the condition for the gauge products to equal true
   stabilizers.  Otherwise the cluster is designated for boundary handling,
   its measurement qubits stop force-disabling their neighbours, and the
   excision rules of step 3 plus a commutation-repair rule take over:
5. Commutation repair: if two enabled checks that will be measured as regular
   stabilizers share an odd number of enabled data qubits, one of them is
   excised - the one whose type differs from the nearest patch boundary's
   host type (this reproduces the paper's "all stabilizers on the boundary
   must be of the same colour" rule), with ties broken towards the smaller
   check.
6. Steps 2-5 repeat until nothing changes.  Broken checks of interior
   clusters become gauge operators grouped into super-stabilizers; broken
   checks of boundary clusters are kept as deformed regular stabilizers.

The measurement schedule repetition count of each cluster equals the
cluster's diameter in data-qubit units (minimum 1), following Sec. 3.

Cluster numbering
-----------------
Clusters are numbered in the order :func:`defect_clusters` returns them,
and that order rests on CPython set internals: each cluster is seeded by
``set.pop()``, whose result depends on the set's insertion history and
table resizes.  The numbering fixes the order of the patch's stabilizers
and super-stabilizers, so it reaches memory circuits and every cache key
derived from them: it is pinned output.  Canonical numbering (clusters
sorted by least site) moves three seed-0 benchmark pins - ``defect_jobs``
``c2/job/25`` and ``ler_decode`` ``c1/ler/14`` and ``c1/ler/15`` - so it
waits for a change that re-pins them.  Until then every set that feeds the
clustering must be built, grown and popped in the same sequence;
``tests/test_adaptation_exact.py`` pins the output with a golden digest and
checks the indexed loops against frozen all-pairs oracles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..noise.fabrication import DefectSet
from ..surface_code.layout import Check, Coord, RotatedSurfaceCodeLayout
from .patch import AdaptedPatch, GaugeOperator, SuperStabilizer

__all__ = ["adapt_patch", "cluster_diameter", "defect_clusters"]

_MAX_ITERATIONS = 400


# ----------------------------------------------------------------------
# Geometry helpers
# ----------------------------------------------------------------------
def defect_clusters(sites: Iterable[Coord], max_distance: int = 2) -> List[Set[Coord]]:
    """Connected components of a set of lattice sites.

    Two sites belong to the same cluster when their Chebyshev distance is at
    most ``max_distance`` (2 = neighbouring plaquette / shared plaquette).

    The order of the returned clusters is pinned output: it numbers the
    clusters of an adapted patch, and through them the order of its
    stabilizers, its memory circuit and the cache keys derived from it.  It
    rests on CPython set internals.  Each cluster is seeded by
    ``remaining.pop()``, and where that pop lands depends on when
    ``remaining -= near`` shrinks the set's table, i.e. on the exact sequence
    of set operations below.  So whenever a site has two or more unvisited
    neighbours, ``near`` is built by iterating ``remaining`` itself and
    keeps its order.  Sorting the clusters canonically (by least site)
    moves three seed-0 benchmark pins (``defect_jobs`` ``c2/job/25``,
    ``ler_decode`` ``c1/ler/14`` and ``c1/ler/15``), so it waits for a
    change that re-pins them.
    """
    reach = range(-max_distance, max_distance + 1)
    remaining = set(sites)
    clusters: List[Set[Coord]] = []
    while remaining:
        seed = remaining.pop()  # repro-lint: ignore[R004] -- set-pop order is the pinned cluster numbering
        cluster = {seed}
        frontier = [seed]
        while frontier:
            cx, cy = frontier.pop()
            box = {(cx + dx, cy + dy) for dx in reach for dy in reach}
            near = box & remaining
            if len(near) > 1:
                # The frontier, and with it every later set operation,
                # inherits the order of ``near``: take two or more
                # neighbours in ``remaining``'s own iteration order.
                near = {s for s in remaining if s in box}
            remaining -= near
            cluster |= near
            frontier.extend(near)
        clusters.append(cluster)
    return clusters


def cluster_diameter(cluster: Iterable[Coord]) -> float:
    """Diameter of a defect cluster in data-qubit units (lattice distance / 2).

    The largest pairwise Chebyshev distance equals the larger side of the
    cluster's bounding box.
    """
    cluster = list(cluster)
    if len(cluster) <= 1:
        return 0.0
    xs = [x for x, _ in cluster]
    ys = [y for _, y in cluster]
    return max(max(xs) - min(xs), max(ys) - min(ys)) / 2.0


def _is_diagonal_pair(a: Coord, b: Coord) -> bool:
    """True when two data qubits sit on the same diagonal of one plaquette."""
    return abs(a[0] - b[0]) == 2 and abs(a[1] - b[1]) == 2


# ----------------------------------------------------------------------
# Adaptation state
# ----------------------------------------------------------------------
class _AdaptationState:
    """Mutable working state of the adaptation fixpoint."""

    def __init__(self, layout: RotatedSurfaceCodeLayout, defects: DefectSet):
        self.layout = layout
        self.defects = defects
        self.faulty_data: Set[Coord] = set()
        self.faulty_anc: Set[Coord] = set()
        for q in defects.faulty_qubits:
            if layout.is_data(q):
                self.faulty_data.add(q)
            elif layout.is_ancilla(q):
                self.faulty_anc.add(q)
            # Coordinates not present on the chiplet are silently ignored.
        # Faulty link rule: disable the data endpoint unless the measurement
        # qubit on the other end is already faulty.
        for link in defects.faulty_links:
            data, anc = self._orient_link(link)
            if data is None:
                continue
            if anc in self.faulty_anc or data in self.faulty_data:
                continue
            self.faulty_data.add(data)

        self.excised_data: Set[Coord] = set()
        self.excised_anc: Set[Coord] = set()
        #: faulty measurement qubits designated for boundary handling (their
        #: neighbouring data are *not* force-disabled).
        self.boundary_mode_anc: Set[Coord] = set()
        #: disabled sites permanently designated for boundary handling.
        self.boundary_sites: Set[Coord] = set()

    # ------------------------------------------------------------------
    def _orient_link(self, link: Tuple[Coord, Coord]) -> Tuple[Optional[Coord], Optional[Coord]]:
        a, b = link
        if self.layout.is_data(a) and self.layout.is_ancilla(b):
            return a, b
        if self.layout.is_data(b) and self.layout.is_ancilla(a):
            return b, a
        return None, None

    # ------------------------------------------------------------------
    @property
    def disabled_anc(self) -> Set[Coord]:
        return self.faulty_anc | self.excised_anc

    def disabled_data(self) -> Set[Coord]:
        """Currently disabled data: faulty, excised, or adjacent to an
        interior-handled faulty measurement qubit."""
        out = set(self.faulty_data) | self.excised_data
        for anc in self.faulty_anc - self.boundary_mode_anc:
            check = self.layout.check_by_ancilla.get(anc)
            if check is not None:
                out |= set(check.data)
        return out

    def active_support(self, check: Check, disabled_data: Set[Coord]) -> Tuple[Coord, ...]:
        return tuple(d for d in check.data if d not in disabled_data)

    def enabled_checks(self) -> List[Check]:
        disabled_anc = self.disabled_anc
        return [c for c in self.layout.checks if c.ancilla not in disabled_anc]


# ----------------------------------------------------------------------
# Fixpoint pieces
# ----------------------------------------------------------------------
def _structural_fixpoint(state: _AdaptationState) -> bool:
    """Apply the ancilla/data excision rules until stable.  Returns change flag.

    Only damaged parts of the layout can be excised.  A check with no
    disabled data qubit keeps its whole plaquette, which has two or more
    qubits and is never a lone diagonal pair; a data qubit in no disabled
    check keeps checks of both types.  So rule A visits only the checks
    holding a disabled data qubit, and rule B only the data qubits of a
    disabled check.  Visits stay in layout order, so the excised sets grow
    in the same order as under passes over the whole layout.
    """
    layout = state.layout
    disabled_data = state.disabled_data()
    disabled_anc = state.disabled_anc
    changed_any = False
    for _ in range(_MAX_ITERATIONS):
        # Rule A: ancillas with too little usable support.
        damaged = {c.ancilla for d in disabled_data for c in layout.checks_containing[d]}
        new_anc = []
        for check in layout.checks:
            if check.ancilla not in damaged or check.ancilla in disabled_anc:
                continue
            support = [d for d in check.data if d not in disabled_data]
            if len(support) <= 1 or (
                len(support) == 2 and _is_diagonal_pair(*support)
            ):
                new_anc.append(check.ancilla)
        state.excised_anc.update(new_anc)
        disabled_anc.update(new_anc)
        # Rule B: data qubits with no enabled check of some type.
        exposed = {d for a in disabled_anc for d in layout.check_by_ancilla[a].data}
        new_data = []
        for data in layout.data_qubits:
            if data not in exposed or data in disabled_data:
                continue
            kinds = {
                c.kind
                for c in layout.checks_containing[data]
                if c.ancilla not in disabled_anc
            }
            if "X" not in kinds or "Z" not in kinds:
                new_data.append(data)
        state.excised_data.update(new_data)
        disabled_data.update(new_data)
        if not (new_anc or new_data):
            break
        changed_any = True
    return changed_any


def _broken_checks(state: _AdaptationState, disabled_data: Set[Coord]) -> List[Check]:
    return [
        c for c in state.enabled_checks() if not disabled_data.isdisjoint(c.data)
    ]


def _assign_clusters(
    state: _AdaptationState, disabled_data: Set[Coord]
) -> Tuple[List[Set[Coord]], Dict[int, List[Check]]]:
    """Cluster the disabled sites and attach each broken check to its cluster.

    Clusters that share a broken check are merged so that the gauge-group
    structure stays consistent.
    """
    disabled_sites = set(disabled_data) | state.disabled_anc
    clusters = defect_clusters(disabled_sites)
    site_to_cluster = {s: i for i, cl in enumerate(clusters) for s in cl}

    # Union-find over clusters to merge those bridged by one broken check.
    parent = list(range(len(clusters)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    broken = _broken_checks(state, disabled_data)
    check_clusters: Dict[Coord, Set[int]] = {}
    for check in broken:
        touched = {
            site_to_cluster[d] for d in check.data if d in site_to_cluster
        }
        check_clusters[check.ancilla] = touched
        touched = list(touched)
        for other in touched[1:]:
            union(touched[0], other)

    merged: Dict[int, Set[Coord]] = {}
    for i, cl in enumerate(clusters):
        merged.setdefault(find(i), set()).update(cl)
    # Re-index merged clusters densely.
    roots = sorted(merged)
    root_index = {root: k for k, root in enumerate(roots)}
    final_clusters = [merged[root] for root in roots]

    checks_by_cluster: Dict[int, List[Check]] = {k: [] for k in range(len(final_clusters))}
    for check in broken:
        touched = check_clusters[check.ancilla]
        if not touched:
            continue
        root = root_index[find(next(iter(touched)))]
        checks_by_cluster[root].append(check)
    return final_clusters, checks_by_cluster


def _cluster_violations(
    state: _AdaptationState,
    cluster_checks: Sequence[Check],
    disabled_data: Set[Coord],
) -> Set[Coord]:
    """Data qubits preventing a cluster from being handled by super-stabilizers.

    The operational requirement is that the product of the cluster's type-T
    gauge operators (the reliable super-stabilizer) commutes with every gauge
    operator of the opposite type in the same cluster.  When this holds the
    products behave as true stabilizers: they commute with everything that is
    ever measured, so their detectors are deterministic.

    Returns the set of data qubits in the offending odd overlaps (empty when
    the cluster is a valid super-stabilizer cluster).  Interior clusters are
    repaired by excising those qubits and re-testing - this grows a "shell"
    around irregularly shaped defect clusters, as in Strikis et al.; clusters
    too close to a patch boundary are handled by boundary deformation instead.
    """
    supports: Dict[str, List[Set[Coord]]] = {"X": [], "Z": []}
    for check in cluster_checks:
        supports[check.kind].append(set(state.active_support(check, disabled_data)))

    violations: Set[Coord] = set()
    for kind, other in (("X", "Z"), ("Z", "X")):
        product: Set[Coord] = set()
        for s in supports[kind]:
            product ^= s
        if not product and supports[kind]:
            # The gauges of this type multiply to the identity: excising their
            # remaining support forces the region to be re-handled.
            for s in supports[kind]:
                violations |= s
            continue
        for g in supports[other]:
            overlap = product & g
            if len(overlap) % 2 == 1:
                violations |= overlap
    return violations


def _cluster_is_interior(
    state: _AdaptationState,
    cluster_checks: Sequence[Check],
    disabled_data: Set[Coord],
) -> bool:
    """True when the cluster's gauge products already commute with its gauges."""
    return not _cluster_violations(state, cluster_checks, disabled_data)


def _touches_boundary_band(layout: RotatedSurfaceCodeLayout, cluster: Set[Coord]) -> bool:
    """True when a defect cluster lies within one plaquette of the patch edge."""
    l = layout.size
    for x, y in cluster:
        if x <= 2 or y <= 2 or x >= 2 * l - 2 or y >= 2 * l - 2:
            return True
    return False


def _nearest_boundary_kind(layout: RotatedSurfaceCodeLayout, coord: Coord) -> str:
    """Host type of the patch boundary nearest to a coordinate."""
    l = layout.size
    x, y = coord
    dist_y = min(y, 2 * l - y)          # distance to an X-hosting boundary
    dist_x = min(x, 2 * l - x)          # distance to a Z-hosting boundary
    if dist_y <= dist_x:
        return layout.boundary_sides()["top"]
    return layout.boundary_sides()["left"]


def _commutation_repair(
    state: _AdaptationState,
    deformed: List[Check],
    gauge_checks: List[Check],
    disabled_data: Set[Coord],
) -> Tuple[bool, Set[Coord]]:
    """Excise checks until all regular stabilizers commute.

    Returns ``(changed, clusters_to_demote)`` where the second element lists
    gauge ancillas whose cluster must be demoted to boundary handling because
    a gauge anticommutes with a regular stabilizer.

    The regular stabilizers are the intact checks followed by the
    ``deformed`` ones.  Only deformed checks can anticommute: an intact
    check has no disabled data qubit, so its overlap with any support is its
    overlap with a whole plaquette of the layout, which is even.

    Excision is order dependent.  Pairs ``(i, j)``, ``i < j``, of deformed
    checks are visited in increasing ``i`` then ``j``.  A check excised
    before its turn as ``i`` drops out of every later pair; one excised
    during its own turn still meets the rest of its partners.  Checks
    sharing no data qubit have an empty overlap, so each check meets only
    the partners a data qubit -> check index lists.
    """
    supports = [set(state.active_support(c, disabled_data)) for c in deformed]
    index: Dict[Tuple[str, Coord], List[int]] = {}
    for pos, (check, support) in enumerate(zip(deformed, supports)):
        for d in support:
            index.setdefault((check.kind, d), []).append(pos)

    def partners(check: Check, support: Set[Coord]) -> Set[int]:
        """Positions of opposite-type deformed checks sharing a data qubit."""
        other = "Z" if check.kind == "X" else "X"
        return {pos for d in support for pos in index.get((other, d), ())}

    excised = state.excised_anc
    changed = False
    for i, a in enumerate(deformed):
        if a.ancilla in excised:
            continue
        for j in sorted(partners(a, supports[i])):
            b = deformed[j]
            if j < i or b.ancilla in excised:
                continue
            if len(supports[i] & supports[j]) % 2 == 0:
                continue
            # Excise the check whose type differs from the nearest boundary's
            # host type; break ties towards the more damaged (smaller) check.
            boundary_kind = _nearest_boundary_kind(state.layout, a.ancilla)
            victim, _ = min(
                ((a, supports[i]), (b, supports[j])),
                key=lambda cs: (cs[0].kind == boundary_kind, len(cs[1])),
            )
            excised.add(victim.ancilla)
            changed = True

    # Regular stabilizers must also commute with every gauge operator.
    demote: Set[Coord] = set()
    for g in gauge_checks:
        g_support = set(state.active_support(g, disabled_data))
        if any(
            deformed[j].ancilla not in excised and len(supports[j] & g_support) % 2
            for j in partners(g, g_support)
        ):
            demote.add(g.ancilla)
    return changed, demote


# ----------------------------------------------------------------------
# Main entry point
# ----------------------------------------------------------------------
def adapt_patch(layout: RotatedSurfaceCodeLayout, defects: DefectSet) -> AdaptedPatch:
    """Adapt the rotated surface code on ``layout`` to the given defects.

    Always returns an :class:`AdaptedPatch`; when the procedure cannot produce
    a sound single-logical-qubit code (pathological defect configurations),
    the returned patch has ``valid=False`` and a ``failure_reason`` - callers
    such as the yield model simply count it as an unusable chiplet.
    """
    state = _AdaptationState(layout, defects)

    clusters: List[Set[Coord]] = []
    checks_by_cluster: Dict[int, List[Check]] = {}
    interior: Dict[int, bool] = {}

    converged = False
    for _ in range(_MAX_ITERATIONS):
        changed = _structural_fixpoint(state)
        disabled_data = state.disabled_data()
        clusters, checks_by_cluster = _assign_clusters(state, disabled_data)

        interior = {}
        newly_demoted = False
        grew = False
        for idx, cluster in enumerate(clusters):
            if cluster & state.boundary_sites:
                interior[idx] = False
                continue
            violations = _cluster_violations(
                state, checks_by_cluster.get(idx, []), disabled_data
            )
            interior[idx] = not violations
            if interior[idx]:
                continue
            if _touches_boundary_band(layout, cluster):
                # Near-boundary defect: handle by deforming the boundary.
                state.boundary_sites |= cluster
                faulty_here = cluster & state.faulty_anc
                state.boundary_mode_anc |= faulty_here
                newly_demoted = True
            else:
                # Interior defect with an irregular shape: grow the disabled
                # region (a "shell") until its gauge products are consistent.
                state.excised_data |= {q for q in violations if layout.is_data(q)}
                grew = True
        if grew:
            continue

        if newly_demoted:
            # A cluster switched to boundary handling this iteration; restart
            # the fixpoint so excisions are recomputed from the fresh state
            # (its faulty measurement qubits no longer force-disable their
            # neighbours) before any commutation repair runs.
            continue

        # Split broken checks into gauge candidates (interior clusters) and
        # deformed regular stabilizers (boundary clusters).
        gauge_checks: List[Check] = []
        deformed_regular: List[Check] = []
        for idx, checks in checks_by_cluster.items():
            target = gauge_checks if interior.get(idx, False) else deformed_regular
            target.extend(checks)

        repair_changed, demote = _commutation_repair(
            state, deformed_regular, gauge_checks, disabled_data
        )
        if demote:
            # A gauge anticommutes with a regular stabilizer: its cluster must
            # be handled by boundary deformation instead.
            for idx, checks in checks_by_cluster.items():
                if any(c.ancilla in demote for c in checks):
                    state.boundary_sites |= clusters[idx]
                    state.boundary_mode_anc |= clusters[idx] & state.faulty_anc
            newly_demoted = True

        if not (changed or repair_changed or newly_demoted):
            converged = True
            break

    disabled_data = state.disabled_data()
    disabled_anc = state.disabled_anc

    # ------------------------------------------------------------------
    # Build the final patch description.
    # ------------------------------------------------------------------
    clusters, checks_by_cluster = _assign_clusters(state, disabled_data)
    stabilizers: List[Check] = []
    super_stabilizers: List[SuperStabilizer] = []
    cluster_repetitions: Dict[int, int] = {}

    intact = [
        c for c in state.enabled_checks() if disabled_data.isdisjoint(c.data)
    ]
    stabilizers.extend(intact)

    for idx, cluster in enumerate(clusters):
        checks = checks_by_cluster.get(idx, [])
        is_interior = (
            not (cluster & state.boundary_sites)
            and _cluster_is_interior(state, checks, disabled_data)
        )
        if not is_interior:
            for check in checks:
                support = state.active_support(check, disabled_data)
                stabilizers.append(Check(check.kind, check.ancilla, tuple(support)))
            continue
        by_kind: Dict[str, List[GaugeOperator]] = {"X": [], "Z": []}
        for check in checks:
            support = state.active_support(check, disabled_data)
            by_kind[check.kind].append(
                GaugeOperator(check.kind, check.ancilla, tuple(support))
            )
        cluster_repetitions[idx] = max(1, int(round(cluster_diameter(cluster))))
        for kind in ("X", "Z"):
            gauges = by_kind[kind]
            if not gauges:
                continue
            if len(gauges) == 1:
                # A single unbroken-product gauge is just a deformed stabilizer.
                g = gauges[0]
                stabilizers.append(Check(g.kind, g.ancilla, g.data))
                continue
            super_stabilizers.append(
                SuperStabilizer(kind=kind, cluster_id=idx, gauges=tuple(gauges))
            )

    patch = AdaptedPatch(
        layout=layout,
        defects=defects,
        disabled_data=frozenset(disabled_data),
        disabled_ancillas=frozenset(disabled_anc),
        stabilizers=tuple(stabilizers),
        super_stabilizers=tuple(super_stabilizers),
        cluster_repetitions=cluster_repetitions,
        valid=converged,
        failure_reason=None if converged else "adaptation did not converge",
    )
    if not converged:
        return patch

    # Cheap sanity checks (full invariant checking is done in the test suite;
    # here we only guard against situations that break downstream consumers).
    if len(patch.active_data) == 0:
        return _mark_invalid(patch, "no data qubits remain")
    return patch


def _mark_invalid(patch: AdaptedPatch, reason: str) -> AdaptedPatch:
    patch.valid = False
    patch.failure_reason = reason
    return patch
