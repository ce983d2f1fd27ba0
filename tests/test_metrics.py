"""Tests for the patch figures of merit (distance, operator counts, clusters)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.metrics as M
from repro.core import (
    adapt_patch,
    build_chain_graph,
    cluster_diameter,
    code_distance,
    defect_clusters,
    evaluate_patch,
    num_shortest_logicals,
    reference_metrics,
)
from repro.noise import DefectModel, DefectSet, LINK_AND_QUBIT, LINK_ONLY
from repro.surface_code import RotatedSurfaceCodeLayout, StabilityLayout, plaquette_kind


@pytest.fixture(scope="module")
def defect_free_5():
    return adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of())


class TestDefectFreeDistances:
    @pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
    def test_distance_equals_width(self, d):
        patch = adapt_patch(RotatedSurfaceCodeLayout(d), DefectSet.of())
        assert code_distance(patch, "X") == d
        assert code_distance(patch, "Z") == d

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_shortest_logical_count_grows_with_size(self, d):
        smaller = adapt_patch(RotatedSurfaceCodeLayout(d), DefectSet.of())
        larger = adapt_patch(RotatedSurfaceCodeLayout(d + 2), DefectSet.of())
        assert num_shortest_logicals(larger, "X") > num_shortest_logicals(smaller, "X")

    def test_counts_symmetric_between_directions(self, defect_free_5):
        assert num_shortest_logicals(defect_free_5, "X") == \
            num_shortest_logicals(defect_free_5, "Z")

    def test_invalid_error_type_rejected(self, defect_free_5):
        with pytest.raises(ValueError):
            build_chain_graph(defect_free_5, "Y")


class TestDefectivePatchMetrics:
    def test_central_data_defect_reduces_distance_by_one(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of(qubits=[(5, 5)]))
        metrics = evaluate_patch(patch)
        assert metrics.distance_x == 4
        assert metrics.distance_z == 4
        assert metrics.distance == 4

    def test_defective_patch_has_fewer_shortest_logicals_than_same_d_defect_free(self):
        """The paper's explanation for why defective patches with the same d
        outperform defect-free ones: fewer minimum-weight logical operators."""
        defective = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of(qubits=[(5, 5)]))
        reference = adapt_patch(RotatedSurfaceCodeLayout(4), DefectSet.of())
        d_metrics = evaluate_patch(defective)
        r_metrics = evaluate_patch(reference)
        assert d_metrics.distance == r_metrics.distance == 4
        assert d_metrics.num_shortest < r_metrics.num_shortest

    def test_anisotropic_distance_possible(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(9), DefectSet.of(qubits=[(3, 1)]))
        metrics = evaluate_patch(patch)
        assert metrics.distance == min(metrics.distance_x, metrics.distance_z)
        assert metrics.distance_x != metrics.distance_z

    def test_more_defects_never_raise_distance(self):
        layout = RotatedSurfaceCodeLayout(9)
        one = evaluate_patch(adapt_patch(layout, DefectSet.of(qubits=[(9, 9)])))
        two = evaluate_patch(adapt_patch(layout, DefectSet.of(qubits=[(9, 9), (5, 5)])))
        assert two.distance <= one.distance

    def test_metrics_fields_populated(self):
        layout = RotatedSurfaceCodeLayout(7)
        defects = DefectModel(LINK_AND_QUBIT, 0.03).sample(layout, rng=5)
        metrics = evaluate_patch(adapt_patch(layout, defects))
        assert metrics.num_faulty_qubits == defects.num_faulty_qubits
        assert metrics.num_faulty_links == defects.num_faulty_links
        assert 0.0 <= metrics.disabled_data_fraction <= 1.0
        assert metrics.largest_cluster_diameter >= 0.0

    def test_invalid_patch_reports_zero_distance(self):
        layout = RotatedSurfaceCodeLayout(5)
        patch = adapt_patch(layout, DefectSet.of())
        patch.valid = False
        metrics = evaluate_patch(patch)
        assert metrics.distance == 0
        assert not metrics.valid

    def test_num_shortest_uses_limiting_direction(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(9), DefectSet.of(qubits=[(3, 1)]))
        metrics = evaluate_patch(patch)
        if metrics.distance_x < metrics.distance_z:
            assert metrics.num_shortest == metrics.num_shortest_x
        elif metrics.distance_z < metrics.distance_x:
            assert metrics.num_shortest == metrics.num_shortest_z


class TestChainGraph:
    def test_shortest_path_qubits_length_matches_distance(self, defect_free_5):
        graph = build_chain_graph(defect_free_5, "X")
        path = graph.shortest_path_qubits()
        assert len(path) == graph.shortest_path_length() == 5

    def test_path_avoidance(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of(qubits=[(5, 5)]))
        graph = build_chain_graph(patch, "Z")
        avoid = {d for g in patch.gauge_operators for d in g.data}
        path = graph.shortest_path_qubits(avoid=avoid)
        assert path is not None
        assert not (set(path) & avoid)

    def test_path_count_at_least_one_when_path_exists(self, defect_free_5):
        graph = build_chain_graph(defect_free_5, "X")
        assert graph.shortest_path_count() >= 1

    def test_graph_counts_match_module_functions(self, defect_free_5):
        graph = build_chain_graph(defect_free_5, "X")
        assert graph.shortest_path_length() == code_distance(defect_free_5, "X")
        assert graph.shortest_path_count() == num_shortest_logicals(defect_free_5, "X")


# ----------------------------------------------------------------------
# Exactness of the table-driven builder against the per-call one it replaced
# ----------------------------------------------------------------------
# ``shortest_path_qubits`` picks circuit observables by walking the adjacency
# in insertion order, so the builder must reproduce it down to the order of
# nodes, neighbours and qubit lists.  The ``_oracle_*`` functions are frozen
# copies of the builder that rebuilt stabilizer units and a DFS over every
# candidate plaquette on each call.
_BOUNDARY_A, _BOUNDARY_B = "boundary_a", "boundary_b"


def _oracle_units(patch, kind):
    units = [(tuple(c.data), (c.ancilla,)) for c in patch.stabilizers
             if c.kind == kind]
    units += [(ss.product_support, tuple(g.ancilla for g in ss.gauges))
              for ss in patch.super_stabilizers if ss.kind == kind]
    return units


def _oracle_void_components(patch, occupied):
    l = patch.layout.size
    void = [pos for pos in patch.layout.candidate_plaquettes() if pos not in occupied]
    void_set = set(void)
    comp_of, touches, comp_id = {}, {}, 0
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


def _oracle_adjacency(patch, error_type):
    detecting_kind = "Z" if error_type == "X" else "X"
    units = _oracle_units(patch, detecting_kind)
    l = patch.layout.size
    membership = {}
    for idx, (support, _) in enumerate(units):
        for d in support:
            membership.setdefault(d, []).append(idx)
    occupied = set()
    for _, ancillas in units:
        occupied.update(ancillas)
    comp_of, touches = _oracle_void_components(patch, occupied)
    adjacency = {}

    def add_edge(u, v, qubit):
        if u == v:
            return
        adjacency.setdefault(u, {}).setdefault(v, []).append(qubit)
        adjacency.setdefault(v, {}).setdefault(u, []).append(qubit)

    def boundary_label(position, qubit):
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
        x, y = qubit
        member_ancillas = set()
        for m in members:
            member_ancillas.update(units[m][1])
        labels = set()
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
    return adjacency


def _oracle_shortest_paths(adjacency):
    """Full BFS, then path counts in BFS order (the pre-merge two passes)."""
    dist, frontier = {_BOUNDARY_A: 0}, [_BOUNDARY_A]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adjacency.get(node, {}):
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    if _BOUNDARY_B not in dist:
        return None, 0
    counts = {_BOUNDARY_A: 1}
    for node, depth in dist.items():
        if node not in counts:
            continue
        for nb, qubits in adjacency.get(node, {}).items():
            if dist.get(nb) == depth + 1:
                counts[nb] = counts.get(nb, 0) + counts[node] * len(qubits)
    return dist[_BOUNDARY_B], counts.get(_BOUNDARY_B, 0)


def _oracle_largest_cluster_diameter(patch):
    sites = set(patch.disabled_data) | set(patch.disabled_ancillas)
    return max((cluster_diameter(c) for c in defect_clusters(sites)), default=0.0)


def _ordered(adjacency):
    return [(node, list(row.items())) for node, row in adjacency.items()]


def _assert_matches_oracle(patch):
    for error_type in ("X", "Z"):
        graph = build_chain_graph(patch, error_type)
        oracle = _oracle_adjacency(patch, error_type)
        assert _ordered(graph.adjacency) == _ordered(oracle)
        assert graph.shortest_paths() == _oracle_shortest_paths(oracle)
    assert M._largest_cluster_diameter(
        set(patch.disabled_data) | set(patch.disabled_ancillas)
    ) == _oracle_largest_cluster_diameter(patch)


def _layout(kind, width):
    if kind == "stability":
        return StabilityLayout(2 * max(2, width // 2))
    return RotatedSurfaceCodeLayout(width)


def _seeded_patches():
    seed = 0
    for width in (3, 4, 5, 7, 9, 13):
        for layout_kind in ("rotated", "stability"):
            layout = _layout(layout_kind, width)
            for model_kind in (LINK_ONLY, LINK_AND_QUBIT):
                for rate in (0.0, 0.01, 0.03, 0.08):
                    model = DefectModel(model_kind, rate)
                    for _ in range(2):
                        yield adapt_patch(layout, model.sample(layout, seed))
                        seed += 1


class TestChainGraphExactness:
    def test_seeded_patches_match_oracle(self):
        checked = 0
        for patch in _seeded_patches():
            _assert_matches_oracle(patch)
            checked += 1
        assert checked == 6 * 2 * 2 * 4 * 2

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           width=st.integers(3, 15),
           layout_kind=st.sampled_from(["rotated", "stability"]),
           model_kind=st.sampled_from([LINK_ONLY, LINK_AND_QUBIT]),
           rate=st.floats(0.0, 0.08))
    def test_random_patches_match_oracle(self, seed, width, layout_kind,
                                         model_kind, rate):
        layout = _layout(layout_kind, width)
        patch = adapt_patch(layout, DefectModel(model_kind, rate).sample(layout, seed))
        _assert_matches_oracle(patch)


class TestDefectFreeMemo:
    @pytest.mark.parametrize("layout_kind,width", [
        ("rotated", 3), ("rotated", 4), ("rotated", 7), ("rotated", 13),
        ("stability", 4), ("stability", 8),
    ])
    def test_memo_equals_direct_measurement(self, layout_kind, width):
        layout = _layout(layout_kind, width)
        patch = adapt_patch(layout, DefectSet.of())
        memo = M.defect_free_metrics(type(layout), layout.size)
        assert memo == M._measure(patch)
        dx, count_x = _oracle_shortest_paths(_oracle_adjacency(patch, "X"))
        dz, count_z = _oracle_shortest_paths(_oracle_adjacency(patch, "Z"))
        assert (memo.distance_x, memo.num_shortest_x) == (dx or 0, count_x)
        assert (memo.distance_z, memo.num_shortest_z) == (dz or 0, count_z)
        assert evaluate_patch(patch) is memo

    def test_reference_metrics_reads_the_memo(self):
        assert reference_metrics(5) is M.defect_free_metrics(RotatedSurfaceCodeLayout, 5)

    def test_invalid_defect_free_patch_bypasses_memo(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of())
        patch.valid = False
        metrics = evaluate_patch(patch)
        assert not metrics.valid
        assert (metrics.distance_x, metrics.distance_z) == (0, 0)
        assert metrics != M.defect_free_metrics(RotatedSurfaceCodeLayout, 5)
