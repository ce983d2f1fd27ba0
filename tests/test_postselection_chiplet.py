"""Tests for post-selection criteria, chiplets, yield and overhead models."""

import pytest

from repro.chiplet import (
    Chiplet,
    ChipletDevice,
    STANDARD_1,
    STANDARD_4,
    average_cost_per_logical_qubit,
    defect_intolerant_overhead,
    defect_intolerant_yield,
    edge_deformation_width,
    edge_is_deformation_free,
    merged_seam_distance,
    overhead_factor,
    qubits_per_chiplet,
    swap_data_syndrome_roles,
)
from repro.chiplet.overhead import OverheadStudy, optimal_chiplet_size
from repro.core import (
    DefectFreeCriterion,
    DistanceCriterion,
    adapt_patch,
    evaluate_patch,
    rank_by_chosen_indicators,
    rank_by_faulty_count,
    reference_metrics,
    select_fraction,
)
from repro.engine import YieldTask, default_engine
from repro.noise import DefectModel, DefectSet, LINK_AND_QUBIT, LINK_ONLY
from repro.surface_code import RotatedSurfaceCodeLayout


def run_yield(size, kind, rate, samples, target, seed):
    task = YieldTask(chiplet_size=size, defect_model_kind=kind,
                     defect_rate=rate, samples=samples,
                     target_distance=target)
    return default_engine().run_yield(task, seed=seed)


class TestPostSelection:
    def test_reference_metrics_cached_and_correct(self):
        ref = reference_metrics(5)
        assert ref.distance == 5
        assert reference_metrics(5) is ref

    def test_distance_criterion_accepts_better_patch(self):
        crit = DistanceCriterion(4)
        good = evaluate_patch(adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of()))
        assert crit.accepts(good)

    def test_distance_criterion_rejects_short_patch(self):
        crit = DistanceCriterion(7)
        small = evaluate_patch(adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of()))
        assert not crit.accepts(small)

    def test_distance_criterion_tie_break_on_operator_count(self):
        crit = DistanceCriterion(4)
        # A defective l=5 patch with d=4 has fewer short logicals than the
        # defect-free d=4 reference, so it is accepted at the tie.
        defective = evaluate_patch(
            adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of(qubits=[(5, 5)])))
        assert defective.distance == 4
        assert crit.accepts(defective)

    def test_defect_free_criterion(self):
        crit = DefectFreeCriterion()
        clean = evaluate_patch(adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of()))
        dirty = evaluate_patch(
            adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of(qubits=[(5, 5)])))
        assert crit.accepts(clean)
        assert not crit.accepts(dirty)

    def test_rankings_and_selection(self):
        layout = RotatedSurfaceCodeLayout(7)
        model = DefectModel(LINK_AND_QUBIT, 0.02)
        metrics = [
            evaluate_patch(adapt_patch(layout, model.sample(layout, rng=s)))
            for s in range(5)
        ]
        chosen = rank_by_chosen_indicators(metrics)
        baseline = rank_by_faulty_count(metrics)
        assert sorted(chosen) == list(range(5))
        assert sorted(baseline) == list(range(5))
        assert metrics[chosen[0]].distance == max(m.distance for m in metrics)
        assert len(select_fraction(chosen, 0.4)) == 2
        with pytest.raises(ValueError):
            select_fraction(chosen, 0.0)


class TestChiplet:
    def test_sample_and_metrics(self):
        chiplet = Chiplet.sample(5, DefectModel(LINK_ONLY, 0.02), rng=1)
        assert chiplet.size == 5
        assert chiplet.num_fabricated_qubits == 49
        assert chiplet.metrics.distance >= 0

    def test_rotation_swaps_roles(self):
        defects = DefectSet.of(qubits=[(6, 6)])
        swapped = swap_data_syndrome_roles(defects, size=5)
        (coord,) = swapped.faulty_qubits
        layout = RotatedSurfaceCodeLayout(5)
        assert layout.is_data(coord)

    def test_rotation_preserves_defect_counts(self):
        layout = RotatedSurfaceCodeLayout(7)
        defects = DefectModel(LINK_AND_QUBIT, 0.05).sample(layout, rng=2)
        swapped = swap_data_syndrome_roles(defects, 7)
        assert swapped.num_faulty_qubits == defects.num_faulty_qubits

    def test_best_orientation_prefers_passing_one(self):
        # A chiplet whose faulty measurement qubit becomes a (less damaging)
        # data qubit after rotation should use the rotation when needed.
        chiplet = Chiplet(RotatedSurfaceCodeLayout(7), DefectSet.of(qubits=[(6, 6)]))
        crit = DistanceCriterion(chiplet.metrics.distance + 1)
        best = chiplet.best_orientation(crit)
        assert best.metrics.distance >= chiplet.metrics.distance

    def test_device_assembly(self):
        device, fabricated = ChipletDevice.assemble(
            rows=1, cols=2, size=5, defect_model=DefectModel(LINK_ONLY, 0.01),
            criterion=DistanceCriterion(4), rng=3,
        )
        assert device.is_complete
        assert fabricated >= 2
        assert device.total_fabricated_qubits() == 2 * 49
        assert sum(device.distance_distribution().values()) == 2


class TestYieldAndOverhead:
    def test_zero_defect_rate_gives_full_yield(self):
        assert run_yield(5, LINK_ONLY, 0.0, 20, 5, seed=0).yield_fraction == 1.0

    def test_yield_decreases_with_defect_rate(self):
        low = run_yield(7, LINK_AND_QUBIT, 0.002, 60, 5, seed=0)
        high = run_yield(7, LINK_AND_QUBIT, 0.02, 60, 5, seed=0)
        assert high.yield_fraction <= low.yield_fraction

    def test_defect_intolerant_yield_analytic(self):
        layout = RotatedSurfaceCodeLayout(9)
        model = DefectModel(LINK_ONLY, 0.01)
        expected = (1 - 0.01) ** layout.num_links
        assert defect_intolerant_yield(9, model) == pytest.approx(expected)

    def test_overhead_formulas(self):
        assert qubits_per_chiplet(9) == 161
        assert average_cost_per_logical_qubit(9, 0.5) == pytest.approx(322)
        assert overhead_factor(9, 1.0, 9) == pytest.approx(1.0)
        assert overhead_factor(9, 0.0, 9) == float("inf")

    def test_defect_intolerant_overhead_grows_with_rate(self):
        small = defect_intolerant_overhead(9, DefectModel(LINK_ONLY, 0.001), 9)
        large = defect_intolerant_overhead(9, DefectModel(LINK_ONLY, 0.01), 9)
        assert large > small > 1.0

    def test_overhead_study_and_envelope(self):
        study = OverheadStudy(
            target_distance=3, defect_model_kind=LINK_ONLY,
            chiplet_sizes=(3, 5), defect_rates=(0.0, 0.02), samples=30, seed=1,
        )
        points = study.run()
        assert len(points) == 4
        envelope = OverheadStudy.envelope(points)
        assert set(envelope) == {0.0, 0.02}
        best = optimal_chiplet_size(points, 0.0)
        assert best.chiplet_size == 3
        with pytest.raises(ValueError):
            optimal_chiplet_size(points, 0.123)

    def test_distance_distribution_recorded(self):
        result = run_yield(7, LINK_AND_QUBIT, 0.01, 40, 5, seed=2)
        dist = result.distance_distribution()
        assert abs(sum(dist.values()) - 1.0) < 1e-9


class TestBoundaryStandards:
    def test_defect_free_edges_are_clean(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(7), DefectSet.of())
        for edge in ("top", "bottom", "left", "right"):
            assert edge_is_deformation_free(patch, edge)
            assert edge_deformation_width(patch, edge) == 0
        assert STANDARD_1.accepts(patch)

    def test_edge_defect_detected(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(9), DefectSet.of(qubits=[(3, 1)]))
        assert not edge_is_deformation_free(patch, "top")
        assert edge_is_deformation_free(patch, "bottom")

    def test_standard_ordering(self):
        """Standard 1 (strictest) implies standard 4 (most relaxed)."""
        layout = RotatedSurfaceCodeLayout(9)
        model = DefectModel(LINK_AND_QUBIT, 0.01)
        s1 = STANDARD_1.with_target(7)
        s4 = STANDARD_4.with_target(7)
        for seed in range(8):
            patch = adapt_patch(layout, model.sample(layout, rng=seed))
            if s1.accepts(patch):
                assert s4.accepts(patch)

    def test_merged_seam_distance_drop(self):
        layout = RotatedSurfaceCodeLayout(9)
        a = adapt_patch(layout, DefectSet.of(qubits=[(9, 17)]))
        b = adapt_patch(layout, DefectSet.of(qubits=[(9, 1)]))
        assert merged_seam_distance(a, b, "bottom") < 9
        clean = adapt_patch(layout, DefectSet.of())
        assert merged_seam_distance(clean, clean, "bottom") == 9
