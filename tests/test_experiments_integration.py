"""Integration tests: experiment drivers and paper entry points end to end.

These exercise the full pipeline (defects -> adaptation -> circuit -> DEM ->
decoder -> statistics) at very small scales so they stay fast while covering
the same code paths the benchmark harness uses.
"""

import pytest

from repro.core import adapt_patch
from repro.engine import LerPointTask, task_from_payload
from repro.experiments import (
    run_cutoff_study,
    run_memory_experiment,
    run_stability_experiment,
    sample_defective_patches,
)
from repro.experiments.memory import logical_error_rate_curve
from repro.experiments.paper import (
    figure11_postselection,
    figure14_merge_example,
    figure5_to_10_study,
    table1_and_2_resources,
    table3_and_4_fidelity,
)
from repro.chiplet import ShorWorkload
from repro.experiments.slope import estimate_slope
from repro.noise import DefectModel, DefectSet, LINK_AND_QUBIT
from repro.surface_code import RotatedSurfaceCodeLayout, StabilityLayout


class TestMemoryExperiments:
    def test_memory_experiment_runs_and_reports(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        result = run_memory_experiment(patch, 0.01, shots=300, seed=0)
        assert 0.0 <= result.logical_error_rate <= 1.0
        assert result.num_detectors > 0
        assert result.per_round_error_rate() <= result.logical_error_rate + 1e-9

    def test_higher_physical_error_rate_gives_higher_ler(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        low = run_memory_experiment(patch, 0.002, shots=1500, seed=1)
        high = run_memory_experiment(patch, 0.03, shots=1500, seed=1)
        assert high.logical_error_rate > low.logical_error_rate

    def test_distance_five_beats_distance_three_at_low_p(self):
        d3 = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        d5 = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of())
        r3 = run_memory_experiment(d3, 0.002, shots=3000, seed=2)
        r5 = run_memory_experiment(d5, 0.002, shots=3000, seed=2)
        assert r5.logical_error_rate <= r3.logical_error_rate + 0.003

    def test_superstabilizer_patch_decodes(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of(qubits=[(5, 5)]))
        result = run_memory_experiment(patch, 0.01, shots=400, seed=3)
        assert 0.0 <= result.logical_error_rate < 0.5

    @pytest.mark.parametrize("decoder", ["unionfind", "magic"])
    def test_unknown_decoder_rejected(self, decoder):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        task = LerPointTask.from_patch("memory", patch, 0.01)
        payload = dict(task.payload(), decoder=decoder)
        with pytest.raises(ValueError, match=f"unknown decoder '{decoder}'"):
            task_from_payload(task.kind, payload)

    @pytest.mark.parametrize("entry_point, args", [
        (run_memory_experiment, (0.01, 10)),
        (run_stability_experiment, (0.01, 10, 3)),
        (logical_error_rate_curve, ((0.01,), 10)),
        (estimate_slope, ((0.01,), 10)),
    ], ids=lambda v: getattr(v, "__name__", "args"))
    def test_entry_points_take_no_decoder(self, entry_point, args):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        with pytest.raises(TypeError, match="decoder"):
            entry_point(patch, *args, decoder="mwpm")

    def test_ler_curve_sweep(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        results = logical_error_rate_curve(patch, (0.005, 0.02), shots=300, seed=5)
        assert len(results) == 2


class TestStabilityAndCutoff:
    def test_stability_experiment_runs(self):
        patch = adapt_patch(StabilityLayout(4), DefectSet.of())
        result = run_stability_experiment(patch, 0.01, shots=400, rounds=3, seed=0)
        assert 0.0 <= result.logical_error_rate <= 1.0
        assert result.task.decoder == "mwpm"

    def test_cutoff_study_structure(self):
        study = run_cutoff_study(
            size=4, rounds=3,
            physical_error_rates=(0.004,),
            bad_qubit_error_rates=(0.10,),
            shots=300, seed=1,
        )
        assert len(study.curve("disable")) == 1
        assert len(study.curve("keep", 0.10)) == 1
        # crossover_rate returns either None or one of the sampled rates.
        assert study.crossover_rate(0.10) in (None, 0.004)


class TestSlopeStudy:
    def test_sampling_and_slope_estimation(self):
        model = DefectModel(LINK_AND_QUBIT, 0.03)
        patches = sample_defective_patches(5, model, 2, seed=0, min_distance=3)
        assert len(patches) == 2
        record = estimate_slope(patches[0], (0.008, 0.015), shots=500, seed=1)
        assert record.metrics.distance >= 3

    def test_figure5_study_and_figure11_ranking(self):
        study = figure5_to_10_study(
            size=5, defect_rate=0.03, num_patches=2,
            physical_error_rates=(0.008, 0.015), shots=500, seed=2,
        )
        assert len(study.records) == 2
        ranking = figure11_postselection(study, keep_fractions=(0.5, 1.0))
        assert set(ranking) == {"baseline", "chosen"}


class TestPaperTables:
    def test_figure14_example(self):
        result = figure14_merge_example(size=7)
        assert result["merged_seam_distance"] < result["intact_seam_distance"]

    def test_tables_pipeline_small_scale(self):
        workload = ShorWorkload(target_distance=5)
        resources = table1_and_2_resources(
            defect_rate=0.002, chiplet_size=7, workload=workload,
            samples=20, seed=3,
        )
        assert set(resources) == {"no-defect", "defect-intolerant", "super-stabilizer"}
        fidelities = table3_and_4_fidelity(resources, workload=workload)
        assert set(fidelities) == set(resources)
        assert resources["no-defect"].overhead == pytest.approx(1.0)
