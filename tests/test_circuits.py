"""Tests for syndrome-extraction circuit generation.

The key soundness property - every detector and every observable annotation
is deterministic in the absence of noise - is verified with the independent
CHP tableau simulator for a representative set of patches (defect-free,
super-stabilizer, boundary-deformed, stability).
"""

import pytest

from repro.core import adapt_patch
from repro.noise import CircuitNoiseModel, DefectSet
from repro.stabilizer import TableauSimulator, noiseless_deterministic
from repro.surface_code import (
    CircuitBuildError,
    RotatedSurfaceCodeLayout,
    StabilityLayout,
    SyndromeCircuitBuilder,
    build_memory_circuit,
    build_stability_circuit,
)

NOISE = CircuitNoiseModel.standard(1e-3)


def _assert_deterministic(circuit):
    result = TableauSimulator(circuit.num_qubits, seed=0).run(circuit.without_noise())
    assert result.all_detectors_zero(), "some detector fired without noise"
    assert not any(result.observables), "an observable fired without noise"
    assert noiseless_deterministic(circuit), "frame sampler disagrees"


class TestDefectFreeCircuits:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_detectors_deterministic(self, d):
        patch = adapt_patch(RotatedSurfaceCodeLayout(d), DefectSet.of())
        _assert_deterministic(build_memory_circuit(patch, NOISE))

    def test_detector_count_matches_structure(self):
        d, rounds = 3, 3
        patch = adapt_patch(RotatedSurfaceCodeLayout(d), DefectSet.of())
        circuit = build_memory_circuit(patch, NOISE, rounds)
        z_checks = (d * d - 1) // 2
        # Round 0 + (rounds-1) comparisons + final reconstruction, Z checks only.
        assert circuit.num_detectors == z_checks * (rounds + 1)

    def test_measurement_count(self):
        d, rounds = 3, 2
        patch = adapt_patch(RotatedSurfaceCodeLayout(d), DefectSet.of())
        circuit = build_memory_circuit(patch, NOISE, rounds)
        assert circuit.num_measurements == (d * d - 1) * rounds + d * d

    def test_both_basis_detectors(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        builder = SyndromeCircuitBuilder(patch, NOISE, 3, detector_basis="both")
        circuit = builder.build()
        _assert_deterministic(circuit)
        z_only = build_memory_circuit(patch, NOISE, 3)
        assert circuit.num_detectors > z_only.num_detectors

    def test_default_rounds_equal_width(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        circuit = build_memory_circuit(patch, NOISE)
        assert circuit.num_measurements == (3 * 3 - 1) * 3 + 9

    def test_rounds_must_be_positive(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        with pytest.raises(ValueError):
            SyndromeCircuitBuilder(patch, NOISE, 0)

    def test_schedule_has_no_data_qubit_conflicts(self):
        """Within each CNOT layer every qubit participates in at most one gate."""
        patch = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of())
        circuit = build_memory_circuit(patch, NOISE, 2)
        for inst in circuit:
            if inst.name == "CX":
                assert len(set(inst.targets)) == len(inst.targets)


class TestDefectiveCircuits:
    def test_superstabilizer_patch_deterministic(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of(qubits=[(5, 5)]))
        _assert_deterministic(build_memory_circuit(patch, NOISE, 6))

    def test_large_cluster_blocked_schedule_deterministic(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(7), DefectSet.of(qubits=[(6, 6)]))
        assert any(r > 0 for r in patch.cluster_repetitions.values())
        _assert_deterministic(build_memory_circuit(patch, NOISE, 7))

    def test_boundary_deformed_patch_deterministic(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(7), DefectSet.of(qubits=[(4, 2)]))
        _assert_deterministic(build_memory_circuit(patch, NOISE, 4))

    def test_multi_defect_patch_deterministic(self):
        defects = DefectSet.of(qubits=[(5, 5), (9, 3)])
        patch = adapt_patch(RotatedSurfaceCodeLayout(7), defects)
        if patch.valid:
            _assert_deterministic(build_memory_circuit(patch, NOISE, 5))

    def test_invalid_patch_rejected(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of())
        patch.valid = False
        with pytest.raises(CircuitBuildError):
            build_memory_circuit(patch, NOISE)

    def test_gauge_ancillas_not_measured_every_round(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of(qubits=[(5, 5)]))
        circuit = build_memory_circuit(patch, NOISE, 4)
        # Total measurements < full-schedule count because gauges idle half the time.
        full = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of())
        full_circuit = build_memory_circuit(full, NOISE, 4)
        assert circuit.num_measurements < full_circuit.num_measurements


class TestStabilityCircuits:
    def test_defect_free_stability_deterministic(self):
        patch = adapt_patch(StabilityLayout(4), DefectSet.of())
        _assert_deterministic(build_stability_circuit(patch, NOISE, 4))

    def test_stability_with_disabled_center_deterministic(self):
        patch = adapt_patch(StabilityLayout(6), DefectSet.of(qubits=[(5, 5)]))
        _assert_deterministic(build_stability_circuit(patch, NOISE, 4))

    def test_stability_observable_uses_first_round(self):
        patch = adapt_patch(StabilityLayout(4), DefectSet.of())
        circuit = build_stability_circuit(patch, NOISE, 3)
        obs = circuit.observables()[0]
        num_z_checks = sum(1 for c in patch.stabilizers if c.kind == "Z")
        assert len(obs) == num_z_checks

    def test_frame_simulator_agrees_on_noiseless_determinism(self):
        patch = adapt_patch(StabilityLayout(4), DefectSet.of())
        circuit = build_stability_circuit(patch, NOISE, 3)
        assert noiseless_deterministic(circuit)


class TestNoiseModelPlacement:
    def test_noise_channel_counts_scale_with_rounds(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        two = build_memory_circuit(patch, NOISE, 2).noise_channel_count()
        four = build_memory_circuit(patch, NOISE, 4).noise_channel_count()
        assert four > two

    def test_zero_idle_factor_removes_idle_noise(self):
        quiet = CircuitNoiseModel(p=1e-3, idle_data_factor=0.0)
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        a = build_memory_circuit(patch, NOISE, 2).count("DEPOLARIZE1")
        b = build_memory_circuit(patch, quiet, 2).count("DEPOLARIZE1")
        assert b < a

    def test_bad_qubit_override_changes_rates(self):
        noise = CircuitNoiseModel.standard(1e-3).with_bad_qubit((3, 3), 0.05)
        assert noise.two_qubit_rate((3, 3), (2, 2)) == pytest.approx(0.05)
        assert noise.two_qubit_rate((1, 1), (2, 2)) == pytest.approx(1e-3)
        assert noise.readout_rate((3, 3)) > noise.readout_rate((1, 1))
