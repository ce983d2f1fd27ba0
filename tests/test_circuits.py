"""Tests for syndrome-extraction circuit generation.

The key soundness property - every detector and every observable annotation
is deterministic in the absence of noise - is verified with the independent
CHP tableau simulator for a representative set of patches (defect-free,
super-stabilizer, boundary-deformed, stability).
"""

import pytest
from chp_tableau import TableauSimulator

from repro.core import adapt_patch
from repro.noise import CircuitNoiseModel, DefectSet
from repro.stabilizer import noiseless_deterministic
from repro.stabilizer.circuit import NOISE_CHANNELS
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


def _noise_applications(circuit) -> int:
    """Channel applications: one per target, one per pair of DEPOLARIZE2."""
    return sum(circuit.count_targets(name) // (2 if name == "DEPOLARIZE2" else 1)
               for name in NOISE_CHANNELS)


class TestNoiseModelPlacement:
    def test_noise_channel_counts_scale_with_rounds(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        two = _noise_applications(build_memory_circuit(patch, NOISE, 2))
        four = _noise_applications(build_memory_circuit(patch, NOISE, 4))
        # Two more rounds add their gate, readout and idle channels.
        assert four > two

    def test_zero_idle_factor_removes_idle_noise(self):
        quiet = CircuitNoiseModel(p=1e-3, idle_data_factor=0.0)
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        a = build_memory_circuit(patch, NOISE, 2).count_targets("DEPOLARIZE1")
        b = build_memory_circuit(patch, quiet, 2).count_targets("DEPOLARIZE1")
        assert a - b == 2 * len(patch.active_data)

    def test_bad_qubit_override_changes_rates(self):
        noise = CircuitNoiseModel.standard(1e-3).with_bad_qubit((3, 3), 0.05)
        rates = noise.rates_by_qubit([(1, 1), (2, 2), (3, 3)])
        assert max(rates[(3, 3)].two_qubit, rates[(2, 2)].two_qubit) == pytest.approx(0.05)
        assert max(rates[(1, 1)].two_qubit, rates[(2, 2)].two_qubit) == pytest.approx(1e-3)
        assert rates[(3, 3)].readout > rates[(1, 1)].readout

    @pytest.mark.parametrize("p", [0.0, 1e-3, 3e-3, 0.2])
    def test_rate_table_matches_scaled_formula(self, p):
        bad = {(1, 1): 0.05, (2, 2): 1e-4, (3, 3): 0.9}
        noise = CircuitNoiseModel(p=p, reset_factor=0.3)
        for coord, rate in bad.items():
            noise = noise.with_bad_qubit(coord, rate)
        coords = [(0, 0), *bad]

        def scale(*qs):
            worst = max([p] + [bad[q] for q in qs if q in bad])
            return worst / p if p else 1.0

        rates = noise.rates_by_qubit(coords)
        for a in coords:
            assert rates[a].single_qubit == min(1.0, 0.8 * p * scale(a))
            assert rates[a].readout == min(1.0, (8.0 / 15.0) * p * scale(a))
            assert rates[a].idle == min(1.0, 0.8 * p * scale(a))
            assert rates[a].reset == min(1.0, 0.3 * p * scale(a))
            for b in coords:
                # A gate takes the worse qubit's rate, float for float.
                pair = max(rates[a].two_qubit, rates[b].two_qubit)
                assert pair == min(1.0, p * scale(a, b))


def _noise_layers(circuit):
    """Maximal runs of consecutive noise instructions of one name."""
    layers, run = [], []
    for inst in circuit.instructions:
        if run and (inst.name != run[0].name):
            layers.append(run)
            run = []
        if inst.name in NOISE_CHANNELS:
            run.append(inst)
    if run:
        layers.append(run)
    return layers


def _rounds(circuit):
    """Instruction names between TICKs: the rounds, then the final readout."""
    segments = []
    for inst in circuit.instructions:
        if inst.name == "TICK":
            segments.append([])
        elif segments:
            segments[-1].append(inst.name)
    return segments


class TestLayerShape:
    """The builder emits one instruction per gate layer and per run of equal
    noise probability, not one per gate or qubit."""

    @pytest.mark.parametrize("patch", [
        adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of()),
        adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of(qubits=[(5, 5)])),
    ], ids=["clean", "adapted"])
    def test_uniform_noise_gives_one_instruction_per_layer(self, patch):
        circuit = build_memory_circuit(patch, NOISE, 3)
        *rounds, final = _rounds(circuit)
        assert len(rounds) == 3
        for names in rounds:
            assert names.count("MR") == 1
            assert names.count("X_ERROR") == 1
            assert names.count("DEPOLARIZE2") == names.count("CX") > 0
            # Two Hadamard layers on the X ancillas, then the data idle.
            assert names.count("H") == 2
            assert names.count("DEPOLARIZE1") == 3
        assert final.count("M") == 1 and final.count("X_ERROR") == 1

    def test_first_round_detectors_read_their_own_ancilla(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        builder = SyndromeCircuitBuilder(patch, NOISE, 2)
        circuit = builder.build()
        mr = next(inst for inst in circuit.instructions if inst.name == "MR")
        z_ancillas = [builder.qubit_index(c.ancilla)
                      for c in patch.stabilizers if c.kind == "Z"]
        first_round = circuit.detectors()[:len(z_ancillas)]
        assert [mr.targets[t] for (t,) in first_round] == z_ancillas

    def test_bad_qubit_splits_a_layer_into_at_most_three_runs(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of())
        bad = sorted(patch.active_data)[12]
        circuit = build_memory_circuit(patch, NOISE.with_bad_qubit(bad, 0.05), 3)
        layers = _noise_layers(circuit)
        assert max(len(layer) for layer in layers) == 3
        clean = _noise_layers(build_memory_circuit(patch, NOISE, 3))
        assert max(len(layer) for layer in clean) == 1
        assert len(layers) == len(clean)
