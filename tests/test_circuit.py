"""Tests for the stabilizer-circuit IR."""

import pytest

from repro.stabilizer.circuit import NOISE_CHANNELS, Circuit, Instruction


class TestInstruction:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            Instruction("FOO", (0,))

    def test_two_qubit_gate_needs_even_targets(self):
        with pytest.raises(ValueError):
            Instruction("CX", (0, 1, 2))

    def test_noise_probability_range(self):
        with pytest.raises(ValueError):
            Instruction("X_ERROR", (0,), 1.5)

    @pytest.mark.parametrize("name, targets", [
        ("H", (-1,)), ("CX", (0, -2)), ("X_ERROR", (-1,)), ("DEPOLARIZE2", (0, -1)),
        ("M", (-1,)), ("MR", (-3,)), ("R", (-1,)), ("RX", (0, -1)),
    ])
    def test_negative_qubit_target_rejected(self, name, targets):
        with pytest.raises(ValueError, match="negative qubit target"):
            Instruction(name, targets, 0.1 if "ERROR" in name or "DEPOL" in name else 0.0)

    def test_target_pairs(self):
        inst = Instruction("CX", (0, 1, 2, 3))
        assert inst.target_pairs() == [(0, 1), (2, 3)]


class TestCircuit:
    def test_num_qubits_grows_with_targets(self):
        c = Circuit()
        c.append("H", [5])
        assert c.num_qubits == 6

    def test_measurement_counting(self):
        c = Circuit(2)
        c.append("M", [0, 1])
        c.append("MR", [0])
        assert c.num_measurements == 3

    def test_detector_validates_measurement_indices(self):
        c = Circuit(1)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        with pytest.raises(ValueError):
            c.append("DETECTOR", [5])

    def test_observable_validates_measurement_indices(self):
        c = Circuit(1)
        c.append("M", [0])
        with pytest.raises(ValueError):
            c.append("OBSERVABLE_INCLUDE", [3], 0)

    def test_observable_count(self):
        c = Circuit(1)
        c.append("M", [0])
        c.append("OBSERVABLE_INCLUDE", [0], 2)
        assert c.num_observables == 3

    def test_append_rejects_negative_qubit_target(self):
        # numpy would wrap -1 to the last qubit in the sampler while the DEM
        # builder ignored the fault; the circuit must not exist at all.
        c = Circuit(2)
        c.append("R", [0, 1])
        with pytest.raises(ValueError, match="negative qubit target"):
            c.append("X_ERROR", [-1], 1.0)
        assert len(c) == 1 and c.num_qubits == 2

    def test_cx_identical_qubits_rejected(self):
        c = Circuit(2)
        with pytest.raises(ValueError):
            c.append("CX", [1, 1])

    def test_without_noise_strips_channels(self):
        c = Circuit(2)
        c.append("H", [0])
        c.append("DEPOLARIZE1", [0], 0.01)
        c.append("CX", [0, 1])
        c.append("DEPOLARIZE2", [0, 1], 0.01)
        c.append("M", [0, 1])
        c.append("DETECTOR", [0, 1])
        clean = c.without_noise()
        assert not any(inst.name in NOISE_CHANNELS
                       for inst in clean.instructions)
        assert clean.num_detectors == 1
        assert clean.num_measurements == 2

    def test_counts(self):
        c = Circuit(3)
        c.append("H", [0, 1])
        c.append("H", [2])
        assert c.count("H") == 2
        assert c.count_targets("H") == 3

    def test_detectors_and_observables_views(self):
        c = Circuit(1)
        c.append("M", [0])
        c.append("M", [0])
        c.append("DETECTOR", [0, 1])
        c.append("OBSERVABLE_INCLUDE", [1], 0)
        assert c.detectors() == [(0, 1)]
        assert c.observables() == {0: [1]}

    def test_validate_catches_future_reference(self):
        c = Circuit(1)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        # Simulate a builder bug: append refuses a detector ahead of its
        # measurement and `instructions` is read-only, so corrupt the
        # private list by hand.  No validate() has passed on this circuit,
        # so the remembered-pass flag is clear and the check really runs.
        c._instructions.insert(0, Instruction("DETECTOR", (0,)))
        with pytest.raises(ValueError):
            c.validate()

    def test_validate_runs_again_after_append(self):
        c = Circuit(1)
        c.append("M", [0])
        c.validate()
        assert c._validated
        c._instructions.insert(0, Instruction("DETECTOR", (0,)))
        # Any append clears the remembered pass, so the corruption is seen.
        c.append("M", [0])
        assert not c._validated
        with pytest.raises(ValueError):
            c.validate()

    def test_instructions_are_read_only(self):
        c = Circuit(1)
        c.append("M", [0])
        with pytest.raises(AttributeError):
            c.instructions.insert(0, Instruction("X_ERROR", (0,), 1.0))
        with pytest.raises(AttributeError):
            c.instructions = []
        assert c.instructions == (Instruction("M", (0,)),)

    def test_str_and_repr(self):
        c = Circuit(2)
        c.append("CX", [0, 1])
        c.append("DEPOLARIZE2", [0, 1], 0.001)
        text = str(c)
        assert "CX 0 1" in text
        assert "DEPOLARIZE2" in text
        assert "qubits=2" in repr(c)

    def test_len_and_iter(self):
        c = Circuit(1)
        c.append("H", [0])
        c.append("M", [0])
        assert len(c) == 2
        assert [i.name for i in c] == ["H", "M"]

