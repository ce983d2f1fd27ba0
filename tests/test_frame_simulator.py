"""Physics tests for the Pauli-frame sampler (:class:`PackedFrameSimulator`)."""

import pytest

from repro.stabilizer import Circuit, PackedFrameSimulator, noiseless_deterministic


def _repetition_circuit(p: float) -> Circuit:
    """Three-qubit bit-flip repetition code, one round, with parity detectors."""
    c = Circuit(5)
    c.append("R", [0, 1, 2, 3, 4])
    c.append("X_ERROR", [0, 1, 2], p)
    c.append("CX", [0, 3, 1, 4])
    c.append("CX", [1, 3, 2, 4])
    c.append("M", [3, 4])
    c.append("DETECTOR", [0])
    c.append("DETECTOR", [1])
    c.append("M", [0, 1, 2])
    c.append("OBSERVABLE_INCLUDE", [2], 0)
    return c


class TestBasics:
    def test_negative_shots_raise(self):
        with pytest.raises(ValueError):
            PackedFrameSimulator(_repetition_circuit(0.0)).sample(-1)

    def test_zero_shots_yield_empty_sample(self):
        circuit = _repetition_circuit(0.01)
        samples = PackedFrameSimulator(circuit, seed=0).sample(0)
        assert samples.num_shots == 0
        assert samples.detectors.shape == (0, circuit.num_detectors)
        assert samples.observables.shape == (0, circuit.num_observables)

    def test_zero_noise_gives_zero_detectors(self):
        samples = PackedFrameSimulator(_repetition_circuit(0.0), seed=0).sample(64)
        assert not samples.detectors.any()
        assert not samples.observables.any()

    def test_shapes(self):
        samples = PackedFrameSimulator(_repetition_circuit(0.01), seed=0).sample(10)
        assert samples.detectors.shape == (10, 2)
        assert samples.observables.shape == (10, 1)
        assert samples.num_shots == 10
        assert samples.num_detectors == 2
        assert samples.num_observables == 1

    def test_certain_error_flips_everything(self):
        c = Circuit(1)
        c.append("R", [0])
        c.append("X_ERROR", [0], 1.0)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        c.append("OBSERVABLE_INCLUDE", [0], 0)
        samples = PackedFrameSimulator(c, seed=1).sample(32)
        assert samples.detectors.all()
        assert samples.observables.all()

    def test_z_error_invisible_to_z_measurement(self):
        c = Circuit(1)
        c.append("R", [0])
        c.append("Z_ERROR", [0], 1.0)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        samples = PackedFrameSimulator(c, seed=1).sample(16)
        assert not samples.detectors.any()

    def test_z_error_visible_to_x_measurement(self):
        c = Circuit(1)
        c.append("RX", [0])
        c.append("Z_ERROR", [0], 1.0)
        c.append("MX", [0])
        c.append("DETECTOR", [0])
        samples = PackedFrameSimulator(c, seed=1).sample(16)
        assert samples.detectors.all()

    def test_hadamard_swaps_error_type(self):
        c = Circuit(1)
        c.append("R", [0])
        c.append("Z_ERROR", [0], 1.0)
        c.append("H", [0])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        samples = PackedFrameSimulator(c, seed=2).sample(16)
        assert samples.detectors.all()

    def test_cx_propagates_x_error_to_target(self):
        c = Circuit(2)
        c.append("R", [0, 1])
        c.append("X_ERROR", [0], 1.0)
        c.append("CX", [0, 1])
        c.append("M", [1])
        c.append("DETECTOR", [0])
        samples = PackedFrameSimulator(c, seed=3).sample(16)
        assert samples.detectors.all()

    def test_reset_clears_errors(self):
        c = Circuit(1)
        c.append("X_ERROR", [0], 1.0)
        c.append("R", [0])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        samples = PackedFrameSimulator(c, seed=4).sample(16)
        assert not samples.detectors.any()

    def test_y_error_flips_both_bases(self):
        c = Circuit(2)
        c.append("R", [0])
        c.append("RX", [1])
        c.append("Y_ERROR", [0, 1], 1.0)
        c.append("M", [0])
        c.append("MX", [1])
        c.append("DETECTOR", [0])
        c.append("DETECTOR", [1])
        samples = PackedFrameSimulator(c, seed=5).sample(8)
        assert samples.detectors.all()


class TestStatistics:
    def test_single_qubit_error_rate_matches(self):
        p = 0.2
        c = Circuit(1)
        c.append("R", [0])
        c.append("X_ERROR", [0], p)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        samples = PackedFrameSimulator(c, seed=6).sample(20000)
        rate = samples.detectors.mean()
        assert abs(rate - p) < 0.02

    def test_depolarize1_flip_rate(self):
        # X or Y components flip a Z measurement: probability 2p/3.
        p = 0.3
        c = Circuit(1)
        c.append("R", [0])
        c.append("DEPOLARIZE1", [0], p)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        samples = PackedFrameSimulator(c, seed=7).sample(30000)
        assert abs(samples.detectors.mean() - 2 * p / 3) < 0.02

    def test_depolarize2_marginal_flip_rate(self):
        # Each qubit is flipped (X or Y component) by 8 of the 15 components.
        p = 0.3
        c = Circuit(2)
        c.append("R", [0, 1])
        c.append("DEPOLARIZE2", [0, 1], p)
        c.append("M", [0, 1])
        c.append("DETECTOR", [0])
        c.append("DETECTOR", [1])
        samples = PackedFrameSimulator(c, seed=8).sample(30000)
        expected = 8 * p / 15
        assert abs(samples.detectors[:, 0].mean() - expected) < 0.02
        assert abs(samples.detectors[:, 1].mean() - expected) < 0.02

    def test_repetition_code_observable_tracks_majority_failure(self):
        p = 0.1
        samples = PackedFrameSimulator(_repetition_circuit(p), seed=9).sample(20000)
        # The raw observable (qubit 2 flip) should fire at about rate p.
        assert abs(samples.observables.mean() - p) < 0.02

    def test_detection_fraction_reports_mean(self):
        samples = PackedFrameSimulator(_repetition_circuit(0.5), seed=10).sample(2000)
        assert 0.2 < samples.detection_fraction() < 0.8



class TestNoiselessDeterministic:
    def test_noisy_repetition_code_is_deterministic_without_noise(self):
        assert noiseless_deterministic(_repetition_circuit(0.01))

    def test_random_detector_found_past_a_long_prefix(self):
        """A detector that fires with probability 1/2 is reported random.

        The 110 prefix measurements consume RNG draws so that, at seed 0, an
        8-shot check happens to see the detector quiet in every shot; the
        256-shot check cannot miss it that way.
        """
        c = Circuit(2)
        c.append("R", [0, 1])
        for _ in range(110):
            c.append("M", [1])
        c.append("M", [0])
        c.append("H", [0])
        c.append("M", [0])
        c.append("DETECTOR", [c.num_measurements - 1])
        assert not noiseless_deterministic(c)

    def test_random_observable_is_reported(self):
        c = Circuit(1)
        c.append("R", [0])
        c.append("M", [0])
        c.append("H", [0])
        c.append("M", [0])
        c.append("OBSERVABLE_INCLUDE", [1], 0)
        assert not noiseless_deterministic(c)
