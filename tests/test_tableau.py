"""Tests for the reference CHP tableau simulator."""

import numpy as np
import pytest

from repro.stabilizer import Circuit, TableauSimulator, noiseless_deterministic


class TestGates:
    def test_reset_then_measure_is_zero(self):
        sim = TableauSimulator(1, seed=0)
        sim.reset_z(0)
        assert sim.measure_z(0) is False

    def test_x_flip_measured(self):
        sim = TableauSimulator(1, seed=0)
        sim.reset_z(0)
        sim.x_gate(0)
        assert sim.measure_z(0) is True

    def test_plus_state_x_measurement_deterministic(self):
        sim = TableauSimulator(1, seed=0)
        sim.reset_x(0)
        assert sim.measure_x(0) is False

    def test_plus_state_z_measurement_random(self):
        outcomes = set()
        for seed in range(20):
            sim = TableauSimulator(1, seed=seed)
            sim.reset_x(0)
            outcomes.add(sim.measure_z(0))
        assert outcomes == {True, False}

    def test_bell_pair_correlated(self):
        for seed in range(10):
            sim = TableauSimulator(2, seed=seed)
            sim.reset_z(0)
            sim.reset_z(1)
            sim.h(0)
            sim.cx(0, 1)
            a = sim.measure_z(0)
            b = sim.measure_z(1)
            assert a == b

    def test_ghz_parity(self):
        for seed in range(10):
            sim = TableauSimulator(3, seed=seed)
            for q in range(3):
                sim.reset_z(q)
            sim.h(0)
            sim.cx(0, 1)
            sim.cx(1, 2)
            results = [sim.measure_z(q) for q in range(3)]
            assert len(set(results)) == 1

    def test_cz_equivalent_to_hadamard_conjugated_cx(self):
        sim = TableauSimulator(2, seed=1)
        sim.reset_x(0)
        sim.reset_x(1)
        sim.cz(0, 1)
        sim.cz(0, 1)
        # CZ twice is identity: both qubits still in |+>.
        assert sim.measure_x(0) is False
        assert sim.measure_x(1) is False

    def test_s_gate_squares_to_z(self):
        sim = TableauSimulator(1, seed=0)
        sim.reset_x(0)
        sim.s(0)
        sim.s(0)
        # S^2 = Z maps |+> to |->.
        assert sim.measure_x(0) is True

    def test_num_qubits_must_be_positive(self):
        with pytest.raises(ValueError):
            TableauSimulator(0)


class TestCircuitExecution:
    def test_measurement_record_indices(self):
        c = Circuit(2)
        c.append("R", [0, 1])
        c.append("X", [1])
        c.append("M", [0, 1])
        c.append("DETECTOR", [0])
        c.append("DETECTOR", [1])
        res = TableauSimulator(2, seed=0).run(c)
        assert res.detectors == [False, True]
        assert res.measurements == [False, True]

    def test_reset_does_not_pollute_record(self):
        c = Circuit(1)
        c.append("R", [0])
        c.append("R", [0])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        res = TableauSimulator(1, seed=0).run(c)
        assert len(res.measurements) == 1

    def test_mr_resets(self):
        c = Circuit(1)
        c.append("R", [0])
        c.append("X", [0])
        c.append("MR", [0])
        c.append("M", [0])
        c.append("DETECTOR", [1])
        res = TableauSimulator(1, seed=0).run(c)
        assert res.measurements == [True, False]
        assert res.detectors == [False]

    def test_observable_accumulation(self):
        c = Circuit(1)
        c.append("R", [0])
        c.append("X", [0])
        c.append("M", [0])
        c.append("OBSERVABLE_INCLUDE", [0], 0)
        res = TableauSimulator(1, seed=0).run(c)
        assert res.observables == [True]

    def test_noise_channels_ignored(self):
        c = Circuit(1)
        c.append("R", [0])
        c.append("X_ERROR", [0], 1.0)
        c.append("M", [0])
        c.append("DETECTOR", [0])
        res = TableauSimulator(1, seed=0).run(c)
        assert res.detectors == [False]

    def test_all_detectors_zero_helper(self):
        c = Circuit(1)
        c.append("R", [0])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        assert TableauSimulator(1, seed=0).run(c).all_detectors_zero()


def _random_detector_circuit(rng, n=4) -> Circuit:
    """Three measurement rounds around random Clifford layers, two detectors.

    Round 0 measures ``|0...0>``; an H layer on a random subset, then random
    CX/CZ/S gates, precede round 1; random CX/CZ/S gates precede round 2.
    No gate after the H layer mixes X into Z, so every Z outcome is a
    parity of the H-layer bits, and a deterministic detector is 0 — the
    convention every circuit in this library follows.  Each detector is a
    round-1 outcome or the comparison of a qubit's round-1 and round-2
    outcomes, so it is random or not depending on the draw.
    """
    def mix(c, gates):
        for _ in range(gates):
            kind = rng.integers(0, 3)
            if kind == 2:
                c.append("S", [int(rng.integers(0, n))])
            else:
                a, b = rng.choice(n, size=2, replace=False)
                c.append("CX" if kind == 0 else "CZ", [int(a), int(b)])

    c = Circuit(n)
    c.append("R", list(range(n)))
    c.append("M", list(range(n)))
    hadamards = [q for q in range(n) if rng.random() < 0.4]
    if hadamards:
        c.append("H", hadamards)
    mix(c, 4)
    c.append("M", list(range(n)))
    mix(c, 4)
    c.append("M", list(range(n)))
    for _ in range(2):
        q = int(rng.integers(0, n))
        c.append("DETECTOR", [n + q] if rng.random() < 0.5 else [n + q, 2 * n + q])
    return c


class TestAgreementWithFrameSimulator:
    def test_random_clifford_circuit_detector_determinism_agrees(self):
        """Circuits whose detectors the frame simulator treats as deterministic
        must indeed be deterministic according to the exact simulator, and
        the ones it finds random must fire in the exact simulator too."""
        rng = np.random.default_rng(12)
        verdicts = []
        for _ in range(30):
            c = _random_detector_circuit(rng)
            deterministic = noiseless_deterministic(c)
            verdicts.append(deterministic)
            if deterministic:
                for seed in range(4):
                    assert TableauSimulator(4, seed=seed).run(c).all_detectors_zero()
            else:
                assert any(not TableauSimulator(4, seed=seed).run(c).all_detectors_zero()
                           for seed in range(16))
        assert any(verdicts) and not all(verdicts)

    def test_random_detector_past_a_long_prefix_fires(self):
        c = Circuit(2)
        c.append("R", [0, 1])
        for _ in range(110):
            c.append("M", [1])
        c.append("M", [0])
        c.append("H", [0])
        c.append("M", [0])
        c.append("DETECTOR", [c.num_measurements - 1])
        assert not noiseless_deterministic(c)
        assert any(not TableauSimulator(2, seed=seed).run(c).all_detectors_zero()
                   for seed in range(16))
