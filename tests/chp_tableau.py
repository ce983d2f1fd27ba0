"""Reference CHP (Aaronson–Gottesman) stabilizer tableau simulator.

The test suite's independent oracle.  The frame sampler in
:mod:`repro.stabilizer.packed` is fast but it *assumes* that every detector
is deterministic under zero noise.  This module provides an independent,
slower, exact stabilizer simulator used to validate that assumption and to
cross-check measurement statistics on small circuits.

The implementation follows the standard CHP construction: the state of ``n``
qubits is a ``2n x (2n+1)`` binary tableau whose first ``n`` rows are
destabilizers and last ``n`` rows are stabilizers, with a sign column.
Deterministic measurements are resolved by Gaussian elimination over the
destabilizer rows; random measurements collapse the state with a supplied
random number generator.
"""

from __future__ import annotations

import numpy as np

from repro.stabilizer import Circuit

__all__ = ["TableauSimulator"]


class TableauSimulator:
    """Exact stabilizer simulator over the gate set of :mod:`repro.stabilizer.circuit`."""

    def __init__(self, num_qubits: int, seed: int | None = None):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        n = num_qubits
        self.n = n
        self.rng = np.random.default_rng(seed)
        # x[i][j], z[i][j], r[i] for rows i in [0, 2n); row i < n destabilizers.
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=bool)
        for i in range(n):
            self.x[i, i] = True          # destabilizer X_i
            self.z[n + i, i] = True      # stabilizer Z_i
        self.measurement_record: list[bool] = []

    # ------------------------------------------------------------------
    # Elementary gates
    # ------------------------------------------------------------------
    def h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def x_gate(self, q: int) -> None:
        self.r ^= self.z[:, q]

    def z_gate(self, q: int) -> None:
        self.r ^= self.x[:, q]

    def cx(self, c: int, t: int) -> None:
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ True)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cx(a, b)
        self.h(b)

    # ------------------------------------------------------------------
    # Row operations used by measurement
    # ------------------------------------------------------------------
    @staticmethod
    def _g(x1: bool, z1: bool, x2: bool, z2: bool) -> int:
        """Exponent of i when multiplying single-qubit Paulis (CHP helper)."""
        if not x1 and not z1:
            return 0
        if x1 and z1:
            return (int(z2) - int(x2))
        if x1 and not z1:
            return int(z2) * (2 * int(x2) - 1)
        return int(x2) * (1 - 2 * int(z2))

    def _rowsum(self, h: int, i: int) -> None:
        """Row h <- row h * row i (Pauli product with phase tracking)."""
        total = 2 * int(self.r[h]) + 2 * int(self.r[i])
        for j in range(self.n):
            total += self._g(self.x[i, j], self.z[i, j], self.x[h, j], self.z[h, j])
        total %= 4
        self.r[h] = total == 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    # ------------------------------------------------------------------
    # Measurement and reset
    # ------------------------------------------------------------------
    def measure_z(self, q: int, record: bool = True) -> bool:
        """Measure qubit ``q`` in the Z basis, collapse, and return the result.

        ``record=False`` performs the collapse without appending to the
        measurement record (used internally by resets).
        """
        n = self.n
        p = -1
        for i in range(n, 2 * n):
            if self.x[i, q]:
                p = i
                break
        if p >= 0:
            # Random outcome; collapse.
            for i in range(2 * n):
                if i != p and self.x[i, q]:
                    self._rowsum(i, p)
            self.x[p - n] = self.x[p].copy()
            self.z[p - n] = self.z[p].copy()
            self.r[p - n] = self.r[p]
            self.x[p] = False
            self.z[p] = False
            self.z[p, q] = True
            outcome = bool(self.rng.integers(0, 2))
            self.r[p] = outcome
            if record:
                self.measurement_record.append(outcome)
            return outcome
        # Deterministic outcome: compute via scratch row.
        scratch_x = np.zeros(self.n, dtype=bool)
        scratch_z = np.zeros(self.n, dtype=bool)
        scratch_r = 0
        for i in range(n):
            if self.x[i, q]:
                total = 2 * scratch_r + 2 * int(self.r[i + n])
                for j in range(self.n):
                    total += self._g(self.x[i + n, j], self.z[i + n, j],
                                     scratch_x[j], scratch_z[j])
                total %= 4
                scratch_r = 1 if total == 2 else 0
                scratch_x ^= self.x[i + n]
                scratch_z ^= self.z[i + n]
        outcome = bool(scratch_r)
        if record:
            self.measurement_record.append(outcome)
        return outcome

    def measure_x(self, q: int) -> bool:
        self.h(q)
        out = self.measure_z(q)
        self.h(q)
        return out

    def reset_z(self, q: int) -> None:
        out = self.measure_z(q, record=False)
        if out:
            self.x_gate(q)

    def reset_x(self, q: int) -> None:
        self.h(q)
        self.reset_z(q)
        self.h(q)

    # ------------------------------------------------------------------
    # Circuit execution
    # ------------------------------------------------------------------
    def run(self, circuit: Circuit) -> "TableauRunResult":
        """Execute a (noiseless) circuit and evaluate detectors/observables.

        Noise channels are ignored (probability-zero behaviour); use the frame
        simulator for noisy sampling.
        """
        detectors: list[bool] = []
        observables = [False] * max(circuit.num_observables, 1)
        for inst in circuit.instructions:
            name = inst.name
            if name == "H":
                for q in inst.targets:
                    self.h(q)
            elif name == "S":
                for q in inst.targets:
                    self.s(q)
            elif name == "X":
                for q in inst.targets:
                    self.x_gate(q)
            elif name == "Z":
                for q in inst.targets:
                    self.z_gate(q)
            elif name == "CX":
                for c, t in inst.target_pairs():
                    self.cx(c, t)
            elif name == "CZ":
                for a, b in inst.target_pairs():
                    self.cz(a, b)
            elif name == "M":
                for q in inst.targets:
                    self.measure_z(q)
            elif name == "MX":
                for q in inst.targets:
                    self.measure_x(q)
            elif name == "MR":
                for q in inst.targets:
                    out = self.measure_z(q)
                    if out:
                        self.x_gate(q)
            elif name == "R":
                for q in inst.targets:
                    self.reset_z(q)
            elif name == "RX":
                for q in inst.targets:
                    self.reset_x(q)
            elif name == "DETECTOR":
                acc = False
                for mi in inst.targets:
                    acc ^= self.measurement_record[mi]
                detectors.append(acc)
            elif name == "OBSERVABLE_INCLUDE":
                obs = int(inst.arg)
                for mi in inst.targets:
                    observables[obs] ^= self.measurement_record[mi]
            else:
                # Noise channels and TICK are ignored in the reference run.
                continue
        return TableauRunResult(
            detectors=detectors,
            observables=observables[: circuit.num_observables],
            measurements=list(self.measurement_record),
        )


class TableauRunResult:
    """Outcome of a single noiseless tableau run."""

    def __init__(self, detectors: list[bool], observables: list[bool],
                 measurements: list[bool]):
        self.detectors = detectors
        self.observables = observables
        self.measurements = measurements

    def all_detectors_zero(self) -> bool:
        return not any(self.detectors)
