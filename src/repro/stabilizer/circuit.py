"""Stabilizer-circuit intermediate representation.

This is the Stim-equivalent circuit language used throughout the library.  A
:class:`Circuit` is an ordered list of :class:`Instruction` objects drawn from
a small gate set that is sufficient for surface-code syndrome extraction:

Clifford gates
    ``H``, ``CX``, ``X``, ``Z``, ``S`` (S is provided for completeness).

State preparation / measurement
    ``R`` (reset to |0>), ``RX`` (reset to |+>), ``M`` (Z-basis measure),
    ``MX`` (X-basis measure), ``MR`` (measure then reset, Z basis).

Pauli noise channels
    ``X_ERROR(p)``, ``Z_ERROR(p)``, ``Y_ERROR(p)``, ``DEPOLARIZE1(p)``,
    ``DEPOLARIZE2(p)``.

Annotations
    ``DETECTOR`` - the XOR of a set of measurement results that is
    deterministic in the absence of noise.  Targets are *absolute*
    measurement-record indices (0-based, in order of appearance).

    ``OBSERVABLE_INCLUDE`` - accumulates measurement results into a logical
    observable, identified by ``observable_index``.

    ``TICK`` - a no-op time boundary, useful for debugging and statistics.

The builder interface (:meth:`Circuit.append`) keeps the representation
simple while making it hard to produce an inconsistent circuit: qubit targets
must be non-negative, and detectors and observables are validated against the
number of measurements actually present.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "Instruction",
    "Circuit",
    "GATE_SET",
    "NOISE_CHANNELS",
    "SINGLE_QUBIT_GATES",
    "TWO_QUBIT_GATES",
    "MEASUREMENT_GATES",
    "RESET_GATES",
]

SINGLE_QUBIT_GATES = frozenset({"H", "X", "Z", "S"})
TWO_QUBIT_GATES = frozenset({"CX", "CZ"})
MEASUREMENT_GATES = frozenset({"M", "MX", "MR"})
RESET_GATES = frozenset({"R", "RX"})
NOISE_CHANNELS = frozenset(
    {"X_ERROR", "Z_ERROR", "Y_ERROR", "DEPOLARIZE1", "DEPOLARIZE2"}
)
ANNOTATIONS = frozenset({"DETECTOR", "OBSERVABLE_INCLUDE", "TICK"})
# Instructions whose targets are qubit indices.
_QUBIT_INSTRUCTIONS = (SINGLE_QUBIT_GATES | TWO_QUBIT_GATES | MEASUREMENT_GATES
                       | RESET_GATES | NOISE_CHANNELS)

GATE_SET = _QUBIT_INSTRUCTIONS | ANNOTATIONS


@dataclass(frozen=True)
class Instruction:
    """A single circuit instruction.

    Attributes
    ----------
    name:
        One of the names in :data:`GATE_SET`.
    targets:
        Qubit indices for gates/noise, measurement-record indices for
        ``DETECTOR`` / ``OBSERVABLE_INCLUDE``, empty for ``TICK``.
        Two-qubit gates list pairs flattened: ``(c0, t0, c1, t1, ...)``.
    arg:
        Probability for noise channels, observable index for
        ``OBSERVABLE_INCLUDE``, unused otherwise.
    """

    name: str
    targets: Tuple[int, ...] = ()
    arg: float = 0.0

    def __post_init__(self) -> None:
        if self.name not in GATE_SET:
            raise ValueError(f"unknown instruction name {self.name!r}")
        if self.name in TWO_QUBIT_GATES or self.name == "DEPOLARIZE2":
            if len(self.targets) % 2 != 0:
                raise ValueError(f"{self.name} requires an even number of targets")
        if self.name in _QUBIT_INSTRUCTIONS and self.targets and min(self.targets) < 0:
            raise ValueError(f"{self.name} has a negative qubit target {min(self.targets)}")
        if self.name in NOISE_CHANNELS and not 0.0 <= self.arg <= 1.0:
            raise ValueError(f"noise probability {self.arg} outside [0, 1]")

    def target_pairs(self) -> List[Tuple[int, int]]:
        """Interpret targets as a flattened list of pairs."""
        return [
            (self.targets[i], self.targets[i + 1]) for i in range(0, len(self.targets), 2)
        ]


class Circuit:
    """An ordered stabilizer circuit with measurement/detector bookkeeping."""

    def __init__(self, num_qubits: int = 0):
        self.num_qubits = int(num_qubits)
        self._instructions: List[Instruction] = []
        self.num_measurements = 0
        self.num_detectors = 0
        self._observable_indices: set[int] = set()
        # fuse -> compiled sampler program (repro.stabilizer.packed), shared
        # by the DEM builder and every sampler; append clears it, as it
        # clears the flag that a passing validate() sets.
        self._programs: dict = {}
        self._validated = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(
        self, name: str, targets: Iterable[int] = (), arg: float = 0.0
    ) -> Instruction:
        """Append an instruction, updating qubit/measurement/detector counts."""
        targets = tuple(map(int, targets))
        inst = Instruction(name, targets, arg)

        if name in _QUBIT_INSTRUCTIONS:
            if targets:
                self.num_qubits = max(self.num_qubits, max(targets) + 1)
            if name in TWO_QUBIT_GATES or name == "DEPOLARIZE2":
                for a, b in zip(targets[::2], targets[1::2]):
                    if a == b:
                        raise ValueError(f"{name} applied to identical qubits {a}")
        elif name in ("DETECTOR", "OBSERVABLE_INCLUDE"):
            n = self.num_measurements
            if targets and (min(targets) < 0 or max(targets) >= n):
                t = next(t for t in targets if not 0 <= t < n)
                raise ValueError(
                    f"{name} references measurement {t} but only {n} exist so far"
                )
            if name == "DETECTOR":
                self.num_detectors += 1
            else:
                self._observable_indices.add(int(arg))
        if name in MEASUREMENT_GATES:
            self.num_measurements += len(targets)

        self._instructions.append(inst)
        self._programs.clear()
        self._validated = False
        return inst

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """The instructions in order, read-only: :meth:`append` is the only
        way in, so the compiled-program memo can never go stale."""
        return tuple(self._instructions)

    @property
    def num_observables(self) -> int:
        if not self._observable_indices:
            return 0
        return max(self._observable_indices) + 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def count(self, name: str) -> int:
        """Number of instructions with the given name."""
        return sum(1 for inst in self._instructions if inst.name == name)

    def count_targets(self, name: str) -> int:
        """Total number of targets across instructions with the given name."""
        return sum(len(i.targets) for i in self._instructions if i.name == name)

    def without_noise(self) -> "Circuit":
        """A copy of the circuit with all noise channels removed."""
        out = Circuit(self.num_qubits)
        for inst in self._instructions:
            if inst.name in NOISE_CHANNELS:
                continue
            out.append(inst.name, inst.targets, inst.arg)
        return out

    def detectors(self) -> List[Tuple[int, ...]]:
        """List of measurement-index tuples, one per detector, in order."""
        return [i.targets for i in self._instructions if i.name == "DETECTOR"]

    def observables(self) -> Dict[int, List[int]]:
        """Mapping observable index -> accumulated measurement indices."""
        out: Dict[int, List[int]] = {}
        for inst in self._instructions:
            if inst.name == "OBSERVABLE_INCLUDE":
                out.setdefault(int(inst.arg), []).extend(inst.targets)
        return out

    def validate(self) -> None:
        """Raise ``ValueError`` if the circuit is internally inconsistent.

        A pass is remembered until the next :meth:`append`, so the builder,
        the DEM and every sampler of one circuit pay for one check.
        """
        if self._validated:
            return
        measured = 0
        for inst in self._instructions:
            name, targets = inst.name, inst.targets
            if not targets:
                continue
            if name in MEASUREMENT_GATES:
                measured += len(targets)
            if name in ("DETECTOR", "OBSERVABLE_INCLUDE"):
                if max(targets) >= measured:
                    t = next(t for t in targets if t >= measured)
                    raise ValueError(
                        f"{name} references a measurement ({t}) that has "
                        f"not happened yet ({measured} so far)"
                    )
            elif max(targets) >= self.num_qubits:
                t = next(t for t in targets if t >= self.num_qubits)
                raise ValueError(f"target {t} exceeds num_qubits={self.num_qubits}")
        if measured != self.num_measurements:
            raise ValueError("measurement count bookkeeping is inconsistent")
        self._validated = True

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self):
        return iter(self._instructions)

    def __str__(self) -> str:
        lines = []
        for inst in self._instructions:
            parts = [inst.name]
            if inst.name in NOISE_CHANNELS or inst.name == "OBSERVABLE_INCLUDE":
                parts.append(f"({inst.arg})")
            if inst.targets:
                parts.append(" " + " ".join(str(t) for t in inst.targets))
            lines.append("".join(parts))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<Circuit qubits={self.num_qubits} instructions={len(self._instructions)} "
            f"measurements={self.num_measurements} detectors={self.num_detectors} "
            f"observables={self.num_observables}>"
        )
