"""Syndrome-extraction circuits for adapted surface-code patches.

This module generates the noisy stabilizer circuits that the paper runs on
Stim; here they target :mod:`repro.stabilizer`.  One generic builder covers
both experiment families used in the paper:

* **memory experiments** (Sec. 4): data qubits initialised and measured in the
  Z basis, the observable is a logical-Z representative read from the final
  data measurements, and the relevant detectors are the Z-type checks;
* **stability experiments** (Sec. 6): data qubits initialised and measured in
  the X basis on the all-Z-boundary :class:`StabilityLayout`, the observable
  is the product of every Z-type check outcome in the first round (which is
  deterministic because the product of all Z checks is the identity on that
  patch), and the relevant detectors are again the Z-type checks, now forming
  a time-like matching problem.

Super-stabilizer handling follows Sec. 3: gauge operators of a defect cluster
are measured on a schedule of alternating blocks (``Z^n X^n Z^n ...`` with
``n`` the cluster repetition count); individual gauge outcomes are compared
between consecutive rounds inside a block, and only the gauge *products* are
compared across blocks and against the final data readout.

The standard interleaved CNOT schedule (Tomita & Svore) is used: Z-type
checks couple their data qubits in the order NE, NW, SE, SW and X-type checks
in the order NE, SE, NW, SW (directions are data-minus-ancilla), which keeps
every data qubit involved in at most one two-qubit gate per time step.

Circuits are built one instruction per gate layer: each Hadamard and CNOT
step is one ``H``/``CX``, each round measures all its ancillas with one
``MR`` and the final readout is one ``M``/``MX``.  A noise layer is one
instruction per run of equal probability, so with uniform noise it is one
instruction, and one bad qubit splits it into at most three.  Each qubit's
rates are looked up once per build, and rounds that measure the same checks
share one layer list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from ..noise.circuit_noise import CircuitNoiseModel
from ..stabilizer.circuit import Circuit
from .layout import Coord

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance, types only
    from ..core.patch import AdaptedPatch

__all__ = [
    "CircuitBuildError",
    "build_memory_circuit",
    "build_stability_circuit",
    "SyndromeCircuitBuilder",
]

# Data-qubit coupling order relative to the ancilla, per check type.
_Z_ORDER: Tuple[Coord, ...] = ((1, 1), (-1, 1), (1, -1), (-1, -1))
_X_ORDER: Tuple[Coord, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


# One instruction to append: (name, targets, arg).
_Layer = Tuple[str, List[int], float]


class CircuitBuildError(RuntimeError):
    """Raised when a valid circuit cannot be generated for a patch."""


@dataclass(frozen=True)
class _ScheduledCheck:
    """A check or gauge with its measurement-schedule metadata."""

    kind: str
    ancilla: Coord
    data: Tuple[Coord, ...]
    is_gauge: bool
    cluster_id: Optional[int] = None


class SyndromeCircuitBuilder:
    """Builds noisy syndrome-extraction circuits for an adapted patch."""

    def __init__(
        self,
        patch: "AdaptedPatch",
        noise: CircuitNoiseModel,
        rounds: int,
        *,
        detector_basis: str = "Z",
        data_init_basis: str = "Z",
        observable: str = "logical_z",
    ):
        if rounds < 1:
            raise ValueError("at least one measurement round is required")
        if detector_basis not in ("Z", "X", "both"):
            raise ValueError("detector_basis must be 'Z', 'X' or 'both'")
        if data_init_basis not in ("Z", "X"):
            raise ValueError("data_init_basis must be 'Z' or 'X'")
        if observable not in ("logical_z", "logical_x", "stability_z"):
            raise ValueError(f"unknown observable {observable!r}")
        if not patch.valid:
            raise CircuitBuildError(f"patch is invalid: {patch.failure_reason}")
        self.patch = patch
        self.noise = noise
        self.rounds = int(rounds)
        self.detector_basis = detector_basis
        self.data_init_basis = data_init_basis
        self.observable = observable

        self._index: Dict[Coord, int] = {}
        for coord in list(patch.active_data) + list(patch.active_ancillas):
            self._index[coord] = len(self._index)
        self._scheduled = self._collect_checks()
        self._meas_key: Dict[Tuple[Coord, int], int] = {}
        self._final_key: Dict[Coord, int] = {}
        self._rates = noise.rates_by_qubit(self._index)
        # Measured-this-round flags -> that round's layers: rounds measuring
        # the same checks share one layout.
        self._layers: Dict[Tuple[bool, ...], List[_Layer]] = {}

    # ------------------------------------------------------------------
    # Static structure
    # ------------------------------------------------------------------
    def _collect_checks(self) -> List[_ScheduledCheck]:
        out: List[_ScheduledCheck] = []
        for check in self.patch.stabilizers:
            out.append(_ScheduledCheck(check.kind, check.ancilla, tuple(check.data),
                                       is_gauge=False))
        for ss in self.patch.super_stabilizers:
            for g in ss.gauges:
                out.append(_ScheduledCheck(g.kind, g.ancilla, g.data,
                                           is_gauge=True, cluster_id=ss.cluster_id))
        return out

    def _block_kind(self, cluster_id: int, round_index: int) -> str:
        """Which gauge type a cluster measures in a given round (Z blocks first)."""
        reps = self.patch.cluster_repetitions.get(cluster_id, 1)
        return "Z" if (round_index // reps) % 2 == 0 else "X"

    def _measured_this_round(self, item: _ScheduledCheck, round_index: int) -> bool:
        if not item.is_gauge:
            return True
        return self._block_kind(item.cluster_id, round_index) == item.kind

    def qubit_index(self, coord: Coord) -> int:
        return self._index[coord]

    # ------------------------------------------------------------------
    # Observable supports
    # ------------------------------------------------------------------
    def _logical_support(self, logical: str) -> Tuple[Coord, ...]:
        """A logical representative avoiding every gauge-operator qubit.

        Logical Z must commute with the individually-measured X gauges (and
        vice versa), so the representative is routed around super-stabilizer
        regions.  Raises :class:`CircuitBuildError` when no such routing
        exists (extremely damaged patches).
        """
        from ..core.metrics import build_chain_graph

        error_type = "Z" if logical == "logical_z" else "X"
        avoid = {d for g in self.patch.gauge_operators for d in g.data}
        graph = build_chain_graph(self.patch, error_type)
        path = graph.shortest_path_qubits(avoid=avoid)
        if path is None:
            path = graph.shortest_path_qubits()
        if path is None:
            raise CircuitBuildError(
                f"no {logical} representative exists on this patch"
            )
        return tuple(path)

    # ------------------------------------------------------------------
    # Circuit assembly
    # ------------------------------------------------------------------
    def build(self) -> Circuit:
        circuit = Circuit(num_qubits=len(self._index))
        data = self.patch.active_data

        # Initial resets.
        reset_gate = "R" if self.data_init_basis == "Z" else "RX"
        circuit.append(reset_gate, [self._index[d] for d in data])
        all_anc = sorted({self._index[c.ancilla] for c in self._scheduled})
        circuit.append("R", all_anc)
        if self.noise.reset_factor > 0:
            for layer in self._noise_layers("X_ERROR", data,
                                            [self._rates[d].reset for d in data]):
                circuit.append(*layer)

        for r in range(self.rounds):
            self._append_round(circuit, r)
            self._append_round_detectors(circuit, r)

        self._append_final_readout(circuit)
        self._append_final_detectors(circuit)
        self._append_observable(circuit)
        circuit.validate()
        return circuit

    def _noise_layers(self, name: str, qubits: Sequence[Coord],
                      probs: Sequence[float]) -> List[_Layer]:
        """One ``name`` layer per run of equal probability.

        ``probs`` holds one rate per qubit, or per pair for ``DEPOLARIZE2``
        (whose ``qubits`` are the gate pairs flattened).
        """
        width = 2 if name == "DEPOLARIZE2" else 1
        targets = [self._index[q] for q in qubits]
        layers: List[_Layer] = []
        start = 0
        for end in range(1, len(probs) + 1):
            if end == len(probs) or probs[end] != probs[start]:
                layers.append((name, targets[start * width:end * width], probs[start]))
                start = end
        return layers

    def _round_layers(self, measured: Sequence[_ScheduledCheck]) -> List[_Layer]:
        """Every layer of a round that measures ``measured``, after its TICK."""
        rates = self._rates
        x_ancillas = [c.ancilla for c in measured if c.kind == "X"]
        hadamard: List[_Layer] = []
        if x_ancillas:
            hadamard.append(("H", [self._index[a] for a in x_ancillas], 0.0))
            hadamard += self._noise_layers(
                "DEPOLARIZE1", x_ancillas, [rates[a].single_qubit for a in x_ancillas])

        layers = list(hadamard)
        for phase in range(4):
            pairs: List[Coord] = []
            for item in measured:
                order = _Z_ORDER if item.kind == "Z" else _X_ORDER
                dx, dy = order[phase]
                target = (item.ancilla[0] + dx, item.ancilla[1] + dy)
                if target not in item.data:
                    continue
                if item.kind == "Z":
                    pairs += (target, item.ancilla)
                else:
                    pairs += (item.ancilla, target)
            if pairs:
                layers.append(("CX", [self._index[q] for q in pairs], 0.0))
                layers += self._noise_layers(
                    "DEPOLARIZE2", pairs,
                    [max(rates[a].two_qubit, rates[b].two_qubit)
                     for a, b in zip(pairs[::2], pairs[1::2])])
        layers += hadamard

        # Readout errors, then measure-and-reset every scheduled ancilla.
        ancillas = [item.ancilla for item in measured]
        if ancillas:
            layers += self._noise_layers("X_ERROR", ancillas,
                                         [rates[a].readout for a in ancillas])
            layers.append(("MR", [self._index[a] for a in ancillas], 0.0))

        # Idle noise on data qubits while the ancillas are processed.
        if self.noise.idle_data_factor > 0:
            data = self.patch.active_data
            layers += self._noise_layers("DEPOLARIZE1", data,
                                         [rates[d].idle for d in data])
        return layers

    # ------------------------------------------------------------------
    def _append_round(self, circuit: Circuit, round_index: int) -> None:
        flags = tuple(self._measured_this_round(c, round_index) for c in self._scheduled)
        measured = [c for c, on in zip(self._scheduled, flags) if on]
        layers = self._layers.get(flags)
        if layers is None:
            layers = self._layers[flags] = self._round_layers(measured)
        first = circuit.num_measurements
        circuit.append("TICK")
        for layer in layers:
            circuit.append(*layer)
        for k, item in enumerate(measured):
            self._meas_key[(item.ancilla, round_index)] = first + k

    # ------------------------------------------------------------------
    def _wants_detectors(self, kind: str) -> bool:
        return self.detector_basis == "both" or self.detector_basis == kind

    def _append_round_detectors(self, circuit: Circuit, round_index: int) -> None:
        # Regular stabilizers: compare to the previous round (or to the
        # deterministic initial value on the first round).
        for item in self._scheduled:
            if item.is_gauge or not self._wants_detectors(item.kind):
                continue
            current = self._meas_key[(item.ancilla, round_index)]
            if round_index == 0:
                if item.kind == self.data_init_basis:
                    circuit.append("DETECTOR", [current])
            else:
                previous = self._meas_key[(item.ancilla, round_index - 1)]
                circuit.append("DETECTOR", [current, previous])

        # Gauge operators: individual comparisons inside a block, product
        # comparisons across blocks.
        for ss in self.patch.super_stabilizers:
            if not self._wants_detectors(ss.kind):
                continue
            if self._block_kind(ss.cluster_id, round_index) != ss.kind:
                continue
            first_round_of_kind = min(
                r for r in range(self.rounds)
                if self._block_kind(ss.cluster_id, r) == ss.kind
            ) if any(self._block_kind(ss.cluster_id, r) == ss.kind
                     for r in range(self.rounds)) else None
            if round_index == first_round_of_kind:
                # First time this gauge type is measured.
                if ss.kind == self.data_init_basis and round_index == 0:
                    for g in ss.gauges:
                        circuit.append("DETECTOR",
                                       [self._meas_key[(g.ancilla, round_index)]])
                continue
            prev_round = max(
                r for r in range(round_index)
                if self._block_kind(ss.cluster_id, r) == ss.kind
            )
            if prev_round == round_index - 1:
                # Same block: individual gauge outcomes are comparable.
                for g in ss.gauges:
                    circuit.append(
                        "DETECTOR",
                        [self._meas_key[(g.ancilla, round_index)],
                         self._meas_key[(g.ancilla, prev_round)]],
                    )
            else:
                # Across an opposite-type block: only the product is reliable.
                targets = []
                for g in ss.gauges:
                    targets.append(self._meas_key[(g.ancilla, round_index)])
                    targets.append(self._meas_key[(g.ancilla, prev_round)])
                circuit.append("DETECTOR", targets)

    # ------------------------------------------------------------------
    def _append_final_readout(self, circuit: Circuit) -> None:
        data = self.patch.active_data
        measure_gate = "M" if self.data_init_basis == "Z" else "MX"
        circuit.append("TICK")
        for layer in self._noise_layers("X_ERROR" if measure_gate == "M" else "Z_ERROR",
                                        data, [self._rates[d].readout for d in data]):
            circuit.append(*layer)
        first = circuit.num_measurements
        circuit.append(measure_gate, [self._index[d] for d in data])
        for k, d in enumerate(data):
            self._final_key[d] = first + k

    def _append_final_detectors(self, circuit: Circuit) -> None:
        # Only checks of the same type as the final measurement basis can be
        # reconstructed from the data readout.
        final_kind = self.data_init_basis
        if not self._wants_detectors(final_kind):
            return
        last_round = self.rounds - 1
        for item in self._scheduled:
            if item.is_gauge or item.kind != final_kind:
                continue
            targets = [self._final_key[d] for d in item.data]
            targets.append(self._meas_key[(item.ancilla, last_round)])
            circuit.append("DETECTOR", targets)
        for ss in self.patch.super_stabilizers:
            if ss.kind != final_kind:
                continue
            rounds_of_kind = [
                r for r in range(self.rounds)
                if self._block_kind(ss.cluster_id, r) == ss.kind
            ]
            if not rounds_of_kind:
                continue
            last = rounds_of_kind[-1]
            targets = [self._final_key[d] for d in ss.product_support]
            for g in ss.gauges:
                targets.append(self._meas_key[(g.ancilla, last)])
            circuit.append("DETECTOR", targets)

    # ------------------------------------------------------------------
    def _append_observable(self, circuit: Circuit) -> None:
        if self.observable in ("logical_z", "logical_x"):
            support = self._logical_support(self.observable)
            targets = [self._final_key[d] for d in support]
            circuit.append("OBSERVABLE_INCLUDE", targets, 0)
        elif self.observable == "stability_z":
            targets = []
            for item in self._scheduled:
                if item.kind != "Z":
                    continue
                if (item.ancilla, 0) in self._meas_key:
                    targets.append(self._meas_key[(item.ancilla, 0)])
            if not targets:
                raise CircuitBuildError("stability observable has no Z checks in round 0")
            circuit.append("OBSERVABLE_INCLUDE", targets, 0)


# ----------------------------------------------------------------------
# Convenience wrappers
# ----------------------------------------------------------------------
def build_memory_circuit(
    patch: "AdaptedPatch",
    noise: CircuitNoiseModel,
    rounds: Optional[int] = None,
    *,
    detector_basis: str = "Z",
) -> Circuit:
    """Memory-Z experiment circuit for an adapted patch.

    ``rounds`` defaults to the patch width (the usual d-round memory
    experiment).
    """
    if rounds is None:
        rounds = patch.layout.size
    builder = SyndromeCircuitBuilder(
        patch, noise, rounds,
        detector_basis=detector_basis,
        data_init_basis="Z",
        observable="logical_z",
    )
    return builder.build()


def build_stability_circuit(
    patch: "AdaptedPatch",
    noise: CircuitNoiseModel,
    rounds: int,
) -> Circuit:
    """Stability experiment circuit (Gidney 2022) for an all-Z-boundary patch."""
    builder = SyndromeCircuitBuilder(
        patch, noise, rounds,
        detector_basis="Z",
        data_init_basis="X",
        observable="stability_z",
    )
    return builder.build()
