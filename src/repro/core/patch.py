"""Data structures describing a surface-code patch adapted to defects.

The adaptation algorithm (:mod:`repro.core.adaptation`) outputs an
:class:`AdaptedPatch` that records, for one chiplet:

* which data and measurement qubits are disabled (faulty, excluded because of
  a neighbouring faulty measurement qubit, or excised by a boundary
  deformation);
* the regular stabilizers that are measured every round (intact checks plus
  checks whose support shrank during a boundary deformation);
* the super-stabilizers formed around interior defect clusters, each a group
  of gauge operators measured on an alternating / blocked schedule;
* the repetition count of the measurement schedule per cluster (XZXZ... for
  small clusters, XX..ZZ.. for large clusters, following Sec. 3).

It also exposes the derived views required downstream (active qubits, gauge
operators, Pauli forms of the checks) and validation routines that check the
stabilizer-commutation and encoded-qubit-count invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..noise.fabrication import DefectSet
from ..stabilizer.pauli import PauliString
from ..surface_code.layout import Check, Coord, RotatedSurfaceCodeLayout

__all__ = ["GaugeOperator", "SuperStabilizer", "AdaptedPatch"]


@dataclass(frozen=True)
class GaugeOperator:
    """A broken check kept as a gauge operator (measured on a schedule)."""

    kind: str
    ancilla: Coord
    data: Tuple[Coord, ...]

    @property
    def weight(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class SuperStabilizer:
    """A product of gauge operators around one interior defect cluster."""

    kind: str
    cluster_id: int
    gauges: Tuple[GaugeOperator, ...]

    @cached_property
    def product_support(self) -> Tuple[Coord, ...]:
        """Data qubits appearing in an odd number of gauges (the product's support)."""
        counts: Dict[Coord, int] = {}
        for g in self.gauges:
            for d in g.data:
                counts[d] = counts.get(d, 0) + 1
        return tuple(sorted(d for d, c in counts.items() if c % 2 == 1))

    @property
    def num_gauges(self) -> int:
        return len(self.gauges)


@dataclass
class AdaptedPatch:
    """A rotated surface-code patch adapted to a set of fabrication defects."""

    layout: RotatedSurfaceCodeLayout
    defects: DefectSet
    disabled_data: FrozenSet[Coord]
    disabled_ancillas: FrozenSet[Coord]
    stabilizers: Tuple[Check, ...]
    super_stabilizers: Tuple[SuperStabilizer, ...]
    cluster_repetitions: Dict[int, int] = field(default_factory=dict)
    valid: bool = True
    failure_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Basic views
    # ------------------------------------------------------------------
    @cached_property
    def active_data(self) -> Tuple[Coord, ...]:
        return tuple(sorted(set(self.layout.data_qubits) - set(self.disabled_data)))

    @cached_property
    def gauge_operators(self) -> Tuple[GaugeOperator, ...]:
        return tuple(g for ss in self.super_stabilizers for g in ss.gauges)

    @cached_property
    def active_ancillas(self) -> Tuple[Coord, ...]:
        anc = {c.ancilla for c in self.stabilizers}
        anc |= {g.ancilla for g in self.gauge_operators}
        return tuple(sorted(anc))

    @property
    def num_disabled_data(self) -> int:
        return len(self.disabled_data)

    def disabled_data_fraction(self) -> float:
        """Proportion of data qubits disabled (Fig. 8 x-axis)."""
        return len(self.disabled_data) / self.layout.num_data_qubits

    # ------------------------------------------------------------------
    # Pauli views (for invariant checking)
    # ------------------------------------------------------------------
    @cached_property
    def _data_index(self) -> Dict[Coord, int]:
        return {d: i for i, d in enumerate(self.active_data)}

    def _pauli_on_active(self, kind: str, support: Sequence[Coord]) -> PauliString:
        n = len(self.active_data)
        idx = self._data_index
        return PauliString.from_sparse(
            n, {idx[d]: kind for d in support if d in idx}
        )

    def stabilizer_paulis(self) -> List[PauliString]:
        """All regular stabilizers plus super-stabilizer products, as Paulis."""
        out = [self._pauli_on_active(c.kind, c.data) for c in self.stabilizers]
        out.extend(
            self._pauli_on_active(ss.kind, ss.product_support)
            for ss in self.super_stabilizers
        )
        return out

    def gauge_paulis(self) -> List[PauliString]:
        return [self._pauli_on_active(g.kind, g.data) for g in self.gauge_operators]

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> List[str]:
        """Return a list of violated invariants (empty when the patch is sound).

        1. Stabilizer supports only touch enabled data qubits.
        2. All stabilizers (including super products) pairwise commute.
        3. Every stabilizer commutes with every gauge operator.
        4. The code encodes at least one logical qubit.  (Heavily deformed
           patches can additionally encode "junk" degrees of freedom behind
           excised regions; those are harmless to the stored logical qubit -
           the distance metric and the memory-experiment observable always
           refer to the boundary-to-boundary logical - so they are not
           treated as an invariant violation.)
        """
        problems: List[str] = []
        disabled = set(self.disabled_data)
        for check in self.stabilizers:
            if any(d in disabled for d in check.data):
                problems.append(f"stabilizer at {check.ancilla} touches a disabled qubit")
        for g in self.gauge_operators:
            if any(d in disabled for d in g.data):
                problems.append(f"gauge at {g.ancilla} touches a disabled qubit")

        stabs = self.stabilizer_paulis()
        for i in range(len(stabs)):
            for j in range(i + 1, len(stabs)):
                if not stabs[i].commutes_with(stabs[j]):
                    problems.append(f"stabilizers {i} and {j} anticommute")
        gauges = self.gauge_paulis()
        for i, s in enumerate(stabs):
            for j, g in enumerate(gauges):
                if not s.commutes_with(g):
                    problems.append(f"stabilizer {i} anticommutes with gauge {j}")

        stores_logical = len(set(self.layout.boundary_sides().values())) > 1
        if stores_logical and self.num_logical_qubits() < 1:
            # Stability patches (all boundaries of one type) intentionally
            # encode no logical qubit, so the check only applies to memory
            # patches.
            problems.append("patch encodes no logical qubit at all")
        return problems

    def num_logical_qubits(self) -> int:
        """Number of encoded logical qubits of the adapted (subsystem) code.

        With stabilizer group ``S`` and gauge group ``G`` (stabilizers plus
        gauge operators), the count is ``n - rank(S) - g`` where the number of
        gauge qubits is ``g = (rank(G) - rank(S)) / 2``.
        """
        stabs = self.stabilizer_paulis()
        gauges = self.gauge_paulis()
        n = len(self.active_data)
        if n == 0:
            return 0
        if not stabs and not gauges:
            return n

        def _rank(paulis: Sequence[PauliString]) -> int:
            if not paulis:
                return 0
            mat = np.zeros((len(paulis), 2 * n), dtype=np.uint8)
            for i, p in enumerate(paulis):
                mat[i, :n] = p.xs
                mat[i, n:] = p.zs
            return _gf2_rank(mat)

        rank_s = _rank(stabs)
        rank_g = _rank(list(stabs) + list(gauges))
        gauge_qubits = (rank_g - rank_s) // 2
        return n - rank_s - gauge_qubits

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """A small dictionary describing the patch (used by examples/benchmarks)."""
        return {
            "size": self.layout.size,
            "valid": self.valid,
            "failure_reason": self.failure_reason,
            "num_faulty_qubits": self.defects.num_faulty_qubits,
            "num_faulty_links": self.defects.num_faulty_links,
            "num_disabled_data": len(self.disabled_data),
            "num_disabled_ancillas": len(self.disabled_ancillas),
            "num_stabilizers": len(self.stabilizers),
            "num_super_stabilizers": len(self.super_stabilizers),
        }


def _gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a binary matrix over GF(2).

    Rows are bit-packed so that the elimination runs on whole byte words; this
    keeps the check fast enough to run on every adapted chiplet in the yield
    Monte-Carlo studies.
    """
    if matrix.size == 0:
        return 0
    mat = np.packbits(matrix.astype(np.uint8) % 2, axis=1)
    num_rows, _ = mat.shape
    num_cols = matrix.shape[1]
    row_used = np.zeros(num_rows, dtype=bool)
    rank = 0
    for col in range(num_cols):
        byte, bit = divmod(col, 8)
        mask = np.uint8(1 << (7 - bit))
        has_bit = (mat[:, byte] & mask) != 0
        candidates = np.flatnonzero(has_bit & ~row_used)
        if candidates.size == 0:
            continue
        pivot = int(candidates[0])
        row_used[pivot] = True
        rank += 1
        others = np.flatnonzero(has_bit)
        others = others[others != pivot]
        if others.size:
            mat[others] ^= mat[pivot]
        if rank == num_rows:
            break
    return rank
