"""Fabrication-defect models.

The paper (Sec. 4) uses two models of fabrication errors:

``link_only``
    Every data-ancilla coupler is independently faulty with probability
    ``rate``.  This models fixed-frequency transmons with fixed couplers,
    where frequency collisions on couplers dominate.

``link_and_qubit``
    Every coupler *and* every qubit (data or measurement) is independently
    faulty with probability ``rate``.  This models tunable transmons where
    couplers are as intricate as qubits.

A sampled :class:`DefectSet` records faulty qubits (by coordinate) and faulty
links (as ``(data, ancilla)`` pairs).  The adaptation algorithm consumes the
defect set directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Tuple

import numpy as np

from ..surface_code.layout import Coord, RotatedSurfaceCodeLayout

__all__ = ["DefectSet", "DefectModel", "LINK_ONLY", "LINK_AND_QUBIT"]

LINK_ONLY = "link_only"
LINK_AND_QUBIT = "link_and_qubit"
_VALID_MODELS = (LINK_ONLY, LINK_AND_QUBIT)


@dataclass(frozen=True)
class DefectSet:
    """A concrete set of fabrication defects on one chiplet."""

    faulty_qubits: FrozenSet[Coord] = field(default_factory=frozenset)
    faulty_links: FrozenSet[Tuple[Coord, Coord]] = field(default_factory=frozenset)

    @staticmethod
    def of(qubits: Iterable[Coord] = (), links: Iterable[Tuple[Coord, Coord]] = ()) -> "DefectSet":
        return DefectSet(frozenset(tuple(q) for q in qubits),
                         frozenset((tuple(a), tuple(b)) for a, b in links))

    @property
    def num_faulty_qubits(self) -> int:
        return len(self.faulty_qubits)

    @property
    def num_faulty_links(self) -> int:
        return len(self.faulty_links)

    def is_empty(self) -> bool:
        return not self.faulty_qubits and not self.faulty_links

    def union(self, other: "DefectSet") -> "DefectSet":
        return DefectSet(self.faulty_qubits | other.faulty_qubits,
                         self.faulty_links | other.faulty_links)

    def __bool__(self) -> bool:
        return not self.is_empty()


@dataclass(frozen=True)
class DefectModel:
    """Bernoulli fabrication-defect model.

    Parameters
    ----------
    kind:
        ``"link_only"`` or ``"link_and_qubit"``.
    rate:
        Probability that each component (link, and qubit when applicable) is
        faulty.
    """

    kind: str
    rate: float

    def __post_init__(self) -> None:
        if self.kind not in _VALID_MODELS:
            raise ValueError(f"unknown defect model {self.kind!r}; use one of {_VALID_MODELS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"defect rate {self.rate} outside [0, 1]")

    # ------------------------------------------------------------------
    def sample(self, layout: RotatedSurfaceCodeLayout,
               rng: np.random.Generator | int | None = None) -> DefectSet:
        """Sample a defect set for one chiplet with the given layout."""
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        links = layout.links
        link_faulty = rng.random(len(links)) < self.rate
        faulty_links = frozenset(links[i] for i in np.flatnonzero(link_faulty))
        faulty_qubits: FrozenSet[Coord] = frozenset()
        if self.kind == LINK_AND_QUBIT:
            qubits = layout.all_qubits
            qubit_faulty = rng.random(len(qubits)) < self.rate
            faulty_qubits = frozenset(qubits[i] for i in np.flatnonzero(qubit_faulty))
        return DefectSet(faulty_qubits=faulty_qubits, faulty_links=faulty_links)

    # ------------------------------------------------------------------
    def defect_free_probability(self, layout: RotatedSurfaceCodeLayout) -> float:
        """Probability that a chiplet has no defect at all.

        This is the yield of the defect-intolerant baseline in the paper,
        which only accepts chiplets with zero defects.
        """
        n_components = layout.num_links
        if self.kind == LINK_AND_QUBIT:
            n_components += layout.num_fabricated_qubits
        return float((1.0 - self.rate) ** n_components)
