"""Dense Pauli-string algebra over the symplectic (X/Z bit) representation.

A Pauli operator on ``n`` qubits (ignoring global phase) is represented by two
boolean vectors ``xs`` and ``zs`` of length ``n``:

* ``xs[q] and not zs[q]`` -> X on qubit ``q``
* ``zs[q] and not xs[q]`` -> Z on qubit ``q``
* ``xs[q] and zs[q]``     -> Y on qubit ``q``
* neither                 -> identity on qubit ``q``

This module is the foundation of the stabilizer substrate: stabilizer checks,
gauge operators, logical operators, error mechanisms and frame states are all
Pauli strings.  Phases are deliberately not tracked; for everything this
library needs (commutation structure, detector parity propagation, GF(2)
linear algebra on stabilizer groups) the phase is irrelevant.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

__all__ = ["PauliString", "pauli_product", "commutes", "batch_commutes"]

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1), "_": (0, 0)}
_BITS_TO_CHAR = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


class PauliString:
    """An n-qubit Pauli operator without phase.

    Instances are lightweight wrappers around two numpy boolean arrays and are
    treated as immutable by convention (methods return new instances).

    Examples
    --------
    >>> a = PauliString.from_string("XXI")
    >>> b = PauliString.from_string("ZIZ")
    >>> a.commutes_with(b)
    False
    >>> (a * a).weight()
    0
    """

    __slots__ = ("xs", "zs")

    def __init__(self, xs: np.ndarray, zs: np.ndarray):
        xs = np.asarray(xs, dtype=bool)
        zs = np.asarray(zs, dtype=bool)
        if xs.shape != zs.shape or xs.ndim != 1:
            raise ValueError("xs and zs must be 1-D boolean arrays of equal length")
        self.xs = xs
        self.zs = zs

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        """The identity operator on ``num_qubits`` qubits."""
        return cls(np.zeros(num_qubits, dtype=bool), np.zeros(num_qubits, dtype=bool))

    @classmethod
    def from_string(cls, text: str) -> "PauliString":
        """Build from a string such as ``"XIZY"`` (``_`` also means identity)."""
        xs = np.zeros(len(text), dtype=bool)
        zs = np.zeros(len(text), dtype=bool)
        for i, ch in enumerate(text.upper()):
            if ch not in _CHAR_TO_BITS:
                raise ValueError(f"invalid Pauli character {ch!r}")
            x, z = _CHAR_TO_BITS[ch]
            xs[i] = bool(x)
            zs[i] = bool(z)
        return cls(xs, zs)

    @classmethod
    def from_sparse(
        cls, num_qubits: int, paulis: Mapping[int, str] | Iterable[tuple[int, str]]
    ) -> "PauliString":
        """Build from ``{qubit_index: "X"|"Y"|"Z"}``."""
        items = paulis.items() if isinstance(paulis, Mapping) else paulis
        xs = np.zeros(num_qubits, dtype=bool)
        zs = np.zeros(num_qubits, dtype=bool)
        for q, ch in items:
            if not 0 <= q < num_qubits:
                raise ValueError(f"qubit index {q} out of range for {num_qubits} qubits")
            x, z = _CHAR_TO_BITS[ch.upper()]
            xs[q] = bool(x)
            zs[q] = bool(z)
        return cls(xs, zs)

    @classmethod
    def single(cls, num_qubits: int, qubit: int, pauli: str) -> "PauliString":
        """A single-qubit Pauli embedded in ``num_qubits`` qubits."""
        return cls.from_sparse(num_qubits, {qubit: pauli})

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return int(self.xs.shape[0])

    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return int(np.count_nonzero(self.xs | self.zs))

    def support(self) -> list[int]:
        """Sorted list of qubit indices acted on non-trivially."""
        return list(np.flatnonzero(self.xs | self.zs))

    def is_identity(self) -> bool:
        return not bool(np.any(self.xs) or np.any(self.zs))

    def to_sparse(self) -> Dict[int, str]:
        """Return ``{qubit: pauli_char}`` for the non-identity entries."""
        out: Dict[int, str] = {}
        for q in self.support():
            out[int(q)] = _BITS_TO_CHAR[(int(self.xs[q]), int(self.zs[q]))]
        return out

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.num_qubits != other.num_qubits:
            raise ValueError("Pauli strings act on different numbers of qubits")
        return PauliString(self.xs ^ other.xs, self.zs ^ other.zs)

    def commutes_with(self, other: "PauliString") -> bool:
        """True when the two operators commute (symplectic inner product is 0)."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("Pauli strings act on different numbers of qubits")
        overlap = np.count_nonzero(self.xs & other.zs) + np.count_nonzero(
            self.zs & other.xs
        )
        return overlap % 2 == 0

    def anticommutes_with(self, other: "PauliString") -> bool:
        return not self.commutes_with(other)

    def restricted_to(self, qubits: Sequence[int]) -> "PauliString":
        """The operator with support intersected with ``qubits`` (same length)."""
        mask = np.zeros(self.num_qubits, dtype=bool)
        mask[list(qubits)] = True
        return PauliString(self.xs & mask, self.zs & mask)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and bool(np.array_equal(self.xs, other.xs))
            and bool(np.array_equal(self.zs, other.zs))
        )

    def __hash__(self) -> int:
        return hash((self.xs.tobytes(), self.zs.tobytes()))

    def __str__(self) -> str:
        return "".join(
            _BITS_TO_CHAR[(int(x), int(z))] for x, z in zip(self.xs, self.zs)
        )

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"


def pauli_product(paulis: Iterable[PauliString], num_qubits: int | None = None) -> PauliString:
    """Product (phase-free) of an iterable of Pauli strings.

    ``num_qubits`` is required when the iterable may be empty.
    """
    result: PauliString | None = None
    for p in paulis:
        result = p if result is None else result * p
    if result is None:
        if num_qubits is None:
            raise ValueError("num_qubits required for an empty product")
        return PauliString.identity(num_qubits)
    return result


def commutes(a: PauliString, b: PauliString) -> bool:
    """Module-level convenience wrapper for :meth:`PauliString.commutes_with`."""
    return a.commutes_with(b)


def batch_commutes(group: Sequence[PauliString]) -> bool:
    """True when every pair of operators in ``group`` commutes.

    Uses a matrix formulation: with ``X`` and ``Z`` the stacked bit matrices,
    the symplectic Gram matrix ``X Z^T + Z X^T`` (mod 2) must vanish.
    """
    if len(group) <= 1:
        return True
    xs = np.stack([p.xs for p in group]).astype(np.uint8)
    zs = np.stack([p.zs for p in group]).astype(np.uint8)
    gram = (xs @ zs.T + zs @ xs.T) % 2
    return not bool(gram.any())
