"""Circuit-level noise model used for all logical-error simulations.

The paper's model (Sec. 4): two-qubit gates fail with probability ``p``
(depolarising), one-qubit gates with ``0.8 p``, and readout with
``(8/15) p``.  We additionally expose idle noise on data qubits during the
measurement/reset step (standard in Tomita–Svore style circuits and enabled
by default) and reset noise (disabled by default, as the paper does not
mention it).

For the cutoff-fidelity study (Sec. 6) a *per-qubit override* elevates the
error rates of one designated "bad" qubit: its two-qubit error rate becomes
``bad_qubit_p`` and its other error rates scale by the same factor, exactly
as described in the paper ("the other errors on it scale accordingly").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, NamedTuple, Tuple

from ..surface_code.layout import Coord

__all__ = ["CircuitNoiseModel", "QubitRates"]


class QubitRates(NamedTuple):
    """Every error rate of one qubit.

    A two-qubit gate takes the larger ``two_qubit`` rate of its two qubits,
    which is the rate scaled by the worse qubit: rounded multiplication and
    clipping at 1 are monotone, so the larger scale gives the larger float.
    """

    two_qubit: float
    single_qubit: float
    readout: float
    idle: float
    reset: float


@dataclass(frozen=True)
class CircuitNoiseModel:
    """Parameters of the circuit-level noise model.

    Attributes
    ----------
    p:
        Baseline two-qubit depolarising error rate.
    single_qubit_factor:
        One-qubit gate error is ``single_qubit_factor * p`` (paper: 0.8).
    readout_factor:
        Readout flip probability is ``readout_factor * p`` (paper: 8/15).
    idle_data_factor:
        Depolarising rate applied to each data qubit once per round while the
        ancillas are being measured/reset.  Set to 0 to disable.
    reset_factor:
        Bit-flip rate after each reset.  0 by default (not in the paper).
    bad_qubits:
        Map from coordinate to an elevated two-qubit error rate for that
        qubit; all other rates on gates touching the qubit scale by the same
        ratio.  Used by the Sec. 6 cutoff-fidelity study.
    """

    p: float
    single_qubit_factor: float = 0.8
    readout_factor: float = 8.0 / 15.0
    idle_data_factor: float = 0.8
    reset_factor: float = 0.0
    bad_qubits: Tuple[Tuple[Coord, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0, 1]")
        for factor_name in ("single_qubit_factor", "readout_factor",
                            "idle_data_factor", "reset_factor"):
            if getattr(self, factor_name) < 0:
                raise ValueError(f"{factor_name} must be non-negative")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def standard(cls, p: float) -> "CircuitNoiseModel":
        """The paper's standard circuit-level noise at two-qubit error rate p."""
        return cls(p=p)

    def with_bad_qubit(self, coord: Coord, bad_p: float) -> "CircuitNoiseModel":
        """A copy with one qubit's error rates elevated to ``bad_p``."""
        return replace(self, bad_qubits=self.bad_qubits + ((tuple(coord), float(bad_p)),))

    # ------------------------------------------------------------------
    # Rate lookups (per-qubit overrides applied here)
    # ------------------------------------------------------------------
    def rates_by_qubit(self, qubits: Iterable[Coord]) -> Dict[Coord, QubitRates]:
        """:class:`QubitRates` of each qubit, with the bad-qubit map built once."""
        bad = {coord: rate for coord, rate in self.bad_qubits}
        p = self.p
        out: Dict[Coord, QubitRates] = {}
        for q in qubits:
            # Ratio by which every rate on a gate touching a bad qubit scales.
            scale = max(p, bad[q]) / p if q in bad and p != 0 else 1.0
            out[q] = QubitRates(
                two_qubit=min(1.0, p * scale),
                single_qubit=min(1.0, self.single_qubit_factor * p * scale),
                readout=min(1.0, self.readout_factor * p * scale),
                idle=min(1.0, self.idle_data_factor * p * scale),
                reset=min(1.0, self.reset_factor * p * scale),
            )
        return out
