"""Cutoff-fidelity study (Sec. 6, Fig. 20).

Real devices do not have a crisp faulty/working split: a qubit may simply be
worse than its neighbours.  The paper uses the stability experiment to decide
when such a qubit should be disabled (and handled with super-stabilizers)
rather than kept in the code: for each candidate "bad qubit" error rate it
compares the logical performance of keeping the qubit against disabling it,
as a function of the error rate of the good qubits.

Every (strategy, bad rate, p) cell decodes on the engine's fused
:class:`~repro.engine.pipeline.DecodingPipeline`: shots stream through the
deduplicating decoder in bounded chunks, and each worker keeps its pipeline
(geodesic caches, memoised syndromes) warm per task content hash, so
multi-shard cells and scheduler waves of one cell never repeat decode work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..core.adaptation import adapt_patch
from ..engine.executor import Engine, LerResult, default_engine
from ..engine.rng import Seed
from ..engine.tasks import CutoffCellTask
from ..noise.circuit_noise import CircuitNoiseModel
from ..noise.fabrication import DefectSet
from ..surface_code.layout import Coord, StabilityLayout

__all__ = ["CutoffPoint", "CutoffStudy", "run_cutoff_study", "center_data_qubit"]


def center_data_qubit(size: int) -> Coord:
    """The data qubit closest to the middle of a patch of the given width."""
    mid = size if size % 2 == 1 else size - 1
    return (mid, mid)


_DEFAULT_STABILITY_SIZE = 4


@dataclass(frozen=True)
class CutoffPoint:
    """One point of a Fig. 20 curve."""

    strategy: str                  # "keep" or "disable"
    bad_qubit_error_rate: Optional[float]
    physical_error_rate: float
    result: LerResult

    @property
    def logical_error_rate(self) -> float:
        return self.result.logical_error_rate


@dataclass
class CutoffStudy:
    """All curves of the cutoff-fidelity comparison."""

    size: int
    rounds: int
    points: List[CutoffPoint]

    def curve(self, strategy: str, bad_rate: Optional[float] = None) -> List[CutoffPoint]:
        return [
            p for p in self.points
            if p.strategy == strategy
            and (bad_rate is None or p.bad_qubit_error_rate == bad_rate)
        ]

    def crossover_rate(self, bad_rate: float) -> Optional[float]:
        """Largest good-qubit error rate at which disabling beats keeping.

        Returns ``None`` when keeping the qubit is always at least as good in
        the sampled window (i.e. the bad qubit is below the cutoff).
        """
        disable = {p.physical_error_rate: p.logical_error_rate
                   for p in self.curve("disable")}
        keep = {p.physical_error_rate: p.logical_error_rate
                for p in self.curve("keep", bad_rate)}
        crossings = [p for p in sorted(keep) if p in disable and disable[p] < keep[p]]
        return max(crossings) if crossings else None


def run_cutoff_study(
    *,
    size: int = _DEFAULT_STABILITY_SIZE,
    rounds: int = 5,
    physical_error_rates: Sequence[float] = (0.002, 0.004, 0.006, 0.008),
    bad_qubit_error_rates: Sequence[float] = (0.05, 0.08, 0.10, 0.15),
    shots: int = 2000,
    seed: Seed = None,
    bad_qubit: Optional[Coord] = None,
    engine: Optional[Engine] = None,
) -> CutoffStudy:
    """Reproduce the Fig. 20 comparison on the stability patch.

    The "keep" curves run the stability experiment with one elevated-error
    data qubit; the "disable" curve removes that qubit and forms
    super-stabilizers around it (via the standard adaptation path).

    Every (strategy, bad rate, p) cell becomes one :class:`CutoffCellTask`;
    the whole sweep is handed to the engine as a batch, so cells run in
    parallel (and hit the result cache) independently.  Cell ``i`` draws from
    RNG child stream ``i`` of ``seed``, in the deterministic order the cells
    are constructed below.
    """
    bad = bad_qubit or center_data_qubit(size)
    layout = StabilityLayout(size)

    disabled_patch = adapt_patch(layout, DefectSet.of(qubits=[bad]))
    intact_patch = adapt_patch(layout, DefectSet.of())

    tasks: List[CutoffCellTask] = []
    labels: List[tuple] = []
    for p in physical_error_rates:
        # from_patch is inherited, so it constructs CutoffCellTask cells
        # directly; replace() stamps the strategy metadata on the frozen task.
        cell = CutoffCellTask.from_patch(
            "stability", disabled_patch, p, rounds=rounds,
            noise=CircuitNoiseModel.standard(p),
        )
        tasks.append(replace(cell, strategy="disable"))
        labels.append(("disable", None, p))
        for bad_rate in bad_qubit_error_rates:
            noisy = CircuitNoiseModel.standard(p).with_bad_qubit(bad, bad_rate)
            cell = CutoffCellTask.from_patch(
                "stability", intact_patch, p, rounds=rounds, noise=noisy,
            )
            tasks.append(replace(cell, strategy="keep",
                                 bad_qubit_error_rate=float(bad_rate)))
            labels.append(("keep", bad_rate, p))

    eng = engine if engine is not None else default_engine()
    results = eng.run_ler_many(tasks, shots=shots, seed=seed)

    points = [
        CutoffPoint(strategy, bad_rate, p, result)
        for (strategy, bad_rate, p), result in zip(labels, results)
    ]
    return CutoffStudy(size=size, rounds=rounds, points=points)
