"""Resource-overhead analysis (Figs. 12b, 13b, 17b, 18; Tables 1-2).

The paper quantifies resource overhead as the *average number of fabricated
physical qubits per logical qubit*: the qubits on one chiplet divided by the
yield (discarded chiplets still had to be fabricated).  Everything else in
the study - the choice of chiplet size, the comparison against the
defect-intolerant baseline, the overhead envelope of Fig. 18 - derives from
this quantity.

Every Monte-Carlo cell is one :class:`~repro.engine.tasks.YieldTask` run by
``Engine.run_yield`` on the study's ``engine`` (or the env-configured
default engine): cells fan out over its backend, seeded cells are cached,
and the counts depend on neither.  When a study additionally
measures logical error rates for its accepted chiplets it does so through
the engine's fused :class:`~repro.engine.pipeline.DecodingPipeline`, the
same batched hot path every LER driver uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from ..engine.executor import default_engine
from ..engine.rng import Seed, child_stream
from ..engine.tasks import YieldTask
from ..noise.fabrication import DefectModel
from ..surface_code.layout import RotatedSurfaceCodeLayout
from .yield_model import YieldResult, defect_intolerant_yield

__all__ = [
    "qubits_per_chiplet",
    "average_cost_per_logical_qubit",
    "overhead_factor",
    "OverheadPoint",
    "OverheadStudy",
    "optimal_chiplet_size",
    "defect_intolerant_overhead",
]


def qubits_per_chiplet(chiplet_size: int) -> int:
    """Physical qubits fabricated on one chiplet: ``2 l**2 - 1``."""
    return RotatedSurfaceCodeLayout(chiplet_size).num_fabricated_qubits


def average_cost_per_logical_qubit(chiplet_size: int, yield_fraction: float) -> float:
    """Average fabricated qubits per accepted logical qubit."""
    if yield_fraction <= 0:
        return float("inf")
    return qubits_per_chiplet(chiplet_size) / yield_fraction


def overhead_factor(chiplet_size: int, yield_fraction: float, target_distance: int) -> float:
    """Cost relative to the ideal no-defect case (a distance-d chiplet at 100% yield)."""
    ideal = qubits_per_chiplet(target_distance)
    return average_cost_per_logical_qubit(chiplet_size, yield_fraction) / ideal


@dataclass(frozen=True)
class OverheadPoint:
    """One (defect rate, chiplet size) point of a Fig. 12b/13b/17b curve."""

    chiplet_size: int
    defect_rate: float
    target_distance: int
    yield_fraction: float
    cost_per_logical_qubit: float
    overhead: float

    @classmethod
    def from_yield(cls, result: YieldResult, target_distance: int) -> "OverheadPoint":
        y = result.yield_fraction
        return cls(
            chiplet_size=result.chiplet_size,
            defect_rate=result.defect_rate,
            target_distance=target_distance,
            yield_fraction=y,
            cost_per_logical_qubit=average_cost_per_logical_qubit(result.chiplet_size, y),
            overhead=overhead_factor(result.chiplet_size, y, target_distance),
        )


@dataclass
class OverheadStudy:
    """Yield and overhead curves over chiplet sizes and defect rates.

    This is the engine behind Figs. 12, 13, 17 and the Fig. 18 envelope: for
    each (chiplet size, defect rate) pair it runs a yield Monte-Carlo with the
    distance criterion and converts the result into an overhead factor.
    """

    target_distance: int
    defect_model_kind: str
    chiplet_sizes: Sequence[int]
    defect_rates: Sequence[float]
    samples: int = 200
    allow_rotation: bool = False
    seed: Seed = None
    engine: object = None  # Optional[repro.engine.Engine]

    def run(self) -> List[OverheadPoint]:
        points: List[OverheadPoint] = []
        n_rates = len(self.defect_rates)
        for i, size in enumerate(self.chiplet_sizes):
            for j, rate in enumerate(self.defect_rates):
                if rate == 0.0:
                    # No defects: every chiplet passes as long as l >= d.
                    y = 1.0 if size >= self.target_distance else 0.0
                    points.append(OverheadPoint(
                        chiplet_size=size, defect_rate=rate,
                        target_distance=self.target_distance, yield_fraction=y,
                        cost_per_logical_qubit=average_cost_per_logical_qubit(size, y),
                        overhead=overhead_factor(size, y, self.target_distance)))
                    continue
                # One SeedSequence child stream per (size, rate) cell; the
                # old ``seed + size*1000 + int(rate*1e6)`` arithmetic could
                # collide between neighbouring cells.
                cell_seed = (None if self.seed is None
                             else child_stream(self.seed, i * n_rates + j))
                task = YieldTask(
                    chiplet_size=int(size),
                    defect_model_kind=self.defect_model_kind,
                    defect_rate=float(rate), samples=self.samples,
                    target_distance=self.target_distance,
                    allow_rotation=self.allow_rotation)
                result = (self.engine or default_engine()).run_yield(
                    task, seed=cell_seed)
                points.append(OverheadPoint.from_yield(result, self.target_distance))
        return points

    # ------------------------------------------------------------------
    @staticmethod
    def envelope(points: Iterable[OverheadPoint]) -> Dict[float, OverheadPoint]:
        """Minimum-overhead point per defect rate (the Fig. 18 curves)."""
        best: Dict[float, OverheadPoint] = {}
        for point in points:
            current = best.get(point.defect_rate)
            if current is None or point.overhead < current.overhead:
                best[point.defect_rate] = point
        return dict(sorted(best.items()))


def optimal_chiplet_size(points: Iterable[OverheadPoint], defect_rate: float) -> OverheadPoint:
    """The chiplet size minimising overhead at one defect rate."""
    candidates = [p for p in points if abs(p.defect_rate - defect_rate) < 1e-12]
    if not candidates:
        raise ValueError(f"no overhead points at defect rate {defect_rate}")
    return min(candidates, key=lambda p: p.overhead)


def defect_intolerant_overhead(
    chiplet_size: int, defect_model: DefectModel, target_distance: int
) -> float:
    """Overhead of the baseline that only accepts defect-free chiplets.

    The yield is analytic (``(1-f)**n_components``), so this scales to the
    very low yields of Tables 1-2 without any sampling.
    """
    y = defect_intolerant_yield(chiplet_size, defect_model)
    return overhead_factor(chiplet_size, y, target_distance)
