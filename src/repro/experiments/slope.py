"""Slope estimation: the paper's per-chiplet fidelity indicator study.

For each sampled defective chiplet the paper measures the logical error rate
at several physical error rates in a low-p window, fits the log-log slope and
correlates the slope with candidate quality indicators (code distance, number
of shortest logical operators, disabled-qubit fraction, cluster diameter,
number of faulty qubits).  This module packages that pipeline:
`sample_defective_patches` draws random chiplets, `estimate_slope` measures
and fits one chiplet, and `SlopeStudy` aggregates a whole population the way
Figs. 5 and 7-10 do.

The per-chiplet LER window runs through the engine's fused
:class:`~repro.engine.pipeline.DecodingPipeline`; because the window probes a
*low-p* regime, almost all shots collapse to the empty or a repeated
syndrome, which is exactly where the deduplicated decode path pays off —
slope populations that used to be decode-bound now cost little more than the
sampling itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.fitting import SlopeFit, fit_loglog_slope
from ..core.metrics import PatchMetrics, evaluate_patch
from ..core.patch import AdaptedPatch
from ..engine.executor import Engine, default_engine
from ..engine.rng import Seed
from ..engine.tasks import PatchSampleTask
from ..noise.fabrication import DefectModel
from .memory import logical_error_rate_curve

__all__ = ["PatchSlopeRecord", "SlopeStudy", "sample_defective_patches", "estimate_slope"]


@dataclass(frozen=True)
class PatchSlopeRecord:
    """One defective chiplet's indicators and measured slope."""

    metrics: PatchMetrics
    slope: Optional[float]
    logical_error_rates: tuple
    physical_error_rates: tuple

    @property
    def distance(self) -> int:
        return self.metrics.distance


@dataclass
class SlopeStudy:
    """A population of sampled chiplets with their slopes (Figs. 5, 7-10)."""

    records: List[PatchSlopeRecord] = field(default_factory=list)

    def add(self, record: PatchSlopeRecord) -> None:
        self.records.append(record)

    def by_distance(self) -> dict:
        out: dict = {}
        for rec in self.records:
            out.setdefault(rec.distance, []).append(rec)
        return out

    def mean_slope(self, distance: Optional[int] = None) -> float:
        slopes = [
            r.slope for r in self.records
            if r.slope is not None and (distance is None or r.distance == distance)
        ]
        if not slopes:
            return float("nan")
        return float(np.mean(slopes))


def sample_defective_patches(
    size: int,
    defect_model: DefectModel,
    num_patches: int,
    *,
    seed: Seed = None,
    require_valid: bool = True,
    min_distance: int = 2,
    engine: Optional[Engine] = None,
) -> List[AdaptedPatch]:
    """Draw random defective chiplets and adapt a surface code to each.

    Patches that fail to adapt (or whose distance collapses below
    ``min_distance``) are resampled, mirroring the paper's practice of
    studying chiplets that still support a code.  Sampling runs through the
    execution engine as a :class:`PatchSampleTask`: attempt ``i`` always uses
    RNG child stream ``i`` of ``seed``, so the returned patches are identical
    for any worker count.
    """
    task = PatchSampleTask(
        size=size,
        defect_model_kind=defect_model.kind,
        defect_rate=defect_model.rate,
        num_patches=num_patches,
        min_distance=min_distance,
        require_valid=require_valid,
    )
    eng = engine if engine is not None else default_engine()
    return eng.sample_patches(task, seed=seed)


def estimate_slope(
    patch: AdaptedPatch,
    physical_error_rates: Sequence[float],
    shots: int,
    *,
    rounds: Optional[int] = None,
    seed: Seed = None,
    engine: Optional[Engine] = None,
) -> PatchSlopeRecord:
    """Measure LER over a p-window, fit the log-log slope, collect indicators."""
    metrics = evaluate_patch(patch)
    results = logical_error_rate_curve(
        patch, physical_error_rates, shots, rounds=rounds, seed=seed,
        engine=engine,
    )
    lers = tuple(r.logical_error_rate for r in results)
    slope: Optional[float] = None
    try:
        fit: SlopeFit = fit_loglog_slope(list(physical_error_rates), list(lers))
        slope = fit.slope
    except ValueError:
        slope = None
    return PatchSlopeRecord(
        metrics=metrics,
        slope=slope,
        logical_error_rates=lers,
        physical_error_rates=tuple(physical_error_rates),
    )
