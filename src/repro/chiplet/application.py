"""Application-level resource and fidelity estimates (Sec. 5.3, Tables 1-4).

The case study is Shor's algorithm on 2048-bit integers as analysed by Gidney
and Ekera: a 226 x 63 grid of distance-27 surface-code patches running for
about 25 billion syndrome cycles.  The paper estimates

* the number of physical qubits that must be *fabricated* to assemble the
  device under a given defect rate, for the defect-intolerant baseline and
  for the super-stabilizer approach at the optimal chiplet size (Tables 1-2);
* the application fidelity via the topological-error model
  ``P_L(d) = A (p / p_th)**((d+1)/2)`` per patch per round, weighting by the
  code-distance distribution of the accepted (or, for a monolithic device,
  all) patches (Tables 3-4).

The super-stabilizer yield and accepted-distance distribution come from one
:class:`~repro.engine.tasks.YieldTask` run by ``Engine.run_yield``, so
seeded estimates do not depend on the engine's backend, worker count or
cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..engine.executor import default_engine
from ..engine.tasks import YieldTask
from ..noise.fabrication import DefectModel
from .overhead import (
    average_cost_per_logical_qubit,
    defect_intolerant_yield,
    overhead_factor,
    qubits_per_chiplet,
)
from .yield_model import YieldResult

__all__ = [
    "ShorWorkload",
    "topological_error_rate",
    "application_fidelity",
    "ResourceEstimate",
    "estimate_super_stabilizer_resources",
    "estimate_defect_intolerant_resources",
    "estimate_no_defect_resources",
]


@dataclass(frozen=True)
class ShorWorkload:
    """The Gidney-Ekera Shor-2048 workload used by the paper's case study."""

    patch_rows: int = 226
    patch_cols: int = 63
    rounds: float = 25e9
    target_distance: int = 27
    physical_error_rate: float = 1e-3

    @property
    def num_patches(self) -> int:
        return self.patch_rows * self.patch_cols


def topological_error_rate(
    distance: int, physical_error_rate: float = 1e-3,
    *, prefactor: float = 0.1, threshold: float = 1e-2,
) -> float:
    """Per-patch, per-round logical error rate from the topological-error model.

    This is the standard ``A (p/p_th)**((d+1)/2)`` estimate used in Sec. 2.13
    of Gidney & Ekera and adopted by the paper for its fidelity estimates.
    """
    if distance <= 0:
        return 1.0
    exponent = (distance + 1) / 2.0
    return min(1.0, prefactor * (physical_error_rate / threshold) ** exponent)


def application_fidelity(
    distance_distribution: Mapping[int, float],
    workload: ShorWorkload = ShorWorkload(),
) -> float:
    """Probability that the whole application runs without a logical error.

    ``distance_distribution`` maps code distance to the fraction of patches
    with that distance (it must sum to ~1).  Each patch contributes an
    independent per-round failure probability from the topological-error
    model; the fidelity is the survival probability over all patches and all
    rounds.
    """
    total_weight = sum(distance_distribution.values())
    if total_weight <= 0:
        raise ValueError("distance distribution is empty")
    log_survival_per_round_per_patch = 0.0
    for distance, weight in distance_distribution.items():
        p_fail = topological_error_rate(distance, workload.physical_error_rate)
        share = weight / total_weight
        if p_fail >= 1.0:
            return 0.0
        log_survival_per_round_per_patch += share * math.log1p(-p_fail)
    total_log = log_survival_per_round_per_patch * workload.num_patches * workload.rounds
    return float(math.exp(total_log))


@dataclass(frozen=True)
class ResourceEstimate:
    """One column of Tables 1-2."""

    approach: str
    chiplet_size: int
    yield_fraction: float
    overhead: float
    total_fabricated_qubits: float
    distance_distribution: Dict[int, float] = field(default_factory=dict)

    def fidelity(self, workload: ShorWorkload = ShorWorkload()) -> float:
        if not self.distance_distribution:
            return 0.0
        return application_fidelity(self.distance_distribution, workload)


def estimate_no_defect_resources(workload: ShorWorkload = ShorWorkload()) -> ResourceEstimate:
    """The ideal no-defect column: every patch is exactly the target distance."""
    d = workload.target_distance
    per_chiplet = qubits_per_chiplet(d)
    return ResourceEstimate(
        approach="no-defect",
        chiplet_size=d,
        yield_fraction=1.0,
        overhead=1.0,
        total_fabricated_qubits=per_chiplet * workload.num_patches,
        distance_distribution={d: 1.0},
    )


def estimate_defect_intolerant_resources(
    defect_model: DefectModel, workload: ShorWorkload = ShorWorkload()
) -> ResourceEstimate:
    """The defect-intolerant baseline: chiplets of width d, zero defects required."""
    d = workload.target_distance
    y = defect_intolerant_yield(d, defect_model)
    cost = average_cost_per_logical_qubit(d, y)
    return ResourceEstimate(
        approach="defect-intolerant",
        chiplet_size=d,
        yield_fraction=y,
        overhead=overhead_factor(d, y, d),
        total_fabricated_qubits=cost * workload.num_patches,
        distance_distribution={d: 1.0},
    )


def estimate_super_stabilizer_resources(
    defect_model: DefectModel,
    chiplet_size: int,
    *,
    workload: ShorWorkload = ShorWorkload(),
    samples: int = 200,
    allow_rotation: bool = False,
    seed: Optional[int] = None,
    yield_result: Optional[YieldResult] = None,
    engine=None,
) -> ResourceEstimate:
    """The super-stabilizer approach at a given chiplet size.

    The yield and the code-distance distribution of accepted chiplets are
    estimated by Monte-Carlo (or taken from a pre-computed ``yield_result``).
    The sampling runs on ``engine``, or on the env-configured default
    engine when none is given (see :mod:`repro.engine`).
    """
    d = workload.target_distance
    if yield_result is None:
        task = YieldTask(
            chiplet_size=int(chiplet_size),
            defect_model_kind=defect_model.kind,
            defect_rate=float(defect_model.rate), samples=samples,
            target_distance=d, allow_rotation=allow_rotation)
        yield_result = (engine or default_engine()).run_yield(task, seed=seed)
    y = yield_result.yield_fraction
    cost = average_cost_per_logical_qubit(chiplet_size, y)
    return ResourceEstimate(
        approach="super-stabilizer",
        chiplet_size=chiplet_size,
        yield_fraction=y,
        overhead=overhead_factor(chiplet_size, y, d),
        total_fabricated_qubits=cost * workload.num_patches,
        distance_distribution=yield_result.accepted_distance_distribution(),
    )
