"""Post-selection criteria for defective chiplets (Sec. 4.2 of the paper).

When assembling a modular device one can measure each chiplet's defect map,
adapt a surface code to it, and decide whether the chiplet is good enough to
use.  The paper compares two ways of making that decision:

* the **baseline** indicator: the raw number of faulty qubits on the chiplet
  (fewer faults = better), which is what a defect-count-only strategy such as
  the one in the chiplet paper [33] would use; and
* the **chosen indicators**: the adapted code distance as the primary
  indicator, with the number of minimum-weight logical operators breaking
  ties (fewer short logicals = better), which the paper shows predicts the
  measured slope far better (Fig. 11).

Two interfaces are provided: *acceptance criteria* (used by the yield and
resource-overhead studies, Figs. 12-13 and 15-18: "does this chiplet perform
at least as well as a defect-free distance-d patch?") and *rankings* (used by
the Fig. 11 study: "keep the best fraction q of chiplets").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..surface_code.layout import RotatedSurfaceCodeLayout
from .metrics import PatchMetrics, defect_free_metrics

__all__ = [
    "reference_metrics",
    "PostSelectionCriterion",
    "DistanceCriterion",
    "DefectFreeCriterion",
    "rank_by_chosen_indicators",
    "rank_by_faulty_count",
    "select_fraction",
]


def reference_metrics(distance: int) -> PatchMetrics:
    """Metrics of the defect-free rotated surface code of a given distance."""
    return defect_free_metrics(RotatedSurfaceCodeLayout, distance)


class PostSelectionCriterion:
    """Interface: decide whether a chiplet (via its metrics) is acceptable."""

    def accepts(self, metrics: PatchMetrics) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, metrics: PatchMetrics) -> bool:
        return self.accepts(metrics)


@dataclass(frozen=True)
class DistanceCriterion(PostSelectionCriterion):
    """Accept chiplets that perform at least as well as a defect-free patch.

    "At least as well" is evaluated with the paper's two indicators: the
    adapted code distance must reach ``target_distance``; patches that only
    just reach it must not have *more* minimum-weight logical operators than
    the defect-free reference (Fig. 7 shows patches with the same distance but
    more short logicals perform worse).
    """

    target_distance: int
    use_operator_count: bool = True

    def accepts(self, metrics: PatchMetrics) -> bool:
        if not metrics.valid:
            return False
        if metrics.distance > self.target_distance:
            return True
        if metrics.distance < self.target_distance:
            return False
        if not self.use_operator_count:
            return True
        reference = reference_metrics(self.target_distance)
        return metrics.num_shortest <= reference.num_shortest


@dataclass(frozen=True)
class DefectFreeCriterion(PostSelectionCriterion):
    """The defect-intolerant baseline: accept only chiplets with zero defects."""

    def accepts(self, metrics: PatchMetrics) -> bool:
        return metrics.num_faulty_qubits == 0 and metrics.num_faulty_links == 0


# ----------------------------------------------------------------------
# Rankings (Fig. 11)
# ----------------------------------------------------------------------
def rank_by_chosen_indicators(metrics: Sequence[PatchMetrics]) -> List[int]:
    """Indices of chiplets ordered best-first by (distance desc, #shortest asc)."""
    order = sorted(
        range(len(metrics)),
        key=lambda i: (-metrics[i].distance, metrics[i].num_shortest),
    )
    return order


def rank_by_faulty_count(metrics: Sequence[PatchMetrics]) -> List[int]:
    """Indices ordered best-first by the baseline indicator (fewest faulty qubits)."""
    return sorted(range(len(metrics)), key=lambda i: metrics[i].num_faulty_qubits)


def select_fraction(
    ranking: Sequence[int], keep_fraction: float
) -> List[int]:
    """Keep the best ``keep_fraction`` of a ranking (at least one chiplet)."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")
    count = max(1, int(round(keep_fraction * len(ranking))))
    return list(ranking[:count])
