"""Yield estimation for post-selected chiplets (Figs. 12, 13, 15, 16, 17).

The *yield* is the fraction of fabricated chiplets that pass a post-selection
criterion.  It is estimated by Monte-Carlo: sample fabrication defects for
many chiplets, adapt a surface code to each, evaluate the indicators and test
the criterion.  A run also records the code-distance distribution of the
accepted chiplets, which feeds the application-fidelity estimates
(Fig. 19, Tables 3-4).

Yield sampling itself involves no decoding, but downstream consumers that
measure the logical performance of accepted chiplets (the slope study, the
cutoff sweep, the LER benchmarks) hand the sampled patches to
:class:`~repro.engine.tasks.LerPointTask` cells, which decode on the
engine's fused :class:`~repro.engine.pipeline.DecodingPipeline`.

Every run goes through one path: a frozen
:class:`~repro.engine.tasks.YieldTask` handed to :meth:`Engine.run_yield
<repro.engine.executor.Engine.run_yield>`, which fans sample blocks out over
the engine's backend, merges them with the helpers below and caches seeded
results under the task's content hash, exactly like LER tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..analysis.stats import BinomialEstimate
from ..noise.fabrication import DefectModel
from ..surface_code.layout import RotatedSurfaceCodeLayout

__all__ = ["YieldResult", "defect_intolerant_yield"]


@dataclass
class YieldResult:
    """Outcome of one yield Monte-Carlo run."""

    chiplet_size: int
    defect_rate: float
    defect_model_kind: str
    samples: int
    accepted: int
    distance_counts: Dict[int, int] = field(default_factory=dict)
    accepted_distance_counts: Dict[int, int] = field(default_factory=dict)
    from_cache: bool = False

    @property
    def yield_fraction(self) -> float:
        return self.accepted / self.samples if self.samples else 0.0

    @property
    def estimate(self) -> BinomialEstimate:
        return BinomialEstimate(failures=self.accepted, shots=max(self.samples, 1))

    def accepted_distance_distribution(self) -> Dict[int, float]:
        total = sum(self.accepted_distance_counts.values())
        if total == 0:
            return {}
        return {d: c / total for d, c in sorted(self.accepted_distance_counts.items())}

    def distance_distribution(self) -> Dict[int, float]:
        total = sum(self.distance_counts.values())
        if total == 0:
            return {}
        return {d: c / total for d, c in sorted(self.distance_counts.items())}


def yield_block_ranges(samples: int, parallel_slots: int):
    """Contiguous (start, stop) sample blocks for one ``Engine.run_yield``.

    Purely a throughput knob (sized so one round of blocks splits across
    the backend's job slots — pool workers or remote hosts): per-index RNG
    streams make the partition invisible in the counts.
    """
    workers = max(1, parallel_slots)
    block = max(1, -(-samples // (4 * workers)))
    start = 0
    while start < samples:
        stop = min(start + block, samples)
        yield start, stop
        start = stop


def merge_yield_blocks(outs) -> tuple:
    """Sum per-block (accepted, distance counts, accepted counts) triples."""
    accepted = 0
    distance_counts: Dict[int, int] = {}
    accepted_counts: Dict[int, int] = {}
    for block_accepted, block_dist, block_acc in outs:
        accepted += block_accepted
        for d, c in block_dist.items():
            distance_counts[d] = distance_counts.get(d, 0) + c
        for d, c in block_acc.items():
            accepted_counts[d] = accepted_counts.get(d, 0) + c
    return accepted, distance_counts, accepted_counts


def defect_intolerant_yield(chiplet_size: int, defect_model: DefectModel) -> float:
    """Analytic yield of the defect-intolerant baseline (zero-defect chiplets)."""
    layout = RotatedSurfaceCodeLayout(chiplet_size)
    return defect_model.defect_free_probability(layout)
