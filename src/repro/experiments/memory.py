"""Memory-experiment driver: sample logical error rates for adapted patches.

A memory experiment prepares the logical |0> state, runs ``rounds`` cycles of
syndrome extraction under circuit-level noise, decodes the resulting detector
record with minimum-weight perfect matching, and counts the shots in which
the decoder's prediction of the logical-Z observable disagrees with the
actual value.  This is the workhorse behind Figs. 5-11 of the paper.

The sample→decode→tally inner loop runs on the engine's fused
:class:`~repro.engine.pipeline.DecodingPipeline` (bit-packed frame sampling,
sparse syndrome extraction, deduplicated decoding against warm geodesic
caches), so every driver in this module inherits its throughput without any
code changes here; the numbers are bit-identical to the historical per-shot
path for the same seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis.stats import BinomialEstimate
from ..core.patch import AdaptedPatch
from ..engine.executor import Engine, default_engine
from ..engine.rng import Seed
from ..engine.scheduler import ShotPolicy
from ..engine.tasks import LerPointTask
from ..noise.circuit_noise import CircuitNoiseModel

__all__ = ["MemoryExperimentResult", "run_memory_experiment", "run_stability_experiment"]


@dataclass(frozen=True)
class MemoryExperimentResult:
    """Outcome of one logical-error-rate measurement."""

    physical_error_rate: float
    rounds: int
    shots: int
    failures: int
    num_detectors: int
    num_dem_errors: int
    decoder: str

    @property
    def logical_error_rate(self) -> float:
        return self.failures / self.shots

    @property
    def estimate(self) -> BinomialEstimate:
        return BinomialEstimate(failures=self.failures, shots=self.shots)

    def per_round_error_rate(self) -> float:
        """Logical error rate converted to a per-round rate."""
        total = self.logical_error_rate
        if total >= 1.0:
            return 1.0
        return 1.0 - (1.0 - total) ** (1.0 / max(self.rounds, 1))


def run_memory_experiment(
    patch: AdaptedPatch,
    physical_error_rate: float,
    shots: Optional[int] = None,
    *,
    rounds: Optional[int] = None,
    noise: Optional[CircuitNoiseModel] = None,
    seed: Seed = None,
    engine: Optional[Engine] = None,
    policy: Optional[ShotPolicy] = None,
) -> MemoryExperimentResult:
    """Measure the logical-Z memory error rate of an adapted patch.

    Runs through the execution engine: with the default (serial, single
    shard) configuration the numbers are identical to the historical direct
    simulation for the same seed; ``REPRO_WORKERS``/``REPRO_CACHE`` (or an
    explicit ``engine``) enable sharded parallel execution and result
    caching without changing them.

    Parameters
    ----------
    patch:
        The adapted patch (defect-free patches work too).
    physical_error_rate:
        Two-qubit gate error rate ``p`` of the circuit-level noise model
        (ignored if an explicit ``noise`` model is supplied).
    shots:
        Number of Monte-Carlo samples (fixed budget).
    rounds:
        Number of syndrome-extraction rounds; defaults to the patch width.
    engine:
        Engine to run on; defaults to the process-wide default engine.
    policy:
        Adaptive :class:`ShotPolicy` overriding the fixed ``shots`` budget
        (early stop on a target failure count or CI width).
    """
    task = LerPointTask.from_patch(
        "memory", patch, physical_error_rate,
        rounds=rounds, noise=noise,
    )
    eng = engine if engine is not None else default_engine()
    result = eng.run_ler(task, shots=None if policy else shots,
                         policy=policy, seed=seed)
    return result.to_memory_result()


def run_stability_experiment(
    patch: AdaptedPatch,
    physical_error_rate: float,
    shots: Optional[int],
    rounds: int,
    *,
    noise: Optional[CircuitNoiseModel] = None,
    seed: Seed = None,
    engine: Optional[Engine] = None,
    policy: Optional[ShotPolicy] = None,
) -> MemoryExperimentResult:
    """Measure the stability-experiment failure rate (Sec. 6 of the paper)."""
    task = LerPointTask.from_patch(
        "stability", patch, physical_error_rate,
        rounds=rounds, noise=noise,
    )
    eng = engine if engine is not None else default_engine()
    result = eng.run_ler(task, shots=None if policy else shots,
                         policy=policy, seed=seed)
    return result.to_memory_result()


def logical_error_rate_curve(
    patch: AdaptedPatch,
    physical_error_rates: Sequence[float],
    shots: Optional[int] = None,
    *,
    rounds: Optional[int] = None,
    seed: Seed = None,
    engine: Optional[Engine] = None,
    policy: Optional[ShotPolicy] = None,
) -> list[MemoryExperimentResult]:
    """Sweep ``p`` and return one result per value (the Fig. 6 style curve).

    Point ``i`` draws from RNG child stream ``i`` of ``seed``
    (``SeedSequence`` spawning), so each point is independent of how many
    points the sweep contains and of the executing worker.  The engine runs
    the whole curve as one sweep (:meth:`Engine.run_sweep`): shards of all
    points — adaptive waves included — are interleaved into one pool, so a
    point draining its last wave never idles workers another point could
    use, and the results stay bit-identical to running each point alone.
    """
    tasks = [
        LerPointTask.from_patch("memory", patch, p, rounds=rounds)
        for p in physical_error_rates
    ]
    eng = engine if engine is not None else default_engine()
    results = eng.run_ler_many(tasks, shots=None if policy else shots,
                               policy=policy, seed=seed)
    return [r.to_memory_result() for r in results]
