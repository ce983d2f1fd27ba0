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
path for the same seeds.  Every driver returns the engine's
:class:`~repro.engine.executor.LerResult`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.patch import AdaptedPatch
from ..engine.executor import Engine, LerResult, default_engine
from ..engine.rng import Seed
from ..engine.scheduler import ShotPolicy
from ..engine.tasks import LerPointTask
from ..noise.circuit_noise import CircuitNoiseModel

__all__ = ["run_memory_experiment", "run_stability_experiment"]


def _run_experiment(experiment, patch, physical_error_rate, shots, rounds,
                    noise, seed, engine, policy) -> LerResult:
    task = LerPointTask.from_patch(
        experiment, patch, physical_error_rate,
        rounds=rounds, noise=noise,
    )
    eng = engine if engine is not None else default_engine()
    return eng.run_ler(task, shots=None if policy else shots,
                       policy=policy, seed=seed)


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
) -> LerResult:
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
    return _run_experiment("memory", patch, physical_error_rate, shots,
                           rounds, noise, seed, engine, policy)


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
) -> LerResult:
    """Measure the stability-experiment failure rate (Sec. 6 of the paper)."""
    return _run_experiment("stability", patch, physical_error_rate, shots,
                           rounds, noise, seed, engine, policy)


def logical_error_rate_curve(
    patch: AdaptedPatch,
    physical_error_rates: Sequence[float],
    shots: Optional[int] = None,
    *,
    rounds: Optional[int] = None,
    seed: Seed = None,
    engine: Optional[Engine] = None,
    policy: Optional[ShotPolicy] = None,
) -> list[LerResult]:
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
    return eng.run_ler_many(tasks, shots=None if policy else shots,
                            policy=policy, seed=seed)
