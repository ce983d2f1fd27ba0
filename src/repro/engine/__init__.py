"""Parallel Monte-Carlo execution engine.

The engine is the single entry point for the repo's Monte-Carlo work:

* :mod:`~repro.engine.tasks` - frozen, content-hashable task specs;
* :mod:`~repro.engine.rng` - collision-free ``SeedSequence`` stream derivation;
* :mod:`~repro.engine.scheduler` - adaptive shot allocation in waves;
* :mod:`~repro.engine.pipeline` - fused, chunked sample→decode→tally hot path
  (bit-packed frames, syndrome-deduplicated decoding, warm geodesic caches);
* :mod:`~repro.engine.cache` - content-addressed on-disk JSON result cache;
* :mod:`~repro.engine.backends` - pluggable execution strategies (serial,
  local process pool, multi-host TCP socket fleet), all bit-identical;
* :mod:`~repro.engine.worker` - the remote-worker entry point
  (``python -m repro.engine.worker``) the socket backend talks to;
* :mod:`~repro.engine.executor` - sharding, scheduling and merging on top
  of whichever backend the config selects.

Quick use::

    from repro.engine import Engine, EngineConfig, LerPointTask

    task = LerPointTask.from_patch("memory", patch, physical_error_rate=0.005)
    engine = Engine(EngineConfig(max_workers=4, cache_dir=".repro-cache"))
    result = engine.run_ler(task, shots=200_000, seed=7)

Results are bit-identical for any backend, worker count or host count;
reruns with a cache directory are near-instant.  The experiment drivers in
:mod:`repro.experiments` route through :func:`default_engine`, which reads
``REPRO_WORKERS`` / ``REPRO_CACHE`` / ``REPRO_SHARD_SIZE`` /
``REPRO_BACKEND`` / ``REPRO_HOSTS`` from the environment, so existing
scripts parallelise — across processes or hosts — without code changes.
"""

from .backends import (
    Backend,
    BackendError,
    ProcessPoolBackend,
    SerialBackend,
    SocketBackend,
    create_backend,
)
from .cache import ResultCache
from .pipeline import DecodingPipeline, PipelineStats
from .executor import (
    Engine,
    EngineConfig,
    FusionStats,
    LerResult,
    SweepItem,
    WaveUpdate,
    default_engine,
    ler_cache_key,
    seeded_task_key,
    set_default_engine,
)
from .rng import Seed, as_seed_sequence, child_stream, seed_fingerprint, spawn_streams
from .scheduler import ShotPolicy, ShotScheduler
from .tasks import (
    ENGINE_SCHEMA_VERSION,
    TASK_KINDS,
    CutoffCellTask,
    LerPointTask,
    PatchSampleTask,
    TaskSpec,
    YieldTask,
    task_from_payload,
)

__all__ = [
    "Backend",
    "BackendError",
    "SerialBackend",
    "ProcessPoolBackend",
    "SocketBackend",
    "create_backend",
    "DecodingPipeline",
    "PipelineStats",
    "Engine",
    "EngineConfig",
    "FusionStats",
    "LerResult",
    "SweepItem",
    "WaveUpdate",
    "default_engine",
    "set_default_engine",
    "ler_cache_key",
    "seeded_task_key",
    "ResultCache",
    "Seed",
    "as_seed_sequence",
    "child_stream",
    "seed_fingerprint",
    "spawn_streams",
    "ShotPolicy",
    "ShotScheduler",
    "ENGINE_SCHEMA_VERSION",
    "TASK_KINDS",
    "CutoffCellTask",
    "LerPointTask",
    "PatchSampleTask",
    "TaskSpec",
    "YieldTask",
    "task_from_payload",
]
