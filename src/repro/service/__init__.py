"""Estimation-as-a-service: a durable queue + scheduler in front of the engine.

The engine (:mod:`repro.engine`) is a library: you build a frozen task spec,
call :meth:`Engine.run_ler`, and block until the numbers land.  This package
is the subsystem that turns it into a long-running, multi-user service:

* :mod:`~repro.service.store` — a SQLite-backed (WAL) durable job store with
  crash-safe state transitions (``queued → running → done/failed/cancelled``)
  and lease + heartbeat columns, so a killed worker loses nothing;
* :mod:`~repro.service.specs` — job specifications: JSON round-trips of the
  engine's frozen task specs plus shot policy, seed fingerprint and shard
  size — everything that determines a run's bytes;
* :mod:`~repro.service.scheduler` — a priority scheduler ranking runnable
  jobs by estimated cost (:meth:`ShotPolicy.estimated_cost` shot budget),
  cache-hit probability (probing the content-addressed
  :class:`~repro.engine.cache.ResultCache`), and submission-age
  anti-starvation;
* :mod:`~repro.service.coalesce` — request coalescing: two queued or
  in-flight jobs with the same content key share one execution and both
  receive the result (the cache already dedups *completed* work; this
  extends dedup to *in-flight* work);
* :mod:`~repro.service.runner` / ``python -m repro.service.worker`` — the
  worker drain loop: claim under lease, execute through the existing
  ``Engine``/backend stack, persist wave-by-wave partial results, finish (or
  lose the lease and let another worker re-run — results are deterministic,
  so double execution is harmless and bit-identical);
* :mod:`~repro.service.api` / ``python -m repro.service.api`` — a
  stdlib-``http.server`` JSON front end (``POST /jobs``, ``GET /jobs/<id>``,
  long-pollable ``GET /jobs/<id>/events``, ``DELETE /jobs/<id>``);
* :mod:`~repro.service.cli` — ``python -m repro.service.cli
  submit|status|watch|cancel``.

The load-bearing invariant, inherited from the engine: a job submitted over
HTTP and drained by any worker on any host produces **bit-identical**
results — and byte-identical cache records — to calling
``Engine.run_ler``/``run_yield`` directly with the same task spec, because
the spec (not the transport) determines every RNG stream.
"""

from .coalesce import content_key
from .runner import JobCancelled, JobLost, ServiceWorker
from .scheduler import JobScheduler, SchedulerConfig
from .specs import normalize_spec, spec_cache_keys, spec_estimated_cost
from .store import Job, JobStore

__all__ = [
    "Job",
    "JobStore",
    "JobScheduler",
    "SchedulerConfig",
    "ServiceWorker",
    "JobCancelled",
    "JobLost",
    "content_key",
    "normalize_spec",
    "spec_cache_keys",
    "spec_estimated_cost",
]
