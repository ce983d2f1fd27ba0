"""Cost-aware priority scheduling: which runnable job should a worker take?

Ranking combines three signals, in the spirit of the priority/aging
queue-to-scheduler stage the roadmap points at:

* **Estimated cost** — the shot policy's budget, weighted by sampler mode
  (:meth:`ShotPolicy.estimated_cost`), yield samples in shot-equivalents.
  Cheaper jobs first (shortest-job-first keeps median latency low under
  multi-user load).
* **Cache-hit probability** — each of the job's engine cache keys is probed
  against the content-addressed result cache
  (:meth:`ResultCache.__contains__`); already-computed units cost nothing,
  so a fully warm job ranks (near) first and completes instantly, freeing
  capacity.
* **Submission-age anti-starvation** — effective cost decays with time in
  queue (``cost / (1 + aging_rate * age)``), so a big cold sweep submitted
  early cannot be starved forever by a stream of small fresh jobs: its
  discounted cost eventually undercuts everything.

Scheduling is a *ranking heuristic only*: it decides order, never numbers.
Ties break deterministically by (submission time, id), so a fleet of
workers draining one queue behaves reproducibly in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..engine.cache import ResultCache
from .config import service_aging_rate
from .specs import spec_cache_keys, spec_estimated_cost
from .store import Job

__all__ = ["SchedulerConfig", "JobScheduler"]

#: Floor for a fully-cached job's cost: keeps it strictly cheapest without
#: zeroing the aging arithmetic.
_MIN_COST = 1.0


@dataclass(frozen=True)
class SchedulerConfig:
    """Ranking knobs (see module docstring; results are never affected).

    ``aging_rate`` is the per-second discount on effective cost (default
    from ``REPRO_SERVICE_AGING``).
    """

    aging_rate: float = 0.05

    @classmethod
    def from_env(cls, env=None) -> "SchedulerConfig":
        return cls(aging_rate=service_aging_rate(env))


class JobScheduler:
    """Ranks runnable jobs for claiming (cost, cache warmth, age)."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 config: Optional[SchedulerConfig] = None):
        self.cache = cache
        self.config = config or SchedulerConfig()

    # ------------------------------------------------------------------
    def cache_hit_fraction(self, job: Job) -> float:
        """Share of the job's work units already present in the cache."""
        if self.cache is None:
            return 0.0
        keys = spec_cache_keys(job.spec)
        if not keys:
            return 0.0
        hits = sum(1 for key in keys if key is not None and key in self.cache)
        return hits / len(keys)

    def score(self, job: Job, now: float) -> float:
        """Effective cost of a job right now — lower runs sooner."""
        cost = spec_estimated_cost(job.spec)
        cost = max(cost * (1.0 - self.cache_hit_fraction(job)), _MIN_COST)
        age = max(now - job.submitted_at, 0.0)
        return cost / (1.0 + self.config.aging_rate * age)

    def rank(self, jobs: Sequence[Job], now: float) -> List[Job]:
        """Jobs in claim order: ascending score, ties by (submitted, id).

        A spec that fails to price (e.g. written by a newer schema) sinks
        to the back instead of wedging the queue.
        """
        def key(job: Job):
            try:
                return (0, self.score(job, now), job.submitted_at, job.id)
            except (KeyError, TypeError, ValueError):
                return (1, 0.0, job.submitted_at, job.id)

        return sorted(jobs, key=key)

    def select(self, jobs: Sequence[Job], now: float) -> Optional[Job]:
        """The single best claim candidate (None when nothing is runnable)."""
        ranked = self.rank(jobs, now)
        return ranked[0] if ranked else None
