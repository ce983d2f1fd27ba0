"""Adaptive shot allocation: submit shards in waves, stop when targets are met.

At low physical error rates logical failures are rare, so a fixed shot budget
either wastes compute (millions of shots for a point whose failure count
saturated long ago) or under-samples (zero failures, useless error bars).
The scheduler closes the loop: shots are planned in geometrically growing
*waves* of shards, and after each wave the merged failure count decides
whether to continue.

Determinism: the plan depends only on the policy, the shard size and the
*merged* statistics after complete waves - never on which worker (or which
host: the scheduler is equally blind to every execution backend) produced
which shard - so the sequence of (shard index, shard shots) pairs, and hence
the result, is identical for any worker count.

The same property is what makes **cross-task interleaving** safe
(:meth:`repro.engine.executor.Engine.run_sweep`): each task in a sweep owns
one scheduler, shards of every task share one pool, and because a scheduler
only ever sees its own task's merged wave statistics, its plan is
independent of what other tasks are running — interleaving changes
wall-clock, never numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.stats import wilson_interval

__all__ = ["DEFAULT_SHARD_SIZE", "ShotPolicy", "ShotScheduler", "Shard",
           "rng_mode_shot_cost"]

#: Max shots per shard unless configured otherwise (``EngineConfig``,
#: ``REPRO_SHARD_SIZE``, service job specs).  It is part of every LER cache
#: key, so changing it re-keys the cache and the multi-shard RNG split.
DEFAULT_SHARD_SIZE = 4096

# One unit of work handed to a worker: (global shard index, shots to run).
Shard = Tuple[int, int]

#: Relative per-shot cost of each sampler RNG mode, as an exact fraction
#: ``(num, den)``.  Bitgen draws ~4x fewer random bytes and skips the float
#: compare/pack passes entirely, which measures out to roughly a third of
#: the exact per-shot cost in the sampler benchmarks (BENCH_fast_rng.json).
#: Ranking and fusion-grouping heuristic only — never part of any payload
#: or cache key, and never a factor in results.
_RNG_MODE_COST = {"exact": (1, 1), "bitgen": (1, 3)}


def rng_mode_shot_cost(rng_mode: str, shots: int) -> int:
    """``shots`` weighted by the mode's relative per-shot cost (ceiling).

    Exact mode returns ``shots`` unchanged; bitgen prices at ~1/3 of exact,
    rounded up so a nonzero request never prices at zero.  Unknown modes
    raise a ``ValueError`` so a typo'd task field fails at ranking time
    instead of silently mis-sorting jobs.
    """
    try:
        num, den = _RNG_MODE_COST[rng_mode]
    except KeyError:
        raise ValueError(
            f"unknown rng_mode {rng_mode!r}; "
            f"valid modes: {', '.join(sorted(_RNG_MODE_COST))}") from None
    if shots <= 0:
        return 0
    return -(-shots * num // den)


@dataclass(frozen=True)
class ShotPolicy:
    """How many shots to spend on a task and when to stop early.

    Attributes
    ----------
    max_shots:
        Hard budget; sampling never exceeds it.
    min_shots:
        Guaranteed minimum before any early stop is considered.  Defaults to
        ``max_shots`` for fixed policies and to one wave for adaptive ones.
    target_failures:
        Stop once this many failures have been observed (the classic
        "collect N events" rule; N ~ 100 gives ~10% relative error).
    target_rel_halfwidth:
        Stop once the Wilson 95% CI half-width falls below this fraction of
        the estimated rate (requires at least one failure).
    growth:
        Geometric factor between consecutive wave sizes.
    """

    max_shots: int
    min_shots: Optional[int] = None
    target_failures: Optional[int] = None
    target_rel_halfwidth: Optional[float] = None
    z: float = 1.96
    growth: float = 2.0

    def __post_init__(self) -> None:
        if self.max_shots <= 0:
            raise ValueError("max_shots must be positive")
        if self.min_shots is not None and not 0 < self.min_shots <= self.max_shots:
            raise ValueError("min_shots must lie in (0, max_shots]")
        if self.target_failures is not None and self.target_failures <= 0:
            raise ValueError("target_failures must be positive")
        if self.target_rel_halfwidth is not None and self.target_rel_halfwidth <= 0:
            raise ValueError("target_rel_halfwidth must be positive")
        if self.growth < 1.0:
            raise ValueError("growth must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def fixed(cls, shots: int) -> "ShotPolicy":
        """Exactly ``shots`` shots, no early stopping (the legacy behaviour)."""
        return cls(max_shots=shots, min_shots=shots)

    @classmethod
    def adaptive(
        cls,
        max_shots: int,
        *,
        min_shots: Optional[int] = None,
        target_failures: Optional[int] = 100,
        target_rel_halfwidth: Optional[float] = None,
        growth: float = 2.0,
    ) -> "ShotPolicy":
        """Stop early once the statistical target is met (default: 100 failures)."""
        return cls(max_shots=max_shots, min_shots=min_shots,
                   target_failures=target_failures,
                   target_rel_halfwidth=target_rel_halfwidth, growth=growth)

    @property
    def is_adaptive(self) -> bool:
        return (self.target_failures is not None
                or self.target_rel_halfwidth is not None
                or (self.min_shots or self.max_shots) < self.max_shots)

    def payload(self) -> dict:
        """Canonical description for cache keys (anything affecting results)."""
        return {
            "max_shots": self.max_shots,
            "min_shots": self.min_shots,
            "target_failures": self.target_failures,
            "target_rel_halfwidth": self.target_rel_halfwidth,
            "z": self.z,
            "growth": self.growth,
        }

    def estimated_cost(self, *, rng_mode: str = "exact") -> int:
        """Worst-case execution cost in exact-shot equivalents (ranking).

        No early-stop target can be known to fire before any shot runs,
        so a task is priced at its full ``max_shots`` budget, weighted by
        the sampler mode's relative per-shot cost
        (:func:`rng_mode_shot_cost`): a bitgen task prices at ~1/3 of an
        exact task with the same policy, so the service priority scheduler
        ranks it where its wall-clock actually lands.
        """
        return rng_mode_shot_cost(rng_mode, self.max_shots)


class ShotScheduler:
    """Stateful wave planner for one task.

    Usage::

        sched = ShotScheduler(policy, shard_size)
        while True:
            wave = sched.next_wave()
            if not wave:
                break
            ... run every shard of the wave, merge counts ...
            sched.record(wave_failures, wave_shots)
    """

    def __init__(self, policy: ShotPolicy, shard_size: int):
        if shard_size <= 0:
            raise ValueError("shard_size must be positive")
        self.policy = policy
        self.shard_size = shard_size
        self.failures = 0
        self.shots_done = 0
        self._next_shard = 0
        self._planned = 0
        if policy.min_shots is not None:
            first = policy.min_shots
        elif policy.is_adaptive:
            first = min(shard_size, policy.max_shots)
        else:
            first = policy.max_shots
        self._wave_size = first
        self._min_shots = first if policy.min_shots is None else policy.min_shots

    # ------------------------------------------------------------------
    def should_stop(self) -> bool:
        """Decide, from merged statistics only, whether sampling can end."""
        if self.shots_done < self._min_shots:
            return False
        if self.shots_done >= self.policy.max_shots:
            return True
        tf = self.policy.target_failures
        if tf is not None and self.failures >= tf:
            return True
        trh = self.policy.target_rel_halfwidth
        if trh is not None and self.failures > 0:
            low, high = wilson_interval(self.failures, self.shots_done,
                                        z=self.policy.z)
            rate = self.failures / self.shots_done
            if (high - low) / 2.0 <= trh * rate:
                return True
        return False

    def next_wave(self) -> List[Shard]:
        """Plan the next wave of shards (empty when sampling is finished)."""
        if self.should_stop():
            return []
        remaining = self.policy.max_shots - self._planned
        if remaining <= 0:
            return []
        wave_shots = min(self._wave_size, remaining)
        shards: List[Shard] = []
        left = wave_shots
        while left > 0:
            n = min(self.shard_size, left)
            shards.append((self._next_shard, n))
            self._next_shard += 1
            left -= n
        self._planned += wave_shots
        self._wave_size = max(1, int(self._wave_size * self.policy.growth))
        return shards

    def record(self, failures: int, shots: int) -> None:
        """Merge the outcome of a completed wave."""
        if failures < 0 or shots < 0 or failures > shots:
            raise ValueError("invalid wave statistics")
        self.failures += failures
        self.shots_done += shots
