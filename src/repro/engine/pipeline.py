"""Fused sample→decode→tally pipeline: the engine's decoding hot path.

One :class:`DecodingPipeline` owns everything needed to turn (shots, seed)
into a failure count for one circuit:

* a :class:`~repro.stabilizer.packed.PackedFrameSimulator` samples the
  detector record into bit-packed rows (64 shots per ``uint64`` word — the
  frame never materialises a dense boolean matrix);
* shots stream through the decoder in fixed-size chunks (``CHUNK_SHOTS``,
  1024, unless the ``chunk_shots`` argument says otherwise): each chunk is
  extracted *sparsely* (per-shot fired-detector index tuples) straight from
  the packed words, so the decode stage never materialises a dense boolean
  matrix and its peak memory is bounded by the chunk.  (Sampling itself is per-shard — chunked
  sampling would change the RNG draw order and break bit-identity — but the
  packed record is 8x smaller than the historical boolean arrays, and shard
  size is already capped by ``REPRO_SHARD_SIZE``.);
* the decoder's deduplicating batch path
  (:meth:`~repro.decoder.base.BatchDecoderBase.decode_fired_batch`) decodes
  each distinct syndrome once; its cross-batch memo and the matching graph's
  geodesic cache persist inside the pipeline object, so successive chunks,
  shards and scheduler waves reuse warm caches;
* failures are tallied by comparing predicted observable parity sets against
  the actual flipped-observable sets, shot by shot, without densifying.

The executor keeps one pipeline per task content hash per worker process
(:func:`repro.engine.executor._context_for`), which is what lets the
adaptive wave scheduler re-enter a warm pipeline wave after wave.

**Syndrome-memo persistence**: the decoder's cross-batch memo is the
product of real decode work — at d=5 a cold worker re-pays thousands of
Dijkstra-seeded matchings before its memo warms up.  Whenever a content-
addressed cache directory is known (``memo_preload``, else ``REPRO_CACHE``),
the pipeline saves the memo into it after runs (a ``syndrome_memo`` record
written through :meth:`~repro.engine.cache.ResultCache.store`, keyed by task
hash + decoder name) and a fresh pipeline for the same task imports it
before its first shard, so restarted service workers and remote socket
workers skip the cold-start rebuild.  A malformed record is a miss, like
any other cache record.  Persistence never changes numbers — decoding is a
pure function of the syndrome.

Determinism: decoding is a pure function of each shot's syndrome, so
pipeline tallies are bit-identical to the frozen ``repro.stabilizer.reference``
loop followed by per-shot :func:`~repro.decoder.reference.reference_mwpm_decode`
for any chunk size (the packed simulator draws the same RNG variates in the
same order as that loop).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Optional

from ..decoder.base import BatchDecoderBase
from ..env import env_str
from ..stabilizer.circuit import Circuit
from ..stabilizer.packed import PackedFrameSimulator
from .cache import ResultCache
from .rng import Seed

__all__ = ["DecodingPipeline", "PipelineStats", "memo_cache_key",
           "memo_preload"]

#: Shots per decode chunk: bounds peak decode memory, never changes results.
CHUNK_SHOTS = 1024

_MEMO_KIND = "syndrome_memo"


def memo_cache_key(task_hash: str, decoder_name: str) -> str:
    """Cache key of the persisted syndrome memo for (task, decoder).

    Hashed so memo records share the result cache's two-level hex layout.
    The decoder name stays part of the key so existing memo records keep
    their addresses.
    """
    body = f"syndrome_memo:{task_hash}:{decoder_name}"
    return hashlib.sha256(body.encode()).hexdigest()


# Process-wide memo-store override installed by workers that learn their
# cache directory from arguments rather than the environment (service
# workers, remote socket workers).  ``None`` falls back to ``REPRO_CACHE``.
_MEMO_CACHE_DIR: Optional[str] = None


def memo_preload(cache_dir: Optional[str]) -> None:
    """Point this process's pipelines at ``cache_dir`` for memo warm-up.

    Service workers (``repro.service.runner``) and remote socket workers
    (``repro.engine.worker``) call this at startup with their resolved
    cache directory, *before* the first shard runs, so every pipeline the
    process builds imports any persisted syndrome memo up front.  Passing
    ``None`` resets to the ``REPRO_CACHE`` environment fallback.
    """
    global _MEMO_CACHE_DIR
    _MEMO_CACHE_DIR = cache_dir


def _memo_cache() -> Optional[ResultCache]:
    """The memo store for this process, or None when no cache is known."""
    root = _MEMO_CACHE_DIR or env_str("REPRO_CACHE")
    return ResultCache(root) if root else None


@dataclass(frozen=True)
class PipelineStats:
    """Tally and cache-efficiency counters of one pipeline run."""

    shots: int
    failures: int
    chunks: int
    distinct_syndromes: int     # syndromes actually decoded during this run
    memo_hits: int              # cross-chunk/cross-run syndrome memo hits
    empty_shots: int            # shots short-circuited on the empty syndrome
    sample_seconds: float = 0.0  # wall-clock spent in the packed sampler
    decode_seconds: float = 0.0  # wall-clock spent extracting/decoding/tallying
    memo_evictions: int = 0     # syndrome-memo LRU evictions during this run
    memo_size: int = 0          # memo entries held after the run
    blossom_calls: int = 0      # decoded syndromes that needed MWPM blossom
    fused_tasks: int = 1        # tasks in the fused shard-group this run rode in

    @property
    def dedup_factor(self) -> float:
        """Shots per actually-decoded syndrome (>= 1; higher is better)."""
        return self.shots / max(self.distinct_syndromes, 1)

    @property
    def shots_per_second(self) -> float:
        """End-to-end pipeline throughput over the timed run (0 when untimed).

        This is the per-shard series the BENCH JSON artifacts record, so the
        sample+decode trajectory is diffable across PRs.
        """
        total = self.sample_seconds + self.decode_seconds
        return self.shots / total if total > 0 else 0.0

    @property
    def memo_pressure(self) -> float:
        """Evictions per decoded syndrome this run (0 when the memo fits).

        Anything persistently above ~0 means the cross-batch syndrome memo
        (``REPRO_SYNDROME_CACHE``) is smaller than the working set and is
        churning; the BENCH decoder series records the raw counters so the
        knob can be sized from CI artifacts.
        """
        return self.memo_evictions / max(self.distinct_syndromes, 1)

    @property
    def sample_fraction(self) -> float:
        """Share of the run's wall-clock spent sampling (0 when untimed).

        Decoding, not sampling, dominates at d >= 5 even with batched,
        enumerated matching: the repository benchmark's traced
        ``ler_decode`` run (d=5/d=7) spends about half its time matching
        and about a quarter sampling.  This split shows which half a change
        moved.
        """
        total = self.sample_seconds + self.decode_seconds
        return self.sample_seconds / total if total > 0 else 0.0


class DecodingPipeline:
    """Streams sample→decode→tally for one circuit with warm decoder caches."""

    def __init__(
        self,
        circuit: Circuit,
        decoder: BatchDecoderBase,
        *,
        chunk_shots: int = CHUNK_SHOTS,
        rng_mode: str = "exact",
    ):
        if chunk_shots <= 0:
            raise ValueError("chunk_shots must be positive")
        self.circuit = circuit
        self.decoder = decoder
        self.chunk_shots = int(chunk_shots)
        self.rng_mode = rng_mode
        # One warm simulator for the pipeline's lifetime: the compiled
        # vectorised program is reused across runs (shards, scheduler
        # waves); only the RNG stream is replaced per run.
        self._sim = PackedFrameSimulator(circuit, rng_mode=rng_mode)
        # Syndrome-memo persistence state (attach_memo_store/persist_memo).
        self._memo_store: Optional[ResultCache] = None
        self._memo_key: Optional[str] = None
        self._memo_task_hash: Optional[str] = None
        self._memo_decoder_name: Optional[str] = None
        self._memo_saved_decodes = -1
        self.preloaded_memo_entries = 0

    # ------------------------------------------------------------------
    def attach_memo_store(self, cache: ResultCache, task_hash: str,
                          decoder_name: str) -> int:
        """Bind the pipeline to a persisted-memo slot and warm up from it.

        Imports any existing snapshot into the decoder immediately (the
        count lands in ``preloaded_memo_entries``) and arms
        :meth:`persist_memo` to write back after runs.  Returns the number
        of imported entries.
        """
        self._memo_store = cache
        self._memo_task_hash = task_hash
        self._memo_decoder_name = decoder_name
        self._memo_key = memo_cache_key(task_hash, decoder_name)
        entries = cache.load(self._memo_key, _MEMO_KIND, task_hash,
                             lambda record: list(record["entries"]))
        if entries is not None:
            self.preloaded_memo_entries = self.decoder.import_memo(entries)
        self._memo_saved_decodes = self.decoder.decoded_syndromes
        return self.preloaded_memo_entries

    def persist_memo(self) -> bool:
        """Write the decoder memo back to the attached store if it grew.

        A no-op without :meth:`attach_memo_store` or when no new syndrome
        has been decoded since the last save — so the executor can call
        this after every shard without re-serialising an unchanged memo.
        """
        if self._memo_store is None:
            return False
        decoded = self.decoder.decoded_syndromes
        if decoded == self._memo_saved_decodes:
            return False
        self._memo_store.store(self._memo_key, _MEMO_KIND,
                               self._memo_task_hash,
                               decoder=self._memo_decoder_name,
                               entries=self.decoder.export_memo())
        self._memo_saved_decodes = decoded
        return True

    # ------------------------------------------------------------------
    @property
    def simulator(self) -> PackedFrameSimulator:
        """The pipeline's warm simulator (compiled program reused across runs).

        Exposed for the fused execution layer, which compiles several
        pipelines' simulators into one
        :class:`~repro.stabilizer.packed.FusedProgram`; reseeding it per
        request is exactly what :meth:`run` does, so borrowing it never
        perturbs the stream a later unfused run would draw.
        """
        return self._sim

    def run(self, shots: int, seed: Seed = None) -> PipelineStats:
        """Sample ``shots`` under ``seed``, decode in chunks, tally failures.

        Bit-identical to the frozen ``repro.stabilizer.reference`` loop
        (``reference_packed_sample(circuit, shots, seed)``) followed by
        per-shot ``reference_mwpm_decode`` and a tally — the chunk size
        changes memory traffic, never the numbers.
        """
        if shots <= 0:
            raise ValueError("shots must be positive")
        t0 = time.perf_counter()
        samples = self._sim.reseed(seed).sample(shots)
        t1 = time.perf_counter()
        return self.decode_samples(samples, sample_seconds=t1 - t0)

    def decode_samples(self, samples, *, sample_seconds: float = 0.0,
                       fused_tasks: int = 1) -> PipelineStats:
        """Decode already-sampled packed detector data in chunks and tally.

        The decode half of :meth:`run`, split out so the fused execution
        layer can sample several tasks in one
        :class:`~repro.stabilizer.packed.FusedProgram` invocation and still
        route each segment through its own pipeline's warm decoder caches.
        ``sample_seconds`` carries the caller's measured sampling time into
        the stats; ``fused_tasks`` records how many tasks shared the
        sampling dispatch (1 for unfused runs).  Decoding is a pure function
        of the syndromes, so the split can never change a tally.
        """
        shots = int(samples.num_shots)
        if shots <= 0:
            raise ValueError("shots must be positive")
        decoder = self.decoder
        decoded_before = decoder.decoded_syndromes
        memo_before = decoder.memo_hits
        evictions_before = decoder.memo_evictions
        blossom_before = decoder.blossom_calls

        t1 = time.perf_counter()
        failures = 0
        empty_shots = 0
        chunks = 0
        for start in range(0, shots, self.chunk_shots):
            stop = min(start + self.chunk_shots, shots)
            fired = samples.fired_detectors(start, stop)
            actual = samples.flipped_observables(start, stop)
            predictions = decoder.decode_fired_batch(fired, assume_canonical=True)
            for syndrome, parity, actual_flips in zip(fired, predictions, actual):
                if not syndrome:
                    empty_shots += 1
                if parity.symmetric_difference(actual_flips):
                    failures += 1
            chunks += 1
        t2 = time.perf_counter()

        return PipelineStats(
            shots=shots,
            failures=failures,
            chunks=chunks,
            distinct_syndromes=decoder.decoded_syndromes - decoded_before,
            memo_hits=decoder.memo_hits - memo_before,
            empty_shots=empty_shots,
            sample_seconds=sample_seconds,
            decode_seconds=t2 - t1,
            memo_evictions=decoder.memo_evictions - evictions_before,
            memo_size=decoder.memo_size,
            blossom_calls=decoder.blossom_calls - blossom_before,
            fused_tasks=int(fused_tasks),
        )
