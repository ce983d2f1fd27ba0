"""Batched-decoding machinery behind :class:`~repro.decoder.matching.MwpmDecoder`.

Per-shot decoding wastes most of its work at realistic physical error rates:
the large majority of shots produce the *empty* syndrome, and the non-empty
ones collapse to a small set of distinct fired-detector patterns.  The
:class:`BatchDecoderBase` mixin exploits that:

1. every shot is canonicalised to a sorted tuple of fired detector indices
   (the *sparse syndrome*, exactly what
   :meth:`~repro.stabilizer.packed.PackedDetectorSamples.fired_detectors`
   yields);
2. the empty syndrome short-circuits to "no correction";
3. distinct syndromes are decoded **once** per batch and the predictions are
   scattered back to every shot that produced them;
4. a bounded cross-batch memo (``REPRO_SYNDROME_CACHE`` entries, default
   65536; ``0`` disables it) lets later batches — e.g. successive waves of
   the adaptive shot scheduler — reuse earlier decodes outright; once full
   it evicts **least-recently-used** (hits refresh recency), so hot
   syndromes survive long varied sweeps while one-off patterns cycle out;
5. the memo round-trips through :meth:`BatchDecoderBase.export_memo` /
   :meth:`BatchDecoderBase.import_memo` as primitive lists, which is what
   the pipeline persists into the on-disk result cache so restarted
   workers skip re-decoding syndromes a previous process already paid for.

Subclasses implement a single method, ``_decode_fired``, mapping a canonical
syndrome to the *parity set* of flipped logical observables (a frozenset, so
predictions are hashable and memoisable).  Decoding runs serially in the
calling thread: ``_decode_fired`` is pure-Python matching, so threads would
only contend for the GIL.  Everything else — the sparse entry points
:meth:`BatchDecoderBase.decode_fired` and
:meth:`BatchDecoderBase.decode_fired_batch`, the memo and its counters —
lives here.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Tuple

from ..env import env_int

__all__ = ["BatchDecoderBase", "syndrome_cache_limit"]

_DEFAULT_SYNDROME_CACHE = 1 << 16

# A canonical (sparse) syndrome: sorted tuple of fired detector indices.
Syndrome = Tuple[int, ...]


def syndrome_cache_limit(env=None) -> int:
    """Cross-batch syndrome-memo capacity from ``REPRO_SYNDROME_CACHE``.

    ``0`` disables the memo; negative or non-integer values raise a
    ``ValueError`` naming the variable.
    """
    return env_int("REPRO_SYNDROME_CACHE", _DEFAULT_SYNDROME_CACHE,
                   minimum=0, env=env)


class BatchDecoderBase:
    """Canonicalise → deduplicate → decode once → scatter.

    Subclasses must provide ``num_observables`` (int attribute) and
    ``_decode_fired(fired: Syndrome) -> FrozenSet[int]``.
    """

    num_observables: int

    def __init__(self) -> None:
        self._syndrome_memo: dict = {}
        self._syndrome_memo_limit = syndrome_cache_limit()
        # Lifetime counters, surfaced by the pipeline stats and benchmarks.
        self.decoded_syndromes = 0     # _decode_fired invocations
        self.blossom_calls = 0         # syndromes solved by networkx blossom
        self.memo_hits = 0             # cross-batch memo hits
        self.memo_evictions = 0        # LRU evictions once the memo is full
        self.shots_decoded = 0         # shots routed through the batch path

    @property
    def memo_size(self) -> int:
        """Distinct syndromes currently held in the cross-batch memo.

        Together with the lifetime ``memo_hits``/``memo_evictions``
        counters (surfaced per run by
        :class:`~repro.engine.pipeline.PipelineStats` and recorded in the
        BENCH decoder artifacts), this is what sizes
        ``REPRO_SYNDROME_CACHE``: persistent evictions with the memo
        pinned at its limit mean the working set no longer fits.
        """
        return len(self._syndrome_memo)

    # ------------------------------------------------------------------
    def export_memo(self) -> List[list]:
        """Snapshot the syndrome memo as JSON-ready ``[[det...], [obs...]]``.

        Entries come out coldest-first (dict insertion order *is* the LRU
        order), so importing them in sequence reproduces the recency
        ranking on the receiving decoder.
        """
        return [[list(key), sorted(parity)]
                for key, parity in self._syndrome_memo.items()]

    def import_memo(self, entries: Sequence[Sequence]) -> int:
        """Seed the memo from an :meth:`export_memo` snapshot; returns size.

        Imports preserve entry order (coldest first) and respect this
        decoder's own ``REPRO_SYNDROME_CACHE`` limit by keeping only the
        *hottest* tail of an oversized snapshot.  Malformed or empty keys
        are skipped rather than poisoning the memo; counters are untouched
        — a preloaded syndrome counts as a memo hit when it first saves a
        decode, not before.
        """
        limit = self._syndrome_memo_limit
        if limit <= 0:
            return 0
        memo = self._syndrome_memo
        for entry in list(entries)[-limit:]:
            try:
                det, obs = entry
                key = tuple(int(i) for i in det)
                parity = frozenset(int(o) for o in obs)
            except (TypeError, ValueError):
                continue
            if key:
                memo.pop(key, None)
                memo[key] = parity
        while len(memo) > limit:
            memo.pop(next(iter(memo)))
        return len(memo)

    # ------------------------------------------------------------------
    def _decode_fired(self, fired: Syndrome) -> FrozenSet[int]:
        """Decode one canonical syndrome to its observable parity set."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def decode_fired(self, fired: Sequence[int]) -> FrozenSet[int]:
        """Memoised decode of one sparse syndrome."""
        return self._decode_canonical(tuple(sorted(int(i) for i in fired)))

    def _decode_canonical(self, key: Syndrome) -> FrozenSet[int]:
        """Memoised decode of an already-canonical (sorted int tuple) syndrome."""
        if not key:
            return frozenset()
        memo = self._syndrome_memo
        hit = memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            # LRU: re-insert so dict insertion order tracks recency and
            # ``next(iter(memo))`` below is always the coldest entry.  (FIFO
            # eviction aged out hot syndromes — e.g. the handful of
            # single-detector patterns that dominate every batch — at the
            # same rate as one-off noise.)
            memo.pop(key)
            memo[key] = hit
            return hit
        parity = self._decode_fired(key)
        self.decoded_syndromes += 1
        if self._syndrome_memo_limit > 0:
            if len(memo) >= self._syndrome_memo_limit:
                memo.pop(next(iter(memo)))
                self.memo_evictions += 1
            memo[key] = parity
        return parity

    def decode_fired_batch(
        self,
        fired_lists: Sequence[Sequence[int]],
        *,
        assume_canonical: bool = False,
    ) -> List[FrozenSet[int]]:
        """Decode a batch of sparse syndromes, deduplicating within the batch.

        Each *distinct* non-empty syndrome is decoded at most once (and not
        at all when the cross-batch memo already knows it); the returned list
        scatters the predictions back into shot order.  Empty rows — the
        overwhelming majority at low physical error rates — skip
        canonicalisation entirely, and ``assume_canonical=True`` lets
        producers that already emit sorted int tuples (the packed extractor,
        :meth:`~repro.stabilizer.packed.PackedDetectorSamples.fired_detectors`)
        skip the per-shot sorted-tuple rebuild as well.
        """
        self.shots_decoded += len(fired_lists)
        empty: FrozenSet[int] = frozenset()
        distinct: dict = {}
        keys: List[Syndrome] = []
        for fired in fired_lists:
            if not len(fired):
                keys.append(())
                continue
            if assume_canonical and type(fired) is tuple:
                key: Syndrome = fired
            else:
                key = tuple(sorted(int(i) for i in fired))
            keys.append(key)
            if key not in distinct:
                distinct[key] = None
        for key in distinct:
            distinct[key] = self._decode_canonical(key)
        return [distinct[key] if key else empty for key in keys]
