"""Bit-packing helpers for the packed Pauli-frame simulator.

A *bit row* stores one boolean per Monte-Carlo shot, packed 64 shots to a
``uint64`` word in little-endian bit order: shot ``s`` lives in bit
``s % 64`` of word ``s // 64``.  Packing shrinks the frame and the
measurement-flip record by 8x in memory (boolean arrays are byte-per-bit in
numpy) and lets every XOR-style frame update touch 64 shots per word, which
is what makes the packed simulator's gate layer cheap on the
memory-bandwidth-bound benchmark host.

All helpers operate on the **last** axis so they work for single rows
(shape ``(num_words,)``) and row matrices (shape ``(rows, num_words)``)
alike.  :func:`pack_rows` is the multi-row hot path of the vectorised
sampler: one call packs a whole ``(targets, shots)`` flip-mask matrix —
e.g. every noise row of a fused channel — into ``(targets, num_words)``
words, instead of one :func:`pack_bits` call per target.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD_BITS",
    "num_words",
    "pack_bits",
    "pack_rows",
    "unpack_bits",
    "popcount",
    "popcount_rows",
]

WORD_BITS = 64


def num_words(num_bits: int) -> int:
    """Words needed to hold ``num_bits`` bits."""
    return (int(num_bits) + WORD_BITS - 1) // WORD_BITS


def _pack_last_axis(bits: np.ndarray) -> np.ndarray:
    """Pack booleans along the last axis into full little-endian words.

    The result spans ``num_words(n)`` words; padding bits beyond the input
    length are zero.  The word padding writes into a freshly allocated byte
    buffer (no concatenate copy) so the multi-row case costs one pass.
    """
    n = bits.shape[-1]
    nbytes = num_words(n) * (WORD_BITS // 8)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    if packed.shape[-1] != nbytes:
        padded = np.zeros(bits.shape[:-1] + (nbytes,), dtype=np.uint8)
        padded[..., : packed.shape[-1]] = packed
        packed = padded
    return np.ascontiguousarray(packed).view(np.uint64)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack booleans along the last axis into little-endian ``uint64`` words.

    The result always spans ``num_words(n)`` full words; padding bits beyond
    the input length are zero.
    """
    return _pack_last_axis(np.asarray(bits, dtype=bool))


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, n)`` boolean matrix into ``(rows, num_words(n))`` words.

    The whole-matrix twin of :func:`pack_bits` used by the vectorised
    sampler: every row is one target's flip mask, and one call packs the
    full instruction (or fused instruction run) at once.
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 2:
        raise ValueError(f"pack_rows expects a 2-D (rows, bits) matrix, got shape {bits.shape}")
    return _pack_last_axis(bits)


def unpack_bits(words: np.ndarray, count: int) -> np.ndarray:
    """Unpack ``uint64`` words back to the first ``count`` booleans per row."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    as_bytes = words.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, count=int(count), bitorder="little")
    return bits.astype(bool)


# numpy >= 2.0 exposes a native SIMD popcount ufunc; older numpy falls back
# to unpacking bytes to bits and summing (8x the memory traffic).  Both
# paths count the same bits, so this is invisible in every result — the
# tests assert bit-identical counts across the two implementations.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _popcount_unpack(words: np.ndarray) -> int:
    """Fallback popcount via ``np.unpackbits`` (pre-2.0 numpy)."""
    return int(np.unpackbits(words.view(np.uint8), bitorder="little").sum())


def popcount(words: np.ndarray) -> int:
    """Total number of set bits (padding bits are zero by construction)."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        # Sum in uint64: per-word counts are <= 64, and a frame would need
        # 2**58 words before the total could wrap.
        return int(np.bitwise_count(words).sum(dtype=np.uint64))
    return _popcount_unpack(words)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Set bits of each row of a ``(rows, num_words)`` word matrix."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    return np.unpackbits(words.view(np.uint8), axis=-1).sum(axis=-1, dtype=np.int64)
