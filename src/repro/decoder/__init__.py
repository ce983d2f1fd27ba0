"""Decoder substrate: matching graphs and the MWPM decoder.

In-repo replacement for PyMatching (see the README's opening paragraph).
:class:`MwpmDecoder` builds on the deduplicating batch machinery in
:mod:`repro.decoder.base` and the geodesic/path-parity caches that live on
:class:`MatchingGraph`.
"""

from .base import BatchDecoderBase, DecodeResult, syndrome_cache_limit
from .matching import MatchingGraph, MwpmDecoder

__all__ = [
    "BatchDecoderBase",
    "DecodeResult",
    "MatchingGraph",
    "MwpmDecoder",
    "syndrome_cache_limit",
]
