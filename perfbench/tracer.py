"""Benchmark-side tracing: spans around the public calls into each layer.

Nothing here changes the program.  :func:`install` wraps functions and
methods of the ``repro`` package *where their callers look them up* (class
attributes, and every ``repro.*`` module that bound a function at import
time, e.g. ``repro.engine.executor.build_detector_error_model``), records a
span per call, and returns a callable that restores the originals.

A span is ``[name, start, end, parent, item]``: ``parent`` is the index of
the span that caused it (the innermost open span on the same thread, or the
client HTTP request in flight for spans opened on a server handler thread),
``item`` the work item the benchmark was running.  Spans stay in memory and
are written out at exit by the runner.

Untraced runs never call :func:`install`, so they carry no wrapper at all.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.enabled = False
        self.item: Optional[str] = None
        #: Span id of the client HTTP request in flight; server handler
        #: threads parent their spans to it (the request caused them).
        self.remote_parent: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Optional[int]:
        if not self.enabled:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else self.remote_parent
        record = [name, perf_counter(), None, parent, self.item]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(record)
        stack.append(sid)
        return sid

    def close(self, sid: Optional[int]) -> None:
        if sid is None:
            return
        self.spans[sid][2] = perf_counter()
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[name] += value

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span ``name``; ``after(args, result)`` may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, list]:
        """``name -> [self seconds, calls]`` over every closed span.

        Self time is a span's duration minus the durations of the spans
        it caused (its children never outlive it: callers block on them).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out: Dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            if end is None:
                continue
            entry = out[name]
            entry[0] += (end - start) - inner
            entry[1] += 1
        return dict(out)


def _patch_attr(owner, attr: str, replacement, undo: list) -> None:
    undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                 else getattr(owner, attr)))
    setattr(owner, attr, replacement)


def _patch_method(tracer: Tracer, cls, attr: str, name: str, undo: list,
                  after=None) -> None:
    _patch_attr(cls, attr, tracer.wrap(name, cls.__dict__[attr], after), undo)


def _patch_function(tracer: Tracer, fn, name: str, undo: list) -> None:
    """Rebind ``fn`` in every loaded ``repro`` module that holds it."""
    wrapped = tracer.wrap(name, fn)
    for mod_name, module in sorted(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                _patch_attr(module, attr, wrapped, undo)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layer boundaries the per-layer metrics are made of.

    Must run after every ``repro`` module the workload uses is imported,
    so module-level bindings are found.  Returns the uninstaller.
    """
    from repro.chiplet import boundary as chiplet_boundary
    from repro.chiplet.architecture import Chiplet
    from repro.core import adaptation, metrics
    from repro.decoder.base import BatchDecoderBase
    from repro.decoder.matching import MatchingGraph, MwpmDecoder
    from repro.engine import executor
    from repro.engine.cache import ResultCache
    from repro.engine.pipeline import DecodingPipeline
    from repro.engine.tasks import LerPointTask
    from repro.noise.fabrication import DefectModel
    from repro.service.cli import ServiceClient
    from repro.service.runner import ServiceWorker
    from repro.service.scheduler import JobScheduler
    from repro.service.store import JobStore
    from repro.stabilizer import dem as stab_dem
    from repro.stabilizer import packed

    undo: list = []
    t = tracer

    # -- decoder --------------------------------------------------------
    _patch_method(t, MwpmDecoder, "_decode_fired", "decoder.match", undo)

    def batch_counts(args, result):
        decoder, fired = args[0], args[1]
        t.count("decoder.batch_shots", len(fired))
        t.count("decoder.empty_shots", sum(1 for f in fired if not len(f)))

    orig_batch = BatchDecoderBase.__dict__["decode_fired_batch"]

    @functools.wraps(orig_batch)
    def decode_fired_batch(self, fired_lists, **kwargs):
        hits, decoded = self.memo_hits, self.decoded_syndromes
        out = orig_batch(self, fired_lists, **kwargs)
        t.count("decoder.memo_hits", self.memo_hits - hits)
        t.count("decoder.memo_misses", self.decoded_syndromes - decoded)
        return out

    _patch_attr(BatchDecoderBase, "decode_fired_batch",
                t.wrap("decoder.dedup", decode_fired_batch, batch_counts), undo)
    _patch_method(t, MatchingGraph, "__init__", "decoder.graph_build", undo)
    _patch_method(t, MwpmDecoder, "__init__", "decoder.graph_build", undo)

    # -- stabilizer -----------------------------------------------------
    _patch_method(t, packed.PackedFrameSimulator, "sample", "stabilizer.sample", undo)
    _patch_method(t, packed.FusedProgram, "run", "stabilizer.sample", undo)
    _patch_method(t, packed.PackedDetectorSamples, "fired_detectors",
                  "stabilizer.extract", undo)
    _patch_method(t, packed.PackedDetectorSamples, "flipped_observables",
                  "stabilizer.extract", undo)
    _patch_function(t, packed._compile_program, "stabilizer.compile", undo)
    _patch_function(t, packed._compile_bitgen_aux, "stabilizer.compile", undo)
    _patch_function(t, stab_dem.build_detector_error_model,
                    "stabilizer.dem_build", undo)
    _patch_method(t, LerPointTask, "build_circuit", "stabilizer.circuit_build", undo)

    # -- engine ---------------------------------------------------------
    _patch_method(t, DecodingPipeline, "decode_samples", "engine.tally", undo)
    _patch_method(t, DecodingPipeline, "persist_memo", "engine.memo_persist", undo)
    _patch_method(t, DecodingPipeline, "__init__", "engine.context_build", undo)

    def sweep_counts(args, result):
        fusion = args[0].last_fusion
        t.count("engine.dispatch_groups", fusion.dispatches)
        t.count("engine.fused_shots", fusion.fused_shots)
        t.count("engine.total_shots", fusion.total_shots)

    _patch_method(t, executor.Engine, "run_sweep", "engine.sweep", undo,
                  after=sweep_counts)
    _patch_method(t, executor.Engine, "run_yield", "engine.yield", undo)
    _patch_function(t, executor._run_ler_shard, "engine.shard", undo)
    _patch_function(t, executor._run_fused_shards, "engine.shard", undo)
    _patch_function(t, executor._context_for, "engine.context", undo)

    def cache_get_counts(args, result):
        t.count("engine.cache_gets")
        t.count("engine.cache_hits", result is not None)

    def cache_put_counts(args, result):
        cache, key = args[0], args[1]
        t.count("engine.cache_bytes_written", cache.path_for(key).stat().st_size)

    _patch_method(t, ResultCache, "get", "engine.cache_get", undo,
                  after=cache_get_counts)
    _patch_method(t, ResultCache, "put", "engine.cache_put", undo,
                  after=cache_put_counts)

    # -- core / noise / chiplet -----------------------------------------
    _patch_function(t, adaptation.adapt_patch, "core.adapt", undo)
    _patch_function(t, metrics.evaluate_patch, "core.metrics", undo)
    _patch_method(t, DefectModel, "sample", "noise.defect_sample", undo)
    _patch_method(t, Chiplet, "best_orientation", "chiplet.rotation", undo)
    _patch_method(t, chiplet_boundary.BoundaryStandard, "accepts",
                  "chiplet.boundary", undo)

    # -- service --------------------------------------------------------
    orig_request = ServiceClient.__dict__["request"]

    @functools.wraps(orig_request)
    def request(self, *args, **kwargs):
        sid = t.open("service.http")
        previous, t.remote_parent = t.remote_parent, sid
        try:
            return orig_request(self, *args, **kwargs)
        finally:
            t.remote_parent = previous
            t.close(sid)

    _patch_attr(ServiceClient, "request", request, undo)
    def submit_counts(args, result):
        t.count("service.coalesced_jobs", result.coalesced_into is not None)

    _patch_method(t, JobStore, "submit", "service.store", undo,
                  after=submit_counts)
    for attr in ("runnable_jobs", "record_progress",
                 "finish", "fail", "get", "events", "cancel", "list_jobs",
                 "counts"):
        _patch_method(t, JobStore, attr, "service.store", undo)

    def claim_counts(args, result):
        if result is not None:
            t.count("service.queue_wait_s", result.started_at - result.submitted_at)

    _patch_method(t, JobStore, "try_claim", "service.store", undo,
                  after=claim_counts)
    _patch_method(t, JobScheduler, "rank", "service.rank", undo)
    _patch_method(t, ServiceWorker, "_execute", "service.worker", undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
