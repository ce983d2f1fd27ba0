"""Decoder throughput benchmark: batched pipeline vs per-shot baseline.

Measures decode throughput (shots per second) for defect-free d=3 and d=5
memory circuits at p = 1e-3 for the MWPM decoder, comparing

* the **batched pipeline path** — sparse syndrome extraction plus the
  deduplicating ``decode_fired_batch`` (what every engine shard runs), and
* the **per-shot baseline** — the historical algorithm that pays a fresh
  Dijkstra sweep and a fresh matching-graph build for every single shot
  (the frozen copy in :mod:`repro.decoder.reference`, shared with the
  bit-identity property tests, so the refactored decoder cannot
  accidentally accelerate its own baseline).

This file rides the non-blocking benchmark CI job, so the shots/sec
trajectory of future PRs is recorded in the BENCH artifacts.  The one hard
assertion is this PR's acceptance criterion: at d=5, p=1e-3, the batched
MWPM path must deliver >= 5x the per-shot baseline throughput (the margin
in practice is far larger — most shots dedup away).
"""

import time

from repro.core.adaptation import adapt_patch
from repro.decoder import MatchingGraph, MwpmDecoder
from repro.decoder.base import syndrome_cache_limit
from repro.decoder.reference import reference_mwpm_decode
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.noise.fabrication import DefectSet
from repro.stabilizer.dem import build_detector_error_model
from repro.stabilizer.packed import PackedFrameSimulator
from repro.surface_code.circuits import build_memory_circuit
from repro.surface_code.layout import RotatedSurfaceCodeLayout

from conftest import print_series, write_bench_json

_P = 1e-3
# Engine-realistic batch sizes (shards at low p run tens of thousands of
# shots); the per-shot baseline is timed on a subsample of the same
# detector data and reported as shots/sec, which is fair because its cost
# is linear in shots while the batched path amortises across the batch.
# The d=5 batch is sized so the >=5x ratio gate keeps a wide margin under
# host load: the dedup factor grows with batch size, so when this gate
# runs thin the fix is to raise _SHOTS[5], never to lower the gate (one
# transient sub-5x reading was observed at 32000 under load).
_SHOTS = {3: 8000, 5: 64000}
_BASELINE_SHOTS = 2000


# The frozen per-shot baseline lives in repro.decoder.reference so the
# bit-identity property tests and this perf baseline measure the exact same
# historical algorithm.
def _throughput(fn, shots):
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return shots / max(elapsed, 1e-9)


def _circuit_and_detectors(distance, seed):
    patch = adapt_patch(RotatedSurfaceCodeLayout(distance), DefectSet.of())
    circuit = build_memory_circuit(patch, CircuitNoiseModel.standard(_P), distance)
    shots = _SHOTS[distance]
    samples = PackedFrameSimulator(circuit, seed=seed).sample(shots)
    return circuit, samples, shots


def test_decoder_throughput(benchmark, benchmark_seed):
    rows = []
    series = []
    speedups = {}

    def run():
        for distance in (3, 5):
            circuit, samples, shots = _circuit_and_detectors(distance, benchmark_seed)
            dem = build_detector_error_model(circuit)
            dense = samples.detectors
            fired = samples.fired_detectors()

            decoder = MwpmDecoder(MatchingGraph(dem))
            batched = _throughput(
                lambda: decoder.decode_fired_batch(fired), shots)
            # Syndrome-memo health of the batched run: hits/evictions/
            # final size land in the BENCH artifact so
            # REPRO_SYNDROME_CACHE can be tuned from CI data (steady
            # evictions at a pinned memo size mean the working set of
            # distinct syndromes no longer fits).
            memo = {
                "distinct_syndromes": decoder.decoded_syndromes,
                "memo_hits": decoder.memo_hits,
                "memo_evictions": decoder.memo_evictions,
                "memo_size": decoder.memo_size,
            }

            base_shots = min(shots, _BASELINE_SHOTS)
            base_graph = MatchingGraph(dem)
            baseline = _throughput(
                lambda: [reference_mwpm_decode(base_graph, dense[s])
                         for s in range(base_shots)],
                base_shots)

            speedup = batched / baseline
            speedups[distance] = speedup
            rows.append((f"d={distance} mwpm",
                         f"batched {batched:9.0f} shots/s, "
                         f"per-shot {baseline:8.0f} shots/s, "
                         f"speedup {speedup:6.1f}x, "
                         f"memo {memo['memo_hits']} hits / "
                         f"{memo['memo_evictions']} evictions"))
            series.append({
                "label": f"d={distance} mwpm",
                "distance": distance,
                "decoder": "mwpm",
                "shots": shots,
                "batched_shots_per_sec": batched,
                "per_shot_shots_per_sec": baseline,
                "speedup": speedup,
                **memo,
            })
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(f"Decoder throughput (p={_P})", rows)
    write_bench_json("decoder_throughput", series, physical_error_rate=_P,
                     gates={"d3_mwpm": 5.0, "d5_mwpm": 5.0},
                     syndrome_cache_limit=syndrome_cache_limit())

    # Acceptance criterion of the batched-decoding PR: >= 5x at p=1e-3.
    assert speedups[3] >= 5.0, speedups
    assert speedups[5] >= 5.0, speedups
