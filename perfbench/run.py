"""Repository benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload ler_decode --seed 0 --seconds 20 --trace 0

Run from the root of a checkout (``src/repro`` must exist there).  Each run
starts ``children`` fresh worker processes (``child.py``) one after another,
every one on the serial in-process backend with a cleaned environment, and
reports medians across them: the host's speed varies from process to
process by tens of percent, so no single process is a steady measurement.
Times are in reference seconds, wall time scaled by the host's speed as a
calibration kernel timed between units of work measures it (``HostClock``
in ``child.py``).

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
(spans recorded around the calls into each layer) for ``--trace 1``.  A
record of the run (host fingerprint, environment, plan, per-process
figures) is written to ``.perfbench_out/`` in the checkout.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pinned.json"

WORKLOADS = ("ler_decode", "defect_jobs", "yield_grid")
DEFAULT_SEED = 0
#: Work per run is sized so that ``--seconds 20`` measures about 20 s of
#: work on a 2-CPU host; other values scale the work proportionally.
NOMINAL_SECONDS = 20
CHILD_TIMEOUT_S = 150

#: Environment every worker process gets; inherited REPRO_* are dropped.
BENCH_ENV = {
    "REPRO_BACKEND": "serial",
    "REPRO_WORKERS": "1",
    "REPRO_DECODE_FANOUT": "0",
    "REPRO_MEMO_PERSIST": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

#: Per-layer self-time metrics: metric stem -> span names summed into it.
SELF_TIMES = {
    "decoder.match": ("decoder.match",),
    "decoder.dedup": ("decoder.dedup",),
    "decoder.graph_build": ("decoder.graph_build",),
    "stabilizer.sample": ("stabilizer.sample",),
    "stabilizer.extract": ("stabilizer.extract",),
    "stabilizer.circuit_build": ("stabilizer.circuit_build",),
    "stabilizer.dem_build": ("stabilizer.dem_build",),
    "stabilizer.compile": ("stabilizer.compile",),
    "engine.tally": ("engine.tally",),
    "engine.context": ("engine.context", "engine.context_build"),
    "engine.shard_self": ("engine.shard",),
    "engine.sweep_self": ("engine.sweep",),
    "engine.yield_self": ("engine.yield",),
    "engine.cache_get": ("engine.cache_get",),
    "engine.cache_put": ("engine.cache_put",),
    "engine.memo_persist": ("engine.memo_persist",),
    "service.http": ("service.http",),
    "service.store": ("service.store",),
    "service.rank": ("service.rank",),
    "service.worker_self": ("service.worker",),
    "core.adapt": ("core.adapt",),
    "core.metrics": ("core.metrics",),
    "noise.defect_sample": ("noise.defect_sample",),
    "chiplet.rotation": ("chiplet.rotation",),
    "chiplet.boundary": ("chiplet.boundary",),
}

PER_LAYER_OTHER = {  # name -> unit
    "decoder.syndromes_decoded": "count",
    "decoder.memo_hit_ratio": "ratio",
    "decoder.empty_shot_share": "ratio",
    "decoder.memo_size": "count",
    "engine.context_builds": "count",
    "engine.cache_hit_ratio": "ratio",
    "engine.cache_bytes_written": "bytes",
    "engine.dispatch_groups": "count",
    "engine.fused_shot_fraction": "ratio",
    "engine.task_memo_entries": "count",
    "service.queue_wait_ms": "ms",
    "service.coalesced_jobs": "count",
    "chiplet.accept_ratio": "ratio",
    "host.calib_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.coverage": "ratio",
    "trace.spans": "count",
    "trace.overhead_ms": "ms",
}


def per_layer_units() -> Dict[str, str]:
    units = {}
    for stem in SELF_TIMES:
        units[f"{stem}_ms"] = "ms"
        units[f"{stem}_calls"] = "count"
    units.update(PER_LAYER_OTHER)
    return units


# ----------------------------------------------------------------------
# Workload plans (the size of the work; inputs come from the seed)
# ----------------------------------------------------------------------
def make_plan(workload: str, seconds: int, size: str) -> dict:
    f = seconds / NOMINAL_SECONDS

    def scaled(n: int, step: int = 1, least: int = 1) -> int:
        return max(least, int(round(n * f / step)) * step)

    toy = size == "toy"
    if workload == "ler_decode":
        return {
            "children": 2 if toy else 4,
            "distances": [3, 5] if toy else [5, 7],
            "shots": [1024, 512] if toy else [scaled(3072, 256, 256),
                                              scaled(832, 64, 256)],
            "error_rates": [1e-3, 2e-3],
            "defect_rate": 0.01,
            # Adapted patches per distance, each at one error rate in turn
            # (an even count, so both rates get as many); many, so one
            # costly defect set moves a process's figures less.
            "adapted_patches": 2 if toy else 6,
            "shard_size": 16384,
            "warm_divisor": 6,
            "reference_shots": 1024 if toy else 2048,
            "reference_syndromes": 3 if toy else 6,
        }
    if workload == "defect_jobs":
        return {
            "children": 2 if toy else 4,
            "jobs": 4 if toy else scaled(34),
            "sizes": [4, 5],
            "error_rates": [1e-3, 2e-3],
            "defect_rate": 0.01,
            # Seven evenly spaced shot counts: with 2 sizes x 2 rates that
            # makes 28 combinations, exactly the fresh jobs of a nominal
            # process, so every process gets the same mix and the job
            # costs have no gaps for a percentile to fall into.
            "shots": [256, 512] if toy else [2048 + 320 * k for k in range(7)],
            "shard_size": 4096,
            "repeat_every": 5,
            "reruns": 1 if toy else 2,
        }
    if workload == "yield_grid":
        return {
            "children": 2 if toy else 4,
            "sizes": [5, 7] if toy else [7, 9, 11, 13],
            "rates": [0.001, 0.01] if toy else [0.001, 0.005, 0.01],
            "special_cell": [7, 0.005] if toy else [9, 0.005],
            "distance_slack": 2,
            "samples": 4 if toy else scaled(26),
            "passes": 1 if toy else 2,
        }
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Running the worker processes
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(BENCH_ENV)
    return env


def run_children(workload: str, seed: int, seconds: int, trace: bool,
                 size: str = "full") -> dict:
    """Run every worker process of one benchmark run; return their outputs."""
    plan = make_plan(workload, seconds, size)
    OUT.mkdir(exist_ok=True)
    outputs = []
    for index in range(plan["children"]):
        workdir = OUT / f"work-{os.getpid()}-{index}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        cfg = {"workload": workload, "seed": seed, "index": index,
               "plan": plan, "trace": bool(trace), "src": str(SRC),
               "workdir": str(workdir),
               "spans_path": str(OUT / f"spans-{workload}-{size}-seed{seed}-c{index}.json")
               if trace else None}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
                cwd=str(ROOT), env=child_env(), capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"worker process {index} of {workload} failed "
                               f"(exit {proc.returncode}):\n{proc.stderr[-4000:]}")
        outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "size": size, "trace": bool(trace), "plan": plan,
            "children": outputs}


# ----------------------------------------------------------------------
# Checking and metrics
# ----------------------------------------------------------------------
def pin_key(run: dict) -> str:
    return f"{run['workload']}/{run['size']}/{run['seconds']}/{run['seed']}"


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def check_items(run: dict, pins: Optional[dict] = None) -> List[dict]:
    """Every item of the run with its verdict, pinned outputs applied.

    Items carry the worker-side checks (invariants, reference decoder,
    repeated and direct re-runs).  For a seed with pinned outputs every
    item's output must also equal its pin, and every pinned item must be
    present.  One more item per process checks that its times could be
    scaled to the reference host (see ``HostClock`` in ``child.py``).
    """
    pins = load_pins() if pins is None else pins
    items = [dict(it) for child in run["children"] for it in child["items"]]
    clock_items = [clock_item(k, child) for k, child in enumerate(run["children"])]
    pinned = pins.get(pin_key(run))
    if pinned is None:
        return items + clock_items
    for it in items:
        want = pinned.get(it["id"])
        if want is None:
            it["ok"], it["why"] = False, "item has no pinned output"
        elif want != it["output"]:
            it["ok"], it["why"] = False, "output differs from the pinned output"
    seen = {it["id"] for it in items}
    for missing in sorted(set(pinned) - seen):
        items.append({"id": missing, "output": None, "ok": False,
                      "why": "pinned item missing from the run"})
    return items + clock_items


#: Largest process CPU time over wall time while the calibration kernel
#: runs; above it another thread of the program was busy meanwhile, which
#: would slow the kernel and hide part of the program's own time.
MAX_CALIBRATION_CPU_SHARE = 1.25


def clock_item(index: int, child: dict) -> dict:
    shares = [child["clock"]["cpu_share"], child["setup_clock"]["cpu_share"]]
    ok = max(shares) <= MAX_CALIBRATION_CPU_SHARE
    return {"id": f"c{index}/clock", "output": {"cpu_share": shares}, "ok": ok,
            "why": "" if ok else "the process ran other work during calibration"}


def end_to_end(run: dict, items: List[dict]) -> Dict[str, float]:
    children = run["children"]
    latencies = [v for c in children for v in c["latencies_ms"]]
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "throughput_per_s": statistics.median(c["work"] / c["wall_s"]
                                              for c in children),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(latencies, n=10,
                                               method="inclusive")[-1],
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        "ok_share": sum(it["ok"] for it in items) / len(items),
    }


def per_layer(run: dict) -> Dict[str, float]:
    children = run["children"]
    self_ms: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    counts: Dict[str, float] = defaultdict(float)
    for child in children:
        layers = child["layers"]
        for name, (ms, calls) in layers["self"].items():
            self_ms[name][0] += ms
            self_ms[name][1] += calls
        for name, value in layers["counts"].items():
            counts[name] += value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for stem, spans in SELF_TIMES.items():
        out[f"{stem}_ms"] = sum(self_ms[s][0] for s in spans)
        out[f"{stem}_calls"] = sum(self_ms[s][1] for s in spans)
    hits, misses = counts["decoder.memo_hits"], counts["decoder.memo_misses"]
    root_ms = sum(c["layers"]["root_ms"] for c in children)
    root_self = self_ms["bench.unit"][0]
    samples = sum(c["work"] for c in children) if run["workload"] == "yield_grid" else 0
    out.update({
        "decoder.syndromes_decoded": self_ms["decoder.match"][1],
        "decoder.memo_hit_ratio": ratio(hits, hits + misses),
        "decoder.empty_shot_share": ratio(counts["decoder.empty_shots"],
                                          counts["decoder.batch_shots"]),
        "decoder.memo_size": max(c["layers"]["decoder_memo_size"] for c in children),
        "engine.context_builds": self_ms["engine.context_build"][1],
        "engine.cache_hit_ratio": ratio(counts["engine.cache_hits"],
                                        counts["engine.cache_gets"]),
        "engine.cache_bytes_written": counts["engine.cache_bytes_written"],
        "engine.dispatch_groups": counts["engine.dispatch_groups"],
        "engine.fused_shot_fraction": ratio(counts["engine.fused_shots"],
                                            counts["engine.total_shots"]),
        "engine.task_memo_entries": max(c["layers"]["task_memo_entries"]
                                        for c in children),
        "service.queue_wait_ms": counts["service.queue_wait_s"] * 1e3,
        "service.coalesced_jobs": counts["service.coalesced_jobs"],
        "chiplet.accept_ratio": ratio(sum(c.get("accepted", 0) for c in children),
                                      samples),
        "host.calib_ms": statistics.median(c["calib_ms"] for c in children),
        "trace.wall_ms": root_ms,
        "trace.coverage": ratio(root_ms - root_self, root_ms),
        "trace.spans": sum(c["layers"]["spans"] for c in children),
        "trace.overhead_ms": sum(c["layers"]["spans"] * c["layers"]["span_cost_ms"]
                                 for c in children),
    })
    return out


def evaluate(run: dict, pins: Optional[dict] = None) -> dict:
    """The result line for one run: verdict, counts and metrics."""
    items = check_items(run, pins)
    failed = sum(not it["ok"] for it in items)
    if run["trace"]:
        values, units = per_layer(run), per_layer_units()
    else:
        values, units = end_to_end(run, items), END_TO_END
    return {"correct": failed == 0, "attempted": len(items), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------
def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_record(run: dict) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "calib_ms": [c["calib_ms"] for c in run["children"]],
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: a few seconds of work, for the self-test")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's outputs as the pinned outputs"
                             " of its seed (refused unless every check passed)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from the root"
              " of a checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    run = run_children(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.size)
    if args.write_pins:
        if not all(it["ok"] for it in check_items(run, pins={})):
            print("error: refusing to pin outputs of a run that failed its"
                  " checks", file=sys.stderr)
            return 1
        pins = load_pins()
        pins[pin_key(run)] = {it["id"]: it["output"]
                              for child in run["children"]
                              for it in child["items"]}
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    result = evaluate(run)
    host = host_record(run)
    record = {"host": host, "env": BENCH_ENV, "run": run, "result": result}
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    for it in check_items(run):
        if not it["ok"]:
            print(f"check failed: {it['id']}: {it['why']}")
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
