"""One benchmark worker process: set up, generate inputs, time, check.

Run by ``run.py`` as ``python perfbench/child.py '<config json>'`` in a
fresh interpreter with a cleaned environment; prints one JSON object as its
last line.  Only the standard library and numpy (a dependency, needed by
the calibration kernel) are imported before the set-up clock starts, so
``setup_s`` covers the repro imports and the construction of engine, store,
server and worker.

Every time this process reports is in *reference seconds* (see
:class:`HostClock`): wall time scaled by the host's speed, measured with a
fixed calibration kernel interleaved with the work.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

perf_counter = time.perf_counter

WORKLOAD_IDS = {"ler_decode": 1, "defect_jobs": 2, "yield_grid": 3}
DEFECT_KIND = "link_and_qubit"


# ----------------------------------------------------------------------
# Helpers shared by the workloads
# ----------------------------------------------------------------------
#: The calibration kernel's time on the reference host.  A stretch of work
#: timed while the kernel took ``c`` seconds counts as
#: ``REFERENCE_SLICE_S / c`` times its wall time.
REFERENCE_SLICE_S = 0.006
#: Seconds of work between two calibrations (where the work allows one).
CALIBRATE_EVERY_S = 0.1
#: Kernel timings per calibration; the median is kept.
SLICES_PER_CALIBRATION = 3

_CAL_DATA = None


def calibration_slice_s() -> float:
    """One timing of a fixed numpy + pure-Python kernel (about 6 ms).

    The mix resembles the program's: a sort, many small-array numpy
    calls, and an interpreter loop over ints and a dict.
    """
    global _CAL_DATA
    import numpy as np

    if _CAL_DATA is None:
        _CAL_DATA = (np.random.default_rng(12345).random(20_000),
                     np.arange(512, dtype=np.uint64))
    data, words = _CAL_DATA
    t0 = perf_counter()
    np.sort(data)
    table = {}
    acc = 0
    for i in range(20_000):
        acc ^= int(words[i & 511]) if i % 8 == 0 else i * i % 7
        table[i & 1023] = acc
    for k in range(300):
        np.flatnonzero((words ^ np.uint64(k)) & np.uint64(1))
    return perf_counter() - t0


class HostClock:
    """Work time in reference seconds: wall time scaled by host speed.

    The host this benchmark runs on changes speed by tens of percent from
    minute to minute and from process to process, and every wall-clock
    figure moves with it.  The clock interleaves a fixed calibration kernel
    with the work it times -- at ``start``, at ``stop`` and at every
    ``tick`` once ``CALIBRATE_EVERY_S`` of work has passed; callers tick
    between units of work, never inside one -- and leaves the kernel's own
    time out.  Each stretch of work between two calibrations is scaled by
    ``REFERENCE_SLICE_S`` over the mean kernel time at its two ends.  A
    change to the program moves the work's time and not the kernel's, so
    it shows in full; a change of host speed moves both and cancels.

    The scaling holds only while nothing else in the process runs during a
    calibration: the clock records the process's CPU time over the kernel
    beside its wall time (``cpu_share``), and the run's checks require it
    to stay near 1.
    """

    def __init__(self) -> None:
        self.marks: list = []  # (work seconds at the calibration, kernel s)
        self.kernel_wall = 0.0
        self.kernel_cpu = 0.0
        self._t0 = 0.0
        self._excluded = 0.0

    def start(self) -> None:
        self._t0 = perf_counter()
        self._calibrate()

    def now(self) -> float:
        """Wall seconds of work since ``start``, calibrations left out."""
        return perf_counter() - self._t0 - self._excluded

    def tick(self) -> None:
        if self.now() - self.marks[-1][0] >= CALIBRATE_EVERY_S:
            self._calibrate()

    def stop(self) -> float:
        """End the timed region; its work time in reference seconds."""
        end = self.now()
        self._calibrate()
        return self.scaled(end)

    def _calibrate(self) -> None:
        at = self.now()
        t0, cpu0 = perf_counter(), time.process_time()
        slices = sorted(calibration_slice_s()
                        for _ in range(SLICES_PER_CALIBRATION))
        wall = perf_counter() - t0
        self.kernel_wall += wall
        self.kernel_cpu += time.process_time() - cpu0
        self._excluded += wall
        self.marks.append((at, slices[len(slices) // 2]))

    def scaled(self, t: float) -> float:
        """Reference seconds for the first ``t`` wall seconds of work."""
        total = 0.0
        for (a, ca), (b, cb) in zip(self.marks, self.marks[1:]):
            if t <= a:
                break
            total += (min(t, b) - a) * REFERENCE_SLICE_S / ((ca + cb) / 2)
        last, c = self.marks[-1]
        if t > last:
            total += (t - last) * REFERENCE_SLICE_S / c
        return total

    def span(self, t0: float, t1: float) -> float:
        return self.scaled(t1) - self.scaled(t0)

    def summary(self) -> dict:
        kernel = sorted(c for _, c in self.marks)
        return {"calibrations": len(self.marks),
                "kernel_ms": kernel[len(kernel) // 2] * 1e3,
                "cpu_share": self.kernel_cpu / self.kernel_wall,
                "raw_s": self.marks[-1][0]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_rng(cfg: dict):
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(
        [int(cfg["seed"]), int(cfg["index"]), WORKLOAD_IDS[cfg["workload"]]]))


def sample_adapted_patch(layout, rng, rate: float):
    """A usable adapted patch with at least one defect at ``rate``.

    Usable as the engine's patch sampler defines it (valid adaptation,
    code distance >= 2): a patch without a logical representative cannot
    be turned into a memory circuit, and no operation may fail.
    """
    from repro.core import adapt_patch, evaluate_patch
    from repro.noise.fabrication import DefectModel

    model = DefectModel(DEFECT_KIND, rate)
    while True:
        defects = model.sample(layout, rng)
        if defects.is_empty():
            continue
        patch = adapt_patch(layout, defects)
        if patch.valid and evaluate_patch(patch).distance >= 2:
            return patch


def item(item_id: str, output: dict, problems: list) -> dict:
    return {"id": item_id, "output": output, "ok": not problems,
            "why": "; ".join(problems)}


# ----------------------------------------------------------------------
# ler_decode: one Engine.run_sweep of d=5/d=7 memory experiments
# ----------------------------------------------------------------------
def setup_ler(cfg: dict):
    from repro.engine import Engine, EngineConfig

    return Engine(EngineConfig(backend="serial", max_workers=1,
                               shard_size=cfg["plan"]["shard_size"]))


def run_ler(cfg: dict, engine, tracer) -> dict:
    from repro.engine import LerPointTask
    from repro.engine.executor import SweepItem
    from repro.engine.scheduler import ShotPolicy
    from repro.core import adapt_patch
    from repro.noise import DefectSet
    from repro.surface_code import RotatedSurfaceCodeLayout

    plan = cfg["plan"]
    rng = child_rng(cfg)
    rates = plan["error_rates"]
    tasks, shots = [], []
    for d, n in zip(plan["distances"], plan["shots"]):
        # The defect-free patch at every error rate; each adapted patch at
        # one error rate, in turn, so a run averages over more defect sets
        # for the same work.
        layout = RotatedSurfaceCodeLayout(d)
        clean = adapt_patch(layout, DefectSet.of())
        points = [(clean, p) for p in rates] + [
            (sample_adapted_patch(layout, rng, plan["defect_rate"]),
             rates[i % len(rates)]) for i in range(plan["adapted_patches"])]
        for patch, p in points:
            tasks.append(LerPointTask.from_patch("memory", patch, p))
            shots.append(n)
    seeds = [int(s) for s in rng.integers(0, 2**31, size=2 * len(tasks))]
    warm = [SweepItem(t, ShotPolicy.fixed(max(64, n // plan["warm_divisor"])), s)
            for t, n, s in zip(tasks, shots, seeds[len(tasks):])]
    items = [SweepItem(t, ShotPolicy.fixed(n), s)
             for t, n, s in zip(tasks, shots, seeds)]
    engine.run_sweep(warm)

    # Two-point sweeps: point i of the smaller distance with point i + 1 of
    # the larger one, which has the other error rate, so a cheap-rate point
    # rides with a costly-rate one: the sweeps are alike in cost (their
    # latencies form no clusters for a percentile to fall between), and
    # both circuits fuse into one dispatch.  Splitting the points into
    # sweeps leaves every result unchanged (each point keeps its own seed)
    # and lets the clock calibrate between sweeps, about every half second:
    # calibrating only every second left twice the spread between
    # processes.
    assert len(plan["distances"]) == 2 and len(rates) == 2
    per_d = len(tasks) // 2
    sweeps = [[i, per_d + (i + 1) % per_d] for i in range(per_d)]
    spans = [(0.0, 0.0)] * len(items)
    results = [None] * len(items)
    clock = HostClock()
    tracer.enabled = cfg["trace"]
    clock.start()
    for s, members in enumerate(sweeps):
        tracer.item = f"c{cfg['index']}/sweep/{s}"
        sid = tracer.open("bench.unit")
        t0 = clock.now()

        def on_wave(update, members=members, t0=t0) -> None:
            spans[members[update.index]] = (t0, clock.now())

        out = engine.run_sweep([items[i] for i in members], on_wave=on_wave)
        tracer.close(sid)
        for i, res in zip(members, out):
            results[i] = res
        clock.tick()
    wall = clock.stop()
    tracer.enabled = False

    out_items = []
    for k, (res, n) in enumerate(zip(results, shots)):
        problems = []
        if res.shots != n:
            problems.append(f"shots {res.shots} != requested {n}")
        if not 0 <= res.failures <= res.shots // 5:
            problems.append(f"implausible failure count {res.failures}")
        if res.num_detectors <= 0 or res.num_dem_errors <= 0:
            problems.append("empty circuit")
        out_items.append(item(f"c{cfg['index']}/ler/{k}", {
            "failures": res.failures, "shots": res.shots,
            "num_detectors": res.num_detectors,
            "num_dem_errors": res.num_dem_errors}, problems))
    out_items += reference_checks(cfg, tasks, rng)
    return {"wall_s": wall, "work": sum(shots),
            "latencies_ms": [clock.span(a, b) * 1e3 for a, b in spans],
            "clock": clock.summary(), "items": out_items}


def reference_checks(cfg: dict, tasks, rng) -> list:
    """Decode sampled syndromes with the live MWPM decoder and the frozen
    per-shot reference; every distinct syndrome must agree."""
    import numpy as np

    from repro.decoder.matching import MatchingGraph, MwpmDecoder
    from repro.decoder.reference import reference_mwpm_decode
    from repro.stabilizer.dem import build_detector_error_model
    from repro.stabilizer.packed import PackedFrameSimulator

    plan = cfg["plan"]
    out = []
    # The last adapted patch of each distance, which runs at the highest
    # error rate: the most varied syndromes the sweep decodes.
    per_d = len(tasks) // len(plan["distances"])
    for block in range(len(plan["distances"])):
        task = tasks[block * per_d + per_d - 1]
        circuit = task.build_circuit()
        graph = MatchingGraph(build_detector_error_model(circuit))
        decoder = MwpmDecoder(graph)
        samples = PackedFrameSimulator(circuit, seed=int(rng.integers(2**31))) \
            .sample(plan["reference_shots"])
        syndromes = list(dict.fromkeys(s for s in samples.fired_detectors() if s))
        syndromes = syndromes[: plan["reference_syndromes"]]
        live = decoder.decode_fired_batch(syndromes, assume_canonical=True)
        for j, (syn, parity) in enumerate(zip(syndromes, live)):
            dense = np.zeros(graph.num_detectors, dtype=bool)
            dense[list(syn)] = True
            ref = frozenset(int(i) for i in np.flatnonzero(
                reference_mwpm_decode(graph, dense)))
            problems = [] if ref == parity else [
                f"MWPM parity {sorted(parity)} != reference {sorted(ref)}"]
            out.append(item(f"c{cfg['index']}/ref/d{task.size}/{j}",
                            {"weight": len(syn)}, problems))
    return out


# ----------------------------------------------------------------------
# defect_jobs: closed-loop HTTP jobs against an in-process service
# ----------------------------------------------------------------------
def setup_jobs(cfg: dict):
    import threading

    from repro.engine.pipeline import memo_preload
    from repro.service import JobStore, ServiceWorker
    from repro.service.api import serve
    from repro.service.cli import ServiceClient

    work = cfg["workdir"]
    store = JobStore(os.path.join(work, "jobs.db"))
    cache_dir = os.path.join(work, "cache")
    # As `python -m repro.service.worker --cache <dir>` starts a worker.
    memo_preload(cache_dir)
    worker = ServiceWorker(store, cache_dir=cache_dir)
    server = serve(store, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=120.0)
    return {"store": store, "worker": worker, "server": server,
            "thread": thread, "client": client}


def job_specs(cfg: dict, rng) -> list:
    """Job 0 (warm-up) and the timed jobs.

    Fresh jobs cycle through every (size, error rate, shots) combination in
    a seeded order, so each worker process gets the same mix and only the
    defects and seeds vary; every ``repeat_every``-th job repeats an
    earlier spec.
    """
    from repro.engine import LerPointTask
    from repro.surface_code import RotatedSurfaceCodeLayout

    plan = cfg["plan"]
    combos = [(size, p, shots) for size in plan["sizes"]
              for p in plan["error_rates"] for shots in plan["shots"]]
    pending: list = []

    def fresh_spec(size, p, shots) -> dict:
        patch = sample_adapted_patch(RotatedSurfaceCodeLayout(size), rng,
                                     plan["defect_rate"])
        task = LerPointTask.from_patch("memory", patch, p, rng_mode="bitgen")
        return {"kind": "ler", "task": task.payload(), "shots": int(shots),
                "seed": int(rng.integers(2**31)),
                "shard_size": plan["shard_size"]}

    specs = [fresh_spec(3, plan["error_rates"][0], plan["shots"][0])]
    fresh: list = []
    for j in range(1, plan["jobs"] + 1):
        if j % plan["repeat_every"] == 0:
            specs.append(fresh[int(rng.integers(len(fresh)))])
            continue
        if not pending:
            pending = [combos[i] for i in rng.permutation(len(combos))]
        fresh.append(fresh_spec(*pending.pop()))
        specs.append(fresh[-1])
    return specs


def run_jobs(cfg: dict, svc: dict, tracer) -> dict:
    try:
        return _run_jobs(cfg, svc, tracer)
    finally:
        svc["server"].shutdown()
        svc["server"].server_close()
        svc["thread"].join(timeout=30)


def _run_jobs(cfg: dict, svc: dict, tracer) -> dict:
    client, worker = svc["client"], svc["worker"]
    rng = child_rng(cfg)
    specs = job_specs(cfg, rng)
    # Job 0 (an L=3 patch nothing else uses) warms HTTP, SQLite and lazy
    # imports; it is not timed.
    client.submit(specs[0])
    worker.drain()

    spans, details = [], []
    clock = HostClock()
    tracer.enabled = cfg["trace"]
    clock.start()
    for j, spec in enumerate(specs[1:]):
        tracer.item = f"c{cfg['index']}/job/{j}"
        sid = tracer.open("bench.unit")
        t0 = clock.now()
        try:
            job = client.submit(spec)
            worker.drain()
            detail = client.status(job["id"])
        except SystemExit as exc:  # the client's way of reporting an HTTP error
            detail = {"state": "refused", "error": str(exc), "spec": None}
        spans.append((t0, clock.now()))
        tracer.close(sid)
        details.append(detail)
        clock.tick()
    clock.stop()
    tracer.enabled = False
    latencies = [clock.span(t0, t1) for t0, t1 in spans]

    out_items = []
    first_payload: dict = {}
    for j, (spec, detail) in enumerate(zip(specs[1:], details)):
        problems = []
        result = detail.get("result") or {}
        if detail.get("state") != "done":
            problems.append(f"job ended {detail.get('state')}: {detail.get('error')}")
        payload = (result.get("results") or [{}])[0]
        if payload.get("shots") != spec["shots"]:
            problems.append(f"shots {payload.get('shots')} != {spec['shots']}")
        key = json.dumps(spec, sort_keys=True)
        answer = {k: v for k, v in payload.items() if k != "from_cache"}
        if key in first_payload:
            if answer != first_payload[key]:
                problems.append("repeated job answered differently")
        else:
            first_payload[key] = answer
        out_items.append(item(f"c{cfg['index']}/job/{j}",
                              {"state": detail.get("state"), "result": result},
                              problems))
    out_items += direct_reruns(cfg, details)
    return {"wall_s": sum(latencies), "work": len(latencies),
            "latencies_ms": [t * 1e3 for t in latencies],
            "clock": clock.summary(), "items": out_items}


def direct_reruns(cfg: dict, details: list) -> list:
    """Re-run a few jobs through a direct ``Engine.run_sweep``."""
    from repro.engine import Engine, EngineConfig
    from repro.service.specs import sweep_items

    out = []
    seen = set()
    for j, detail in enumerate(details):
        if len(out) >= cfg["plan"]["reruns"]:
            break
        if detail.get("state") != "done":
            continue
        key = json.dumps(detail["spec"], sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        spec = detail["spec"]
        engine = Engine(EngineConfig(backend="serial",
                                     shard_size=spec["shard_size"]))
        direct = engine.run_sweep(sweep_items(spec))[0]
        served = detail["result"]["results"][0]
        problems = []
        if (direct.failures, direct.shots) != (served["failures"], served["shots"]):
            problems.append(f"direct run {direct.failures}/{direct.shots} != "
                            f"served {served['failures']}/{served['shots']}")
        out.append(item(f"c{cfg['index']}/rerun/{j}",
                        {"failures": direct.failures, "shots": direct.shots},
                        problems))
    return out


# ----------------------------------------------------------------------
# yield_grid: Engine.run_yield over sizes x defect rates
# ----------------------------------------------------------------------
def setup_yield(cfg: dict):
    from repro.engine import Engine, EngineConfig

    return Engine(EngineConfig(backend="serial", max_workers=1))


def yield_cells(plan: dict) -> list:
    from repro.chiplet.boundary import STANDARD_4
    from repro.engine.tasks import YieldTask

    def task(size, rate, **extra):
        return YieldTask(chiplet_size=size, defect_model_kind=DEFECT_KIND,
                         defect_rate=rate, samples=plan["samples"],
                         target_distance=size - plan["distance_slack"], **extra)

    cells = [task(size, rate) for size in plan["sizes"]
             for rate in plan["rates"]]
    size, rate = plan["special_cell"]
    cells.append(task(size, rate, allow_rotation=True))
    std = STANDARD_4.with_target(size - plan["distance_slack"])
    cells.append(task(size, rate, boundary=(
        std.name, std.require_no_deformation, std.all_edges,
        std.target_distance)))
    return cells


def run_yield(cfg: dict, engine, tracer) -> dict:
    import dataclasses

    plan = cfg["plan"]
    rng = child_rng(cfg)
    cells = yield_cells(plan)
    requests = [(cell, int(rng.integers(2**31)))
                for _ in range(plan["passes"]) for cell in cells]
    warm = dataclasses.replace(cells[0], samples=2)
    engine.run_yield(warm, seed=int(rng.integers(2**31)))

    clock = HostClock()
    tracer.enabled = cfg["trace"]
    spans, results = [], []
    clock.start()
    for k, (task, seed) in enumerate(requests):
        tracer.item = f"c{cfg['index']}/yield/{k}"
        sid = tracer.open("bench.unit")
        t0 = clock.now()
        results.append(engine.run_yield(task, seed=seed))
        spans.append((t0, clock.now()))
        tracer.close(sid)
        clock.tick()
    clock.stop()
    tracer.enabled = False
    latencies = [clock.span(t0, t1) for t0, t1 in spans]

    out_items = []
    samples = 0
    for k, ((task, _), res) in enumerate(zip(requests, results)):
        problems = []
        samples += res.samples
        if res.samples != task.samples:
            problems.append(f"samples {res.samples} != {task.samples}")
        if sum(res.distance_counts.values()) != res.samples:
            problems.append("distance counts do not sum to samples")
        if sum(res.accepted_distance_counts.values()) != res.accepted:
            problems.append("accepted counts do not sum to accepted")
        if any(c > res.distance_counts.get(d, 0)
               for d, c in res.accepted_distance_counts.items()):
            problems.append("more accepted than sampled at some distance")
        out_items.append(item(f"c{cfg['index']}/yield/{k}", {
            "accepted": res.accepted,
            "distance_counts": {str(d): c for d, c in sorted(res.distance_counts.items())},
            "accepted_distance_counts": {
                str(d): c for d, c in sorted(res.accepted_distance_counts.items())},
        }, problems))
    # Determinism: the first request again, on a fresh engine.
    from repro.engine import Engine, EngineConfig

    task, seed = requests[0]
    again = Engine(EngineConfig(backend="serial")).run_yield(task, seed=seed)
    first = results[0]
    problems = [] if (again.accepted, again.distance_counts) == (
        first.accepted, first.distance_counts) else ["re-run differs"]
    out_items.append(item(f"c{cfg['index']}/yield-rerun", {
        "accepted": again.accepted}, problems))
    return {"wall_s": sum(latencies), "work": samples,
            "latencies_ms": [t * 1e3 for t in latencies],
            "clock": clock.summary(), "items": out_items,
            "accepted": sum(r.accepted for r in results)}


# ----------------------------------------------------------------------
# Tracing summary
# ----------------------------------------------------------------------
def span_cost_s() -> float:
    """Wall cost of one traced call over an untraced one (no-op body)."""
    from tracer import Tracer

    probe = Tracer()
    probe.enabled = True

    def noop():
        return None

    traced = probe.wrap("probe", noop)
    n = 20_000
    t0 = perf_counter()
    for _ in range(n):
        noop()
    t1 = perf_counter()
    for _ in range(n):
        traced()
    t2 = perf_counter()
    return max(((t2 - t1) - (t1 - t0)) / n, 0.0)


def layer_summary(tracer) -> dict:
    """Self times, call counts and counters of this process's spans."""
    from repro.engine import executor

    self_times = tracer.self_times()
    root_total = sum(end - start for name, start, end, _, _ in tracer.spans
                     if name == "bench.unit" and end is not None)
    memo = getattr(executor, "_TASK_MEMO", {})
    memo_size = 0
    for ctx in list(memo.values()):
        decoder = getattr(ctx[0], "decoder", None)
        memo_size += getattr(decoder, "memo_size", 0)
    return {
        "self": {name: [sec * 1e3, calls] for name, (sec, calls) in self_times.items()},
        "counts": dict(tracer.counts),
        "root_ms": root_total * 1e3,
        "spans": len(tracer.spans),
        "span_cost_ms": span_cost_s() * 1e3,
        "decoder_memo_size": memo_size,
        "task_memo_entries": len(memo),
    }


# ----------------------------------------------------------------------
WORKLOADS = {
    "ler_decode": (setup_ler, run_ler),
    "defect_jobs": (setup_jobs, run_jobs),
    "yield_grid": (setup_yield, run_yield),
}


def main() -> None:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    workload = cfg["workload"]

    t0 = perf_counter()
    import numpy  # noqa: F401  (a dependency; the calibration kernel needs it)

    setup_clock = HostClock()
    setup_clock.start()
    import repro  # noqa: F401  (the program's own import, timed)

    setup, run = WORKLOADS[workload]
    state = setup(cfg)
    setup_s = setup_clock.stop()

    import tracer as tracing

    tracer = tracing.Tracer()
    uninstall = None
    if cfg["trace"]:
        # Import everything the wrappers patch before installing them.
        import repro.chiplet  # noqa: F401
        import repro.service  # noqa: F401
        import repro.service.cli  # noqa: F401
        uninstall = tracing.install(tracer)
    # Workloads switch tracing on for their timed region only.
    out = run(cfg, state, tracer)
    if uninstall is not None:
        uninstall()

    out.update({"setup_s": setup_s, "setup_clock": setup_clock.summary(),
                "peak_rss_mb": peak_rss_mb(),
                "calib_ms": out["clock"]["kernel_ms"],
                "elapsed_s": perf_counter() - t0})
    if cfg["trace"]:
        out["layers"] = layer_summary(tracer)
        if cfg.get("spans_path"):
            with open(cfg["spans_path"], "w") as fh:
                json.dump(tracer.spans, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
