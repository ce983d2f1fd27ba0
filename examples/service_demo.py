"""Estimation-as-a-service demo: submit over HTTP, stream waves, verify.

Runs the full service loop in one process — an in-thread JSON API, a
worker draining the queue — then proves the service contract: the numbers
that come back over HTTP are bit-identical to calling the engine directly.

    PYTHONPATH=src python examples/service_demo.py
"""

import tempfile
import threading
from pathlib import Path

from repro.core import adapt_patch
from repro.engine import Engine, EngineConfig, LerPointTask
from repro.noise import DefectSet
from repro.service import JobStore, ServiceWorker
from repro.service.api import serve
from repro.service.cli import ServiceClient
from repro.surface_code import RotatedSurfaceCodeLayout

SEED = 2024
SHOTS = 2_000
SHARD_SIZE = 512
ERROR_RATES = (0.004, 0.008, 0.012)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-service-demo-"))
    store = JobStore(workdir / "jobs.db")

    # 1. An API front end (ephemeral port) and a worker draining the queue.
    server = serve(store, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    worker = ServiceWorker(store, cache_dir=str(workdir / "cache"))
    print(f"API listening on {host}:{port}; worker {worker.worker_id}")

    # 2. Submit a three-point d=3 memory sweep over HTTP.
    patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    tasks = [LerPointTask.from_patch("memory", patch, p)
             for p in ERROR_RATES]
    job = client.submit({
        "kind": "sweep",
        "tasks": [t.payload() for t in tasks],
        "shots": SHOTS,
        "seed": SEED,
        "shard_size": SHARD_SIZE,
    })
    print(f"submitted job {job['id']} (state={job['state']})")

    # An identical submission coalesces instead of running twice.
    twin = client.submit({
        "kind": "sweep",
        "tasks": [t.payload() for t in tasks],
        "shots": SHOTS,
        "seed": SEED,
        "shard_size": SHARD_SIZE,
    })
    print(f"identical submission {twin['id']} coalesced into "
          f"{twin['coalesced_into']}")

    # 3. Drain in the background while we stream wave partials.
    drainer = threading.Thread(target=worker.drain)
    drainer.start()

    def show(event):
        if event["type"] == "wave":
            print(f"  wave: item={event['item']} "
                  f"failures={event['failures']}/{event['shots']} "
                  f"CI=[{event['ci_low']:.2e}, {event['ci_high']:.2e}]")

    final = client.watch(job["id"], emit=show)
    drainer.join()
    print(f"job finished: state={final['state']}")

    # 4. The follower finished with it, without a second execution.
    twin_final = client.status(twin["id"])
    assert twin_final["state"] == "done"
    assert twin_final["result"] == final["result"]

    # 5. Bit-identity against a direct in-process engine run.
    direct = Engine(EngineConfig(shard_size=SHARD_SIZE)).run_ler_many(
        tasks, shots=SHOTS, seed=SEED)
    print(f"{'p':>8} {'service':>16} {'direct':>16}")
    for p, got, ref in zip(ERROR_RATES, final["result"]["results"], direct):
        service_ler = f"{got['failures']}/{got['shots']}"
        direct_ler = f"{ref.failures}/{ref.shots}"
        print(f"{p:>8} {service_ler:>16} {direct_ler:>16}")
        assert (got["failures"], got["shots"]) == (ref.failures, ref.shots)
    print("service results are bit-identical to the direct engine run")

    server.shutdown()
    server.server_close()
    store.close()


if __name__ == "__main__":
    main()
