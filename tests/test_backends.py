"""Tests for the pluggable execution backends.

The load-bearing contract: **where a shard runs is invisible in the
numbers**.  A fixed-seed sweep must produce bit-identical merged results —
and byte-identical on-disk cache records — under the serial backend, the
process-pool backend at any width, and the socket backend against any
number of localhost workers, including every cache warm/cold permutation.
Plus the infrastructure semantics: broken process pools are evicted and
rebuilt (a worker OOM-kill must not poison every later run), remote job
errors keep connections alive, and dead fleets fail fast instead of
hanging.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import adapt_patch
from repro.engine import (
    Engine,
    EngineConfig,
    LerPointTask,
    ShotPolicy,
    SweepItem,
    YieldTask,
)
from repro.engine.backends import (
    BackendError,
    ProcessPoolBackend,
    SerialBackend,
    SocketBackend,
    create_backend,
)
from repro.engine.backends import process as process_backend
from repro.engine.executor import _run_ler_shard
from repro.noise import DefectSet, LINK_AND_QUBIT
from repro.surface_code import RotatedSurfaceCodeLayout

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Localhost worker fleet (two real `python -m repro.engine.worker` procs)
# ----------------------------------------------------------------------
def _launch_worker():
    env = dict(os.environ)
    # The worker must resolve pickled-by-reference functions: repro itself,
    # plus this test module (for the _identity/_raise_value_error helpers).
    extra = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
    if env.get("PYTHONPATH"):
        extra.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(extra)
    # The wire allowlist admits repro/numpy only; grant this test module
    # so the workers will unpickle the helpers above.
    env["REPRO_WIRE_ALLOW"] = "test_backends"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.engine.worker", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT)
    line = proc.stdout.readline().strip()
    parts = line.split()
    assert parts[:1] == ["REPRO_WORKER_LISTENING"], line
    return proc, (parts[1], int(parts[2]))


@pytest.fixture(scope="module")
def worker_hosts():
    """Two localhost repro.engine.worker processes, shared by the module."""
    procs, hosts = [], []
    try:
        for _ in range(2):
            proc, host = _launch_worker()
            procs.append(proc)
            hosts.append(host)
        yield tuple(hosts)
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=10)


def _engines(worker_hosts, **kwargs):
    """One engine per backend under test (socket uses both workers)."""
    return {
        "serial": Engine(EngineConfig(backend="serial", **kwargs)),
        "process-2": Engine(EngineConfig(max_workers=2, **kwargs)),
        "process-4": Engine(EngineConfig(max_workers=4, **kwargs)),
        "socket-2": Engine(EngineConfig(backend="socket",
                                        hosts=worker_hosts, **kwargs)),
    }


def d3_task(p: float = 0.01) -> LerPointTask:
    patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    return LerPointTask.from_patch("memory", patch, p)


def ler_tuple(r):
    return (r.failures, r.shots, r.num_shards, r.num_detectors,
            r.num_dem_errors)


def yield_tuple(r):
    return (r.samples, r.accepted, r.distance_counts,
            r.accepted_distance_counts)


def mixed_items():
    return [
        SweepItem(d3_task(0.005),
                  ShotPolicy.adaptive(2048, min_shots=128,
                                      target_failures=15), 1),
        SweepItem(d3_task(0.01), ShotPolicy.fixed(640), 2),
        SweepItem(d3_task(0.02), ShotPolicy.fixed(64), 3),
    ]


def yield_task(samples=60):
    return YieldTask(chiplet_size=7, defect_model_kind=LINK_AND_QUBIT,
                     defect_rate=0.01, samples=samples, target_distance=5)


# ----------------------------------------------------------------------
# Parity: every backend produces bit-identical numbers
# ----------------------------------------------------------------------
class TestBackendParity:
    def test_mixed_sweep_bit_identical_across_all_backends(self, worker_hosts):
        """LER sweep (adaptive + fixed cells) across serial / process 2 and 4
        / socket with two localhost workers: one set of numbers."""
        outcomes = {}
        for name, engine in _engines(worker_hosts, shard_size=128).items():
            outcomes[name] = [ler_tuple(r)
                              for r in engine.run_sweep(mixed_items())]
        assert len({tuple(v) for v in outcomes.values()}) == 1, outcomes

    def test_yield_task_bit_identical_across_all_backends(self, worker_hosts):
        outcomes = {}
        for name, engine in _engines(worker_hosts).items():
            outcomes[name] = yield_tuple(engine.run_yield(yield_task(),
                                                          seed=11))
        assert len({str(v) for v in outcomes.values()}) == 1, outcomes

    def test_mixed_ler_and_yield_sweep_through_one_socket_engine(
            self, worker_hosts):
        """The acceptance scenario: LER + yield work through SocketBackend
        in one engine matches the serial reference for both task kinds."""
        serial = Engine(EngineConfig(backend="serial", shard_size=128))
        sock = Engine(EngineConfig(backend="socket", hosts=worker_hosts,
                                   shard_size=128))
        ler_ref = [ler_tuple(r) for r in serial.run_sweep(mixed_items())]
        yield_ref = yield_tuple(serial.run_yield(yield_task(), seed=7))
        assert [ler_tuple(r) for r in sock.run_sweep(mixed_items())] == ler_ref
        assert yield_tuple(sock.run_yield(yield_task(), seed=7)) == yield_ref

    def test_patch_sampling_bit_identical_serial_vs_socket(self, worker_hosts):
        from repro.engine import PatchSampleTask

        task = PatchSampleTask(size=5, defect_model_kind=LINK_AND_QUBIT,
                               defect_rate=0.02, num_patches=4)
        serial = Engine(EngineConfig(backend="serial"))
        sock = Engine(EngineConfig(backend="socket", hosts=worker_hosts))
        ref = serial.sample_patches(task, seed=13)
        got = sock.sample_patches(task, seed=13)
        assert ([sorted(p.defects.faulty_qubits) for p in got]
                == [sorted(p.defects.faulty_qubits) for p in ref])


# ----------------------------------------------------------------------
# Parity: cache records are backend-invariant (warm/cold permutations)
# ----------------------------------------------------------------------
class TestBackendCacheParity:
    def test_cache_records_byte_identical_across_backends(self, worker_hosts,
                                                          tmp_path):
        """A cold run under each backend writes byte-for-byte the same
        record files: same keys (backend excluded from the key), same
        content (results backend-invariant)."""
        from dataclasses import replace

        blobs = {}
        for name, engine in _engines(worker_hosts, shard_size=128).items():
            cache_dir = tmp_path / name
            engine = Engine(replace(engine.config, cache_dir=str(cache_dir)))
            results = engine.run_sweep(mixed_items())
            assert not any(r.from_cache for r in results)
            engine.run_yield(yield_task(), seed=11)
            blobs[name] = {
                p.relative_to(cache_dir): p.read_bytes()
                for p in sorted(cache_dir.rglob("*.json"))
            }
        reference = blobs.pop("serial")
        assert reference  # the sweep + yield run really wrote records
        for name, blob in blobs.items():
            assert blob == reference, f"{name} cache diverged from serial"

    def test_cold_socket_run_warms_serial_run(self, worker_hosts, tmp_path):
        """Cross-backend warm hits: results computed by the socket fleet
        answer a later serial engine from cache, and vice versa."""
        sock = Engine(EngineConfig(backend="socket", hosts=worker_hosts,
                                   shard_size=128, cache_dir=str(tmp_path)))
        serial = Engine(EngineConfig(backend="serial", shard_size=128,
                                     cache_dir=str(tmp_path)))
        cold = sock.run_sweep(mixed_items())
        warm = serial.run_sweep(mixed_items())
        assert all(r.from_cache for r in warm)
        assert [ler_tuple(r) for r in cold] == [ler_tuple(r) for r in warm]

    def test_partially_warm_socket_sweep(self, worker_hosts, tmp_path):
        """Warm one item serially, then sweep everything over the fleet:
        hits resolve up front, only misses travel to the workers."""
        serial = Engine(EngineConfig(backend="serial", shard_size=128,
                                     cache_dir=str(tmp_path)))
        items = mixed_items()
        serial.run_sweep([items[1]])
        sock = Engine(EngineConfig(backend="socket", hosts=worker_hosts,
                                   shard_size=128, cache_dir=str(tmp_path)))
        results = sock.run_sweep(mixed_items())
        assert [r.from_cache for r in results] == [False, True, False]
        ref = Engine(EngineConfig(backend="serial",
                                  shard_size=128)).run_sweep(mixed_items())
        assert [ler_tuple(r) for r in results] == [ler_tuple(r) for r in ref]


# ----------------------------------------------------------------------
# ProcessPoolBackend: broken-pool eviction and rebuild
# ----------------------------------------------------------------------
def _kill_worker_process() -> None:
    """Simulate a worker OOM-kill: die without cleanup, breaking the pool."""
    os._exit(13)


def _identity(x):
    return x


class TestBrokenPoolRecovery:
    def test_broken_pool_is_evicted_and_next_run_succeeds(self):
        """Regression: a worker death used to poison the _POOLS registry —
        every later run reused the broken pool and failed forever."""
        engine = Engine(EngineConfig(max_workers=2))
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            engine.starmap(_kill_worker_process, [() for _ in range(4)])
        # The poisoned pool must be gone from the registry...
        assert 2 not in process_backend._POOLS
        # ...and the very next run (same engine!) gets a fresh pool.
        task = d3_task()
        out = engine.starmap(_run_ler_shard, [(task, 1, 64), (task, 2, 64)])
        assert len(out) == 2

    def test_submit_on_stale_broken_pool_rebuilds_transparently(self):
        """A pool broken *outside* any backend call (so note_failure never
        ran and the registry is stale) is replaced on the next submit
        instead of raising forever."""
        from concurrent.futures.process import BrokenProcessPool

        pool = process_backend._get_pool(2)
        fut = pool.submit(_kill_worker_process)
        with pytest.raises(BrokenProcessPool):
            fut.result(timeout=60)
        assert process_backend._POOLS[2] is pool  # stale corpse registered
        backend = ProcessPoolBackend(2)
        assert backend.submit(_identity, (42,)).result(timeout=60) == 42
        assert process_backend._POOLS[2] is not pool

    def test_sweep_failure_still_cancels_and_pool_survives(self):
        engine = Engine(EngineConfig(max_workers=2))
        task = d3_task()
        jobs = [(task, 1, 64), (task, 2, -1)] + [(task, i, 64)
                                                 for i in range(3, 20)]
        with pytest.raises(ValueError):
            engine.starmap(_run_ler_shard, jobs)
        out = engine.starmap(_run_ler_shard, [(task, 1, 64), (task, 2, 64)])
        assert len(out) == 2


# ----------------------------------------------------------------------
# SocketBackend failure semantics
# ----------------------------------------------------------------------
def _raise_value_error(message):
    raise ValueError(message)


class TestSocketBackendSemantics:
    def test_remote_job_error_propagates_and_connection_survives(
            self, worker_hosts):
        backend = SocketBackend(worker_hosts)
        try:
            with pytest.raises(ValueError, match="boom"):
                backend.map(_raise_value_error, [("boom",)])
            # The connection kept serving: a healthy job still runs.
            assert backend.map(_identity, [(7,), (8,)]) == [7, 8]
        finally:
            backend.shutdown()

    def test_dead_fleet_fails_fast_not_hangs(self):
        # A port from the dynamic range with nothing listening on it.
        backend = SocketBackend([("127.0.0.1", 1)],
                                connect_retries=2, retry_delay=0.05)
        with pytest.raises(BackendError):
            backend.map(_identity, [(1,)])

    def test_backend_heals_after_shutdown(self, worker_hosts):
        backend = SocketBackend(worker_hosts)
        try:
            assert backend.map(_identity, [(1,)]) == [1]
            backend.shutdown()
            # Reuse after shutdown reconnects lazily.
            assert backend.map(_identity, [(2,)]) == [2]
        finally:
            backend.shutdown()

    def test_incompatible_peer_fails_fast_without_retries(self):
        """A peer that speaks the wrong protocol is a deterministic
        mismatch: one handshake must settle it, not 40 reconnects."""
        import socket as socket_mod
        import threading
        import time

        server = socket_mod.socket()
        server.bind(("127.0.0.1", 0))
        server.listen()

        def http_impostor():
            while True:
                try:
                    conn, _ = server.accept()
                except OSError:
                    return
                conn.recv(64)
                conn.sendall(b"HTTP/1.1 400 Bad Request\r\n\r\n..bye..")
                conn.close()

        threading.Thread(target=http_impostor, daemon=True).start()
        backend = SocketBackend([server.getsockname()],
                                connect_retries=40, retry_delay=0.25)
        try:
            start = time.monotonic()
            with pytest.raises(BackendError, match="not a compatible"):
                backend.map(_identity, [(1,)])
            # 40 retries x 0.25s would be ~10s; fail-fast stays well under.
            assert time.monotonic() - start < 5.0
        finally:
            backend.shutdown()
            server.close()


# ----------------------------------------------------------------------
# Construction / configuration
# ----------------------------------------------------------------------
class TestBackendConstruction:
    def test_process_with_one_worker_resolves_to_serial(self):
        assert isinstance(create_backend("process", max_workers=1),
                          SerialBackend)
        assert isinstance(create_backend("process", max_workers=3),
                          ProcessPoolBackend)
        assert isinstance(create_backend("serial", max_workers=8),
                          SerialBackend)

    def test_socket_requires_hosts(self):
        with pytest.raises(ValueError):
            create_backend("socket")
        backend = create_backend("socket", hosts=[("h", 1), ("h", 2)])
        assert isinstance(backend, SocketBackend)
        assert backend.parallel_slots == 2
        assert backend.inline_single_shard is False

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            create_backend("mainframe")
        with pytest.raises(ValueError):
            EngineConfig(backend="mainframe")
        with pytest.raises(ValueError):
            EngineConfig(backend="socket")  # no hosts

    def test_engine_config_from_env_reads_backend_and_hosts(self):
        env = {"REPRO_BACKEND": "socket",
               "REPRO_HOSTS": "hostA:7931, hostB:7932"}
        config = EngineConfig.from_env(env)
        assert config.backend == "socket"
        assert config.hosts == (("hostA", 7931), ("hostB", 7932))
        assert Engine(config).parallel_slots == 2

    def test_engine_parallel_slots_follow_backend(self):
        assert Engine(EngineConfig()).parallel_slots == 1
        assert Engine(EngineConfig(max_workers=4)).parallel_slots == 4
        assert Engine(EngineConfig(backend="serial",
                                   max_workers=4)).parallel_slots == 1

    def test_submit_shards_streams_slot_result_pairs(self, worker_hosts):
        """The streaming primitive behind map(): every job's result comes
        back tagged with its slot, once each, on every backend."""
        jobs = [(n,) for n in (10, 11, 12, 13, 14)]
        for backend in (SerialBackend(), ProcessPoolBackend(2),
                        SocketBackend(worker_hosts)):
            pairs = list(backend.submit_shards(_identity, jobs))
            assert sorted(pairs) == [(0, 10), (1, 11), (2, 12), (3, 13),
                                     (4, 14)], type(backend).__name__
            if isinstance(backend, SocketBackend):
                backend.shutdown()

    def test_process_shutdown_leaves_shared_pool_alone(self):
        """Two engines share one registry pool per worker count: one
        backend's shutdown() must not cancel the other's in-flight work."""
        a, b = ProcessPoolBackend(2), ProcessPoolBackend(2)
        assert a.map(_identity, [(1,), (2,)]) == [1, 2]
        pool = process_backend._POOLS[2]
        a.shutdown()
        assert process_backend._POOLS.get(2) is pool  # still registered
        assert b.map(_identity, [(3,), (4,)]) == [3, 4]

    def test_serial_map_stops_at_first_failure(self):
        calls = []

        def record(x):
            calls.append(x)
            if x == 2:
                raise RuntimeError("stop")
            return x

        backend = SerialBackend()
        with pytest.raises(RuntimeError):
            backend.map(record, [(1,), (2,), (3,)])
        assert calls == [1, 2]  # job 3 never ran


# ----------------------------------------------------------------------
# Worker protocol (in-process server, no subprocess)
# ----------------------------------------------------------------------
class TestWorkerProtocol:
    def test_in_process_serve_round_trip(self, monkeypatch):
        import threading

        from repro.engine import worker as worker_mod

        # In-process server shares this environment; admit the test module
        # through the wire allowlist for the _identity helper.
        monkeypatch.setenv("REPRO_WIRE_ALLOW", "test_backends")

        ready = threading.Event()
        bound = []
        t = threading.Thread(target=worker_mod.serve,
                             kwargs={"port": 0, "ready_event": ready,
                                     "bound": bound},
                             daemon=True)
        t.start()
        assert ready.wait(timeout=10)
        backend = SocketBackend([tuple(bound[0])])
        try:
            assert backend.map(_identity, [(n,) for n in range(5)]) == list(range(5))
        finally:
            backend.shutdown()

    def test_handshake_rejects_non_worker_peer(self):
        import socket as socket_mod
        import threading

        from repro.engine.backends.wire import ProtocolError, handshake

        server = socket_mod.socket()
        server.bind(("127.0.0.1", 0))
        server.listen()

        def bad_peer():
            conn, _ = server.accept()
            conn.recv(64)
            conn.sendall(b"HTTP/1.1 400 Bad Request\r\n")
            conn.close()

        threading.Thread(target=bad_peer, daemon=True).start()
        client = socket_mod.create_connection(server.getsockname(), timeout=5)
        try:
            with pytest.raises(ProtocolError):
                handshake(client)
        finally:
            client.close()
            server.close()

    @staticmethod
    def _peer(reply):
        """A listening socket whose one connection gets ``reply(conn)``."""
        import socket as socket_mod
        import threading

        server = socket_mod.socket()
        server.bind(("127.0.0.1", 0))
        server.listen()

        def serve_one():
            conn, _ = server.accept()
            reply(conn)
            conn.close()

        threading.Thread(target=serve_one, daemon=True).start()
        return server

    @staticmethod
    def _foreign_tag():
        """A tag of this protocol carrying another source digest."""
        from repro.engine.backends.wire import magic

        tag = magic()
        digit = b"1" if tag[-2:-1] == b"0" else b"0"
        return tag[:-2] + digit + b"\n"

    def test_magic_carries_a_source_digest(self):
        from repro.engine.backends.wire import magic

        tag = magic()
        assert tag.startswith(b"REPRO-WORKER-2 ") and tag.endswith(b"\n")
        assert len(tag) == len(b"REPRO-WORKER-2 ") + 32 + 1
        assert magic() is tag  # computed once per process

    @pytest.mark.parametrize("peer_sends", ["foreign_tag", "hang_up"])
    def test_handshake_refuses_worker_of_another_revision(self, peer_sends):
        """A worker from another revision is refused at connect, not when a
        shard's pickled task fails to match its classes.  One that predates
        the digest tag reads our tag, finds it foreign and hangs up."""
        import socket as socket_mod

        from repro.engine.backends.wire import ProtocolError, handshake

        foreign = self._foreign_tag()

        def reply(conn):
            conn.recv(64)
            if peer_sends == "foreign_tag":
                conn.sendall(foreign)

        server = self._peer(reply)
        client = socket_mod.create_connection(server.getsockname(), timeout=5)
        try:
            with pytest.raises(ProtocolError, match="revision"):
                handshake(client)
        finally:
            client.close()
            server.close()

    def test_socket_backend_refuses_foreign_worker_without_retries(self):
        import time

        foreign = self._foreign_tag()

        def reply(conn):
            conn.sendall(foreign)
            conn.recv(64)

        server = self._peer(reply)
        backend = SocketBackend([server.getsockname()],
                                connect_retries=40, retry_delay=0.25)
        try:
            start = time.monotonic()
            with pytest.raises(BackendError, match="revision"):
                backend.map(_identity, [(1,)])
            assert time.monotonic() - start < 5.0
        finally:
            backend.shutdown()
            server.close()

    def test_worker_closes_connection_on_foreign_tag(self):
        """The worker sends its own tag first, then hangs up on a client
        whose tag differs, before reading any frame."""
        import socket as socket_mod
        import threading

        from repro.engine import worker as worker_mod
        from repro.engine.backends.wire import magic

        ready = threading.Event()
        bound = []
        threading.Thread(target=worker_mod.serve,
                         kwargs={"port": 0, "ready_event": ready,
                                 "bound": bound},
                         daemon=True).start()
        assert ready.wait(timeout=10)
        client = socket_mod.create_connection(tuple(bound[0]), timeout=5)
        try:
            client.sendall(self._foreign_tag())
            got = b""
            while True:
                chunk = client.recv(256)
                if not chunk:
                    break
                got += chunk
            assert got == magic()
        finally:
            client.close()

    def test_restricted_unpickler_rejects_foreign_globals(self):
        """A crafted frame naming os.system dies before any construction."""
        import pickle

        from repro.engine.backends.wire import ProtocolError, restricted_loads

        # Hand-written pickle: GLOBAL os.system, argument, REDUCE. Built
        # from opcodes (not pickle.dumps) so the test documents the exact
        # gadget shape the allowlist must stop.
        gadget = b"cos\nsystem\n(S'echo owned'\ntR."
        with pytest.raises(ProtocolError, match="os.system"):
            restricted_loads(gadget)

        class Sneaky:
            def __reduce__(self):
                import subprocess
                return (subprocess.call, (["true"],))

        with pytest.raises(ProtocolError, match="subprocess"):
            restricted_loads(pickle.dumps(Sneaky()))

    def test_restricted_unpickler_accepts_protocol_traffic(self):
        """Everything the real protocol ships still round-trips."""
        import pickle

        import numpy as np

        from repro.engine.backends.wire import restricted_loads
        from repro.engine.executor import _run_ler_shard
        from repro.engine.rng import as_seed_sequence

        messages = [
            ("call", _run_ler_shard, ("task-stand-in",
                                      as_seed_sequence(7), 64)),
            ("ok", (3, 8, 12)),
            ("err", RuntimeError("worker-side error")),
            ("ok", np.arange(5)),
        ]
        for msg in messages:
            out = restricted_loads(
                pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL))
            assert out[0] == msg[0]

    def test_unpicklable_worker_error_is_reported_faithfully(self):
        from repro.engine.worker import _portable_error

        class Evil(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        try:
            raise Evil("original message")
        except Evil as exc:
            portable = _portable_error(exc)
        assert isinstance(portable, RuntimeError)
        assert "original message" in str(portable)

        plain = ValueError("fine")
        assert _portable_error(plain) is plain
