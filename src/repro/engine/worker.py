"""Remote shard worker: the server side of the socket backend.

Run one of these per compute host (or several per host for more slots)::

    python -m repro.engine.worker --host 0.0.0.0 --port 7931

then point a driver at the fleet::

    REPRO_BACKEND=socket REPRO_HOSTS=hostA:7931,hostB:7931 \\
        python examples/quickstart.py

The worker accepts connections from
:class:`~repro.engine.backends.socket.SocketBackend`, and serves each one
on its own thread: read a pickled ``("call", fn, args)`` message, run
``fn(*args)`` (e.g. :func:`repro.engine.executor._run_ler_shard` with a
frozen task spec, a ``SeedSequence`` and a shot count), reply ``("ok",
result)`` or ``("err", exception)``.  Because the shard functions key their
warm context off the task content hash
(:func:`repro.engine.executor._context_for`), a worker process keeps hot
circuits/decoders/geodesic caches across every wave of a sweep, exactly
like a local pool worker.

``--port 0`` binds an OS-assigned port; the worker always prints one
machine-readable line — ``REPRO_WORKER_LISTENING <host> <port>`` — once it
is accepting, which is what the test harness and the CI smoke job parse.

Trust model: messages are pickles, so a worker executes what it is sent.
Bind to loopback (the default) or to networks where every peer is trusted;
see :mod:`repro.engine.backends.wire`.
"""

from __future__ import annotations

import argparse
import pickle
import socket
import sys
import threading
import traceback
from typing import Optional

from ..env import env_str
from .backends.wire import ProtocolError, handshake, recv_msg, send_msg
from .pipeline import memo_preload

__all__ = ["serve", "main"]


def _serve_connection(conn: socket.socket, peer) -> None:
    """Run one client's jobs until it disconnects."""
    try:
        try:
            handshake(conn)
        except ConnectionError:  # ProtocolError included: not our client
            return
        while True:
            try:
                message = recv_msg(conn)
            except ProtocolError as exc:
                # A desynced stream or an over-limit frame is *not* a normal
                # disconnect: leave a diagnostic in the worker log instead
                # of vanishing silently (the client only ever sees a generic
                # dropped-connection error).
                print(f"repro.engine.worker: protocol error from {peer}: "
                      f"{exc}", file=sys.stderr, flush=True)
                return
            except ConnectionError:
                return  # client went away between jobs: normal shutdown
            if not (isinstance(message, tuple) and len(message) == 3
                    and message[0] == "call"):
                print(f"repro.engine.worker: unexpected message from {peer}; "
                      f"closing connection", file=sys.stderr, flush=True)
                return
            _, fn, args = message
            try:
                reply = ("ok", fn(*args))
            except Exception as exc:  # job error: report it, keep serving
                reply = ("err", _portable_error(exc))
            send_msg(conn, reply)
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _portable_error(exc: Exception) -> Exception:
    """The exception itself when it pickles, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(
            "worker-side error (original exception not picklable):\n"
            + "".join(traceback.format_exception(type(exc), exc,
                                                 exc.__traceback__))
        )


def serve(host: str = "127.0.0.1", port: int = 0, *,
          cache_dir: Optional[str] = None,
          ready_event: Optional[threading.Event] = None,
          bound: Optional[list] = None) -> None:
    """Listen forever, serving each connection on its own thread.

    ``cache_dir`` (or the ``REPRO_CACHE`` environment fallback) points the
    worker's decoding pipelines at the shared result cache, so the first
    shard of each task imports any persisted syndrome memo instead of
    re-decoding from cold.

    ``ready_event``/``bound`` exist for in-process tests: ``bound`` receives
    ``(host, port)`` once the socket is listening and ``ready_event`` is
    then set.
    """
    cache = cache_dir or env_str("REPRO_CACHE")
    if cache is not None:
        # Process-wide preload target; only touch it when this worker was
        # actually given a cache (in-process test servers must not clobber
        # their host process's setting).
        memo_preload(cache)
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen()
    actual_host, actual_port = server.getsockname()[:2]
    if bound is not None:
        bound.append((actual_host, actual_port))
    if ready_event is not None:
        ready_event.set()
    # The one line launchers parse; flush so pipes see it immediately.
    print(f"REPRO_WORKER_LISTENING {actual_host} {actual_port}", flush=True)
    try:
        while True:
            conn, peer = server.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=_serve_connection, args=(conn, peer),
                             name=f"repro-worker-{peer}", daemon=True).start()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.close()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.worker",
        description="Serve repro engine shards to a SocketBackend over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: loopback; only "
                             "expose to trusted networks — jobs are pickles)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: 0 = OS-assigned, printed "
                             "as REPRO_WORKER_LISTENING)")
    parser.add_argument("--cache", default=None,
                        help="result-cache directory for syndrome-memo "
                             "warm-up (default: $REPRO_CACHE)")
    args = parser.parse_args(argv)
    serve(args.host, args.port, cache_dir=args.cache)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    main()
