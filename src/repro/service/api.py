"""The JSON-over-HTTP front end: submit, watch and cancel estimation jobs.

Pure stdlib (:mod:`http.server`) — the service adds no dependencies the
library doesn't have.  The API process only ever touches the job store;
execution happens in separate worker processes
(``python -m repro.service.worker``) sharing the same SQLite file, so a
wedged estimation can never take the front end down with it.

Routes::

    POST   /jobs                  submit (body: a job spec; see specs.py)
    GET    /jobs[?state=...]      list summaries, newest first
    GET    /jobs/<id>             full detail (spec, partial, result, error)
    GET    /jobs/<id>/events      event stream; ?since=<seq> resumes,
                                  ?wait=<seconds> long-polls for the next
    DELETE /jobs/<id>             cancel
    GET    /stats                 jobs per state

Submission responses carry ``coalesced_into`` so clients can tell their
request attached to an identical in-flight job — the id they got is still
theirs to poll, and it completes when the shared execution does.

Long-polling (`GET /jobs/<id>/events?since=N&wait=S`) parks the request
until an event with ``seq > N`` exists, the job reaches a terminal state,
or ``S`` seconds pass — a watcher sees every scheduler wave (failures,
shots, Wilson CI) within one poll interval of it being merged, with no
busy-loop against the API.  Each response includes the job's current
``state`` so watchers know when to stop.
"""

from __future__ import annotations

import argparse
import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .config import service_db_path, service_host_port, service_poll_seconds
from .coalesce import content_key
from .specs import normalize_spec
from .store import JOB_STATES, JobStore

__all__ = ["ServiceAPIServer", "serve", "main"]

#: Ceiling on one long-poll park, so misbehaving clients can't pin an API
#: thread for minutes; watchers simply re-issue with the same ``since``.
MAX_WAIT_SECONDS = 30.0


class _ApiError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the store attached to the server instance."""

    protocol_version = "HTTP/1.1"
    server: "ServiceAPIServer"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # pragma: no cover - debugging aid
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(self, status: int, body: dict) -> None:
        payload = json.dumps(body, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _ApiError(400, "request body must be a JSON object")
        try:
            body = json.loads(raw)
        except ValueError:
            raise _ApiError(400, "request body is not valid JSON")
        if not isinstance(body, dict):
            raise _ApiError(400, "request body must be a JSON object")
        return body

    def _route(self) -> Tuple[str, dict]:
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    def _dispatch(self, method: str) -> None:
        path, query = self._route()
        try:
            handler = self._resolve(method, path)
            if handler is None:
                raise _ApiError(404, f"no such route: {method} {path}")
            handler(query)
        except _ApiError as exc:
            self._send_json(exc.status, {"error": exc.message})
        except Exception as exc:  # pragma: no cover - defensive catch-all
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _resolve(self, method: str, path: str):
        parts = [p for p in path.split("/") if p]
        if method == "POST" and parts == ["jobs"]:
            return self._post_job
        if method == "GET" and parts == ["jobs"]:
            return self._list_jobs
        if method == "GET" and parts == ["stats"]:
            return self._stats
        if len(parts) == 2 and parts[0] == "jobs":
            job_id = parts[1]
            if method == "GET":
                return lambda q: self._get_job(job_id, q)
            if method == "DELETE":
                return lambda q: self._cancel_job(job_id, q)
        if (len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events"
                and method == "GET"):
            return lambda q: self._get_events(parts[1], q)
        return None

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def do_DELETE(self):  # noqa: N802 - stdlib naming
        self._dispatch("DELETE")

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _post_job(self, query: dict) -> None:
        body = self._read_body()
        try:
            spec = normalize_spec(body)
        except ValueError as exc:
            raise _ApiError(400, str(exc))
        job = self.server.store.submit(spec["kind"], spec, content_key(spec))
        self._send_json(201, {
            "id": job.id,
            "state": job.state,
            "kind": job.kind,
            "content_key": job.content_key,
            "coalesced_into": job.coalesced_into,
        })

    def _list_jobs(self, query: dict) -> None:
        state = query.get("state")
        if state is not None and state not in JOB_STATES:
            raise _ApiError(400, f"unknown state {state!r}")
        try:
            limit = int(query.get("limit", 200))
        except ValueError:
            raise _ApiError(400, "limit must be an integer")
        jobs = self.server.store.list_jobs(state, limit)
        self._send_json(200, {"jobs": [job.summary() for job in jobs]})

    def _get_job(self, job_id: str, query: dict) -> None:
        job = self.server.store.get(job_id)
        if job is None:
            raise _ApiError(404, f"no such job: {job_id}")
        self._send_json(200, job.detail())

    def _get_events(self, job_id: str, query: dict) -> None:
        try:
            since = int(query.get("since", -1))
            wait = min(float(query.get("wait", 0.0)), MAX_WAIT_SECONDS)
        except ValueError:
            raise _ApiError(400, "since must be an integer, wait a number")
        store = self.server.store
        job = store.get(job_id)
        if job is None:
            raise _ApiError(404, f"no such job: {job_id}")
        deadline = time.monotonic() + wait
        while True:
            events = store.events(job_id, since)
            job = store.get(job_id)
            if events or job.is_terminal or time.monotonic() >= deadline:
                break
            time.sleep(self.server.poll_seconds)
        self._send_json(200, {
            "id": job_id,
            "state": job.state,
            "next_since": events[-1]["seq"] if events else since,
            "events": events,
        })

    def _stats(self, query: dict) -> None:
        self._send_json(200, {"states": self.server.store.counts()})

    def _cancel_job(self, job_id: str, query: dict) -> None:
        state = self.server.store.cancel(job_id)
        if state is None:
            raise _ApiError(404, f"no such job: {job_id}")
        self._send_json(200, {"id": job_id, "state": state})


class ServiceAPIServer(ThreadingHTTPServer):
    """An :class:`http.server.ThreadingHTTPServer` bound to one job store.

    Threading matters: long-polling watchers park their handler thread, and
    must not block fresh submissions.  Handlers share the store's one held
    connection, taking turns on its lock one operation at a time (see
    :class:`JobStore`), so concurrent threads are safe and a parked poll
    holds the lock only while it reads.
    """

    daemon_threads = True

    def __init__(self, store: JobStore, host: str, port: int, *,
                 poll_seconds: Optional[float] = None, verbose: bool = False):
        self.store = store
        self.poll_seconds = min(
            service_poll_seconds() if poll_seconds is None else poll_seconds,
            0.5)
        self.verbose = verbose
        super().__init__((host, port), _Handler)


def serve(store: JobStore, host: Optional[str] = None,
          port: Optional[int] = None, **kwargs) -> ServiceAPIServer:
    """Bind (but don't run) an API server; port 0 picks a free port."""
    default_host, default_port = service_host_port()
    return ServiceAPIServer(store,
                            default_host if host is None else host,
                            default_port if port is None else port,
                            **kwargs)


# ----------------------------------------------------------------------
# Entry point (python -m repro.service.api)
# ----------------------------------------------------------------------
def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.api",
        description="Serve the repro.service JSON API over HTTP.",
    )
    parser.add_argument("--db", default=None,
                        help="job-store SQLite path (default:"
                             " REPRO_SERVICE_DB or .repro-service.db)")
    parser.add_argument("--host", default=None,
                        help="bind host (default: REPRO_SERVICE_HOST)")
    parser.add_argument("--port", type=int, default=None,
                        help="bind port, 0 = ephemeral (default:"
                             " REPRO_SERVICE_PORT)")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")
    args = parser.parse_args(argv)

    store = JobStore(args.db or service_db_path())
    server = serve(store, args.host, args.port, verbose=args.verbose)
    host, port = server.server_address[:2]
    # The one line launchers parse for the bound address (matters with
    # --port 0); flush so pipes see it before the first request.
    print(f"REPRO_SERVICE_LISTENING {host} {port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
        store.close()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    main()
