"""``python -m repro.service.cli`` — thin HTTP client for the service API.

Stdlib only (:mod:`http.client`): one client holds one keep-alive
HTTP/1.1 connection and reuses it for every request.  The server URL comes
from ``--url`` or ``REPRO_SERVICE_URL`` (default ``http://127.0.0.1:7940``).

Commands::

    submit [--file spec.json]   submit a job spec (default: read stdin);
                                prints the submission response
    status <id>                 print the job's full detail JSON
    watch  <id>                 stream events (one JSON line each) until
                                the job is terminal; print the final detail
    cancel <id>                 cancel the job
    list   [--state S]          list job summaries
    stats                       jobs per state

``watch`` exits 0 on ``done`` and 1 on ``failed``/``cancelled``, so shell
scripts can gate on job success.
"""

from __future__ import annotations

import argparse
import http.client
import json
import socket
import sys
from typing import Optional
from urllib.parse import urlsplit

from .config import service_url

__all__ = ["main", "ServiceClient"]


class ServiceClient:
    """Minimal JSON client for one service API base URL.

    One client holds one keep-alive connection, opened by the first request
    and reused by the next; it is not to be shared across threads.  Close it
    with :meth:`close` or use it as a context manager.
    """

    def __init__(self, base_url: Optional[str] = None, timeout: float = 60.0):
        self.base_url = (base_url or service_url()).rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(
                f"service URL must be http://host[:port], got {self.base_url!r}")
        self._host, self._port, self._prefix = url.hostname, url.port, url.path
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self._host, self._port,
                                          timeout=self.timeout)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _exchange(self, method: str, target: str, data: Optional[bytes]):
        reused = self._conn is not None
        if not reused:
            self._conn = self._connect()
        headers = {} if data is None else {"Content-Type": "application/json"}
        try:
            self._conn.request(method, target, body=data, headers=headers)
            return self._conn.getresponse()
        except (ConnectionResetError, BrokenPipeError):
            # The server dropped an idle kept-alive connection (a restart, a
            # timeout) before answering; RemoteDisconnected is a
            # ConnectionResetError.  Only a reused connection earns one retry.
            self.close()
            if not reused:
                raise
            return self._exchange(method, target, data)

    def request(self, method: str, path: str, body: Optional[dict] = None):
        data = None if body is None else json.dumps(body).encode()
        try:
            resp = self._exchange(method, self._prefix + path, data)
            raw = resp.read()
        except BaseException:
            self.close()
            raise
        if resp.will_close:
            self.close()
        if resp.status >= 400:
            # API errors are JSON bodies with an "error" key; surface them
            # as ordinary failures rather than tracebacks.
            try:
                detail = json.loads(raw)["error"]
            except Exception:
                detail = f"HTTP Error {resp.status}: {resp.reason}"
            raise SystemExit(f"error: {detail} ({resp.status})")
        return json.loads(raw)

    def close(self) -> None:
        """Close the held connection; the next request opens a new one."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # Convenience wrappers -------------------------------------------------
    def submit(self, spec: dict) -> dict:
        return self.request("POST", "/jobs", spec)

    def status(self, job_id: str) -> dict:
        return self.request("GET", f"/jobs/{job_id}")

    def events(self, job_id: str, since: int = -1, wait: float = 0.0) -> dict:
        return self.request(
            "GET", f"/jobs/{job_id}/events?since={since}&wait={wait}")

    def cancel(self, job_id: str) -> dict:
        return self.request("DELETE", f"/jobs/{job_id}")

    def watch(self, job_id: str, *, wait: float = 10.0, emit=None) -> dict:
        """Long-poll events until the job is terminal; returns final detail.

        ``emit`` (default: print) receives each event dict as it arrives.
        """
        emit = emit or (lambda ev: print(json.dumps(ev, sort_keys=True),
                                         flush=True))
        since = -1
        while True:
            page = self.events(job_id, since, wait)
            for event in page["events"]:
                emit(event)
            since = page["next_since"]
            if page["state"] in ("done", "failed", "cancelled"):
                return self.status(job_id)


def _print(body: dict) -> None:
    print(json.dumps(body, indent=2, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.cli",
        description="Submit and watch jobs on a repro.service API.",
    )
    parser.add_argument("--url", default=None,
                        help="API base URL (default: REPRO_SERVICE_URL)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="submit a job spec")
    p_submit.add_argument("--file", default="-",
                          help="spec JSON path, - for stdin (default)")
    p_submit.add_argument("--watch", action="store_true",
                          help="watch the job after submitting")

    for name in ("status", "watch", "cancel"):
        p = sub.add_parser(name)
        p.add_argument("id")

    p_list = sub.add_parser("list", help="list job summaries")
    p_list.add_argument("--state", default=None)

    sub.add_parser("stats", help="jobs per state")

    args = parser.parse_args(argv)
    try:
        client = ServiceClient(args.url)
    except ValueError as exc:
        parser.error(str(exc))
    with client:
        return _run(client, args)


def _run(client: ServiceClient, args) -> int:
    if args.command == "submit":
        if args.file == "-":
            spec = json.load(sys.stdin)
        else:
            with open(args.file) as fh:
                spec = json.load(fh)
        response = client.submit(spec)
        _print(response)
        if args.watch:
            final = client.watch(response["id"])
            _print(final)
            return 0 if final["state"] == "done" else 1
        return 0
    if args.command == "status":
        _print(client.status(args.id))
        return 0
    if args.command == "watch":
        final = client.watch(args.id)
        _print(final)
        return 0 if final["state"] == "done" else 1
    if args.command == "cancel":
        _print(client.cancel(args.id))
        return 0
    if args.command == "list":
        path = "/jobs" if args.state is None else f"/jobs?state={args.state}"
        _print(client.request("GET", path))
        return 0
    _print(client.request("GET", "/stats"))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
