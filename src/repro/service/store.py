"""SQLite-backed durable job store with leases, heartbeats and coalescing.

One database file (WAL mode) is shared by the API front end and every worker
process on the host — SQLite's locking is the only coordination primitive
the service needs, and WAL keeps readers (status polls, event long-polls)
from blocking writers (claims, heartbeats, finishes).

Crash-safety model
------------------
Every state transition is a single transaction guarded by a *state + owner*
predicate, so the store can never observe a half-transition no matter where
a process dies:

* ``submit`` inserts the job — and resolves request coalescing — in one
  ``BEGIN IMMEDIATE`` transaction, so two racing identical submissions can
  never both become primaries.
* ``claim`` is an atomic compare-and-swap: ``queued`` (or ``running`` with
  an **expired lease**) → ``running`` with a fresh lease and this worker as
  owner.  A worker killed mid-job simply stops heartbeating; when the lease
  runs out the job becomes claimable again and a surviving worker re-runs it
  from scratch — bit-identical, because the spec (not the worker) determines
  every RNG stream.
* ``record_progress`` (the wave heartbeat) and ``finish``/``fail`` only
  write while the caller still owns a ``running`` job, so a worker that lost
  its lease — or whose job was cancelled — is told so and backs off instead
  of interleaving stale writes with the new owner's.

Each :class:`JobStore` holds one SQLite connection, opened on first use
and kept until :meth:`JobStore.close`.  A re-entrant lock is held for every
whole operation, so the API's request threads and an in-process worker
thread take turns on it and never interleave transactions; other processes
(and other stores on the same file) coordinate through SQLite's own
locking.  No operation leaves the connection inside a transaction: a block
that raises is rolled back before the lock is released.  No connection
crosses a fork either: a fork waits for every store's current operation
and closes its connection first, so parent and child each reopen their own
(see :func:`_park_stores`).

Durability: a committed transition survives the death of any process
(WAL with ``synchronous=NORMAL``).  A power loss or OS crash may roll back
the last few commits — never corrupt the file or split a transition.
Commits are checkpointed from the WAL into the main file as the WAL grows
and when the last connection closes (:meth:`JobStore.close`).

States: ``queued → running → done | failed | cancelled`` (re-dispatch takes
``running → running`` with a new owner).  A *follower* — a job coalesced
into an identical in-flight primary — rests in ``queued`` with
``coalesced_into`` set; it is never claimed, and completes when its primary
does (:mod:`repro.service.coalesce`).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional

from . import coalesce

__all__ = ["Job", "JobStore", "JOB_STATES", "LIVE_STATES"]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
#: States in which a job may still produce (or be waiting for) a result.
LIVE_STATES = ("queued", "running")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id             TEXT PRIMARY KEY,
    kind           TEXT NOT NULL,
    spec           TEXT NOT NULL,
    content_key    TEXT,
    state          TEXT NOT NULL DEFAULT 'queued',
    submitted_at   REAL NOT NULL,
    started_at     REAL,
    finished_at    REAL,
    worker_id      TEXT,
    lease_until    REAL,
    attempts       INTEGER NOT NULL DEFAULT 0,
    coalesced_into TEXT,
    partial        TEXT,
    result         TEXT,
    error          TEXT
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state);
CREATE INDEX IF NOT EXISTS jobs_content_key ON jobs (content_key);
CREATE TABLE IF NOT EXISTS events (
    job_id     TEXT NOT NULL,
    seq        INTEGER NOT NULL,
    created_at REAL NOT NULL,
    body       TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);
"""

_JOB_COLUMNS = ("id", "kind", "spec", "content_key", "state", "submitted_at",
                "started_at", "finished_at", "worker_id", "lease_until",
                "attempts", "coalesced_into", "partial", "result", "error")


@dataclass(frozen=True)
class Job:
    """One row of the job table, with JSON columns decoded."""

    id: str
    kind: str
    spec: dict
    content_key: Optional[str]
    state: str
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    worker_id: Optional[str]
    lease_until: Optional[float]
    attempts: int
    coalesced_into: Optional[str]
    partial: Optional[dict]
    result: Optional[dict]
    error: Optional[str]

    @property
    def is_terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def summary(self) -> dict:
        """The JSON shape the API lists jobs with (no spec/result bodies)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "coalesced_into": self.coalesced_into,
        }

    def detail(self) -> dict:
        """The JSON shape of ``GET /jobs/<id>`` (everything but raw SQL)."""
        out = self.summary()
        out.update({
            "spec": self.spec,
            "content_key": self.content_key,
            "started_at": self.started_at,
            "worker_id": self.worker_id,
            "lease_until": self.lease_until,
            "partial": self.partial,
            "result": self.result,
            "error": self.error,
        })
        return out


def _row_to_job(row) -> Job:
    data = dict(zip(_JOB_COLUMNS, row))
    data["spec"] = json.loads(data["spec"])
    for field in ("partial", "result"):
        if data[field] is not None:
            data[field] = json.loads(data[field])
    return Job(**data)


class JobStore:
    """Durable job queue over one SQLite file (see module docstring)."""

    def __init__(self, path, *, now=time.time):
        self.path = str(path)
        self._now = now
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None
        self._parked = False  # its lock is held across a fork
        _STORES.add(self)
        parent = Path(self.path).parent
        if str(parent) not in ("", "."):
            parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    # ------------------------------------------------------------------
    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """The store's held connection, locked for one whole operation.

        The connection is opened on first use and kept: closing the last
        connection on a WAL file checkpoints it with an fsync, which costs
        more than the operation itself.  The re-entrant lock is held for
        the whole ``with`` block, so threads never interleave transactions
        on the shared connection.  A block that raised before its
        ``COMMIT`` is rolled back here, so the connection never carries an
        open transaction into the next operation.

        WAL journaling plus a generous busy timeout lets API threads and
        worker processes hammer the same file; ``isolation_level=None``
        gives explicit transaction control (``BEGIN IMMEDIATE`` where a
        read-then-write must be atomic) and keeps reads outside any
        transaction, so each statement sees the latest commit.
        """
        with self._lock:
            if self._conn is None:
                conn = sqlite3.connect(self.path, timeout=30.0,
                                       isolation_level=None,
                                       check_same_thread=False)
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute("PRAGMA busy_timeout=30000")
                self._conn = conn
            conn = self._conn
            try:
                yield conn
            finally:
                if conn.in_transaction:
                    # Undo the half-done transaction, or drop the connection
                    # (closing rolls back) if even that fails.
                    try:
                        conn.execute("ROLLBACK")
                    except sqlite3.Error:
                        self._conn = None
                        conn.close()

    def close(self) -> None:
        """Close the held connection (idempotent); the next operation
        reopens it.  Closing the last connection on the file checkpoints
        the WAL into the database, so call this on shutdown."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    @staticmethod
    def _select_job(conn, job_id: str) -> Optional[Job]:
        row = conn.execute(
            f"SELECT {', '.join(_JOB_COLUMNS)} FROM jobs WHERE id = ?",
            (job_id,)).fetchone()
        return None if row is None else _row_to_job(row)

    # ------------------------------------------------------------------
    # Submission (with in-flight coalescing)
    # ------------------------------------------------------------------
    def submit(self, kind: str, spec: dict,
               content_key: Optional[str]) -> Job:
        """Insert a job; coalesce onto a live identical primary if one exists.

        The primary lookup and the insert share one write transaction, so
        two racing identical submissions serialize: the first becomes the
        primary, the second its follower — never two executions.
        """
        job_id = uuid.uuid4().hex[:16]
        now = self._now()
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            primary = None
            if content_key is not None:
                primary = coalesce.find_live_primary(conn, content_key)
            conn.execute(
                "INSERT INTO jobs (id, kind, spec, content_key, state,"
                " submitted_at, coalesced_into)"
                " VALUES (?, ?, ?, ?, 'queued', ?, ?)",
                (job_id, kind, json.dumps(spec, sort_keys=True),
                 content_key, now, primary))
            conn.execute("COMMIT")
            return self._select_job(conn, job_id)

    # ------------------------------------------------------------------
    # Claiming (lease CAS) — the worker side
    # ------------------------------------------------------------------
    def runnable_jobs(self) -> List[Job]:
        """Primaries a worker could claim right now: queued, or running with
        an expired lease (their worker is presumed dead)."""
        now = self._now()
        with self._connect() as conn:
            rows = conn.execute(
                f"SELECT {', '.join(_JOB_COLUMNS)} FROM jobs"
                " WHERE coalesced_into IS NULL AND"
                " (state = 'queued' OR (state = 'running' AND lease_until < ?))"
                " ORDER BY submitted_at, id",
                (now,)).fetchall()
        return [_row_to_job(r) for r in rows]

    def try_claim(self, job_id: str, worker_id: str,
                  lease_seconds: float) -> Optional[Job]:
        """Atomically claim one runnable job; None if someone else won.

        The compare-and-swap re-checks the runnable predicate inside the
        write, so ranking (which happens outside any lock, possibly on a
        stale snapshot) can never double-dispatch a job: at most one
        claimant's UPDATE matches.
        """
        now = self._now()
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            cur = conn.execute(
                "UPDATE jobs SET state = 'running', worker_id = ?,"
                " lease_until = ?, attempts = attempts + 1,"
                " started_at = COALESCE(started_at, ?), partial = NULL"
                " WHERE id = ? AND coalesced_into IS NULL AND"
                " (state = 'queued' OR"
                "  (state = 'running' AND lease_until < ?))",
                (worker_id, now + lease_seconds, now, job_id, now))
            conn.execute("COMMIT")
            if cur.rowcount != 1:
                return None
            return self._select_job(conn, job_id)

    # ------------------------------------------------------------------
    # Progress + ownership-guarded completion
    # ------------------------------------------------------------------
    def record_progress(self, job_id: str, worker_id: str,
                        lease_seconds: float, *,
                        partial: Optional[dict] = None,
                        event: Optional[dict] = None) -> str:
        """Heartbeat one wave of progress; returns ``ok|cancelled|lost``.

        Extends the lease, updates the job's latest ``partial`` snapshot and
        appends a streamable event — but only while the caller still owns
        the ``running`` job.  ``cancelled`` tells the worker to abort the
        execution; ``lost`` that another worker owns the job now (this
        worker's remaining work is wasted but harmless — results are
        deterministic and completion is ownership-guarded).
        """
        now = self._now()
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT state, worker_id FROM jobs WHERE id = ?",
                (job_id,)).fetchone()
            if row is None:
                status = "lost"
            elif row[0] == "cancelled":
                status = "cancelled"
            elif row[0] != "running" or row[1] != worker_id:
                status = "lost"
            else:
                status = "ok"
                conn.execute(
                    "UPDATE jobs SET lease_until = ?,"
                    " partial = COALESCE(?, partial) WHERE id = ?",
                    (now + lease_seconds,
                     None if partial is None
                     else json.dumps(partial, sort_keys=True),
                     job_id))
                if event is not None:
                    self._append_event(conn, job_id, now, event)
            conn.execute("COMMIT")
        return status

    @staticmethod
    def _append_event(conn, job_id: str, now: float, body: dict) -> None:
        conn.execute(
            "INSERT INTO events (job_id, seq, created_at, body)"
            " VALUES (?, (SELECT COALESCE(MAX(seq), -1) + 1 FROM events"
            "             WHERE job_id = ?), ?, ?)",
            (job_id, job_id, now, json.dumps(body, sort_keys=True)))

    def finish(self, job_id: str, worker_id: str, result: dict) -> bool:
        """Complete a job we own; propagate the result to coalesced
        followers; False (and no writes) if ownership was lost."""
        return self._complete(job_id, worker_id, "done", result=result)

    def fail(self, job_id: str, worker_id: str, error: str) -> bool:
        """Fail a job we own (followers fail with it — the execution is
        deterministic, so they would only fail identically)."""
        return self._complete(job_id, worker_id, "failed", error=error)

    def _complete(self, job_id: str, worker_id: str, state: str, *,
                  result: Optional[dict] = None,
                  error: Optional[str] = None) -> bool:
        now = self._now()
        result_json = None if result is None else json.dumps(result,
                                                             sort_keys=True)
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            cur = conn.execute(
                "UPDATE jobs SET state = ?, result = ?, error = ?,"
                " finished_at = ?, lease_until = NULL"
                " WHERE id = ? AND state = 'running' AND worker_id = ?",
                (state, result_json, error, now, job_id, worker_id))
            owned = cur.rowcount == 1
            if owned:
                self._append_event(conn, job_id, now,
                                   {"type": state, "job": job_id})
                coalesce.complete_followers(conn, job_id, state,
                                            result_json, error, now)
            conn.execute("COMMIT")
        return owned

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job; returns its resulting state (None if unknown).

        Terminal jobs are left alone.  Cancelling a *primary* with live
        followers promotes the oldest follower to primary (the work is
        still wanted — just not by this submitter); a running primary's
        worker learns of the cancellation at its next wave heartbeat and
        aborts.
        """
        now = self._now()
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            job = self._select_job(conn, job_id)
            if job is None or job.is_terminal:
                conn.execute("COMMIT")
                return None if job is None else job.state
            conn.execute(
                "UPDATE jobs SET state = 'cancelled', finished_at = ?,"
                " lease_until = NULL WHERE id = ?", (now, job_id))
            if job.coalesced_into is None:
                # Followers have no event stream of their own (they read
                # their primary's), so only primaries log the event.
                self._append_event(conn, job_id, now,
                                   {"type": "cancelled", "job": job_id})
            coalesce.promote_followers(conn, job_id)
            conn.execute("COMMIT")
        return "cancelled"

    # ------------------------------------------------------------------
    # Reads (the API side)
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._connect() as conn:
            return self._select_job(conn, job_id)

    def list_jobs(self, state: Optional[str] = None,
                  limit: int = 200) -> List[Job]:
        query = (f"SELECT {', '.join(_JOB_COLUMNS)} FROM jobs"
                 " {} ORDER BY submitted_at DESC, id LIMIT ?")
        with self._connect() as conn:
            if state is None:
                rows = conn.execute(query.format(""), (limit,)).fetchall()
            else:
                rows = conn.execute(query.format("WHERE state = ?"),
                                    (state, limit)).fetchall()
        return [_row_to_job(r) for r in rows]

    def events(self, job_id: str, since: int = -1) -> List[dict]:
        """Events with ``seq > since`` — reading a follower streams its
        *primary's* events (they share one execution, hence one stream)."""
        with self._connect() as conn:
            job = self._select_job(conn, job_id)
            if job is None:
                return []
            effective = job.coalesced_into or job_id
            rows = conn.execute(
                "SELECT seq, created_at, body FROM events"
                " WHERE job_id = ? AND seq > ? ORDER BY seq",
                (effective, since)).fetchall()
        return [{"seq": seq, "time": created, **json.loads(body)}
                for seq, created, body in rows]

    def counts(self) -> dict:
        """Jobs per state (the ``GET /stats`` body)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state").fetchall()
        out = {state: 0 for state in JOB_STATES}
        out.update({state: n for state, n in rows})
        return out


# ----------------------------------------------------------------------
# Fork safety
# ----------------------------------------------------------------------
#: Every live store in this process.
_STORES: "weakref.WeakSet[JobStore]" = weakref.WeakSet()


def _park_stores() -> None:
    """Before a fork: wait out every operation and close every connection.

    An SQLite connection must not cross a fork.  SQLite keeps the file
    locks a process holds in process memory, so a child that inherits an
    open connection takes no real lock with a connection of its own; once
    every other process closes, the last one checkpoints and deletes the
    WAL under the child and the child's later commits are lost.
    """
    for store in list(_STORES):
        store._lock.acquire()
        store._parked = True
        store.close()


def _unpark_stores() -> None:
    """After a fork, in parent and child: release what parking took."""
    for store in list(_STORES):
        if store._parked:
            store._parked = False
            store._lock.release()


os.register_at_fork(before=_park_stores, after_in_parent=_unpark_stores,
                    after_in_child=_unpark_stores)
