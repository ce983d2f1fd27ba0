"""Content-addressed on-disk JSON cache for engine results.

Entries are keyed by a SHA-256 hex digest computed by the executor from the
task's content hash plus everything else that determines the numbers (seed
fingerprint, shot policy, shard size).  Each record is a single JSON file
under ``<root>/<key[:2]>/<key>.json`` carrying a ``schema_version``; entries
written under a different schema version are silently treated as misses, so
bumping :data:`repro.engine.tasks.ENGINE_SCHEMA_VERSION` (or constructing the
cache with a different version) invalidates the whole store without deleting
anything.

Writes are atomic (temp file + ``os.replace``), so a crashed or concurrent
run can never leave a half-written record that later parses as valid.
Unparseable files are treated as misses, never as errors.

Every record kind (LER result, yield result, patch samples, syndrome memo)
goes through one pair: :meth:`ResultCache.store` writes the common
``kind``/``task_hash`` header next to the caller's fields, and
:meth:`ResultCache.load` checks that header and hands the record to the
caller's decoder, turning any malformed field into a miss.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterator, Optional, TypeVar

from .tasks import ENGINE_SCHEMA_VERSION

__all__ = ["ResultCache"]

T = TypeVar("T")


class ResultCache:
    """A directory of JSON result records addressed by hex-digest key."""

    def __init__(self, root, schema_version: int = ENGINE_SCHEMA_VERSION):
        self.root = Path(root)
        self.schema_version = int(schema_version)

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys must be hex digests, got {key!r}")
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """Return the cached record, or None on miss/corruption/schema skew."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict):
            return None
        if record.get("schema_version") != self.schema_version:
            return None
        return record

    def put(self, key: str, record: dict) -> None:
        """Crash-safely persist a record under the current schema version.

        The record is encoded first, written to a ``.tmp`` file next to its
        final name in one write, fsynced, and only then :func:`os.replace`-d
        into place — so a worker killed at *any* instant (including
        mid-``write``, or between write and rename) can never leave a torn
        JSON file under the record's final name for other workers or
        service processes to read.
        Leftover ``.tmp`` files from killed writers are invisible to
        :meth:`get`/:meth:`keys` and are swept by :meth:`clear`.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = dict(record)
        body["schema_version"] = self.schema_version
        # json.dump to a file makes one write per encoder chunk; ASCII-only
        # dumps() bytes are the same record in one write.
        payload = json.dumps(body, sort_keys=True).encode()
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def store(self, key: str, kind: str, task_hash: str, **fields) -> None:
        """Write a ``kind`` record for the task ``task_hash`` with ``fields``."""
        self.put(key, {"kind": kind, "task_hash": task_hash, **fields})

    def load(self, key: str, kind: str, task_hash: str,
             decode: Callable[[dict], T]) -> Optional[T]:
        """``decode(record)`` of a :meth:`store`-d record, or None on a miss.

        A missing or unreadable record, a ``kind`` or ``task_hash`` that
        does not match, and a record whose fields ``decode`` cannot read
        are all misses: the caller recomputes and overwrites.
        """
        record = self.get(key)
        if (record is None or record.get("kind") != kind
                or record.get("task_hash") != task_hash):
            return None
        try:
            return decode(record)
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns True if it existed."""
        try:
            os.unlink(self.path_for(key))
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    @staticmethod
    def _is_record_name(sub_name: str, stem: str) -> bool:
        """Whether ``<sub_name>/<stem>.json`` is a cache record of ours.

        Records live at ``<key[:2]>/<key>.json`` with a hex-digest key, so
        anything else under the cache root — the service's SQLite database,
        its ``-wal``/``-shm`` siblings, editor temp files, a stray README —
        is a *foreign file* that must be invisible to :meth:`keys` and
        untouched by :meth:`clear`.
        """
        return (len(sub_name) == 2
                and len(stem) > 2
                and stem[:2] == sub_name
                and all(c in "0123456789abcdef" for c in stem))

    def keys(self) -> Iterator[str]:
        """All record keys currently on disk (any schema version).

        Foreign files living under the cache root (e.g. a co-located
        service database or editor droppings) are skipped, not yielded as
        pseudo-keys that would later crash :meth:`path_for`.
        """
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if sub.is_dir():
                for f in sorted(sub.glob("*.json")):
                    if self._is_record_name(sub.name, f.stem):
                        yield f.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        """True when a *readable, schema-current* record exists for ``key``."""
        return self.get(key) is not None

    def clear(self) -> int:
        """Remove every record (plus orphaned ``.tmp`` files from killed
        writers); returns the number of records removed.  Foreign files are
        left alone."""
        removed = 0
        for key in list(self.keys()):
            if self.invalidate(key):
                removed += 1
        if self.root.is_dir():
            # sorted(): directory iteration order is filesystem-dependent;
            # deterministic walk order keeps deletion logs/tracing stable.
            for sub in sorted(self.root.iterdir()):
                if sub.is_dir() and len(sub.name) == 2:
                    for tmp in sorted(sub.glob("tmp*.tmp")):
                        try:
                            os.unlink(tmp)
                        except OSError:
                            pass
        return removed
