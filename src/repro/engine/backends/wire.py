"""Framing for the socket backend's client↔worker protocol.

One tiny, symmetric wire format shared by :class:`SocketBackend` (client
side) and ``python -m repro.engine.worker`` (server side), so the two can
never drift apart:

* on connect both ends send :func:`magic` (the protocol tag plus a digest
  of the ``repro`` sources) before reading the peer's — a client talking to
  the wrong port, or to a worker from another revision (whose pickled task
  classes may differ), fails immediately with a clear error instead of
  failing every shard later;
* every message is a length-prefixed pickle: 8 network-order bytes of
  payload length, then the pickled object.  Requests are
  ``("call", fn, args)`` tuples (``fn`` pickled by reference, so the worker
  resolves it against its own installed ``repro``); responses are
  ``("ok", result)`` or ``("err", exception)``.

Pickle implies **trust**: a worker executes whatever the connection sends
(requests carry a function pickled by reference, and the worker calls it).
Workers bind to loopback by default and must only ever listen on networks
where every peer is trusted (a lab cluster behind a firewall, an SSH
tunnel) — exactly the trust model of every pickle-based RPC layer
(``multiprocessing.managers`` included).

Deserialisation is nonetheless **restricted**: :func:`recv_msg` resolves
globals through an allowlist (:class:`_RestrictedUnpickler`) admitting only
repro-internal modules, ``numpy``, and a fixed set of safe stdlib names
(exception types, basic containers, the pickle machinery's own helpers).
A frame referencing anything else — ``os.system``, ``subprocess.Popen``,
``builtins.eval`` — fails with :class:`ProtocolError` *before* any object
is constructed.  This is defence in depth, not a sandbox: the legitimate
protocol already executes the functions it names, so the allowlist merely
pins what a message can name to the surface the protocol actually uses,
turning a whole class of pickle gadgets into immediate, logged rejections.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import socket
import struct
from functools import lru_cache
from pathlib import Path

from ...env import env_str

__all__ = ["magic", "send_msg", "recv_msg", "handshake", "ProtocolError",
           "restricted_loads"]

#: Root of the ``repro`` package whose sources the handshake tag digests.
_PACKAGE_ROOT = Path(__file__).resolve().parents[2]

_HEADER = struct.Struct(">Q")

#: Upper bound on one message (defensive: a garbled length prefix must not
#: look like a 2**60-byte allocation).
MAX_MESSAGE_BYTES = 1 << 30


class ProtocolError(ConnectionError):
    """The peer is not a compatible repro worker (bad magic / bad frame)."""


@lru_cache(maxsize=None)
def magic() -> bytes:
    """Tag both ends send on connect: protocol version and source digest.

    The digest covers every ``.py`` file of the ``repro`` package (relative
    path and bytes, in path order), so only peers running the same sources
    shake hands.  Computed once per process, on first use.
    """
    h = hashlib.sha256()
    for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
        h.update(path.relative_to(_PACKAGE_ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return b"REPRO-WORKER-2 " + h.hexdigest()[:32].encode() + b"\n"


# ----------------------------------------------------------------------
# Restricted unpickling
# ----------------------------------------------------------------------
#: Module prefixes a wire frame may resolve globals from.  ``repro`` covers
#: every task/result/callable the protocol legitimately ships; ``numpy``
#: covers array payloads and the RNG state objects inside SeedSequence
#: fingerprints.  A prefix matches the module itself or any submodule.
_ALLOWED_MODULE_PREFIXES = ("repro", "numpy")

#: Exact stdlib names a frame may resolve.  Exception types let ``("err",
#: exc)`` replies round-trip; the rest are the inert building blocks the
#: pickle machinery itself emits for containers and dataclasses.  Nothing
#: here executes code on construction.
_ALLOWED_STDLIB = {
    ("builtins", name) for name in (
        "complex", "frozenset", "set", "bytearray", "range", "slice",
        "list", "tuple", "dict", "bool", "int", "float", "str", "bytes",
        # exception hierarchy used by ("err", exception) replies
        "BaseException", "Exception", "ArithmeticError", "AssertionError",
        "AttributeError", "BufferError", "EOFError", "FloatingPointError",
        "ImportError", "IndexError", "KeyError", "KeyboardInterrupt",
        "LookupError", "MemoryError", "ModuleNotFoundError", "NameError",
        "NotImplementedError", "OSError", "OverflowError", "RecursionError",
        "ReferenceError", "RuntimeError", "StopIteration", "SyntaxError",
        "SystemError", "TimeoutError", "TypeError", "ValueError",
        "ZeroDivisionError", "ConnectionError", "ConnectionResetError",
        "ConnectionAbortedError", "ConnectionRefusedError", "BrokenPipeError",
        "FileExistsError", "FileNotFoundError", "InterruptedError",
        "IsADirectoryError", "NotADirectoryError", "PermissionError",
        "ProcessLookupError", "UnicodeDecodeError", "UnicodeEncodeError",
        "UnicodeError",
    )
} | {
    ("collections", "OrderedDict"),
    ("collections", "defaultdict"),
    ("collections", "deque"),
    ("collections", "Counter"),
    ("copyreg", "_reconstructor"),
    ("datetime", "timedelta"),
    ("fractions", "Fraction"),
    ("decimal", "Decimal"),
    ("concurrent.futures.process", "BrokenProcessPool"),
    ("concurrent.futures", "BrokenExecutor"),
}


def _extra_prefixes() -> tuple:
    """Additional allowed module prefixes from ``REPRO_WIRE_ALLOW``.

    Comma-separated module prefixes a deployment may graft onto the
    allowlist (the test suite uses it to ship its own helper functions to
    real worker subprocesses).  Read lazily so spawned workers pick it up
    from their inherited environment.
    """
    raw = env_str("REPRO_WIRE_ALLOW")
    if not raw:
        return ()
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def _global_allowed(module: str, name: str) -> bool:
    for prefix in _ALLOWED_MODULE_PREFIXES + _extra_prefixes():
        if module == prefix or module.startswith(prefix + "."):
            return True
    return (module, name) in _ALLOWED_STDLIB


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler whose global lookups go through :func:`_global_allowed`."""

    def find_class(self, module, name):
        if not _global_allowed(module, name):
            raise ProtocolError(
                f"wire frame references disallowed global "
                f"{module}.{name}; repro workers only unpickle "
                f"repro-internal and numpy objects"
            )
        return super().find_class(module, name)


def restricted_loads(payload: bytes):
    """``pickle.loads`` through the wire allowlist (see module docstring).

    Raises :class:`ProtocolError` when the payload names a global outside
    the allowlist — before constructing any object from the frame.
    """
    return _RestrictedUnpickler(io.BytesIO(payload)).load()


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("connection closed mid-message")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_msg(sock: socket.socket, obj) -> None:
    """Send one length-prefixed pickled message."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_msg(sock: socket.socket):
    """Receive one length-prefixed pickled message."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {length} bytes exceeds protocol limit")
    return restricted_loads(_recv_exact(sock, length))


def handshake(sock: socket.socket) -> None:
    """Send our tag, then read and check the peer's; raise on any mismatch.

    Both ends run this.  A peer that closes the connection instead of
    sending its tag is refused too: a worker from a revision older than
    the source-digest tag reads our tag, finds it foreign and hangs up.
    """
    tag = magic()
    sock.sendall(tag)
    try:
        peer = _recv_exact(sock, len(tag))
    except ConnectionError as exc:
        raise ProtocolError(
            "peer closed the connection during the handshake "
            "(a repro worker from another revision?)") from exc
    if peer != tag:
        raise ProtocolError(
            f"peer is not a repro worker of this revision (got {peer!r})"
        )
