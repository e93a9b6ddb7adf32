"""The wire protocol: line-delimited JSON over a stream socket.

One connection carries a sequence of *requests* (client → server, each
``{"op": ..., ...}``) answered in order by *responses* (``{"ok": true,
...}`` or ``{"ok": false, "error": ...}``).  A ``watch`` request
switches the connection to streaming: the server pushes *event* frames
(``{"event": ..., ...}``) until the watched job reaches a terminal
state, then resumes request/response.  Every frame is one JSON object
on one ``\\n``-terminated line — trivially parseable from any
language, inspectable with ``nc`` and a pair of eyes.

No web framework, by design: the transport is ``asyncio`` streams on
the server and a blocking socket file on the client, both stdlib.
Addresses name either family — :func:`parse_address` maps a CLI string
(``/path/to.sock``, ``unix:/path``, ``host:port``, ``tcp:host:port``)
to ``("unix", path)`` or ``("tcp", (host, port))``.
"""

from __future__ import annotations

import json

__all__ = [
    "METRICS_VERSION",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "format_address",
    "parse_address",
]

#: Bumped when a frame shape changes incompatibly; ``hello`` responses
#: carry it so a client can refuse to talk across versions.
PROTOCOL_VERSION = 1

#: Request operations the server understands (documented here, handled
#: in :mod:`repro.service.server`).
OPS = (
    "ping",        # liveness + version
    "submit",      # {"spec": {...}, "tenant", "priority"} -> job id
    "jobs",        # queue listing
    "status",      # {"job"} -> one job's state
    "watch",       # {"job"} -> stream job_state/front events until done
    "result",      # {"job"} -> the finished study's result dict
    "cancel",      # {"job"} -> cancel queued or running job
    "metrics",     # {"tenant"?} -> live registry snapshot + aggregates
    "shutdown",    # graceful stop (drains running jobs)
)

#: Version of the ``metrics`` response shape (independent of the frame
#: protocol so dashboards can evolve without a protocol bump).
METRICS_VERSION = 1


class ProtocolError(ValueError):
    """A frame that is not one JSON object per line."""


def encode_frame(frame: dict) -> bytes:
    """One frame as its wire bytes (compact JSON + newline)."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode()


def decode_frame(line: bytes | str) -> dict:
    """Invert :func:`encode_frame`; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        line = line.decode(errors="replace")
    try:
        frame = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"bad frame (not JSON): {line!r:.80}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(f"bad frame (not an object): {line!r:.80}")
    return frame


def ok(**fields) -> dict:
    """A success response frame."""
    return {"ok": True, **fields}


def error(message: str, **fields) -> dict:
    """A failure response frame."""
    return {"ok": False, "error": message, **fields}


def event(kind: str, **fields) -> dict:
    """A streamed event frame (``watch`` subscriptions).

    The parameter is ``kind`` (not ``name``) so fields named ``name``
    — a job's study name, say — pass through without colliding.
    """
    return {"event": kind, **fields}


def parse_address(address: str) -> tuple[str, object]:
    """A CLI address string as ``(family, target)``.

    Explicit prefixes always win: ``unix:PATH`` and ``tcp:HOST:PORT``.
    Unprefixed strings are classified by shape — anything with a ``/``
    or a ``.sock`` suffix is a unix socket path, ``HOST:PORT`` is TCP,
    and a bare integer is a TCP port on localhost.
    """
    if address.startswith("unix:"):
        return ("unix", address[len("unix:"):])
    if address.startswith("tcp:"):
        rest = address[len("tcp:"):]
        host, sep, port = rest.rpartition(":")
        if not sep:
            host, port = "127.0.0.1", rest
        return ("tcp", (host or "127.0.0.1", int(port)))
    if "/" in address or address.endswith(".sock"):
        return ("unix", address)
    if address.isdigit():
        return ("tcp", ("127.0.0.1", int(address)))
    host, sep, port = address.rpartition(":")
    if sep and port.isdigit():
        return ("tcp", (host or "127.0.0.1", int(port)))
    raise ValueError(
        f"cannot parse server address {address!r} "
        "(want unix:PATH, PATH.sock, tcp:HOST:PORT, HOST:PORT or PORT)"
    )


def format_address(address: str) -> str:
    """Normalised human-readable form of a parsed address."""
    family, target = parse_address(address)
    if family == "unix":
        return f"unix:{target}"
    host, port = target
    return f"tcp:{host}:{port}"
