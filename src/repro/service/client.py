"""The blocking client for the study service.

:class:`ServiceClient` is deliberately boring: one socket, a file
wrapper, :func:`~repro.service.protocol.encode_frame` out and
:func:`~repro.service.protocol.decode_frame` in.  The CLI subcommands
(``repro submit|jobs|results|cancel``), the tests and CI all drive the
server through it; anything it can do, a dozen lines of any language
can do too — that is the point of the line-JSON protocol.

Server errors surface as :class:`ServiceError` (carrying the server's
message), transport problems as the usual ``OSError`` family.
"""

from __future__ import annotations

import socket
import time
from typing import Iterator

from repro.service.protocol import (
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    parse_address,
)

__all__ = ["ServiceClient", "ServiceError", "wait_for_server"]


class ServiceError(RuntimeError):
    """The server answered ``{"ok": false, ...}``."""


class ServiceClient:
    """One connection to a :class:`~repro.service.server.StudyServer`.

    Usable as a context manager.  ``timeout`` is the socket timeout
    for connect and for each response read; ``watch`` frames arrive at
    the study's pace, so :meth:`watch` stretches it per frame.
    """

    def __init__(self, address: str, timeout: float = 30.0) -> None:
        self.address = address
        family, target = parse_address(address)
        if family == "unix":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(target)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _send(self, frame: dict) -> None:
        self._file.write(encode_frame(frame))
        self._file.flush()

    def _recv(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError(
                f"server at {self.address} closed the connection"
            )
        return decode_frame(line)

    def request(self, op: str, **fields) -> dict:
        """One request/response round trip; raises on ``ok: false``."""
        self._send({"op": op, **fields})
        response = self._recv()
        if not response.get("ok", False):
            raise ServiceError(
                response.get("error", f"{op} failed with no message")
            )
        return response

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        response = self.request("ping")
        version = response.get("version")
        if version != PROTOCOL_VERSION:
            raise ServiceError(
                f"server speaks protocol {version}, "
                f"this client {PROTOCOL_VERSION}"
            )
        return response

    def submit(
        self, spec_dict: dict, tenant: str = "default", priority: int = 0
    ) -> dict:
        """Submit a study spec; returns ``{"job", "deduped", ...}``."""
        return self.request(
            "submit", spec=spec_dict, tenant=tenant, priority=priority
        )

    def jobs(self) -> list[dict]:
        return self.request("jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self.request("status", job=job_id)["status"]

    def result(self, job_id: str) -> dict:
        """The finished study's result dict (error unless ``done``)."""
        return self.request("result", job=job_id)["result"]

    def cancel(self, job_id: str) -> dict:
        return self.request("cancel", job=job_id)

    def metrics(self, tenant: str | None = None) -> dict:
        """The server's live metrics: registry snapshot, per-tenant
        and global aggregates with histogram quantiles."""
        fields = {} if tenant is None else {"tenant": tenant}
        return self.request("metrics", **fields)["metrics"]

    def shutdown(self) -> dict:
        return self.request("shutdown")

    def watch(self, job_id: str, timeout: float = 600.0) -> Iterator[dict]:
        """Stream a job's events until it reaches a terminal state.

        Yields ``job_state`` and ``front`` event frames (the
        subscription starts with a replay of the job's current state,
        so watching an already-finished job yields its final state
        immediately).  ``timeout`` bounds the wait for *each* frame.
        """
        self._sock.settimeout(timeout)
        self._send({"op": "watch", "job": job_id})
        response = self._recv()
        if not response.get("ok", False):
            raise ServiceError(response.get("error", "watch failed"))
        while True:
            frame = self._recv()
            if "event" not in frame:
                raise ServiceError(f"expected event frame, got {frame!r}")
            yield frame
            if frame["event"] == "job_state" and frame.get("terminal"):
                return


def wait_for_server(
    address: str, timeout: float = 20.0, interval: float = 0.1
) -> None:
    """Block until the server at ``address`` answers a ping.

    The test/CI helper for "start the server, then talk to it":
    retries connect-and-ping until ``timeout``, re-raising the last
    error when it expires.
    """
    deadline = time.monotonic() + timeout
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with ServiceClient(address, timeout=interval * 10) as client:
                client.ping()
                return
        except (OSError, ServiceError) as exc:
            last = exc
            time.sleep(interval)
    raise TimeoutError(
        f"no server answering at {address} within {timeout:.0f}s"
    ) from last
