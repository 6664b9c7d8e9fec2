"""Synchronous client for the serve daemon.

Plain blocking sockets — the client side needs no asyncio: it writes one
NDJSON request line and reads response lines until the matching ``seq``
arrives (or, for ``stream``, until the final event).  Used by the CLI's
``--server`` mode, by the repository benchmark and by the serve tests.
"""

import socket
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.serve import protocol


class ServeError(RuntimeError):
    """The server answered with an error response."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class ServeConnectionError(ConnectionError):
    """Could not reach (or lost) the serve daemon."""


class ServeClient:
    """One NDJSON connection to a serve daemon.

    Usable as a context manager; requests are sequential (one in flight
    per connection — open more clients for concurrency).
    """

    def __init__(self, address: str, client_name: Optional[str] = None,
                 timeout: Optional[float] = None):
        self.address = address
        self.client_name = client_name
        self._seq = 0
        family, target = protocol.parse_address(address)
        try:
            if family == "unix":
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._sock.settimeout(timeout)
                self._sock.connect(target)
            else:
                self._sock = socket.create_connection(target, timeout=timeout)
        except OSError as exc:
            raise ServeConnectionError(
                f"cannot connect to serve daemon at {address}: {exc}"
            ) from exc
        self._file = self._sock.makefile("rb")

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass

    # -- plumbing ------------------------------------------------------- #

    def _read_response(self, seq: int) -> Dict[str, Any]:
        while True:
            line = self._file.readline()
            if not line:
                raise ServeConnectionError(
                    f"serve daemon at {self.address} closed the connection"
                )
            message = protocol.decode_line(line)
            if message.get("seq") == seq:
                return message
            # A response to an earlier seq (shouldn't happen on a
            # sequential connection) — skip it.

    def _request(self, op: str, **fields: Any) -> Dict[str, Any]:
        self._seq += 1
        seq = self._seq
        message = {"op": op, "seq": seq}
        message.update(fields)
        try:
            self._sock.sendall(protocol.encode(message))
        except OSError as exc:
            raise ServeConnectionError(
                f"lost connection to serve daemon at {self.address}: {exc}"
            ) from exc
        response = self._read_response(seq)
        if not response.get("ok", False):
            err = response.get("error") or {}
            raise ServeError(
                err.get("code", "unknown"), err.get("message", "unknown error")
            )
        return response

    # -- protocol ops --------------------------------------------------- #

    def ping(self) -> Dict[str, Any]:
        return self._request("ping")

    def stats(self) -> Dict[str, Any]:
        return self._request("stats")["stats"]

    def health(self) -> Dict[str, Any]:
        """Liveness/readiness/drain state plus recent-window SLO latencies."""
        return self._request("health")["health"]

    def metrics(self, window: Optional[int] = None) -> Dict[str, Any]:
        """The daemon's live metrics snapshot and recent time series.

        ``window`` caps how many trailing time-series samples ride along
        (None returns the full retained ring).
        """
        fields: Dict[str, Any] = {}
        if window is not None:
            fields["window"] = window
        return self._request("metrics", **fields)["metrics"]

    def trace(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The last ``limit`` spans from the daemon's continuous tracer,
        as Chrome trace-event JSON (loadable in Perfetto)."""
        fields: Dict[str, Any] = {}
        if limit is not None:
            fields["limit"] = limit
        return self._request("trace", **fields)["trace"]

    def submit(
        self,
        kind: str,
        params: Dict[str, Any],
        priority: Optional[str] = None,
    ) -> str:
        """Submit a job; returns its id immediately."""
        fields: Dict[str, Any] = {"kind": kind, "params": params}
        if priority is not None:
            fields["priority"] = priority
        if self.client_name is not None:
            fields["client"] = self.client_name
        return self._request("submit", **fields)["job"]

    def poll(self, job: str) -> Dict[str, Any]:
        return self._request("poll", job=job)

    def wait(self, job: str, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the job is terminal; raises on failed/timeout."""
        status = self._request("wait", job=job, timeout=timeout)
        if status["state"] == "failed":
            raise ServeError(
                protocol.E_JOB_FAILED, status.get("error", "job failed")
            )
        return status

    def stream(self, job: str) -> Iterator[Dict[str, Any]]:
        """Yield progress events until the job's terminal event."""
        self._seq += 1
        seq = self._seq
        try:
            self._sock.sendall(
                protocol.encode({"op": "stream", "seq": seq, "job": job})
            )
        except OSError as exc:
            raise ServeConnectionError(
                f"lost connection to serve daemon at {self.address}: {exc}"
            ) from exc
        while True:
            event = self._read_response(seq)
            if not event.get("ok", False):
                err = event.get("error") or {}
                raise ServeError(
                    err.get("code", "unknown"), err.get("message", "?")
                )
            yield event
            if event.get("final"):
                return

    def cancel(self, job: str) -> Dict[str, Any]:
        return self._request("cancel", job=job)

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain and exit."""
        return self._request("shutdown")

    # -- conveniences --------------------------------------------------- #

    def point(
        self,
        design: str,
        mix: List[str],
        smt: bool = True,
        priority: str = "interactive",
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Evaluate one (design, mix, smt) point; returns its payload."""
        job = self.submit(
            "point", {"design": design, "mix": list(mix), "smt": smt}, priority
        )
        return self.wait(job, timeout=timeout)["result"]["point"]

    def sweep(
        self,
        designs: List[str],
        kind: str,
        max_threads: int,
        smt: bool = True,
        priority: str = "bulk",
        timeout: Optional[float] = None,
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Run a full sweep grid; returns the ``mean_stp`` result block."""
        job = self.submit(
            "sweep",
            {
                "designs": list(designs),
                "kind": kind,
                "max_threads": max_threads,
                "smt": smt,
            },
            priority,
        )
        if on_progress is not None:
            final = None
            for event in self.stream(job):
                on_progress(event)
                if event.get("final"):
                    final = event
            if final is None or final.get("state") != "done":
                raise ServeError(
                    protocol.E_JOB_FAILED,
                    (final or {}).get("error", "sweep did not complete"),
                )
            return final["result"]
        return self.wait(job, timeout=timeout)["result"]

    def figure(
        self, figure_id: str, timeout: Optional[float] = None
    ) -> List[Dict[str, str]]:
        """Regenerate one figure; returns its rendered tables."""
        job = self.submit("figure", {"id": figure_id})
        return self.wait(job, timeout=timeout)["result"]["tables"]

    def explore(
        self, params: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Run one adaptive exploration; returns its summary dict.

        ``params`` carries :class:`repro.explore.ExploreConfig` fields
        (``scenario`` is required) and is validated server-side.
        """
        job = self.submit("explore", params)
        return self.wait(job, timeout=timeout)["result"]["explore"]


def wait_for_server(
    address: str, timeout: float = 30.0, interval: float = 0.05
) -> None:
    """Block until a daemon answers ``ping`` at ``address`` (startup races)."""
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with ServeClient(address, timeout=5.0) as client:
                client.ping()
            return
        except (ServeConnectionError, OSError) as exc:
            last_error = exc
            time.sleep(interval)
    raise ServeConnectionError(
        f"no serve daemon answered at {address} within {timeout}s: {last_error}"
    )
