"""Threaded TCP front-end speaking the length-prefixed frame protocol.

:class:`AuthServer` is a stdlib ``socketserver.ThreadingTCPServer`` (one
daemon thread per connection, connections persistent: a client may send
any number of frames before closing).  All request semantics live in
:class:`~repro.serve.service.AuthService`; the handler's jobs are
framing, survival, and **overload protection**:

* malformed-but-framed garbage gets an error frame and the connection
  continues;
* an oversized frame gets an error frame and the connection closes (the
  stream position is untrustworthy after a hostile length prefix);
* a truncated frame or mid-request disconnect just drops the connection;
* nothing that happens on one connection can affect another or the
  listener itself.

The overload path (``docs/serving.md#failure-modes--operations``) runs
*before* any service work, in cost order:

1. **connection cap** — past ``max_connections`` a new connection gets
   one retriable ``TooManyConnections`` frame and is closed;
2. **idle/read timeout** — a connection that neither completes a frame
   nor sends its next one within ``idle_timeout`` seconds is closed, so
   a slow-loris can pin a handler thread for at most that long;
3. **per-peer rate limit** — a token bucket per client address; an
   over-rate frame gets a retriable ``RateLimited`` error and the
   connection (and stream sync) survives;
4. **deadline check + admission gate** — a frame whose ``deadline_ms``
   budget is already spent is shed with ``DeadlineExceeded``; otherwise
   the request must claim one of ``max_inflight`` slots or is shed with
   ``Overloaded``.  Cheap introspection verbs (:data:`ADMISSION_EXEMPT_VERBS`)
   bypass the gate so operators can always reach ``health``/``ready``/
   ``metrics``/``ping`` on an overloaded server.

Every rejection is a *typed, retriable* error frame sent before any
state changes — the resilient :class:`~repro.serve.client.AuthClient`
backs off and retries on exactly these.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time

from .. import obs
from .admission import AdmissionGate, DeadlineExceeded, Overloaded, parse_deadline
from .protocol import (
    MAX_FRAME_BYTES,
    FrameMalformed,
    FrameTooLarge,
    FrameTruncated,
    error_frame,
    read_frame,
    write_frame,
)
from .ratelimit import ConnectionLimiter, RateLimiter
from .service import AuthService

__all__ = ["AuthServer", "ADMISSION_EXEMPT_VERBS"]

#: Introspection verbs that bypass the admission gate (never the
#: connection cap or rate limit): an overloaded server must stay
#: observable, or operators cannot tell shedding from an outage.
ADMISSION_EXEMPT_VERBS = frozenset({"ping", "health", "ready", "metrics"})


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read frames, dispatch to the service, answer."""

    def handle(self) -> None:  # pragma: no cover - exercised over sockets
        server: "AuthServer" = self.server
        service = server.service
        connections = server.connections
        if connections is not None and not connections.try_acquire():
            # Over the global cap: one retriable error frame, then close.
            # The frame (rather than a silent RST) lets a well-behaved
            # client back off instead of hammering reconnects.
            self._try_reply(
                error_frame(
                    f"server connection cap "
                    f"({connections.max_connections}) reached; retry "
                    f"after backoff",
                    "TooManyConnections",
                )
            )
            return
        try:
            obs.counter_add("serve.connections")
            self._serve_frames(server, service)
        finally:
            if connections is not None:
                connections.release()

    def _serve_frames(self, server: "AuthServer", service) -> None:
        if server.idle_timeout is not None:
            # One socket timeout covers both idle connections and
            # slow-loris mid-frame trickles: the blocking read must
            # make frame progress within the window or the connection
            # is dropped.
            self.connection.settimeout(server.idle_timeout)
        while True:
            try:
                request = read_frame(self.rfile, server.max_frame_bytes)
            except (TimeoutError, OSError) as exc:
                # socket.timeout is TimeoutError (an OSError subclass);
                # either way the connection is unusable mid-stream.
                if isinstance(exc, TimeoutError):
                    service.note_protocol_error("IdleTimeout")
                    obs.counter_add("serve.connections.idle_closed")
                else:
                    service.note_protocol_error("FrameTruncated")
                return
            except FrameTooLarge as exc:
                service.note_protocol_error("FrameTooLarge")
                self._try_reply(
                    error_frame(str(exc), "FrameTooLarge", retriable=False)
                )
                return
            except FrameMalformed as exc:
                service.note_protocol_error("FrameMalformed")
                if not self._try_reply(
                    error_frame(str(exc), "FrameMalformed", retriable=False)
                ):
                    return
                continue
            except FrameTruncated:
                service.note_protocol_error("FrameTruncated")
                return
            if request is None:
                return
            if not self._answer(server, service, request):
                return

    def _answer(self, server: "AuthServer", service, request: dict) -> bool:
        """Overload checks + dispatch for one frame; False to close."""
        if server.rate_limiter is not None:
            peer = str(self.client_address[0])
            if not server.rate_limiter.try_acquire(peer):
                service.note_overload("RateLimited")
                return self._try_reply(
                    error_frame(
                        f"per-client rate limit "
                        f"({server.rate_limiter.rate:g}/s) exceeded; "
                        f"retry after backoff",
                        "RateLimited",
                    )
                )
        try:
            deadline = parse_deadline(request)
        except ValueError as exc:
            return self._try_reply(
                error_frame(str(exc), "BadRequest", retriable=False)
            )
        verb = str(request.get("op"))
        permit = None
        if server.admission is not None and verb not in ADMISSION_EXEMPT_VERBS:
            try:
                permit = server.admission.try_admit(deadline)
            except DeadlineExceeded as exc:
                service.note_overload("DeadlineExceeded")
                return self._try_reply(
                    error_frame(str(exc), "DeadlineExceeded")
                )
            except Overloaded as exc:
                service.note_overload("Overloaded")
                return self._try_reply(error_frame(str(exc), "Overloaded"))
        try:
            # The serve frame boundary mints the request id: everything
            # done for this frame — service handler, coalescer dispatch,
            # batch engine — runs inside its request_context and records
            # the id on its spans.  The tail sampler keys on the frame
            # latency measured here.
            request_id = obs.new_request_id()
            sampler = server.sampler
            if sampler is not None:
                sampler.begin(request_id)
            started = time.perf_counter()
            with obs.request_context(request_id):
                with obs.span("serve.request", verb=verb) as root:
                    response = service.handle(request)
                    root.set_attr("ok", bool(response.get("ok")))
            if sampler is not None:
                sampler.finish(
                    request_id, (time.perf_counter() - started) * 1000.0
                )
        finally:
            if permit is not None:
                permit.release()
        return self._try_reply(response)

    def _try_reply(self, response: dict) -> bool:
        """Write one frame; False when the client is gone."""
        try:
            write_frame(self.wfile, response, self.server.max_frame_bytes)
            return True
        except (OSError, ValueError, FrameTooLarge):
            return False


class AuthServer(socketserver.ThreadingTCPServer):
    """The serving front-end: bind, start in the background, stop cleanly.

    Args:
        service: verb semantics (farm + store + coalescer).
        address: bind address; port 0 picks an ephemeral port — read the
            bound address back from :attr:`address`.
        max_frame_bytes: per-connection frame-size ceiling.
        max_inflight: admission-gate capacity — how many requests may be
            in service simultaneously; the rest are shed fast with
            retriable ``Overloaded`` frames.  ``None`` disables the gate.
        rate_limit: per-client-address sustained requests/second; over-
            rate frames get retriable ``RateLimited`` errors.  ``None``
            disables rate limiting.
        rate_burst: per-client burst allowance (default: one second of
            ``rate_limit``, at least 1).
        max_connections: global simultaneous-connection cap; ``None``
            disables it (the historical thread-per-connection behaviour).
        idle_timeout: per-connection read timeout in seconds — an idle
            or slow-loris connection is closed after this long without a
            completed frame.  ``None`` disables it.

    Usage::

        with AuthServer(service) as server:
            server.start()
            host, port = server.address
            ...

    ``stop`` (or leaving the ``with`` block) shuts the listener down,
    closes the service's coalescer if the service owns it, and joins the
    serving thread; per-connection threads are daemons.
    """

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default listen backlog of 5 drops the SYNs of a
    # connection burst (16 clients at once stall ~1 s on the retransmit).
    request_queue_size = socket.SOMAXCONN

    def __init__(
        self,
        service: AuthService,
        address: tuple[str, int] = ("127.0.0.1", 0),
        max_frame_bytes: int = MAX_FRAME_BYTES,
        sampler=None,
        max_inflight: int | None = 64,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        max_connections: int | None = None,
        idle_timeout: float | None = None,
    ):
        super().__init__(address, _Handler)
        self.service = service
        self.max_frame_bytes = max_frame_bytes
        #: Optional :class:`repro.obs.TailSampler` — fed the per-frame
        #: latency of every request; retains slow requests' span trees.
        self.sampler = sampler
        if idle_timeout is not None and idle_timeout <= 0.0:
            raise ValueError(f"idle_timeout must be > 0, got {idle_timeout}")
        self.idle_timeout = idle_timeout
        self.admission = (
            AdmissionGate(max_inflight) if max_inflight is not None else None
        )
        self.rate_limiter = (
            RateLimiter(rate_limit, burst=rate_burst)
            if rate_limit is not None
            else None
        )
        self.connections = (
            ConnectionLimiter(max_connections)
            if max_connections is not None
            else None
        )
        # Let the stats verb expose the overload counters in one scrape.
        service.overload_stats = self.overload_stats
        self._thread: threading.Thread | None = None

    def overload_stats(self) -> dict:
        """Admission/rate-limit/connection counters (plain JSON)."""
        stats: dict = {}
        if self.admission is not None:
            stats["admission"] = self.admission.stats()
        if self.rate_limiter is not None:
            stats["ratelimit"] = self.rate_limiter.stats()
        if self.connections is not None:
            stats["connections"] = self.connections.stats()
        if self.idle_timeout is not None:
            stats["idle_timeout_s"] = self.idle_timeout
        return stats

    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound (host, port)."""
        host, port = self.server_address[:2]
        return host, port

    def start(self) -> "AuthServer":
        """Serve in a background daemon thread until :meth:`stop`."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever,
            name="ropuf-serve",
            daemon=True,
            kwargs={"poll_interval": 0.05},
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down the listener and join the serving thread."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()
        self.service.close()

    def __exit__(self, *exc) -> None:
        self.stop()
