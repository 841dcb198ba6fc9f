"""Load generator: many concurrent clients, latency percentiles out.

Drives an :class:`~repro.serve.server.AuthServer` with ``clients``
concurrent connections, each issuing ``auths_per_client`` authentication
rounds cycling deterministically through the fleet's devices, measured
corners, and verbs (``attest``, ``regen``, and — when the device farm is
available in-process for genuine answers — ``challenge`` + ``auth``).

Every request is expected to *succeed and authenticate*: any transport
error, ``ok: false`` response, rejected genuine auth, or unverified key
counts as a failure, so a zero-failure run certifies the whole stack
under concurrency.  Latency is measured per request round (a
challenge+auth pair counts once).

Memory model: each worker folds its latencies into
:class:`~repro.obs.quantiles.QuantileSketch` instances (one overall, one
per verb) instead of an unbounded raw list, and the harness merges the
worker sketches at the end — so a million-request soak run costs the
same few kilobytes as a ten-request smoke test, and the reported
percentiles agree with exact ``np.percentile`` within the sketch's
documented 1% relative error (pinned by ``tests/test_serve_load.py``
via ``record_raw=True``).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..obs.quantiles import QuantileSketch
from ..variation.environment import OperatingPoint
from .client import AuthClient, ServeClientError
from .fleet import DeviceFarm
from .protocol import is_retriable

__all__ = ["run_load", "run_overload", "percentiles"]


def percentiles(
    samples: list[float], points: tuple[float, ...] = (50.0, 90.0, 99.0)
) -> dict:
    """``{"p50": ..., "p90": ..., "p99": ..., "max": ...}`` of ``samples``.

    Exact (``np.percentile``) — the reference the sketch-based summary
    is pinned against; the harness itself no longer keeps raw samples
    unless asked to (``run_load(record_raw=True)``).
    """
    if not samples:
        return {f"p{point:g}": 0.0 for point in points} | {"max": 0.0}
    values = np.sort(np.asarray(samples, dtype=float))
    summary = {
        f"p{point:g}": float(np.percentile(values, point))
        for point in points
    }
    summary["max"] = float(values[-1])
    return summary


class _ClientWorker(threading.Thread):
    """One synthetic client: a connection plus its request loop."""

    def __init__(
        self,
        index: int,
        host: str,
        port: int,
        auths: int,
        device_ids: list[str],
        corners: list[OperatingPoint],
        farm: DeviceFarm | None,
        timeout: float,
        record_raw: bool = False,
    ):
        super().__init__(name=f"load-client-{index}", daemon=True)
        self.index = index
        self.host = host
        self.port = port
        self.auths = auths
        self.device_ids = device_ids
        self.corners = corners
        self.farm = farm
        self.timeout = timeout
        self.sketch = QuantileSketch()
        self.verb_sketches: dict[str, QuantileSketch] = {}
        self.raw_latencies_ms: list[float] | None = [] if record_raw else None
        self.failures: list[str] = []
        self.verb_counts: dict[str, int] = {}

    def _verbs(self) -> list[str]:
        verbs = ["attest", "regen"]
        if self.farm is not None:
            verbs.append("challenge-auth")
        return verbs

    def _observe(self, verb: str, latency_ms: float) -> None:
        self.sketch.observe(latency_ms)
        verb_sketch = self.verb_sketches.get(verb)
        if verb_sketch is None:
            verb_sketch = self.verb_sketches[verb] = QuantileSketch()
        verb_sketch.observe(latency_ms)
        if self.raw_latencies_ms is not None:
            self.raw_latencies_ms.append(latency_ms)

    def run(self) -> None:
        verbs = self._verbs()
        try:
            with AuthClient(
                self.host, self.port, timeout=self.timeout
            ) as client:
                for round_index in range(self.auths):
                    cursor = self.index * self.auths + round_index
                    device = self.device_ids[cursor % len(self.device_ids)]
                    corner = self.corners[cursor % len(self.corners)]
                    verb = verbs[cursor % len(verbs)]
                    self.verb_counts[verb] = self.verb_counts.get(verb, 0) + 1
                    started = time.perf_counter()
                    try:
                        failure = self._one_round(client, verb, device, corner)
                    except (ServeClientError, OSError) as exc:
                        failure = f"{verb} {device}: transport {exc}"
                    self._observe(
                        verb, (time.perf_counter() - started) * 1000.0
                    )
                    if failure is not None:
                        self.failures.append(failure)
        except (ServeClientError, OSError) as exc:
            self.failures.append(f"client {self.index}: connect {exc}")

    def _one_round(
        self, client: AuthClient, verb: str, device: str, corner
    ) -> str | None:
        """Run one request round; a failure description or ``None``."""
        if verb == "attest":
            response = client.attest(device, corner)
            if not (response.get("ok") and response.get("accepted")):
                return f"attest {device}: {response}"
        elif verb == "regen":
            response = client.regen(device, corner)
            if not (response.get("ok") and response.get("verified")):
                return f"regen {device}: {response}"
        else:  # challenge-auth round-trip with a genuine answer
            issued = client.challenge(device)
            if not issued.get("ok"):
                return f"challenge {device}: {issued}"
            twin = self.farm.device(device)
            bits = twin.evaluator.response(corner)
            answer = bits[np.array(issued["indices"])]
            verdict = client.auth(device, issued["challenge_id"], answer)
            if not (verdict.get("ok") and verdict.get("accepted")):
                return f"auth {device}: {verdict}"
        return None


def run_load(
    host: str,
    port: int,
    clients: int = 100,
    auths_per_client: int = 10,
    farm: DeviceFarm | None = None,
    device_ids: list[str] | None = None,
    corners: list[OperatingPoint] | None = None,
    timeout: float = 30.0,
    record_raw: bool = False,
) -> dict:
    """Drive the server with concurrent clients; return a summary dict.

    Args:
        host / port: server address.
        clients: concurrent connections (each its own thread).
        auths_per_client: authentication rounds per connection.
        farm: in-process device twins; enables genuine ``challenge``/
            ``auth`` rounds and supplies default device ids and corners.
            Build it with ``DeviceFarm.from_config`` of the served
            fleet's config, never pass the served farm itself: computing
            answers advances a device's noise RNG, which only the
            server's dispatcher thread may do.
        device_ids / corners: targets to cycle through (derived from
            ``farm`` when omitted).
        timeout: per-request socket timeout.
        record_raw: additionally keep every raw latency sample and
            return it as ``"raw_latencies_ms"`` — for pinning the sketch
            percentiles against the exact ones; leave off (the default)
            for constant-memory operation.

    Returns a plain-JSON summary: request/failure counts, wall seconds,
    throughput, per-verb counts, and sketch-backed latency percentiles
    in ms (overall and per verb).
    """
    if farm is not None:
        device_ids = device_ids or farm.device_ids
        if corners is None:
            corners = next(iter(farm)).corners
    if not device_ids:
        raise ValueError("no devices to drive load against")
    if not corners:
        raise ValueError("no operating points to authenticate at")
    workers = [
        _ClientWorker(
            index,
            host,
            port,
            auths_per_client,
            device_ids,
            corners,
            farm,
            timeout,
            record_raw=record_raw,
        )
        for index in range(clients)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - started
    overall = QuantileSketch()
    by_verb: dict[str, QuantileSketch] = {}
    for worker in workers:
        overall.merge(worker.sketch)
        for verb, sketch in worker.verb_sketches.items():
            if verb in by_verb:
                by_verb[verb].merge(sketch)
            else:
                merged = by_verb[verb] = QuantileSketch()
                merged.merge(sketch)
    failures = [text for worker in workers for text in worker.failures]
    verb_counts: dict[str, int] = {}
    for worker in workers:
        for verb, count in worker.verb_counts.items():
            verb_counts[verb] = verb_counts.get(verb, 0) + count
    requests = overall.count
    summary = {
        "clients": clients,
        "auths_per_client": auths_per_client,
        "requests": requests,
        "failures": len(failures),
        "failure_samples": failures[:10],
        "wall_seconds": wall,
        "throughput_rps": (requests / wall) if wall > 0 else 0.0,
        "verbs": dict(sorted(verb_counts.items())),
        "latency_ms": overall.quantiles(),
        "latency_ms_by_verb": {
            verb: by_verb[verb].quantiles() for verb in sorted(by_verb)
        },
    }
    if record_raw:
        summary["raw_latencies_ms"] = [
            ms
            for worker in workers
            for ms in (worker.raw_latencies_ms or [])
        ]
    return summary


class _OverloadWorker(threading.Thread):
    """One open-loop sender: fires on a fixed schedule, never waits to
    retry, and classifies every outcome instead of demanding success."""

    def __init__(
        self,
        index: int,
        workers: int,
        host: str,
        port: int,
        deadline_end: float,
        interval_s: float,
        device_ids: list[str],
        corners: list[OperatingPoint],
        deadline_ms: float | None,
        timeout: float,
    ):
        super().__init__(name=f"overload-client-{index}", daemon=True)
        self.index = index
        self.workers = workers
        self.host = host
        self.port = port
        self.deadline_end = deadline_end
        self.interval_s = interval_s
        self.device_ids = device_ids
        self.corners = corners
        self.deadline_ms = deadline_ms
        self.timeout = timeout
        self.sent = 0
        self.goodput = 0
        self.wrong = 0
        self.transport_errors = 0
        self.behind_schedule = 0
        self.shed_by_type: dict[str, int] = {}
        self.terminal_by_type: dict[str, int] = {}
        self.admitted_sketch = QuantileSketch()
        self.shed_sketch = QuantileSketch()

    def _classify(self, verb: str, response: dict, latency_ms: float) -> None:
        if response.get("ok"):
            verdict = response.get(
                "accepted" if verb == "attest" else "verified"
            )
            if verdict:
                self.goodput += 1
                self.admitted_sketch.observe(latency_ms)
            else:
                # A genuine device got a wrong auth verdict under load —
                # the one outcome overload must never produce.
                self.wrong += 1
            return
        error_type = str(response.get("error_type", "Unknown"))
        bucket = (
            self.shed_by_type
            if is_retriable(response)
            else self.terminal_by_type
        )
        bucket[error_type] = bucket.get(error_type, 0) + 1
        if bucket is self.shed_by_type:
            self.shed_sketch.observe(latency_ms)

    def run(self) -> None:
        # Open loop: request n fires at start + n * interval regardless
        # of how request n-1 fared — the arrival rate is the experiment's
        # independent variable.  Sheds are answered in microseconds, so a
        # protecting server keeps the sender on schedule; falling behind
        # is counted rather than hidden.
        client: AuthClient | None = None
        start = time.perf_counter() + self.index * (
            self.interval_s / self.workers
        )
        cursor = 0
        try:
            while True:
                target = start + cursor * self.interval_s
                now = time.perf_counter()
                if target >= self.deadline_end:
                    return
                if target > now:
                    time.sleep(target - now)
                elif now - target > self.interval_s:
                    self.behind_schedule += 1
                verb = ("attest", "regen")[cursor % 2]
                device = self.device_ids[cursor % len(self.device_ids)]
                corner = self.corners[cursor % len(self.corners)]
                cursor += 1
                self.sent += 1
                issued_at = time.perf_counter()
                try:
                    if client is None:
                        client = AuthClient(
                            self.host, self.port, timeout=self.timeout
                        )
                    caller = client.attest if verb == "attest" else client.regen
                    response = caller(
                        device, corner, deadline_ms=self.deadline_ms
                    )
                except (ServeClientError, OSError):
                    # Connection refused / reset / hung up: drop the
                    # connection and re-dial on the next scheduled send.
                    self.transport_errors += 1
                    if client is not None:
                        client.close()
                        client = None
                    continue
                self._classify(
                    verb,
                    response,
                    (time.perf_counter() - issued_at) * 1000.0,
                )
        finally:
            if client is not None:
                client.close()


def run_overload(
    host: str,
    port: int,
    offered_rps: float = 200.0,
    duration_s: float = 5.0,
    workers: int = 8,
    farm: DeviceFarm | None = None,
    device_ids: list[str] | None = None,
    corners: list[OperatingPoint] | None = None,
    deadline_ms: float | None = None,
    timeout: float = 10.0,
) -> dict:
    """Open-loop overload harness: offer a fixed arrival rate, report
    goodput versus shed.

    Unlike :func:`run_load` (closed loop: each client waits for its
    answer before asking again, so a slow server quietly lowers the
    offered rate), this drives the server at ``offered_rps`` regardless
    of how it responds — the regime where overload protection either
    works or collapses.  Nothing here is retried: every response is
    classified once as

    * **goodput** — ``ok`` and the auth verdict correct;
    * **shed** — a typed *retriable* rejection (``Overloaded``,
      ``RateLimited``, ``DeadlineExceeded``, ...), bucketed by type;
    * **wrong** — ``ok`` but a genuine device got a wrong verdict
      (must be zero: overload may cost throughput, never correctness);
    * **terminal** — a non-retriable error frame, bucketed by type;
    * **transport** — connection refused/reset/hung up.

    Admitted and shed latencies go to separate sketches: mixing them
    would let microsecond rejections mask a saturated compute path.

    Returns a plain-JSON summary with the counts above plus offered/
    achieved/goodput rates and both latency profiles.
    """
    if offered_rps <= 0.0:
        raise ValueError(f"offered_rps must be > 0, got {offered_rps}")
    if duration_s <= 0.0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if farm is not None:
        device_ids = device_ids or farm.device_ids
        if corners is None:
            corners = next(iter(farm)).corners
    if not device_ids:
        raise ValueError("no devices to drive load against")
    if not corners:
        raise ValueError("no operating points to authenticate at")
    interval_s = workers / offered_rps
    started = time.perf_counter()
    deadline_end = started + duration_s
    threads = [
        _OverloadWorker(
            index,
            workers,
            host,
            port,
            deadline_end,
            interval_s,
            device_ids,
            corners,
            deadline_ms,
            timeout,
        )
        for index in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    admitted = QuantileSketch()
    shed_sketch = QuantileSketch()
    shed_by_type: dict[str, int] = {}
    terminal_by_type: dict[str, int] = {}
    for thread in threads:
        admitted.merge(thread.admitted_sketch)
        shed_sketch.merge(thread.shed_sketch)
        for bucket, merged in (
            (thread.shed_by_type, shed_by_type),
            (thread.terminal_by_type, terminal_by_type),
        ):
            for error_type, count in bucket.items():
                merged[error_type] = merged.get(error_type, 0) + count
    sent = sum(thread.sent for thread in threads)
    goodput = sum(thread.goodput for thread in threads)
    shed = sum(shed_by_type.values())
    return {
        "offered_rps": offered_rps,
        "duration_s": duration_s,
        "workers": workers,
        "deadline_ms": deadline_ms,
        "sent": sent,
        "goodput": goodput,
        "shed": shed,
        "shed_by_type": dict(sorted(shed_by_type.items())),
        "wrong": sum(thread.wrong for thread in threads),
        "terminal_by_type": dict(sorted(terminal_by_type.items())),
        "transport_errors": sum(
            thread.transport_errors for thread in threads
        ),
        "behind_schedule": sum(
            thread.behind_schedule for thread in threads
        ),
        "wall_seconds": wall,
        "achieved_rps": (sent / wall) if wall > 0 else 0.0,
        "goodput_rps": (goodput / wall) if wall > 0 else 0.0,
        "admitted_latency_ms": admitted.quantiles(),
        "shed_latency_ms": shed_sketch.quantiles(),
    }
