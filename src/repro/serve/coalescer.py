"""Request coalescing: concurrent auths ride one vectorized dispatch.

Every authentication or key regeneration needs one PUF evaluation.  Served
naively, N concurrent requests cost N independent delay reductions; the
:class:`RequestCoalescer` instead parks incoming requests for a short
window (or until a batch fills) and dispatches the whole batch through
:func:`repro.core.batch.coalesce_responses` — one ``einsum`` per stage
width for the entire fleet slice, the same ~80x path the sweep engines
ride.

Correctness contract (pinned by ``tests/test_serve_coalescer.py``):

* results are **byte-identical** to evaluating the same requests serially
  in submission order — the delay reduction is bit-stable under
  concatenation and noise is observed per request in order;
* a request that fails to gather (unknown corner, broken provider) fails
  *alone*: the rest of the batch dispatches normally;
* evaluator RNGs are only ever advanced from the single dispatcher
  thread, so devices' noise streams stay sequential no matter how many
  server threads submit.

Overload behaviour (pinned by the same suite plus
``tests/test_serve_admission.py``):

* a ``submit`` whose wait times out — or whose caller deadline expires —
  marks its job **abandoned** before raising, and the dispatcher skips
  abandoned jobs instead of burning batch capacity computing answers
  nobody will read;
* a job carrying an expired :class:`~repro.serve.admission.Deadline` is
  dropped *before* dispatch with
  :class:`~repro.serve.admission.DeadlineExceeded`;
* an unexpected exception escaping the dispatcher loop does not hang the
  service: every pending job fails with a clear ``RuntimeError``, the
  coalescer marks itself closed (later ``submit`` calls raise
  immediately rather than blocking out their full timeout), and the
  crash is counted in ``errors``/``serve.coalesce.crashed``.

The dispatcher is one daemon thread; ``submit`` blocks the calling
(connection-handler) thread until its result lands, so server concurrency
is unchanged — only the compute is batched.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext

import numpy as np

from .. import obs
from ..core.batch import BatchEvaluator, coalesce_responses
from ..variation.environment import OperatingPoint
from .admission import Deadline, DeadlineExceeded

__all__ = ["RequestCoalescer"]


class _Job:
    """One pending evaluation and its completion signal."""

    __slots__ = (
        "evaluator",
        "op",
        "done",
        "result",
        "error",
        "request_id",
        "deadline",
        "abandoned",
    )

    def __init__(
        self,
        evaluator: BatchEvaluator,
        op: OperatingPoint,
        deadline: Deadline | None = None,
    ):
        self.evaluator = evaluator
        self.op = op
        self.done = threading.Event()
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        # Set by the submitter (under the coalescer's condition lock)
        # when it gives up waiting; the dispatcher skips abandoned jobs.
        self.abandoned = False
        self.deadline = deadline
        # Captured at submission on the handler thread, so the dispatcher
        # can stamp batch spans with every member request's id.
        self.request_id = obs.current_request_id()


class RequestCoalescer:
    """Batches concurrent PUF evaluations onto the vectorized engine.

    Args:
        max_batch: dispatch as soon as this many requests are pending.
        max_wait_s: how long the first request of a batch may wait for
            company before the batch dispatches anyway.  The window bounds
            added latency; 2 ms is invisible next to socket round-trips.
    """

    def __init__(self, max_batch: int = 64, max_wait_s: float = 0.002):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0.0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self._pending: deque[_Job] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._crash_error: BaseException | None = None
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._batches = 0
        self._batched_requests = 0
        self._max_batch_seen = 0
        self._dropped_abandoned = 0
        self._dropped_expired = 0
        self._thread = threading.Thread(
            target=self._run, name="ropuf-coalescer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Caller side
    # ------------------------------------------------------------------

    def submit(
        self,
        evaluator: BatchEvaluator,
        op: OperatingPoint,
        timeout: float = 30.0,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        """Evaluate one response through the next coalesced batch.

        Blocks until the dispatcher delivers this request's bits, the
        ``timeout`` elapses, or ``deadline`` (when given) expires —
        whichever comes first.  A timed-out or expired job is marked
        abandoned so the dispatcher will not waste a batch slot on it.

        Raises:
            RuntimeError: when the coalescer is closed (cleanly or by a
                dispatcher crash) or the wait times out.
            DeadlineExceeded: when the caller's deadline ran out before
                the result landed (or had already run out at submission).
            Exception: whatever the evaluator's delay gathering raised for
                *this* request (e.g. ``KeyError`` for an unmeasured
                operating point).
        """
        if deadline is not None and deadline.expired():
            with self._stats_lock:
                self._dropped_expired += 1
            obs.counter_add("serve.coalesce.dropped_expired")
            raise DeadlineExceeded(
                "deadline expired before coalescer submission"
            )
        job = _Job(evaluator, op, deadline=deadline)
        with self._cond:
            if self._closed:
                raise self._closed_error()
            self._pending.append(job)
            self._cond.notify()
        # Count the submission at enqueue, not on success: errored and
        # timed-out requests must stay visible in stats() instead of
        # silently vanishing from the request total.
        with self._stats_lock:
            self._requests += 1
        wait = timeout
        if deadline is not None:
            wait = min(wait, deadline.remaining_s())
        if not job.done.wait(wait):
            # Abandon under the lock so the dispatcher either sees the
            # flag before gathering, or has already drained the job (in
            # which case the computed result is simply discarded).  A
            # result that lands in the race window between the failed
            # wait and the lock is still delivered normally.
            with self._cond:
                if not job.done.is_set():
                    job.abandoned = True
                    try:
                        self._pending.remove(job)
                    except ValueError:
                        pass
            if job.abandoned:
                with self._stats_lock:
                    self._errors += 1
                if deadline is not None and deadline.expired():
                    with self._stats_lock:
                        self._dropped_expired += 1
                    obs.counter_add("serve.coalesce.dropped_expired")
                    raise DeadlineExceeded(
                        "deadline expired while waiting for the "
                        "coalesced batch"
                    )
                raise RuntimeError(
                    f"coalesced evaluation timed out after {timeout}s"
                )
        if job.error is not None:
            with self._stats_lock:
                self._errors += 1
            raise job.error
        return job.result

    def close(self) -> None:
        """Stop accepting work; queued jobs drain, then the thread exits."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether the coalescer stopped accepting work (close or crash)."""
        with self._cond:
            return self._closed

    def stats(self) -> dict:
        """Batching counters (plain JSON): sizes, batch count, mean.

        ``requests`` counts every submission (incremented at enqueue),
        ``errors`` the submissions that raised — delivery failures, wait
        timeouts, and dispatcher-crash failures — so ``requests -
        errors`` is the success total.  ``dropped_abandoned`` and
        ``dropped_expired`` count the jobs the dispatcher (or ``submit``
        itself) shed without evaluating.
        """
        with self._stats_lock:
            batches = self._batches
            batched = self._batched_requests
            return {
                "requests": self._requests,
                "errors": self._errors,
                "batches": batches,
                "max_batch": self._max_batch_seen,
                "mean_batch": (batched / batches) if batches else 0.0,
                "dropped_abandoned": self._dropped_abandoned,
                "dropped_expired": self._dropped_expired,
                "crashed": self._crash_error is not None,
            }

    # ------------------------------------------------------------------
    # Dispatcher side
    # ------------------------------------------------------------------

    def _closed_error(self) -> RuntimeError:
        if self._crash_error is not None:
            return RuntimeError(
                f"coalescer is closed: dispatcher crashed with "
                f"{self._crash_error!r}"
            )
        return RuntimeError("coalescer is closed")

    def _collect(self) -> list[_Job] | None:
        """Wait for work, then drain up to one batch (None on close)."""
        with self._cond:
            while not self._pending and not self._closed:
                self._cond.wait()
            if not self._pending and self._closed:
                return None
            deadline = time.monotonic() + self.max_wait_s
            while (
                len(self._pending) < self.max_batch and not self._closed
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    break
                self._cond.wait(timeout=remaining)
            batch = []
            while self._pending and len(batch) < self.max_batch:
                batch.append(self._pending.popleft())
            return batch

    def _run(self) -> None:
        # The guard around the loop is the difference between "one batch
        # failed" and "the service hangs": without it, an exception from
        # anywhere but the evaluator (a broken metrics hook, a bug in
        # batch bookkeeping) kills this thread silently and every later
        # submit() blocks for its full timeout.
        batch: list[_Job] = []
        try:
            while True:
                collected = self._collect()
                if collected is None:
                    return
                batch = collected
                self._dispatch(batch)
                batch = []
        except BaseException as exc:  # noqa: BLE001 - must fail pending jobs
            self._crash(exc, batch)

    def _crash(self, exc: BaseException, batch: list[_Job]) -> None:
        """Dispatcher died: fail everything in flight, close the shop."""
        with self._cond:
            self._closed = True
            self._crash_error = exc
            stranded = batch + list(self._pending)
            self._pending.clear()
            self._cond.notify_all()
        error = RuntimeError(f"coalescer dispatcher crashed: {exc!r}")
        failed = 0
        for job in stranded:
            if not job.done.is_set():
                job.error = error
                job.done.set()
                failed += 1
        with self._stats_lock:
            self._errors += failed
        obs.counter_add("serve.coalesce.crashed")

    def _dispatch(self, batch: list[_Job]) -> None:
        # Shed before gathering: jobs whose submitter already gave up
        # (abandoned) or whose deadline ran out must not consume a batch
        # slot — under overload those slots are exactly what is scarce.
        live: list[_Job] = []
        dropped_abandoned = 0
        dropped_expired = 0
        with self._cond:
            for job in batch:
                if job.abandoned:
                    dropped_abandoned += 1
                    job.done.set()
                else:
                    live.append(job)
        for job in list(live):
            if job.deadline is not None and job.deadline.expired():
                live.remove(job)
                dropped_expired += 1
                job.error = DeadlineExceeded(
                    "deadline expired before batch dispatch"
                )
                job.done.set()
        if dropped_abandoned or dropped_expired:
            with self._stats_lock:
                self._dropped_abandoned += dropped_abandoned
                self._dropped_expired += dropped_expired
            if dropped_abandoned:
                obs.counter_add(
                    "serve.coalesce.dropped_abandoned", dropped_abandoned
                )
            if dropped_expired:
                obs.counter_add(
                    "serve.coalesce.dropped_expired", dropped_expired
                )
        # Gather per job so one bad operating point fails only its own
        # request; everything that gathered cleanly is batched.
        ready: list[_Job] = []
        requests = []
        for job in live:
            try:
                requests.append(job.evaluator.delay_request(job.op))
                ready.append(job)
            except BaseException as exc:  # noqa: BLE001 - delivered to caller
                job.error = exc
                job.done.set()
        if ready:
            # Request-scoped tracing across the thread hop: the dispatch
            # span records every member request's id; when the batch
            # serves exactly one request, the dispatcher adopts that
            # request's context so the batch engine's own spans join the
            # same request tree.
            member_ids = sorted(
                {job.request_id for job in ready if job.request_id}
            )
            attrs = {"batch": len(ready)}
            if member_ids:
                attrs["request_ids"] = member_ids
            context = (
                obs.request_context(member_ids[0])
                if len(member_ids) == 1
                else nullcontext()
            )
            with context, obs.span("serve.coalesce.dispatch", **attrs):
                try:
                    responses = coalesce_responses(
                        [(job.evaluator, job.op) for job in ready],
                        requests=requests,
                    )
                    for job, bits in zip(ready, responses):
                        job.result = bits
                except BaseException as exc:  # noqa: BLE001
                    for job in ready:
                        job.error = exc
                finally:
                    for job in ready:
                        job.done.set()
            with self._stats_lock:
                self._batches += 1
                self._batched_requests += len(ready)
                self._max_batch_seen = max(self._max_batch_seen, len(ready))
            obs.histogram_observe("serve.coalesce.batch_size", len(ready))
            obs.counter_add("serve.coalesce.batches")
