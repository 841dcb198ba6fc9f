"""In-memory span recorder and the wrappers that trace calls into each layer.

Spans are recorded only from the benchmark's own files: :func:`install`
replaces the program's functions and methods with timing wrappers at the
places where their callers look them up (a ``from x import f`` copy in a
caller's module is patched there, not only in ``x``).  Nothing inside
``src/`` is edited and nothing there records a span for the benchmark.

Every process keeps its spans and counts in memory and writes them to one
JSON file when it ends (:func:`dump`): the benchmark's part children, the
forked pipeline workers (through a wrapper around the executor's worker
body), and the ``serve`` child (through ``perfbench/child.py serve``).

A span is ``[name, start, end, parent, rid, thread, attrs]``: ``start``
and ``end`` come from ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so spans of different processes share one
time axis.  ``parent`` is the index of the enclosing span on the same
thread (``-1`` at the root) and ``rid`` the serve request the span worked
for (``0`` outside serve).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

__all__ = [
    "SPANS",
    "COUNTS",
    "span",
    "count",
    "reset",
    "dump",
    "load_dir",
    "install",
]

SPANS: list[list] = []
COUNTS: dict[str, float] = defaultdict(float)
_LOCK = threading.Lock()
_LOCAL = threading.local()
_RIDS = iter(range(1, 1 << 62))


def _stack() -> list[int]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def current_rid() -> int:
    return getattr(_LOCAL, "rid", 0)


def new_rid() -> int:
    """Start a new serve request on this thread; later spans carry its id."""
    with _LOCK:
        rid = next(_RIDS)
    _LOCAL.rid = rid
    return rid


@contextmanager
def span(name: str, **attrs):
    stack = _stack()
    record = [
        name,
        time.perf_counter(),
        0.0,
        stack[-1] if stack else -1,
        current_rid(),
        threading.get_ident(),
        attrs,
    ]
    with _LOCK:
        index = len(SPANS)
        SPANS.append(record)
    stack.append(index)
    try:
        yield record
    finally:
        stack.pop()
        record[2] = time.perf_counter()


def count(name: str, amount: float = 1) -> None:
    with _LOCK:
        COUNTS[name] += amount


def reset() -> None:
    """Forget everything (a forked child starts from its parent's buffers)."""
    with _LOCK:
        SPANS.clear()
        COUNTS.clear()
    _LOCAL.__dict__.clear()


def dump(directory: str | Path, role: str) -> None:
    """Write this process's spans and counts to ``directory``."""
    doc = {"pid": os.getpid(), "role": role, "spans": SPANS, "counts": dict(COUNTS)}
    path = Path(directory) / f"spans-{role}-{os.getpid()}.json"
    path.write_text(json.dumps(doc))


def load_dir(directory: str | Path) -> list[dict]:
    return [
        json.loads(path.read_text())
        for path in sorted(Path(directory).glob("spans-*.json"))
    ]


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _timed(fn, name: str, measure=None):
    """``fn`` inside a span; ``measure(args, kwargs)`` gives span attrs."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = measure(args, kwargs) if measure is not None else {}
        with span(name, **attrs):
            return fn(*args, **kwargs)

    wrapper.__perfbench_original__ = fn
    return wrapper


def _patch(owner, attr: str, make) -> None:
    original = getattr(owner, attr)
    if hasattr(original, "__perfbench_original__"):
        return
    setattr(owner, attr, make(original))


def _patch_everywhere(modules, attr: str, make) -> None:
    """Patch ``attr`` in every module that holds its own reference to it."""
    made = {}
    for module in modules:
        original = getattr(module, attr)
        original = getattr(original, "__perfbench_original__", original)
        if id(original) not in made:
            made[id(original)] = make(original)
        setattr(module, attr, made[id(original)])


def _rows(args, kwargs) -> dict:
    return {"rows": int(len(args[0]))}


def _install_backends() -> None:
    from repro.backends.numpy_backend import NumpyBackend

    for kernel in (
        "masked_row_sums",
        "pair_delay_sums",
        "sweep_pair_delay_sums",
        "loo_delay_matrix",
        "loo_ddiffs",
    ):
        _patch(
            NumpyBackend,
            kernel,
            lambda fn, kernel=kernel: _timed(fn, f"backends.{kernel}"),
        )

    def gram_shape(args, kwargs):
        x = args[2]
        rows, bits = x.shape
        return {
            "ops": 2 * rows * bits * bits,
            # int64 operand read plus int64 Gram read-modify-write.
            "bytes": 8 * (rows * bits + 2 * bits * bits),
        }

    _patch(
        NumpyBackend,
        "gram_update",
        lambda fn: _timed(fn, "backends.gram_update", gram_shape),
    )


def _install_executor(dump_dir: str) -> None:
    import pickle

    import repro.pipeline.executor as executor
    import repro.pipeline.shm as shm

    def task_name(args, kwargs):
        # Fleet shard tasks are named ``fleet_shard:<index>:<spec>``.
        return {"task": args[0].split(":")[0]}

    _patch(
        executor,
        "execute_task",
        lambda fn: _timed(fn, "pipeline.task", task_name),
    )

    def wrap_encode(fn):
        @wraps(fn)
        def encode(payload):
            encoded = fn(payload)
            count("pipeline.executor.result_messages")
            count(
                "pipeline.executor.result_bytes",
                len(pickle.dumps(encoded, pickle.HIGHEST_PROTOCOL)),
            )
            return encoded

        encode.__perfbench_original__ = fn
        return encode

    _patch(shm, "encode_payload", wrap_encode)

    def wrap_worker(fn):
        @wraps(fn)
        def worker_main(*args, **kwargs):
            reset()
            try:
                return fn(*args, **kwargs)
            finally:
                dump(dump_dir, "worker")

        worker_main.__perfbench_original__ = fn
        return worker_main

    _patch(executor, "_worker_main", wrap_worker)


def _install_paper() -> None:
    import repro.core as core
    import repro.core.selection_batch as selection_batch
    import repro.experiments.ablations as ablations
    import repro.experiments.extensions as extensions
    import repro.experiments.nist_tables as nist_tables
    import repro.metrics as metrics
    import repro.metrics.hamming as hamming
    import repro.metrics.uniqueness as uniqueness
    import repro.nist as nist
    import repro.nist.suite as suite
    from repro.core.config_vector import ConfigVector
    from repro.core.puf import BoardROPUF, ChipROPUF
    from repro.distiller.regression import MeanDistiller, PolynomialDistiller

    for owner, method in (
        (BoardROPUF, "enroll"),
        (BoardROPUF, "enroll_sweep"),
        (ChipROPUF, "enroll"),
        (ChipROPUF, "enroll_batch"),
        (ChipROPUF, "enroll_sweep"),
    ):
        _patch(owner, method, lambda fn: _timed(fn, "core.puf.enroll"))

    def selector(fn):
        return _timed(fn, "core.selection_batch", _rows)

    for name in (
        "select_case1_batch",
        "select_case2_batch",
        "select_traditional_batch",
    ):
        holders = [selection_batch, core] + [
            module for module in (ablations, extensions) if hasattr(module, name)
        ]
        _patch_everywhere(holders, name, selector)
    methods = selection_batch.BATCH_SELECTION_METHODS
    for method, fn in list(methods.items()):
        methods[method] = getattr(selection_batch, fn.__name__)

    def wrap_post_init(fn):
        @wraps(fn)
        def post_init(self):
            count("core.config_vector.count")
            return fn(self)

        post_init.__perfbench_original__ = fn
        return post_init

    _patch(ConfigVector, "__post_init__", wrap_post_init)

    def pairwise_shape(args, kwargs):
        rows, bits = args[0].shape
        # int32 operand plus the int32 (m, m) Gram it computes.
        return {"bytes": 4 * (rows * bits + rows * rows)}

    _patch_everywhere(
        [hamming, uniqueness, metrics],
        "pairwise_hamming_distances",
        lambda fn: _timed(fn, "metrics.hamming.pairwise", pairwise_shape),
    )
    _patch_everywhere(
        [nist_tables, suite, nist],
        "evaluate_sequences",
        lambda fn: _timed(fn, "nist.suite", _rows),
    )
    for owner in (PolynomialDistiller, MeanDistiller):
        _patch(owner, "distill", lambda fn: _timed(fn, "distiller"))


def _install_fleet() -> None:
    import repro.pipeline.fleet as fleet
    from repro.datasets.fleet import FleetShard
    from repro.metrics.streaming import (
        StreamingReliability,
        StreamingUniformity,
        StreamingUniqueness,
    )

    _patch(
        fleet,
        "load_or_generate_shard",
        lambda fn: _timed(fn, "datasets.fleet.generate_shard"),
    )
    for method in ("response_bits", "reference_bits"):
        _patch(
            FleetShard,
            method,
            lambda fn: _timed(fn, "datasets.fleet.response_bits"),
        )
    for owner, short in (
        (StreamingUniqueness, "uniqueness"),
        (StreamingUniformity, "uniformity"),
        (StreamingReliability, "reliability"),
    ):
        _patch(
            owner,
            "update",
            lambda fn, short=short: _timed(
                fn, f"metrics.streaming.{short}_update"
            ),
        )
        _patch(owner, "merge", lambda fn: _timed(fn, "metrics.streaming.merge"))


class _CountingReader:
    """Read-through proxy that counts the bytes a frame read consumed."""

    def __init__(self, raw):
        self.raw = raw
        self.nbytes = 0

    def read(self, size=-1):
        data = self.raw.read(size)
        self.nbytes += len(data)
        return data


class _CountingWriter:
    def __init__(self, raw):
        self.raw = raw
        self.nbytes = 0

    def write(self, data):
        self.nbytes += len(data)
        return self.raw.write(data)

    def flush(self):
        return self.raw.flush()


def _install_serve() -> None:
    import repro.serve.coalescer as coalescer
    import repro.serve.server as server
    from repro.crypto.fuzzy_extractor import FuzzyExtractor
    from repro.serve.admission import AdmissionGate
    from repro.serve.service import AuthService
    from repro.serve.store import CRPStore

    def wrap_read(fn):
        @wraps(fn)
        def read_frame(rfile, *args, **kwargs):
            # Block until the next frame starts arriving, so the span
            # covers reading and decoding it, not the idle wait before it.
            rfile.peek(1)
            new_rid()
            reader = _CountingReader(rfile)
            with span("serve.protocol.decode") as record:
                try:
                    return fn(reader, *args, **kwargs)
                finally:
                    record[6]["bytes"] = reader.nbytes

        read_frame.__perfbench_original__ = fn
        return read_frame

    def wrap_write(fn):
        @wraps(fn)
        def write_frame(wfile, *args, **kwargs):
            writer = _CountingWriter(wfile)
            with span("serve.protocol.encode") as record:
                try:
                    return fn(writer, *args, **kwargs)
                finally:
                    record[6]["bytes"] = writer.nbytes

        write_frame.__perfbench_original__ = fn
        return write_frame

    _patch(server, "read_frame", wrap_read)
    _patch(server, "write_frame", wrap_write)

    def wrap_admit(fn):
        @wraps(fn)
        def try_admit(self, *args, **kwargs):
            with span("serve.admission", admitted=False) as record:
                permit = fn(self, *args, **kwargs)
                record[6]["admitted"] = True
                return permit

        try_admit.__perfbench_original__ = fn
        return try_admit

    _patch(AdmissionGate, "try_admit", wrap_admit)

    for verb in ("attest", "regen", "challenge", "auth"):
        _patch(
            AuthService,
            f"_op_{verb}",
            lambda fn, verb=verb: _timed(fn, f"serve.service.{verb}"),
        )
    _patch(CRPStore, "get", lambda fn: _timed(fn, "serve.store.get"))
    _patch(
        FuzzyExtractor,
        "reproduce",
        lambda fn: _timed(fn, "crypto.fuzzy_extractor.reproduce"),
    )
    _patch(
        coalescer.RequestCoalescer,
        "submit",
        lambda fn: _timed(fn, "serve.coalescer.submit"),
    )

    job_class = coalescer._Job
    if not hasattr(job_class, "__perfbench_original__"):

        class _TracedJob(job_class):
            """A coalescer job that remembers which request submitted it."""

            __perfbench_original__ = job_class

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.bench_rid = current_rid()

        coalescer._Job = _TracedJob

    def wrap_dispatch(fn):
        @wraps(fn)
        def dispatch(self, batch):
            rids = [getattr(job, "bench_rid", 0) for job in batch]
            with span("serve.coalescer.dispatch", rids=rids):
                return fn(self, batch)

        dispatch.__perfbench_original__ = fn
        return dispatch

    _patch(coalescer.RequestCoalescer, "_dispatch", wrap_dispatch)

    def coalesce_rows(args, kwargs):
        requests = kwargs.get("requests")
        rows = (
            sum(request.pair_count for request in requests)
            if requests is not None
            else 0
        )
        return {"rows": rows, "batch": len(args[0])}

    _patch(
        coalescer,
        "coalesce_responses",
        lambda fn: _timed(fn, "core.batch.coalesce", coalesce_rows),
    )


def install(part: str, dump_dir: str) -> None:
    """Wrap the layers the named part calls (``paper``/``fleet``/``serve``)."""
    _install_backends()
    if part == "serve":
        _install_serve()
        return
    _install_executor(dump_dir)
    if part == "paper":
        _install_paper()
    else:
        _install_fleet()
