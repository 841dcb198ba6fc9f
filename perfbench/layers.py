"""Per-layer metrics from the traced run's spans.

Conventions (every name below is printed by ``run.py --trace 1``):

* ``paper`` layers come from one traced serial (``jobs=1``) pass, except
  ``pipeline.executor.paper.*`` which describe the ``jobs=2`` pass.
* ``fleet`` layers are totals over one traced pass, summed over workers.
* ``serve.<phase>.*_s`` are seconds per request round: the time the layer
  blocked rounds of that phase, summed, divided by the rounds.  Counts
  are per phase; ``frame_bytes`` is per request.
* ``backends.*`` sum every kernel call of the traced run (all parts).
* A layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import bisect
import re
from collections import defaultdict

PAPER_TASKS = (
    "table1_nist_case1",
    "table2_nist_case2",
    "nist_raw",
    "fig3_uniqueness",
    "table3_configs_case1",
    "table4_configs_case2",
    "fig4_voltage",
    "fig4_temperature",
    "table5_bits",
    "sec4e_threshold",
    "ablation_distiller",
    "ablation_attacks",
    "ecc_cost",
)
KERNELS = (
    "masked_row_sums",
    "pair_delay_sums",
    "sweep_pair_delay_sums",
    "loo_delay_matrix",
    "loo_ddiffs",
    "gram_update",
)
PHASES = ("low", "high", "capacity")
OPEN_PHASES = ("low", "high")
VERBS = ("attest", "regen", "challenge", "auth")


class Process:
    """One process's spans with durations, self times and lookups."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.spans = doc["spans"]
        self.counts = doc.get("counts", {})
        self.dur = [end - start for _, start, end, *_ in self.spans]
        self.self_time = list(self.dur)
        for index, record in enumerate(self.spans):
            parent = record[3]
            if parent >= 0:
                self.self_time[parent] -= self.dur[index]

    def select(self, name: str, window=None) -> list[int]:
        """Indices of ``name`` spans starting in ``window``.

        A span nested inside another span of the same name is left out,
        so summed durations count each second once.
        """
        return [
            index
            for index, record in enumerate(self.spans)
            if record[0] == name
            and (window is None or window[0] <= record[1] <= window[1])
            and not self._nested_in_same(index)
        ]

    def _nested_in_same(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def total(self, name: str, window=None) -> float:
        return sum(self.dur[i] for i in self.select(name, window))

    def attr_sum(self, name: str, attr: str, window=None) -> float:
        return sum(
            self.spans[i][6].get(attr, 0) for i in self.select(name, window)
        )


def _window(result: dict, jobs: int) -> tuple[float, float]:
    for window in result["windows"]:
        if window["jobs"] == jobs:
            return window["start"], window["end"]
    raise ValueError(f"no jobs={jobs} pass in the traced result")


def executor_layers(workers: list[Process], window) -> dict:
    """Busy fraction and overhead of one pooled pass."""
    per_worker = [worker.total("pipeline.task", window) for worker in workers]
    wall = window[1] - window[0]
    jobs = max(1, len(workers))
    return {
        "busy_frac": sum(per_worker) / (jobs * wall),
        "busiest_s": max(per_worker, default=0.0),
        "wall_s": wall,
    }


def paper_layers(parent: Process, workers: list[Process], result: dict) -> dict:
    serial = _window(result, 1)
    metrics = {}
    tasks = {
        parent.spans[i][6]["task"]: parent.dur[i]
        for i in parent.select("pipeline.task", serial)
    }
    for task in PAPER_TASKS:
        metrics[f"experiments.{task}_s"] = tasks.get(task, 0.0)
    enroll = parent.select("core.puf.enroll", serial)
    metrics["core.puf.enroll.calls"] = len(enroll)
    metrics["core.puf.enroll.s"] = sum(parent.dur[i] for i in enroll)
    metrics["core.selection_batch.rows"] = parent.attr_sum(
        "core.selection_batch", "rows", serial
    )
    metrics["core.selection_batch.s"] = parent.total("core.selection_batch", serial)
    metrics["core.config_vector.count"] = parent.counts.get(
        "core.config_vector.count", 0
    )
    pairwise = parent.select("metrics.hamming.pairwise", serial)
    metrics["metrics.hamming.pairwise.calls"] = len(pairwise)
    metrics["metrics.hamming.pairwise.s"] = sum(parent.dur[i] for i in pairwise)
    metrics["metrics.hamming.pairwise.computed_bytes"] = parent.attr_sum(
        "metrics.hamming.pairwise", "bytes", serial
    )
    metrics["nist.suite.sequences"] = parent.attr_sum("nist.suite", "rows", serial)
    metrics["nist.suite.s"] = parent.total("nist.suite", serial)
    metrics["distiller.s"] = parent.total("distiller", serial)
    metrics["datasets.vtlike.build_s"] = result["dataset_build_s"]
    pooled = executor_layers(workers, _window(result, 2))
    metrics["pipeline.executor.paper.busy_frac"] = pooled["busy_frac"]
    metrics["pipeline.executor.paper.overhead_s"] = (
        pooled["wall_s"] - pooled["busiest_s"]
    )
    return metrics


def paper_attribution(metrics: dict, result: dict) -> tuple[float, float]:
    """(blocking steps of the serial pass, traced serial pass seconds)."""
    steps = sum(metrics[f"experiments.{task}_s"] for task in PAPER_TASKS)
    return steps, result["passes"][0]["serial_s"]


FLEET_SHARD_LAYERS = (
    "datasets.fleet.generate_shard",
    "datasets.fleet.response_bits",
    "metrics.streaming.uniqueness_update",
    "metrics.streaming.uniformity_update",
    "metrics.streaming.reliability_update",
)


def fleet_layers(parent: Process, workers: list[Process], result: dict) -> dict:
    window = _window(result, 2)
    metrics = {}
    for name in FLEET_SHARD_LAYERS:
        metrics[f"{name}_s"] = sum(worker.total(name, window) for worker in workers)
    metrics["metrics.streaming.merge_s"] = parent.total(
        "metrics.streaming.merge", window
    )
    pooled = executor_layers(workers, window)
    metrics["pipeline.executor.fleet.busy_frac"] = pooled["busy_frac"]
    metrics["pipeline.executor.fleet.overhead_s"] = (
        pooled["wall_s"] - pooled["busiest_s"] - metrics["metrics.streaming.merge_s"]
    )
    messages = sum(w.counts.get("pipeline.executor.result_messages", 0) for w in workers)
    sent = sum(w.counts.get("pipeline.executor.result_bytes", 0) for w in workers)
    metrics["pipeline.executor.result_bytes"] = sent / max(1, messages)
    metrics["rss.parent_mb"] = result["parent_rss_mb"]
    metrics["rss.worker_mb"] = result["worker_rss_mb"]
    return metrics


def fleet_attribution(
    parent: Process, workers: list[Process], metrics: dict, result: dict
) -> tuple[float, float]:
    """(blocking steps of the pass, traced pass seconds).

    The steps are the busiest worker's shard layers (with the Gram kernel
    inside the uniqueness fold), the parent's merge, and the executor's
    own overhead around them.
    """
    window = _window(result, 2)
    busiest = max(workers, key=lambda w: w.total("pipeline.task", window))
    steps = sum(busiest.total(name, window) for name in FLEET_SHARD_LAYERS)
    steps += metrics["metrics.streaming.merge_s"]
    steps += metrics["pipeline.executor.fleet.overhead_s"]
    return steps, result["passes"][0]["pass_s"]


def backend_layers(processes: list[Process]) -> dict:
    metrics = {}
    for kernel in KERNELS:
        name = f"backends.{kernel}"
        metrics[f"{name}.calls"] = sum(len(p.select(name)) for p in processes)
        metrics[f"{name}.s"] = sum(p.total(name) for p in processes)
    metrics["backends.gram_update.ops"] = sum(
        p.attr_sum("backends.gram_update", "ops") for p in processes
    )
    metrics["backends.gram_update.computed_bytes"] = sum(
        p.attr_sum("backends.gram_update", "bytes") for p in processes
    )
    return metrics


def _phase_of(phases: dict):
    """Map a server-side time stamp to the phase of the client request
    that was in flight then (each connection has one at a time, and the
    phases run one after another)."""
    intervals = sorted(
        (sent, received, phase)
        for phase, outcomes in phases.items()
        for o in outcomes
        for sent, received in o.requests
    )
    starts = [interval[0] for interval in intervals]

    def phase_of(stamp: float):
        index = bisect.bisect_right(starts, stamp) - 1
        if index >= 0 and stamp <= intervals[index][1]:
            return intervals[index][2]
        return None

    return phase_of


def serve_layers(server: Process, phases: dict) -> dict:
    """Per-phase serve layers; ``phases`` maps phase -> loadgen outcomes."""
    by_rid = defaultdict(list)
    kernel_of = {}
    for index, record in enumerate(server.spans):
        by_rid[record[4]].append(index)
        if record[0] == "core.batch.coalesce":
            dispatch = record[3]
            for rid in server.spans[dispatch][6].get("rids", ()):
                kernel_of[rid] = index
    phase_of = _phase_of(phases)
    decodes = defaultdict(list)
    for index in server.select("serve.protocol.decode"):
        decodes[phase_of(server.spans[index][1])].append(index)
    metrics = {}
    for phase in PHASES:
        outcomes = phases[phase]
        rounds = len(outcomes)
        sums = defaultdict(float)
        requests = 0
        handled = 0.0
        batches = set()
        for decode in decodes[phase]:
            rid = server.spans[decode][4]
            requests += 1
            sums["frame_bytes"] += server.spans[decode][6].get("bytes", 0)
            encode_end = server.spans[decode][2]
            for index in by_rid[rid]:
                name = server.spans[index][0]
                if name == "serve.protocol.encode":
                    sums["frame_bytes"] += server.spans[index][6].get("bytes", 0)
                    encode_end = server.spans[index][2]
                    sums["protocol.encode_s"] += server.dur[index]
                elif name == "serve.protocol.decode":
                    sums["protocol.decode_s"] += server.dur[index]
                elif name == "serve.admission":
                    admitted = server.spans[index][6].get("admitted")
                    sums["admission.admitted" if admitted else "admission.shed"] += 1
                elif name == "serve.coalescer.submit":
                    kernel = kernel_of.get(rid)
                    kernel_s = server.dur[kernel] if kernel is not None else 0.0
                    if kernel is not None:
                        batches.add(kernel)
                    sums["coalescer.wait_s"] += server.dur[index] - kernel_s
                    sums["core.batch.coalesce_s"] += kernel_s
                elif name.startswith("serve.service."):
                    verb = name.rsplit(".", 1)[1]
                    sums[f"service.{verb}_s"] += server.self_time[index]
                elif name == "serve.store.get":
                    sums["store.get_s"] += server.dur[index]
                elif name == "crypto.fuzzy_extractor.reproduce":
                    sums["crypto.fuzzy_extractor.reproduce_s"] += server.dur[index]
            handled += encode_end - server.spans[decode][1]
        client = sum(
            received - sent for o in outcomes for sent, received in o.requests
        )
        sizes = [server.spans[k][6]["batch"] for k in batches]
        prefix = f"serve.{phase}."
        for name in (
            "protocol.decode_s",
            "protocol.encode_s",
            "coalescer.wait_s",
            "core.batch.coalesce_s",
            "store.get_s",
            "crypto.fuzzy_extractor.reproduce_s",
        ) + tuple(f"service.{verb}_s" for verb in VERBS):
            metrics[prefix + name] = sums[name] / rounds
        metrics[prefix + "protocol.frame_bytes"] = sums["frame_bytes"] / max(
            1, requests
        )
        metrics[prefix + "admission.admitted"] = sums["admission.admitted"]
        metrics[prefix + "admission.shed"] = sums["admission.shed"]
        metrics[prefix + "coalescer.batches"] = len(batches)
        metrics[prefix + "coalescer.batch_size_mean"] = (
            sum(sizes) / len(sizes) if sizes else 0.0
        )
        metrics[prefix + "coalescer.batch_size_max"] = max(sizes, default=0)
        metrics[prefix + "core.batch.rows"] = sum(
            server.spans[k][6]["rows"] for k in batches
        )
        metrics[prefix + "wire_s"] = (client - handled) / rounds
        metrics[prefix + "loadgen.late_ms"] = (
            1000.0 * sum(o.late for o in outcomes) / rounds
        )
        if phase in OPEN_PHASES:
            # Waiting for a free connection; zero by definition in a
            # closed loop, where a round is due when it is sent.
            metrics[prefix + "loadgen.queue_s"] = (
                sum(o.sent - o.due for o in outcomes) / rounds
            )
    return metrics


SERVE_STEPS = (
    "loadgen.queue_s",
    "wire_s",
    "protocol.decode_s",
    "protocol.encode_s",
    "coalescer.wait_s",
    "core.batch.coalesce_s",
    "store.get_s",
    "crypto.fuzzy_extractor.reproduce_s",
) + tuple(f"service.{verb}_s" for verb in VERBS)


def serve_attribution(metrics: dict, phases: dict) -> tuple[float, float]:
    """(blocking steps of a ``low`` round, traced mean ``low`` round s)."""
    steps = sum(metrics[f"serve.low.{name}"] for name in SERVE_STEPS)
    outcomes = phases["low"]
    return steps, sum(o.latency for o in outcomes) / len(outcomes)


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_layers(stderr: str) -> dict:
    """``import.*`` from ``python -X importtime -c 'import repro.cli'``."""
    total = scipy = repro = 0
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        self_us, cumulative_us = int(match.group(1)), int(match.group(2))
        depth, module = len(match.group(3)), match.group(4)
        top = module.split(".")[0]
        if depth <= 1 and top == "repro":
            total += cumulative_us
        if top == "scipy":
            scipy += self_us
        elif top == "repro":
            repro += self_us
    return {
        "import.total_s": total / 1e6,
        "import.scipy_s": scipy / 1e6,
        "import.repro_s": repro / 1e6,
    }
