"""The ``serve`` part: ``ropuf serve`` in a child, driven in three phases.

The traced run drives it to break a request round down into layers.  Its
end-to-end latencies are not benchmark metrics: on a shared host they
move with the other tenants' load by more than any useful bound.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import time

import loadgen
from common import BENCH_DIR, BenchError, spawn

_READY = re.compile(r"^ropuf serve: .* on (\S+):(\d+)\s*$")
#: Open-loop rates (rounds/s) of the ``low`` and ``high`` phases.  With
#: two connections, CPU contention from other tenants of the host pulls
#: the closed-loop capacity down to 260-450 rounds/s at times; ``high``
#: stays below that so it measures latency, not a growing backlog.
RATES = {"low": 100.0, "high": 200.0}
#: Seconds of each phase in one cycle (50 rounds per open-loop phase).
CYCLE = {"low": 0.5, "high": 0.25, "capacity": 0.25}
WARMUP_ROUNDS = 60
#: Seconds the server may take to enrol its devices and print its address.
READY_TIMEOUT = 120.0


def start_server(seed: int, trace_dir: str):
    """Start a traced ``ropuf serve --seed N`` through ``child.py serve``;
    (process, host, port) once it prints its ``ropuf serve: ... on
    host:port`` line."""
    proc = spawn(
        [str(BENCH_DIR / "child.py"), "serve", "--trace-dir", trace_dir,
         "--", "--seed", str(seed)]
    )
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.perf_counter() + READY_TIMEOUT
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not selector.select(remaining):
                raise BenchError("ropuf serve did not become ready")
            line = proc.stdout.readline()
            if not line:
                raise BenchError(f"ropuf serve exited ({proc.wait()})")
            match = _READY.match(line)
            if match:
                return proc, match.group(1), int(match.group(2))
    except BaseException:
        stop_server(proc)
        raise
    finally:
        selector.close()


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM (the CLI's graceful path) and wait; kill if it lingers."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def twin_answers(seed: int) -> tuple[dict, dict]:
    """Genuine responses of a twin farm built from the server's config.

    Returns ``({device: [corner, ...]}, {(device, corner): bits})``.  The
    twin is the benchmark's own object: computing answers never touches
    the served devices' noise generators, and none of it is timed.
    """
    from repro.serve import DeviceFarm, FleetConfig

    farm = DeviceFarm.from_config(FleetConfig(seed=seed))
    corners: dict[str, list[tuple[float, float]]] = {}
    answers = {}
    for device in farm:
        corners[device.device_id] = []
        for op in device.corners:
            corner = (op.voltage, op.temperature)
            corners[device.device_id].append(corner)
            bits = device.evaluator.response(op)
            answers[(device.device_id, corner)] = [bool(b) for b in bits]
    return corners, answers


def run_phases(
    host: str, port: int, seed: int, corners: dict, answers: dict, cycles: int
) -> dict[str, list[loadgen.Outcome]]:
    """Warm up, then ``cycles`` passes through ``low``, ``high`` and
    ``capacity``; returns each phase's outcomes over all cycles.

    Interleaving short phases spreads each one over the whole run, so
    contention on the host lands on all three alike.
    """
    # At most nproc connections (and so loadgen threads), and two at most:
    # enough for requests to share coalesced batches.
    count = max(1, min(2, os.cpu_count() or 1))
    conns = [loadgen.Connection(host, port) for _ in range(count)]
    phases: dict[str, list[loadgen.Outcome]] = {phase: [] for phase in CYCLE}
    try:
        warmup = loadgen.schedule(seed, "warmup", corners, None, WARMUP_ROUNDS)
        loadgen.closed_loop(conns, warmup, answers, seconds=60.0)
        for cycle in range(cycles):
            for phase, rate in RATES.items():
                rounds = loadgen.schedule(
                    seed, f"{phase}:{cycle}", corners, rate,
                    int(rate * CYCLE[phase]),
                )
                phases[phase] += loadgen.open_loop(conns, rounds, answers)
            rounds = loadgen.schedule(
                seed, f"capacity:{cycle}", corners, None,
                int(5000 * CYCLE["capacity"]),
            )
            phases["capacity"] += loadgen.closed_loop(
                conns, rounds, answers, CYCLE["capacity"]
            )
        return phases
    finally:
        for conn in conns:
            conn.close()
