"""One part of the program, run in a fresh interpreter.

Usage (from the checkout root, ``src`` on ``PYTHONPATH``)::

    python perfbench/child.py paper --seed N [--setup-only] [--trace-dir DIR]
    python perfbench/child.py fleet --seed N (same flags)
    python perfbench/child.py serve --trace-dir DIR -- <ropuf serve flags>

``paper`` and ``fleet`` print ``{"ready": t}`` once the program is ready
for work (imports done, dataset built).  Then, for each line read from
standard input, they run one pass (``paper``: one at ``jobs=1`` and three
at ``jobs=2``; ``fleet``: one at ``jobs=2``) and print ``{"pass": {...}}``
with its times.  At the end of input they print ``{"result": {...}}``,
which carries every pass and the digest of the first one; ``run.py``
compares that digest across interpreters (each has its own hash seed
and process state).  With ``--trace-dir`` the passes are traced.
``serve`` is the traced server's bootstrap: it wraps the serve layers,
runs ``ropuf serve`` and writes its spans when the server stops.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from functools import wraps

#: ``ropuf fleet`` at 128-bit responses: 6 shards of 4096 devices.
FLEET_SHAPE = {"devices": 24_576, "ro_count": 256, "shard_devices": 4096}
FLEET_JOBS = 2
#: ``jobs=2`` paper passes per ``jobs=1`` one: a pooled pass can only be
#: timed whole, so it needs more samples than the serial pass, whose
#: tasks are timed one by one.
PARALLEL_PASSES = 3


def _emit(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


def _ready() -> None:
    _emit({"ready": time.perf_counter()})


def _passes(one_pass, trace_dir, part: str) -> list[dict]:
    """Run one pass per line of standard input, until it ends."""
    if trace_dir is not None:
        import tracing

        tracing.install(part, trace_dir)
    passes = []
    for _ in sys.stdin:
        passes.append(one_pass())
        _emit({"pass": passes[-1]})
    if trace_dir is not None:
        tracing.dump(trace_dir, part)
    return passes


def _record_task_times(executor, task_s: dict) -> None:
    """Keep each in-process task's own ``wall_seconds`` in ``task_s``."""
    execute_task = executor.execute_task

    @wraps(execute_task)
    def timed(task_name, *args, **kwargs):
        payload = execute_task(task_name, *args, **kwargs)
        task_s[task_name] = payload["wall_seconds"]
        return payload

    executor.execute_task = timed


def _paper(args) -> dict:
    import repro.cli  # noqa: F401  (``ropuf all`` pays this import)
    import repro.pipeline.executor as executor
    import repro.pipeline.tasks  # noqa: F401
    from repro.datasets.vtlike import VTLikeConfig, generate_vt_like
    from repro.pipeline.executor import run_pipeline

    started = time.perf_counter()
    dataset = generate_vt_like(VTLikeConfig(seed=args.seed))
    build_s = time.perf_counter() - started
    _ready()
    if args.setup_only:
        return {}

    from checks import paper_digest, paper_failures, task_names

    windows = []
    task_s: dict[str, float] = {}
    _record_task_times(executor, task_s)
    state = {"reference": None, "attempted": 0, "failures": []}

    def timed_pass(jobs: int) -> float:
        begin = time.perf_counter()
        summary = run_pipeline(dataset, jobs=jobs)
        end = time.perf_counter()
        windows.append({"jobs": jobs, "start": begin, "end": end})
        state["attempted"] += len(task_names(summary))
        state["failures"] += paper_failures(summary, state["reference"])
        if state["reference"] is None:
            state["reference"] = summary
        return end - begin

    def one_pass() -> dict:
        task_s.clear()
        serial_s = timed_pass(1)
        return {
            "serial_s": serial_s,
            "task_s": dict(task_s),
            "parallel_s": [timed_pass(2) for _ in range(PARALLEL_PASSES)],
        }

    passes = _passes(one_pass, args.trace_dir, "paper")
    return {
        "dataset_build_s": build_s,
        "passes": passes,
        "windows": windows,
        "attempted": state["attempted"],
        "failures": state["failures"],
        "digest": paper_digest(state["reference"]),
    }


def _fleet(args) -> dict:
    import repro.cli  # noqa: F401  (``ropuf fleet`` pays this import)
    from repro.datasets.fleet import FleetSpec
    from repro.pipeline.fleet import run_fleet_analysis

    spec = FleetSpec(seed=args.seed, **FLEET_SHAPE)
    _ready()
    if args.setup_only:
        return {}

    from checks import fleet_failures
    from common import digest

    windows = []
    state = {"reference": None, "attempted": 0, "failures": []}

    def one_pass() -> dict:
        begin = time.perf_counter()
        summary = run_fleet_analysis(spec, jobs=FLEET_JOBS)
        end = time.perf_counter()
        windows.append({"jobs": FLEET_JOBS, "start": begin, "end": end})
        state["attempted"] += 1
        state["failures"] += fleet_failures(summary, state["reference"])
        if state["reference"] is None:
            state["reference"] = summary
        return {"pass_s": end - begin}

    passes = _passes(one_pass, args.trace_dir, "fleet")
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "devices": spec.devices,
        "passes": passes,
        "windows": windows,
        "parent_rss_mb": parent / 1024.0,
        "worker_rss_mb": children / 1024.0,
        "attempted": state["attempted"],
        "failures": state["failures"],
        "digest": digest(state["reference"]),
    }


def _serve(argv: list[str]) -> int:
    trace_dir = argv[argv.index("--trace-dir") + 1]
    serve_args = argv[argv.index("--") + 1 :]
    import repro.cli
    import tracing

    tracing.install("serve", trace_dir)
    try:
        return repro.cli.main(["serve", *serve_args])
    finally:
        tracing.dump(trace_dir, "serve")


def main(argv: list[str]) -> int:
    if argv and argv[0] == "serve":
        return _serve(argv[1:])
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("part", choices=("paper", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    run = _paper if args.part == "paper" else _fleet
    _emit({"result": run(args)})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
