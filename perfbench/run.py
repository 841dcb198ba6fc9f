"""The repository benchmark: ``ropuf all`` and ``ropuf fleet``, plus a
traced layer breakdown of ``ropuf serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {paper,fleet} --seed N \\
        --seconds S --trace {0,1}

Every run measures both parts of the program, so every metric in
``BENCHMARK.json`` is printed on every workload:

* ``paper`` — the full 13-task ``run_pipeline`` on the synthetic
  VT-shaped dataset, cache off, once at ``jobs=1`` and three times at
  ``jobs=2`` per pass;
* ``fleet`` — ``run_fleet_analysis`` over 24,576 devices with 128-bit
  responses, 4096-device shards, ``jobs=2``.

For ``--seconds`` the two parts take turns, one pass each, in two
generations of fresh interpreters; the fastest pass counts (for
``jobs=1``, each task's fastest, see ``fastest_serial_pass``).  The
times and the rate are then scaled by the run's host speed, timed with
a fixed loop between passes (``host_speed``); the unscaled figures go
to standard error.

The workload names the part whose inputs ``--seed`` draws (the dataset
for ``paper``, the ``FleetSpec`` for ``fleet``; the other part keeps the
program's default seed), the part whose start-up ``setup_s`` times, and
the part whose time the traced run adds up.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
part once more with spans recorded around the calls into each layer,
also drives ``ropuf serve`` for 8 seconds (see ``servepart.py``),
and prints the per-layer metrics (see ``layers.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import shutil
import statistics
import subprocess
import sys
import time

import servepart
from common import (
    ROOT,
    SRC,
    WORK,
    BenchError,
    Child,
    child_env,
    require_program,
    run_child,
)

WORKLOADS = ("paper", "fleet")
PARTS = ("paper", "fleet", "serve")
#: The program's own default seed, used by the parts a workload does not seed.
DEFAULT_SEED = 20140601
#: Fresh interpreters per run for each of the paper and fleet parts, one
#: generation after the other, each for its share of ``--seconds``.
#: Within a generation the two parts take turns, so both sample the whole
#: run.  The host's other tenants slow a pass by up to half within
#: seconds, so every pass time reported is the fastest seen in the run,
#: not a median; and they slow the whole host by up to twice for minutes
#: at a time, so every time is scaled by the run's host speed
#: (``host_speed``).
GENERATIONS = 2
#: Seconds the reference loop takes on a quiet host (a 2-vCPU Xeon VM);
#: it sets the scale of the reported times, nothing else.
REFERENCE_S = 0.034
#: Reference loops timed after each pass and each set-up-only child.
REFERENCE_REPEATS = 3
#: The order in which the parts take turns, one pass a turn: the fleet
#: pass is steadier than the paper one, so it runs every other turn.
TURNS = ("paper", "fleet", "paper")
#: Fresh interpreters timed per run for ``setup_s``, their median: the
#: workload part's measured children and set-up-only ones started
#: between passes.
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170.0
#: Seconds of ``ropuf serve`` phase cycles in a traced run.
SERVE_SECONDS = 8.0


class Tally:
    """Attempted and failed operations across the parts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        #: First-pass digest of each part's first child.
        self.digests: dict[str, str] = {}

    def add(self, part: str, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures += [f"{part}: {failure}" for failure in failures]

    def child(self, part: str, result: dict) -> None:
        """Count a child's passes; every child after the part's first is
        one more operation, failed when its first pass differs from the
        first child's."""
        self.add(part, result["attempted"], result["failures"])
        if part not in self.digests:
            self.digests[part] = result["digest"]
        elif result["digest"] != self.digests[part]:
            self.add(part, 1, ["result differs from the first interpreter's"])
        else:
            self.add(part, 1, [])


def _seeds(workload: str, seed: int) -> dict[str, int]:
    return {part: seed if part == workload else DEFAULT_SEED for part in PARTS}


def fastest_serial_pass(passes: list[dict]) -> float:
    """A ``jobs=1`` pass with each task at its fastest in the run.

    Each task's own ``wall_seconds`` is kept from every pass; the sum of
    their minima plus the smallest remainder of a pass outside its tasks
    (the executor's own work) is one pass that met no slow spell, which
    a minimum over whole passes reaches only when a spell-free stretch
    is as long as a pass.
    """
    tasks = passes[0]["task_s"]
    fastest = sum(min(p["task_s"][task] for p in passes) for task in tasks)
    outside = min(p["serial_s"] - sum(p["task_s"].values()) for p in passes)
    return fastest + outside


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes in this process.

    ``run.py`` imports nothing from the program for an untraced run, so
    no change to the program can move this time; only the host's speed
    does.
    """
    began = time.perf_counter()
    total, table = 0, {}
    for i in range(300_000):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - began


def host_speed(reference_s: list[float]) -> float:
    """The run's host speed against a quiet host: :data:`REFERENCE_S`
    over the run's fastest reference loop.

    Over ten one-minute stretches of back-to-back ``jobs=1`` passes, the
    stretches' summed per-task minima spread 0.25-0.30 (quartile distance
    over median) as the host slowed and recovered; divided by the
    stretch's fastest reference loop they spread 0.06-0.11.
    """
    return REFERENCE_S / min(reference_s)


def untraced(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    tally = Tally()
    seeds = _seeds(workload, seed)
    setup_only = [workload, "--seed", str(seeds[workload]), "--setup-only"]
    setups, reference_s, results = [], [], {"paper": [], "fleet": []}
    extra = SETUP_SAMPLES - GENERATIONS
    start = time.perf_counter()
    for generation in range(GENERATIONS):
        end = start + seconds * (generation + 1) / GENERATIONS
        setup_left = extra // GENERATIONS + (generation < extra % GENERATIONS)
        children = {}
        try:
            for part in results:
                args = [part, "--seed", str(seeds[part])]
                children[part] = Child(args, CHILD_TIMEOUT)
            setups.append(children[workload].setup_s)
            last_s: dict[str, float] = {}
            for turn in itertools.count():
                part = TURNS[turn % len(TURNS)]
                fits = time.perf_counter() + last_s.get(part, 0.0) <= end
                if not fits and len(last_s) == len(children):
                    break
                began = time.perf_counter()
                children[part].run_pass()
                last_s[part] = time.perf_counter() - began
                reference_s += [reference_loop() for _ in range(REFERENCE_REPEATS)]
                if setup_left:
                    setups.append(run_child(setup_only, 0, CHILD_TIMEOUT)[0])
                    setup_left -= 1
            for _ in range(setup_left):
                setups.append(run_child(setup_only, 0, CHILD_TIMEOUT)[0])
            for part, child in children.items():
                results[part].append(child.finish())
                tally.child(part, results[part][-1])
        finally:
            for child in children.values():
                child.kill()
    paper = [p for result in results["paper"] for p in result["passes"]]
    fleet = [p for result in results["fleet"] for p in result["passes"]]
    measured = {
        "setup_s": statistics.median(setups),
        "paper.serial_s": fastest_serial_pass(paper),
        "paper.parallel_s": min(min(p["parallel_s"]) for p in paper),
        "fleet.devices_per_s": (
            results["fleet"][0]["devices"] / min(p["pass_s"] for p in fleet)
        ),
        "fleet.peak_rss_mb": max(
            max(r["parent_rss_mb"], r["worker_rss_mb"]) for r in results["fleet"]
        ),
    }
    speed = host_speed(reference_s)
    print(
        f"perfbench: host speed {speed:.4f}, unscaled {json.dumps(measured)}",
        file=sys.stderr,
    )
    metrics = dict(measured)
    for name in ("setup_s", "paper.serial_s", "paper.parallel_s"):
        metrics[name] *= speed
    metrics["fleet.devices_per_s"] /= speed
    return tally, metrics


def _serve(seed: int, seconds: float, trace_dir: str) -> dict:
    """Drive a traced ``ropuf serve`` for ``seconds`` of phase cycles."""
    corners, answers = servepart.twin_answers(seed)
    cycles = math.ceil(seconds / sum(servepart.CYCLE.values()))
    proc, host, port = servepart.start_server(seed, trace_dir)
    try:
        return servepart.run_phases(host, port, seed, corners, answers, cycles)
    finally:
        servepart.stop_server(proc)


def traced(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Per-layer metrics, plus how they add up for the workload's part.

    ``trace.overhead_s`` is the part's traced minus untraced time for one
    pass in a fresh interpreter (``jobs=1`` for ``paper``) and
    ``trace.unattributed_s`` the untraced time not covered by the self
    times along its blocking steps (``layers.*_attribution``).
    """
    import layers
    import tracing

    tally = Tally()
    seeds = _seeds(workload, seed)
    root = WORK / f"trace-{time.time_ns()}"
    dirs = {part: root / part for part in PARTS}
    try:
        for directory in dirs.values():
            directory.mkdir(parents=True)
        metrics: dict = {}
        for part in ("paper", "fleet"):
            args = [part, "--seed", str(seeds[part])]
            if part == workload:
                _, plain = run_child(args, 1, CHILD_TIMEOUT)
                tally.child(part, plain)
                (first,) = plain["passes"]
                untraced_s = first["serial_s" if part == "paper" else "pass_s"]
            _, result = run_child(
                args + ["--trace-dir", str(dirs[part])], 1, CHILD_TIMEOUT
            )
            tally.child(part, result)
            processes = [
                layers.Process(doc) for doc in tracing.load_dir(dirs[part])
            ]
            parent = next(p for p in processes if p.doc["role"] == part)
            workers = [p for p in processes if p.doc["role"] == "worker"]
            if part == "paper":
                metrics.update(layers.paper_layers(parent, workers, result))
                attribution = layers.paper_attribution(metrics, result)
            else:
                metrics.update(layers.fleet_layers(parent, workers, result))
                attribution = layers.fleet_attribution(
                    parent, workers, metrics, result
                )
            if part == workload:
                steps, traced_s = attribution

        phases = _serve(seeds["serve"], SERVE_SECONDS, str(dirs["serve"]))
        for phase, outcomes in phases.items():
            tally.add(
                f"serve {phase}",
                len(outcomes),
                [o.error for o in outcomes if o.error is not None],
            )
        server_docs = tracing.load_dir(dirs["serve"])
        if len(server_docs) != 1:
            raise BenchError("the traced server wrote no spans")
        server = layers.Process(server_docs[0])
        metrics.update(layers.serve_layers(server, phases))

        everything = [
            layers.Process(doc)
            for part in PARTS
            for doc in tracing.load_dir(dirs[part])
        ]
        metrics.update(layers.backend_layers(everything))
        metrics.update(layers.import_layers(_importtime()))
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.unattributed_s"] = untraced_s - steps
        return tally, metrics
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _importtime() -> str:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError("import repro.cli failed")
    return proc.stderr


def report(tally: Tally, metrics: dict, declared: list[dict]) -> dict:
    """The result line; its metric names must be exactly the declared ones."""
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        raise BenchError(
            f"metrics missing {sorted(names - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - names)}"
        )
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        require_program()
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path.insert(0, str(SRC))
        WORK.mkdir(exist_ok=True)
        run = traced if args.trace else untraced
        tally, metrics = run(args.workload, args.seed, args.seconds)
        key = "per_layer" if args.trace else "end_to_end"
        doc = report(tally, metrics, declared[key])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in tally.failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
