"""Paths, child-process plumbing and result digests."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for span files, inside the checkout (ignored by git).
WORK = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, child failed)."""


def require_program() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")


def child_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(args: list[str], stdin=subprocess.DEVNULL) -> subprocess.Popen:
    """Start ``python <args>`` from the checkout root with ``src`` importable."""
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stdin=stdin,
        text=True,
    )


class Child:
    """``perfbench/child.py <args>``, running one pass per request.

    The child prints ``{"ready": <perf_counter>}`` when the program is
    ready for work, ``{"pass": {...}}`` after each pass asked for with a
    line on its standard input, and ``{"result": {...}}`` last, once its
    input is closed.  ``setup_s`` is the ready stamp minus the moment
    before the interpreter was started (``perf_counter`` is the
    system-wide monotonic clock).  Every wait is bounded by ``timeout``
    seconds, after which the child is killed.
    """

    def __init__(self, args: list[str], timeout: float):
        self.name = args[0]
        self.timeout = timeout
        started = time.perf_counter()
        self.proc = spawn(
            [str(BENCH_DIR / "child.py"), *args], stdin=subprocess.PIPE
        )
        try:
            self.setup_s = self._read("ready") - started
        except BaseException:
            self.kill()
            raise

    def _read(self, key: str):
        watchdog = threading.Timer(self.timeout, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("{"):
                    doc = json.loads(line)
                    if key in doc:
                        return doc[key]
        finally:
            watchdog.cancel()
        self.kill()
        raise BenchError(f"child {self.name} failed (exit {self.proc.returncode})")

    def run_pass(self) -> dict:
        try:
            self.proc.stdin.write("pass\n")
            self.proc.stdin.flush()
            return self._read("pass")
        except BaseException:
            self.kill()
            raise

    def finish(self) -> dict:
        """Close the child's input; return its result once it has exited."""
        try:
            self.proc.stdin.close()
            result = self._read("result")
            if self.proc.wait(self.timeout) != 0:
                raise BenchError(f"child {self.name} exited {self.proc.returncode}")
            return result
        except BaseException:
            self.kill()
            raise

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


def run_child(args: list[str], passes: int, timeout: float) -> tuple[float, dict]:
    """Run a child for ``passes`` passes; return (setup seconds, result)."""
    child = Child(args, timeout)
    for _ in range(passes):
        child.run_pass()
    return child.setup_s, child.finish()


def digest(value) -> str:
    """sha256 of canonical JSON, ignoring ``_``-prefixed (timing) keys."""
    if isinstance(value, dict):
        value = {k: v for k, v in value.items() if not str(k).startswith("_")}
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
