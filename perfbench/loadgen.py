"""Seeded open- and closed-loop load for ``ropuf serve``, from one process.

The generator owns at most ``nproc`` connections and exactly as many
threads (the calling thread drives the first connection).  Connections
are opened before timing starts.  An open-loop phase follows a seeded
Poisson schedule and times every round from the moment it was *due*, so
a stall that delays later rounds is counted against them; how late the
generator itself sent a round it was free to send is kept separately
(``late``).  A closed-loop phase sends each connection's next round as
soon as its previous one completes.

A round is one ``attest``, one ``regen``, or a ``challenge`` + ``auth``
pair, in a seeded equal mix.  Genuine answers come from a twin device
farm built by the caller from the server's ``FleetConfig``; every tenth
``auth`` sends the complement of the genuine answer, which a correct
server rejects.  A wrong verdict, an error frame, or a transport error
fails the round.

The wire format (4-byte big-endian length + JSON object) is spoken
directly, so client-side cost does not depend on the program's own
client library.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

_HEADER = struct.Struct(">I")
KINDS = ("attest", "regen", "auth")
#: Every ``COMPLEMENT_EVERY``-th auth round sends a wrong answer.
COMPLEMENT_EVERY = 10


@dataclass(frozen=True)
class Round:
    due: float  # seconds after the phase start (open loop)
    kind: str
    device: str
    corner: tuple[float, float]
    complement: bool = False


@dataclass
class Outcome:
    due: float
    sent: float
    done: float
    late: float
    error: str | None
    #: (send, receive) of every request in the round.
    requests: list[tuple[float, float]] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.done - self.due


def schedule(
    seed: int,
    phase: str,
    devices: dict[str, list[tuple[float, float]]],
    rate: float | None,
    count: int,
) -> list[Round]:
    """``count`` rounds; Poisson due times at ``rate``/s (``None``: all 0)."""
    rng = random.Random(f"{seed}:{phase}")
    ids = sorted(devices)
    rounds = []
    due = 0.0
    kinds: list[str] = []
    auths = 0
    for _ in range(count):
        if rate is not None:
            due += rng.expovariate(rate)
        if not kinds:
            kinds = list(KINDS)
            rng.shuffle(kinds)
        kind = kinds.pop()
        device = rng.choice(ids)
        complement = False
        if kind == "auth":
            auths += 1
            complement = auths % COMPLEMENT_EVERY == 0
        rounds.append(
            Round(due, kind, device, rng.choice(devices[device]), complement)
        )
    return rounds


class Connection:
    """One persistent connection speaking length-prefixed JSON frames."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def call(self, request: dict) -> tuple[dict, float, float]:
        payload = json.dumps(request, separators=(",", ":")).encode()
        sent = time.perf_counter()
        self.sock.sendall(_HEADER.pack(len(payload)) + payload)
        header = self.rfile.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ConnectionError("server closed the connection")
        (length,) = _HEADER.unpack(header)
        body = self.rfile.read(length)
        if len(body) < length:
            raise ConnectionError("truncated response frame")
        received = time.perf_counter()
        return json.loads(body), sent, received

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _bits(bits) -> str:
    return "".join("1" if b else "0" for b in bits)


def run_round(
    conn: Connection, rnd: Round, answers: dict
) -> tuple[str | None, list[tuple[float, float]]]:
    """Run one round; (failure reason or ``None``, request timings)."""
    voltage, temperature = rnd.corner
    timings = []
    if rnd.kind in ("attest", "regen"):
        response, sent, received = conn.call(
            {
                "op": rnd.kind,
                "device": rnd.device,
                "voltage": voltage,
                "temperature": temperature,
            }
        )
        timings.append((sent, received))
        flag = "accepted" if rnd.kind == "attest" else "verified"
        if not response.get("ok"):
            return f"{rnd.kind}: error frame {response}", timings
        if response.get(flag) is not True:
            return f"{rnd.kind}: genuine device not {flag}", timings
        return None, timings
    issued, sent, received = conn.call(
        {"op": "challenge", "device": rnd.device}
    )
    timings.append((sent, received))
    if not issued.get("ok"):
        return f"challenge: error frame {issued}", timings
    genuine = answers[(rnd.device, rnd.corner)]
    answer = [genuine[i] != rnd.complement for i in issued["indices"]]
    verdict, sent, received = conn.call(
        {
            "op": "auth",
            "device": rnd.device,
            "challenge_id": issued["challenge_id"],
            "answer": _bits(answer),
        }
    )
    timings.append((sent, received))
    if not verdict.get("ok"):
        return f"auth: error frame {verdict}", timings
    if verdict.get("accepted") is not (not rnd.complement):
        return f"auth: wrong verdict (complement={rnd.complement})", timings
    return None, timings


def _drive(conns, work) -> list[Outcome]:
    """Run ``work(conn, record)`` on every connection, one thread each."""
    outcomes: list[Outcome] = []
    lock = threading.Lock()

    def record(outcome: Outcome) -> None:
        with lock:
            outcomes.append(outcome)

    threads = [
        threading.Thread(target=work, args=(conn, record), daemon=True)
        for conn in conns[1:]
    ]
    for thread in threads:
        thread.start()
    work(conns[0], record)
    for thread in threads:
        thread.join()
    outcomes.sort(key=lambda outcome: outcome.sent)
    return outcomes


def _execute(conn, rnd, answers, due, sent, late) -> Outcome:
    try:
        error, timings = run_round(conn, rnd, answers)
    except (OSError, ValueError, KeyError) as exc:
        error, timings = f"{rnd.kind}: transport {exc!r}", []
    return Outcome(due, sent, time.perf_counter(), late, error, timings)


def open_loop(conns, rounds: list[Round], answers: dict) -> list[Outcome]:
    """Send each round at its due time on whichever connection is free."""
    cursor = iter(range(len(rounds)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.01

    def work(conn, record):
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            rnd = rounds[index]
            picked = time.perf_counter()
            due = start + rnd.due
            while (wait := due - time.perf_counter()) > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            record(
                _execute(conn, rnd, answers, due, sent, sent - max(due, picked))
            )

    return _drive(conns, work)


def closed_loop(
    conns, rounds: list[Round], answers: dict, seconds: float
) -> list[Outcome]:
    """Back-to-back rounds on every connection for ``seconds``."""
    cursor = iter(range(len(rounds)))
    lock = threading.Lock()
    stop = time.perf_counter() + seconds

    def work(conn, record):
        previous = time.perf_counter()
        while previous < stop:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            sent = time.perf_counter()
            outcome = _execute(
                conn, rounds[index], answers, sent, sent, sent - previous
            )
            record(outcome)
            previous = outcome.done

    return _drive(conns, work)
