"""The load generator counts every wrong verdict as one failed round."""

import json
import socketserver
import struct
import threading

import pytest

import loadgen

_HEADER = struct.Struct(">I")
DEVICES = {"dev0": [(1.0, 25.0)], "dev1": [(1.0, 25.0), (1.1, 85.0)]}
BITS = [True, False] * 16
ANSWERS = {(d, c): BITS for d, corners in DEVICES.items() for c in corners}


class _FakeHandler(socketserver.StreamRequestHandler):
    """Answers like a correct server, except for ``server.lie_on``."""

    def handle(self):
        while True:
            header = self.rfile.read(_HEADER.size)
            if len(header) < _HEADER.size:
                return
            request = json.loads(self.rfile.read(_HEADER.unpack(header)[0]))
            response = self.server.answer(request)
            payload = json.dumps(response).encode()
            self.wfile.write(_HEADER.pack(len(payload)) + payload)


class FakeServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, lie_on: str | None):
        super().__init__(("127.0.0.1", 0), _FakeHandler)
        self.lie_on = lie_on
        self.lies = 0
        self.lock = threading.Lock()
        self.challenges = {}

    def _lie(self, verb: str) -> bool:
        with self.lock:
            if verb == self.lie_on and self.lies == 0:
                self.lies += 1
                return True
        return False

    def answer(self, request: dict) -> dict:
        op = request["op"]
        if op == "attest":
            return {"ok": True, "accepted": not self._lie(op)}
        if op == "regen":
            return {"ok": True, "verified": not self._lie(op)}
        if op == "challenge":
            cid = f"c{len(self.challenges)}"
            self.challenges[cid] = [1, 4, 9]
            return {"ok": True, "challenge_id": cid, "indices": [1, 4, 9]}
        if op == "auth":
            expected = "".join("1" if BITS[i] else "0" for i in [1, 4, 9])
            accepted = request["answer"] == expected
            return {"ok": True, "accepted": accepted != self._lie(op)}
        return {"ok": False, "error": "unknown", "error_type": "UnknownOp"}


@pytest.fixture
def fake_server(request):
    server = FakeServer(request.param)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _connections(server, count=2):
    host, port = server.server_address
    return [loadgen.Connection(host, port) for _ in range(count)]


def test_schedule_is_seeded_and_mixes_kinds_equally():
    first = loadgen.schedule(7, "low", DEVICES, 100.0, 300)
    assert first == loadgen.schedule(7, "low", DEVICES, 100.0, 300)
    assert first != loadgen.schedule(8, "low", DEVICES, 100.0, 300)
    kinds = [r.kind for r in first]
    assert all(kinds.count(kind) == 100 for kind in loadgen.KINDS)
    auths = [r for r in first if r.kind == "auth"]
    assert [r.complement for r in auths].count(True) == 10
    assert all(b.due > a.due for a, b in zip(first, first[1:]))


@pytest.mark.parametrize(
    "fake_server", [None, "attest", "regen", "auth"], indirect=True
)
def test_one_wrong_verdict_is_one_failed_round(fake_server):
    conns = _connections(fake_server)
    try:
        rounds = loadgen.schedule(3, "low", DEVICES, 2000.0, 90)
        outcomes = loadgen.open_loop(conns, rounds, ANSWERS)
    finally:
        for conn in conns:
            conn.close()
    failed = [o for o in outcomes if o.error is not None]
    assert len(outcomes) == 90
    assert len(failed) == (0 if fake_server.lie_on is None else 1)
    assert all(o.latency >= 0 and o.late >= 0 for o in outcomes)


@pytest.mark.parametrize("fake_server", [None], indirect=True)
def test_closed_loop_and_transport_errors(fake_server):
    conns = _connections(fake_server)
    rounds = loadgen.schedule(3, "capacity", DEVICES, None, 10_000)
    outcomes = loadgen.closed_loop(conns, rounds, ANSWERS, seconds=0.2)
    assert outcomes and all(o.error is None for o in outcomes)
    for conn in conns:
        conn.close()
    broken = loadgen.closed_loop(conns[:1], rounds[:3], ANSWERS, seconds=5.0)
    assert len(broken) == 3
    assert all("transport" in o.error for o in broken)
