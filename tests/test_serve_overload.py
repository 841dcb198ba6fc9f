"""End-to-end overload: 5x sustained overload, zero wrong verdicts,
clean recovery.  Slow by design — runs in the ``serve-chaos`` CI job
(deselected from tier-1 with ``-m "not slow"``).

The server here is deliberately small (two admission slots) so a modest
offered rate constitutes deep overload: the pinned contract is that the
server sheds with typed retriable frames at microsecond cost, keeps
authentication correct for everything it admits, keeps its introspection
verbs answering, and serves a clean closed-loop run immediately after
the storm passes.
"""

from __future__ import annotations

import pytest

from repro.serve import (
    AuthClient,
    AuthServer,
    AuthService,
    CRPStore,
    DeviceFarm,
    FleetConfig,
    RequestCoalescer,
    run_load,
    run_overload,
)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def stack():
    farm = DeviceFarm.from_config(FleetConfig(boards=2))
    service = AuthService(
        farm,
        CRPStore(None),
        coalescer=RequestCoalescer(max_batch=64, max_wait_s=0.002),
        degraded_probe_interval_s=0.05,
    )
    service.enroll_fleet()
    server = AuthServer(service, max_inflight=2).start()
    # The load harness answers from a twin of the served fleet, so only
    # served requests advance the served devices' noise RNGs.
    twin = DeviceFarm.from_config(FleetConfig(boards=2))
    try:
        yield server, service, twin
    finally:
        server.stop()


class TestSustainedOverload:
    def test_overload_sheds_cleanly_and_recovers(self, stack):
        server, service, farm = stack
        host, port = server.address

        # Calibrate: what does this tiny server sustain closed-loop?
        # (No more clients than admission slots, so nothing is shed.)
        calibration = run_load(
            host, port, clients=2, auths_per_client=8, farm=farm
        )
        assert calibration["failures"] == 0
        sustainable = calibration["throughput_rps"]

        # Storm: offer ~5x the sustainable rate, open loop.
        storm = run_overload(
            host,
            port,
            offered_rps=max(50.0, 5.0 * sustainable),
            duration_s=4.0,
            workers=8,
            farm=farm,
            deadline_ms=250.0,
        )
        # The two hard promises: nothing wrong, nothing untyped.
        assert storm["wrong"] == 0
        assert storm["terminal_by_type"] == {}
        assert storm["transport_errors"] == 0
        # The server actually shed (it was genuinely overloaded) and
        # actually served (goodput survived the storm).
        assert storm["shed"] > 0
        assert storm["goodput"] > 0
        assert set(storm["shed_by_type"]) <= {
            "Overloaded",
            "DeadlineExceeded",
        }
        # Shedding is the fast path: rejections must be far cheaper at
        # the median than admitted work, or shedding itself melts down.
        assert (
            storm["shed_latency_ms"]["p50"]
            < storm["admitted_latency_ms"]["p50"]
        )
        # The open-loop sender held its schedule: shed-fast kept the
        # offered rate honest within 20%.
        assert storm["achieved_rps"] > 0.8 * storm["offered_rps"]

        # The shed counters are visible where operators look.
        with AuthClient(host, port) as client:
            stats = client.stats()
            admission = stats["overload"]["admission"]
            assert admission["shed"] + admission["expired"] >= storm["shed"]
            assert stats["service"]["overload.Overloaded"] >= 1

        # Recovery: a clean closed-loop run right after the storm.
        aftermath = run_load(
            host, port, clients=2, auths_per_client=8, farm=farm
        )
        assert aftermath["failures"] == 0

    def test_introspection_answers_during_overload(self, stack):
        server, service, farm = stack
        host, port = server.address
        import threading

        stop = threading.Event()
        results = {}

        def storm():
            results["storm"] = run_overload(
                host,
                port,
                offered_rps=100.0,
                duration_s=2.0,
                workers=4,
                farm=farm,
            )
            stop.set()

        thread = threading.Thread(target=storm, daemon=True)
        thread.start()
        probes = 0
        with AuthClient(host, port) as client:
            while not stop.is_set():
                health = client.health()
                assert health["ok"] is True
                assert client.ready()["ready"] is True
                probes += 1
        thread.join(timeout=10.0)
        assert probes > 0
        assert results["storm"]["wrong"] == 0


class TestChaosStoreLoss:
    def test_store_death_mid_overload_degrades_not_breaks(self):
        farm = DeviceFarm.from_config(FleetConfig(boards=2))
        service = AuthService(
            farm, CRPStore(None), degraded_probe_interval_s=0.05
        )
        service.enroll_fleet()
        server = AuthServer(service, max_inflight=4).start()
        try:
            host, port = server.address

            def dead_append(record):
                raise OSError(5, "Input/output error")

            service.store._append = dead_append
            service.store.probe_writable = lambda: False  # disk is gone
            with AuthClient(host, port) as client:
                rejected = client.evict(farm.device_ids[0])
                assert rejected["error_type"] == "DegradedReadOnly"
            storm = run_overload(
                host,
                port,
                offered_rps=100.0,
                duration_s=2.0,
                workers=4,
                farm=DeviceFarm.from_config(FleetConfig(boards=2)),
            )
            assert storm["wrong"] == 0
            assert storm["goodput"] > 0  # auth survived the dead disk
            with AuthClient(host, port) as client:
                assert client.health()["status"] == "degraded"
                assert client.ready()["ready"] is True
        finally:
            server.stop()


class TestResilientClientAgainstRealOverload:
    def test_retrying_client_lands_requests_through_a_storm(self, stack):
        server, service, farm = stack
        host, port = server.address
        import threading

        done = threading.Event()

        def storm():
            run_overload(
                host,
                port,
                offered_rps=150.0,
                duration_s=2.5,
                workers=6,
                farm=farm,
            )
            done.set()

        thread = threading.Thread(target=storm, daemon=True)
        thread.start()
        corner = next(iter(farm)).corners[0]
        landed = 0
        with AuthClient(
            host,
            port,
            retries=6,
            backoff_s=0.02,
            breaker_threshold=50,
        ) as client:
            while not done.is_set() and landed < 5:
                response = client.attest(farm.device_ids[0], corner)
                if response.get("ok"):
                    assert response["accepted"] is True
                    landed += 1
        thread.join(timeout=10.0)
        # Backoff-and-retry got real work through a saturated server.
        assert landed >= 1
