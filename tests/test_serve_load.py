"""Load-generator and ``ropuf serve`` CLI tests.

The slow test is the ISSUE's acceptance gate: at least 100 concurrent
clients against one server with zero authentication failures, and proof
that the coalescer actually batched (the concurrency was real).  The fast
tests pin the CLI surface: flag parsing, the ``--bench`` JSON contract,
and its exit-code semantics.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.cli import build_parser, main
from repro.serve import (
    AuthServer,
    AuthService,
    CRPStore,
    DeviceFarm,
    FleetConfig,
    RequestCoalescer,
    percentiles,
    run_load,
)
from repro.serve.protocol import read_frame, write_frame
from repro.variation.environment import NOMINAL_OPERATING_POINT
from repro.variation.noise import GaussianNoise


class TestPercentiles:
    def test_empty_samples(self):
        assert percentiles([]) == {
            "p50": 0.0,
            "p90": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }

    def test_ordering(self):
        summary = percentiles(list(range(1, 101)))
        assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert summary["max"] == 100.0


class TestRunLoad:
    def test_small_load_zero_failures(self):
        farm = DeviceFarm.from_config(FleetConfig(boards=2))
        twin = DeviceFarm.from_config(FleetConfig(boards=2))
        service = AuthService(farm, CRPStore(None))
        service.enroll_fleet()
        with AuthServer(service).start() as server:
            host, port = server.address
            summary = run_load(
                host, port, clients=8, auths_per_client=3, farm=twin
            )
        assert summary["failures"] == 0, summary["failure_samples"]
        assert summary["requests"] == 24
        assert summary["latency_ms"]["p50"] > 0.0
        assert set(summary["verbs"]) == {"attest", "regen", "challenge-auth"}
        assert set(summary["latency_ms_by_verb"]) == set(summary["verbs"])
        for verb_summary in summary["latency_ms_by_verb"].values():
            assert verb_summary["p50"] > 0.0
            assert verb_summary["p50"] <= verb_summary["p99"]
        # Constant-memory mode is the default: no raw samples kept.
        assert "raw_latencies_ms" not in summary

    def test_sketch_percentiles_match_exact_within_bound(self):
        # The satellite pin: the sketch summary agrees with exact
        # percentiles at the sketch's inverse-CDF rank convention
        # (np.percentile method="inverted_cdf") within the documented
        # 1% relative error.
        import numpy as np

        from repro.obs.quantiles import DEFAULT_RELATIVE_ACCURACY

        farm = DeviceFarm.from_config(FleetConfig(boards=2))
        twin = DeviceFarm.from_config(FleetConfig(boards=2))
        service = AuthService(farm, CRPStore(None))
        service.enroll_fleet()
        with AuthServer(service).start() as server:
            host, port = server.address
            summary = run_load(
                host,
                port,
                clients=8,
                auths_per_client=6,
                farm=twin,
                record_raw=True,
            )
        raw = summary["raw_latencies_ms"]
        assert len(raw) == summary["requests"]
        for point, key in ((50.0, "p50"), (90.0, "p90"), (99.0, "p99")):
            exact = float(np.percentile(raw, point, method="inverted_cdf"))
            estimate = summary["latency_ms"][key]
            assert abs(estimate - exact) <= (
                DEFAULT_RELATIVE_ACCURACY * exact * (1.0 + 1e-6)
            ), (key, estimate, exact)
        assert summary["latency_ms"]["max"] == max(raw)

    def test_without_farm_skips_challenge_rounds(self):
        farm = DeviceFarm.from_config(FleetConfig(boards=2))
        service = AuthService(farm, CRPStore(None))
        service.enroll_fleet()
        corners = next(iter(farm)).corners
        with AuthServer(service).start() as server:
            host, port = server.address
            summary = run_load(
                host,
                port,
                clients=4,
                auths_per_client=2,
                device_ids=farm.device_ids,
                corners=corners,
            )
        assert summary["failures"] == 0
        assert "challenge-auth" not in summary["verbs"]

    def test_requires_targets(self):
        with pytest.raises(ValueError, match="devices"):
            run_load("127.0.0.1", 1, clients=1)

    @pytest.mark.slow
    def test_hundred_concurrent_clients_zero_auth_failures(self):
        # The acceptance gate: >= 100 concurrent clients, every request
        # must authenticate, and the coalescer must have batched.
        farm = DeviceFarm.from_config(FleetConfig(boards=4))
        twin = DeviceFarm.from_config(FleetConfig(boards=4))
        coalescer = RequestCoalescer(max_batch=64, max_wait_s=0.002)
        service = AuthService(farm, CRPStore(None), coalescer=coalescer)
        service.enroll_fleet()
        with AuthServer(service).start() as server:
            host, port = server.address
            summary = run_load(
                host, port, clients=100, auths_per_client=5, farm=twin
            )
            stats = coalescer.stats()
        assert summary["failures"] == 0, summary["failure_samples"]
        assert summary["requests"] == 500
        assert stats["max_batch"] > 1
        assert stats["batches"] < stats["requests"]


class TestListenBacklog:
    def test_connection_burst_answered_inside_syn_retransmit(self):
        # 32 clients connecting at once must all complete the handshake.
        # Past the listen backlog the kernel drops SYNs and each dropped
        # client waits ~1 s for the retransmit.  Connecting before the
        # accept loop runs is the worst case: nothing drains the queue.
        service = AuthService(
            DeviceFarm([], NOMINAL_OPERATING_POINT), CRPStore(None)
        )
        server = AuthServer(service)
        sockets = []
        try:
            for _ in range(32):
                sock = socket.socket()
                sock.setblocking(False)
                sock.connect_ex(server.address)
                sockets.append(sock)
            server.start()
            started = time.perf_counter()
            for sock in sockets:
                sock.settimeout(5.0)
                stream = sock.makefile("rwb")
                write_frame(stream, {"op": "ping"})
                assert read_frame(stream)["ok"]
                stream.close()
            elapsed = time.perf_counter() - started
        finally:
            for sock in sockets:
                sock.close()
            server.stop()
        assert elapsed < 0.5


class TestServeCLI:
    def test_serve_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.boards == 4
        assert args.ro_count == 320
        assert args.stages == 5
        assert args.fleet_method == "case1"
        assert args.store is None
        assert args.auth_threshold == 0.15
        assert args.max_batch == 64
        assert args.window == 0.002
        assert args.bench is False
        assert args.clients == 100
        assert args.auths == 10
        # Telemetry flags (docs/observability.md) default to off.
        assert args.metrics_port is None
        assert args.trace is None
        assert args.slow_ms == 100.0
        assert args.profile is None

    def test_serve_flags_parse_explicit(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--bench",
                "--boards",
                "2",
                "--fleet-method",
                "case2",
                "--store",
                "/tmp/crp.jsonl",
                "--clients",
                "7",
            ]
        )
        assert args.bench is True
        assert args.boards == 2
        assert args.fleet_method == "case2"
        assert args.store == "/tmp/crp.jsonl"
        assert args.clients == 7

    def test_bench_leaves_served_rngs_to_the_served_requests(
        self, monkeypatch, capsys
    ):
        # RNG ownership: a served device's noise RNG advances only for the
        # requests the server answers (on the coalescer's dispatcher
        # thread), never for the genuine answers the harness computes.
        # Fleets are made noisy so every evaluation draws; the reference
        # replays the same load against an identical fleet started from
        # the same RNG states, answering from a separate twin.
        build = DeviceFarm.from_config

        def noisy(config=None):
            farm = build(config)
            for device in farm:
                device.evaluator.response_noise = GaussianNoise()
            return farm

        built = []

        def recording(config=None):
            farm = noisy(config)
            states = {
                device.device_id: device.evaluator.rng.bit_generator.state
                for device in farm
            }
            built.append((farm, states))
            return farm

        monkeypatch.setattr(DeviceFarm, "from_config", recording)
        argv = ["serve", "--bench", "--boards", "2", "--clients", "3"]
        assert main(argv + ["--auths", "6"]) == 0
        capsys.readouterr()
        served, initial = built[0]

        reference = noisy(FleetConfig(boards=2))
        for device in reference:
            rng = device.evaluator.rng
            rng.bit_generator.state = initial[device.device_id]
        service = AuthService(reference, CRPStore(None))
        service.enroll_fleet()
        with AuthServer(service).start() as server:
            summary = run_load(
                *server.address,
                clients=3,
                auths_per_client=6,
                farm=noisy(FleetConfig(boards=2)),
            )
        assert summary["failures"] == 0, summary["failure_samples"]
        assert "challenge-auth" in summary["verbs"]
        for device in served:
            want = reference.device(device.device_id).evaluator.rng
            assert device.evaluator.rng.bit_generator.state == (
                want.bit_generator.state
            ), device.device_id

    def test_bench_smoke_exits_zero_with_json_summary(self, capsys):
        code = main(
            [
                "serve",
                "--bench",
                "--boards",
                "2",
                "--clients",
                "5",
                "--auths",
                "2",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        summary = json.loads(output)
        assert summary["failures"] == 0
        assert summary["requests"] == 10
        assert summary["coalescer"]["requests"] > 0
        assert summary["store"]["devices"] == 2

    def test_bench_writes_output_file(self, capsys, tmp_path):
        out = tmp_path / "summary.json"
        code = main(
            [
                "serve",
                "--bench",
                "--boards",
                "2",
                "--clients",
                "3",
                "--auths",
                "2",
                "--output",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["failures"] == 0

    def test_bench_with_telemetry_artifacts(self, capsys, tmp_path):
        # --metrics-port, --trace, and --profile all ride along with
        # --bench: the summary JSON stays parseable on stdout and the
        # artifacts are written on shutdown.
        from repro import obs
        from repro.obs.trace import read_trace

        trace_path = tmp_path / "slow.jsonl"
        profile_path = tmp_path / "serve.collapsed"
        code = main(
            [
                "serve",
                "--bench",
                "--boards",
                "2",
                "--clients",
                "4",
                "--auths",
                "2",
                "--metrics-port",
                "0",
                "--trace",
                str(trace_path),
                "--slow-ms",
                "0",
                "--profile",
                str(profile_path),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        summary = json.loads(output)
        assert summary["failures"] == 0
        # Telemetry state is restored on shutdown.
        assert not obs.metrics_enabled()
        assert not obs.tracing_enabled()
        # --slow-ms 0 makes every request slow: the tail-sampled trace
        # must contain the serve frame spans, each carrying request ids.
        assert trace_path.is_file()
        spans, _ = read_trace(trace_path)
        names = {record["name"] for record in spans}
        assert "serve.request" in names
        assert all(
            record["attrs"].get("request_id")
            or record["attrs"].get("request_ids")
            for record in spans
        )
        assert profile_path.is_file()

    def test_bench_with_persistent_store(self, capsys, tmp_path):
        store = tmp_path / "crp.jsonl"
        argv = [
            "serve",
            "--bench",
            "--boards",
            "2",
            "--clients",
            "3",
            "--auths",
            "2",
            "--store",
            str(store),
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["enrollment"]["enrolled"] == 2
        # Second run on the same journal: the fleet is reused, not
        # re-enrolled, and authentication still succeeds.
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["enrollment"]["reused"] == 2
        assert second["failures"] == 0
