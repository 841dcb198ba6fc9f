"""B-serve — authentication service latency under concurrent load.

Drives a real :class:`~repro.serve.server.AuthServer` with the built-in
load harness (16 clients x 8 rounds cycling attest / regen /
challenge-auth through the request coalescer) and records the
sketch-backed latency percentiles: overall and per-verb p50/p99, plus
aggregate throughput.  Results land in ``results/BENCH_serve.json``;
the serve-smoke CI job gates them against the committed baseline with
``ropuf bench compare --metric seconds`` at a generous threshold —
absolute latencies are noisy on shared runners, but an
order-of-magnitude regression must not land silently.
"""

from repro.serve import (
    AuthServer,
    AuthService,
    CRPStore,
    DeviceFarm,
    FleetConfig,
    RequestCoalescer,
    run_load,
)

BOARDS = 2
CLIENTS = 16
AUTHS_PER_CLIENT = 8
MAX_BATCH = 32
WINDOW_S = 0.002


def test_bench_serve_latency(save_artifact, save_bench_json):
    farm = DeviceFarm.from_config(FleetConfig(boards=BOARDS))
    # The harness answers challenges from its own twin, so only served
    # requests advance the served devices' noise RNGs.
    twin = DeviceFarm.from_config(FleetConfig(boards=BOARDS))
    service = AuthService(
        farm,
        CRPStore(None),
        coalescer=RequestCoalescer(max_batch=MAX_BATCH, max_wait_s=WINDOW_S),
    )
    service.enroll_fleet()
    with AuthServer(service).start() as server:
        host, port = server.address
        summary = run_load(
            host,
            port,
            clients=CLIENTS,
            auths_per_client=AUTHS_PER_CLIENT,
            farm=twin,
        )
    assert summary["failures"] == 0, summary["failure_samples"]

    load = {
        "problem": {
            "boards": BOARDS,
            "clients": CLIENTS,
            "auths_per_client": AUTHS_PER_CLIENT,
            "max_batch": MAX_BATCH,
        },
        "p50_seconds": summary["latency_ms"]["p50"] / 1e3,
        "p99_seconds": summary["latency_ms"]["p99"] / 1e3,
        "requests_per_second": summary["throughput_rps"],
    }
    for verb, quantiles in sorted(summary["latency_ms_by_verb"].items()):
        key = verb.replace("-", "_")
        load[f"{key}_p50_seconds"] = quantiles["p50"] / 1e3
        load[f"{key}_p99_seconds"] = quantiles["p99"] / 1e3
    save_bench_json("serve", {"load": load})

    lines = [
        f"serve latency: {CLIENTS} clients x {AUTHS_PER_CLIENT} rounds, "
        f"{BOARDS} boards, coalescer <= {MAX_BATCH}",
        f"  overall        p50 {summary['latency_ms']['p50']:7.2f} ms   "
        f"p99 {summary['latency_ms']['p99']:7.2f} ms",
    ]
    lines.extend(
        f"  {verb:<14} p50 {quantiles['p50']:7.2f} ms   "
        f"p99 {quantiles['p99']:7.2f} ms"
        for verb, quantiles in sorted(summary["latency_ms_by_verb"].items())
    )
    lines.append(f"  throughput     {summary['throughput_rps']:7.1f} req/s")
    save_artifact("serve_latency", "\n".join(lines))

    for quantiles in summary["latency_ms_by_verb"].values():
        assert 0.0 < quantiles["p50"] <= quantiles["p99"]
