"""B-serve-overload — goodput and admitted-latency under 5x overload.

Drives a deliberately small server (``MAX_INFLIGHT`` admission slots)
with the open-loop harness at several times its sustainable rate, plus a
calibration and a recovery pass around the storm.  Records what overload
protection promises and the ``serve-chaos`` CI job gates:

* ``admitted_p99_seconds`` — the p99 latency of requests the gate
  *admitted* during deep overload.  This is the number admission control
  exists to defend: without the gate it grows with the queue; with it,
  it stays within sight of the quiet-path p99 (gated against
  ``benchmarks/baselines/BENCH_serve_overload.json`` via ``ropuf bench
  compare --metric seconds``).
* ``shed_p99_seconds`` — rejections must stay microsecond-cheap.
* ``goodput_per_second`` — useful work must survive the storm.

Hard assertions (not thresholds): zero wrong verdicts, zero untyped
errors, clean recovery after the storm.
"""

from repro.serve import (
    AuthServer,
    AuthService,
    CRPStore,
    DeviceFarm,
    FleetConfig,
    RequestCoalescer,
    run_load,
    run_overload,
)

BOARDS = 2
MAX_INFLIGHT = 4
MAX_BATCH = 32
WINDOW_S = 0.002
OVERLOAD_FACTOR = 5.0
STORM_SECONDS = 4.0
WORKERS = 8
DEADLINE_MS = 250.0


def test_bench_serve_overload(save_artifact, save_bench_json):
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
    with AuthServer(service, max_inflight=MAX_INFLIGHT).start() as server:
        host, port = server.address
        calibration = run_load(
            host, port, clients=MAX_INFLIGHT, auths_per_client=8, farm=twin
        )
        assert calibration["failures"] == 0, calibration["failure_samples"]
        offered = max(50.0, OVERLOAD_FACTOR * calibration["throughput_rps"])

        storm = run_overload(
            host,
            port,
            offered_rps=offered,
            duration_s=STORM_SECONDS,
            workers=WORKERS,
            farm=twin,
            deadline_ms=DEADLINE_MS,
        )
        recovery = run_load(
            host, port, clients=MAX_INFLIGHT, auths_per_client=8, farm=twin
        )
        gate = server.overload_stats()["admission"]

    # Correctness is absolute, not a threshold.
    assert storm["wrong"] == 0, storm
    assert storm["terminal_by_type"] == {}, storm
    assert storm["transport_errors"] == 0, storm
    assert storm["shed"] > 0 and storm["goodput"] > 0, storm
    assert recovery["failures"] == 0, recovery["failure_samples"]

    overload = {
        "problem": {
            "boards": BOARDS,
            "max_inflight": MAX_INFLIGHT,
            "overload_factor": OVERLOAD_FACTOR,
            "workers": WORKERS,
            "deadline_ms": DEADLINE_MS,
            "storm_seconds": STORM_SECONDS,
        },
        "offered_per_second": storm["offered_rps"],
        "goodput_per_second": storm["goodput_rps"],
        "admitted_p50_seconds": storm["admitted_latency_ms"]["p50"] / 1e3,
        "admitted_p99_seconds": storm["admitted_latency_ms"]["p99"] / 1e3,
        "shed_p50_seconds": storm["shed_latency_ms"]["p50"] / 1e3,
        "shed_p99_seconds": storm["shed_latency_ms"]["p99"] / 1e3,
        "recovery_p99_seconds": recovery["latency_ms"]["p99"] / 1e3,
        "shed_fraction": storm["shed"] / max(1, storm["sent"]),
    }
    save_bench_json("serve_overload", {"overload": overload})

    text = "\n".join(
        [
            f"serve overload: {storm['offered_rps']:.0f} rps offered "
            f"(~{OVERLOAD_FACTOR:g}x sustainable) for {STORM_SECONDS:g}s, "
            f"{MAX_INFLIGHT} admission slots",
            f"  sent {storm['sent']}  goodput {storm['goodput']}  "
            f"shed {storm['shed']}  wrong {storm['wrong']}",
            f"  shed by type   {storm['shed_by_type']}",
            f"  admitted       p50 {storm['admitted_latency_ms']['p50']:7.2f}"
            f" ms   p99 {storm['admitted_latency_ms']['p99']:7.2f} ms",
            f"  shed           p50 {storm['shed_latency_ms']['p50']:7.2f}"
            f" ms   p99 {storm['shed_latency_ms']['p99']:7.2f} ms",
            f"  recovery       p99 {recovery['latency_ms']['p99']:7.2f} ms, "
            f"{recovery['failures']} failures",
            f"  gate           admitted {gate['admitted']}  "
            f"shed {gate['shed']}  expired {gate['expired']}  "
            f"peak inflight {gate['peak_inflight']}",
        ]
    )
    save_artifact("serve_overload", text)

    # Shedding must be far cheaper than admitted work — that economy is
    # the whole mechanism.
    assert (
        storm["shed_latency_ms"]["p50"] < storm["admitted_latency_ms"]["p50"]
    )
