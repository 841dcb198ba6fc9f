"""Load-test the CRP authentication service end to end, in process.

Spins up the whole serving stack — synthetic device fleet, crash-safe CRP
store, request coalescer, threaded socket server — then hammers it with
concurrent clients issuing attestation, key-regeneration, and genuine
challenge/response rounds.  Every request must authenticate; the summary
reports throughput, latency percentiles, and how well the coalescer
batched concurrent evaluations onto the vectorized einsum path.

Equivalent one-liner:  python -m repro serve --bench

Run:  python examples/load_test.py [clients] [auths-per-client]
"""

import json
import sys

from repro.serve import (
    AuthServer,
    AuthService,
    CRPStore,
    DeviceFarm,
    FleetConfig,
    RequestCoalescer,
    run_load,
)


def main() -> None:
    clients = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    auths = int(sys.argv[2]) if len(sys.argv) > 2 else 10

    farm = DeviceFarm.from_config(FleetConfig(boards=4))
    # Genuine answers come from a twin of the served fleet, so the load
    # never advances the served devices' noise RNGs.
    twin = DeviceFarm.from_config(FleetConfig(boards=4))
    service = AuthService(
        farm, CRPStore(None), coalescer=RequestCoalescer(max_batch=64)
    )
    enrolled = service.enroll_fleet()
    print(
        f"fleet: {len(enrolled['enrolled'])} devices enrolled "
        f"({len(next(iter(farm)).enrollment.bits)} bits each)"
    )

    with AuthServer(service).start() as server:
        host, port = server.address
        print(f"serving on {host}:{port}; driving {clients} clients "
              f"x {auths} auth rounds ...")
        summary = run_load(
            host, port, clients=clients, auths_per_client=auths, farm=twin
        )
        summary["coalescer"] = service.coalescer.stats()
        summary["store"] = service.store.stats()

    print(json.dumps(summary, indent=2))
    if summary["failures"]:
        raise SystemExit(f"{summary['failures']} failed authentications")
    batching = summary["coalescer"]["max_batch"]
    print(
        f"\nzero failures across {summary['requests']} requests at "
        f"{summary['throughput_rps']:.0f} req/s; "
        f"largest coalesced batch: {batching}"
    )


if __name__ == "__main__":
    main()
