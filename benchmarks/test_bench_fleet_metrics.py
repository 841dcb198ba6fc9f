"""B-fleet — out-of-core fleet analytics: throughput and memory ceiling.

The ROADMAP-item-2 claim is that population metrics over 10^5 devices run
in bounded memory: peak RSS tracks the shard size, not the fleet size.
Each measured run happens in a *subprocess* so ``ru_maxrss`` reflects that
run alone — the pytest process has already paged in the whole test
session and its high-water mark would swamp the signal.

Two memory pins, asserted here:

* an absolute peak-RSS ceiling for the full 10^5-device fleet, and
* a growth bound — 4x the devices must cost well under 4x the memory
  (the dense pairwise-HD approach would scale quadratically).

``results/BENCH_fleet.json`` feeds two CI regression gates against
``baselines/BENCH_fleet.json``: ``ropuf bench compare --metric memory``
on peak RSS, and ``--metric throughput --threshold 0.75`` on devices per
second (loose, because wall time varies across runners).
"""

import json
import subprocess
import sys
from pathlib import Path

RO_COUNT = 128
SHARD_DEVICES = 4096
FULL_DEVICES = 100_000
QUARTER_DEVICES = 25_000

#: Generous absolute ceiling for the full run (interpreter + numpy alone
#: cost ~70 MB; the fleet's working set is one shard per worker).
PEAK_RSS_CEILING_MB = 512.0

#: 4x the devices may cost at most this factor in peak RSS.
RSS_GROWTH_LIMIT = 2.0

_RUNNER = """\
import json
import resource
import sys
import time

from repro.datasets.fleet import FleetSpec
from repro.pipeline.fleet import run_fleet_analysis

devices, ro_count, shard_devices = map(int, sys.argv[1:4])
spec = FleetSpec(
    devices=devices, ro_count=ro_count, shard_devices=shard_devices
)
start = time.perf_counter()
summary = run_fleet_analysis(spec)
elapsed = time.perf_counter() - start
assert summary["complete"], summary["shards"]
ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(
    json.dumps(
        {
            "elapsed_seconds": elapsed,
            "peak_rss_mb": ru_maxrss / 1024.0,  # linux: ru_maxrss in KiB
            "uniqueness_percent": summary["uniqueness"][
                "uniqueness_percent"
            ],
            "reliability_flip_percent": summary["reliability"][
                "mean_flip_percent"
            ],
        }
    )
)
"""


def _measure(devices: int) -> dict:
    """Run one fleet analysis in a fresh interpreter; return its numbers."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _RUNNER,
            str(devices),
            str(RO_COUNT),
            str(SHARD_DEVICES),
        ],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    return json.loads(proc.stdout)


def test_bench_fleet_metrics(save_artifact, save_bench_json):
    quarter = _measure(QUARTER_DEVICES)
    full = _measure(FULL_DEVICES)

    devices_per_second = FULL_DEVICES / full["elapsed_seconds"]
    growth = full["peak_rss_mb"] / quarter["peak_rss_mb"]

    save_bench_json(
        "fleet",
        {
            "fleet": {
                "problem": {
                    "devices": FULL_DEVICES,
                    "ro_count": RO_COUNT,
                    "shard_devices": SHARD_DEVICES,
                },
                "elapsed_seconds": full["elapsed_seconds"],
                "devices_per_second": devices_per_second,
                "peak_rss_mb": full["peak_rss_mb"],
                "quarter_peak_rss_mb": quarter["peak_rss_mb"],
            },
        },
    )
    save_artifact(
        "fleet_metrics",
        "\n".join(
            [
                f"fleet: {FULL_DEVICES} devices x {RO_COUNT} ROs "
                f"(shards of {SHARD_DEVICES})",
                f"  wall time        {full['elapsed_seconds']:8.2f} s "
                f"({devices_per_second:,.0f} devices/s)",
                f"  peak RSS         {full['peak_rss_mb']:8.1f} MB "
                f"(ceiling {PEAK_RSS_CEILING_MB:.0f} MB)",
                f"  peak RSS @ 25k   {quarter['peak_rss_mb']:8.1f} MB "
                f"(growth x{growth:.2f}, limit x{RSS_GROWTH_LIMIT:.1f})",
                f"  uniqueness       {full['uniqueness_percent']:8.3f} %",
                f"  flip rate        "
                f"{full['reliability_flip_percent']:8.3f} %",
            ]
        ),
    )

    # Sanity: a healthy 10^5-device population sits at ~50% uniqueness.
    assert 49.0 < full["uniqueness_percent"] < 51.0

    # The memory pins: absolute ceiling, and out-of-core growth bound —
    # 4x the devices must not cost anywhere near 4x the memory.
    assert full["peak_rss_mb"] < PEAK_RSS_CEILING_MB, (
        f"peak RSS {full['peak_rss_mb']:.1f} MB over the "
        f"{PEAK_RSS_CEILING_MB:.0f} MB ceiling"
    )
    assert growth < RSS_GROWTH_LIMIT, (
        f"peak RSS grew x{growth:.2f} from {QUARTER_DEVICES} to "
        f"{FULL_DEVICES} devices (limit x{RSS_GROWTH_LIMIT:.1f}) — "
        "memory is tracking fleet size, not shard size"
    )
