"""Tests of the out-of-core fleet generator (`repro.datasets.fleet`).

The load-bearing property is shard isolation: shard ``i`` is a pure
function of ``(spec.seed, i)`` and the spec's shape, so any worker can
regenerate any shard in any order and get bit-identical delays.  The
draw order behind that is versioned (`FLEET_DRAW_ORDER`); these tests
pin it with golden digests so an accidental reorder fails loudly
instead of silently changing every generated fleet.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets.fleet import (
    DEFAULT_FLEET_CORNERS,
    FLEET_DRAW_ORDER,
    FleetSpec,
    FleetShard,
    generate_shard,
    iter_shards,
)
from repro.variation.environment import (
    NOMINAL_OPERATING_POINT,
    EnvironmentModel,
    OperatingPoint,
)

SMALL = FleetSpec(devices=100, ro_count=16, shard_devices=32, seed=7)


class TestFleetSpec:
    def test_defaults_describe_the_roadmap_fleet(self):
        spec = FleetSpec()
        assert spec.devices == 100_000
        assert spec.bit_count == spec.ro_count // 2
        assert spec.nominal == NOMINAL_OPERATING_POINT
        assert spec.corners == DEFAULT_FLEET_CORNERS

    def test_shard_arithmetic_covers_every_device_once(self):
        assert SMALL.shard_count == 4  # 32+32+32+4
        bounds = [SMALL.shard_bounds(i) for i in range(SMALL.shard_count)]
        assert bounds[0] == (0, 32)
        assert bounds[-1] == (96, 100)  # ragged tail shard
        covered = [d for a, b in bounds for d in range(a, b)]
        assert covered == list(range(SMALL.devices))

    def test_shard_bounds_range_checked(self):
        with pytest.raises(IndexError):
            SMALL.shard_bounds(SMALL.shard_count)
        with pytest.raises(IndexError):
            SMALL.shard_bounds(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"devices": 0},
            {"ro_count": 0},
            {"ro_count": 7},  # odd: adjacent pairs need an even count
            {"shard_devices": 0},
            {"corners": ()},
            {"noise_sigma": -1e-6},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FleetSpec(**kwargs)

    def test_json_round_trip_is_exact(self):
        spec = FleetSpec(
            devices=123,
            ro_count=32,
            shard_devices=17,
            seed=99,
            corners=(
                NOMINAL_OPERATING_POINT,
                OperatingPoint(voltage=1.0, temperature=50.0),
            ),
            noise_sigma=1e-3,
        )
        assert FleetSpec.from_json(spec.to_json()) == spec
        # canonical encoding: stable across round trips
        assert FleetSpec.from_json(spec.to_json()).to_json() == spec.to_json()

    def test_draw_order_version_embedded_and_enforced(self):
        doc = SMALL.to_dict()
        assert doc["draw_order"] == FLEET_DRAW_ORDER
        doc["draw_order"] = "fleet-v0"
        with pytest.raises(ValueError, match="draw order"):
            FleetSpec.from_dict(doc)

    def test_fingerprint_tracks_content(self):
        assert SMALL.fingerprint() == SMALL.fingerprint()
        other = FleetSpec(devices=100, ro_count=16, shard_devices=32, seed=8)
        assert SMALL.fingerprint() != other.fingerprint()


class TestGenerateShard:
    def test_shapes_and_corners(self):
        shard = generate_shard(SMALL, 0)
        assert isinstance(shard, FleetShard)
        assert shard.device_count == 32
        assert set(shard.delays) == set(SMALL.corners)
        for delays in shard.delays.values():
            assert delays.shape == (32, SMALL.ro_count)
            assert np.all(delays > 0)
        assert shard.reference_bits().shape == (32, SMALL.bit_count)
        assert shard.reference_bits().dtype == bool

    def test_tail_shard_is_ragged(self):
        shard = generate_shard(SMALL, SMALL.shard_count - 1)
        assert shard.device_count == 4
        assert shard.delays[SMALL.nominal].shape == (4, SMALL.ro_count)

    def test_same_shard_regenerates_bit_identically(self):
        first = generate_shard(SMALL, 1)
        second = generate_shard(SMALL, 1)
        for op in SMALL.corners:
            assert np.array_equal(first.delays[op], second.delays[op])

    def test_shard_isolation_no_predecessors_needed(self):
        # generating shard 2 alone == generating it after 0 and 1
        alone = generate_shard(SMALL, 2)
        in_order = list(iter_shards(SMALL))[2]
        for op in SMALL.corners:
            assert np.array_equal(alone.delays[op], in_order.delays[op])

    def test_different_shards_differ(self):
        a = generate_shard(SMALL, 0).delays[SMALL.nominal]
        b = generate_shard(SMALL, 1).delays[SMALL.nominal][: len(a)]
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        reseeded = FleetSpec(devices=100, ro_count=16, shard_devices=32, seed=8)
        a = generate_shard(SMALL, 0).delays[SMALL.nominal]
        b = generate_shard(reseeded, 0).delays[reseeded.nominal]
        assert not np.array_equal(a, b)

    def test_golden_digest_pins_the_draw_order(self):
        # Bit-exact digest of shard 0's nominal delays.  If this changes,
        # the fleet-v1 draw order changed: bump FLEET_DRAW_ORDER and
        # update the digest together.
        delays = generate_shard(SMALL, 0).delays[SMALL.nominal]
        digest = hashlib.sha256(
            np.ascontiguousarray(delays, dtype="<f8").tobytes()
        ).hexdigest()
        assert digest == (
            "11dc80043626b29639046ee85c9607481dd68135d2475d649e2d6516492825f8"
        )

    def test_golden_digest_pins_every_corner(self):
        # The nominal digest above cannot see the per-corner environment
        # scaling; this one pins shard 0's delays at every corner, stacked
        # in spec order, so any change to the scale path fails loudly.
        shard = generate_shard(SMALL, 0)
        stacked = np.stack([shard.delays[op] for op in SMALL.corners])
        digest = hashlib.sha256(
            np.ascontiguousarray(stacked, dtype="<f8").tobytes()
        ).hexdigest()
        assert digest == (
            "81e431b7ec5eeba1a31a4fb3ef481434a3787b4bf5e4b2a5f2711d7c10f69442"
        )

    def test_reference_scale_is_evaluated_once_per_shard(self, monkeypatch):
        calls = []
        raw_scale = EnvironmentModel._raw_scale

        def counting(self, sensitivities, op):
            calls.append(op)
            return raw_scale(self, sensitivities, op)

        monkeypatch.setattr(EnvironmentModel, "_raw_scale", counting)
        generate_shard(SMALL, 0)
        # One shared reference evaluation, then one per corner.
        assert calls == [NOMINAL_OPERATING_POINT, *SMALL.corners]

    def test_reference_bits_are_balanced(self):
        spec = FleetSpec(devices=2000, ro_count=64, shard_devices=2000, seed=3)
        bits = generate_shard(spec, 0).reference_bits()
        assert 0.45 < bits.mean() < 0.55  # ~50% uniformity

    def test_extreme_corner_flips_some_bits_but_not_many(self):
        spec = FleetSpec(devices=500, ro_count=64, shard_devices=500, seed=4)
        shard = generate_shard(spec, 0)
        reference = shard.reference_bits()
        low_v = shard.response_bits(spec.corners[1])
        flip_fraction = np.mean(reference != low_v)
        assert 0.0 < flip_fraction < 0.5

    def test_iter_shards_yields_every_shard(self):
        indexes = [shard.index for shard in iter_shards(SMALL)]
        assert indexes == list(range(SMALL.shard_count))
