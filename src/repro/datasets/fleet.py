"""Out-of-core synthetic device fleets, generated shard by shard.

ROADMAP item 2: the paper's population statistics run over 9 + 198 boards,
but population-level questions (arXiv:1910.07068) need 10^5-10^6 devices —
far more than fits as a :class:`~repro.datasets.base.RODataset` of
per-board records.  This module generates a *fleet* of single-board
devices in fixed-size shards:

* a :class:`FleetSpec` is a small, JSON-serializable description of the
  whole fleet (device count, ROs per device, corners, seed);
* :func:`generate_shard` fabricates shard ``i`` from the seed sequence
  ``(spec.seed, i)`` alone — any shard is reproducible in isolation, in
  any order, on any worker, without generating its predecessors;
* a :class:`FleetShard` holds the shard's measurements as a structure of
  arrays (``(devices, ro_count)`` per corner) and derives response bits;
  peak memory is one shard, never the fleet.

The per-shard draw order is versioned by :data:`FLEET_DRAW_ORDER` and
pinned by ``tests/test_fleet_dataset.py``: all fabrication randomness is
drawn in one fixed vectorized sequence (board offsets, field
coefficients, ripple, random mismatch, sensitivities, then per-corner
measurement noise), so the same ``(seed, shard_index, spec shape)``
always yields bit-identical delays.

Statistics over a fleet fold shard bit matrices through the streaming
accumulators in :mod:`repro.metrics.streaming`; the sharded pipeline and
CLI live in :mod:`repro.pipeline.fleet`.  See ``docs/datasets.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..silicon.geometry import grid_coordinates
from ..variation.environment import (
    NOMINAL_OPERATING_POINT,
    DeviceSensitivities,
    EnvironmentModel,
    OperatingPoint,
)
from ..variation.process import (
    ProcessVariationModel,
    _monomial_variance,
    monomial_exponents,
    polynomial_design_matrix,
)

__all__ = [
    "FLEET_DRAW_ORDER",
    "DEFAULT_FLEET_CORNERS",
    "FleetSpec",
    "FleetShard",
    "generate_shard",
    "load_or_generate_shard",
    "iter_shards",
]

#: On-disk shard layout version (see :meth:`FleetShard.save`).
SHARD_SCHEME = "ropuf-fleet-shard-v1"

#: Version tag of the per-shard random draw order.  Bumped whenever the
#: sequence of rng draws in :func:`generate_shard` changes, because that
#: silently changes every generated fleet.
FLEET_DRAW_ORDER = "fleet-v1"

#: Default measurement corners: enrollment plus the paper's extreme
#: voltage corners and the hottest temperature (Sec. IV.D sweep ends).
DEFAULT_FLEET_CORNERS = (
    NOMINAL_OPERATING_POINT,
    OperatingPoint(voltage=0.98, temperature=25.0),
    OperatingPoint(voltage=1.44, temperature=25.0),
    OperatingPoint(voltage=1.20, temperature=65.0),
)

_GRID_COLUMNS = 16


@dataclass(frozen=True)
class FleetSpec:
    """A complete, JSON-round-trippable description of a synthetic fleet.

    The spec deliberately carries only plain numbers: everything a worker
    needs to regenerate any shard travels inside one small JSON document
    (embedded in pipeline task names), and the model parameters stay the
    library defaults so the spec cannot drift from the code that
    interprets it.

    Attributes:
        devices: total devices in the fleet.
        ro_count: ROs per device (adjacent pairs give ``ro_count // 2``
            response bits).
        shard_devices: devices per shard; the memory high-water mark of
            everything downstream.
        seed: master seed; shard ``i`` draws from ``(seed, i)``.
        corners: measurement corners, first one is the enrollment
            (reference) corner.
        noise_sigma: relative sigma of per-measurement Gaussian noise.
    """

    devices: int = 100_000
    ro_count: int = 128
    shard_devices: int = 4096
    seed: int = 20140601
    corners: tuple[OperatingPoint, ...] = DEFAULT_FLEET_CORNERS
    noise_sigma: float = 2e-4

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if self.ro_count < 2 or self.ro_count % 2:
            raise ValueError(
                f"ro_count must be even and >= 2, got {self.ro_count}"
            )
        if self.shard_devices < 1:
            raise ValueError(
                f"shard_devices must be >= 1, got {self.shard_devices}"
            )
        if not self.corners:
            raise ValueError("the spec needs at least one corner")
        if self.noise_sigma < 0.0:
            raise ValueError(
                f"noise_sigma must be non-negative, got {self.noise_sigma}"
            )
        object.__setattr__(
            self, "corners", tuple(self.corners)
        )

    @property
    def bit_count(self) -> int:
        """Response bits per device (adjacent-pair comparisons)."""
        return self.ro_count // 2

    @property
    def nominal(self) -> OperatingPoint:
        """The enrollment corner (first in ``corners``)."""
        return self.corners[0]

    @property
    def shard_count(self) -> int:
        return -(-self.devices // self.shard_devices)

    def shard_bounds(self, index: int) -> tuple[int, int]:
        """Half-open device-id range ``[start, stop)`` of shard ``index``."""
        if not 0 <= index < self.shard_count:
            raise IndexError(
                f"shard {index} out of range for {self.shard_count} shards"
            )
        start = index * self.shard_devices
        return start, min(start + self.shard_devices, self.devices)

    def to_dict(self) -> dict:
        return {
            "draw_order": FLEET_DRAW_ORDER,
            "devices": self.devices,
            "ro_count": self.ro_count,
            "shard_devices": self.shard_devices,
            "seed": self.seed,
            "corners": [
                [op.voltage, op.temperature] for op in self.corners
            ],
            "noise_sigma": self.noise_sigma,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FleetSpec":
        order = doc.get("draw_order", FLEET_DRAW_ORDER)
        if order != FLEET_DRAW_ORDER:
            raise ValueError(
                f"fleet spec uses draw order {order!r}; this code "
                f"implements {FLEET_DRAW_ORDER!r}"
            )
        return cls(
            devices=int(doc["devices"]),
            ro_count=int(doc["ro_count"]),
            shard_devices=int(doc["shard_devices"]),
            seed=int(doc["seed"]),
            corners=tuple(
                OperatingPoint(voltage=float(v), temperature=float(t))
                for v, t in doc["corners"]
            ),
            noise_sigma=float(doc["noise_sigma"]),
        )

    def to_json(self) -> str:
        """Canonical (sorted-key, compact) JSON — stable across runs."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Content hash of the spec (keys pipeline caching/journaling)."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()


@dataclass
class FleetShard:
    """One generated shard: measurements for a contiguous device range.

    Structure of arrays: every corner maps to a ``(devices, ro_count)``
    float array of measured delays.  Shards are the unit of both
    generation and analysis; nothing downstream ever concatenates them.
    """

    spec: FleetSpec
    index: int
    delays: dict[OperatingPoint, np.ndarray] = field(repr=False)

    @property
    def bounds(self) -> tuple[int, int]:
        return self.spec.shard_bounds(self.index)

    @property
    def device_count(self) -> int:
        start, stop = self.bounds
        return stop - start

    def response_bits(self, op: OperatingPoint) -> np.ndarray:
        """``(devices, bit_count)`` bool matrix at one corner.

        The traditional RO PUF response: each bit compares one adjacent
        RO pair (RO ``2j`` vs ``2j+1``).
        """
        measured = self.delays[op]
        return measured[:, 0::2] > measured[:, 1::2]

    def reference_bits(self) -> np.ndarray:
        """Response bits at the enrollment corner."""
        return self.response_bits(self.spec.nominal)

    # ------------------------------------------------------------------
    # Persistence (memory-mapped re-analysis)
    # ------------------------------------------------------------------

    @staticmethod
    def _file_stem(spec: FleetSpec, index: int) -> str:
        return f"shard_{spec.fingerprint()[:16]}_{index:06d}"

    @staticmethod
    def array_path(directory: str | Path, spec: FleetSpec, index: int) -> Path:
        """Where the shard's stacked delay tensor lives under ``directory``."""
        return Path(directory) / f"{FleetShard._file_stem(spec, index)}.npy"

    @staticmethod
    def sidecar_path(directory: str | Path, spec: FleetSpec, index: int) -> Path:
        """The JSON sidecar describing (and validating) the tensor."""
        return Path(directory) / f"{FleetShard._file_stem(spec, index)}.json"

    def save(self, directory: str | Path) -> Path:
        """Persist the shard for memory-mapped re-analysis; returns the sidecar.

        Layout: a plain ``.npy`` holding the corner-stacked
        ``(corners, devices, ro_count)`` delay tensor (``np.save`` — the
        one numpy container :func:`numpy.load` can ``mmap_mode="r"``) next
        to a JSON sidecar carrying the spec document, shard index, and
        tensor shape/dtype.  Both writes are atomic (tmp + rename) and the
        sidecar lands *last*, so its presence marks a complete pair: a
        crash mid-save leaves at most an orphaned tensor that the next
        save simply overwrites.  Filenames are keyed by the spec
        fingerprint, so shards of different fleets coexist in one
        directory and a stale shard of an edited spec is never picked up.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        stacked = np.stack([self.delays[op] for op in self.spec.corners])
        array_path = self.array_path(directory, self.spec, self.index)
        sidecar_path = self.sidecar_path(directory, self.spec, self.index)
        doc = {
            "scheme": SHARD_SCHEME,
            "spec": self.spec.to_dict(),
            "index": self.index,
            "shape": list(stacked.shape),
            "dtype": str(stacked.dtype),
        }
        array_tmp = array_path.with_name(f"{array_path.name}.tmp.{os.getpid()}")
        sidecar_tmp = sidecar_path.with_name(
            f"{sidecar_path.name}.tmp.{os.getpid()}"
        )
        try:
            with open(array_tmp, "wb") as handle:
                np.save(handle, stacked)
            os.replace(array_tmp, array_path)
            sidecar_tmp.write_text(json.dumps(doc, indent=2))
            os.replace(sidecar_tmp, sidecar_path)
        except BaseException:
            for tmp in (array_tmp, sidecar_tmp):
                try:
                    tmp.unlink()
                except OSError:
                    pass
            raise
        return sidecar_path

    @classmethod
    def load(
        cls,
        directory: str | Path,
        spec: FleetSpec,
        index: int,
        *,
        mmap: bool = True,
    ) -> "FleetShard":
        """Load a previously saved shard, memory-mapped by default.

        With ``mmap`` the per-corner arrays are read-only views into one
        :func:`numpy.load` ``mmap_mode="r"`` mapping — re-analysis touches
        only the pages it reads instead of regenerating (or even fully
        reading) the shard.  Validates the sidecar against ``spec`` and
        ``index``; any mismatch or damage raises, so callers can fall
        back to regeneration (:func:`load_or_generate_shard`).

        Raises:
            FileNotFoundError: no complete saved shard (sidecar missing).
            ValueError: the sidecar disagrees with ``spec``/``index`` or
                the tensor shape does not match the spec.
        """
        directory = Path(directory)
        doc = json.loads(cls.sidecar_path(directory, spec, index).read_text())
        if doc.get("scheme") != SHARD_SCHEME:
            raise ValueError(
                f"unsupported shard scheme {doc.get('scheme')!r}; this code "
                f"implements {SHARD_SCHEME!r}"
            )
        saved_spec = FleetSpec.from_dict(doc["spec"])
        if saved_spec.fingerprint() != spec.fingerprint() or doc["index"] != index:
            raise ValueError(
                "saved shard does not match the requested spec/index"
            )
        stacked = np.load(
            cls.array_path(directory, spec, index),
            mmap_mode="r" if mmap else None,
        )
        start, stop = spec.shard_bounds(index)
        expected = (len(spec.corners), stop - start, spec.ro_count)
        if stacked.shape != expected:
            raise ValueError(
                f"saved shard tensor has shape {stacked.shape}, spec "
                f"expects {expected}"
            )
        delays = {op: stacked[i] for i, op in enumerate(spec.corners)}
        return cls(spec=spec, index=index, delays=delays)


def load_or_generate_shard(
    spec: FleetSpec, index: int, shard_dir: str | Path | None = None
) -> FleetShard:
    """The shard, from disk when possible, regenerated (and saved) otherwise.

    With ``shard_dir`` ``None`` this is exactly :func:`generate_shard`.
    Otherwise a valid saved shard is loaded memory-mapped (skipping
    fabrication entirely); on a miss — or *any* defect in the saved pair —
    the shard is regenerated from the spec (always safe: generation is
    deterministic) and re-saved for the next run.  Save failures (read-only
    or full disk) are not fatal; the freshly generated shard is returned
    regardless.
    """
    if shard_dir is None:
        return generate_shard(spec, index)
    try:
        return FleetShard.load(shard_dir, spec, index)
    except (OSError, ValueError, KeyError):
        pass
    shard = generate_shard(spec, index)
    try:
        shard.save(shard_dir)
    except OSError:
        pass
    return shard


def generate_shard(spec: FleetSpec, index: int) -> FleetShard:
    """Fabricate and measure shard ``index`` of the fleet.

    All randomness comes from ``default_rng((spec.seed, index))`` in the
    fixed ``fleet-v1`` draw order, so the result is bit-identical no
    matter which process generates it or in what order shards run.
    """
    start, stop = spec.shard_bounds(index)
    count = stop - start
    rng = np.random.default_rng((spec.seed, index))

    process = ProcessVariationModel().parameters
    environment = EnvironmentModel()
    env_p = environment.parameters

    rows = -(-spec.ro_count // _GRID_COLUMNS)
    coords = grid_coordinates(_GRID_COLUMNS, rows)[: spec.ro_count]
    design = polynomial_design_matrix(coords, process.field_degree)
    exponents = monomial_exponents(process.field_degree)
    unit_scale = max(
        float(
            np.sqrt(
                sum(_monomial_variance(px, py) for px, py in exponents)
            )
        ),
        1e-12,
    )

    # fleet-v1 draw order — every step below is one vectorized draw over
    # the whole shard; reordering or resizing any of them changes all
    # generated fleets and requires a FLEET_DRAW_ORDER bump.
    offsets = rng.normal(0.0, process.sigma_board, size=count)
    raw_coeffs = rng.normal(0.0, 1.0, size=(count, len(exponents)))
    coefficients = raw_coeffs * (process.sigma_systematic / unit_scale)
    ripple_amp = rng.normal(0.0, process.ripple_sigma, size=count)
    ripple_freq = rng.uniform(0.5, 2.0, size=(count, 2))
    ripple_phase = rng.uniform(0.0, 2.0 * np.pi, size=count)
    mismatch = rng.normal(
        0.0, process.sigma_random, size=(count, spec.ro_count)
    )
    sensitivities = DeviceSensitivities(
        vth=rng.normal(
            env_p.vth_mean, env_p.vth_sigma, size=(count, spec.ro_count)
        ),
        alpha=rng.normal(
            env_p.alpha_mean, env_p.alpha_sigma, size=(count, spec.ro_count)
        ),
        mobility_exponent=rng.normal(
            env_p.mobility_exponent_mean,
            env_p.mobility_exponent_sigma,
            size=(count, spec.ro_count),
        ),
    )

    ripple_arg = 2.0 * np.pi * (
        ripple_freq[:, 0:1] * coords[None, :, 0]
        + ripple_freq[:, 1:2] * coords[None, :, 1]
    ) + ripple_phase[:, None]
    systematic = (
        coefficients @ design.T
        + ripple_amp[:, None] * np.sin(ripple_arg)
    )
    relative = 1.0 + offsets[:, None] + systematic + mismatch
    base_delays = process.nominal_delay * relative

    # The reference-corner scale is shared by every corner: evaluate it
    # once per shard (bit-identical to per-corner evaluation).
    reference_scale = environment.reference_scale(sensitivities)
    delays: dict[OperatingPoint, np.ndarray] = {}
    for op in spec.corners:
        true_delays = environment.delays_at(
            base_delays, sensitivities, op, reference_scale
        )
        noise = rng.normal(0.0, 1.0, size=true_delays.shape)
        delays[op] = true_delays * (1.0 + spec.noise_sigma * noise)
    return FleetShard(spec=spec, index=index, delays=delays)


def iter_shards(spec: FleetSpec):
    """Generate the fleet's shards one at a time (constant memory)."""
    for index in range(spec.shard_count):
        yield generate_shard(spec, index)
