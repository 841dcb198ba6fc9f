"""Operating-environment model: how device delay responds to voltage and
temperature.

The paper evaluates PUF reliability while the supply voltage sweeps over
0.98 V - 1.44 V and the die temperature over 25 degC - 65 degC (Sec. IV.D).
Bit flips happen because two nominally-compared delay paths drift by
*different* amounts when the environment changes.  We reproduce that with a
first-order alpha-power-law delay model in which every device carries its own
threshold voltage, velocity-saturation index, and mobility exponent.  The
per-device spread of those sensitivities is what makes delay orderings
environment-dependent, exactly as on real silicon.

The model is normalised so that ``delay(reference_point) == base_delay`` for
every device; only the *relative* drift between devices matters for PUF
behaviour, which is all the paper's experiments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OperatingPoint",
    "NOMINAL_OPERATING_POINT",
    "EnvironmentParameters",
    "DeviceSensitivities",
    "EnvironmentModel",
]

_CELSIUS_TO_KELVIN = 273.15


@dataclass(frozen=True, order=True)
class OperatingPoint:
    """A (voltage, temperature) pair describing the chip environment.

    Attributes:
        voltage: supply voltage in volts.
        temperature: die temperature in degrees Celsius.
    """

    voltage: float = 1.20
    temperature: float = 25.0

    def __post_init__(self) -> None:
        if self.voltage <= 0.0:
            raise ValueError(f"voltage must be positive, got {self.voltage}")
        if self.temperature <= -_CELSIUS_TO_KELVIN:
            raise ValueError(
                f"temperature below absolute zero: {self.temperature} degC"
            )

    @property
    def kelvin(self) -> float:
        """Die temperature in kelvin."""
        return self.temperature + _CELSIUS_TO_KELVIN

    def label(self) -> str:
        """Short human-readable label, e.g. ``'1.20V/25C'``."""
        return f"{self.voltage:.2f}V/{self.temperature:g}C"


#: The enrollment environment used throughout the paper's evaluation.
NOMINAL_OPERATING_POINT = OperatingPoint(voltage=1.20, temperature=25.0)


@dataclass(frozen=True)
class EnvironmentParameters:
    """Population parameters of the environmental-sensitivity model.

    The defaults are calibrated for a 90 nm-class FPGA fabric (Spartan-3E /
    Virtex-5 era) so that a traditional RO PUF shows a few percent of bit
    flips across the paper's voltage range while the margin-maximising
    configurable PUF stays near zero, matching the shape of Fig. 4.

    Attributes:
        vth_mean: mean transistor threshold voltage (V).
        vth_sigma: per-device threshold-voltage standard deviation (V).
            This spread is the dominant source of *differential* drift.
        alpha_mean: mean velocity-saturation index of the alpha-power law.
        alpha_sigma: per-device spread of the index.
        mobility_exponent_mean: mean exponent of the ``(T/T0)**m`` mobility
            degradation term.
        mobility_exponent_sigma: per-device spread of the exponent.
        vth_temp_slope: threshold-voltage reduction per degC (V/degC); a
            positive value means Vth drops as temperature rises.
    """

    vth_mean: float = 0.40
    vth_sigma: float = 0.008
    alpha_mean: float = 1.30
    alpha_sigma: float = 0.010
    mobility_exponent_mean: float = 1.40
    mobility_exponent_sigma: float = 0.020
    vth_temp_slope: float = 4.0e-4

    def __post_init__(self) -> None:
        if self.vth_mean <= 0.0:
            raise ValueError("vth_mean must be positive")
        for name in ("vth_sigma", "alpha_sigma", "mobility_exponent_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class DeviceSensitivities:
    """Per-device environmental sensitivities (structure of arrays).

    All three arrays share one shape; element ``i`` describes device ``i``.

    Attributes:
        vth: per-device threshold voltage at 25 degC (V).
        alpha: per-device velocity-saturation index.
        mobility_exponent: per-device mobility-degradation exponent.
    """

    vth: np.ndarray
    alpha: np.ndarray
    mobility_exponent: np.ndarray

    def __post_init__(self) -> None:
        self.vth = np.asarray(self.vth, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.mobility_exponent = np.asarray(self.mobility_exponent, dtype=float)
        if not (self.vth.shape == self.alpha.shape == self.mobility_exponent.shape):
            raise ValueError("sensitivity arrays must share one shape")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.vth.shape

    def __len__(self) -> int:
        if self.vth.ndim == 0:
            raise TypeError("scalar sensitivities have no length")
        return self.vth.shape[0]

    def take(self, indices: np.ndarray) -> "DeviceSensitivities":
        """Return the sensitivities of a subset of devices."""
        return DeviceSensitivities(
            vth=self.vth[indices],
            alpha=self.alpha[indices],
            mobility_exponent=self.mobility_exponent[indices],
        )


@dataclass
class EnvironmentModel:
    """Maps (base delay, device sensitivities, operating point) to delay.

    The delay of a device at operating point ``op`` is::

        delay(op) = base_delay * scale(op) / scale(reference)

    with the alpha-power-law scale factor::

        scale = (T_K / T_ref_K) ** m  *  V / (V - Vth(T)) ** alpha
        Vth(T) = vth - vth_temp_slope * (T - 25)

    Attributes:
        parameters: population parameters of the sensitivity model.
        reference: operating point at which ``delay == base_delay``.
    """

    parameters: EnvironmentParameters = field(default_factory=EnvironmentParameters)
    reference: OperatingPoint = NOMINAL_OPERATING_POINT

    def sample_sensitivities(
        self, count: int, rng: np.random.Generator
    ) -> DeviceSensitivities:
        """Draw per-device sensitivities for ``count`` devices."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        p = self.parameters
        return DeviceSensitivities(
            vth=rng.normal(p.vth_mean, p.vth_sigma, size=count),
            alpha=rng.normal(p.alpha_mean, p.alpha_sigma, size=count),
            mobility_exponent=rng.normal(
                p.mobility_exponent_mean, p.mobility_exponent_sigma, size=count
            ),
        )

    def _raw_scale(
        self, sensitivities: DeviceSensitivities, op: OperatingPoint
    ) -> np.ndarray:
        vth_at_t = sensitivities.vth - self.parameters.vth_temp_slope * (
            op.temperature - 25.0
        )
        overdrive = op.voltage - vth_at_t
        if np.any(overdrive <= 0.0):
            raise ValueError(
                f"supply voltage {op.voltage} V does not exceed every device "
                "threshold; the alpha-power delay model is invalid there"
            )
        thermal = (op.kelvin / self.reference.kelvin) ** sensitivities.mobility_exponent
        return thermal * op.voltage / overdrive**sensitivities.alpha

    def reference_scale(self, sensitivities: DeviceSensitivities) -> np.ndarray:
        """Unnormalised scale at the reference point, the common denominator.

        Pass it as ``reference_scale`` to :meth:`scale_factors` or
        :meth:`delays_at` to evaluate it once for a sweep over several
        corners; the results are bit-identical to omitting it.
        """
        return self._raw_scale(sensitivities, self.reference)

    def scale_factors(
        self,
        sensitivities: DeviceSensitivities,
        op: OperatingPoint,
        reference_scale: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-device multiplicative delay factors, 1.0 at the reference."""
        if reference_scale is None:
            reference_scale = self.reference_scale(sensitivities)
        return self._raw_scale(sensitivities, op) / reference_scale

    def delays_at(
        self,
        base_delays: np.ndarray,
        sensitivities: DeviceSensitivities,
        op: OperatingPoint,
        reference_scale: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-device delays at ``op`` given reference-point base delays."""
        base_delays = np.asarray(base_delays, dtype=float)
        if base_delays.shape != sensitivities.shape:
            raise ValueError(
                "base_delays shape "
                f"{base_delays.shape} != sensitivities shape {sensitivities.shape}"
            )
        return base_delays * self.scale_factors(
            sensitivities, op, reference_scale
        )
