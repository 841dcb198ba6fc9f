"""Unit tests of the operating-environment delay model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.variation.environment import (
    NOMINAL_OPERATING_POINT,
    DeviceSensitivities,
    EnvironmentModel,
    EnvironmentParameters,
    OperatingPoint,
)


class TestOperatingPoint:
    def test_defaults_are_the_nominal_corner(self):
        op = OperatingPoint()
        assert op.voltage == 1.20
        assert op.temperature == 25.0
        assert op == NOMINAL_OPERATING_POINT

    def test_kelvin_conversion(self):
        assert OperatingPoint(1.2, 25.0).kelvin == pytest.approx(298.15)
        assert OperatingPoint(1.2, 0.0).kelvin == pytest.approx(273.15)

    def test_label_format(self):
        assert OperatingPoint(0.98, 65.0).label() == "0.98V/65C"

    def test_rejects_non_positive_voltage(self):
        with pytest.raises(ValueError, match="voltage"):
            OperatingPoint(voltage=0.0)
        with pytest.raises(ValueError, match="voltage"):
            OperatingPoint(voltage=-1.2)

    def test_rejects_below_absolute_zero(self):
        with pytest.raises(ValueError, match="absolute zero"):
            OperatingPoint(voltage=1.2, temperature=-300.0)

    def test_is_hashable_and_ordered(self):
        a = OperatingPoint(0.98, 25.0)
        b = OperatingPoint(1.20, 25.0)
        assert a < b
        assert len({a, b, OperatingPoint(0.98, 25.0)}) == 2


class TestEnvironmentParameters:
    def test_defaults_valid(self):
        params = EnvironmentParameters()
        assert params.vth_mean > 0

    def test_rejects_negative_sigmas(self):
        with pytest.raises(ValueError):
            EnvironmentParameters(vth_sigma=-0.01)
        with pytest.raises(ValueError):
            EnvironmentParameters(alpha_sigma=-1.0)
        with pytest.raises(ValueError):
            EnvironmentParameters(mobility_exponent_sigma=-1.0)

    def test_rejects_non_positive_vth(self):
        with pytest.raises(ValueError):
            EnvironmentParameters(vth_mean=0.0)


class TestDeviceSensitivities:
    def test_shape_consistency_enforced(self):
        with pytest.raises(ValueError, match="share one shape"):
            DeviceSensitivities(
                vth=np.ones(3), alpha=np.ones(2), mobility_exponent=np.ones(3)
            )

    def test_take_subsets(self):
        s = DeviceSensitivities(
            vth=np.arange(5.0), alpha=np.arange(5.0), mobility_exponent=np.arange(5.0)
        )
        subset = s.take(np.array([1, 3]))
        assert len(subset) == 2
        assert subset.vth.tolist() == [1.0, 3.0]


class TestEnvironmentModel:
    def setup_method(self):
        self.model = EnvironmentModel()
        self.rng = np.random.default_rng(0)
        self.sens = self.model.sample_sensitivities(100, self.rng)

    def test_sample_count(self):
        assert self.sens.shape == (100,)

    def test_sample_negative_count_rejected(self):
        with pytest.raises(ValueError):
            self.model.sample_sensitivities(-1, self.rng)

    def test_scale_is_one_at_reference(self):
        factors = self.model.scale_factors(self.sens, NOMINAL_OPERATING_POINT)
        assert np.allclose(factors, 1.0)

    def test_lower_voltage_slows_devices(self):
        factors = self.model.scale_factors(self.sens, OperatingPoint(0.98, 25.0))
        assert np.all(factors > 1.0)

    def test_higher_voltage_speeds_devices(self):
        factors = self.model.scale_factors(self.sens, OperatingPoint(1.44, 25.0))
        assert np.all(factors < 1.0)

    def test_higher_temperature_slows_devices(self):
        # Mobility degradation dominates the Vth reduction at these corners.
        factors = self.model.scale_factors(self.sens, OperatingPoint(1.20, 65.0))
        assert np.all(factors > 1.0)

    def test_voltage_monotonicity_per_device(self):
        voltages = [0.98, 1.08, 1.20, 1.32, 1.44]
        scales = np.stack(
            [
                self.model.scale_factors(self.sens, OperatingPoint(v, 25.0))
                for v in voltages
            ]
        )
        assert np.all(np.diff(scales, axis=0) < 0.0)

    def test_devices_drift_differently(self):
        factors = self.model.scale_factors(self.sens, OperatingPoint(0.98, 25.0))
        assert np.std(factors) > 0.0

    def test_delays_at_scales_base(self):
        base = np.full(100, 500e-12)
        delays = self.model.delays_at(base, self.sens, NOMINAL_OPERATING_POINT)
        assert np.allclose(delays, base)

    def test_shared_reference_scale_is_bit_identical(self):
        base = np.full(100, 500e-12)
        shared = self.model.reference_scale(self.sens)
        for op in (
            NOMINAL_OPERATING_POINT,
            OperatingPoint(0.98, 25.0),
            OperatingPoint(1.20, 65.0),
        ):
            assert np.array_equal(
                self.model.delays_at(base, self.sens, op, shared),
                self.model.delays_at(base, self.sens, op),
            )

    def test_delays_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            self.model.delays_at(np.ones(3), self.sens, NOMINAL_OPERATING_POINT)

    def test_voltage_below_threshold_rejected(self):
        with pytest.raises(ValueError, match="alpha-power"):
            self.model.scale_factors(self.sens, OperatingPoint(0.3, 25.0))

    @given(
        voltage=st.floats(0.9, 1.5),
        temperature=st.floats(0.0, 85.0),
    )
    def test_scale_factors_positive_everywhere(self, voltage, temperature):
        model = EnvironmentModel()
        sens = model.sample_sensitivities(10, np.random.default_rng(1))
        factors = model.scale_factors(sens, OperatingPoint(voltage, temperature))
        assert np.all(factors > 0.0)

    def test_deterministic_given_seed(self):
        a = EnvironmentModel().sample_sensitivities(8, np.random.default_rng(5))
        b = EnvironmentModel().sample_sensitivities(8, np.random.default_rng(5))
        assert np.array_equal(a.vth, b.vth)
        assert np.array_equal(a.alpha, b.alpha)
