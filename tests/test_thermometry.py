import math

import numpy as np
import pytest

from biascool.constants import BOLTZMANN, HBAR
from biascool.dynamics import GaussianState, thermal_state
from biascool.thermometry import (
    ThermometryError,
    effective_temperature,
    occupation,
    occupation_from_state,
    state_frequency,
    thermal_occupation,
)

from conftest import NBAR_COLD, NBAR_HOT, OMEGA0_DEFAULT, OMEGA_M_SI, TEFF_FINAL


class TestThermalOccupation:
    def test_bare_frequency_20mK(self):
        # frozen from the mpmath oracle; the rounded headline value is 3100
        nbar = thermal_occupation(OMEGA_M_SI, 0.02)
        assert nbar == pytest.approx(NBAR_HOT, rel=1e-12)
        assert 3050.0 < nbar < 3150.0

    def test_boosted_frequency_20mK(self):
        nbar = thermal_occupation(OMEGA0_DEFAULT * OMEGA_M_SI, 0.02)
        assert nbar == pytest.approx(NBAR_COLD, rel=1e-12)
        assert abs(nbar - 0.47) < 0.01

    def test_rounded_ratio_example(self):
        # frozen oracle value at the rounded frequency ratio 3535.5
        nbar = thermal_occupation(3535.5 * OMEGA_M_SI, 0.02)
        assert nbar == pytest.approx(0.47238985713104343, rel=1e-12)

    def test_log_two_point_gives_unit_occupation(self):
        omega = math.log(2.0) * BOLTZMANN * 0.02 / HBAR
        assert thermal_occupation(omega, 0.02) == pytest.approx(1.0, rel=1e-12)

    def test_extreme_ratio_underflows_gracefully(self):
        assert thermal_occupation(OMEGA_M_SI, 1e-9) == pytest.approx(0.0, abs=1e-300)

    def test_domain(self):
        with pytest.raises(ThermometryError):
            thermal_occupation(0.0, 0.02)
        with pytest.raises(ThermometryError):
            thermal_occupation(OMEGA_M_SI, 0.0)

    def test_monotone_in_frequency_and_temperature(self):
        omegas = np.geomspace(1e3, 1e12, 40)
        values = [thermal_occupation(float(w), 0.02) for w in omegas]
        assert all(a > b for a, b in zip(values, values[1:]))
        temps = np.geomspace(1e-6, 300.0, 40)
        values = [thermal_occupation(OMEGA_M_SI, float(T)) for T in temps]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_high_temperature_limit_bound(self):
        # equipartition error is first order in hbar omega / kB T
        x = HBAR * OMEGA_M_SI / (BOLTZMANN * 0.02)
        nbar = thermal_occupation(OMEGA_M_SI, 0.02)
        assert abs(nbar - 1.0 / x) / nbar < x
        assert x == pytest.approx(3.215e-4, rel=1e-3)

    @pytest.mark.parametrize(
        "omega,temperature,x",
        [(1e-20, 1e300, 0.0), (1e-20, 1e290, 7.66e-322)],
        ids=["x_underflows_to_zero", "x_subnormal"],
    )
    def test_occupation_beyond_the_float_range_is_an_error(self, omega, temperature, x):
        # the T -> inf limit: 1/expm1(x) divides by zero at x = 0 and overflows for a subnormal x
        assert HBAR * omega / (BOLTZMANN * temperature) == x
        with pytest.raises(ThermometryError, match="leaves the float range"):
            thermal_occupation(omega, temperature)

    def test_tiny_normal_ratio_keeps_its_bits(self):
        omega, temperature = 1e-300 / HBAR, 1.0 / BOLTZMANN
        assert HBAR * omega / (BOLTZMANN * temperature) == 1e-300
        assert thermal_occupation(omega, temperature) == 9.999999999999999e299


class TestEffectiveTemperature:
    def test_final_temperature_headline(self):
        t_eff = effective_temperature(OMEGA_M_SI, NBAR_COLD)
        assert t_eff == pytest.approx(TEFF_FINAL, rel=1e-12)
        assert t_eff == pytest.approx(6e-6, rel=0.15)  # rounded headline: 6 uK

    def test_boosted_reference_recovers_bath(self):
        assert effective_temperature(OMEGA0_DEFAULT * OMEGA_M_SI, NBAR_COLD) == pytest.approx(
            0.02, rel=1e-12
        )

    def test_round_trip_with_occupation(self):
        # domain restricted so nbar stays representable (hbar w / kB T < ~700)
        rng = np.random.default_rng(5)
        for _ in range(30):
            omega = float(rng.uniform(1e4, 1e9))
            temp = float(10 ** rng.uniform(-4, 2))
            nbar = thermal_occupation(omega, temp)
            assert effective_temperature(omega, nbar) == pytest.approx(temp, rel=1e-12)

    def test_zero_occupation_convention(self):
        assert effective_temperature(OMEGA_M_SI, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ThermometryError):
            effective_temperature(0.0, 1.0)
        with pytest.raises(ThermometryError):
            effective_temperature(OMEGA_M_SI, -0.1)

    @pytest.mark.parametrize("n_bar", [1e200, 1e284, 6.2e284, 1e285, 3e300, 1e305, 1.7e308])
    def test_huge_occupation_gives_a_finite_temperature(self, n_bar):
        # past n ~ 6e284 kB ln(1 + 1/n) is subnormal, past ~3e300 it is 0;
        # T = hbar omega n / kB holds there to rounding
        expected = HBAR * OMEGA_M_SI * n_bar / BOLTZMANN
        assert effective_temperature(OMEGA_M_SI, n_bar) == pytest.approx(expected, rel=1e-12)


class TestOccupationFromState:
    def test_thermal_round_trip(self, device_params):
        for omega_sq in (1.0, 16.0, 1.0 + device_params.eta):
            state = thermal_state(device_params, omega_sq, device_params.bath_temperature)
            omega_si = math.sqrt(omega_sq) * device_params.bare_frequency
            expected = thermal_occupation(omega_si, device_params.bath_temperature)
            assert occupation_from_state(state, omega_sq) == pytest.approx(expected, rel=1e-12)

    def test_ground_state_is_zero(self):
        state = GaussianState(xx=0.25, pp=1.0)  # vacuum of omega^2 = 4
        assert occupation_from_state(state, 4.0) == 0.0

    def test_tiny_negative_clamps_silently(self):
        import warnings

        state = GaussianState(xx=0.5 * (1.0 - 1e-12), pp=0.5 * (1.0 - 1e-12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert occupation_from_state(state, 1.0) == 0.0

    def test_large_negative_warns(self):
        state = GaussianState(xx=0.4, pp=0.4)
        with pytest.warns(UserWarning, match="clamping"):
            assert occupation_from_state(state, 1.0) == 0.0

    def test_warning_points_at_the_caller(self):
        # occupation_from_state wraps the scalar formula; its warning still names this file, as
        # compiled: a copied __pycache__ keeps the original path in co_filename, not __file__
        for call in (lambda: occupation_from_state(GaussianState(0.4, 0.4), 1.0),
                     lambda: occupation(0.4, 0.4, 1.0)):
            with pytest.warns(UserWarning, match="clamping") as record:
                call()
            assert record[0].filename == self.test_warning_points_at_the_caller.__code__.co_filename

    def test_reference_frequency_minimizes_at_state_frequency(self):
        state = GaussianState(xx=1.3, pp=3.25)  # zero correlation
        ref_star = state_frequency(state)
        n_star = occupation_from_state(state, ref_star)
        for ref in np.geomspace(ref_star / 30.0, ref_star * 30.0, 41):
            assert occupation_from_state(state, float(ref)) >= n_star - 1e-12

    def test_domain(self):
        state = GaussianState(xx=1.0, pp=1.0)
        with pytest.raises(ThermometryError):
            occupation_from_state(state, 0.0)


class TestStateFrequency:
    def test_thermal_state_recovers_frequency(self, device_params):
        state = thermal_state(device_params, 6.25, device_params.bath_temperature)
        assert state_frequency(state) == pytest.approx(6.25, rel=1e-12)

    def test_squeezing_scales_by_sixteenth(self):
        base = GaussianState(xx=1.0, pp=2.25)
        squeezed = GaussianState(xx=base.xx * 4.0, pp=base.pp / 4.0)
        assert state_frequency(squeezed) == pytest.approx(state_frequency(base) / 16.0, rel=1e-12)
