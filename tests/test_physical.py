import math

import mpmath as mp
import numpy as np
import pytest

from biascool.constants import ELEMENTARY_CHARGE
from biascool.physical import (
    FIELD_UNITS,
    ParameterError,
    PhysicalParams,
    compute_eta,
    parse_quantity,
)

from conftest import ETA_DEFAULT, make_params, make_params_eta
from oracles import coulomb_potential_exact, coulomb_potential_quadratic, effective_frequency_sq


def mp_coulomb_exact(params, f, x):
    # independent high-precision evaluation of the two-term potential
    mp.mp.dps = 40
    k = mp.mpf(params.coulomb_k) * mp.mpf(params.capacitance) * mp.mpf(params.voltage_amplitude)
    k *= mp.mpf(f) * mp.mpf(params.resonator_charge)
    d = mp.mpf(params.separation)
    return k * (1 / (d + mp.mpf(x)) + 1 / (d - mp.mpf(x)))


class TestEta:
    def test_default_device_value(self, device_params):
        assert device_params.eta == pytest.approx(ETA_DEFAULT, rel=1e-12)
        assert device_params.eta == pytest.approx(1.25e7, rel=0.01)

    def test_zero_charge_decouples(self):
        params = make_params(charge_density=0.0)
        assert params.eta == 0.0

    def test_doubled_separation(self, device_params):
        params = make_params(separation=6.30e-6)
        assert params.eta == pytest.approx(1563915.231902275, rel=1e-12)
        assert params.eta == pytest.approx(device_params.eta / 8.0, rel=1e-12)

    def test_cached_property_matches_formula(self, device_params):
        assert device_params.eta == compute_eta(device_params)

    @pytest.mark.parametrize("seed", range(4))
    def test_homogeneity(self, device_params, seed):
        rng = np.random.default_rng(1000 + seed)
        a = float(rng.uniform(0.3, 3.0))
        eta0 = device_params.eta
        assert make_params(capacitance=27.5e-9 * a).eta == pytest.approx(a * eta0, rel=1e-12)
        assert make_params(voltage_amplitude=7.0 * a).eta == pytest.approx(a * eta0, rel=1e-12)
        assert make_params(charge_area=0.08e-12 * a).eta == pytest.approx(a * eta0, rel=1e-12)
        assert make_params(mass=40e-15 * a).eta == pytest.approx(eta0 / a, rel=1e-12)
        omega = device_params.bare_frequency
        assert make_params(bare_frequency=omega * a).eta == pytest.approx(eta0 / a**2, rel=1e-12)
        assert make_params(separation=3.15e-6 * a).eta == pytest.approx(eta0 / a**3, rel=1e-12)


class TestCoulombPotential:
    def test_symmetric_point(self, device_params):
        p = device_params
        expected = 2.0 * p.coulomb_k * p.capacitance * p.voltage_amplitude * p.resonator_charge
        expected /= p.separation
        assert coulomb_potential_exact(p, 1.0, 0.0) == pytest.approx(expected, rel=1e-14)
        # frozen from the mpmath oracle
        assert coulomb_potential_exact(p, 1.0, 0.0) == pytest.approx(1.7600444383368e-6, rel=1e-12)

    def test_no_bias_no_potential(self, device_params):
        for x in (-2e-6, 0.0, 1e-6, 3e-6):
            assert coulomb_potential_exact(device_params, 0.0, x) == 0.0

    def test_high_precision_golden(self, device_params):
        x = 0.01 * device_params.separation
        value = coulomb_potential_exact(device_params, 1.0, x)
        assert value == pytest.approx(1.7602204603828383e-6, rel=1e-12)  # frozen oracle value
        assert value == pytest.approx(float(mp_coulomb_exact(device_params, 1.0, x)), rel=1e-13)

    def test_even_in_x(self, device_params):
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.0, 0.9, size=20) * device_params.separation:
            left = coulomb_potential_exact(device_params, 0.7, -float(x))
            right = coulomb_potential_exact(device_params, 0.7, float(x))
            assert left == pytest.approx(right, rel=1e-14)

    def test_touching_electrode_rejected(self, device_params):
        d = device_params.separation
        for x in (d, -d, 1.5 * d):
            with pytest.raises(ParameterError):
                coulomb_potential_exact(device_params, 1.0, x)


class TestQuadraticApproximation:
    def test_zero_at_origin(self, device_params):
        assert coulomb_potential_quadratic(device_params, 1.0, 0.0) == 0.0

    def test_relative_error_scales_as_x2_over_d2(self, device_params):
        # exact - constant term = quadratic * (1 + x^2/d^2 + ...)
        p = device_params
        x = 0.01 * p.separation
        const = coulomb_potential_exact(p, 1.0, 0.0)
        exact_harmonic = coulomb_potential_exact(p, 1.0, x) - const
        quad = coulomb_potential_quadratic(p, 1.0, x)
        rel = abs(quad - exact_harmonic) / exact_harmonic
        assert rel == pytest.approx(1e-4, rel=2e-3)

    def test_taylor_coefficient_matches(self, device_params):
        # finite-difference curvature of the exact potential at x = 0
        p = device_params
        h = 1e-4 * p.separation
        fd2 = (
            coulomb_potential_exact(p, 1.0, h)
            - 2.0 * coulomb_potential_exact(p, 1.0, 0.0)
            + coulomb_potential_exact(p, 1.0, -h)
        ) / h**2
        quad_coeff = coulomb_potential_quadratic(p, 1.0, 1.0) / 1.0**2
        assert fd2 / 2.0 == pytest.approx(quad_coeff, rel=1e-6)

    def test_positive_stiffening(self, device_params):
        value = coulomb_potential_quadratic(device_params, 1.0, 1e-9)
        assert value == pytest.approx(1.7737913210751323e-13, rel=1e-12)  # frozen oracle value
        assert value > 0.0
        assert effective_frequency_sq(device_params, 1.0) > device_params.bare_frequency**2


class TestEffectiveFrequency:
    def test_bias_off(self, device_params):
        assert effective_frequency_sq(device_params, 0.0) == device_params.bare_frequency**2

    def test_full_bias_ratio(self):
        params = make_params_eta(1.25e7)
        ratio = math.sqrt(effective_frequency_sq(params, 1.0)) / params.bare_frequency
        assert ratio == pytest.approx(3535.534047354091, rel=1e-9)
        assert ratio == pytest.approx(3500.0, rel=0.011)  # the rounded headline number

    def test_imaginary_branch(self, device_params):
        f = -2.0 / device_params.eta
        expected = -device_params.bare_frequency**2
        assert effective_frequency_sq(device_params, f) == pytest.approx(expected, rel=1e-9)

    def test_linear_in_f(self, device_params):
        rng = np.random.default_rng(11)
        w0 = effective_frequency_sq(device_params, 0.0)
        slope = effective_frequency_sq(device_params, 1.0) - w0
        for f in rng.uniform(-2.0, 2.0, size=25):
            expected = w0 + slope * f
            assert effective_frequency_sq(device_params, float(f)) == pytest.approx(expected, rel=1e-12)


class TestParamsConstruction:
    def test_charge_derived_from_density_and_area(self, device_params):
        expected = ELEMENTARY_CHARGE * 1.25e17 * 0.08e-12
        assert device_params.resonator_charge == pytest.approx(expected, rel=1e-15)

    def test_direct_charge_wins_with_warning(self):
        with pytest.warns(UserWarning, match="overrides"):
            params = make_params(resonator_charge=2e-15)
        assert params.resonator_charge == 2e-15

    def test_consistent_direct_charge_is_silent(self, device_params):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = make_params(resonator_charge=device_params.resonator_charge)
        assert params.resonator_charge == device_params.resonator_charge

    @pytest.mark.parametrize(
        "field", ["capacitance", "mass", "bare_frequency", "separation", "bath_temperature"]
    )
    def test_nonpositive_inputs_rejected(self, field):
        for bad in (0.0, -1.0):
            with pytest.raises(ParameterError, match=field):
                make_params(**{field: bad})


class TestUnits:
    @pytest.mark.parametrize(
        "field,text,expected",
        [
            ("mass", "40 pg", 4e-14),
            ("mass", "40e-15", 40e-15),
            ("bare_frequency", "134 kHz", 2 * math.pi * 134e3),
            ("bare_frequency", "841946.8 rad/s", 841946.8),
            ("separation", "3.15 um", 3.15e-6),
            ("bath_temperature", "20 mK", 0.02),
            ("capacitance", "27.5 nF", 27.5e-9),
            ("charge_density", "1.25e13 /cm^2", 1.25e17),
            ("charge_density", "1.25e13 cm^-2", 1.25e17),
            ("charge_area", "0.08 um^2", 8e-14),
            ("voltage_amplitude", "7.00 V", 7.0),
            ("resonator_charge", "2 e", 2 * ELEMENTARY_CHARGE),
        ],
    )
    def test_parse_quantity(self, field, text, expected):
        assert parse_quantity(field, text) == pytest.approx(expected, rel=1e-12)

    def test_unknown_unit_mentions_field(self):
        with pytest.raises(ParameterError, match="mass"):
            parse_quantity("mass", "40 stone")

    def test_bad_number(self):
        with pytest.raises(ParameterError, match="separation"):
            parse_quantity("separation", "wide um")

    def test_unknown_field(self):
        with pytest.raises(ParameterError):
            parse_quantity("wingspan", "1 m")

    def test_units_cover_exactly_the_schema_fields(self):
        assert set(FIELD_UNITS) == set(PhysicalParams._fields)
