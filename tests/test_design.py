import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biascool.design import (
    ControlTrajectory,
    DesignError,
    TrajectorySpec,
    b_polynomial,
    control_function,
    effective_frequency_profile,
    linspace,
    make_spec,
    make_trajectory,
    shortest_ramp,
    signed_sqrt,
    validate_trajectory,
    _drive_turns,
)

from conftest import CHI_DEFAULT, make_params, make_params_eta
from oracles import validate_trajectory_numpy


def mp_control_function(eta, t_f, t):
    # independent extended-precision evaluation of the closed-form drive
    mp.mp.dps = 40
    eta = mp.mpf(repr(eta))
    chi = (1 + eta) ** mp.mpf("0.25")
    om0sq = 1 + eta
    s = mp.mpf(repr(t)) / mp.mpf(repr(t_f))
    c = chi - 1
    b = 6 * c * s**5 - 15 * c * s**4 + 10 * c * s**3 + 1
    b_dd = (120 * c * s**3 - 180 * c * s**2 + 60 * c * s) / mp.mpf(repr(t_f)) ** 2
    return float((om0sq - b**3 * b_dd - b**4) / (eta * b**4))


class TestBPolynomial:
    def test_endpoints(self):
        chi = 59.46
        assert b_polynomial(0.0, chi) == (1.0, 0.0, 0.0)
        b, db, d2b = b_polynomial(1.0, chi)
        assert b == pytest.approx(chi, rel=5e-15)
        assert db == 0.0
        assert d2b == 0.0

    def test_midpoint(self):
        chi = 59.46
        b, _, d2b = b_polynomial(0.5, chi)
        assert b == pytest.approx((chi + 1.0) / 2.0, rel=1e-14)
        assert d2b == 0.0  # the quintic has an inflection at s = 1/2

    def test_unit_chi_is_identity(self):
        s = np.linspace(0.0, 1.0, 101)
        b, db, d2b = b_polynomial(s, 1.0)
        assert np.all(b == 1.0)
        assert np.all(db == 0.0)
        assert np.all(d2b == 0.0)

    def test_array_matches_scalar(self):
        s = np.linspace(0.0, 1.0, 17)
        b, db, d2b = b_polynomial(s, 3.7)
        for i, si in enumerate(s):
            bs, dbs, d2bs = b_polynomial(float(si), 3.7)
            assert (b[i], db[i], d2b[i]) == (bs, dbs, d2bs)

    @pytest.mark.parametrize("s", [-0.1, 1.1, 2.0])
    def test_domain(self, s):
        with pytest.raises(DesignError):
            b_polynomial(s, 2.0)

    def test_derivatives_by_finite_differences(self):
        chi = 12.0
        h = 1e-4  # large enough to keep the second difference above rounding
        for s in (0.2, 0.35, 0.8):
            b_m, _, _ = b_polynomial(s - h, chi)
            b0, db, d2b = b_polynomial(s, chi)
            b_p, _, _ = b_polynomial(s + h, chi)
            assert (b_p - b_m) / (2 * h) == pytest.approx(db, rel=1e-6)
            assert (b_p - 2 * b0 + b_m) / h**2 == pytest.approx(d2b, rel=1e-4)


class TestSpec:
    def test_default_device_chi(self, device_params):
        spec = make_spec(device_params, 1.0)
        assert spec.chi == pytest.approx(CHI_DEFAULT, rel=1e-12)
        assert spec.omega0_sq == 1.0 + device_params.eta
        assert spec.omega_final_sq == 1.0

    def test_rounded_eta_chi(self):
        spec = make_spec(make_params_eta(1.25e7), 1.0)
        assert spec.chi == pytest.approx(59.460356939343133, rel=1e-9)

    def test_zero_eta_chi_is_one(self):
        spec = make_spec(make_params(charge_density=0.0), 1.0)
        assert spec.chi == 1.0

    def test_eta_fifteen(self):
        spec = make_spec(make_params_eta(15.0), 2.0)
        assert spec.chi == pytest.approx(2.0, rel=1e-12)

    def test_inverted_start_rejected(self):
        params = make_params_eta(-1.5)
        with pytest.raises(DesignError):
            make_spec(params, 1.0)

    def test_nonpositive_t_final_rejected(self, device_params):
        with pytest.raises(DesignError):
            make_spec(device_params, 0.0)

    def test_chi_consistency_invariant(self):
        spec = TrajectorySpec(16.0, 1.0, 1.0)
        assert spec.chi**4 * spec.omega_final_sq == pytest.approx(spec.omega0_sq, rel=1e-12)


class TestControlFunction:
    @pytest.mark.parametrize("t_final", [0.5, 1.0, 2.0])
    def test_boundary_values(self, device_params, t_final):
        traj = make_trajectory(device_params, t_final)
        assert abs(control_function(traj, 0.0) - 1.0) < 1e-9
        assert abs(control_function(traj, t_final)) < 1e-9

    def test_golden_midpoint(self, device_params):
        # frozen from the mpmath oracle below (b'' = 0 there, pure b^4 term)
        traj = make_trajectory(device_params, 0.5)
        value = control_function(traj, 0.25)
        assert value == pytest.approx(1.1164010600357771e-6, rel=1e-12)
        assert value == pytest.approx(mp_control_function(device_params.eta, 0.5, 0.25), rel=1e-12)

    def test_golden_quarter_point(self, device_params):
        # frozen from the mpmath oracle; exercises the b^3 b'' term
        traj = make_trajectory(device_params, 0.5)
        value = control_function(traj, 0.125)
        assert value == pytest.approx(3.8913552804021213e-4, rel=1e-12)
        assert value == pytest.approx(mp_control_function(device_params.eta, 0.5, 0.125), rel=1e-12)

    def test_zero_eta_rejected(self):
        spec = TrajectorySpec(4.0, 4.0, 1.0)
        traj = ControlTrajectory(spec, eta=0.0)
        with pytest.raises(DesignError):
            control_function(traj, 0.5)

    def test_vectorized(self, device_params):
        traj = make_trajectory(device_params, 1.0)
        t = np.linspace(0.0, 1.0, 33)
        f = control_function(traj, t)
        assert f.shape == t.shape
        for i, ti in enumerate(t):
            assert f[i] == control_function(traj, float(ti))


class TestFrequencyProfile:
    def test_boundaries(self, device_params):
        traj = make_trajectory(device_params, 1.0)
        assert effective_frequency_profile(traj, 0.0) == pytest.approx(
            traj.spec.omega0_sq, rel=1e-12
        )
        assert effective_frequency_profile(traj, 1.0) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("t_final", [0.5, 1.0, 2.0])
    def test_two_closed_forms_agree(self, device_params, t_final):
        # 1 + eta f  versus  omega0^2/b^4 - b''/b
        traj = make_trajectory(device_params, t_final)
        spec = traj.spec
        rng = np.random.default_rng(23)
        t = rng.uniform(0.0, t_final, size=1000)
        w_drive = np.asarray(effective_frequency_profile(traj, t))
        b, _, d2b = b_polynomial(t / t_final, spec.chi)
        w_ermakov = spec.omega0_sq / b**4 - (d2b / t_final**2) / b
        assert np.allclose(w_drive, w_ermakov, rtol=1e-9, atol=1e-9)

    def test_fast_closure_matches_public(self, device_params):
        traj = make_trajectory(device_params, 1.0)
        w = traj.frequency_sq_fn()
        for t in np.linspace(0.0, 1.0, 97):
            assert w(float(t)) == pytest.approx(effective_frequency_profile(traj, float(t)), rel=1e-14)

    @pytest.mark.parametrize("t_final", [0.1, 1.0, 8.0])
    @pytest.mark.parametrize("f_scale", [0.9, 1.0, 1.1])
    def test_one_kernel_bit_for_bit(self, device_params, t_final, f_scale):
        # the integrators' closure, scalar calls and array calls are one formula
        nominal = make_trajectory(device_params, t_final)
        traj = ControlTrajectory(nominal.spec, nominal.eta, f_scale)
        w = traj.frequency_sq_fn()
        t = np.linspace(0.0, t_final, 4001)
        vector = traj.omega_eff_sq(t)
        for i, ti in enumerate(t.tolist()):
            assert w(ti) == traj.omega_eff_sq(ti) == vector[i]

    def test_zero_eta_closure_rejected(self):
        traj = ControlTrajectory(TrajectorySpec(4.0, 1.0, 1.0), eta=0.0)
        with pytest.raises(DesignError):
            traj.frequency_sq_fn()

    @pytest.mark.parametrize("t_final", [0.1, 1.0, 8.0])
    def test_b_polynomial_is_the_kernel_quintic(self, device_params, t_final):
        # the drive rebuilt from b_polynomial in the kernel's operation order
        # equals the kernel bit for bit, so b and b'' are the kernel's own
        traj = make_trajectory(device_params, t_final)
        spec, eta = traj.spec, traj.eta
        t = np.linspace(0.0, t_final, 4001)
        b, _, d2b = b_polynomial(t / t_final, spec.chi)
        b4 = (b * b) * (b * b)
        rebuilt = 1.0 + eta * ((spec.omega0_sq - b * b * b * (d2b / (t_final * t_final)) - b4) / (eta * b4))
        kernel = traj.frequency_sq_fn()(t)
        assert np.array_equal(rebuilt, kernel)

    @pytest.mark.parametrize("t_final", [0.5, 1.0, 2.0])
    def test_ermakov_residual(self, device_params, t_final):
        # b'' + w b - omega0^2/b^3 vanishes identically for the designed drive
        traj = make_trajectory(device_params, t_final)
        spec = traj.spec
        rng = np.random.default_rng(29)
        t = rng.uniform(0.0, t_final, size=1000)
        b, _, d2b = b_polynomial(t / t_final, spec.chi)
        w = np.asarray(effective_frequency_profile(traj, t))
        residual = d2b / t_final**2 + w * b - spec.omega0_sq / b**3
        assert np.max(np.abs(residual)) < 1e-9 * spec.omega0_sq

    def test_boundary_conditions_closed_form(self, device_params):
        for t_final in (0.5, 1.0, 2.0):
            spec = make_spec(device_params, t_final)
            b0, db0, d2b0 = b_polynomial(0.0, spec.chi)
            b1, db1, d2b1 = b_polynomial(1.0, spec.chi)
            assert abs(b0 - 1.0) <= 1e-12
            assert abs(db0) <= 1e-12 and abs(d2b0) <= 1e-12
            assert abs(b1 - spec.chi) <= 1e-12 * spec.chi
            assert abs(db1) <= 1e-12 and abs(d2b1) <= 1e-12

    def test_scale_factor_stays_above_one(self, device_params):
        spec = make_spec(device_params, 1.0)
        s = np.linspace(0.0, 1.0, 20001)
        b, _, _ = b_polynomial(s, spec.chi)
        assert np.min(b) >= 1.0

    def test_eta_affine_rescaling(self):
        # same b trajectory, two couplings: eta*f + 1 must coincide
        spec = TrajectorySpec(100.0, 1.0, 1.0)
        t = np.linspace(0.0, 1.0, 57)
        traj_a = ControlTrajectory(spec, eta=3.0)
        traj_b = ControlTrajectory(spec, eta=800.0)
        wa = 1.0 + traj_a.eta * np.asarray(control_function(traj_a, t))
        wb = 1.0 + traj_b.eta * np.asarray(control_function(traj_b, t))
        assert np.allclose(wa, wb, rtol=1e-12)


class TestValidation:
    def test_unit_chi_trajectory(self):
        # omega0 = omega_final: constant drive, no interior excursion
        spec = TrajectorySpec(4.0, 4.0, 1.0)
        traj = ControlTrajectory(spec, eta=5.0)
        report = validate_trajectory(traj, 101)
        assert report.max_abs_f == pytest.approx(0.6, rel=1e-12)  # (4-1)/5
        assert report.negative_omega_sq_windows == ()
        f = control_function(traj, 0.37)
        assert f == pytest.approx(0.6, rel=1e-12)

    @pytest.mark.parametrize("t_final", [0.5, 1.0, 2.0])
    def test_default_device_trajectories(self, device_params, t_final):
        traj = make_trajectory(device_params, t_final)
        report = validate_trajectory(traj, 4001)
        assert report.boundary_residual_start < 1e-9
        assert report.boundary_residual_end < 1e-9
        # empirical for this device: drive stays within |f| <= 1, no
        # imaginary-frequency windows even at the fastest ramp
        assert report.f_within_unit
        assert report.negative_omega_sq_windows == ()
        assert report.f_within_unit and not report.negative_omega_sq_windows

    def test_detects_negative_windows(self):
        # a ramp from a *lower* to a higher frequency with tiny t_f needs
        # transient inversion; engineered here via an inverted spec
        spec = TrajectorySpec(1.0, 10000.0, 0.05)
        traj = ControlTrajectory(spec, eta=1e4)
        report = validate_trajectory(traj, 2001)
        assert report.negative_omega_sq_windows
        lo, hi = report.negative_omega_sq_windows[0]
        assert 0.0 < lo <= hi < 0.05

    @pytest.mark.parametrize("omega_final_sq", [4.0, 0.25])
    @pytest.mark.parametrize("n_samples", [2, 3, 101, 1001])
    def test_windows_are_the_runs_of_negative_omega_sq(self, omega_final_sq, n_samples):
        # the exact windows contain every run of w < 0 of a direct scan
        spec = TrajectorySpec(0.25, omega_final_sq, 1.0)
        assert_contains_scan(ControlTrajectory(spec, eta=1.0, f_scale=2.0), n_samples)

    def test_windows_at_the_first_sample_and_everywhere(self):
        spec = TrajectorySpec(0.25, 4.0, 1.0)
        traj = ControlTrajectory(spec, eta=1.0, f_scale=2.0)
        (start, first_end), (lo, hi) = validate_trajectory(traj).negative_omega_sq_windows
        assert start == 0.0 and 0.0 < first_end < 0.01  # a 101-sample scan saw (0.0, 0.0)
        assert 0.51 < lo < 0.52 and 0.92 < hi < 0.93  # and (0.52, 0.92)
        assert_contains_scan(traj, 101)
        spec = TrajectorySpec(0.25, 0.25, 1.0)
        windows = validate_trajectory(ControlTrajectory(spec, eta=1.0, f_scale=2.0))
        assert windows.negative_omega_sq_windows == ((0.0, 1.0),)

    def test_sample_count_domain(self, device_params):
        # the sample count callers still pass is ignored, even an unusable one
        traj = make_trajectory(device_params, 1.0)
        assert validate_trajectory(traj, 1) == validate_trajectory(traj, 1001) == validate_trajectory(traj)


def assert_contains_scan(traj, n):
    """The exact report against an n-sample scan of the drive kernel (the numpy oracle).

    Every negative sample of omega_eff^2 lies inside an exact window;
    every exact window wider than the sample spacing holds a negative
    sample; the exact sup of |f| is at least the sampled maximum, or NaN
    where a sample is.
    """
    exact = validate_trajectory(traj)
    t = np.linspace(0.0, traj.t_final, n)
    with np.errstate(all="ignore"):
        sampled = validate_trajectory_numpy(traj, n)
        w = np.asarray(effective_frequency_profile(traj, t))
    windows = exact.negative_omega_sq_windows
    for ti in t[w < 0.0].tolist():
        assert any(lo <= ti <= hi for lo, hi in windows), (ti, windows)
    for lo, hi in windows:
        assert 0.0 <= lo < hi <= traj.t_final
        if hi - lo > traj.t_final / (n - 1):
            assert np.any((lo <= t) & (t <= hi) & (w < 0.0)), (lo, hi)
    if math.isnan(sampled.max_abs_f):
        assert math.isnan(exact.max_abs_f)
    else:
        assert exact.max_abs_f >= sampled.max_abs_f
    assert exact.f_within_unit == (exact.max_abs_f <= 1.0)
    assert exact.boundary_residual_start == sampled.boundary_residual_start or math.isnan(sampled.boundary_residual_start)
    assert exact.boundary_residual_end == sampled.boundary_residual_end or math.isnan(sampled.boundary_residual_end)


# the specs the tests above validate, as (spec, eta, f_scale)
EDGE_SPECS = [
    (TrajectorySpec(4.0, 4.0, 1.0), 5.0, 1.0),
    (TrajectorySpec(1.0, 10000.0, 0.05), 1e4, 1.0),
    (TrajectorySpec(0.25, 4.0, 1.0), 1.0, 2.0),
    (TrajectorySpec(0.25, 0.25, 1.0), 1.0, 2.0),
    (TrajectorySpec(16.0, 1.0, 1.0), 15.0, -1.0),  # eta f_scale < 0: omega_eff^2 dips at max f0
    (TrajectorySpec(16.0, 1.0, 1.0), 15.0, 0.0),  # omega_eff^2 = 1 everywhere
    (TrajectorySpec(100.0, 1.0, 1.0), -0.5, 3.0),  # eta < 0
    (TrajectorySpec(16.0, 1.0, 1.0), 15.0, math.nan),  # NaN drive: NaN extremes, no window
    (TrajectorySpec(16.0, 1.0, 1.0), 15.0, math.inf),  # inf * 0 makes the end sample NaN
    (TrajectorySpec(16.0, 1.0, 1.0), 1e308, 1e10),  # eta f_scale overflows
]
VALIDATION_SAMPLES = (2, 3, 101, 1001, 4001)


class TestValidationOracle:
    """The exact validation against dense sampled scans: containment, not equality."""

    # t_f* ~ 0.3347 is the shortest ramp without an inverted window on this device
    @pytest.mark.parametrize("t_final", [0.1, 0.3, 0.334, 0.335, 0.5, 2.0, 8.0])
    @pytest.mark.parametrize("f_scale", [0.9, 1.0, 1.1, 2.0])
    def test_device_ramps(self, device_params, t_final, f_scale):
        nominal = make_trajectory(device_params, t_final)
        traj = ControlTrajectory(nominal.spec, nominal.eta, f_scale)
        for n in VALIDATION_SAMPLES:
            assert_contains_scan(traj, n)

    @pytest.mark.parametrize("spec,eta,f_scale", EDGE_SPECS)
    def test_edge_specs(self, spec, eta, f_scale):
        # chi = 1, g = 0, a NaN or infinite g and an overflowing eta g: a report, no exception
        traj = ControlTrajectory(spec, eta=eta, f_scale=f_scale)
        report = validate_trajectory(traj)
        if math.isinf(eta * f_scale) and math.isfinite(f_scale):
            # the kernel's 1 + inf * f0 is no reference, but W is free of eta and f of order 1/eta
            finite = validate_trajectory(ControlTrajectory(spec, eta=15.0, f_scale=f_scale))
            assert report.negative_omega_sq_windows == finite.negative_omega_sq_windows
            assert report.max_abs_f * eta == pytest.approx(finite.max_abs_f * 15.0, rel=1e-12)
        else:
            for n in VALIDATION_SAMPLES:
                assert_contains_scan(traj, n)
        if f_scale != f_scale:
            assert report.negative_omega_sq_windows == () and math.isnan(report.max_abs_f)

    def test_windows_straddle_the_shortest_ramp(self, device_params):
        # a window just below t_f* and none above, at the CLI's 1001 samples
        below = validate_trajectory(make_trajectory(device_params, 0.334), 1001)
        above = validate_trajectory(make_trajectory(device_params, 0.335), 1001)
        assert below.negative_omega_sq_windows and not above.negative_omega_sq_windows


class TestStandardLibraryHelpers:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 101, 4001])
    @pytest.mark.parametrize(
        "start,stop",
        [(0.0, 1.0), (0.0, 0.334), (0.0, 8.0), (1.0, -1.0), (-3.5, 2.25), (0.0, 0.0), (-0.0, 0.0),
         (0.0, 5e-324), (0.0, 1e-310), (-1e308, 1e308), (1e308, -1e308), (0.0, math.inf),
         (0.0, math.nan), (2.0, 1e300)],
    )
    def test_linspace_is_numpy_bit_for_bit(self, start, stop, n):
        with np.errstate(all="ignore"):
            expected = np.linspace(start, stop, n).tolist()
        assert list(map(repr, linspace(start, stop, n))) == list(map(repr, expected))

    def test_linspace_refuses_a_negative_count(self):
        with pytest.raises(ValueError):
            linspace(0.0, 1.0, -1)

    def test_signed_sqrt_is_numpy_sign_times_sqrt(self):
        values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, -1e-310, 1.0, -1.0, 2.0, -3.7e5, 1.797e308]
        with np.errstate(all="ignore"):
            expected = (np.sign(values) * np.sqrt(np.abs(values))).tolist()
        assert list(map(repr, map(signed_sqrt, values))) == list(map(repr, expected))


class TestProperties:
    """Property tests of the standard-library paths against numpy; fixed seed, no database."""

    @settings(derandomize=True, database=None, max_examples=300)
    @given(st.floats(), st.floats(), st.integers(0, 500))
    def test_linspace_is_numpy_linspace(self, start, stop, n):
        with np.errstate(all="ignore"):
            expected = np.linspace(start, stop, n).tolist()
        assert list(map(repr, linspace(start, stop, n))) == list(map(repr, expected))

    @settings(derandomize=True, database=None, deadline=None)
    @given(st.floats(0.05, 10.0), st.floats(-3.0, 3.0), st.integers(2, 3000))
    def test_validation_is_the_numpy_oracle(self, device_params, t_final, f_scale, n):
        nominal = make_trajectory(device_params, t_final)
        traj = ControlTrajectory(nominal.spec, nominal.eta, f_scale)
        assert_contains_scan(traj, n)


def mp_real_roots(coeffs):
    """Real roots in (0, 1) of the polynomial with these ascending mpmath coefficients, at 50 digits."""
    while not coeffs[-1]:
        coeffs = coeffs[:-1]
    roots = mp.polyroots(coeffs[::-1], maxsteps=100, extraprec=60)  # raises if not converged
    return sorted(float(r.real) for r in map(mp.mpc, roots) if abs(r.imag) < 1e-30 and 0 < r.real < 1)


def assert_same_roots(got, expected):
    assert len(got) == len(expected) and all(abs(x - y) <= 1e-12 for x, y in zip(got, expected)), (got, expected)


def mp_mul(p, q):
    out = [mp.mpf(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def mp_add(*polys):
    out = [mp.mpf(0)] * max(map(len, polys))
    for p in polys:
        for i, x in enumerate(p):
            out[i] += x
    return out


# 60 ramp times up to 1.3e-6 (relative) below t_f*: a 1001-sample scan finds a window in 26 of them
NEAR_SHORTEST = [0.33466342 * (1.0 - 1.3e-6 * k / 60) for k in range(1, 61)]


class TestExactValidation:
    def test_every_ramp_just_below_the_shortest_has_a_window(self, device_params):
        for t_final in NEAR_SHORTEST:
            (lo, hi), = validate_trajectory(make_trajectory(device_params, t_final)).negative_omega_sq_windows
            assert 0.0 < hi - lo < 1e-3 * t_final

    @pytest.mark.parametrize("t_final", [0.1, 0.3, 0.334, 0.335, 0.5, 2.0, 8.0])
    def test_roots_are_mpmath_polyroots(self, device_params, t_final):
        # the drive's turning points are R's roots and window edges W's, at 50 digits
        spec = make_spec(device_params, t_final)
        with mp.workdps(50):
            chi, om0sq, t_f = (mp.mpf(repr(x)) for x in (spec.chi, spec.omega0_sq, t_final))
            c = chi - 1
            b = [mp.mpf(1), 0, 0, 10 * c, -15 * c, 6 * c]
            bs, bss, bsss = [0, 0, 30 * c, -60 * c, 30 * c], [0, 60 * c, -180 * c, 120 * c], [60 * c, -360 * c, 360 * c]
            b3 = mp_mul(mp_mul(b, b), b)
            b4, b3_bss = mp_mul(b3, b), mp_mul(b3, bss)
            r = mp_add([4 * om0sq * t_f**2 * x for x in bs], mp_mul(b4, bsss), [-x for x in mp_mul(b3_bss, bs)])
            assert_same_roots(_drive_turns(spec), mp_real_roots(r))
            for f_scale in (0.9, 1.0, 1.1, 2.0):
                g = mp.mpf(repr(f_scale))
                w = mp_add([(1 - g) * t_f**2 * x for x in b4], [g * om0sq * t_f**2], [-g * x for x in b3_bss])
                traj = ControlTrajectory(spec, device_params.eta, f_scale)
                edges = [e / t_final for window in validate_trajectory(traj).negative_omega_sq_windows for e in window]
                assert_same_roots(edges, mp_real_roots(w))

    def test_turns_where_chi_to_the_fifth_leaves_the_float_range(self):
        # coulomb_k = 1e300 on the built-in device: chi ~ 2e74, and R's terms grow as chi^5.
        # polyroots stalls on R's coefficients (~1e74 to ~1e370), so R's signs at 50 digits
        spec = TrajectorySpec(1.0 + 1.392e297, 1.0, 0.5)
        turns = _drive_turns(spec)
        with mp.workdps(50):
            chi, om0sq, t_f = (mp.mpf(repr(x)) for x in (spec.chi, spec.omega0_sq, spec.t_final))
            c = chi - 1
            b = [mp.mpf(1), 0, 0, 10 * c, -15 * c, 6 * c]
            bs, bss, bsss = [0, 0, 30 * c, -60 * c, 30 * c], [0, 60 * c, -180 * c, 120 * c], [60 * c, -360 * c, 360 * c]
            b3 = mp_mul(mp_mul(b, b), b)
            r = mp_add([4 * om0sq * t_f**2 * x for x in bs], mp_mul(mp_mul(b3, b), bsss), [-x for x in mp_mul(mp_mul(b3, bss), bs)])

            def positive(x):
                return mp.polyval(r[::-1], mp.mpf(x)) > 0

            signs = [positive(i / 1000) for i in range(1001)]
            assert sum(a != b for a, b in zip(signs, signs[1:])) == len(turns) == 2
            assert all(positive(x * (1 - 1e-12)) != positive(x * (1 + 1e-12)) for x in turns)

    def test_shortest_ramp_is_where_the_windows_end(self, device_params):
        t_star = shortest_ramp(make_spec(device_params, 1.0))
        assert t_star == pytest.approx(0.33466342, rel=2e-8)
        lo, hi = 0.3, 0.4  # a window at lo, none at hi
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            if validate_trajectory(make_trajectory(device_params, mid)).negative_omega_sq_windows:
                lo = mid
            else:
                hi = mid
        assert t_star == pytest.approx(hi, rel=1e-10)
