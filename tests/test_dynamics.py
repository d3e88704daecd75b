import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biascool import dynamics
from biascool.design import (
    ControlTrajectory,
    DesignError,
    TrajectorySpec,
    _drive,
    b_polynomial,
    linspace,
    make_trajectory,
)
from biascool.dynamics import (
    GaussianState,
    IntegrationError,
    StateError,
    TransferMatrix,
    propagate_row,
    propagate_transfer,
    solve_ermakov_forward,
    thermal_state,
    transfer_series,
)
from biascool.records import astuple
from biascool.robustness import perturb_trajectory
from biascool.thermometry import occupation, occupation_from_state, thermal_occupation

from conftest import NBAR_COLD
from oracles import as_array, invariant_expectation, invariant_moments, propagate_covariance_ode

T_FINALS = (0.5, 1.0, 2.0)


def squeezed_state():
    return GaussianState(xx=2.0, pp=1.0, xp=0.3)


class TestGaussianState:
    def test_positivity_enforced(self):
        with pytest.raises(StateError):
            GaussianState(xx=-1.0, pp=1.0)
        with pytest.raises(StateError):
            GaussianState(xx=1.0, pp=0.0)

    @pytest.mark.parametrize("moments", [(1.0, math.inf), (math.inf, 1.0), (math.nan, 1.0)])
    def test_non_finite_moments_rejected(self, moments):
        # a thermal state whose (nbar + 1/2) omega overflows is no start state
        with pytest.raises(StateError, match="positive and finite"):
            GaussianState(*moments)

    def test_uncertainty_validation(self):
        GaussianState(xx=0.5, pp=0.5).validate()  # exactly the bound
        with pytest.raises(StateError):
            GaussianState(xx=0.4, pp=0.4).validate()

    def test_purity_invariant(self):
        state = squeezed_state()
        assert state.purity_invariant == pytest.approx(2.0 - 0.09, rel=1e-15)


class TestTransferMatrix:
    def test_apply_matches_matrix_congruence(self):
        m = TransferMatrix(1.1, 0.2, -0.3, (1.0 + 0.2 * 0.3) / 1.1)
        state = squeezed_state()
        sigma = np.array([[state.xx, state.xp], [state.xp, state.pp]])
        expected = as_array(m) @ sigma @ as_array(m).T
        out = m.apply(state)
        assert out.xx == pytest.approx(expected[0, 0], rel=1e-14)
        assert out.xp == pytest.approx(expected[0, 1], rel=1e-14)
        assert out.pp == pytest.approx(expected[1, 1], rel=1e-14)


class TestThermalState:
    def test_default_device_occupations(self, device_params):
        state = thermal_state(device_params, 1.0, device_params.bath_temperature)
        nbar = thermal_occupation(device_params.bare_frequency, device_params.bath_temperature)
        assert state.xx == pytest.approx(nbar + 0.5, rel=1e-12)
        assert state.pp == pytest.approx(nbar + 0.5, rel=1e-12)
        assert state.xp == 0.0

    def test_boosted_frequency_moments(self, device_params):
        omega0_sq = 1.0 + device_params.eta
        state = thermal_state(device_params, omega0_sq, device_params.bath_temperature)
        omega0 = math.sqrt(omega0_sq)
        assert state.pp / state.xx == pytest.approx(omega0_sq, rel=1e-12)
        assert state.xx * state.pp == pytest.approx((NBAR_COLD + 0.5) ** 2, rel=1e-9)
        assert occupation_from_state(state, omega0_sq) == pytest.approx(NBAR_COLD, rel=1e-9)

    def test_zero_temperature_limit(self, device_params):
        state = thermal_state(device_params, 1.0, 1e-9)
        assert state.purity_invariant == pytest.approx(0.25, rel=1e-12)

    def test_domain_errors(self, device_params):
        with pytest.raises(StateError):
            thermal_state(device_params, 0.0, 0.02)
        with pytest.raises(StateError):
            thermal_state(device_params, -4.0, 0.02)
        with pytest.raises(StateError):
            thermal_state(device_params, 1.0, 0.0)


class TestTransferPropagation:
    def test_constant_frequency_full_period(self):
        # omega^2 = 4 -> period pi; any state must return to itself
        state0 = squeezed_state()
        period = math.pi
        state, m = propagate_transfer(lambda t: 4.0, state0, 0.0, period, tol=1e-12)
        assert state.xx == pytest.approx(state0.xx, rel=1e-9)
        assert state.pp == pytest.approx(state0.pp, rel=1e-9)
        assert state.xp == pytest.approx(state0.xp, abs=1e-9)
        np.testing.assert_allclose(as_array(m), np.eye(2), atol=1e-9)

    def test_hyperbolic_window_closed_form(self):
        # omega^2 = -1 for unit time: cosh/sinh map, det stays 1
        state0 = squeezed_state()
        _, m = propagate_transfer(lambda t: -1.0, state0, 0.0, 1.0, tol=1e-12)
        expected = np.array(
            [[math.cosh(1.0), math.sinh(1.0)], [math.sinh(1.0), math.cosh(1.0)]]
        )
        np.testing.assert_allclose(as_array(m), expected, rtol=1e-10)
        assert m.det == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t_final", T_FINALS)
    def test_determinant_on_random_subintervals(self, device_params, t_final):
        traj = make_trajectory(device_params, t_final)
        state0 = thermal_state(device_params, traj.spec.omega0_sq, device_params.bath_temperature)
        rng = np.random.default_rng(37)
        for _ in range(5):
            t0, t1 = np.sort(rng.uniform(0.0, t_final, size=2))
            if t1 - t0 < 1e-3:
                continue
            _, m = propagate_transfer(traj, state0, float(t0), float(t1), tol=1e-10)
            assert abs(m.det - 1.0) < 1e-9

    def test_composition_across_split_points(self, device_params):
        traj = make_trajectory(device_params, 1.0)
        state0 = thermal_state(device_params, traj.spec.omega0_sq, device_params.bath_temperature)
        rng = np.random.default_rng(41)
        for t_mid in rng.uniform(0.1, 0.9, size=3):
            t_mid = float(t_mid)
            _, m_full = propagate_transfer(traj, state0, 0.0, 1.0, tol=1e-11)
            s_mid, m_a = propagate_transfer(traj, state0, 0.0, t_mid, tol=1e-11)
            _, m_b = propagate_transfer(traj, s_mid, t_mid, 1.0, tol=1e-11)
            composed = as_array(TransferMatrix(*dynamics._mmul(astuple(m_b), astuple(m_a))))
            scale = np.abs(as_array(m_full)) + 1.0
            assert np.max(np.abs(composed - as_array(m_full)) / scale) < 1e-8

    def test_negative_times_match_the_shifted_grid(self):
        # the march stops at each sample time whatever its sign: the same ramp shifted
        # to positive times gives the same states to rounding
        w = lambda t: 1.0 + 3.0 * math.sin(2.0 * t) ** 2
        shift = 3.0
        times = [-2.0, -1.5, -1.0, -0.5]
        neg, m_neg = transfer_series(w, GaussianState(1.0, 1.0, time=times[0]), times)
        pos, m_pos = transfer_series(
            lambda t: w(t - shift),
            GaussianState(1.0, 1.0, time=times[0] + shift),
            [t + shift for t in times],
        )
        assert [s.time for s in neg] == times
        for a, b in zip(neg, pos, strict=True):
            for x, y in ((a.xx, b.xx), (a.pp, b.pp), (a.xp, b.xp)):
                assert x == pytest.approx(y, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(as_array(m_neg), as_array(m_pos), rtol=1e-12)

    def test_series_time_mismatch_rejected(self, device_params):
        traj = make_trajectory(device_params, 1.0)
        state0 = thermal_state(device_params, traj.spec.omega0_sq, device_params.bath_temperature)
        with pytest.raises(ValueError):
            transfer_series(traj, state0, [0.5, 1.0], tol=1e-10)

    def test_underflow_reports_time_reached(self):
        # a profile that turns non-finite forces perpetual rejection; the
        # error must carry how far the propagation got
        w = lambda t: 1.0 if t < 0.5 else math.nan
        with pytest.raises(IntegrationError) as excinfo:
            propagate_transfer(w, squeezed_state(), 0.0, 1.0, tol=1e-10)
        assert 0.4 < excinfo.value.time < 0.6

    def test_sixth_order_on_fixed_steps(self):
        # halving a fixed step must cut the error of the composed Magnus
        # steps by 2^6 = 64
        w = lambda t: 1.0 + 3.0 * math.sin(2.0 * t) ** 2

        def march(n):
            h = 2.0 / n
            m = (1.0, 0.0, 0.0, 1.0)
            for k in range(n):
                nodes = (w(k * h + c * h) for c in (dynamics._GAUSS_LO, 0.5, dynamics._GAUSS_HI))
                m = dynamics._mmul(dynamics._magnus6_exp(h, *nodes), m)
            return np.array(m)

        reference = march(1280)
        errors = [np.max(np.abs(march(n) - reference)) for n in (20, 40, 80)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 48.0 < coarse / fine < 80.0

    @pytest.mark.parametrize("t0", [0.0, 0.3, 1.0])
    def test_extrapolated_step_is_eighth_order(self, t0):
        # one step's error against a tol-1e-14 march, in the controller's weighted
        # max-norm: halving h divides it by ~2^9 (464, 528 and 495 at these t0), and
        # the estimate bounds it (2.8 to 3.4 times the error here)
        w = lambda t: 1.0 + 3.0 * math.sin(2.0 * t) ** 2

        def step(h):
            ws = math.sqrt(max(abs(w(t0 + 0.5 * h)), 1.0))
            estimate, (update,) = dynamics._extrapolated_step(w, [(0.0, 1.0)], [ws], t0, h, w(t0 + 0.5 * h))
            ((reference,),) = dynamics._integrate_transfer(w, t0, [t0 + h], 1e-14)
            d11, d12, d21, d22 = (a - b for a, b in zip(update, reference))
            return max(abs(d11), abs(d22), abs(d12) * ws, abs(d21) / ws), estimate

        (coarse, coarse_estimate), (fine, fine_estimate) = step(0.25), step(0.125)
        assert 0.85 * 2**9 < coarse / fine < 1.15 * 2**9
        assert coarse_estimate >= coarse and fine_estimate >= fine

    @pytest.mark.parametrize(
        "w", [lambda t: 100.0 * math.cos(3.0 * t), lambda t: 1e4 * math.cos(t)], ids=["negative", "overflowed"]
    )
    def test_step_without_a_positive_finite_determinant_is_rejected(self, w):
        # steps far past the phase limit: Y's determinant is -59 for the first profile,
        # and a sub-step's cosh overflows for the second.  Either estimate is NaN, which
        # the controller rejects as it does a NaN kernel
        estimate, (update,) = dynamics._extrapolated_step(w, [(0.0, 1.0)], [1.0], 0.0, 1.0, w(0.5))
        assert math.isnan(estimate) and all(math.isnan(v) for v in update)

    def test_profile_evaluation_budget(self, device_params):
        # deterministic work counter: 6th-order steps, one shared midpoint
        traj = make_trajectory(device_params, 0.5)
        state0 = thermal_state(device_params, traj.spec.omega0_sq, device_params.bath_temperature)
        profile = traj.frequency_sq_fn()
        calls = 0

        def counted(t):
            nonlocal calls
            calls += 1
            return profile(t)

        _, m = propagate_transfer(counted, state0, 0.0, 0.5, tol=1e-10)
        assert calls <= 6000
        assert abs(m.det - 1.0) <= 1e-13

    def test_span_beyond_step_budget_refused_before_marching(self):
        calls = 0

        def counted(t):
            nonlocal calls
            calls += 1
            return 1.0

        with pytest.raises(IntegrationError) as excinfo:
            propagate_transfer(counted, squeezed_state(), 0.0, 1e150, tol=1e-10)
        # the phase estimate's probes only, no step
        assert calls <= dynamics._PHASE_PROBES and excinfo.value.time == 0.0

    def test_huge_frequency_scale_refused_before_marching(self):
        # a span well inside the old span test, at a frequency scale of 1e12: phase ~1e12
        calls = 0

        def counted(t):
            nonlocal calls
            calls += 1
            return 1e24

        with pytest.raises(IntegrationError, match="phase") as excinfo:
            propagate_transfer(counted, squeezed_state(), 0.0, 1.0, tol=1e-10)
        assert calls <= dynamics._PHASE_PROBES and excinfo.value.time == 0.0

    def test_step_budget_stops_the_march(self, monkeypatch):
        # a phase of ~60 fits 50 steps of 1.5, but the tolerance needs shorter steps
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 50)
        with pytest.raises(IntegrationError) as excinfo:
            propagate_transfer(lambda t: 1.0 + 0.5 * math.sin(3.0 * t), squeezed_state(), 0.0, 60.0, tol=1e-10)
        assert "budget" in str(excinfo.value) and 0.0 < excinfo.value.time < 60.0

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_unusable_tolerance_refused_before_marching(self, device_params, tol):
        traj = make_trajectory(device_params, 1.0)
        state0 = thermal_state(device_params, traj.spec.omega0_sq, device_params.bath_temperature)
        for march in (
            lambda: propagate_transfer(traj, state0, 0.0, 1.0, tol=tol),
            lambda: transfer_series(traj, state0, [0.0, 0.5, 1.0], tol=tol),
            lambda: propagate_row([traj], tol),
        ):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="tol"):
                march()
            assert time.perf_counter() - start < 0.1

    def test_failed_series_carries_the_states_reached(self, monkeypatch, device_params):
        traj = make_trajectory(device_params, 8.0)
        state0 = thermal_state(device_params, traj.spec.omega0_sq, device_params.bath_temperature)
        times = np.linspace(0.0, 8.0, 41).tolist()
        full, _ = transfer_series(traj, state0, times, tol=1e-10)
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 2000)
        with pytest.raises(IntegrationError) as excinfo:
            transfer_series(traj, state0, times, tol=1e-10)
        partial = excinfo.value.states
        # the prefix the march reached, bit for bit, and nothing past the failure
        assert 1 < len(partial) < len(times)
        assert partial == full[: len(partial)]
        assert partial[-1].time <= excinfo.value.time < times[len(partial)]


class TestMomentRows:
    def test_states_are_the_moment_rows(self, device_params):
        # each sampled state maps state0 by the matrix the march yields at its time,
        # through the one moment formula, and the series' matrix is the last of them
        traj = make_trajectory(device_params, 0.1)  # inverted windows: hyperbolic steps
        state0 = thermal_state(device_params, traj.spec.omega0_sq, device_params.bath_temperature)
        times = np.linspace(0.0, 0.1, 201).tolist()
        stops = list(dynamics._integrate_transfer(traj.frequency_sq_fn(), 0.0, times[1:], 1e-10))
        states, matrix = transfer_series(traj, state0, times)
        rows = [
            dynamics._moment_row(m, state0.xx, state0.pp, state0.xp, t) for t, (m,) in zip(times[1:], stops, strict=True)
        ]
        assert states[0] is state0
        assert [(s.time, s.xx, s.pp, s.xp) for s in states[1:]] == rows
        assert [s.time for s in states] == times
        assert matrix == TransferMatrix(*stops[-1][0])

    @pytest.mark.parametrize("epsilon,what", [(-1.25, "second moments"), (-2.0, "transfer matrix")])
    def test_overflowing_propagation_is_an_integration_error(self, device_params, epsilon, what):
        # epsilon = -1.25 overflows the moments of a finite matrix, -2 the matrix itself
        nominal = make_trajectory(device_params, 2.0)
        state0 = thermal_state(device_params, nominal.spec.omega0_sq, device_params.bath_temperature)
        with pytest.raises(IntegrationError, match=f"{what} overflowed") as excinfo:
            propagate_transfer(perturb_trajectory(nominal, epsilon), state0, 0.0, 2.0)
        # a finite matrix is mapped at t_f; an overflowed one stops the march near its overflow
        if what == "second moments":
            assert excinfo.value.time == 2.0
        else:
            assert excinfo.value.time < 1.0

    @pytest.mark.parametrize("t_final,max_evaluations", [(2.0, 13_600), (8.0, 10_000)])
    def test_overflowed_march_stops_within_the_check_interval(
        self, device_params, monkeypatch, t_final, max_evaluations
    ):
        # an epsilon = -2 drive overflows M before t = 0.4: stopped after 13,147 and
        # 9,091 evaluations; checked only at t_f, the march runs on to t_f: 14,082
        # and 48,123 evaluations
        nominal = make_trajectory(device_params, t_final)
        state0 = thermal_state(device_params, nominal.spec.omega0_sq, device_params.bath_temperature)
        w = perturb_trajectory(nominal, -2.0).frequency_sq_fn()

        def march():
            times = []
            with pytest.raises(IntegrationError, match="transfer matrix overflowed") as excinfo:
                propagate_transfer(lambda t: times.append(t) or w(t), state0, 0.0, t_final)
            return len(times), excinfo.value.time

        evaluations, reached = march()
        assert evaluations <= max_evaluations and 0.2 < reached < 1.0
        monkeypatch.setattr(dynamics, "_OVERFLOW_CHECK_STEPS", 10**9)  # the final check only
        full_evaluations, full_reached = march()
        assert full_reached == t_final and full_evaluations > max_evaluations

    def test_overflowing_series_keeps_the_rows_before_it(self):
        # an inverted potential grows the moments as exp(2000 t); they overflow near t = 0.35
        times = np.linspace(0.0, 1.0, 101).tolist()
        with pytest.raises(IntegrationError, match="second moments overflowed") as excinfo:
            transfer_series(lambda t: -1e6, GaussianState(1.0, 1.0), times)
        states = excinfo.value.states
        assert 1 < len(states) < len(times)
        assert excinfo.value.time == times[len(states)]
        assert all(math.isfinite(v) for s in states for v in (s.xx, s.pp, s.xp))

    def test_non_positive_sample_refused(self):
        # a finite map to a non-positive xx is still a StateError, as for GaussianState
        with pytest.raises(StateError, match="moments must be positive"):
            TransferMatrix(0.0, 0.0, 1.0, 1.0).apply(GaussianState(1.0, 1.0))


class TestRowMarch:
    @pytest.mark.parametrize("t_final,epsilon", [(0.1, 0.0), (0.5, -0.1), (1.0, 0.3), (2.0, -1.2)])
    def test_one_lane_row_is_the_profile_march(self, device_params, t_final, epsilon):
        # the kernel f0 on the lane (1, eta f_scale) has the bits of the profile 1 + eta f_scale f0
        # where the row has no adiabatic segment (epsilon = 0; -1.2, whose u < 0).  A lane that
        # starts with one stays within tol of the profile's march at tol 1e-13: n + 1/2 of a
        # thermal start at omega_0 and the Pinney b
        ramp = perturb_trajectory(make_trajectory(device_params, t_final), epsilon)
        (row,) = propagate_row([ramp])
        t_s, _ = dynamics._adiabatic_segment(ramp.spec, [ramp.f_scale], 1e-10)
        assert (t_s == 0.0) == (epsilon in (0.0, -1.2))
        _, alone = propagate_transfer(ramp.frequency_sq_fn(), squeezed_state(), 0.0, t_final, 1e-13 if t_s else 1e-10)
        if not t_s:
            assert row == alone
            return
        omega0_sq = ramp.spec.omega0_sq
        start = thermal_state(device_params, omega0_sq, device_params.bath_temperature)

        def n_and_b(m):
            final = m.apply(start)
            return occupation(final.xx, final.pp, 1.0) + 0.5, math.hypot(m.m11, math.sqrt(omega0_sq) * m.m12)

        for value, expected in zip(n_and_b(row), n_and_b(alone)):
            assert value == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_lane_order_changes_no_lane(self, device_params):
        nominal = make_trajectory(device_params, 0.5)
        epsilons = [-0.9, 0.0, 3.0]
        first = propagate_row([perturb_trajectory(nominal, e) for e in epsilons])
        for order in itertools.permutations(range(len(epsilons))):
            marched = propagate_row([perturb_trajectory(nominal, epsilons[k]) for k in order])
            assert [marched[order.index(k)] for k in range(len(epsilons))] == first

    def test_row_evaluates_the_kernel_once_per_node(self, device_params, monkeypatch):
        # three lanes, one kernel: as many evaluations as a one-lane march on the same steps
        counts = []
        integrate = dynamics._integrate_transfer

        def counted_march(kernel, *args, **kwargs):
            calls = []
            result = list(integrate(lambda t: calls.append(t) or kernel(t), *args, **kwargs))
            counts.append(len(calls))
            return result

        monkeypatch.setattr(dynamics, "_integrate_transfer", counted_march)
        nominal = make_trajectory(device_params, 0.5)
        ramps = [perturb_trajectory(nominal, e) for e in (-0.1, 0.0, 0.1)]
        t_s, _ = dynamics._adiabatic_segment(nominal.spec, [r.f_scale for r in ramps], 1e-10)
        propagate_row(ramps)
        # the one-lane row that starts at the same t_s: its march alone
        list(dynamics._integrate_transfer(_drive(nominal, 1.0, 0.0), t_s, [0.5], 1e-10, lanes=[(1.0, ramps[2].eta * ramps[2].f_scale)]))
        assert t_s > 0.0 and counts[0] == counts[1] < 6000


class TestCovarianceOracle:
    @pytest.mark.parametrize("t_final", T_FINALS)
    def test_agreement_with_transfer(self, device_params, t_final):
        traj = make_trajectory(device_params, t_final)
        state0 = thermal_state(device_params, traj.spec.omega0_sq, device_params.bath_temperature)
        via_transfer, _ = propagate_transfer(traj, state0, 0.0, t_final, tol=1e-10)
        via_ode = propagate_covariance_ode(traj, state0, 0.0, t_final, tol=1e-12)
        assert via_ode.xx == pytest.approx(via_transfer.xx, rel=1e-6)
        assert via_ode.pp == pytest.approx(via_transfer.pp, rel=1e-6)
        xp_scale = math.sqrt(via_transfer.xx * via_transfer.pp)
        assert abs(via_ode.xp - via_transfer.xp) < 1e-6 * xp_scale

    def test_agreement_through_inverted_window(self):
        # drive with a genuine omega^2 < 0 stretch
        w = lambda t: 4.0 - 12.0 * math.sin(math.pi * t) ** 2
        state0 = squeezed_state()
        via_transfer, m = propagate_transfer(w, state0, 0.0, 1.0, tol=1e-11)
        via_ode = propagate_covariance_ode(w, state0, 0.0, 1.0, tol=1e-12)
        assert abs(m.det - 1.0) < 1e-9
        for attr in ("xx", "pp", "xp"):
            a, b = getattr(via_transfer, attr), getattr(via_ode, attr)
            assert a == pytest.approx(b, rel=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agreement_on_random_profiles(self, seed):
        # random smooth frequency profiles, some dipping below zero
        rng = np.random.default_rng(seed)
        coef = rng.normal(0.0, 8.0, size=4)
        offset = float(rng.uniform(-5.0, 20.0))

        def w(t):
            return offset + sum(
                float(c) * math.sin((k + 1) * t + k) for k, c in enumerate(coef)
            )

        state0 = squeezed_state()
        via_transfer, m = propagate_transfer(w, state0, 0.0, 2.0, tol=1e-11)
        via_ode = propagate_covariance_ode(w, state0, 0.0, 2.0, tol=1e-12)
        assert abs(m.det - 1.0) < 1e-9
        scale = math.sqrt(via_ode.xx * via_ode.pp)
        assert via_transfer.xx == pytest.approx(via_ode.xx, rel=1e-6)
        assert via_transfer.pp == pytest.approx(via_ode.pp, rel=1e-6)
        assert abs(via_transfer.xp - via_ode.xp) < 1e-6 * scale

    def test_free_oscillation_closed_form(self):
        # constant bare frequency: moments rotate at 2 omega_m
        state0 = GaussianState(xx=3.0, pp=1.0)  # not stationary at omega = 1
        times = np.linspace(0.0, math.pi, 65)
        states = [state0] + propagate_covariance_ode(
            lambda t: 1.0, state0, 0.0, math.pi, tol=1e-12, t_eval=times[1:]
        )
        xx = np.array([s.xx for s in states])
        expected = state0.xx * np.cos(times) ** 2 + state0.pp * np.sin(times) ** 2
        np.testing.assert_allclose(xx, expected, rtol=1e-8)
        # time-average equals the equal-energy thermal moment
        average = np.trapezoid(xx, times) / math.pi
        assert average == pytest.approx(0.5 * (state0.xx + state0.pp), rel=1e-6)

    @pytest.mark.parametrize("t_final", T_FINALS)
    def test_purity_conserved_along_trajectory(self, device_params, t_final):
        traj = make_trajectory(device_params, t_final)
        state0 = thermal_state(device_params, traj.spec.omega0_sq, device_params.bath_temperature)
        times = np.linspace(0.0, t_final, 33).tolist()
        states, _ = transfer_series(traj, state0, times, tol=1e-10)
        ode_states = propagate_covariance_ode(traj, state0, 0.0, t_final, tol=1e-12, t_eval=times[1:])
        p0 = state0.purity_invariant
        for s in states:
            assert s.purity_invariant == pytest.approx(p0, rel=1e-8)
        for s in ode_states:
            assert s.purity_invariant == pytest.approx(p0, rel=1e-8)


class TestInvariantExpectation:
    @pytest.mark.parametrize("t_final", T_FINALS)
    def test_constant_along_designed_ramp(self, device_params, t_final):
        traj = make_trajectory(device_params, t_final)
        spec = traj.spec
        state0 = thermal_state(device_params, spec.omega0_sq, device_params.bath_temperature)
        times = np.linspace(0.0, t_final, 41)
        states, _ = transfer_series(traj, state0, times.tolist(), tol=1e-10)
        b, db, _ = b_polynomial(times / t_final, spec.chi)
        values = [
            invariant_expectation(s, spec.omega0_sq, float(bi), float(dbi) / t_final)
            for s, bi, dbi in zip(states, b, db)
        ]
        ref = values[0]
        assert ref == pytest.approx(math.sqrt(spec.omega0_sq) * (NBAR_COLD + 0.5), rel=1e-9)
        assert max(abs(v - ref) for v in values) < 1e-6 * abs(ref)


class TestInvariantMoments:
    def test_thermal_at_both_ends(self):
        # the quintic has b' = 0 at both ends: thermal at omega_0, then at omega_m
        spec = TrajectorySpec(4.0, 1.0, 0.5)
        (t0, xx0, pp0, xp0), *_, (t1, xx1, pp1, xp1) = invariant_moments(spec, linspace(0.0, 0.5, 11), 1.5)
        assert (t0, xx0, pp0, xp0) == (0.0, 0.75, 3.0, 0.0)
        assert t1 == 0.5 and xx1 == pytest.approx(1.5, rel=1e-15) and pp1 == pytest.approx(1.5, rel=1e-15)
        assert xp1 == 0.0

    @pytest.mark.parametrize("t_final", [0.1, 1.0, 8.0])
    def test_rows_keep_the_bits_of_b_polynomial(self, t_final):
        # the times are checked once per call, and each row is b_polynomial's b and b_s
        # through the same formulas, bit for bit
        spec = TrajectorySpec(1.0 + 1.25e7, 1.0, t_final)
        times, e = linspace(0.0, t_final, 401), 3.25
        scale = e / math.sqrt(spec.omega0_sq)
        expected = []
        for t in times:
            b, b_s, _ = b_polynomial(t / t_final, spec.chi)
            b_dot = b_s / t_final
            expected.append((t, scale * b * b, scale * (b_dot * b_dot + spec.omega0_sq / (b * b)), scale * b * b_dot))
        assert list(invariant_moments(spec, times, e)) == expected
        for outside in ([0.0, 1.5 * t_final], [-0.5 * t_final, 0.0]):
            with pytest.raises(DesignError, match=r"s must lie in \[0, 1\]"):
                list(invariant_moments(spec, outside, e))

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(st.floats(-0.9, 1e8).filter(lambda eta: eta != 0.0), st.floats(1e-3, 20.0))
    def test_march_converges_to_the_closed_form(self, eta, t_final):
        # the march at the default tolerance, end point and sampled rows, against the
        # invariant's exact moments.  Worst seen over a 400-point random scan and a
        # 48-point grid of (eta, t_final): 4.9e-8 at the corner (1e8, 1e-3); the
        # deviation grows as the ramp shortens (1e-12 has omega_final ~ 27, not 1)
        spec = TrajectorySpec(1.0 + eta, 1.0, t_final)
        traj = ControlTrajectory(spec, eta)
        omega0 = math.sqrt(spec.omega0_sq)
        state0 = GaussianState(1.0 / omega0, omega0)
        times = linspace(0.0, t_final, 11)
        exact = list(invariant_moments(spec, times, 1.0))
        end, _ = propagate_transfer(traj, state0, 0.0, t_final)
        states, _ = transfer_series(traj, state0, times)
        for (t, xx, pp, xp), state in zip(exact + exact[-1:], states + [end]):
            assert state.time == t
            assert state.xx == pytest.approx(xx, rel=2e-6) and state.pp == pytest.approx(pp, rel=2e-6)
            assert abs(state.xp - xp) <= 2e-6 * math.sqrt(xx * pp)


class TestErmakovForward:
    @pytest.mark.parametrize("t_final", T_FINALS)
    def test_recovers_designed_scale_factor(self, device_params, t_final):
        traj = make_trajectory(device_params, t_final)
        spec = traj.spec
        times = np.linspace(0.0, t_final, 201)
        sol = solve_ermakov_forward(
            traj, 1.0, 0.0, spec.omega0_sq, 0.0, t_final, tol=1e-12, t_eval=times[1:].tolist()
        )
        b_exact, _, _ = b_polynomial(times / t_final, spec.chi)
        np.testing.assert_allclose(sol.b, b_exact, rtol=1e-6)
        assert abs(sol.b_final - spec.chi) < 1e-9 * spec.chi
        assert abs(sol.b_dot_final) < 1e-9

    def test_constant_frequency_fixed_point(self):
        sol = solve_ermakov_forward(lambda t: 25.0, 1.0, 0.0, 25.0, 0.0, 3.0, tol=1e-11)
        np.testing.assert_allclose(sol.b, 1.0, atol=1e-9)
        np.testing.assert_allclose(sol.b_dot, 0.0, atol=1e-8)

    def test_perturbed_drive_misses_boundary(self, device_params):
        traj = make_trajectory(device_params, 0.5)
        perturbed = ControlTrajectory(traj.spec, traj.eta, f_scale=1.1)
        sol = solve_ermakov_forward(
            perturbed, 1.0, 0.0, traj.spec.omega0_sq, 0.0, 0.5, tol=1e-10, t_eval=[0.5]
        )
        assert abs(sol.b_final - traj.spec.chi) > 0.5

    def test_singularity_detected(self):
        # no inverse-cube repulsion: b = cos(t) crosses zero at pi/2; the
        # guard fires on the first accepted step past the crossing
        with pytest.raises(IntegrationError) as excinfo:
            solve_ermakov_forward(lambda t: 1.0, 1.0, 0.0, 0.0, 0.0, 3.0, tol=1e-10)
        assert math.pi / 2.0 - 0.01 < excinfo.value.time < math.pi / 2.0 + 0.25

    def test_nonpositive_b0_rejected(self):
        with pytest.raises(ValueError):
            solve_ermakov_forward(lambda t: 1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
