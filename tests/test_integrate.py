import math

import numpy as np
import pytest

from biascool.integrate import IntegrationError, solve_rk


def test_exponential_decay():
    result = solve_rk(lambda t, y: (-y[0],), 0.0, (1.0,), 1.0, rtol=1e-10, atol=1e-12)
    assert result.y[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert result.t[-1] == 1.0


def test_harmonic_oscillator_long_run():
    # ten periods of y'' = -y; returns to the start
    t_end = 20.0 * math.pi
    result = solve_rk(
        lambda t, y: (y[1], -y[0]), 0.0, (1.0, 0.0), t_end, rtol=1e-11, atol=1e-12
    )
    assert result.y[-1, 0] == pytest.approx(1.0, abs=1e-8)
    assert result.y[-1, 1] == pytest.approx(0.0, abs=1e-8)


def test_t_eval_points_hit():
    targets = [0.1, 0.25, 0.5, 0.777, 1.0]
    result = solve_rk(
        lambda t, y: (math.cos(t),), 0.0, (0.0,), 1.0, rtol=1e-10, atol=1e-12, t_eval=targets
    )
    assert len(result.t) == len(targets) + 1  # start point included
    np.testing.assert_allclose(result.t[1:], targets, rtol=1e-14)
    np.testing.assert_allclose(result.y[1:, 0], np.sin(targets), rtol=1e-9)


def test_accuracy_improves_with_tolerance():
    def run(rtol):
        res = solve_rk(lambda t, y: (y[0],), 0.0, (1.0,), 2.0, rtol=rtol, atol=1e-14)
        return abs(res.y[-1, 0] - math.exp(2.0))

    assert run(1e-12) < run(1e-6) < 1e-3


def test_guard_aborts_with_time():
    def guard(t, y):
        if y[0] < 0.5:
            raise IntegrationError("dropped below threshold", t)

    with pytest.raises(IntegrationError) as excinfo:
        solve_rk(lambda t, y: (-y[0],), 0.0, (1.0,), 5.0, rtol=1e-10, atol=1e-12, guard=guard)
    assert excinfo.value.time == pytest.approx(math.log(2.0), abs=0.2)


def test_invalid_spans_and_samples():
    rhs = lambda t, y: (1.0,)
    with pytest.raises(ValueError):
        solve_rk(rhs, 1.0, (0.0,), 1.0)
    with pytest.raises(ValueError):
        solve_rk(rhs, 0.0, (0.0,), 1.0, t_eval=[0.5, 0.2])
    with pytest.raises(ValueError):
        solve_rk(rhs, 0.0, (0.0,), 1.0, t_eval=[1.5])


def test_step_counts_reported():
    result = solve_rk(lambda t, y: (y[1], -y[0]), 0.0, (1.0, 0.0), 6.28, rtol=1e-9, atol=1e-12)
    assert result.n_steps > 10
    assert result.n_rejected >= 0


def oscillator_from_minus_two(t_eval, guard=None):
    """y'' = -y from y(-2) = 1, y'(-2) = 0 to t1 = -0.5: y = cos(t + 2), all at negative times."""
    return solve_rk(lambda t, y: (y[1], -y[0]), -2.0, (1.0, 0.0), -0.5, rtol=1e-11, atol=1e-12, t_eval=t_eval, guard=guard)


def assert_negative_samples(result):
    assert list(result.t) == [-2.0, -1.5, -1.0, -0.6, -0.5]
    np.testing.assert_allclose(result.y[:, 0], np.cos(result.t + 2.0), rtol=0.0, atol=1e-10)


def test_samples_at_negative_times_are_stops():
    # each sample time is a stop of the march, whatever its sign; the guard ends the run
    # should a stop never be reached, as a step clipped to length 0 would repeat forever
    steps = []

    def guard(t, y):
        steps.append(t)
        if len(steps) > 100_000:
            raise IntegrationError("no progress", t)

    assert_negative_samples(oscillator_from_minus_two([-1.5, -1.0, -0.6], guard))


def test_samples_may_end_at_a_negative_t1():
    assert_negative_samples(oscillator_from_minus_two([-1.5, -1.0, -0.6, -0.5]))
