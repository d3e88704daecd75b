"""The transfer march's stops: ``transfer_series`` reaches each sample time by a step that ends there.

Standard library only, so the no-extras install checks it too.  The march
(``dynamics._integrate_transfer``) takes ascending end times and yields each
lane's matrices at every one of them; a series passes its sample times, and a
one-shot propagation passes its end alone.
"""

import pytest

from biascool import dynamics
from biascool.config import load_config
from biascool.design import linspace, make_trajectory
from biascool.dynamics import propagate_transfer, thermal_state, transfer_series
from biascool.thermometry import occupation

PARAMS = load_config(None).physical


def start(traj):
    return thermal_state(PARAMS, traj.spec.omega0_sq, PARAMS.bath_temperature)


def n_half(state):
    """n + 1/2 at the bare frequency, the ramp's end (omega_final^2 = 1)."""
    return occupation(state.xx, state.pp, 1.0) + 0.5


@pytest.mark.parametrize("t_final", [0.1, 1.0, 8.0])
def test_a_series_to_its_end_is_the_one_shot_march(t_final):
    # one stop, at the end: the same steps as propagate_transfer, bit for bit
    traj = make_trajectory(PARAMS, t_final)
    state0 = start(traj)
    states, matrix = transfer_series(traj, state0, [0.0, t_final])
    assert states[0] is state0
    assert (states[-1], matrix) == propagate_transfer(traj, state0, 0.0, t_final)


@pytest.mark.parametrize("t_final,n", [(0.1, 201), (1.0, 4001), (8.0, 41)])
def test_dense_states_carry_their_sample_times(t_final, n):
    # every state is stamped with its own sample time, and stopping at each moves
    # n + 1/2 at the end by at most 1e-13 relative from the one-shot march's
    # (default tol 1e-10): the bound is 1e-9
    traj = make_trajectory(PARAMS, t_final)
    state0 = start(traj)
    times = linspace(0.0, t_final, n)
    states, matrix = transfer_series(traj, state0, times)
    assert [s.time for s in states] == times
    final, _ = propagate_transfer(traj, state0, 0.0, t_final)
    assert abs(n_half(states[-1]) / n_half(final) - 1.0) <= 1e-9
    assert abs(matrix.det - 1.0) <= 1e-12


def test_ends_must_ascend_from_the_start():
    traj = make_trajectory(PARAMS, 1.0)
    state0 = start(traj)
    for times in ([0.0], [0.0, 0.5, 0.5], [0.0, 0.6, 0.4], [0.0, float("nan")]):
        with pytest.raises(ValueError, match="ascend"):
            transfer_series(traj, state0, times)


def test_a_dense_series_costs_one_step_per_sample(monkeypatch):
    # 4001 samples at t_f 1: 68,049 kernel evaluations, ~17 per sample; an
    # interpolating sub-step per sample on top of the plain march took 75,648
    calls = []
    march = dynamics._integrate_transfer

    def counted(q, *args, **kwargs):
        return march(lambda t: calls.append(t) or q(t), *args, **kwargs)

    monkeypatch.setattr(dynamics, "_integrate_transfer", counted)
    traj = make_trajectory(PARAMS, 1.0)
    states, _ = transfer_series(traj, start(traj), linspace(0.0, 1.0, 4001))
    assert len(states) == 4001
    assert len(calls) <= 70_000
