"""The adiabatic segment that starts each sweep row (``dynamics._adiabatic_segment``).

Standard library only, so the no-extras install checks it too.  A row with a
segment is compared with the plain march from t = 0 at tol 1e-13; a row without
one (t_s = 0) must be that march at the row's tolerance, bit for bit.
"""

import functools
import itertools
import math

import pytest

from biascool import dynamics
from biascool.config import load_config
from biascool.design import _drive, make_trajectory
from biascool.dynamics import IntegrationError, propagate_row, thermal_state
from biascool.records import astuple
from biascool.robustness import perturb_trajectory
from biascool.thermometry import occupation

PARAMS = load_config(None).physical
EPSILONS = (-0.1, 0.0, 0.1, 0.3)


def ramps(t_final, epsilons):
    nominal = make_trajectory(PARAMS, t_final)
    return [perturb_trajectory(nominal, epsilon) for epsilon in epsilons]


def march(rows, t_final, tol):
    """The plain march of a row: every lane from t = 0, no segment."""
    kernel = _drive(rows[0], 1.0, 0.0)
    return dynamics._integrate_transfer(kernel, 0.0, t_final, tol, lanes=[(1.0, r.eta * r.f_scale) for r in rows])


def n_and_b(matrix, omega0_sq):
    """n + 1/2 at t_f, n the sweep's occupation from the thermal start at omega_0, and the Pinney b.

    The occupation's error is measured against n + 1/2, as everywhere in this project: relative
    to n alone, the plain march of the epsilon = 0.3 lane at t_f 0.5 already misses tol 1e-8 by
    1.8 times and tol 1e-12 by 1.3 times (a per-step tolerance is not a global promise).
    """
    m11, m12, m21, m22 = matrix
    start = thermal_state(PARAMS, omega0_sq, PARAMS.bath_temperature)
    final = dynamics.TransferMatrix(m11, m12, m21, m22).apply(start)
    return occupation(final.xx, final.pp, 1.0) + 0.5, math.sqrt(m11 * m11 + omega0_sq * m12 * m12)


@functools.lru_cache(maxsize=None)
def reference(t_final):
    return march(ramps(t_final, EPSILONS), t_final, 1e-13)


def outcome(fn):
    """fn's matrices as tuples, or its IntegrationError's message and time."""
    try:
        return [m if isinstance(m, tuple) else astuple(m) for m in fn()]
    except IntegrationError as exc:
        return str(exc), exc.time


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("t_final", [0.5, 1.0, 2.0, 8.0])
def test_rows_stay_within_tol_of_a_tight_march(t_final, tol):
    rows = ramps(t_final, EPSILONS)
    omega0_sq = rows[0].spec.omega0_sq
    for epsilon, row, ref in zip(EPSILONS, propagate_row(rows, t_final, tol), reference(t_final)):
        assert abs(row.det - 1.0) <= 1e-13
        for value, expected in zip(n_and_b(astuple(row), omega0_sq), n_and_b(ref, omega0_sq)):
            assert abs(value / expected - 1.0) <= tol, (epsilon, value, expected)


def test_default_rows_start_with_a_segment():
    # reproduce's rows: the segment covers the start of each, so the march begins later
    for t_final in (0.5, 1.0, 2.0):
        rows = ramps(t_final, (-0.1, 0.0, 0.1))
        t_s, matrices = dynamics._adiabatic_segment(rows[0].spec, [r.f_scale for r in rows], t_final, 1e-10)
        assert 0.04 * t_final < t_s < 0.25 * t_final and len(matrices) == 3
        assert all(abs(a * d - b * c - 1.0) <= 1e-13 for a, b, c, d in matrices)


def test_lane_order_changes_no_lane():
    first = propagate_row(ramps(1.0, EPSILONS), 1.0)
    for order in itertools.permutations(range(len(EPSILONS))):
        marched = propagate_row(ramps(1.0, [EPSILONS[k] for k in order]), 1.0)
        assert [marched[order.index(k)] for k in range(len(EPSILONS))] == first


@pytest.mark.parametrize("t_final,epsilons", [
    (1.0, (0.0,)),  # all nominal: the row still certifies the march
    (1.0, (0.0, 0.0)),
    (0.5, (-1.2, -0.1, 0.0, 0.1)),  # u < 0 at t = 0 on the -1.2 lane
    (1.0, (-0.1, 1e308)),  # an infinite gain: the march fails, as it does without a segment
    (1e-6, (-0.1, 0.0, 0.1)),  # short ramps: the budget fails on the first grid cell
    (1e-3, (-0.1, 0.0, 0.1)),
])
def test_rows_without_a_segment_are_the_march_bit_for_bit(t_final, epsilons):
    rows = ramps(t_final, epsilons)
    assert dynamics._adiabatic_segment(rows[0].spec, [r.f_scale for r in rows], t_final, 1e-10) == (0.0, [])
    assert outcome(lambda: propagate_row(rows, t_final)) == outcome(lambda: march(rows, t_final, 1e-10))
