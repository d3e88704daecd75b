"""The adiabatic segment that starts each sweep row (``dynamics._adiabatic_segment``).

Standard library only, so the no-extras install checks it too.  A row with a
segment is compared with the plain march from t = 0 at tol 1e-13; a row without
one (t_s = 0) must be that march at the row's tolerance, bit for bit.
"""

import functools
import itertools
import math
from decimal import Decimal, localcontext

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
    (matrices,) = dynamics._integrate_transfer(kernel, 0.0, [t_final], tol, lanes=[(1.0, r.eta * r.f_scale) for r in rows])
    return matrices


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
    for epsilon, row, ref in zip(EPSILONS, propagate_row(rows, tol), reference(t_final)):
        assert abs(row.det - 1.0) <= 1e-13
        for value, expected in zip(n_and_b(astuple(row), omega0_sq), n_and_b(ref, omega0_sq)):
            assert abs(value / expected - 1.0) <= tol, (epsilon, value, expected)


def test_default_rows_start_with_a_segment():
    # reproduce's rows: the segment covers the start of each, so the march begins later
    for t_final in (0.5, 1.0, 2.0):
        rows = ramps(t_final, (-0.1, 0.0, 0.1))
        t_s, matrices = dynamics._adiabatic_segment(rows[0].spec, [r.f_scale for r in rows], 1e-10)
        assert 0.09 * t_final < t_s < 0.25 * t_final and len(matrices) == 3
        assert all(abs(a * d - b * c - 1.0) <= 1e-13 for a, b, c, d in matrices)


def test_lane_order_changes_no_lane():
    first = propagate_row(ramps(1.0, EPSILONS))
    for order in itertools.permutations(range(len(EPSILONS))):
        marched = propagate_row(ramps(1.0, [EPSILONS[k] for k in order]))
        assert [marched[order.index(k)] for k in range(len(EPSILONS))] == first


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("t_final", [0.5, 1.0, 2.0, 8.0])
def test_the_segment_alone_stays_within_a_tenth_of_tol(t_final, tol):
    # the segment's matrices over [0, t_s] against the plain march there at tol 1e-14
    epsilons = (-0.5, -0.1, 0.0, 0.1, 0.5, 1.0)
    rows = ramps(t_final, epsilons)
    omega0_sq = rows[0].spec.omega0_sq
    t_s, matrices = dynamics._adiabatic_segment(rows[0].spec, [r.f_scale for r in rows], tol)
    assert t_s > 0.0
    kernel = _drive(rows[0], 1.0, 0.0)
    (marched,) = dynamics._integrate_transfer(kernel, 0.0, [t_s], 1e-14, lanes=[(1.0, r.eta * r.f_scale) for r in rows])
    for epsilon, matrix, ref in zip(epsilons, matrices, marched):
        for value, expected in zip(n_and_b(matrix, omega0_sq), n_and_b(ref, omega0_sq)):
            assert abs(value / expected - 1.0) <= 0.1 * tol, (epsilon, value, expected)


def test_default_rows_march_at_most_4500_evaluations(monkeypatch):
    # reproduce's rows at the default tolerance: 8,239 kernel evaluations after a second-order segment
    # (t_s/t_f 0.055, 0.094, 0.125), 4,125 after the fourth-order one (0.102, 0.141, 0.172), the
    # phase preflight's probes included
    evaluations = 0
    march = dynamics._integrate_transfer

    def counted_march(kernel, *args, **kwargs):
        def counted(t):
            nonlocal evaluations
            evaluations += 1
            return kernel(t)

        return march(counted, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_integrate_transfer", counted_march)
    for t_final in (0.5, 1.0, 2.0):
        propagate_row(ramps(t_final, (-0.1, 0.0, 0.1)))
    assert evaluations <= 4_500


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
    assert dynamics._adiabatic_segment(rows[0].spec, [r.f_scale for r in rows], 1e-10) == (0.0, [])
    assert outcome(lambda: propagate_row(rows)) == outcome(lambda: march(rows, t_final, 1e-10))


# --- the fourth-order closed forms against a Taylor-arithmetic iterate ---------

def taylor_mul(a, b, n):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def taylor_pow(a, alpha, n):
    """The first n Taylor coefficients of a^alpha, from h' a = alpha a' h."""
    h = [a[0] ** alpha]
    for k in range(1, n):
        h.append(sum(((alpha + 1) * j - k) * a[j] * h[k - j] for j in range(1, k + 1)) / (k * a[0]))
    return h


def second_derivative(a):
    return [(k + 1) * (k + 2) * a[k + 2] for k in range(len(a) - 2)]


def u_series(spec, scale, t):
    """u's Taylor coefficients in tau at t, [u, u_tau, u_tautau/2!, ..., u^(6)/6!], in 40-digit decimals.

    b(s) = 1 + c s^3 (10 - 15 s + 6 s^2), s = t/t_f, is shifted to t; g = b^4 + b^3 b_tt as a series in t,
    and D = b^2 d/dt applied six times, each time to a whole series.
    """
    c, t_f, s = Decimal(spec.chi) - 1, Decimal(spec.t_final), Decimal(t) / Decimal(spec.t_final)
    coefficients = [1, 0, 0, 10 * c, -15 * c, 6 * c]
    b = [sum(math.comb(j, k) * a * s ** (j - k) for j, a in enumerate(coefficients) if j > k) for k in range(6)]
    b = [(coefficients[k] + x) / t_f**k for k, x in enumerate(b)]
    b += [Decimal(0)] * 3
    bb = taylor_mul(b, b, 7)
    g = taylor_mul(taylor_mul(bb, b, 7), [b[k] + (k + 1) * (k + 2) * b[k + 2] for k in range(7)], 7)
    derivs = [g[0]]
    for k in range(6, 0, -1):
        g = taylor_mul(bb, [j * x for j, x in enumerate(g)][1:], k)
        derivs.append(g[0])
    scale = Decimal(scale)
    u = [scale * Decimal(spec.omega0_sq) + (1 - scale) * derivs[0], *((1 - scale) * x for x in derivs[1:])]
    return [x / math.factorial(k) for k, x in enumerate(u)]


def iterate(u):
    """rho = W^(-1/2), rho_tau and R = u - W^2 + W^(1/2) (W^(-1/2))_tautau for the second iterate
    W_{k+1}^2 = u + W_k^(1/2) (W_k^(-1/2))_tautau from W_0 = sqrt(u), each W a truncated Taylor series."""
    half, n = Decimal(1) / 2, len(u)
    w = taylor_pow(u, half, n)
    for _ in range(3):
        f = taylor_mul(taylor_pow(w, half, n - 2), second_derivative(taylor_pow(w, -half, n)), n - 2)
        if n == 3:
            return w[0] ** -half, -half * w[0] ** (-3 * half) * w[1], u[0] - w[0] ** 2 + f[0]
        n -= 2
        w = taylor_pow([a + b for a, b in zip(u, f)], half, n)


def fourth_order_phase(u):
    """W to fourth order by parts, rate + P_tau, rate and P as ``dynamics._wkb``'s docstring states them."""
    u0, u1, u2, u3, u4 = (math.factorial(k) * x for k, x in enumerate(u[:5]))
    rate = u0.sqrt() * (1 - (u1**2 / u0**2 + (u2**2 / (4 * u0**2) - 35 * u1**4 / (64 * u0**4)) / u0) / (32 * u0))
    end = -u1 / (8 * u0**Decimal(1.5)) + u3 / (32 * u0**Decimal(2.5)) - 9 * u1 * u2 / (64 * u0**Decimal(3.5))
    end += 95 * u1**3 / (768 * u0**Decimal(4.5))
    end_tau = (-u2 / 8 + 3 * u1**2 / (16 * u0)) / u0**Decimal(1.5)
    end_tau += (u4 / 32 - 5 * u1 * u3 / (64 * u0) - 9 * (u2**2 + u1 * u3) / (64 * u0)) / u0**Decimal(2.5)
    end_tau += (63 * u1**2 * u2 / 128 + 285 * u1**2 * u2 / 768 - 855 * u1**4 / (1536 * u0)) / u0**Decimal(4.5)
    return rate, end, rate + end_tau


@pytest.mark.parametrize("t_final,epsilon,where", [
    (1.0, -0.1, 0.0), (1.0, 0.1, 0.0), (1.0, -0.1, "switch"), (1.0, 0.1, "switch"), (1.0, 0.1, 0.05),
    (0.5, -0.5, "switch"), (2.0, 1.0, 0.25), (8.0, -0.1, "switch"),
])
def test_closed_forms_match_a_taylor_iterate(t_final, epsilon, where):
    rows = ramps(t_final, (-0.1, 0.0, 0.1) if where == "switch" else (epsilon,))
    if where == "switch":  # the default row's switch point
        where = dynamics._adiabatic_segment(rows[0].spec, [r.f_scale for r in rows], 1e-10)[0] / t_final
        assert where > 0.0
    row = perturb_trajectory(make_trajectory(PARAMS, t_final), epsilon)
    t = where * t_final
    with localcontext() as ctx:
        ctx.prec = 40
        u = u_series(row.spec, row.f_scale, t)
        exact = iterate(u)
        rate, end, w4 = fourth_order_phase(u)
        # the by-parts phase is W to fourth order: with u's n-th derivative scaled by 2^-n, W - (rate + P_tau)
        # falls as 2^-6, not 2^-4
        halved = [x / 2**k for k, x in enumerate(u)]
        ratio = (iterate(halved)[0] ** -2 - fourth_order_phase(halved)[2]) / (exact[0] ** -2 - w4)
        assert abs(ratio * 64 - 1) < 0.01, ratio
    b, _, terms = dynamics._pinney_terms(t, row.spec.chi - 1.0, t_final)
    derivs = [row.f_scale * row.spec.omega0_sq + (1.0 - row.f_scale) * terms[0], *((1.0 - row.f_scale) * x for x in terms[1:])]
    for value, expected in zip(derivs, (math.factorial(k) * x for k, x in enumerate(u))):
        assert value == pytest.approx(float(expected), rel=1e-12, abs=1e-12 * abs(derivs[0]))
    rho, rho_tau, closed_end, residual = dynamics._wkb(*derivs)
    for value, expected in zip((rho, rho_tau, residual, closed_end), (*exact, end)):
        assert value == pytest.approx(float(expected), rel=1e-12)
    assert dynamics._phase_rate(*derivs[:3]) == pytest.approx(float(rate), rel=1e-12)
