"""Exact Gaussian-state propagation under the time-dependent quadratic Hamiltonian.

The resonator state is thermal at t = 0 and the Hamiltonian stays
quadratic with zero drive, so the first moments vanish for all time and
the state is fully described by the second moments (<x^2>, <p^2>,
<xp+px>/2).  Everything in this module is in reduced units: time in
1/omega_m, x in sqrt(hbar/(m omega_m)), p in sqrt(hbar m omega_m),
squared frequencies in omega_m^2 (so hbar = m = omega_m = 1 here).

Two code paths live here:

* ``propagate_transfer`` -- the propagator.  Builds the classical 2x2
  fundamental matrix with an adaptive, Richardson-extrapolated Magnus
  scheme: each step combines 6th-order Magnus exponentials (closed-form
  exponentials of traceless matrices on three Gauss nodes) over 1, 2 and
  3 equal sub-steps into an 8th-order update, and normalises it to unit
  determinant, so each step is unimodular to rounding and the symplectic
  invariants are conserved structurally, not by luck of the tolerance.
  ``transfer_series`` stops the march at each sample time and maps the
  start state there; ``propagate_row`` marches ramps differing only in
  the drive's gain as the lanes of one march, one per t_final in the
  sweep, after a closed-form start over [0, t_s] (``_adiabatic_segment``:
  in the invariant's Pinney time, the exact rotation at omega_0 for
  epsilon = 0 and fourth-order WKB for the others; t_s the furthest start
  whose estimated error is within tol/10).
  No CLI command samples it: ``simulate`` writes the nominal ramp's
  exact moments from the Lewis-Riesenfeld invariant (``cli._ramp_blocks``).
* ``solve_ermakov_forward`` -- oracle for the auxiliary nonlinear
  equation, integrated forward with the RK solver in ``integrate``; it
  closes the design/simulate loop.  No CLI command runs it.

The independent covariance-ODE and forward-Ermakov oracles (scipy's
DOP853) live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from operator import mul as _mul

from . import thermometry
from .design import ControlTrajectory, _b_derivs, _drive
from .integrate import IntegrationError, RKResult, solve_rk
from .physical import PhysicalParams
from .records import Record

FrequencyProfile = Callable[[float], float]


class StateError(ValueError):
    """A Gaussian state violates positivity or the uncertainty bound."""


def _require_positive(xx: float, pp: float) -> None:
    if not (0.0 < xx < math.inf and 0.0 < pp < math.inf):
        raise StateError(f"moments must be positive and finite: xx={xx!r}, pp={pp!r}")


class GaussianState(Record):
    """Second moments of the resonator at one instant, reduced units."""

    xx: float
    pp: float
    xp: float = 0.0
    time: float = 0.0

    def __post_init__(self) -> None:
        _require_positive(self.xx, self.pp)

    @property
    def purity_invariant(self) -> float:
        """det of the covariance matrix, xx*pp - xp^2; >= 1/4 for physical states."""
        return self.xx * self.pp - self.xp * self.xp

    def validate(self) -> None:
        if self.purity_invariant < 0.25 * (1.0 - 1e-9):
            raise StateError(
                f"uncertainty product {self.purity_invariant!r} below the minimum 1/4"
            )


class TransferMatrix(Record):
    """Classical phase-space map (x, p) over a time interval; det = 1."""

    m11: float
    m12: float
    m21: float
    m22: float

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, state: GaussianState, time: float | None = None) -> GaussianState:
        """Map second moments forward: Sigma -> M Sigma M^T.

        Raises IntegrationError if a mapped moment overflowed.
        """
        t, xx, pp, xp = _moment_row(
            (self.m11, self.m12, self.m21, self.m22),
            state.xx, state.pp, state.xp,
            state.time if time is None else time,
        )
        return GaussianState(xx, pp, xp, t)


def _moment_row(
    m: tuple[float, float, float, float], xx: float, pp: float, xp: float, time: float
) -> tuple[float, float, float, float]:
    """The moments (xx, pp, xp) mapped by m, M Sigma M^T, as the row (time, xx, pp, xp).

    The one moment formula: ``TransferMatrix.apply`` and every sampled
    state go through it.  Raises
    IntegrationError if a moment is not finite (the map overflowed) and
    StateError if xx or pp is not positive, as GaussianState does.
    """
    a, b, c, d = m
    mxx = a * a * xx + 2.0 * a * b * xp + b * b * pp
    mpp = c * c * xx + 2.0 * c * d * xp + d * d * pp
    mxp = a * c * xx + (a * d + b * c) * xp + b * d * pp
    inf = math.inf
    if not (0.0 < mxx < inf and 0.0 < mpp < inf and -inf < mxp < inf):
        if not (math.isfinite(mxx) and math.isfinite(mpp) and math.isfinite(mxp)):
            if xp == 0.0:  # an overflowed a*b times xp = 0 is nan, not the inf that the sum overflowed to
                mxx, mpp = a * a * xx + b * b * pp, c * c * xx + d * d * pp
            raise IntegrationError(f"second moments overflowed: xx={mxx!r}, pp={mpp!r}", time)
        _require_positive(mxx, mpp)
    return time, mxx, mpp, mxp


def thermal_state(params: PhysicalParams, omega_sq: float, temperature: float) -> GaussianState:
    """Thermal second moments at reduced squared frequency ``omega_sq``.

    xx = (nbar + 1/2)/omega, pp = (nbar + 1/2) omega, xp = 0, with the
    Bose occupation evaluated at the SI frequency.
    """
    if not omega_sq > 0.0:
        raise StateError(f"no thermal state at omega_sq = {omega_sq!r} <= 0")
    if not temperature > 0.0:
        raise StateError(f"temperature must be positive, got {temperature!r}")
    omega = math.sqrt(omega_sq)
    nbar = thermometry.thermal_occupation(omega * params.bare_frequency, temperature)
    state = GaussianState(xx=(nbar + 0.5) / omega, pp=(nbar + 0.5) * omega)
    state.validate()
    return state


def _profile(traj: ControlTrajectory | FrequencyProfile) -> FrequencyProfile:
    if isinstance(traj, ControlTrajectory):
        return traj.frequency_sq_fn()
    return traj


# --- transfer-matrix propagation -------------------------------------------

_ROOT15 = math.sqrt(15.0)
_GAUSS_LO = 0.5 - _ROOT15 / 10.0
_GAUSS_HI = 0.5 + _ROOT15 / 10.0
_P_COEF = -_ROOT15 / 3.0  # literal-only coefficients are folded by the compiler
_sqrt, _cos, _sin, _cosh, _sinh = math.sqrt, math.cos, math.sin, math.cosh, math.sinh

#: Upper bound on attempted steps per propagation.  A step spans at most
#: ``max_phase`` of phase, measured as integral of max(sqrt|w|, 1) dt, so a
#: march whose phase, estimated on ``_PHASE_PROBES`` midpoints, exceeds
#: ``_MAX_STEPS * max_phase`` is refused before its first step instead of
#: marching the whole budget (``sweep`` at bare_frequency = 1e-20, t_final =
#: 1 ran 15 s on 2 vCPUs before it exited 2); one that still exhausts the
#: budget stops with the time it reached.
_MAX_STEPS = 1_000_000
_PHASE_PROBES = 32

#: Accepted steps between two checks that the matrix is still finite.  The
#: step controller looks at each step's error, not at M, so without them a
#: march whose M overflowed runs on to t1: an epsilon = -2 ramp stops at
#: t = 0.39 after 13,147 profile evaluations instead of at t = 2 after
#: 14,082 (t_final = 2), and at t = 0.21 after 9,091 instead of at t = 8
#: after 48,123 (t_final = 8).  A check costs less than one of a step's 17
#: evaluations.
_OVERFLOW_CHECK_STEPS = 64


def _magnus6_exp(h: float, w1: float, w2: float, w3: float) -> tuple[float, float, float, float]:
    """6th-order Magnus step for x' = p, p' = -w(t) x, from w at the step's three Gauss nodes.

    Blanes, Casas & Ros, BIT 40 (2000) 434: with A_i = A(t + c_i h),
    a1 = h A_2, a2 = (sqrt(15) h/3)(A_3 - A_1), a3 = (10 h/3)(A_3 - 2 A_2 + A_1),
    C1 = [a1, a2], C2 = -[a1, 2 a3 + C1]/60 and
    Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240.  For
    A = [[0, 1], [-w, 0]] the commutators reduce to the scalar products
    below, and Omega = [[a, b], [c, -a]] is traceless, so its exponential
    is cosh/sinh(sqrt(a^2 + bc)) in closed form with unit determinant.
    """
    # a1 = [[0, h], [r, 0]], a2 = [[0, 0], [p, 0]], a3 = [[0, 0], [q, 0]]
    r = -h * w2
    p = _P_COEF * h * (w3 - w1)
    q = -10.0 / 3.0 * h * (w3 - 2.0 * w2 + w1)
    hp2 = h * p * p
    a = h * p * (-20.0 + h * (4.0 / 3.0 * r + q / 30.0)) / 240.0
    b = h + h * h * (hp2 - 20.0 * q) / 3600.0
    c = r + q / 12.0 + (h * q * (20.0 * r + q) / 30.0 - hp2 + h * r * hp2 / 30.0) / 120.0
    delta = a * a + b * c
    if delta > 1e-12:
        rt = _sqrt(delta)
        try:
            ch = _cosh(rt)
            sh = _sinh(rt) / rt
        except OverflowError:  # a step far past the phase limit: its matrix is not finite
            ch = sh = math.inf
    elif delta < -1e-12:
        rt = _sqrt(-delta)
        ch = _cos(rt)
        sh = _sin(rt) / rt
    else:
        ch = 1.0 + 0.5 * delta * (1.0 + delta / 12.0)
        sh = 1.0 + delta / 6.0 * (1.0 + delta / 20.0)
    return (ch + sh * a, sh * b, sh * c, ch - sh * a)


def _mmul(A, B):
    a11, a12, a21, a22 = A
    b11, b12, b21, b22 = B
    return (
        a11 * b11 + a12 * b21,
        a11 * b12 + a12 * b22,
        a21 * b11 + a22 * b21,
        a21 * b12 + a22 * b22,
    )


#: The Gauss nodes of one step, of its two halves and of its three thirds,
#: as fractions of the step, but for the midpoint: it is the middle node of
#: the step and of its second third.
_NODES = (
    _GAUSS_LO, _GAUSS_HI,
    *(k / 2.0 + c / 2.0 for k in (0.0, 1.0) for c in (_GAUSS_LO, 0.5, _GAUSS_HI)),
    *(k / 3.0 + c / 3.0 for k in (0.0, 1.0, 2.0) for c in (_GAUSS_LO, 0.5, _GAUSS_HI) if (k, c) != (1.0, 0.5)),
)


def _extrapolated_step(
    q: FrequencyProfile, lanes: Sequence[tuple[float, float]], wscales: Sequence[float],
    t: float, h: float, qmid: float,
) -> tuple[float, list[tuple[float, float, float, float]]]:
    """The largest lane error estimate and each lane's update over [t, t + h].

    Per lane, C, F and G are the Magnus-6 products of 1, 2 and 3 equal
    sub-steps; the symmetric step's error expands in even powers of the
    sub-step, so X = F + (F - C)/63 and Y = G + (G - F) 64/665 are both
    8th order (Richardson extrapolation, Hairer, Norsett & Wanner, Solving
    ODEs I, II.9).  The update is Y / sqrt(det Y), unimodular to rounding;
    its error estimate is the max-norm of (Y - X)/20, off-diagonal entries
    weighted by the lane's wscale.  Asymptotically Y's error is |Y - X|/56,
    but with that divisor the sweep rows at t_f 1e-2 and below ended up to
    27 times further from a tol-1e-13 reference than with 20.  A det Y
    that is not positive and finite makes the estimate NaN.  qmid is
    q(t + h/2), shared by C and G.
    """
    step, mmul, sqrt = _magnus6_exp, _mmul, _sqrt
    q1, q3, q21, q22, q23, q24, q25, q26, q31, q32, q33, q34, q36, q37, q38, q39 = [q(t + c * h) for c in _NODES]
    half, third = 0.5 * h, h / 3.0
    err, updates = 0.0, []
    for (o, g), ws in zip(lanes, wscales):
        c11, c12, c21, c22 = step(h, o + g * q1, o + g * qmid, o + g * q3)
        f11, f12, f21, f22 = mmul(
            step(half, o + g * q24, o + g * q25, o + g * q26), step(half, o + g * q21, o + g * q22, o + g * q23)
        )
        g11, g12, g21, g22 = mmul(
            step(third, o + g * q37, o + g * q38, o + g * q39),
            mmul(step(third, o + g * q34, o + g * qmid, o + g * q36), step(third, o + g * q31, o + g * q32, o + g * q33)),
        )
        x11, x12 = f11 + (f11 - c11) / 63.0, f12 + (f12 - c12) / 63.0
        x21, x22 = f21 + (f21 - c21) / 63.0, f22 + (f22 - c22) / 63.0
        y11, y12 = g11 + (g11 - f11) * (64.0 / 665.0), g12 + (g12 - f12) * (64.0 / 665.0)
        y21, y22 = g21 + (g21 - f21) * (64.0 / 665.0), g22 + (g22 - f22) * (64.0 / 665.0)
        det = y11 * y22 - y12 * y21
        if 0.0 < det < math.inf:
            e = max(abs(y11 - x11), abs(y22 - x22), abs(y12 - x12) * ws, abs(y21 - x21) / ws) / 20.0
            r = sqrt(det)
            s = (1.0 - det) / (r * (1.0 + r))  # 1/r - 1 without rounding 1/r near 1
            updates.append((y11 + y11 * s, y12 + y12 * s, y21 + y21 * s, y22 + y22 * s))
        else:
            e = math.nan
            updates.append((math.nan,) * 4)
        if e > err or e != e:  # a NaN estimate is the largest, whatever the order
            err = e
    return err, updates


def _integrate_transfer(
    q: FrequencyProfile,
    t0: float, ends: Sequence[float], tol: float,
    lanes: Sequence[tuple[float, float]] = ((0.0, 1.0),),
) -> Iterator[list[tuple[float, float, float, float]]]:
    """Accumulate the fundamental matrix of each lane; yield them at each end time, in order.

    A lane (offset, gain) marches the profile offset + gain * q(t); a plain
    profile is q itself, the lane (0.0, 1.0).  The lanes share one step
    sequence: each attempt evaluates q once per node for all of them, the
    phase limit follows the largest local frequency, and a step is accepted
    only when every lane's error estimate is within tol, the controller
    following the largest.  So a lane's last digits depend on the other
    lanes, but not on their order, and a one-lane march is its own.

    Each step is ``_extrapolated_step``: the Magnus-6 products of 1, 2 and
    3 equal sub-steps, Richardson-extrapolated to 8th order twice; the
    accepted update is the better value Y normalised to unit determinant,
    and the controller keeps the max-norm of (Y - X)/20, the difference of
    the two extrapolations scaled to the error of Y, within tol, with the
    step-size exponent 1/9: tol bounds each accepted update's estimate.
    Off-diagonal errors are weighted by the lane's local frequency so the
    estimate is balanced for large omega.  The kernel probe at the step
    midpoint doubles as the middle node of the whole step and of its
    second third whenever the step is not clipped to the phase limit, so
    an attempt costs 17 evaluations (18 if clipped).  A step whose Y has a
    non-positive or non-finite determinant is rejected, as one with a NaN
    estimate is.

    The ends ascend from t0, and the march stops at each: the step that
    would pass an end is clipped to land on it, as the last step always
    was on t1.  So interior ends shape the step sequence, and the last
    end's matrices agree with a march to it alone within tol, not bit
    for bit.  A caller that iterates keeps the matrices yielded before a
    failure.

    Raises IntegrationError, with the time reached, on step-size
    underflow or once ``_MAX_STEPS`` steps have been attempted; a march
    whose estimated phase cannot fit in that budget is refused before the
    first step.  A matrix that overflowed is an IntegrationError too, at
    the time reached: the matrices are checked every
    ``_OVERFLOW_CHECK_STEPS`` accepted steps and at each end.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not ends or not all(b > a for a, b in zip((t0, *ends), ends)):
        raise ValueError("end times must ascend from t0")
    span = ends[-1] - t0
    max_phase = 1.5  # keep per-step phase below the Magnus convergence radius
    probe = span / _PHASE_PROBES  # the phase estimate is never below the span
    probes = [q(t0 + (k + 0.5) * probe) for k in range(_PHASE_PROBES)]
    phase = probe * sum(max(max(_sqrt(abs(o + g * v)), 1.0) for o, g in lanes) for v in probes)
    if phase / max_phase > _MAX_STEPS:
        raise IntegrationError(
            f"phase {phase:.3g} over span {span:.3g} needs more than {_MAX_STEPS} transfer-matrix steps",
            t0,
        )

    update, mmul, sqrt, isfinite = _extrapolated_step, _mmul, _sqrt, math.isfinite
    t = t0
    Ms = [(1.0, 0.0, 0.0, 1.0)] * len(lanes)
    h = span * 1e-4
    steps = accepted_steps = 0
    check_every = _OVERFLOW_CHECK_STEPS

    for end in ends:
        while t < end:
            if h <= abs(t) * 1e-15 + span * 1e-16:
                raise IntegrationError("transfer-matrix step size underflow", t)
            if steps == _MAX_STEPS:
                raise IntegrationError(f"transfer-matrix step budget ({_MAX_STEPS}) exhausted", t)
            steps += 1
            h_try = min(h, end - t)
            qmid = q(t + 0.5 * h_try)
            wscales = [sqrt(max(abs(o + g * qmid), 1.0)) for o, g in lanes]
            wscale = max(wscales)
            if wscale * h_try > max_phase:
                h_try = max_phase / wscale
                qmid = q(t + 0.5 * h_try)  # the midpoint of the clipped step
            clipped = h_try < h
            err, updates = update(q, lanes, wscales, t, h_try, qmid)

            accepted = err <= tol  # NaN error estimates reject
            if accepted:
                t += h_try
                Ms = list(map(mmul, updates, Ms))
                accepted_steps += 1
                if not accepted_steps % check_every and not all(isfinite(x) for M in Ms for x in M):
                    raise IntegrationError("transfer matrix overflowed", t)
            if not isfinite(err):
                factor = 0.2
            elif err > 0.0:
                factor = 0.9 * (tol / err) ** (1.0 / 9.0)
            else:
                factor = 5.0
            h_new = h_try * min(5.0, max(0.2, factor))
            h = max(h_new, h) if (clipped and accepted) else h_new

        if not all(isfinite(x) for M in Ms for x in M):
            raise IntegrationError("transfer matrix overflowed", t)
        yield Ms


def propagate_transfer(
    traj: ControlTrajectory | FrequencyProfile,
    state0: GaussianState,
    t0: float,
    t1: float,
    tol: float = 1e-10,
) -> tuple[GaussianState, TransferMatrix]:
    """Propagate second moments from t0 to t1; also return the phase-space map.

    Inverted-potential windows (omega_eff^2 < 0) need no special
    handling: the elementary exponential simply goes hyperbolic.
    """
    ((m,),) = _integrate_transfer(_profile(traj), t0, [t1], tol)
    matrix = TransferMatrix(*m)
    return matrix.apply(state0, time=t1), matrix


def propagate_row(trajs: Sequence[ControlTrajectory], tol: float = 1e-10) -> list[TransferMatrix]:
    """The transfer matrices over [0, t_f] of ramps with one nominal drive (spec and eta), such as one
    ramp's ``perturb_trajectory`` copies: the lanes (1, eta f_scale) of the first's kernel f0, one march
    over [t_s, t_f] times ``_adiabatic_segment``'s matrices over [0, t_s] (the march alone where t_s = 0)."""
    kernel, lanes = _drive(trajs[0], 1.0, 0.0), [(1.0, r.eta * r.f_scale) for r in trajs]
    t_s, starts = _adiabatic_segment(trajs[0].spec, [r.f_scale for r in trajs], tol)
    (marched,) = _integrate_transfer(kernel, t_s, [trajs[0].t_final], tol, lanes=lanes)
    if not t_s:
        return [TransferMatrix(*m) for m in marched]
    return [TransferMatrix(*_mmul(m, s)) for m, s in zip(marched, starts)]


# --- adiabatic start of a row ----------------------------------------------

#: 12-point Gauss-Legendre nodes and weights on [0, 1] (Abramowitz & Stegun, table 25.4).
_GAUSS12 = [(0.5 + sign * x / 2.0, w / 2.0) for x, w in (
    (0.1252334085114689154724414, 0.2491470458134027850005624), (0.3678314989981801937526915, 0.2334925365383548087608499),
    (0.5873179542866174472967024, 0.2031674267230659217490645), (0.7699026741943046870368938, 0.1600783285433462263346525),
    (0.9041172563704748566784659, 0.1069393259953184309602547), (0.9815606342467192506905491, 0.04717533638651182719461596),
) for sign in (-1.0, 1.0)]
#: Panels of the phase quadrature over [0, t_s]: one missed by 1e-6 at t_f = 8.
_PHASE_PANELS = 4
#: The switch search's first and last stride, and its end, as fractions of t_f.
_SWITCH_STRIDE, _SWITCH_FINE, _SWITCH_LAST = 1.0 / 32.0, 1.0 / 128.0, 0.25


def _series_mul(a: Sequence[float], b: Sequence[float], n: int) -> list[float]:
    """The first n Taylor coefficients of the product of two series."""
    return [sum(map(_mul, a, b[k::-1])) for k in range(n)]


def _pinney_terms(t: float, c: float, t_f: float) -> tuple[float, float, list[float]]:
    """b, b_t and [g, D g, ..., D^6 g] at t, g = b^4 + b^3 b_tt, D = b^2 d/dt = d/dtau: truncated
    Taylor arithmetic in t on the quintic b of c = chi - 1, whose series is exact."""
    h = 1.0 / t_f
    b, b1, b2, b3, b4 = _b_derivs(t * h, c)
    series = (b, b1 * h, b2 * h * h / 2.0, b3 * h**3 / 6.0, b4 * h**4 / 24.0, 6.0 * c * h**5, 0.0, 0.0, 0.0)
    bb = _series_mul(series, series, 7)
    g = _series_mul(_series_mul(bb, series, 7), [series[k] + (k + 1) * (k + 2) * series[k + 2] for k in range(7)], 7)
    terms = [g[0]]
    for k in range(6, 0, -1):
        g = _series_mul(bb, [j * x for j, x in enumerate(g) if j], k)
        terms.append(g[0])
    return b, b1 * h, terms


def _wkb(
    u: float, u1: float, u2: float, u3: float, u4: float, u5: float, u6: float
) -> tuple[float, float, float, float] | None:
    """rho = W^(-1/2), rho_tau, the phase's end term P and W's residual R = u - W^2 + W^(1/2) (W^(-1/2))_tautau,
    from u and its first six tau-derivatives; None if u, or W^2 at an iterate, is not positive and finite.

    W is the second iterate of W^2 = u + F from W^2 = u, F = W^(1/2) (W^(-1/2))_tautau = l_tau^2/16 -
    l_tautau/4 for l = log W^2: fourth-order WKB (Bender & Orszag, Advanced Mathematical Methods, ch. 10).
    Each iterate multiplies W^2 by 1 + x, x carried by its derivatives and those of log(1 + x) (the
    recurrence of (log a)' a = a'), so R = F(l_2) - F(l_1), a sixth-order difference, comes without
    cancellation.  The phase int W dtau is, to fourth order and by parts, P(t_s) - P(0) plus the integral
    of ``_phase_rate``, with P = (-p1/8 + (p3/32 - 9 p1 p2/64 + 95 p1^3/768)/u)/sqrt(u), p_k = u^(k)/u.
    """
    if not 0.0 < u < math.inf:
        return None
    v = 1.0 / u
    p1, p2, p3, p4, p5, p6 = u1 * v, u2 * v, u3 * v, u4 * v, u5 * v, u6 * v
    l2 = p2 - p1 * p1  # the derivatives of log u
    l3 = p3 - 2.0 * p1 * l2 - p2 * p1
    l4 = p4 - 3.0 * p1 * l3 - 3.0 * p2 * l2 - p3 * p1
    l5 = p5 - 4.0 * p1 * l4 - 6.0 * p2 * l3 - 4.0 * p3 * l2 - p4 * p1
    l6 = p6 - 5.0 * p1 * l5 - 10.0 * p2 * l4 - 10.0 * p3 * l3 - 5.0 * p4 * l2 - p5 * p1
    v = v / 16.0  # 16 F(log u)/u = x, W_1^2 = u (1 + x), and its derivatives
    x0 = (p1 * p1 - 4.0 * l2) * v
    x1 = (2.0 * p1 * l2 - 4.0 * l3) * v - p1 * x0
    x2 = (2.0 * (l2 * l2 + p1 * l3) - 4.0 * l4) * v - 2.0 * p1 * x1 - p2 * x0
    x3 = (2.0 * (3.0 * l2 * l3 + p1 * l4) - 4.0 * l5) * v - 3.0 * p1 * x2 - 3.0 * p2 * x1 - p3 * x0
    x4 = (2.0 * (3.0 * l3 * l3 + 4.0 * l2 * l4 + p1 * l5) - 4.0 * l6) * v
    x4 -= 4.0 * p1 * x3 + 6.0 * p2 * x2 + 4.0 * p3 * x1 + p4 * x0
    w = 1.0 + x0
    if not w > 0.0:
        return None
    y1, y2, y3, y4 = x1 / w, x2 / w, x3 / w, x4 / w
    m2 = y2 - y1 * y1  # the derivatives of log(1 + x)
    m3 = y3 - 2.0 * y1 * m2 - y2 * y1
    m4 = y4 - 3.0 * y1 * m3 - 3.0 * y2 * m2 - y3 * y1
    a1, a2, v = p1 + y1, l2 + m2, v / w  # the derivatives of l_1 = log W_1^2; z = 16 (F(l_1) - F(log u))/W_1^2
    z0 = (y1 * (2.0 * p1 + y1) - 4.0 * m2) * v
    z1 = (m2 * (2.0 * p1 + y1) + y1 * (2.0 * l2 + m2) - 4.0 * m3) * v - a1 * z0
    z2 = (m3 * (2.0 * p1 + y1) + 2.0 * m2 * (2.0 * l2 + m2) + y1 * (2.0 * l3 + m3) - 4.0 * m4) * v
    z2 -= 2.0 * a1 * z1 + (a2 + a1 * a1) * z0
    w2 = u * w * (1.0 + z0)  # W_2^2
    if not 0.0 < w2 < math.inf:
        return None
    n1 = z1 / (1.0 + z0)
    n2 = z2 / (1.0 + z0) - n1 * n1
    rho = w2**-0.25
    end = (-p1 / 8.0 + (p3 / 32.0 - 9.0 / 64.0 * p1 * p2 + 95.0 / 768.0 * p1**3) / u) / _sqrt(u)
    return rho, -0.25 * rho * (a1 + n1), end, n1 * (2.0 * a1 + n1) / 16.0 - n2 / 4.0


def _phase_rate(u: float, u1: float, u2: float) -> float:
    """W to fourth order less the tau-derivative of ``_wkb``'s end term P, from u, u_tau and u_tautau."""
    p1, p2 = u1 / u, u2 / u
    return _sqrt(u) * (1.0 - (p1 * p1 + (0.25 * p2 * p2 - 35.0 / 64.0 * p1**4) / u) / (32.0 * u))


def _adiabatic_segment(spec, scales: Sequence[float], tol: float) -> tuple[float, list]:
    """The switch time t_s and each lane's transfer matrix over [0, t_s], or (0.0, []).

    A lane of drive scale S is y_tautau + u y = 0 in x = b y, tau = int dt/b^2 (b the designed Pinney
    scale), u = S omega_0^2 + (1 - S)(b^4 + b^3 b_tt) (Lewis & Riesenfeld, J. Math. Phys. 10 (1969)
    1458): S = 1 is the exact rotation at omega_0.  Its matrix is [[b, 0], [b_t, 1/b]](t_s) V(t_s) V(0)^-1,
    V = [[rho cos, rho sin], [rho_tau cos - sin/rho, rho_tau sin + cos/rho]] of ``_wkb``'s rho and phase
    Phi (its integral by Gauss-Legendre).  With R the residual of rho's W, its error is
    E = |int R / (2 sqrt(u) b^2) dt| + max |R| / u + 2^-53 int sqrt(u) / b^2 dt (trapezoids), the last
    term the rounding of Phi: without it a phase of ~1e28 rad (bare_frequency 1e-20) passed, and the
    row's eps = 0.1 cell moved by 2 % between tol 1e-8 and 1e-12.  t_s ends steps of t_f/32, halved
    down to t_f/128 where a lane's E would pass tol/10, and at most t_f/4; it is 0 for S = 1 lanes
    only, a u or W^2 not positive and finite, a matrix not finite or a first step over budget.
    """
    if all(s == 1.0 for s in scales):
        return 0.0, []
    c, t_f, budget, sqrt = spec.chi - 1.0, spec.t_final, 0.1 * tol, _sqrt
    lanes = [(s * spec.omega0_sq, 1.0 - s) for s in scales]

    def node(t):  # (t, b, b_t, each lane's (rho, rho_tau, P, E's rate, E's amplitude term, phase rate)), or None
        b, bd, (g, *dg) = _pinney_terms(t, c, t_f)
        out = []
        for a, e in lanes:
            u = a + e * g
            lane = _wkb(u, *[e * x for x in dg])
            if lane is None:
                return None
            rho, rho_t, end, r = lane
            rate = sqrt(u) / (b * b)
            out.append((rho, rho_t, end, 0.5 * r * rate / u, abs(r) / u, rate))
        return t, b, bd, out

    try:
        here = start = node(0.0)
        errs, stride = start and [(0.0, lane[4], 0.0) for lane in start[3]], _SWITCH_STRIDE * t_f
        while start is not None and stride >= _SWITCH_FINE * t_f:
            t = here[0] + stride
            there = node(t) if t <= _SWITCH_LAST * t_f else None
            if there is not None:  # each lane's integral, peak and phase; a NaN peak stays
                new = [(x + 0.5 * stride * (p[3] + q[3]), max(q[4], m), f + 0.5 * stride * (p[5] + q[5]))
                       for (x, m, f), p, q in zip(errs, here[3], there[3])]
                if all(abs(x) + m + f * 2.0**-53 <= budget for x, m, f in new):
                    here, errs = there, new
                    continue
            stride *= 0.5
        if here is start:
            return 0.0, []
        t_s, b, bd, ends = here
        # closed forms of g, D g, D^2 g: Taylor arithmetic to 3 terms took 0.55 ms more a row (2 vCPUs, Python 3.11)
        h, width = 1.0 / t_f, t_s / _PHASE_PANELS
        phases = [end[2] - end0[2] for end0, end in zip(start[3], ends)]
        for x, w in ((p + x, w * width) for p in range(_PHASE_PANELS) for x, w in _GAUSS12):
            bn, b1, b2, b3, b4 = _b_derivs(x * width * h, c)
            b1, b2, b3, b4 = b1 * h, b2 * h * h, b3 * h**3, b4 * h**4
            g = bn**3 * (bn + b2)
            g1 = bn * bn * (4.0 * bn * b1 + 3.0 * b1 * b2 + bn * b3)
            g2 = (12.0 * bn * b1 * b1 + 4.0 * bn * bn * b2 + 6.0 * b1 * b1 * b2 + 3.0 * bn * b2 * b2
                  + 6.0 * bn * b1 * b3 + bn * bn * b4) * bn
            d1, d2 = bn * bn * g1, bn**4 * g2 + 2.0 * bn**3 * b1 * g1
            for i, (a, e) in enumerate(lanes):
                phases[i] += w * _phase_rate(a + e * g, e * d1, e * d2) / (bn * bn)
    except (ArithmeticError, ValueError):  # an overflow, a negative u at a phase node
        return 0.0, []
    matrices = []
    for phi, (rho0, rho0_t, *_), (rho, rho_t, *_) in zip(phases, start[3], ends):
        cos, sin = _cos(phi), _sin(phi)
        v21, v22 = rho_t * cos - sin / rho, rho_t * sin + cos / rho
        y11, y12, y21, y22 = rho * (cos / rho0 - sin * rho0_t), rho * sin * rho0, v21 / rho0 - v22 * rho0_t, v22 * rho0
        matrices.append((b * y11, b * y12, bd * y11 + y21 / b, bd * y12 + y22 / b))
    if not all(math.isfinite(x) for m in matrices for x in m):
        return 0.0, []
    return t_s, matrices


def transfer_series(
    traj: ControlTrajectory | FrequencyProfile,
    state0: GaussianState,
    times: Sequence[float],
    tol: float = 1e-10,
) -> tuple[list[GaussianState], TransferMatrix]:
    """States at the given times (ascending, starting at state0.time), and the span's matrix.

    state0 itself comes first; the march stops at every later time, and
    its state maps state0 by the matrix there, through the one moment
    formula, with no TransferMatrix built per sample.  An IntegrationError
    -- the march's, or a sample whose moments overflowed -- carries the
    states before it, state0 first, as ``.states``.
    """
    times = [float(v) for v in times]
    if not times or not math.isclose(times[0], state0.time, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError("times must start at the state's own time")
    xx0, pp0, xp0 = state0.xx, state0.pp, state0.xp
    states = [state0]
    try:
        # strict: with no time past the first, the march is still asked for, and refuses
        for t, (m,) in zip(times[1:], _integrate_transfer(_profile(traj), times[0], times[1:], tol), strict=True):
            _, xx, pp, xp = _moment_row(m, xx0, pp0, xp0, t)
            states.append(GaussianState(xx, pp, xp, t))
    except IntegrationError as exc:
        exc.states = states
        raise
    return states, TransferMatrix(*m)


# --- auxiliary (Ermakov) equation -------------------------------------------


class ErmakovResult(Record):
    """Sampled auxiliary scale factor; last entry is the end point."""

    t: Sequence[float]  # numpy arrays, as RKResult's
    b: Sequence[float]
    b_dot: Sequence[float]

    @property
    def b_final(self) -> float:
        return float(self.b[-1])

    @property
    def b_dot_final(self) -> float:
        return float(self.b_dot[-1])


def solve_ermakov_forward(
    traj: ControlTrajectory | FrequencyProfile,
    b0: float,
    bdot0: float,
    omega0_sq: float,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    t_eval: Sequence[float] | None = None,
) -> ErmakovResult:
    """Integrate b'' + w(t) b = omega0_sq / b^3 forward from (b0, bdot0).

    Aborts with IntegrationError if b approaches the b = 0 singularity
    (within 1e-6).
    """
    if not b0 > 0.0:
        raise ValueError(f"b0 must be positive, got {b0!r}")
    w = _profile(traj)

    def rhs(t, y):
        b, bd = y
        return (bd, omega0_sq / (b * b * b) - w(t) * b)

    def guard(t, y):
        if y[0] < 1e-6:
            raise IntegrationError(f"auxiliary scale factor b = {y[0]:.3e} hit the singularity", t)

    result: RKResult = solve_rk(
        rhs, t0, (b0, bdot0), t1, rtol=tol, atol=tol, t_eval=t_eval, guard=guard
    )
    return ErmakovResult(result.t, result.y[:, 0].copy(), result.y[:, 1].copy())

