"""Independent oracles and test-only helpers for the package.

The oracles share no integration code with the product paths: the
covariance ODE, the forward Ermakov equation, a sampled numpy scan of
the trajectory validation, the two-electrode Coulomb model behind eta,
and the Lewis-Riesenfeld invariant.  They are the only users of numpy
and scipy, which is why they live with the tests: importing biascool
loads neither.  ``simulate_rows`` builds simulate's rows from the
library's functions, one call per formula and sample, as the command
did before its single pass inlined them.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from biascool import dynamics, thermometry
from biascool.config import _KEYS, RunConfig
from biascool.design import (
    ControlTrajectory,
    DesignError,
    TrajectorySpec,
    TrajectoryValidation,
    _quintic,
    control_function,
    effective_frequency_profile,
    make_trajectory,
)
from biascool.dynamics import FrequencyProfile, GaussianState, IntegrationError, TransferMatrix, thermal_state
from biascool.physical import ParameterError, PhysicalParams


def as_array(m: TransferMatrix) -> np.ndarray:
    """The transfer matrix as a 2x2 array."""
    return np.array([[m.m11, m.m12], [m.m21, m.m22]])


def serialize_config(cfg: RunConfig) -> str:
    """Canonical config text in base SI units; parses back to the same config."""
    lines = [f"{name} = {getattr(cfg.physical, name)!r}" for name in PhysicalParams._fields]
    for key, (section, name, _) in _KEYS.items():
        value = getattr(getattr(cfg, section), name)
        lines.append(f"{key} = {', '.join(map(repr, value)) if isinstance(value, tuple) else value}")
    return "\n".join(lines) + "\n"


def coulomb_potential_exact(params: PhysicalParams, f: float, x: float) -> float:
    """Two-electrode electrostatic energy k C0 U0 f Q (1/(d+x) + 1/(d-x)), in J.

    Valid only while the beam stays between the electrodes (|x| < d).
    """
    d = params.separation
    if not abs(x) < d:
        raise ParameterError(f"|x| = {abs(x):.6e} m must be below the separation {d:.6e} m")
    scale = params.coulomb_k * params.capacitance * params.voltage_amplitude * f
    return scale * params.resonator_charge * (1.0 / (d + x) + 1.0 / (d - x))


def coulomb_potential_quadratic(params: PhysicalParams, f: float, x: float) -> float:
    """Harmonic part 2 k C0 U0 Q f x^2 / d^3 of the electrode potential, in J.

    The x-independent offset 2 k C0 U0 Q f / d is dropped: it commutes with
    x and p and never feeds back on the motion, so energies from this
    function are relative to it.
    """
    scale = 2.0 * params.coulomb_k * params.capacitance * params.voltage_amplitude
    return scale * params.resonator_charge * f * x * x / params.separation**3


def effective_frequency_sq(params: PhysicalParams, f: float) -> float:
    """Signed squared effective frequency omega_m^2 (1 + eta f), in rad^2/s^2.

    Negative values (inverted potential, transiently imaginary frequency)
    are legitimate outputs and are handled by the propagators downstream.
    """
    return params.bare_frequency**2 * (1.0 + params.eta * f)


def invariant_expectation(state: GaussianState, omega0_sq: float, b: float, b_dot: float) -> float:
    """Expectation of the quadratic dynamical invariant for the given scale factor.

    <I> = (omega0^2/2) xx/b^2 + (1/2)(b^2 pp - 2 b b' xp + b'^2 xx) in
    reduced units; constant along a trajectory designed with that b(t).
    """
    return 0.5 * (
        omega0_sq * state.xx / (b * b)
        + b * b * state.pp
        - 2.0 * b * b_dot * state.xp
        + b_dot * b_dot * state.xx
    )


def validate_trajectory_numpy(traj: ControlTrajectory, n_samples: int = 2001) -> TrajectoryValidation:
    """A sampled ``design.validate_trajectory``: numpy array operations on n_samples times.

    Evaluates f and omega_eff^2 as two array calls of the drive kernel on
    np.linspace times and reduces them with numpy; window edges are sample
    times.  The package's exact report must contain it: every negative
    sample inside an exact window, a sup at least the sampled maximum.
    """
    if n_samples < 2:
        raise DesignError("n_samples must be at least 2")
    t = np.linspace(0.0, traj.t_final, n_samples)
    f = control_function(traj, t)
    w = effective_frequency_profile(traj, t)

    # runs of w < 0: a window starts at each rising edge of the padded
    # mask and ends one sample before the next falling edge
    neg = np.concatenate(([False], w < 0.0, [False]))
    edges = np.flatnonzero(neg[1:] != neg[:-1])
    windows = tuple(zip(t[edges[::2]].tolist(), t[edges[1::2] - 1].tolist()))

    interior = slice(1, -1)
    return TrajectoryValidation(
        max_abs_f=float(np.max(np.abs(f))),
        f_within_unit=bool(np.all(np.abs(f[interior]) <= 1.0)) if n_samples > 2 else True,
        negative_omega_sq_windows=windows,
        boundary_residual_start=float(abs(f[0] - traj.f_scale)),
        boundary_residual_end=float(abs(f[-1])),
    )


def ermakov_end_point(
    traj: ControlTrajectory | FrequencyProfile, omega0_sq: float, t1: float, tol: float = 1e-12
) -> float:
    """Independent oracle: b(t1) of b'' + w(t) b = omega0_sq / b^3 from b(0) = 1, b'(0) = 0.

    scipy's DOP853 at rtol = atol = tol; it shares no code with the
    transfer march, whose matrix gives the sweep's closed-form (Pinney)
    end point, nor with the package's RK solver.
    """
    w = dynamics._profile(traj)

    def rhs(t, y):
        b, b_dot = y
        return (b_dot, omega0_sq / (b * b * b) - w(t) * b)

    sol = solve_ivp(rhs, (0.0, t1), (1.0, 0.0), method="DOP853", rtol=tol, atol=tol)
    if not sol.success:
        raise IntegrationError(f"Ermakov ODE failed: {sol.message}", float(sol.t[-1]))
    return float(sol.y[0, -1])


def propagate_covariance_ode(
    traj: ControlTrajectory | FrequencyProfile,
    state0: GaussianState,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    t_eval: Sequence[float] | None = None,
) -> GaussianState | list[GaussianState]:
    """Independent oracle: integrate d/dt (xx, xp, pp) = (2 xp, pp - w xx, -2 w xp).

    Returns the final state, or the states at ``t_eval`` when given.
    Sampling integrates segment by segment so every sample carries full
    marching accuracy (the dense-output interpolant would not).
    Structurally disjoint from the transfer path: different equations,
    different integrator.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    w = dynamics._profile(traj)

    def rhs(t, y):
        xx, xp, pp = y
        wt = w(t)
        return (2.0 * xp, pp - wt * xx, -2.0 * wt * xp)

    # atol = tol times the start's smallest moment, so that tol bounds the
    # error of every moment (on a designed ramp pp falls ~3437x); atol = 0
    # diverges, because xp starts at 0
    scale = min(state0.xx, state0.pp)

    def march(y, a, b):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=tol, atol=tol * scale)
        if not sol.success:
            raise IntegrationError(f"covariance ODE failed: {sol.message}", float(sol.t[-1]))
        return tuple(float(v) for v in sol.y[:, -1])

    if t_eval is None:
        xx, xp, pp = march((state0.xx, state0.xp, state0.pp), t0, t1)
        return GaussianState(xx=xx, pp=pp, xp=xp, time=t1)

    states = []
    y = (state0.xx, state0.xp, state0.pp)
    t_prev = t0
    for t in t_eval:
        t = float(t)
        if not t > t_prev:
            raise ValueError("t_eval must be strictly ascending and start after t0")
        y = march(y, t_prev, t)
        states.append(GaussianState(xx=y[0], pp=y[2], xp=y[1], time=t))
        t_prev = t
    return states


def invariant_moments(spec: TrajectorySpec, times, e: float) -> Iterator[tuple[float, float, float, float]]:
    """Exact rows (t, xx, pp, xp) of the designed ramp from a thermal start at omega_0.

    The Lewis-Riesenfeld invariant fixes the state: with e = nbar + 1/2 at
    omega_0, xx = e b^2/omega_0, xp = e b b'/omega_0 and pp = e (b'^2 +
    omega_0^2/b^2)/omega_0, where b is the quintic and b' = b_s/t_f (Lewis &
    Riesenfeld, J. Math. Phys. 10 (1969) 1458; Chen et al., PRL 104 (2010)
    063002).  Only the nominal drive has this b, hence the nominal spec.
    b and b_s have ``b_polynomial``'s bits; the times are checked once, not one by one.
    ``cli._ramp_blocks`` inlines these formulas, and ``simulate_rows`` calls them.
    """
    t_f, c, omega0_sq = spec.t_final, spec.chi - 1.0, spec.omega0_sq
    scale = e / math.sqrt(omega0_sq)
    s_values = [t / t_f for t in times]
    if s_values and (min(s_values) < 0.0 or max(s_values) > 1.0):
        raise DesignError("s must lie in [0, 1]")
    for t, s in zip(times, s_values):
        b, b_s = _quintic(s, c)
        b_dot = b_s / t_f
        yield t, scale * b * b, scale * (b_dot * b_dot + omega0_sq / (b * b)), scale * b * b_dot


def simulate_rows(cfg: RunConfig, t_final: float, times: Sequence[float]) -> tuple[list[tuple], str | None]:
    """Rows (t, n_bar_ref_omega_eff, n_bar_ref_omega_m, t_eff, xx, pp, xp, purity) of a ramp at ``times``.

    The moments come from ``invariant_moments``, the reference frequency
    from ``omega_eff_sq`` and the occupations and T_eff from ``thermometry``,
    one call each per sample; no occupation or temperature in an
    inverted-potential window (nan).  The purity is (nbar + 1/2)^2 of the
    thermal start.  A purity or an occupation that overflowed ends the
    rows: those before it come back with the ``IntegrationError``'s text.
    """
    params = cfg.physical
    traj = make_trajectory(params, t_final)
    omega0_sq, bath = traj.spec.omega0_sq, params.bath_temperature
    thermal_state(params, omega0_sq, bath)  # a config error past the float range
    e = thermometry.thermal_occupation(math.sqrt(omega0_sq) * params.bare_frequency, bath) + 0.5
    purity = e * e
    if purity == math.inf:
        return [], str(IntegrationError("purity (n_bar + 1/2)^2 overflowed", 0.0))
    w_refs = traj.omega_eff_sq(np.asarray(times, dtype=float)).tolist()
    rows = []
    for (t, xx, pp, xp), w_ref in zip(invariant_moments(traj.spec, times, e), w_refs):
        n_inst = thermometry.occupation(xx, pp, w_ref) if w_ref > 0.0 else math.nan
        n_bare = thermometry.occupation(xx, pp, 1.0)
        if n_inst == math.inf or n_bare == math.inf:
            return rows, str(IntegrationError("occupation overflowed", t))
        t_eff = math.nan
        if w_ref > 0.0:
            t_eff = thermometry.effective_temperature(math.sqrt(w_ref) * params.bare_frequency, n_inst)
        rows.append((t, n_inst, n_bare, t_eff, xx, pp, xp, purity))
    return rows, None
