"""Inverse-engineered bias ramps that preserve the oscillator occupation.

The ramp is built around the Ermakov auxiliary equation

    b'' + omega_eff^2(t) b = omega_0^2 / b^3 ,

whose solution b(t) sets the width of the dynamically invariant mode.
Choosing b as the quintic "smoothstep" that goes from b=1 (oscillator
locked to the initial frequency omega_0) to b=chi with vanishing first
and second derivatives at both ends makes the invariant coincide with
the Hamiltonian at the endpoints, so a state that starts thermal at
omega_0 arrives thermal at the target frequency with the same mean
occupation.  Solving the Ermakov equation for omega_eff^2 and mapping
through omega_eff^2 = omega_m^2 (1 + eta f) yields the gate drive f(t).

Everything here is closed form; all quantities are in reduced units
(time in 1/omega_m, squared frequencies in omega_m^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .physical import PhysicalParams


class DesignError(ValueError):
    """Trajectory request outside the designable domain."""


@dataclass(frozen=True)
class TrajectorySpec:
    """Boundary data of one ramp, in reduced units.

    chi, the end point of the scale factor b, is derived on construction
    from the frequency ratio: chi^4 = omega0_sq / omega_final_sq.
    """

    omega0_sq: float
    omega_final_sq: float
    t_final: float
    chi: float = field(init=False)

    def __post_init__(self) -> None:
        # finite here also catches an eta that overflows from finite device inputs
        if not (0.0 < self.omega0_sq < math.inf and 0.0 < self.omega_final_sq < math.inf):
            raise DesignError(
                "boundary frequencies squared must be positive and finite, got "
                f"{self.omega0_sq!r} and {self.omega_final_sq!r}"
            )
        chi = (self.omega0_sq / self.omega_final_sq) ** 0.25
        object.__setattr__(self, "chi", chi)
        if not self.t_final > 0.0:
            raise DesignError(f"t_final must be positive, got {self.t_final!r}")
        tf_sq = self.t_final * self.t_final
        if not math.isfinite(tf_sq):
            raise DesignError(f"t_final = {self.t_final!r} is too long: t_final^2 overflows")
        # |b^3 b''| in the drive stays below 60 |chi - 1| max(chi, 1)^3 / t_final^2
        b_max = max(chi, 1.0)
        b3_d2_bound = 60.0 * abs(chi - 1.0) * b_max * b_max * b_max
        if not (tf_sq > 0.0 and math.isfinite(b3_d2_bound / tf_sq)):
            raise DesignError(f"t_final = {self.t_final!r} is too short: the drive overflows")


@dataclass(frozen=True)
class ControlTrajectory:
    """A designed gate drive f(t) for a device with coupling eta.

    f_scale multiplies the nominal drive; it is 1 for as-designed ramps
    and 1 + epsilon for the perturbed ramps of the robustness study, in
    which case the boundary metadata in ``spec`` is nominal only.
    """

    spec: TrajectorySpec
    eta: float
    f_scale: float = 1.0

    @property
    def t_final(self) -> float:
        return self.spec.t_final

    def omega_eff_sq(self, t):
        return effective_frequency_profile(self, t)

    def frequency_sq_fn(self) -> Callable[[float], float]:
        """omega_eff^2(t) closure for the integrators: the drive kernel itself."""
        return _drive(self, self.eta * self.f_scale, 1.0)


def b_polynomial(s, chi: float):
    """Quintic scale-factor profile and its first two derivatives in s = t/t_f.

    b(s) = 6(chi-1)s^5 - 15(chi-1)s^4 + 10(chi-1)s^3 + 1 interpolates
    b(0)=1 to b(1)=chi with b' = b'' = 0 at both ends.  Derivatives are
    with respect to s; divide by t_f and t_f^2 for time derivatives.
    A scalar s gives three floats, an array three arrays and any other
    sequence three lists (see ``_elementwise``); s must lie in [0, 1].
    """
    c = chi - 1.0

    def terms(s):
        outside = (s < 0.0) | (s > 1.0)
        if (outside.any() if hasattr(outside, "any") else outside):  # an array or a bool
            raise DesignError("s must lie in [0, 1]")
        b = ((6.0 * c * s - 15.0 * c) * s + 10.0 * c) * s * s * s + 1.0
        db = 30.0 * c * (s * s) * ((s - 1.0) * (s - 1.0))
        d2b = 60.0 * c * s * (2.0 * s - 1.0) * (s - 1.0)
        return b, db, d2b

    result = _elementwise(terms, s)
    if isinstance(result, list):  # one triple per item -> three lists
        return tuple(map(list, zip(*result))) if result else ([], [], [])
    return result


def linspace(start: float, stop: float, n: int) -> list[float]:
    """n evenly spaced floats from start to stop inclusive: np.linspace, bit for bit.

    The same operations in the same order as numpy: i * step + start,
    with the last value set to stop; a step that underflows to zero is
    replaced by (i / (n - 1)) * (stop - start), and n = 1 gives
    0 * (stop - start) + start.
    """
    if n < 0:
        raise ValueError(f"number of samples must be non-negative, got {n}")
    start, stop = float(start), float(stop)
    delta = stop - start
    div = n - 1
    if div <= 0:
        return [i * delta + start for i in range(n)]
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(n)]
    else:
        values = [i * step + start for i in range(n)]
    values[-1] = stop
    return values


def signed_sqrt(w: float) -> float:
    """sign(w) sqrt(|w|): the signed frequency of a squared frequency.

    Both zeros give 0.0, as np.sign(w) * np.sqrt(np.abs(w)) does.
    """
    return math.copysign(math.sqrt(abs(w)), w) if w else 0.0


def make_spec(params: PhysicalParams, t_final: float) -> TrajectorySpec:
    """Ramp boundary data for the full protocol: start at full bias, end bare.

    With f = 1 at the start the squared start frequency is 1 + eta (in
    omega_m^2), and the target is the bare frequency, omega_final_sq = 1.
    """
    eta = params.eta
    if eta <= -1.0:
        raise DesignError(f"eta = {eta:.6g} <= -1: start frequency would not be real")
    return TrajectorySpec(1.0 + eta, 1.0, t_final)


def make_trajectory(params: PhysicalParams, t_final: float) -> ControlTrajectory:
    """Designed drive for the full cooling ramp of a given device."""
    return ControlTrajectory(make_spec(params, t_final), params.eta)


def _drive_constants(traj: ControlTrajectory) -> tuple[float, ...]:
    """(t_f, t_f^2, 6c, 15c, 10c, 60c, omega_0^2, eta) with c = chi - 1.

    The hoisted constants of the drive's closed form, for ``_drive`` and
    ``validate_trajectory``; the products keep the formula's left-to-right
    order, so the bits are unchanged.  eta = 0 has no drive.
    """
    eta = traj.eta
    if eta == 0.0:
        raise DesignError("eta = 0: the gate drive has no effect, inverse design undefined")
    c = traj.spec.chi - 1.0
    t_f = traj.spec.t_final
    return t_f, t_f * t_f, 6.0 * c, 15.0 * c, 10.0 * c, 60.0 * c, traj.spec.omega0_sq, eta


def _drive(traj: ControlTrajectory, gain: float, offset: float):
    """The one closed form of the drive: t -> offset + gain * f0(t).

    f0 = (omega_0^2 - b^3 b'' - omega_m^2 b^4) / (eta b^4 omega_m^2) is the
    nominal drive from the quintic b (omega_m^2 = 1 in reduced units).
    The closure takes one time; plain float arithmetic, so a numpy array
    of times works too and gives, element by element, the scalar calls'
    bits.  ``validate_trajectory`` runs the same operations in a loop.
    """
    t_f, tf_sq, c6, c15, c10, c60, om0sq, eta = _drive_constants(traj)

    def drive(t):
        s = t / t_f
        b = ((c6 * s - c15) * s + c10) * s * s * s + 1.0
        d2 = c60 * s * (2.0 * s - 1.0) * (s - 1.0) / tf_sq
        b2 = b * b
        b4 = b2 * b2
        return offset + gain * ((om0sq - b2 * b * d2 - b4) / (eta * b4))

    return drive


def _elementwise(fn, x):
    """fn over a scalar, an array or a sequence, with the scalar call's bits per element.

    A scalar (a 0-d array too) gives fn(float(x)); an array -- anything
    with a nonzero ``ndim``, as numpy arrays have -- goes through fn's
    arithmetic at once, as float64; any other iterable gives a list of
    fn(item).  Nothing here imports numpy.
    """
    ndim = getattr(x, "ndim", None)
    if ndim:
        return fn(x.astype(float))
    if ndim == 0 or not hasattr(x, "__iter__"):
        return fn(float(x))
    return list(map(fn, x))


def control_function(traj: ControlTrajectory, t):
    """Gate drive f(t) for a scalar, array or sequence t; f_scale multiplies f0."""
    return _elementwise(_drive(traj, traj.f_scale, 0.0), t)


def effective_frequency_profile(traj: ControlTrajectory, t):
    """Squared effective frequency 1 + eta f(t), in omega_m^2 units.

    For the unperturbed ramp this equals omega_0^2/b^4 - b''/b by the
    Ermakov equation; both forms agree to rounding.
    """
    return _elementwise(_drive(traj, traj.eta * traj.f_scale, 1.0), t)


@dataclass(frozen=True)
class TrajectoryValidation:
    """Closed-form sampling report for one trajectory."""

    n_samples: int
    max_abs_f: float  # over all samples, endpoints included
    max_abs_f_interior: float
    f_within_unit: bool  # |f| <= 1 at interior samples
    negative_omega_sq_windows: tuple[tuple[float, float], ...]
    boundary_residual_start: float  # |f(0) - f_scale|
    boundary_residual_end: float  # |f(t_f)|


def validate_trajectory(traj: ControlTrajectory, n_samples: int = 2001) -> TrajectoryValidation:
    """Sample the closed-form drive and report amplitude and sign diagnostics.

    Report-only: the drive may legitimately exceed |f| = 1 or push
    omega_eff^2 negative for aggressive ramp times; callers decide what
    to do with that.  Window edges are sample-resolution estimates.

    One pass evaluates the nominal drive f0 once per sample; f and
    omega_eff^2 are the kernel's last two operations on it, 0 + f_scale f0
    and 1 + eta f_scale f0.  Rounding is monotone, so on finite samples
    |f| peaks where |f0| does and omega_eff^2 bottoms out at the extreme
    of f0 that the sign of eta f_scale picks: min/max of f0 give both, and
    the windows are scanned only when that minimum is negative.  A NaN
    anywhere makes the extremes NaN, as np.max does.
    """
    if n_samples < 2:
        raise DesignError("n_samples must be at least 2")
    t = linspace(0.0, traj.t_final, n_samples)
    t_f, tf_sq, c6, c15, c10, c60, om0sq, eta = _drive_constants(traj)
    f0 = []
    for ti in t:  # _drive's f0, inlined: a closure call per sample costs a quarter more
        s = ti / t_f
        b = ((c6 * s - c15) * s + c10) * s * s * s + 1.0
        d2 = c60 * s * (2.0 * s - 1.0) * (s - 1.0) / tf_sq
        b2 = b * b
        b4 = b2 * b2
        f0.append((om0sq - b2 * b * d2 - b4) / (eta * b4))
    gain = traj.f_scale
    k = eta * gain
    inner = f0[1:-1]
    if math.isfinite(sum(f0)) and math.isfinite(k):
        lo, hi = (min(inner), max(inner)) if inner else (0.0, 0.0)
        peak = abs(gain * (hi if abs(hi) >= abs(lo) else lo))
        extreme = min(lo, f0[0], f0[-1]) if k > 0.0 else max(hi, f0[0], f0[-1])
        scan = 1.0 + k * extreme < 0.0
    else:
        peak = _nan_max([abs(0.0 + gain * v) for v in inner]) if inner else 0.0
        scan = True
    windows = []
    if scan:  # runs of omega_eff^2 < 0, as (first, last) sample times
        first = None
        for ti, v in zip(t, f0):
            if 1.0 + k * v < 0.0:
                if first is None:
                    first = ti
                last = ti
            elif first is not None:
                windows.append((first, last))
                first = None
        if first is not None:
            windows.append((first, last))

    f_start, f_end = 0.0 + gain * f0[0], 0.0 + gain * f0[-1]
    return TrajectoryValidation(
        n_samples=n_samples,
        max_abs_f=_nan_max([peak, abs(f_start), abs(f_end)]),
        max_abs_f_interior=peak,
        f_within_unit=peak <= 1.0,
        negative_omega_sq_windows=tuple(windows),
        boundary_residual_start=abs(f_start - gain),
        boundary_residual_end=abs(f_end),
    )


def _nan_max(values: list[float]) -> float:
    """max(values), or NaN if any value is NaN, as np.max."""
    return max(values) if all(v == v for v in values) else math.nan
