"""Occupation numbers and effective temperatures of the resonator.

For thermal states the mean occupation is the Bose factor
nbar = 1/(exp(hbar omega / kB T) - 1); for the non-stationary Gaussian
states produced mid-ramp it is extended energetically as
nbar = E/(hbar omega_ref) - 1/2, which coincides with the Bose form on
thermal states.  The effective temperature inverts the Bose factor at a
chosen reference frequency.

SI in, SI out for the frequency/temperature functions; the state-based
functions live in reduced units like the states themselves.
"""

from __future__ import annotations

import math
import sys
import warnings

from .constants import BOLTZMANN, HBAR


class ThermometryError(ValueError):
    """Occupation or temperature request outside the physical domain."""


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose occupation 1/(exp(hbar omega / kB T) - 1); omega in rad/s, T in K.

    An occupation beyond the float range is a ThermometryError.
    """
    if not omega > 0.0:
        raise ThermometryError(f"omega must be positive, got {omega!r}")
    if not temperature > 0.0:
        raise ThermometryError(f"temperature must be positive, got {temperature!r}")
    kt = BOLTZMANN * temperature
    if kt == 0.0:  # k_B T underflowed: the T -> 0 limit
        return 0.0
    x = HBAR * omega / kt
    if x > 700.0:  # expm1 would overflow; occupation is exp(-x) to full precision
        return math.exp(-x)
    n_bar = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    if not n_bar < math.inf:  # x underflowed to 0 or is subnormal: the T -> inf limit
        raise ThermometryError(f"occupation at hbar omega / kB T = {x!r} leaves the float range")
    return n_bar


def effective_temperature(omega: float, n_bar: float) -> float:
    """Temperature at which a thermal state at ``omega`` has occupation ``n_bar``.

    T = hbar omega / (kB ln(1 + 1/nbar)).  By convention n_bar = 0 maps
    to T = 0 (the inversion limit), not an error.  Beyond n_bar ~ 6e284
    the denominator leaves the normal float range (it is 0 past ~3e300),
    so there T = hbar omega nbar / kB, which ln(1 + 1/nbar) = 1/nbar
    makes exact to rounding.
    """
    if not omega > 0.0:
        raise ThermometryError(f"omega must be positive, got {omega!r}")
    if n_bar < 0.0:
        raise ThermometryError(f"n_bar must be non-negative, got {n_bar!r}")
    if n_bar == 0.0:
        return 0.0
    denominator = BOLTZMANN * math.log1p(1.0 / n_bar)
    if denominator < sys.float_info.min:
        return HBAR * omega * n_bar / BOLTZMANN
    return HBAR * omega / denominator


def occupation(xx: float, pp: float, ref_omega_sq: float, *, stacklevel: int = 2) -> float:
    """Energy-referenced occupation E/omega_ref - 1/2 of moments xx, pp; reduced units.

    E = pp/2 + omega_ref^2 xx / 2 (the mass is 1 in reduced units).  Tiny
    negative results (above -1e-9) are rounding on a ground state and
    clamp silently to 0; anything more negative clamps with a warning.
    Moments whose energy overflows give inf, which callers treat as a
    failed propagation.  ``stacklevel`` is the warning's, so a wrapper
    can point it at its own caller.
    """
    if not ref_omega_sq > 0.0:
        raise ThermometryError(f"ref_omega_sq must be positive, got {ref_omega_sq!r}")
    omega_ref = math.sqrt(ref_omega_sq)
    energy = 0.5 * (pp + ref_omega_sq * xx)
    n_bar = energy / omega_ref - 0.5
    if n_bar < 0.0:
        if n_bar < -1e-9:
            warnings.warn(
                f"occupation {n_bar:.3e} below the rounding budget; clamping to 0",
                stacklevel=stacklevel,
            )
        return 0.0
    return n_bar


def occupation_from_state(state: "GaussianState", ref_omega_sq: float) -> float:
    """``occupation`` of a state's moments."""
    return occupation(state.xx, state.pp, ref_omega_sq, stacklevel=3)


def state_frequency(state: "GaussianState") -> float:
    """Squared frequency pp/xx a stationary thermal state would have.

    Matches omega^2 for a thermal state at omega; for squeezed states it
    is one possible frequency assignment among several (reported, never
    asserted against, in the perturbation study).
    """
    return state.pp / state.xx
