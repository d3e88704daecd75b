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
from collections.abc import Callable
from functools import cached_property, lru_cache

from .physical import PhysicalParams
from .records import Record


class DesignError(ValueError):
    """Trajectory request outside the designable domain."""


class TrajectorySpec(Record):
    """Boundary data of one ramp, in reduced units."""

    omega0_sq: float
    omega_final_sq: float
    t_final: float

    def __post_init__(self) -> None:
        # finite here also catches an eta that overflows from finite device inputs
        if not (0.0 < self.omega0_sq < math.inf and 0.0 < self.omega_final_sq < math.inf):
            raise DesignError(
                "boundary frequencies squared must be positive and finite, got "
                f"{self.omega0_sq!r} and {self.omega_final_sq!r}"
            )
        if not self.t_final > 0.0:
            raise DesignError(f"t_final must be positive, got {self.t_final!r}")
        tf_sq = self.t_final * self.t_final
        if not math.isfinite(tf_sq):
            raise DesignError(f"t_final = {self.t_final!r} is too long: t_final^2 overflows")
        # |b^3 b''| in the drive stays below 60 |chi - 1| max(chi, 1)^3 / t_final^2
        chi = self.chi
        b_max = max(chi, 1.0)
        b3_d2_bound = 60.0 * abs(chi - 1.0) * b_max * b_max * b_max
        if not (tf_sq > 0.0 and math.isfinite(b3_d2_bound / tf_sq)):
            raise DesignError(f"t_final = {self.t_final!r} is too short: the drive overflows")

    @cached_property
    def chi(self) -> float:
        """The end point of the scale factor b: chi^4 = omega0_sq / omega_final_sq."""
        return (self.omega0_sq / self.omega_final_sq) ** 0.25


class ControlTrajectory(Record):
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
    A float s gives three floats and an array three arrays, with the
    float's bits per element; s must lie in [0, 1].
    """
    c = chi - 1.0
    outside = (s < 0.0) | (s > 1.0)
    if (outside.any() if hasattr(outside, "any") else outside):  # an array or a bool
        raise DesignError("s must lie in [0, 1]")
    return (*_quintic(s, c), 60.0 * c * s * (2.0 * s - 1.0) * (s - 1.0))


def _quintic(s, c: float):
    """b and b_s of the quintic at s, for c = chi - 1; float or array arithmetic alike."""
    u = s - 1.0
    return ((6.0 * c * s - 15.0 * c) * s + 10.0 * c) * s * s * s + 1.0, 30.0 * c * (s * s) * (u * u)


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


def _drive(traj: ControlTrajectory, gain: float, offset: float):
    """The one closed form of the drive: t -> offset + gain * f0(t).

    f0 = (omega_0^2 - b^3 b'' - omega_m^2 b^4) / (eta b^4 omega_m^2) is the
    nominal drive from the quintic b (omega_m^2 = 1 in reduced units);
    eta = 0 has no drive.  The closure takes one time; plain float
    arithmetic, so a numpy array of times works too and gives, element by
    element, the scalar calls' bits.
    """
    eta, om0sq, t_f, tf_sq, c6, c15, c10, c60 = _drive_terms(traj)

    def drive(t):
        s = t / t_f
        b = ((c6 * s - c15) * s + c10) * s * s * s + 1.0
        d2 = c60 * s * (2.0 * s - 1.0) * (s - 1.0) / tf_sq
        b2 = b * b
        b4 = b2 * b2
        return offset + gain * ((om0sq - b2 * b * d2 - b4) / (eta * b4))

    return drive


def _drive_terms(traj: ControlTrajectory) -> tuple[float, ...]:
    """``_drive``'s constants (eta, omega_0^2, t_f, t_f^2, 6c, 15c, 10c, 60c), c = chi - 1."""
    eta, c, t_f = traj.eta, traj.spec.chi - 1.0, traj.spec.t_final
    if eta == 0.0:
        raise DesignError("eta = 0: the gate drive has no effect, inverse design undefined")
    return eta, traj.spec.omega0_sq, t_f, t_f * t_f, 6.0 * c, 15.0 * c, 10.0 * c, 60.0 * c


def control_function(traj: ControlTrajectory, t):
    """Gate drive f(t) for a float or an array t; f_scale multiplies f0."""
    return _drive(traj, traj.f_scale, 0.0)(t)


def effective_frequency_profile(traj: ControlTrajectory, t):
    """Squared effective frequency 1 + eta f(t), in omega_m^2 units.

    For the unperturbed ramp this equals omega_0^2/b^4 - b''/b by the
    Ermakov equation; both forms agree to rounding.
    """
    return _drive(traj, traj.eta * traj.f_scale, 1.0)(t)


class TrajectoryValidation(Record):
    """Exact amplitude and sign report for one trajectory."""

    max_abs_f: float  # sup of |f| over [0, t_f]
    f_within_unit: bool  # |f| <= 1 throughout
    negative_omega_sq_windows: tuple[tuple[float, float], ...]  # (start, end) times
    boundary_residual_start: float  # |f(0) - f_scale|
    boundary_residual_end: float  # |f(t_f)|


def validate_trajectory(traj: ControlTrajectory, n_samples: object = None) -> TrajectoryValidation:
    """The drive's amplitude and sign diagnostics, exact, from its polynomials.

    Report-only; n_samples (a scan's size once) is ignored.  With s = t/t_f, g = f_scale:
    df/ds = -g R / (eta t_f^2 b^5), so |f| peaks at an end or a root of R (kernel values
    there), and omega_eff^2 = W / (t_f^2 b^4), W = (1-g) t_f^2 b^4 + g (omega_0^2 t_f^2 -
    b^3 b_ss), is monotone between those roots: each piece brackets one root of W at most.
    """
    f = _drive(traj, traj.f_scale, 0.0)
    c, g, t_f, om0sq = traj.spec.chi - 1.0, traj.f_scale, traj.spec.t_final, traj.spec.omega0_sq
    w_b4, w_p = (1.0 - g, g) if not math.isinf(g) else (-1.0, 1.0) if g > 0 else (1.0, -1.0)  # W/|g|

    def w_pair(s):
        b, b1, b2, b3, _ = _b_derivs(s, c)
        b_cube, tf_sq = b * b * b, t_f * t_f
        w = w_b4 * tf_sq * b_cube * b + w_p * (om0sq * tf_sq - b_cube * b2)
        return w, 4.0 * w_b4 * tf_sq * b_cube * b1 - w_p * (3.0 * b * b * b1 * b2 + b_cube * b3)

    turns = _drive_turns(traj.spec)
    ends = [0.0, *turns, 1.0]
    negative = [w_pair(s)[0] < 0.0 for s in ends]
    pieces = zip(ends, ends[1:], negative, negative[1:])
    edges = [0.0] * negative[0] + [_polish(w_pair, lo, hi, a) for lo, hi, a, b in pieces if a != b]
    edges = [s * t_f for s in edges + [1.0] * negative[-1]]
    f_start, f_end = f(0.0), f(t_f)
    peak = _nan_max([abs(f_start), abs(f_end), *(abs(f(s * t_f)) for s in turns)])
    windows = tuple(zip(edges[::2], edges[1::2]))
    return TrajectoryValidation(peak, peak <= 1.0, windows, abs(f_start - g), abs(f_end))


def _drive_turns(spec: TrajectorySpec) -> list[float]:
    """Where the drive turns: the roots of R = 4 omega_0^2 t_f^2 b_s + b^4 b_sss - b^3 b_ss b_s,
    found on R 2^(5e) (see ``_r_terms``): exact, so in-range ramps keep every bit."""
    head, bs, e = _r_terms(spec.chi)
    c, unit = math.ldexp(spec.chi - 1.0, e), math.ldexp(1.0, e)
    k = 4.0 * math.ldexp(spec.omega0_sq, 4 * e) * spec.t_final * spec.t_final

    def pair(s):
        b, b1, b2, b3, b4 = _b_derivs(s, c, unit)
        b_cube = b * b * b
        r = k * b1 + b_cube * (b * b3 - b2 * b1)
        return r, k * b2 + b_cube * (3.0 * b1 * b3 + b * b4 - b2 * b2) - 3.0 * b * b * b1 * b1 * b2

    return _roots([x + k * y if y else x for x, y in zip(head, bs)], pair)


def shortest_ramp(spec: TrajectorySpec) -> float:
    """t_f* = sqrt(max_s b^3 b_ss / omega_0^2) in 1/omega_m, the shortest nominal ramp
    with omega_eff^2 >= 0 throughout: omega_eff^2 < 0 exactly where omega_0^2 t_f^2 <
    b^3 b_ss, which peaks at an end or where 3 b_s b_ss + b b_sss = 0."""
    c, (b, bs, bss, bsss) = spec.chi - 1.0, _bernstein_b(spec.chi)

    def pair(s):
        b, b1, b2, b3, b4 = _b_derivs(s, c)
        return 3.0 * b1 * b2 + b * b3, 3.0 * b2 * b2 + 4.0 * b1 * b3 + b * b4

    turns = _roots([3.0 * x + y for x, y in zip(_conv(bs, bss), _conv(b, bsss))], pair)
    peak = _nan_max([0.0, *(b * b * b * b2 for b, _, b2, _, _ in (_b_derivs(s, c) for s in turns))])
    return math.sqrt(peak / spec.omega0_sq)


def _b_derivs(s: float, c: float, one: float = 1.0) -> tuple[float, float, float, float, float]:
    """b and its first four s-derivatives at s, for c = chi - 1; all times ``one`` if c is too."""
    u, v = s - 1.0, 2.0 * s - 1.0
    b = ((6.0 * s - 15.0) * s + 10.0) * s * s * s * c + one
    return b, 30.0 * c * s * s * u * u, 60.0 * c * s * v * u, 60.0 * c * (6.0 * s * u + 1.0), 360.0 * c * v


def _bernstein_b(chi: float) -> tuple[list[float], ...]:
    """b, b_s, b_ss and b_sss (degrees 5, 4, 3, 2) on s^i (1-s)^(n-i), the Bernstein
    basis without its binomials, where a product of polynomials is a convolution."""
    c = 60.0 * (chi - 1.0)
    return [1, 5, 10, 10 * chi, 5 * chi, chi], [0, 0, c / 2, 0, 0], [0, c, -c, 0], [c, -4 * c, c]


def _conv(p: list[float], q: list[float]) -> list[float]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q, i):
            out[j] += x * y
    return out


@lru_cache(maxsize=16)
def _r_terms(chi: float) -> tuple[list[float], list[float], int]:
    """R's t_f-free terms, b^4 b_sss - b^3 b_ss b_s and b_s, at degree 22, with their binomials,
    times 2^(5e) and 2^e, and e: 2^e is near 1/max(chi, 1), as R grows as chi^5 (overflowing at ~2e60)."""
    e = -math.frexp(max(chi, 1.0))[1]
    b, bs, bss, bsss = ([math.ldexp(x, e) for x in p] for p in _bernstein_b(chi))
    b3 = _conv(_conv(b, b), b)
    head = [x - y for x, y in zip(_conv(_conv(b3, b), bsss), _conv(_conv(b3, bss), bs))]
    elevated_bs = _conv(bs, [math.comb(18, j) for j in range(19)])  # times (s + 1 - s)^18
    return *([x / math.comb(22, i) for i, x in enumerate(p)] for p in (head, elevated_bs)), e


def _roots(coeffs: list[float], pair: Callable) -> list[float]:
    """The roots in (0, 1), ascending, of p = sum coeffs[i] C(n, i) s^i (1-s)^(n-i).

    De Casteljau halves [0, 1] until a piece's coefficients change sign once (it then
    holds one root: Rouillier & Zimmermann, J. Comput. Appl. Math. 162 (2004) 33) or it
    is 2^-40 wide (a multiple root); ``_polish`` finds the root on pair(s) = (p(s),
    p'(s)).  Non-finite coefficients give one NaN root."""
    if not all(map(math.isfinite, coeffs)):
        return [math.nan]
    roots, pieces = [], [(0.0, 1.0, coeffs)]
    while pieces:
        lo, hi, piece = pieces.pop()
        signs = [x > 0.0 for x in piece if x]
        changes = sum(a != b for a, b in zip(signs, signs[1:]))
        if changes == 1 or changes and hi - lo < 2.0**-40:
            roots.append(_polish(pair, lo, hi, signs[-1]))
        elif changes:
            rows = [piece]
            while len(rows[-1]) > 1:
                rows.append([0.5 * (x + y) for x, y in zip(rows[-1], rows[-1][1:])])
            mid = 0.5 * (lo + hi)
            if not rows[-1][0]:  # a root at the midpoint
                roots.append(mid)
            pieces += [(mid, hi, [r[-1] for r in reversed(rows)]), (lo, mid, [r[0] for r in rows])]
    return sorted(roots)


def _polish(pair: Callable, lo: float, hi: float, rising: bool) -> float:
    """The root in [lo, hi] of p, which rises (or falls) through zero there: Newton
    steps on pair(s) = (p(s), p'(s)), bisecting where a step would leave the bracket."""
    s = 0.5 * (lo + hi)
    for _ in range(100):
        p, dp = pair(s)
        lo, hi = (lo, s) if (p > 0.0) == rising else (s, hi)
        step = p / dp if dp else hi - lo
        if abs(step) <= 1e-15 * s:  # p = 0, or a few ulps of rounding noise in p
            return s
        s = s - step if lo < s - step < hi else 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * s:
            return s
    return s


def _nan_max(values: list[float]) -> float:
    """max(values), or NaN if any value is NaN, as np.max."""
    return max(values) if all(v == v for v in values) else math.nan
