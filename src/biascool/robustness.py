"""Sensitivity of the cooling protocol to a systematic drive error.

The modeled imperfection is a global multiplicative error on the gate
drive, f -> (1 + epsilon) f, mirroring a miscalibrated voltage
amplitude.  ``sweep_row``, the one code path of the (t_final, epsilon)
cells of one t_final, designs the nominal ramp, scales it per epsilon,
maps each initial thermal state through its perturbed ramp's transfer
matrix and records the end-point diagnostics or the failure;
``run_sweep`` runs a grid, row by row.  A ``SweepResult``'s fields, in
order, are one row of the ``sweep`` table, which holds computed values
only.

The Ermakov scale factor at t_f is not integrated: with b(0) = 1 and
b'(0) = 0 the Pinney solution is b^2 = m11^2 + omega_0^2 m12^2, where
m11, m12 are entries of the perturbed ramp's transfer matrix (Pinney,
Proc. AMS 1 (1950) 681; Lewis & Riesenfeld, J. Math. Phys. 10 (1969)
1458).  That matrix is the one the occupation columns come from, and a
row's ramps differ only in the drive's gain, so one march gives all
their matrices, end point only (``propagate_row``): a cell's last digits
depend on the other epsilons of its row, not on their order.  A row
starts with the closed-form adiabatic segment over [0, t_s] (within
tol/10) and marches [t_s, t_f]; at the default tolerance n and b stay
within 1e-10 relative of an extended-precision reference.  The
epsilon = 0 segment is the exact nominal rotation, so the epsilon = 0
cell that ``reproduce`` checks against the invariant's closed form
certifies the march over [t_s, t_f] and the frame change.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from . import thermometry
from .design import ControlTrajectory, make_trajectory, signed_sqrt
from .dynamics import GaussianState, IntegrationError, TransferMatrix, propagate_row, thermal_state
from .physical import PhysicalParams
from .records import Record

class SweepOptions(Record):
    tolerance: float = 1e-10
    # initial state thermal at the nominal start frequency, or at the
    # perturbed one the scaled drive would actually produce
    initial_state: str = "nominal"

    def __post_init__(self) -> None:
        if self.initial_state not in ("nominal", "perturbed"):
            raise ValueError(f"initial_state must be 'nominal' or 'perturbed', got {self.initial_state!r}")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")


class SweepResult(Record):
    epsilon: float
    t_final: float
    n_bar_final: float  # referenced to omega_m
    t_eff_final: float  # kelvin, referenced to omega_m
    state_omega_final: float  # signed sqrt of pp/xx, omega_m units
    ermakov_b_final: float  # Pinney scale factor at t_f from the same perturbed-drive run
    status: str = "ok"

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def perturb_trajectory(traj: ControlTrajectory, epsilon: float) -> ControlTrajectory:
    """Scale the drive by (1 + epsilon); boundary metadata stays nominal."""
    return ControlTrajectory(traj.spec, traj.eta, traj.f_scale * (1.0 + epsilon))


def sweep_row(
    params: PhysicalParams, t_final: float, epsilons: Sequence[float], options: SweepOptions = SweepOptions()
) -> list[SweepResult]:
    """The cells (t_final, epsilon) of one ramp, one march lane per epsilon whatever the start state.

    A failed cell -- no thermal start state at the perturbed frequency, or
    a march whose matrix, moments or occupation overflowed -- has NaN
    diagnostics and an explanatory status.  A row whose shared march
    fails marches again cell by cell, so each cell is what it is alone.
    """
    nominal = make_trajectory(params, t_final)
    omega0_sq = nominal.spec.omega0_sq
    ramps = [perturb_trajectory(nominal, epsilon) for epsilon in epsilons]
    starts: list[GaussianState | str] = []  # each cell's start state, or the status of a cell without one
    for ramp in ramps:
        start_omega_sq = omega0_sq if options.initial_state == "nominal" else ramp.omega_eff_sq(0.0)
        if 0.0 < start_omega_sq < math.inf:  # only a perturbed start can fail here
            starts.append(thermal_state(params, start_omega_sq, params.bath_temperature))
        else:
            problem = "<= 0" if start_omega_sq <= 0.0 else "is not finite"
            starts.append(f"perturbed start frequency squared {start_omega_sq:.3e} {problem}")
    marched = any(isinstance(start, GaussianState) for start in starts)
    try:
        matrices = propagate_row(ramps, options.tolerance) if marched else [None] * len(ramps)
    except IntegrationError as exc:
        if len(ramps) > 1:
            return [cell for epsilon in epsilons for cell in sweep_row(params, t_final, [epsilon], options)]
        starts, matrices = [f"integration failed: {exc}"], [None]
    return [_cell(params, t_final, omega0_sq, *cell) for cell in zip(epsilons, starts, matrices)]


def _cell(
    params: PhysicalParams, t_final: float, omega0_sq: float,
    epsilon: float, start: GaussianState | str, matrix: TransferMatrix | None,
) -> SweepResult:
    """A cell from its start state and matrix, or from the status of its failure."""
    if isinstance(start, GaussianState):
        try:
            final = matrix.apply(start, time=t_final)
            n_final = thermometry.occupation(final.xx, final.pp, 1.0)
            if n_final == math.inf:  # finite moments whose energy overflowed
                raise IntegrationError("occupation overflowed", t_final)
        except IntegrationError as exc:
            start = f"integration failed: {exc}"
        else:
            t_eff = thermometry.effective_temperature(params.bare_frequency, n_final)
            m11, m12 = matrix.m11, matrix.m12
            b_sq = m11 * m11 + omega0_sq * m12 * m12
            if b_sq < math.inf:
                b_final = math.sqrt(b_sq)
            else:  # b^2 overflows first, past b ~ 1e154: the same norm without the squares
                b_final = math.hypot(m11, math.sqrt(omega0_sq) * m12)
            return SweepResult(epsilon, t_final, n_final, t_eff, signed_sqrt(final.pp / final.xx), b_final)
    return SweepResult(epsilon, t_final, *[math.nan] * 4, start)


def run_sweep(
    params: PhysicalParams,
    t_final_list: Sequence[float],
    epsilon_list: Sequence[float],
    options: SweepOptions = SweepOptions(),
) -> list[SweepResult]:
    """``sweep_row`` for each t_final: all (t_final, epsilon) cells, in the given order (t_final outer).

    The order of the epsilons does not influence any cell's value; a
    failed cell is recorded and the sweep continues.
    """
    if not t_final_list or not epsilon_list:
        raise ValueError("t_final_list and epsilon_list must be non-empty")
    epsilons = [float(epsilon) for epsilon in epsilon_list]
    return [cell for t_final in t_final_list for cell in sweep_row(params, float(t_final), epsilons, options)]
