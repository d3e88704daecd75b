"""Adaptive embedded Runge-Kutta integration for small smooth systems.

A plain-Python Dormand-Prince 5(4) pair over tuple states.  The state
dimension here is 2-4, so tuples of floats beat numpy arrays by a wide
margin in the step loop; callers that want arrays get them from the
returned samples.  Used for the nonlinear auxiliary-equation solves;
the linear covariance propagation uses other schemes (see dynamics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np


class IntegrationError(RuntimeError):
    """Integration could not continue; ``time`` is how far it got."""

    def __init__(self, message: str, time: float):
        # args are __init__'s own arguments, so the error survives pickling
        super().__init__(message, time)
        self.time = time

    def __str__(self) -> str:
        message, time = self.args
        return f"{message} (at t = {time:.9g})"


# Dormand-Prince 5(4) tableau.  Row 7 equals the 5th-order weights (FSAL).
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
# 5th-order minus embedded 4th-order weights
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


@dataclass
class RKResult:
    """Sampled solution; ``t[0]`` is the start and ``t[-1]`` the end point."""

    t: np.ndarray
    y: np.ndarray  # shape (len(t), dim)
    n_steps: int
    n_rejected: int


def solve_rk(
    fun: Callable[[float, tuple], tuple],
    t0: float,
    y0: Sequence[float],
    t1: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval: Sequence[float] | None = None,
    guard: Callable[[float, tuple], None] | None = None,
) -> RKResult:
    """Integrate y' = fun(t, y) forward from t0 to t1.

    ``t_eval`` points (strictly inside (t0, t1], ascending) are hit
    exactly by clipping the step; without it, every accepted step is
    recorded.  ``guard`` runs after each accepted step and may raise
    IntegrationError to abort (used for singularity detection).
    """
    if not t1 > t0:
        raise ValueError("require t1 > t0")
    t = t0
    y = tuple(float(v) for v in y0)
    dim = len(y)
    k = [None] * 7
    k[0] = fun(t, y)

    capture_all = t_eval is None
    targets = [] if capture_all else [float(v) for v in t_eval]
    for a, b in zip(targets, targets[1:]):
        if not b > a:
            raise ValueError("t_eval must be strictly ascending")
    if targets and (targets[0] <= t0 or targets[-1] > t1 * (1 + 1e-15)):
        raise ValueError("t_eval must lie in (t0, t1]")
    next_target = 0

    ts = [t]
    ys = [y]
    span = t1 - t0
    h = span * 1e-4
    n_steps = 0
    n_rejected = 0

    while t < t1:
        if h <= abs(t) * 1e-15 + span * 1e-16:
            raise IntegrationError("step size underflow", t)
        h_try = min(h, t1 - t)
        if not capture_all and next_target < len(targets):
            h_try = min(h_try, targets[next_target] - t)
        clipped = h_try < h

        for i in range(1, 7):
            ai = _A[i]
            yi = tuple(
                y[j] + h_try * sum(ai[l] * k[l][j] for l in range(i)) for j in range(dim)
            )
            k[i] = fun(t + _C[i] * h_try, yi)
        y_new = yi  # 7th stage state is the 5th-order solution

        err = 0.0
        for j in range(dim):
            e = h_try * sum(_E[l] * k[l][j] for l in range(7))
            sc = atol + rtol * max(abs(y[j]), abs(y_new[j]))
            q = abs(e) / sc
            if not q >= 0.0:  # non-finite state or error estimate
                err = math.inf
                break
            if q > err:
                err = q

        if err <= 1.0:
            t = t + h_try
            y = y_new
            k[0] = k[6]
            n_steps += 1
            if guard is not None:
                guard(t, y)
            if capture_all:
                ts.append(t)
                ys.append(y)
            elif next_target < len(targets) and t >= targets[next_target] * (1 - 1e-15):
                ts.append(t)
                ys.append(y)
                next_target += 1
        else:
            n_rejected += 1

        if not math.isfinite(err):
            factor = _MIN_FACTOR
        elif err > 0.0:
            factor = _SAFETY * (1.0 / err) ** 0.2
        else:
            factor = _MAX_FACTOR
        h_new = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        # a step shortened only to land on an output point must not
        # shrink the controller's idea of the feasible step
        h = max(h_new, h) if (clipped and err <= 1.0) else h_new

    if ts[-1] != t:
        ts.append(t)
        ys.append(y)
    import numpy as np  # here only: no CLI command runs this solver

    return RKResult(np.asarray(ts), np.asarray(ys), n_steps, n_rejected)
