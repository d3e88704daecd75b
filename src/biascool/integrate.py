"""Adaptive embedded Runge-Kutta integration for small smooth systems.

A plain-Python Dormand-Prince 5(4) pair over tuple states.  The state
dimension here is 2-4, so tuples of floats beat numpy arrays by a wide
margin in the step loop; callers that want arrays get them from the
returned samples.  Used for the nonlinear auxiliary-equation solves;
the linear covariance propagation uses other schemes (see dynamics).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .records import Record


class IntegrationError(RuntimeError):
    """Integration could not continue; ``time`` is how far it got."""

    def __init__(self, message: str, time: float):
        # args are __init__'s own arguments, so the error is rebuilt from its args
        # (as a forked worker's error is, and as unpickling does)
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


class RKResult(Record):
    """Sampled solution; ``t[0]`` is the start and ``t[-1]`` the end point."""

    t: Sequence[float]  # a numpy array
    y: Sequence[Sequence[float]]  # a numpy array of shape (len(t), dim)
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

    The march stops at each ``t_eval`` point (strictly inside (t0, t1],
    ascending) and at t1: the step that would pass a stop is clipped to
    land on it, and the state there is recorded; without ``t_eval``,
    every accepted step is recorded.  ``guard`` runs after each accepted
    step and may raise IntegrationError to abort (used for singularity
    detection).
    """
    every = t_eval is None  # record every accepted step, not only the stops
    ends = [] if every else [float(v) for v in t_eval]
    if not ends or ends[-1] != t1:
        ends.append(t1)
    if not all(b > a for a, b in zip((t0, *ends), ends)):
        raise ValueError("require t1 > t0, and t_eval ascending strictly within (t0, t1]")
    t, y = t0, tuple(float(v) for v in y0)
    dim, k = len(y), [fun(t0, y)] + [None] * 6
    ts, ys = [t], [y]
    span = t1 - t0
    h = span * 1e-4
    n_steps = n_rejected = 0

    for end in ends:
        while t < end:
            if h <= abs(t) * 1e-15 + span * 1e-16:
                raise IntegrationError("step size underflow", t)
            h_try = min(h, end - t)
            clipped = h_try < h

            for i in range(1, 7):
                ai = _A[i]
                yi = tuple(y[j] + h_try * sum(ai[l] * k[l][j] for l in range(i)) for j in range(dim))
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
                t, y, k[0] = t + h_try, y_new, k[6]
                n_steps += 1
                if guard is not None:
                    guard(t, y)
                if every:
                    ts.append(t)
                    ys.append(y)
            else:
                n_rejected += 1

            if not math.isfinite(err):
                factor = _MIN_FACTOR
            elif err > 0.0:
                factor = _SAFETY * (1.0 / err) ** 0.2
            else:
                factor = _MAX_FACTOR
            h_new = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            # a step shortened only to land on a stop must not
            # shrink the controller's idea of the feasible step
            h = max(h_new, h) if (clipped and err <= 1.0) else h_new

        if not every:
            ts.append(t)
            ys.append(y)

    import numpy as np  # here only: no CLI command runs this solver

    return RKResult(np.asarray(ts), np.asarray(ys), n_steps, n_rejected)
