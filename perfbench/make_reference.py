"""Generate perfbench/reference.json: extended-precision ramp end points.

For a few (t_final, epsilon) cells of the built-in device this computes
the occupation n_bar_final (referenced to omega_m) and the Ermakov end
point b_final with mpmath, independently of the package's integrators.
The benchmark's traced run reports the package's relative error against
these values.

Method: the transfer matrix of x'' = -w(t) x is marched with a Taylor
series method whose coefficients are exact recursions of the closed-form
drive w(t) = (1 - S) + S (Omega / b^4 - b''/b), b the designed quintic
and S = 1 + epsilon the drive error.  b_final follows from Pinney's
formula b^2 = m11^2 + Omega m12^2 (b(0) = 1, b'(0) = 0).  The double
inputs the package feeds its own integrators (chi, Omega, S and the
thermal start moments) are taken bit for bit, so the reference isolates
integration error.  Each cell is computed twice, with different order,
step and working precision; the stored digits are those both agree on.

Run from the repository root (takes a few minutes, pure Python):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from biascool.config import load_config  # noqa: E402
from biascool.design import make_trajectory  # noqa: E402
from biascool.dynamics import thermal_state  # noqa: E402
from biascool.robustness import perturb_trajectory  # noqa: E402

CELLS = ((0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, -0.1), (0.5, 0.1))
# (series order, step as a fraction of the local period / 2 pi, decimal digits)
SETTINGS = ((40, 1.0, 40), (52, 0.6, 55))


def _series_mul(a, b, order):
    return [mp.fsum(a[j] * b[k - j] for j in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1))
            for k in range(order)]


def transfer_matrix(chi, omega0_sq, scale, t_final, order, step_frac):
    """(m11, m12, m21, m22) at t_final for the ramp with drive scale S."""
    c = mp.mpf(chi) - 1
    T = mp.mpf(t_final)
    S = mp.mpf(scale)
    Om = mp.mpf(omega0_sq)
    poly = [mp.mpf(1), 0, 0, 10 * c / T**3, -15 * c / T**4, 6 * c / T**5]
    cols = [[mp.mpf(1), mp.mpf(0)], [mp.mpf(0), mp.mpf(1)]]  # (x, p) per column
    t = mp.mpf(0)
    while t < T:
        beta = [mp.fsum(poly[j] * mp.binomial(j, k) * t ** (j - k) for j in range(k, 6))
                for k in range(6)]
        inv = [1 / beta[0]]
        for k in range(1, order):
            inv.append(-mp.fsum(beta[j] * inv[k - j] for j in range(1, min(k, 5) + 1)) / beta[0])
        inv2 = _series_mul(inv, inv, order)
        inv4 = _series_mul(inv2, inv2, order)
        b_dd = [(k + 2) * (k + 1) * beta[k + 2] for k in range(4)]
        ratio = _series_mul(b_dd, inv, order)
        w = [S * (Om * inv4[k] - ratio[k]) for k in range(order)]
        w[0] += 1 - S
        h = min(step_frac / mp.sqrt(max(abs(w[0]), 1)), T / 100, T - t)
        for col in cols:
            y = [col[0], col[1]]
            for k in range(order - 2):
                y.append(-mp.fsum(w[j] * y[k - j] for j in range(k + 1)) / ((k + 1) * (k + 2)))
            x_new = mp.polyval(y[::-1], h)
            p_new = mp.polyval([k * y[k] for k in range(order - 1, 0, -1)], h)
            col[0], col[1] = x_new, p_new
        t = T if T - t <= h else t + h
    (m11, m21), (m12, m22) = cols
    return m11, m12, m21, m22


def end_points(cell_inputs, order, step_frac):
    m11, m12, m21, m22 = transfer_matrix(
        cell_inputs["chi"], cell_inputs["omega0_sq"], cell_inputs["f_scale"],
        cell_inputs["t_final"], order, step_frac,
    )
    xx0, pp0 = mp.mpf(cell_inputs["xx0"]), mp.mpf(cell_inputs["pp0"])
    xx = m11**2 * xx0 + m12**2 * pp0
    pp = m21**2 * xx0 + m22**2 * pp0
    n_final = (xx + pp) / 2 - mp.mpf(1) / 2
    b_final = mp.sqrt(m11**2 + mp.mpf(cell_inputs["omega0_sq"]) * m12**2)
    return n_final, b_final, m11 * m22 - m12 * m21 - 1


def main() -> int:
    params = load_config(None).physical
    cells = []
    for t_final, epsilon in CELLS:
        nominal = make_trajectory(params, t_final)
        state0 = thermal_state(params, nominal.spec.omega0_sq, params.bath_temperature)
        inputs = {
            "t_final": t_final,
            "epsilon": epsilon,
            "chi": nominal.spec.chi,
            "omega0_sq": nominal.spec.omega0_sq,
            "f_scale": perturb_trajectory(nominal, epsilon).f_scale,
            "xx0": state0.xx,
            "pp0": state0.pp,
        }
        runs = []
        for order, step_frac, dps in SETTINGS:
            mp.mp.dps = dps
            runs.append(end_points(inputs, order, step_frac))
        mp.mp.dps = 30
        (n1, b1, det1), (n2, b2, det2) = runs
        agree = min(
            -mp.log10(abs((n1 - n2) / n2) + mp.mpf(10) ** -40),
            -mp.log10(abs((b1 - b2) / b2) + mp.mpf(10) ** -40),
        )
        cell = dict(inputs)
        cell["n_bar_final"] = mp.nstr(n2, 25)
        cell["b_final"] = mp.nstr(b2, 25)
        cell["agreeing_digits"] = int(agree)
        cell["max_abs_det_minus_1"] = mp.nstr(max(abs(det1), abs(det2)), 3)
        print(json.dumps(cell), flush=True)
        cells.append(cell)
    payload = {
        "description": "mpmath Taylor-series end points of the built-in device ramps; "
        "see make_reference.py",
        "cells": cells,
    }
    (HERE / "reference.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
