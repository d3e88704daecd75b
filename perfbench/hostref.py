"""A fixed reference program that measures how fast the host runs right now.

    python3 perfbench/hostref.py OUT_CSV

prints {"import_s", "compute_s"} as JSON.  run.py starts it in a fresh
interpreter between CLI invocations and divides each invocation's
timings by the reference timings of the runs around it (set-up by
import_s, the command by compute_s, the whole invocation by the wall
time), so that host speed phases cancel out of the end-to-end metrics.
It does the kinds of work the CLI does (interpreter start, numpy and
scipy.integrate imports; a pure-Python Runge-Kutta march; scalar numpy
and math in a Python loop; CSV formatting, writing and hashing) but
never imports biascool, so no change to the package moves it.  Keep it
unchanged: every edit rescales the metrics.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import scipy.integrate  # noqa: E402, F401  (the CLI's heaviest import)

RK_STEPS = 60000
ROWS = 8001


def rk4_oscillator(steps: int) -> float:
    """March x'' = -w2(t) x with classical RK4 in plain floats."""
    def w2(t: float) -> float:
        return 1.0 + 0.5 * math.sin(3.0 * t) ** 2

    def f(t: float, y: tuple) -> tuple:
        return (y[1], -w2(t) * y[0])

    h, t, y = 1e-3, 0.0, (1.0, 0.0)
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + h / 2, (y[0] + h / 2 * k1[0], y[1] + h / 2 * k1[1]))
        k3 = f(t + h / 2, (y[0] + h / 2 * k2[0], y[1] + h / 2 * k2[1]))
        k4 = f(t + h, (y[0] + h * k3[0], y[1] + h * k3[1]))
        y = (y[0] + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
             y[1] + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))
        t += h
    return y[0]


def main() -> int:
    t1 = time.perf_counter()
    x_end = rk4_oscillator(RK_STEPS)
    t = np.linspace(0.0, 1.0, ROWS)
    drive = 1.0 + 0.5 * np.sin(2.0 * np.pi * t) ** 2
    rows = []
    for x, w in zip(t.tolist(), drive):
        w2 = float(np.float64(w) * np.float64(w))
        rows.append((x, w2, math.exp(-x) * math.sqrt(w2), math.atan2(x, w2) + x_end))
    text = "".join(",".join(f"{v:.12e}" for v in row) + "\n" for row in rows)
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        handle.write(text)
    hashlib.sha256(text.encode()).hexdigest()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - T0, "compute_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
