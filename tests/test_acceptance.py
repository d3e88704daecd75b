"""Acceptance gate: the protocol's headline claims, each at a fixed tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary
line per criterion.  Every expected number is either a closed-form
device constant frozen from an extended-precision oracle (conftest) or
an independently simulated quantity; nothing is tuned to the
implementation under test.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from biascool.cli import main
from biascool.design import b_polynomial, make_trajectory
from biascool.dynamics import (
    GaussianState,
    TransferMatrix,
    propagate_transfer,
    solve_ermakov_forward,
    thermal_state,
    transfer_series,
)
from biascool.robustness import SweepOptions, run_sweep
from biascool.thermometry import effective_temperature, occupation_from_state, thermal_occupation

from conftest import make_params
from oracles import invariant_expectation, propagate_covariance_ode

T_FINALS = (0.5, 1.0, 2.0)
TRANSFER_TOL = 1e-10
ORACLE_TOL = 1e-12
ERMAKOV_TOL = 1e-12
N_SERIES = 41


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@dataclass
class ProtocolRun:
    t_final: float
    traj: object
    state0: GaussianState
    n_init: float
    times: np.ndarray
    states: list  # transfer-matrix series at `times`
    matrix: TransferMatrix  # full-span map
    final_oracle: GaussianState  # covariance-ODE end state


@pytest.fixture(scope="module")
def params():
    return make_params()


@pytest.fixture(scope="module")
def runs(params):
    out = {}
    for t_final in T_FINALS:
        traj = make_trajectory(params, t_final)
        state0 = thermal_state(params, traj.spec.omega0_sq, params.bath_temperature)
        times = np.linspace(0.0, t_final, N_SERIES)
        states, matrix = transfer_series(traj, state0, times.tolist(), tol=TRANSFER_TOL)
        final_oracle = propagate_covariance_ode(traj, state0, 0.0, t_final, tol=ORACLE_TOL)
        out[t_final] = ProtocolRun(
            t_final=t_final,
            traj=traj,
            state0=state0,
            n_init=occupation_from_state(state0, traj.spec.omega0_sq),
            times=times,
            states=states,
            matrix=matrix,
            final_oracle=final_oracle,
        )
    return out


@pytest.fixture(scope="module")
def sweep_rows(params):
    return run_sweep(params, T_FINALS, [-0.1, 0.1], SweepOptions(tolerance=TRANSFER_TOL))


def test_criterion_1_coupling_constant(params):
    eta = params.eta
    rel = abs(eta - 1.25e7) / 1.25e7
    report(
        "criterion 1 (coupling constant)",
        rel <= 0.01,
        f"eta = {eta:.6e}, target 1.25e7 within 1% (off by {rel:.2%})",
    )


def test_criterion_2_step_one_occupations(params):
    n_hot = thermal_occupation(params.bare_frequency, params.bath_temperature)
    omega0 = math.sqrt(1.0 + params.eta) * params.bare_frequency
    n_cold = thermal_occupation(omega0, params.bath_temperature)
    ok_hot = abs(3.11e3 - n_hot) <= 0.02 * n_hot and 3050.0 <= n_hot <= 3150.0
    ok_cold = abs(n_cold - 0.47) <= 0.01
    report(
        "criterion 2 (step-one occupations)",
        ok_hot and ok_cold,
        f"n_hot = {n_hot:.4f} (target 3.11e3 within 2%, rounds to 3100), "
        f"n_cold = {n_cold:.5f} (target 0.47 within 0.01)",
    )


def test_criterion_3_final_temperature(params, runs):
    values = []
    for run in runs.values():
        n_final = occupation_from_state(run.states[-1], 1.0)
        values.append(effective_temperature(params.bare_frequency, n_final))
    worst = max(abs(v - 6e-6) / 6e-6 for v in values)
    report(
        "criterion 3 (final temperature)",
        worst <= 0.15,
        f"simulated T_eff = {min(values):.4e}..{max(values):.4e} K, "
        f"target 6e-6 K within 15% (worst off by {worst:.2%})",
    )


def test_criterion_4_invariant_exactness(runs):
    # the design promise, verified by independent dynamics: occupation at
    # the end (bare frequency) equals the occupation at the start (boosted
    # frequency); transfer path cross-checked against the covariance ODE
    drifts = []
    agreements = []
    for run in runs.values():
        final = run.states[-1]
        drifts.append(abs(occupation_from_state(final, 1.0) - run.n_init))
        oracle = run.final_oracle
        xp_scale = math.sqrt(final.xx * final.pp)
        agreements.append(
            max(
                abs(final.xx - oracle.xx) / oracle.xx,
                abs(final.pp - oracle.pp) / oracle.pp,
                abs(final.xp - oracle.xp) / xp_scale,
            )
        )
    report(
        "criterion 4 (occupation preserved)",
        max(drifts) < 1e-3 and max(agreements) < 1e-6,
        f"max |n_final - n_init| = {max(drifts):.2e} (< 1e-3), "
        f"propagator cross-check = {max(agreements):.2e} (< 1e-6)",
    )


def test_criterion_5_design_forward_closed_loop(runs):
    worst_rel = 0.0
    worst_boundary = 0.0
    for run in runs.values():
        spec = run.traj.spec
        t_final = run.t_final
        grid = np.linspace(0.0, t_final, 201)
        sol = solve_ermakov_forward(
            run.traj, 1.0, 0.0, spec.omega0_sq, 0.0, t_final,
            tol=ERMAKOV_TOL, t_eval=grid[1:].tolist(),
        )
        b_exact, _, _ = b_polynomial(grid / t_final, spec.chi)
        worst_rel = max(worst_rel, float(np.max(np.abs(sol.b - b_exact) / b_exact)))
        worst_rel = max(worst_rel, abs(sol.b_final - spec.chi) / spec.chi)
        # boundary set of the designed scale factor, closed form
        b0, db0, d2b0 = b_polynomial(0.0, spec.chi)
        b1, db1, d2b1 = b_polynomial(1.0, spec.chi)
        worst_boundary = max(
            worst_boundary,
            abs(b0 - 1.0), abs(db0), abs(d2b0),
            abs(b1 - spec.chi) / spec.chi, abs(db1) / t_final, abs(d2b1) / t_final**2,
            # and of the forward-integrated solution at the end point
            abs(sol.b_final - spec.chi) / spec.chi,
            abs(sol.b_dot_final),
        )
    report(
        "criterion 5 (design/forward closed loop)",
        worst_rel <= 1e-6 and worst_boundary <= 1e-9,
        f"scale-factor recovery = {worst_rel:.2e} (< 1e-6), "
        f"boundary residuals = {worst_boundary:.2e} (< 1e-9)",
    )


def test_criterion_6_conservation_suite(runs):
    purity_drift = 0.0
    invariant_drift = 0.0
    det_err = 0.0
    rng = np.random.default_rng(2024)
    for run in runs.values():
        p0 = run.state0.purity_invariant
        purity_drift = max(
            purity_drift, max(abs(s.purity_invariant - p0) / p0 for s in run.states)
        )
        spec = run.traj.spec
        b, db, _ = b_polynomial(run.times / run.t_final, spec.chi)
        values = [
            invariant_expectation(s, spec.omega0_sq, float(bi), float(dbi) / run.t_final)
            for s, bi, dbi in zip(run.states, b, db)
        ]
        invariant_drift = max(
            invariant_drift, (max(values) - min(values)) / abs(values[0])
        )
        det_err = max(det_err, abs(run.matrix.det - 1.0))
        for _ in range(3):
            t0, t1 = np.sort(rng.uniform(0.0, run.t_final, size=2))
            if t1 - t0 < 1e-3:
                continue
            _, m = propagate_transfer(run.traj, run.state0, float(t0), float(t1), tol=TRANSFER_TOL)
            det_err = max(det_err, abs(m.det - 1.0))
    report(
        "criterion 6 (conservation suite)",
        purity_drift < 1e-8 and invariant_drift < 1e-6 and det_err < 1e-9,
        f"purity drift = {purity_drift:.2e} (< 1e-8), "
        f"invariant drift = {invariant_drift:.2e} (< 1e-6), "
        f"|det M - 1| = {det_err:.2e} (< 1e-9)",
    )


def test_criterion_7_robustness(params, sweep_rows):
    hard_ok = all(r.status == "ok" and r.n_bar_final < 1.0 for r in sweep_rows)
    lines = []
    for r in sweep_rows:
        adiabatic_omega = math.sqrt(1.0 + params.eta) / r.ermakov_b_final**2
        lines.append(
            f"    eps={r.epsilon:+.1f} t_f={r.t_final}: n={r.n_bar_final:.3f}, "
            f"T_eff={r.t_eff_final*1e6:.2f}uK, "
            f"state omega={r.state_omega_final:.3f}, adiabatic omega={adiabatic_omega:.3f}"
        )
    report(
        "criterion 7 (ten-percent drive error)",
        hard_ok,
        f"max n_final = {max(r.n_bar_final for r in sweep_rows):.4f} (< 1, hard); "
        "T_eff and the state frequency are reported, not asserted",
    )
    for line in lines:
        print(line)


def test_criterion_8_reproduction_determinism(tmp_path):
    config = tmp_path / "fast.cfg"
    from biascool.config import DEFAULT_CONFIG

    config.write_text(
        DEFAULT_CONFIG.replace("t_final = 0.5, 1.0, 2.0", "t_final = 1.0").replace(
            "sample_count = 201", "sample_count = 41"
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["reproduce", "--config", str(config), "--out", str(out)]) == 0
    first = (out / "manifest.json").read_bytes()
    assert main(["reproduce", "--config", str(config), "--out", str(out)]) == 0
    second = (out / "manifest.json").read_bytes()
    report(
        "criterion 8 (reproduction determinism)",
        first == second,
        f"manifest of {len(first)} bytes identical across two runs",
    )
