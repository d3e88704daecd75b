import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from biascool import cli, dynamics, integrate, robustness
from biascool.config import load_config
from biascool.constants import BOLTZMANN, HBAR
from biascool.design import control_function, linspace, make_trajectory
from biascool.dynamics import propagate_row, propagate_transfer, thermal_state
from biascool.robustness import (
    SweepOptions,
    SweepResult,
    perturb_trajectory,
    run_sweep,
    sweep_row,
)

from conftest import NBAR_COLD, TEFF_FINAL, make_params, make_params_eta
from oracles import ermakov_end_point


class TestPerturbation:
    def test_zero_epsilon_is_identity(self, device_params):
        traj = make_trajectory(device_params, 1.0)
        same = perturb_trajectory(traj, 0.0)
        t = np.linspace(0.0, 1.0, 23)
        np.testing.assert_array_equal(
            np.asarray(control_function(traj, t)), np.asarray(control_function(same, t))
        )
        assert same.f_scale == 1.0

    def test_plus_ten_percent_start(self):
        params = make_params_eta(1.25e7)
        traj = perturb_trajectory(make_trajectory(params, 1.0), 0.1)
        assert control_function(traj, 0.0) == pytest.approx(1.1, abs=1e-9)
        omega_start = math.sqrt(traj.omega_eff_sq(0.0))
        assert omega_start == pytest.approx(math.sqrt(1.0 + 1.1 * params.eta), rel=1e-12)
        assert omega_start == pytest.approx(3708.0993783878015, rel=1e-9)  # frozen oracle value
        assert traj.f_scale != 1.0

    @pytest.mark.parametrize("epsilon", [-0.5, -0.1, 0.3, 1.7])
    def test_end_point_scale_invariant(self, device_params, epsilon):
        traj = perturb_trajectory(make_trajectory(device_params, 1.0), epsilon)
        assert abs(control_function(traj, traj.t_final)) < 1e-9

    def test_composes_multiplicatively(self, device_params):
        traj = make_trajectory(device_params, 1.0)
        twice = perturb_trajectory(perturb_trajectory(traj, 0.1), 0.1)
        assert twice.f_scale == pytest.approx(1.21, rel=1e-15)


@pytest.fixture(scope="module")
def small_sweep(device_params):
    return run_sweep(device_params, [0.5], [-0.1, 0.0, 0.1], SweepOptions(tolerance=1e-10))


@pytest.fixture(scope="module")
def rk_free_sweep(device_params):
    """The default (t_final, epsilon) grid, swept with the RK solver disabled.

    The solver is replaced under every name the package binds it to, so
    any cell that still ran it would be recorded as failed.
    """

    def unavailable(*args, **kwargs):
        raise integrate.IntegrationError("the sweep ran the RK solver", 0.0)

    solve_rk = integrate.solve_rk
    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "biascool" and getattr(module, "solve_rk", None) is solve_rk:
                mp.setattr(module, "solve_rk", unavailable)
        return run_sweep(device_params, [0.5, 1.0, 2.0], [-0.1, 0.0, 0.1])


class TestSweep:
    def test_unperturbed_row_reproduces_protocol(self, small_sweep):
        row = next(r for r in small_sweep if r.epsilon == 0.0)
        assert row.status == "ok"
        assert row.n_bar_final == pytest.approx(NBAR_COLD, abs=1e-6)
        assert row.t_eff_final == pytest.approx(TEFF_FINAL, rel=1e-3)
        assert row.state_omega_final == pytest.approx(1.0, rel=1e-6)
        assert row.ermakov_b_final == pytest.approx(59.4738163986, rel=1e-9)

    def test_ten_percent_rows_stay_near_ground_state(self, small_sweep):
        for row in small_sweep:
            if abs(row.epsilon) == 0.1:
                assert row.status == "ok"
                assert row.n_bar_final < 1.0
                assert row.ermakov_b_final != pytest.approx(59.47, rel=1e-3)

    def test_determinism_bit_for_bit(self, device_params, small_sweep):
        again = run_sweep(device_params, [0.5], [-0.1, 0.0, 0.1], SweepOptions(tolerance=1e-10))
        for a, b in zip(small_sweep, again):
            assert (a.n_bar_final, a.t_eff_final, a.state_omega_final, a.ermakov_b_final) == (
                b.n_bar_final,
                b.t_eff_final,
                b.state_omega_final,
                b.ermakov_b_final,
            )

    def test_grid_order_invariance(self, device_params, small_sweep):
        # a row's lanes share one step sequence, which no order of its epsilons changes
        for order in itertools.permutations([-0.1, 0.0, 0.1]):
            by_eps = {r.epsilon: r for r in run_sweep(device_params, [0.5], order, SweepOptions(tolerance=1e-10))}
            assert [by_eps[row.epsilon] for row in small_sweep] == small_sweep

    def test_sweep_does_not_run_the_rk_solver(self, rk_free_sweep):
        assert len(rk_free_sweep) == 9
        assert all(row.status == "ok" for row in rk_free_sweep)

    def test_pinney_end_point_matches_forward_ermakov(self, device_params, rk_free_sweep):
        # the closed form from the transfer matrix against a disjoint integrator
        for row in rk_free_sweep:
            nominal = make_trajectory(device_params, row.t_final)
            oracle = ermakov_end_point(
                perturb_trajectory(nominal, row.epsilon), nominal.spec.omega0_sq, row.t_final
            )
            assert row.ermakov_b_final == pytest.approx(oracle, rel=1e-9)

    def test_ermakov_end_point_ignores_start_state(self, device_params, small_sweep):
        perturbed = run_sweep(
            device_params, [0.5], [-0.1, 0.0, 0.1],
            SweepOptions(tolerance=1e-10, initial_state="perturbed"),
        )
        for a, b in zip(small_sweep, perturbed):
            assert (a.n_bar_final == b.n_bar_final) == (a.epsilon == 0.0)
            assert a.ermakov_b_final == b.ermakov_b_final

    @pytest.mark.parametrize("t_final,missing", [(0.5, -1.2), (0.5, -1.5), (1.0, -2.0)])
    def test_lanes_ignore_a_missing_start_state(self, device_params, t_final, missing, monkeypatch):
        # the first epsilon has no perturbed start, but its lane still marches: the row's
        # other cells keep the bits they have under the nominal start.  The -1.5 and -2
        # lanes set the row's steps, and the -2 cell's nominal moments overflow.  Each
        # missing lane has u < 0 at t = 0, so its row has no adiabatic segment, while the
        # row without it has one: that row holds the 1e-9 lane-against-alone bound, and,
        # with the segment patched out, keeps the bits at -1.2 (the same step sequence)
        grid = [missing, -0.1, 0.0, 0.1]
        nominal = run_sweep(device_params, [t_final], grid)
        perturbed = run_sweep(device_params, [t_final], grid, SweepOptions(initial_state="perturbed"))
        assert "start frequency" in perturbed[0].status
        assert (nominal[0].status == "ok") == (missing != -2.0)
        assert all(row.status == "ok" for row in nominal[1:] + perturbed[1:])
        b_perturbed = [row.ermakov_b_final for row in perturbed[1:]]
        assert [row.ermakov_b_final for row in nominal[1:]] == b_perturbed
        ramp = make_trajectory(device_params, t_final)
        scales = [perturb_trajectory(ramp, epsilon).f_scale for epsilon in grid]
        assert dynamics._adiabatic_segment(ramp.spec, scales, 1e-10) == (0.0, [])
        assert dynamics._adiabatic_segment(ramp.spec, scales[1:], 1e-10)[0] > 0.0
        alone = run_sweep(device_params, [t_final], grid[1:])
        assert [row.ermakov_b_final for row in alone] == pytest.approx(b_perturbed, rel=1e-9, abs=0.0)
        monkeypatch.setattr(dynamics, "_adiabatic_segment", lambda *args: (0.0, []))
        marched = run_sweep(device_params, [t_final], grid[1:])
        assert ([row.ermakov_b_final for row in marched] == b_perturbed) == (missing == -1.2)

    def test_one_march_per_row(self, device_params, monkeypatch):
        calls = []
        propagate = robustness.propagate_row

        def counted(ramps, *args):
            calls.append((len(ramps), ramps[0].t_final, args))
            return propagate(ramps, *args)

        monkeypatch.setattr(robustness, "propagate_row", counted)
        rows = run_sweep(device_params, [0.5, 1.0], [-0.1, 0.0, 0.1], SweepOptions(tolerance=1e-10))
        assert len(rows) == 6 and all(row.status == "ok" for row in rows)
        assert calls == [(3, 0.5, (1e-10,)), (3, 1.0, (1e-10,))]

    @pytest.mark.parametrize(
        "t_final,epsilons",
        [(0.5, [-0.1, 0.0, 0.1]), (1.0, [-0.1, 0.0, 0.1]), (2.0, [-0.1, 0.0, 0.1]),
         (1.0, [-1e-2, -1e-3, -1e-4, 0.0, 1e-4, 1e-3, 1e-2]), (0.5, [-0.9, 0.0, 3.0])],
    )
    def test_every_lane_as_accurate_as_alone(self, device_params, t_final, epsilons):
        # the default grid's rows, the small-error row and a row of far-apart gains, whose
        # +3 lane misses by 1.9e-6 if the steps follow the smallest error estimate: each
        # lane of the shared march against its own one-lane march at tol 1e-13
        row = sweep_row(device_params, t_final, epsilons)
        for cell, epsilon in zip(row, epsilons):
            (reference,) = sweep_row(device_params, t_final, [epsilon], SweepOptions(tolerance=1e-13))
            assert cell.status == reference.status == "ok"
            assert cell.n_bar_final == pytest.approx(reference.n_bar_final, rel=1e-9, abs=0.0)
            assert cell.ermakov_b_final == pytest.approx(reference.ermakov_b_final, rel=1e-9, abs=0.0)

    def test_unperturbed_cell_agrees_with_simulate(self):
        # the cell marches; simulate writes the invariant's closed form
        cfg = load_config(None)
        _, n_final, failure = cli._ramp_blocks(cfg, cli._SIMULATE_TABLES, 0.5, linspace(0.0, 0.5, cfg.protocol.sample_count))
        assert failure is None
        cell, = run_sweep(cfg.physical, [0.5], [0.0], SweepOptions(tolerance=cfg.protocol.tolerance))
        assert cell.n_bar_final == pytest.approx(n_final, rel=1e-12)

    def test_small_error_envelope(self, device_params):
        # occupation deviation grows monotonically with the drive error
        epsilons = [-1e-2, -1e-3, -1e-4, 0.0, 1e-4, 1e-3, 1e-2]
        rows = run_sweep(device_params, [1.0], epsilons, SweepOptions(tolerance=1e-10))
        ref = next(r for r in rows if r.epsilon == 0.0).n_bar_final
        dev = {r.epsilon: abs(r.n_bar_final - ref) for r in rows}
        for sign in (-1.0, 1.0):
            ladder = [dev[sign * 1e-4], dev[sign * 1e-3], dev[sign * 1e-2]]
            assert ladder[0] < ladder[1] < ladder[2]
        assert dev[1e-4] < 1e-3

    def test_failed_cell_recorded_and_sweep_continues(self, device_params):
        # epsilon = -1.2 inverts the potential at t = 0 for the perturbed
        # initial-state convention: no thermal start state exists there
        rows = run_sweep(
            device_params,
            [0.5],
            [-1.2, 0.0],
            SweepOptions(tolerance=1e-9, initial_state="perturbed"),
        )
        assert rows[0].failed
        assert "start frequency" in rows[0].status
        assert math.isnan(rows[0].n_bar_final)
        assert not rows[1].failed

    def test_perturbed_initial_state_convention(self, device_params):
        nominal, = run_sweep(device_params, [0.5], [0.1], SweepOptions(tolerance=1e-9))
        perturbed, = run_sweep(
            device_params, [0.5], [0.1], SweepOptions(tolerance=1e-9, initial_state="perturbed")
        )
        assert nominal.status == perturbed.status == "ok"
        # different start state, different endpoint, same qualitative claim
        assert nominal.n_bar_final != perturbed.n_bar_final
        assert perturbed.n_bar_final < 1.0

    def test_empty_grids_rejected(self, device_params):
        with pytest.raises(ValueError):
            run_sweep(device_params, [], [0.0])
        with pytest.raises(ValueError):
            run_sweep(device_params, [1.0], [])

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SweepOptions(initial_state="midway")
        with pytest.raises(ValueError):
            SweepOptions(tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan])
    def test_non_finite_tolerance_is_refused(self, device_params, tolerance):
        # an infinite tolerance accepted every step: the t_f 0.5, eps 0 cell read n_bar 0.5419, status ok
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            SweepOptions(tolerance=tolerance)
        ramp = make_trajectory(device_params, 0.5)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            propagate_row([ramp], tolerance)


class TestOverflow:
    def test_overflowing_cells_fail_and_the_sweep_continues(self, device_params):
        rows = run_sweep(device_params, [2.0], [-1.2, -1.23, -1.25, -2.0, 0.0])
        assert [row.status == "ok" for row in rows] == [True, True, False, False, True]
        # a thermal start has xp = 0: the overflowed moments read inf, not the nan of inf * 0
        assert rows[2].status == "integration failed: second moments overflowed: xx=inf, pp=inf (at t = 2)"
        assert rows[3].status.startswith("integration failed: transfer matrix overflowed")
        for row in rows[2:4]:
            assert all(math.isnan(v) for v in (row.n_bar_final, row.t_eff_final, row.ermakov_b_final))
        # the largest drive error that still fits in a double keeps its bits
        assert repr(rows[0]) == (
            "SweepResult(epsilon=-1.2, t_final=2.0, n_bar_final=1.893190571245079e+284, "
            "t_eff_final=1.217508151825774e+279, state_omega_final=0.4655257712037499, "
            "ermakov_b_final=1.0641554904675688e+144, status='ok')"
        )

    def test_failed_row_marches_cell_by_cell(self, device_params):
        # the -2 lane overflows the shared march's matrix: every cell is then its
        # one-lane self, status and bits (-1.25 overflows only its own moments)
        epsilons = [-1.2, -1.25, -2.0, 0.0]
        alone = [sweep_row(device_params, 2.0, [epsilon])[0] for epsilon in epsilons]
        assert repr(sweep_row(device_params, 2.0, epsilons)) == repr(alone)
        assert [cell.status == "ok" for cell in alone] == [True, False, False, True]

    def test_finite_cell_past_the_squares_range(self, device_params):
        # at epsilon = -1.23 the occupation (~7e304) and b (~2e154) are finite,
        # but kB ln(1 + 1/n) and b^2 are not: neither may crash nor read inf
        nominal = make_trajectory(device_params, 2.0)
        state0 = thermal_state(device_params, nominal.spec.omega0_sq, device_params.bath_temperature)
        _, m = propagate_transfer(perturb_trajectory(nominal, -1.23), state0, 0.0, 2.0)
        cell, = run_sweep(device_params, [2.0], [-1.23])
        assert cell.status == "ok" and 1e304 < cell.n_bar_final < math.inf
        ratio = HBAR * device_params.bare_frequency / BOLTZMANN
        assert cell.t_eff_final == pytest.approx(ratio * cell.n_bar_final, rel=1e-12)
        b = math.hypot(m.m11, math.sqrt(nominal.spec.omega0_sq) * m.m12)
        assert 1e154 < cell.ermakov_b_final == pytest.approx(b, rel=1e-15)

    def test_overflowing_occupation_fails_the_cell(self):
        # finite moments near 1e308 whose energy pp/2 + xx/2 overflows; the
        # cell must not hand an infinite occupation to effective_temperature.
        # The moments scale with the start's nbar + 1/2, so a hot bath takes
        # the epsilon = -1.2 end state (xx ~ 3e284 at 20 mK) to the brink
        params = make_params(bath_temperature=1.15e22)
        nominal = make_trajectory(params, 2.0)
        state0 = thermal_state(params, nominal.spec.omega0_sq, params.bath_temperature)
        final, _ = propagate_transfer(perturb_trajectory(nominal, -1.2), state0, 0.0, 2.0)
        assert final.xx < math.inf and final.xx + final.pp == math.inf
        (cell,) = sweep_row(params, 2.0, [-1.2], SweepOptions())
        assert cell.status == "integration failed: occupation overflowed (at t = 2)"


class TestReference:
    def test_rows_meet_the_extended_precision_reference(self):
        # reproduce's rows at the default tolerance against the mpmath end points that
        # perfbench/make_reference.py wrote: at worst 2.8e-11 (n, t_f 0.5, epsilon 0.1) and
        # 3.3e-11 (b, t_f 2, epsilon 0), each row after its adiabatic segment
        params = load_config(None).physical
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        cells = json.loads(path.read_text(encoding="utf-8"))["cells"]
        epsilons = [-0.1, 0.0, 0.1]
        for t_final in sorted({cell["t_final"] for cell in cells}):
            nominal = make_trajectory(params, t_final)
            ramps = [perturb_trajectory(nominal, epsilon) for epsilon in epsilons]
            assert all(abs(m.det - 1.0) <= 1e-13 for m in propagate_row(ramps))
            row = dict(zip(epsilons, sweep_row(params, t_final, epsilons)))
            state0 = thermal_state(params, nominal.spec.omega0_sq, params.bath_temperature)
            for cell in (c for c in cells if c["t_final"] == t_final):
                ramp = perturb_trajectory(nominal, cell["epsilon"])
                inputs = (nominal.spec.chi, nominal.spec.omega0_sq, ramp.f_scale, state0.xx, state0.pp)
                assert inputs == tuple(cell[k] for k in ("chi", "omega0_sq", "f_scale", "xx0", "pp0"))
                result = row[cell["epsilon"]]
                assert result.n_bar_final == pytest.approx(float(cell["n_bar_final"]), rel=1e-10, abs=0.0)
                assert result.ermakov_b_final == pytest.approx(float(cell["b_final"]), rel=1e-10, abs=0.0)


def test_sweep_result_failed_property():
    ok = SweepResult(0.0, 1.0, 0.47, 6e-6, 1.0, 59.5)
    bad = SweepResult(0.0, 1.0, math.nan, math.nan, math.nan, math.nan, status="boom")
    assert not ok.failed
    assert bad.failed
