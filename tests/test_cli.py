import ast
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import biascool
from biascool import cli, dynamics
from biascool.cli import main
from biascool.config import DEFAULT_CONFIG, load_config
from biascool.design import ControlTrajectory, make_trajectory
from biascool.dynamics import IntegrationError, TransferMatrix, thermal_state
from biascool.physical import FIELD_UNITS
from biascool.robustness import perturb_trajectory
from biascool.thermometry import effective_temperature, occupation_from_state

from conftest import CHI_DEFAULT, NBAR_COLD, OMEGA0_DEFAULT, TEFF_FINAL

# one ramp and a coarse grid keep the CLI tests quick
FAST_LINES = {
    "t_final = 0.5, 1.0, 2.0": "t_final = 1.0",
    "sample_count = 201": "sample_count = 41",
}


def fast_config(tmp_path, **replacements):
    text = DEFAULT_CONFIG
    for old, new in {**FAST_LINES, **replacements}.items():
        assert old in text, old
        text = text.replace(old, new)
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    return header, rows


def column(path, name):
    header, rows = read_csv(path)
    idx = header.index(name)
    return [row[idx] for row in rows]


def object_path_rows(cfg, t_final):
    """``_simulate_rows`` built the per-object way: a TransferMatrix and a
    GaussianState per sample, then occupation_from_state and
    effective_temperature on each state."""
    params = cfg.physical
    traj = make_trajectory(params, t_final)
    state0 = thermal_state(params, traj.spec.omega0_sq, params.bath_temperature)
    times = np.linspace(0.0, t_final, cfg.protocol.sample_count).tolist()
    emitted = []
    try:
        dynamics._integrate_transfer(
            traj.frequency_sq_fn(), 0.0, t_final, cfg.protocol.tolerance, times[1:], emitted
        )
    except IntegrationError:
        pass
    states = [state0] + [TransferMatrix(*m).apply(state0, time=t) for t, m in zip(times[1:], emitted)]
    rows = []
    for state in states:
        w_ref = traj.omega_eff_sq(state.time)
        n_inst = t_eff = math.nan
        if w_ref > 0.0:
            n_inst = occupation_from_state(state, w_ref)
            t_eff = effective_temperature(math.sqrt(w_ref) * params.bare_frequency, n_inst)
        n_bare = occupation_from_state(state, 1.0)
        rows.append((state.time, n_inst, n_bare, t_eff, state.xx, state.pp, state.xp))
    return rows


class TestParams:
    def test_prints_protocol_numbers(self, capsys, tmp_path):
        assert main(["params", "--config", str(fast_config(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "1.25113e+07" in out
        assert "3109.44" in out
        assert "0.472024" in out
        assert "59.4738" in out

    def test_default_config_used_when_omitted(self, capsys):
        assert main(["params"]) == 0
        assert "3537.13" in capsys.readouterr().out

    def test_zero_drive_device(self, capsys, tmp_path):
        cfg = fast_config(tmp_path, **{"voltage_amplitude = 7.00 V": "voltage_amplitude = 0 V"})
        assert main(["params", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "coupling eta                = 0" in out
        # occupations at omega_m and omega_0 coincide
        assert out.count("3109.44") == 2


class TestDesign:
    def test_series_files_and_boundaries(self, tmp_path):
        out = tmp_path / "out"
        cfg = fast_config(tmp_path)
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
        f_values = column(out / "f_t_tf1.csv", "value")
        assert f_values[0] == "1"
        assert abs(float(f_values[-1])) < 1e-9
        omega = [float(v) for v in column(out / "omega_eff_t_tf1.csv", "value")]
        assert omega[0] == pytest.approx(OMEGA0_DEFAULT, rel=1e-9)
        assert omega[-1] == pytest.approx(1.0, rel=1e-9)
        b = [float(v) for v in column(out / "b_t_tf1.csv", "value")]
        assert b[0] == 1.0
        assert b[-1] == pytest.approx(CHI_DEFAULT, rel=1e-12)
        assert b[len(b) // 2] == pytest.approx((CHI_DEFAULT + 1.0) / 2.0, rel=1e-10)

    def test_sample_override(self, tmp_path):
        out = tmp_path / "out"
        cfg = fast_config(tmp_path)
        assert main(["design", "--config", str(cfg), "--out", str(out), "--samples", "11"]) == 0
        _, rows = read_csv(out / "f_t_tf1.csv")
        assert len(rows) == 11

    def test_flags_before_the_command(self, tmp_path):
        out = tmp_path / "out"
        cfg = fast_config(tmp_path)
        assert main(["--samples", "11", "--out", str(out), "design", "--config", str(cfg)]) == 0
        _, rows = read_csv(out / "f_t_tf1.csv")
        assert len(rows) == 11

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        cfg = fast_config(tmp_path, **{"format = csv": "format = json"})
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "f_t_tf1.json").read_text(encoding="utf-8"))
        assert payload["columns"] == ["t_omega_m", "value"]
        assert payload["rows"][0][1] == "1"

    def test_precision_knob_limits_significant_digits(self, tmp_path):
        out = tmp_path / "out"
        cfg = fast_config(tmp_path, **{"precision = 12": "precision = 6"})
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
        omega = column(out / "omega_eff_t_tf1.csv", "value")
        assert omega[0] == "3537.13"
        digits = max(len(v.split("e")[0].replace(".", "").lstrip("-0")) for v in omega)
        assert digits <= 6


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    out = tmp / "out"
    cfg = fast_config(tmp)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_effective_temperature_endpoints(self, sim_dir):
        t_eff = [float(v) for v in column(sim_dir / "t_eff_t_tf1.csv", "value")]
        assert t_eff[0] == pytest.approx(0.02, rel=1e-9)
        assert t_eff[-1] == pytest.approx(TEFF_FINAL, rel=1e-6)

    def test_occupation_endpoint_preserved(self, sim_dir):
        n_bare = [float(v) for v in column(sim_dir / "n_bar_t_tf1.csv", "n_bar_ref_omega_m")]
        assert abs(n_bare[-1] - NBAR_COLD) < 1e-3

    def test_purity_column_constant(self, sim_dir):
        purity = [float(v) for v in column(sim_dir / "moments_t_tf1.csv", "purity")]
        spread = (max(purity) - min(purity)) / purity[0]
        assert spread < 1e-8

    @pytest.mark.parametrize("t_final", [0.1, 1.0, 8.0])
    def test_vector_reference_frequency_equals_scalar_calls(self, t_final):
        # the per-row reference frequency comes from one vector call
        traj = make_trajectory(load_config(None).physical, t_final)
        times = np.linspace(0.0, t_final, 4001).tolist()
        vector = traj.omega_eff_sq(np.array(times)).tolist()
        assert vector == [traj.omega_eff_sq(t) for t in times]


    def test_failed_march_writes_the_rows_it_reached(self, tmp_path, capsys, monkeypatch):
        # one propagation; its partial states are the rows, all before the failure
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 2000)
        marches = 0
        march = dynamics._integrate_transfer

        def counted(*args, **kwargs):
            nonlocal marches
            marches += 1
            return march(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_integrate_transfer", counted)
        out = tmp_path / "out"
        cfg = fast_config(tmp_path, **{"t_final = 1.0": "t_final = 8.0"})
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert marches == 1
        assert "budget" in capsys.readouterr().err
        for stem in ("n_bar_t", "t_eff_t", "moments_t"):
            lines = (out / f"{stem}_tf8.csv").read_text(encoding="utf-8").splitlines()
            error_line = lines[-1]
            assert error_line.startswith("# integration_error:")
            failed_at = float(re.search(r"at t = ([^)]+)\)", error_line).group(1))
            times = [float(t) for t in column(out / f"{stem}_tf8.csv", "t_omega_m")]
            assert 1 <= len(times) < 41
            assert all(t < failed_at for t in times)

    def test_failed_march_marks_json_tables(self, tmp_path, capsys, monkeypatch):
        # JSON tables carry the failure as a "note" key, as CSV does as a trailer
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 2000)
        out = tmp_path / "out"
        cfg = fast_config(tmp_path, **{"t_final = 1.0": "t_final = 8.0", "format = csv": "format = json"})
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        error = capsys.readouterr().err.strip().removeprefix("error: ")
        for stem in ("n_bar_t", "t_eff_t", "moments_t"):
            payload = json.loads((out / f"{stem}_tf8.json").read_text(encoding="utf-8"))
            assert payload["note"] == f"integration_error: {error}"
            assert 1 <= len(payload["rows"]) < 41

    @pytest.mark.parametrize("t_final,max_steps", [(0.1, None), (1.0, None), (8.0, None), (8.0, 2000)])
    def test_rows_equal_the_object_path_bit_for_bit(self, tmp_path, monkeypatch, t_final, max_steps):
        # t_f 0.1 has inverted windows; _MAX_STEPS 2000 fails the t_f 8 march part way
        if max_steps is not None:
            monkeypatch.setattr(dynamics, "_MAX_STEPS", max_steps)
        cfg = load_config(fast_config(tmp_path, **{"sample_count = 201": "sample_count = 4001"}))
        rows, matrix, failure = cli._simulate_rows(cfg, t_final)
        expected = object_path_rows(cfg, t_final)
        assert (failure is None) == (matrix is not None) == (max_steps is None)
        assert (len(rows) == 4001) == (max_steps is None) and len(rows) > 1
        assert [list(map(repr, row)) for row in rows] == [list(map(repr, row)) for row in expected]

    def test_one_ramp_builds_no_object_per_sample(self, tmp_path, monkeypatch):
        # the moment rows go straight into the tables: the count of states
        # and matrices a ramp builds does not grow with its samples
        built = {dynamics.GaussianState: 0, TransferMatrix: 0}
        for cls, method in ((dynamics.GaussianState, "__post_init__"), (TransferMatrix, "__init__")):
            def counted(self, *args, _cls=cls, _original=getattr(cls, method), **kwargs):
                built[_cls] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, counted)
        counts = []
        for samples in (41, 4001):
            cfg = load_config(fast_config(tmp_path, **{"sample_count = 201": f"sample_count = {samples}"}))
            built.update(dict.fromkeys(built, 0))
            rows, _, failure = cli._simulate_rows(cfg, 1.0)
            assert failure is None and len(rows) == samples
            counts.append(dict(built))
        assert counts[0] == counts[1]
        assert all(1 <= n <= 2 for n in counts[1].values())

    def test_overflowing_march_writes_the_rows_before_it(self, tmp_path, capsys, monkeypatch):
        # a drive error of -200 % overflows the moments part way through the ramp
        make = cli.make_trajectory
        monkeypatch.setattr(
            cli, "make_trajectory", lambda params, t_final: perturb_trajectory(make(params, t_final), -2.0)
        )
        out = tmp_path / "out"
        cfg = fast_config(tmp_path, **{"t_final = 1.0": "t_final = 2.0"})
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "second moments overflowed" in err
        assert "Traceback" not in err
        for stem in ("n_bar_t", "t_eff_t", "moments_t"):
            lines = (out / f"{stem}_tf2.csv").read_text(encoding="utf-8").splitlines()
            assert lines[-1] == f"# integration_error: {err.strip().removeprefix('error: ')}"
            failed_at = float(re.search(r"at t = ([^)]+)\)", lines[-1]).group(1))
            times = [float(t) for t in column(out / f"{stem}_tf2.csv", "t_omega_m")]
            assert 1 <= len(times) < 41 and all(t < failed_at for t in times)
            assert "inf" not in "".join(lines[1:-1])

    def test_overflowing_occupation_ends_the_rows(self, tmp_path, monkeypatch):
        # finite moments whose energy overflows end the series like a failed march
        def huge_moments(traj, state0, times, tol):
            rows = [(0.0, state0.xx, state0.pp, state0.xp), (times[1], 1e308, 1e308, 0.0)]
            return rows, TransferMatrix(1.0, 0.0, 0.0, 1.0)

        monkeypatch.setattr(cli, "moment_series", huge_moments)
        rows, matrix, failure = cli._simulate_rows(load_config(fast_config(tmp_path)), 1.0)
        assert len(rows) == 1 and matrix is None
        assert str(failure) == "occupation overflowed (at t = 0.025)"


class TestSweep:
    def test_schema_and_exact_match_with_simulate(self, tmp_path):
        out = tmp_path / "out"
        cfg = fast_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == [
            "epsilon",
            "t_final",
            "n_bar_final",
            "t_eff_final_K",
            "state_omega_final",
            "ermakov_b_final",
            "status",
            "target_t_eff_K",
            "target_state_omega",
        ]
        assert all(row[6] == "ok" for row in rows)
        by_eps = {row[0]: row for row in rows}
        # the unperturbed sweep cell and the simulated series share the
        # same marching, so the formatted occupations match exactly
        n_bare_series = column(out / "n_bar_t_tf1.csv", "n_bar_ref_omega_m")
        assert by_eps["0"][2] == n_bare_series[-1]
        assert float(by_eps["0"][3]) == pytest.approx(TEFF_FINAL, rel=1e-9)
        # target columns populated on the study points
        assert by_eps["0.1"][7] == "7e-06" and by_eps["0.1"][8] == "1.23"
        assert by_eps["-0.1"][7] == "5e-06" and by_eps["-0.1"][8] == "0.84"

    def test_ground_state_reached_under_error(self, tmp_path):
        out = tmp_path / "out"
        cfg = fast_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "sweep.csv")
        for row in rows:
            if abs(float(row[0])) == 0.1:
                assert float(row[2]) < 1.0

    def test_overflowing_cells_exit_2(self, tmp_path, capsys):
        # one error line per overflowed cell, no traceback; the other cells are written
        out = tmp_path / "out"
        cfg = fast_config(
            tmp_path,
            **{"t_final = 1.0": "t_final = 2.0", "epsilon = -0.1, 0.0, 0.1": "epsilon = -1.2, -1.25, -2.0, 0.0"},
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ", 2)[:2] for line in err] == [
            ["error", "eps=-1.25 t_final=2.0"], ["error", "eps=-2.0 t_final=2.0"]
        ]
        assert all("integration failed" in line and "overflowed" in line for line in err)
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1] == (
            "-1.2,2,1.89319056819e+284,1.21750814986e+279,0.46552577115,1.06415548963e+144,ok,,"
        )
        assert lines[4].split(",")[6] == "ok"


class TestReproduce:
    def test_manifest_deterministic_and_checks_pass(self, tmp_path):
        out = tmp_path / "out"
        cfg = fast_config(tmp_path)
        assert main(["reproduce", "--config", str(cfg), "--out", str(out)]) == 0
        manifest_path = out / "manifest.json"
        first = manifest_path.read_bytes()
        manifest = json.loads(first)
        assert manifest["all_passed"] is True
        # one ramp: 3 design + 3 simulate files, plus sweep and report
        assert len(manifest["files"]) == 8
        assert all(len(digest) == 64 for digest in manifest["files"].values())
        names = {entry["name"] for entry in manifest["checks"]}
        assert {"eta", "n_bar_hot", "n_bar_cold", "t_eff_final_tf1", "occupation_drift_tf1"} <= names

        assert main(["reproduce", "--config", str(cfg), "--out", str(out)]) == 0
        assert manifest_path.read_bytes() == first

    def test_default_config_full_bundle(self, tmp_path):
        # all three ramps: 3 design + 3 simulate file sets, sweep, report
        out = tmp_path / "out"
        assert main(["reproduce", "--out", str(out), "--samples", "41"]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        files = set(manifest["files"])
        for label in ("tf0.5", "tf1", "tf2"):
            for stem in ("f_t", "omega_eff_t", "b_t", "n_bar_t", "t_eff_t", "moments_t"):
                assert f"{stem}_{label}.csv" in files
        assert "sweep.csv" in files and "report.json" in files
        assert len(files) == 20
        assert manifest["all_passed"] is True

    def test_sweep_reuses_the_simulated_marches(self, tmp_path, monkeypatch):
        # work counters: 3 simulate marches and the 6 perturbed sweep cells;
        # the epsilon = 0 cells apply simulate's matrices (12 marches before)
        marches = evaluations = 0
        integrate = dynamics._integrate_transfer
        profile = ControlTrajectory.frequency_sq_fn

        def counted_march(*args, **kwargs):
            nonlocal marches
            marches += 1
            return integrate(*args, **kwargs)

        def counted_profile(traj):
            w = profile(traj)

            def counted(t):
                nonlocal evaluations
                evaluations += 1
                return w(t)

            return counted

        # the counters live in this process, so every task must run here
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        handed = []
        run_tasks = cli._run_tasks

        def recorded(fn, items, costs):
            handed.append(list(costs))
            return run_tasks(fn, items, costs)

        monkeypatch.setattr(cli, "_run_tasks", recorded)
        monkeypatch.setattr(dynamics, "_integrate_transfer", counted_march)
        monkeypatch.setattr(ControlTrajectory, "frequency_sq_fn", counted_profile)
        assert main(["reproduce", "--out", str(tmp_path / "out")]) == 0
        assert marches == 9
        assert evaluations <= 93_270  # 123,787 when every cell marched
        # 3 ramp tasks, then 9 cell tasks; the 3 epsilon = 0 cells cost nothing
        assert [len(costs) for costs in handed] == [3, 9]
        assert handed[1].count(0.0) == 3

    def test_failing_target_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = fast_config(tmp_path, **{"voltage_amplitude = 7.00 V": "voltage_amplitude = 5 V"})
        assert main(["reproduce", "--config", str(cfg), "--out", str(out)]) == 3
        assert "FAIL" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["all_passed"] is False

    def test_overflowing_sweep_cell_exits_2_after_the_checks(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = fast_config(
            tmp_path,
            **{"t_final = 1.0": "t_final = 2.0", "epsilon = -0.1, 0.0, 0.1": "epsilon = -0.1, 0.0, 0.1, -1.25"},
        )
        assert main(["reproduce", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        (error,) = captured.err.splitlines()
        assert error.startswith("error: eps=-1.25 t_final=2.0: integration failed: second moments overflowed")
        assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["all_passed"] is True


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["params", "--config", str(tmp_path / "absent.cfg")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("mass = 40 stone\n", encoding="utf-8")
        assert main(["params", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "mass" in err and "bad.cfg:1" in err

    def test_design_without_drive_authority(self, tmp_path, capsys):
        cfg = fast_config(tmp_path, **{"voltage_amplitude = 7.00 V": "voltage_amplitude = 0 V"})
        assert main(["design", "--config", str(cfg)]) == 1
        assert "eta" in capsys.readouterr().err

    def test_inverting_coupling_is_a_config_error(self, tmp_path, capsys):
        # eta <= -1: the full drive inverts the potential, there is no start state
        cfg = fast_config(tmp_path, **{"voltage_amplitude = 7.00 V": "voltage_amplitude = -7.00 V"})
        assert main(["params", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "eta" in err and "<= -1" in err and "Traceback" not in err

    def test_tolerance_override_validated(self, tmp_path, capsys):
        cfg = fast_config(tmp_path)
        assert main(["design", "--config", str(cfg), "--tol", "0.5"]) == 1
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "t_final", ["inf", "nan", "1e300", "0.5, 0.5000000000001", "1.0, 1.0", "1e-200", "1e-160"]
    )
    def test_unusable_ramp_time_is_a_config_error(self, tmp_path, capsys, t_final):
        cfg = fast_config(tmp_path, **{"t_final = 1.0": f"t_final = {t_final}"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["params", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "t_final" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["params", "sweep"])
    @pytest.mark.parametrize(
        "device",
        [
            {"bath_temperature = 20 mK": "bath_temperature = inf"},
            {"charge_density = 1.25e13 /cm^2": "charge_density = inf"},
            {"capacitance = 27.5 nF": "capacitance = inf"},
            # finite inputs whose coupling eta overflows
            {"capacitance = 27.5 nF": "capacitance = 1e300 F",
             "voltage_amplitude = 7.00 V": "voltage_amplitude = 1e300 V"},
        ],
        ids=["bath_temperature", "charge_density", "capacitance", "eta_overflow"],
    )
    def test_non_finite_device_is_a_config_error(self, tmp_path, capsys, command, device):
        cfg = fast_config(tmp_path, **{"epsilon = -0.1, 0.0, 0.1": "epsilon = 0.0", **device})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_extreme_finite_inputs_end_without_traceback(self, tmp_path, capsys):
        # every device key at the edges of the float range: an eta out of
        # range is a config error, k_B T underflowing is the T -> 0 limit
        device_lines = [line for line in DEFAULT_CONFIG.splitlines() if line.split(" = ")[0] in FIELD_UNITS]
        assert len(device_lines) == 9
        for line in device_lines:
            key = line.split(" = ")[0]
            for value in ("5e-324", "1e-300", "1e-200", "1e200", "1e300", "1.7e308"):
                cfg = fast_config(tmp_path, **{line: f"{key} = {value}"})
                assert main(["params", "--config", str(cfg)]) in (0, 1), (key, value)
                assert len(capsys.readouterr().err.splitlines()) <= 1, (key, value)
        # a perturbed start frequency that overflows fails its cell before any march
        cfg = fast_config(tmp_path, **{
            "t_final = 1.0": "t_final = 0.5",
            "epsilon = -0.1, 0.0, 0.1": "epsilon = 1e308",
            "initial_state = nominal": "initial_state = perturbed",
        })
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "start frequency squared inf is not finite" in err
        # a config file that is not UTF-8: a Latin-1 micro sign in a comment
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(DEFAULT_CONFIG.replace("3.15 um", "3.15 um  # 3.15 \xb5m").encode("latin-1"))
        assert main(["params", "--config", str(latin1)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["params", "simulate"])
    @pytest.mark.parametrize(
        "device",
        [
            # hbar omega_m / kB T underflows to 0
            {"bare_frequency = 134 kHz": "bare_frequency = 1e-20",
             "bath_temperature = 20 mK": "bath_temperature = 1e300"},
            # hbar omega_m / kB T is subnormal, so 1/expm1 overflows
            {"coulomb_k = 8.988e9": "coulomb_k = 5e-324",
             "bath_temperature = 20 mK": "bath_temperature = 1.7e308"},
        ],
        ids=["x_underflows_to_zero", "occupation_overflows"],
    )
    def test_occupation_beyond_the_float_range_is_a_config_error(self, tmp_path, capsys, command, device):
        cfg = fast_config(tmp_path, **device)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_huge_ramp_time_is_a_numeric_error(self, tmp_path, capsys, command):
        # a finite ramp far beyond the step budget fails at once, not after ages
        cfg = fast_config(
            tmp_path, **{"t_final = 1.0": "t_final = 1e150", "epsilon = -0.1, 0.0, 0.1": "epsilon = 0.0"}
        )
        start = time.perf_counter()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_non_finite_epsilon_is_a_config_error(self, tmp_path, capsys):
        cfg = fast_config(tmp_path, **{"epsilon = -0.1, 0.0, 0.1": "epsilon = nan"})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "epsilon" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag,value,key",
        [
            ("--samples", "1.5", "sample_count"),
            ("--tol", "abc", "tolerance"),
            ("--out", "", "output_dir"),
            ("--out", " ", "output_dir"),
        ],
    )
    def test_malformed_flag_value_is_a_config_error(self, capsys, flag, value, key):
        # a flag's text is parsed as the config key it sets
        assert main(["params", flag, value]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error:") and key in err

    @pytest.mark.parametrize(
        "argv", [[], ["simulat"], ["params", "--bogus"], ["params", "--out"], ["params", "extra"]]
    )
    def test_usage_error_exits_1(self, capsys, argv):
        assert main(argv) == 1
        assert "usage: biascool" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["params", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        assert main(argv) == 0
        assert "biascool" in capsys.readouterr().out

    def test_unknown_command_exits_1_in_a_fresh_process(self):
        src = str(Path(biascool.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "biascool.cli", "simulat"], env=env, capture_output=True, text=True
        )
        assert run.returncode == 1
        assert "invalid choice: 'simulat'" in run.stderr and "Traceback" not in run.stderr


def test_commands_are_declared_once_and_documented():
    # the parser's choices are _COMMANDS; the help text and README list the same
    (command,) = [action for action in cli._build_parser()._actions if action.dest == "command"]
    assert list(command.choices) == list(cli._COMMANDS)
    listed = cli.__doc__.split("commands:\n", 1)[1].split("\n\n", 1)[0]
    assert [line.split()[0] for line in listed.splitlines()] == list(cli._COMMANDS)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    assert [line.split()[1] for line in block.splitlines()] == list(cli._COMMANDS)


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only the test oracles; the CLI must start without it
    src = str(Path(biascool.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, biascool.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_unloaded():
    # the CLI runs on the standard library; numpy serves the tests and the benchmark
    src = str(Path(biascool.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, biascool.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_command_runs_with_numpy_blocked(tmp_path):
    # a minimal install: importing numpy fails, and each command still exits 0 with its files
    src = str(Path(biascool.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfg = fast_config(tmp_path)
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from biascool.cli import main\n"
        "for command in sys.argv[2:]:\n"
        "    print(command, main([command, '--config', sys.argv[1], '--out', command]))\n"
    )
    commands = ["params", "design", "simulate", "sweep", "reproduce"]
    run = subprocess.run(
        [sys.executable, "-c", code, str(cfg), *commands],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
    codes = dict(line.split() for line in run.stdout.splitlines() if line.split()[0] in commands)
    assert codes == dict.fromkeys(commands, "0")
    assert "coupling eta" in run.stdout
    written = {command: sorted(p.name for p in (tmp_path / command).iterdir()) for command in commands[1:]}
    assert written["design"] == ["b_t_tf1.csv", "f_t_tf1.csv", "omega_eff_t_tf1.csv"]
    assert written["simulate"] == ["moments_t_tf1.csv", "n_bar_t_tf1.csv", "t_eff_t_tf1.csv"]
    assert written["sweep"] == ["sweep.csv"]
    manifest = json.loads((tmp_path / "reproduce" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["all_passed"] and len(manifest["files"]) == 8


def test_scipy_is_a_test_only_dependency():
    # no module of the package imports scipy, and only the test extra asks
    # for it; numpy too is asked for by the test extra alone
    root = Path(__file__).resolve().parents[1]
    for path in (root / "src" / "biascool").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "scipy" not in [m.split(".")[0] for m in modules], path
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    groups = {"dependencies": project["dependencies"], **project["optional-dependencies"]}
    name = re.compile(r"[A-Za-z0-9_.-]+")
    for dependency in ("scipy", "numpy"):
        asking = [g for g, specs in groups.items() if any(name.match(s).group() == dependency for s in specs)]
        assert asking == ["test"], dependency
