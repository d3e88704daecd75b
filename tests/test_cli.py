import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import biascool
from biascool import cli, dynamics, thermometry
from biascool.cli import main
from biascool.config import DEFAULT_CONFIG, load_config
from biascool.design import (
    ControlTrajectory,
    b_polynomial,
    control_function,
    linspace,
    make_trajectory,
    signed_sqrt,
)
from biascool.dynamics import TransferMatrix, thermal_state
from biascool.outputs import format_rows
from biascool.physical import FIELD_UNITS

from conftest import CHI_DEFAULT, NBAR_COLD, OMEGA0_DEFAULT, TEFF_FINAL
import oracles
from oracles import propagate_covariance_ode, simulate_rows

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

    def test_shortest_ramp_and_exact_validation(self, capsys, tmp_path):
        # t_f* is printed and stored; the default ramps have no window and |f| <= 1 exactly
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "shortest ramp t_f*          = 0.33466342 / omega_m" in out
        for label in ("tf0.5", "tf1", "tf2"):
            assert f"ramp {label}: max|f| interior = 1, " in out and out.count("windows = 0") == 3
        cfg = fast_config(tmp_path, **{"t_final = 1.0": "t_final = 0.3346634"})
        assert main(["reproduce", "--config", str(cfg), "--out", str(tmp_path / "out"), "--samples", "41"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["shortest_t_final"] == pytest.approx(0.33466342, rel=2e-8)
        (validation,) = report["validation"].values()
        assert "n_samples" not in validation and len(validation["negative_omega_sq_windows"]) == 1


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


    @pytest.mark.parametrize("t_final", [0.1, 1.0, 8.0])
    def test_rows_equal_the_covariance_ode(self, tmp_path, t_final):
        # the closed-form rows against an independent DOP853 march; t_f 0.1 has inverted
        # windows.  At tol 1e-12 the worst row is 1.5e-11 off (pp at t_f 0.1)
        # (the oracle's rows: test_simulate_blocks_are_the_oracle_rows pins simulate's to them)
        cfg = load_config(fast_config(tmp_path))
        rows, failure = simulate_rows(cfg, t_final, linspace(0.0, t_final, cfg.protocol.sample_count))
        assert failure is None and len(rows) == 41
        params = cfg.physical
        traj = make_trajectory(params, t_final)
        state0 = thermal_state(params, traj.spec.omega0_sq, params.bath_temperature)
        times = [row[0] for row in rows]
        states = [state0] + propagate_covariance_ode(traj, state0, 0.0, t_final, tol=1e-12, t_eval=times[1:])
        for (t, _, _, _, xx, pp, xp, purity), state in zip(rows, states):
            assert (t, xx) == (state.time, pytest.approx(state.xx, rel=1e-10))
            assert pp == pytest.approx(state.pp, rel=1e-10)
            assert abs(xp - state.xp) <= 1e-10 * math.sqrt(xx * pp)
            assert purity == rows[0][-1] == pytest.approx(state0.xx * state0.pp, rel=1e-15)

    def test_one_ramp_builds_no_object_per_sample(self, tmp_path, monkeypatch):
        # the moments go straight into the tables: the count of states
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
            blocks, _, failure = cli._ramp_blocks(cfg, cli._SIMULATE_TABLES, 1.0, linspace(0.0, 1.0, samples))
            assert failure is None and [block.count("\n") for block in blocks] == [samples] * 3
            counts.append(dict(built))
        assert counts[0] == counts[1] == {dynamics.GaussianState: 1, TransferMatrix: 0}  # the start state

    def test_overflowing_occupation_ends_the_rows(self, tmp_path, capsys):
        # on a 1e150 K bath, b'^2 ~ 1e162 of a 1e-80 ramp overflows pp mid-ramp: the
        # rows before the first overflowed sample are written, with a note, and exit 2
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            cfg = fast_config(tmp_path, **{
                "t_final = 1.0": "t_final = 1e-80",
                "bath_temperature = 20 mK": "bath_temperature = 1e150",
                "format = csv": f"format = {fmt}",
            })
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("error: occupation overflowed (at t = ")
            failed_at = float(re.search(r"at t = ([^)]+)\)", err).group(1))
            note = f"integration_error: {err.strip().removeprefix('error: ')}"
            for stem in ("n_bar_t", "t_eff_t", "moments_t"):
                if fmt == "json":
                    payload = json.loads((out / f"{stem}_tf1e-80.json").read_text(encoding="utf-8"))
                    assert payload["note"] == note and 1 <= len(payload["rows"]) < 41
                    continue
                lines = (out / f"{stem}_tf1e-80.csv").read_text(encoding="utf-8").splitlines()
                assert lines[-1] == f"# {note}"
                times = [float(t) for t in column(out / f"{stem}_tf1e-80.csv", "t_omega_m")]
                assert 1 <= len(times) < 41 and all(t < failed_at for t in times)
                assert "inf" not in "".join(lines[1:-1])

    def test_purity_column_is_exact_on_short_ramps(self, tmp_path):
        # xx pp - xp^2 cancels catastrophically at t_f = 1e-9 (it read -512 to 512);
        # the column is the invariant's determinant, (nbar + 1/2)^2 of the start
        out = tmp_path / "out"
        cfg = fast_config(tmp_path, **{"t_final = 1.0": "t_final = 1e-9"})
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        purity = set(column(out / "moments_t_tf1e-09.csv", "purity"))
        assert len(purity) == 1 and float(purity.pop()) == pytest.approx((NBAR_COLD + 0.5) ** 2, rel=1e-12)

    @pytest.mark.parametrize("bath", ["1e160", "1e285"])
    def test_overflowing_purity_fails_the_ramp(self, tmp_path, capsys, bath):
        # (nbar + 1/2)^2 beyond the float range: one error line, exit 2, a note in each table
        out = tmp_path / "out"
        cfg = fast_config(tmp_path, **{"bath_temperature = 20 mK": f"bath_temperature = {bath}"})
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: purity (n_bar + 1/2)^2 overflowed (at t = 0)\n"
        for stem in ("n_bar_t", "t_eff_t", "moments_t"):
            lines = (out / f"{stem}_tf1.csv").read_text(encoding="utf-8").splitlines()
            assert lines[1:] == [f"# integration_error: {err.strip().removeprefix('error: ')}"]


def oracle_blocks(cfg, t_final, times):
    """``_ramp_blocks``' return for simulate's tables from the oracle's rows, rendered by ``format_rows``."""
    rows, failure = simulate_rows(cfg, t_final, times)
    blocks = [format_rows([[row[k] for k in cols] for row in rows], cfg.output.precision, cfg.output.format)
              for _, _, cols in cli._SIMULATE_TABLES]
    return blocks, rows[-1][2] if rows else None, failure


def outcome(fn, *args):
    """What ``fn(*args)`` gives, or its error's class and text."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def ranges(times):
    """Every contiguous range of ``times`` cut into 1 to 8 even pieces, and each sample alone."""
    n = len(times)
    for pieces in (*range(1, 9), n):
        cuts = [n * k // pieces for k in range(pieces + 1)]
        yield from (times[lo:hi] for lo, hi in zip(cuts, cuts[1:]))


class TestRampBlocks:
    """Each range's blocks, bit for bit, against ``format_rows`` over rows built call by call.

    At precision 17 every finite cell reads back as its float, so these
    pin each formula the single pass inlines to its source function.
    """

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("precision", [6, 17])
    @pytest.mark.parametrize("bath", ["20 mK", "1e-9 K", "1e150"])
    def test_simulate_blocks_are_the_oracle_rows(self, tmp_path, fmt, precision, bath):
        # t_f 0.1 has inverted windows (nan cells) and a 1 nK bath rounding-level occupations;
        # on the 1e150 K bath the t_f 1e-78 ramp overflows at sample 22 of 41, and each range
        # holding it has the rows before it and the message
        cfg = load_config(fast_config(tmp_path, **{
            "t_final = 0.5, 1.0, 2.0": "t_final = 1e-78, 0.5" if bath == "1e150" else "t_final = 0.1, 1.0, 8.0",
            "bath_temperature = 20 mK": f"bath_temperature = {bath}",
            "format = csv": f"format = {fmt}",
            "precision = 12": f"precision = {precision}",
        }))
        failures = set()
        for t_final in cfg.protocol.t_final:
            for times in ranges(linspace(0.0, t_final, 41)):
                blocks = cli._ramp_blocks(cfg, cli._SIMULATE_TABLES, t_final, times)
                assert blocks == oracle_blocks(cfg, t_final, times)
                failures.add(blocks[2])
        assert ("occupation overflowed (at t = 5.5e-79)" in failures) == (bath == "1e150")

    @pytest.mark.parametrize("edit", [
        {"bath_temperature = 20 mK": "bath_temperature = 1e160"},  # the purity overflows
        {"voltage_amplitude = 7.00 V": "voltage_amplitude = 0 V"},  # eta = 0: no drive
        {"bare_frequency = 134 kHz": "bare_frequency = 1e-200"},  # eta beyond the float range
    ])
    def test_simulate_failures_are_the_oracles(self, tmp_path, edit):
        cfg = load_config(fast_config(tmp_path, **edit))
        times = linspace(0.0, 1.0, 41)
        expected = outcome(oracle_blocks, cfg, 1.0, times)
        assert outcome(cli._ramp_blocks, cfg, cli._SIMULATE_TABLES, 1.0, times) == expected
        assert not isinstance(expected[0], list) or expected[2] is not None

    def test_a_negative_occupation_is_clamped_by_thermometry(self, tmp_path, monkeypatch):
        # a start of half the ground state's energy (n_bar = -1/4, past the start state's
        # check) gives occupations below the rounding budget: thermometry.occupation clamps
        # each to 0, with its warning
        cfg = load_config(fast_config(tmp_path))
        times = linspace(0.0, 1.0, 41)
        monkeypatch.setattr(thermometry, "thermal_occupation", lambda omega, temperature: -0.25)
        for module in (cli, oracles):
            monkeypatch.setattr(module, "thermal_state", lambda *args: None)
        given = {}
        for name, fn in (("simulate", partial(cli._ramp_blocks, cfg, cli._SIMULATE_TABLES)), ("oracle", partial(oracle_blocks, cfg))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                blocks = fn(1.0, times)
            given[name] = blocks, [str(w.message) for w in caught]
        assert given["simulate"] == given["oracle"]
        blocks, caught = given["simulate"]
        assert blocks[1] == 0.0 and caught and all(text.endswith("; clamping to 0") for text in caught)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("precision", [6, 17])
    def test_design_blocks_are_the_library_rows(self, tmp_path, fmt, precision):
        # f, omega_eff and b from control_function, omega_eff_sq with signed_sqrt and
        # b_polynomial; t_f 0.1 is inverted part way, so omega_eff goes negative
        cfg = load_config(fast_config(tmp_path, **{
            "t_final = 0.5, 1.0, 2.0": "t_final = 0.1, 1.0, 8.0",
            "format = csv": f"format = {fmt}",
            "precision = 12": f"precision = {precision}",
        }))
        for t_final in cfg.protocol.t_final:
            traj = make_trajectory(cfg.physical, t_final)
            for times in ranges(linspace(0.0, t_final, 41)):
                t = np.array(times)
                b, _, _ = b_polynomial(t / t_final, traj.spec.chi)
                omega_eff = [signed_sqrt(w) for w in traj.omega_eff_sq(t).tolist()]
                expected = [format_rows(zip(times, column), precision, fmt)
                            for column in (control_function(traj, t).tolist(), omega_eff, b.tolist())]
                assert cli._ramp_blocks(cfg, cli._DESIGN_TABLES, t_final, times) == (expected, None, None)


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
        ]
        assert all(len(row) == 7 and row[6] == "ok" for row in rows)
        by_eps = {row[0]: row for row in rows}
        # the unperturbed sweep cell's march and the simulated closed form
        # agree to ~1e-14, so the 12-digit occupations match exactly
        n_bare_series = column(out / "n_bar_t_tf1.csv", "n_bar_ref_omega_m")
        assert by_eps["0"][2] == n_bare_series[-1]
        assert float(by_eps["0"][3]) == pytest.approx(TEFF_FINAL, rel=1e-9)

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
            "-1.2,2,1.89319057125e+284,1.21750815183e+279,0.465525771204,1.06415549047e+144,ok"
        )
        assert lines[4].split(",")[6] == "ok"


    def test_a_kernel_that_turns_nan_fails_its_row_with_the_time_reached(self, tmp_path, capsys, monkeypatch):
        # every step past t = 0.5 has a NaN estimate and is rejected until the step
        # underflows: exit 2, one error line per cell, no traceback
        drive = dynamics._drive
        monkeypatch.setattr(dynamics, "_drive", lambda *args: (lambda t, f=drive(*args): f(t) if t < 0.5 else math.nan))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        cfg = fast_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 3 and "Traceback" not in err
        for line in lines:
            reached = float(re.fullmatch(r"error: eps=\S+ t_final=1\.0: integration failed: .* \(at t = (\S+)\)", line)[1])
            assert 0.49 < reached < 0.51


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

    def test_reproduce_marches_only_sweep_cells(self, tmp_path, monkeypatch):
        # work counters: simulate writes the closed form and marches nothing; each
        # t_final's 3 sweep cells march once, as the lanes of one row, the epsilon = 0
        # lanes as the certificate.  The drive kernel is counted where the march calls it
        marches, evaluations = [], 0
        integrate = dynamics._integrate_transfer

        def counted_march(kernel, *args, **kwargs):
            nonlocal evaluations
            marches.append(len(kwargs["lanes"]))

            def counted(t):
                nonlocal evaluations
                evaluations += 1
                return kernel(t)

            return integrate(counted, *args, **kwargs)

        # the counters live in this process, so every task must run here
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        before_sweep = []
        sweep_file = cli._sweep_file

        def recorded(cfg, cells):
            before_sweep.append(len(marches))
            return sweep_file(cfg, cells)

        monkeypatch.setattr(cli, "_sweep_file", recorded)
        monkeypatch.setattr(dynamics, "_integrate_transfer", counted_march)
        assert main(["reproduce", "--out", str(tmp_path / "out")]) == 0
        assert before_sweep == [0] and marches == [3, 3, 3]
        # 91,767 when each cell marched alone, 27,047 as rows marched from t = 0, 8,239
        # after second-order adiabatic segments, and 4,125 as rows marched after their
        # fourth-order segments (1,426, 1,324 and 1,375), the phase preflight's probes
        # included; the bound is that count plus 5 %
        assert evaluations <= 4_331

    @pytest.mark.parametrize("initial_state", ["nominal", "perturbed"])
    def test_only_nominal_drive_cells_reuse_a_march(self, tmp_path, initial_state):
        # every cell marches, 1 + eps == 1 (eps = 0 and 1e-17) as any other:
        # sweep and reproduce write the same table
        cfg = fast_config(tmp_path, **{
            "t_final = 1.0": "t_final = 0.5, 1.0",
            "epsilon = -0.1, 0.0, 0.1": "epsilon = -0.1, 0.0, 1e-17, 0.1",
            "initial_state = nominal": f"initial_state = {initial_state}",
        })
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
        assert main(["reproduce", "--config", str(cfg), "--out", str(tmp_path / "reproduce")]) == 0
        sweep_csv = (tmp_path / "sweep" / "sweep.csv").read_bytes()
        assert sweep_csv == (tmp_path / "reproduce" / "sweep.csv").read_bytes()

    def test_march_certificate_catches_a_wrong_march(self, tmp_path, capsys):
        # at t_f = 1e-12 the march keeps b near chi but ends at omega ~ 27, not 1
        out = tmp_path / "out"
        cfg = fast_config(tmp_path, **{"t_final = 1.0": "t_final = 1e-12", "epsilon = -0.1, 0.0, 0.1": "epsilon = 0.0"})
        assert main(["reproduce", "--config", str(cfg), "--out", str(out)]) == 3
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert [line.split(":")[0] for line in failed] == ["FAIL  march_vs_invariant_tf1e-12"]
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        (check,) = [c for c in manifest["checks"] if c["name"] == "march_vs_invariant_tf1e-12"]
        assert check["value"] > 10.0 and check["target"] == 1e-3 and check["kind"] == "upper"

    def test_coarse_tolerance_passes_every_check(self, tmp_path, capsys):
        # the certificate's bound holds at tol 1e-3 (deviation at most 3.4e-5) on the built-in config
        out = tmp_path / "out"
        assert main(["reproduce", "--out", str(out), "--samples", "41", "--tol", "1e-3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        marches = [c for c in manifest["checks"] if c["name"].startswith("march_vs_invariant_")]
        assert len(marches) == 3 and manifest["all_passed"] is True

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
        # range is a config error, k_B T underflowing is the T -> 0 limit, and
        # a report that exits 0 holds finite numbers only
        device_lines = [line for line in DEFAULT_CONFIG.splitlines() if line.split(" = ")[0] in FIELD_UNITS]
        assert len(device_lines) == 9
        for line in device_lines:
            key = line.split(" = ")[0]
            for value in ("5e-324", "1e-300", "1e-200", "1e200", "1e300", "1.7e308"):
                cfg = fast_config(tmp_path, **{line: f"{key} = {value}"})
                rc = main(["params", "--config", str(cfg)])
                captured = capsys.readouterr()
                assert rc in (0, 1), (key, value)
                assert len(captured.err.splitlines()) <= 1, (key, value)
                assert rc or not re.search(r"\b(nan|inf)\b", captured.out), (key, value)
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

    @pytest.mark.parametrize("command", ["reproduce", "sweep"])
    def test_huge_ramp_time_is_a_numeric_error(self, tmp_path, capsys, command):
        # a finite ramp far beyond the step budget fails its march at once, not after ages
        cfg = fast_config(
            tmp_path, **{"t_final = 1.0": "t_final = 1e150", "epsilon = -0.1, 0.0, 0.1": "epsilon = 0.0"}
        )
        start = time.perf_counter()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_huge_ramp_time_simulates_without_a_march(self, tmp_path):
        # simulate writes the closed form, whatever the ramp time
        out = tmp_path / "out"
        cfg = fast_config(tmp_path, **{"t_final = 1.0": "t_final = 1e150"})
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        n_bare = [float(v) for v in column(out / "n_bar_t_tf1e+150.csv", "n_bar_ref_omega_m")]
        assert len(n_bare) == 41 and n_bare[-1] == pytest.approx(NBAR_COLD, rel=1e-12)

    def test_huge_frequency_scale_is_refused_before_marching(self, tmp_path, capsys):
        # omega_0 ~ 3e29 omega_m: the phase preflight refuses the cell instead of
        # marching the 10^6-step budget (15 s); simulate marches nothing
        cfg = fast_config(tmp_path, **{
            "bare_frequency = 134 kHz": "bare_frequency = 1e-20", "epsilon = -0.1, 0.0, 0.1": "epsilon = 0.1"
        })
        start = time.perf_counter()
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 2
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "simulate")]) == 0
        assert time.perf_counter() - start < 5.0
        (error,) = capsys.readouterr().err.splitlines()
        assert error.startswith("error: eps=0.1 t_final=1.0: integration failed: phase ")
        assert "needs more than 1000000 transfer-matrix steps (at t = 0)" in error

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

    @pytest.mark.parametrize("columns, lines", [(60, 3), (200, 1)])
    def test_usage_is_wrapped_at_the_terminal_width(self, capsys, monkeypatch, columns, lines):
        # the parser is built at a fixed width, so that no shutil is imported; help and usage
        # errors are formatted at the terminal's width, which COLUMNS sets
        monkeypatch.setenv("COLUMNS", str(columns))
        assert main(["--help"]) == 0 and main(["bogus"]) == 1
        captured = capsys.readouterr()
        for text in (captured.out, captured.err):
            usage = [line for line in text.split("\n\n")[0].splitlines() if not line.startswith("biascool: error")]
            assert len(usage) == lines and max(map(len, usage)) <= columns - 2

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


def test_every_traced_layer_call_exists():
    # the benchmark's traced run wraps each LAYER_CALLS function of perfbench/tracing.py, and
    # fails on a name its layer no longer has; tracing.py imports numpy, so its table is read
    # from the source
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    (table,) = [
        node.value for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYER_CALLS"]
    ]
    layer_calls = ast.literal_eval(table)
    assert layer_calls and all(names for names in layer_calls.values())
    for layer, names in layer_calls.items():
        module = importlib.import_module(f"biascool.{layer}")
        assert [name for name in names if not callable(getattr(module, name, None))] == [], layer


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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # start-up budget: the package's records share one small base class, so no command pays for
    # dataclasses' code generation or for the inspect, ast and dis it imports; nor for typing, as the
    # annotations are never evaluated and collections.abc has the rest; nor for shutil (with zlib,
    # bz2 and lzma), which argparse's default help formatter imports for the terminal width; nor for
    # threading, which _one_round looks up only once something else imported it.  -S keeps site hooks out
    src = str(Path(biascool.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    modules = ("dataclasses", "inspect", "typing", "shutil", "threading")
    code = f"import sys, biascool.cli; print(sorted(m for m in {modules!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_command_runs_with_numpy_blocked(tmp_path):
    # a minimal install: importing numpy fails, and each command still exits 0 with its files;
    # no command loads hashlib or OpenSSL's _hashlib (reproduce hashes its manifest with the
    # built-in SHA-256), pickle (workers send plain results marshalled) or dataclasses.
    # -S keeps site hooks from preloading any of them.
    src = str(Path(biascool.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfg = fast_config(tmp_path)
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from biascool.cli import main\n"
        "loaded = lambda: sorted(m for m in ('hashlib', '_hashlib', 'pickle', 'dataclasses') if m in sys.modules)\n"
        "print('imported', 0, *loaded())\n"
        "for command in sys.argv[2:]:\n"
        "    code = main([command, '--config', sys.argv[1], '--out', command])\n"
        "    print(command, code, *loaded())\n"
    )
    commands = ["params", "design", "simulate", "sweep", "reproduce"]
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, str(cfg), *commands],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
    states = {
        words[0]: tuple(words[1:])
        for words in map(str.split, run.stdout.splitlines())
        if words and words[0] in ("imported", *commands)
    }
    assert states == {name: ("0",) for name in ("imported", *commands)}
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
