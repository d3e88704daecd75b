"""The traced run behind ``run.py --trace 1``: the per-layer metrics.

Three passes, none of which edits the package:

1. The workload's command runs in this process, once untraced and once
   with spans around the public calls of each layer (LAYER_CALLS).  A
   span records (name, start, end, parent, workload id); spans are kept
   in memory and written to ``trace.json`` when the run ends.  A layer's
   self time is its spans' time minus the time of their child spans;
   the ``cli`` layer is the root span around ``biascool.cli.main``, so
   its self time is the part of command_s that no layer span covers.
2. A fixed layer suite times each layer's public functions directly on
   the built-in device at nominal ramp times, the same on every workload
   and seed, so per-layer numbers compare across runs.
3. A counting pass (its own, untimed) counts frequency-profile
   evaluations of the transfer and Ermakov solves and checks their end
   points against the mpmath reference in reference.json.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from run import HERE, WORKLOADS, BenchError, check_outputs, result, setup_probe

from biascool import cli, thermometry
from biascool.config import load_config
from biascool.design import make_trajectory, validate_trajectory
from biascool.dynamics import (
    propagate_transfer,
    solve_ermakov_forward,
    thermal_state,
    transfer_series,
)
from biascool.outputs import hash_manifest, write_table
from biascool.robustness import SweepOptions, perturb_trajectory, run_sweep

# Public functions wrapped in spans, per layer module.  Only calls that
# cross into the layer matter for self time; per-cell helpers such as
# outputs.format_float are left out to keep the span count small.
LAYER_CALLS = {
    "config": ("load_config", "parse_config"),
    "physical": ("parse_quantity", "compute_eta"),
    "design": (
        "make_trajectory",
        "validate_trajectory",
        "control_function",
        "effective_frequency_profile",
        "b_polynomial",
    ),
    "dynamics": ("thermal_state", "propagate_transfer", "transfer_series", "solve_ermakov_forward"),
    "integrate": ("solve_rk",),
    "robustness": ("run_sweep", "perturb_trajectory"),
    "thermometry": (
        "thermal_occupation",
        "effective_temperature",
        "occupation_from_state",
        "state_frequency",
    ),
    "outputs": ("write_table", "write_json", "hash_manifest", "tf_label"),
}
LAYERS = ("cli", *LAYER_CALLS)
# Layers every workload enters; only these self times are metrics, so no
# metric is a constant zero.  trace.json and the printed table hold all.
SELF_TIME_METRICS = ("cli", "config", "physical", "design", "thermometry", "outputs")

SUITE_TF = (0.5, 1.0, 2.0, 8.0)
ERMAKOV_TF = (0.5, 1.0, 2.0)  # t_final = 8 would double the run for little news
ROWS = 4001  # the simulate-dense sample count
ROWS_TF = 1.0
ACCURACY_GATE = 1e-6  # relative error that counts as a failed operation
PAIR_SECONDS = 3.0  # short commands repeat (traced, untraced) pairs this long


def tf_name(t_final: float) -> str:
    return f"tf{t_final:g}"


def reference_cells() -> list[dict]:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["cells"]


def per_layer_names() -> list[str]:
    """Every metric a traced run prints, sorted; BENCHMARK.json lists the same."""
    cells = [f"{tf_name(c['t_final'])}_eps{c['epsilon']:g}" for c in reference_cells()]
    return sorted([
        *(f"{layer}.self_s" for layer in SELF_TIME_METRICS),
        "trace.command_s", "trace.overhead_share", "trace.spans",
        "cli.import_s", "config.load_s", "design.validate_s", "design.profile_eval_ns",
        "design.control_scalar_s", "dynamics.series_s", "thermometry.rows_s",
        "outputs.write_s", "outputs.bytes_written",
        *(f"dynamics.transfer_s.{tf_name(tf)}" for tf in SUITE_TF),
        *(f"dynamics.transfer_evals.{tf_name(tf)}" for tf in SUITE_TF),
        *(f"integrate.ermakov_s.{tf_name(tf)}" for tf in ERMAKOV_TF),
        *(f"integrate.ermakov_evals.{tf_name(tf)}" for tf in ERMAKOV_TF),
        *(f"robustness.cell_s.{tf_name(tf)}" for tf in ERMAKOV_TF),
        *(f"dynamics.n_final_relerr.{c}" for c in cells),
        *(f"integrate.b_final_relerr.{c}" for c in cells),
    ])


# --- spans --------------------------------------------------------------------


class SpanRecorder:
    """Spans in memory: [name, start, end, parent index, workload id]."""

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, wid = self.spans, self._stack, time.perf_counter, self.workload_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, wid])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name.split(".", 1)[0]] += end - start - covered
        return totals


@contextlib.contextmanager
def spans_installed(recorder: SpanRecorder):
    """Replace every binding of each LAYER_CALLS function by a traced wrapper."""
    modules = [m for n, m in sys.modules.items() if n == "biascool" or n.startswith("biascool.")]
    swaps = {}
    for layer, names in LAYER_CALLS.items():
        module = sys.modules[f"biascool.{layer}"]
        for name in names:
            original = getattr(module, name)
            swaps[original] = recorder.wrap(f"{layer}.{name}", original)
    replaced = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in swaps:
                setattr(module, attr, swaps[value])
                replaced.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in replaced:
            setattr(module, attr, value)


# --- pass 1: the workload's command -----------------------------------------------


def run_command(argv: list[str], recorder: SpanRecorder | None) -> tuple[int, float, str]:
    """(exit code, seconds in main, captured stdout) of one in-process run."""
    stdout = io.StringIO()
    main = cli.main if recorder is None else recorder.wrap("cli.main", cli.main)
    with contextlib.redirect_stdout(stdout):
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
    return rc, elapsed, stdout.getvalue()


# --- pass 2: the layer suite ---------------------------------------------------------


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_suite(config_path: Path, work: Path) -> dict[str, float]:
    probes = [setup_probe(config_path, work) for _ in range(3)]
    m = {
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "config.load_s": statistics.median(p["load_s"] for p in probes),
    }
    params = load_config(None).physical
    trajs = {tf: make_trajectory(params, tf) for tf in SUITE_TF}
    omega0_sq = trajs[1.0].spec.omega0_sq
    state0 = thermal_state(params, omega0_sq, params.bath_temperature)

    m["design.validate_s"] = _median_time(
        lambda: [validate_trajectory(trajs[tf], 1001) for tf in ERMAKOV_TF], 5
    )
    w = trajs[ROWS_TF].frequency_sq_fn()
    points = np.linspace(0.0, ROWS_TF, 100_000).tolist()
    m["design.profile_eval_ns"] = 1e9 / len(points) * _median_time(
        lambda: [w(t) for t in points], 3
    )
    times = np.linspace(0.0, ROWS_TF, ROWS).tolist()
    m["design.control_scalar_s"] = _median_time(
        lambda: [trajs[ROWS_TF].omega_eff_sq(t) for t in times], 3
    )
    for tf in SUITE_TF:
        m[f"dynamics.transfer_s.{tf_name(tf)}"] = _median_time(
            lambda: propagate_transfer(trajs[tf], state0, 0.0, tf), 3
        )
    m["dynamics.series_s"] = _median_time(lambda: transfer_series(trajs[ROWS_TF], state0, times), 3)

    states, _ = transfer_series(trajs[ROWS_TF], state0, times)
    refs = [trajs[ROWS_TF].omega_eff_sq(t) for t in times]

    def thermometry_rows():
        rows = []
        for state, w_ref in zip(states, refs):
            n_inst = t_eff = math.nan
            if w_ref > 0.0:
                n_inst = thermometry.occupation_from_state(state, w_ref)
                t_eff = thermometry.effective_temperature(
                    math.sqrt(w_ref) * params.bare_frequency, n_inst
                )
            rows.append((state.time, n_inst, t_eff, thermometry.state_frequency(state),
                         thermometry.occupation_from_state(state, 1.0)))
        return rows

    m["thermometry.rows_s"] = _median_time(thermometry_rows, 3)
    rows = thermometry_rows()
    out_dir = work / "suite_out"

    def write_tables():
        paths = []
        for name, header, table in (
            ("n_bar_t", ("t_omega_m", "n_bar_ref_omega_eff", "n_bar_ref_omega_m"),
             [(r[0], r[1], r[4]) for r in rows]),
            ("t_eff_t", ("t_omega_m", "value"), [(r[0], r[2]) for r in rows]),
            ("moments_t", ("t_omega_m", "xx", "pp", "xp", "purity"),
             [(s.time, s.xx, s.pp, s.xp, s.purity_invariant) for s in states]),
        ):
            paths.append(out_dir / f"{name}.csv")
            write_table(paths[-1], header, table, 12)
        hash_manifest(out_dir, paths)
        return paths

    m["outputs.write_s"] = _median_time(write_tables, 3)
    m["outputs.bytes_written"] = sum(p.stat().st_size for p in write_tables())
    shutil.rmtree(out_dir, ignore_errors=True)

    for tf in ERMAKOV_TF:
        m[f"integrate.ermakov_s.{tf_name(tf)}"] = _median_time(
            lambda: solve_ermakov_forward(trajs[tf], 1.0, 0.0, omega0_sq, 0.0, tf, t_eval=[tf]), 2
        )
    for tf in ERMAKOV_TF:
        m[f"robustness.cell_s.{tf_name(tf)}"] = _median_time(
            lambda: run_sweep(params, [tf], [0.0], SweepOptions()), 2
        )
    return m


# --- pass 3: work counters and accuracy ---------------------------------------------


def counting(profile):
    """A FrequencyProfile that counts its own evaluations in ``.calls``."""

    def counted(t: float) -> float:
        counted.calls += 1
        return profile(t)

    counted.calls = 0
    return counted


def counting_pass() -> tuple[dict[str, float], int, list[str]]:
    """(metrics, operations, failed-operation messages); one operation per solve pair."""
    params = load_config(None).physical
    reference = reference_cells()
    m, problems = {}, []
    for tf in SUITE_TF:
        if tf in ERMAKOV_TF:
            continue  # counted below with the reference cells
        traj = make_trajectory(params, tf)
        state0 = thermal_state(params, traj.spec.omega0_sq, params.bath_temperature)
        w = counting(traj.frequency_sq_fn())
        propagate_transfer(w, state0, 0.0, tf)
        m[f"dynamics.transfer_evals.{tf_name(tf)}"] = w.calls
    for cell in reference:
        tf, eps = cell["t_final"], cell["epsilon"]
        nominal = make_trajectory(params, tf)
        traj = perturb_trajectory(nominal, eps)
        state0 = thermal_state(params, nominal.spec.omega0_sq, params.bath_temperature)
        inputs = (nominal.spec.chi, nominal.spec.omega0_sq, traj.f_scale, state0.xx, state0.pp)
        if inputs != tuple(cell[k] for k in ("chi", "omega0_sq", "f_scale", "xx0", "pp0")):
            print(f"warning: reference inputs changed for tf={tf} eps={eps}; "
                  "rerun perfbench/make_reference.py")
        w = counting(traj.frequency_sq_fn())
        final, _ = propagate_transfer(w, state0, 0.0, tf)
        transfer_calls, w.calls = w.calls, 0
        erm = solve_ermakov_forward(w, 1.0, 0.0, nominal.spec.omega0_sq, 0.0, tf, t_eval=[tf])
        if eps == 0.0:
            m[f"dynamics.transfer_evals.{tf_name(tf)}"] = transfer_calls
            m[f"integrate.ermakov_evals.{tf_name(tf)}"] = w.calls
        key = f"{tf_name(tf)}_eps{eps:g}"
        n_final = thermometry.occupation_from_state(final, 1.0)
        errors = {
            f"dynamics.n_final_relerr.{key}": abs(n_final / float(cell["n_bar_final"]) - 1.0),
            f"integrate.b_final_relerr.{key}": abs(erm.b_final / float(cell["b_final"]) - 1.0),
        }
        m.update(errors)
        if not all(e <= ACCURACY_GATE for e in errors.values()):
            problems.append(f"accuracy above {ACCURACY_GATE:g}: {errors}")
    return m, 1 + len(reference), problems


# --- the traced run -------------------------------------------------------------------


def traced_run(name: str, config_path: Path, work: Path, n_bar_cold: float) -> dict:
    """Pass 1 on the workload, then the layer suite and the counting pass."""
    command, _ = WORKLOADS[name]
    recorder = SpanRecorder(name)
    attempted, failures = 0, []  # one message per failed operation
    reference, seconds = None, {False: [], True: []}
    # an untraced warm-up run, then (traced, untraced) pairs for PAIR_SECONDS
    schedule = [False, True, False]
    start = time.perf_counter()
    while schedule:
        traced = schedule.pop(0)
        out_dir = work / f"inproc{attempted}"
        argv = [command, "--config", str(config_path), "--out", str(out_dir)]
        with spans_installed(recorder) if traced else contextlib.nullcontext():
            rc, elapsed, stdout = run_command(argv, recorder if traced else None)
        attempted += 1
        problems = [f"exit code {rc}"] if rc != 0 else []
        if rc == 0:
            fingerprint, problems = check_outputs(command, out_dir, stdout, n_bar_cold)
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                problems.append("outputs differ from the first run of the same config")
            if attempted > 1:
                seconds[traced].append(elapsed)
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            failures.append("; ".join(problems))
        if not schedule and time.perf_counter() - start < PAIR_SECONDS:
            schedule = [True, False]
    (work / "trace.json").write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "workload"], "spans": recorder.spans}),
        encoding="utf-8",
    )

    runs = len(seconds[True])
    self_times = {k: v / runs for k, v in recorder.self_times().items()}
    command_s = statistics.median(seconds[False])
    traced_s = statistics.median(seconds[True])
    print(f"traced {name}: command_s untraced {command_s:.4f} s, traced {traced_s:.4f} s "
          f"(medians of {runs} pairs), {len(recorder.spans) // runs} spans per run")
    for layer in LAYERS:
        share = self_times[layer] / sum(self_times.values())
        print(f"  {layer:12s} self {self_times[layer]:10.6f} s  {share:7.2%}")

    metrics = {f"{layer}.self_s": self_times[layer] for layer in SELF_TIME_METRICS}
    metrics["trace.command_s"] = traced_s
    metrics["trace.overhead_share"] = traced_s / command_s - 1.0
    metrics["trace.spans"] = len(recorder.spans) // runs
    metrics.update(layer_suite(config_path, work))
    counts, operations, problems = counting_pass()
    attempted += operations
    failures.extend(problems)
    metrics.update(counts)
    if sorted(metrics) != per_layer_names():
        raise BenchError(f"traced run metrics differ from per_layer_names(): {sorted(metrics)}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return result(attempted, len(failures), dict(sorted(metrics.items())), metric_unit)


def metric_unit(name: str) -> str:
    kind = name.split(".")[1]
    for suffix, unit in (("_s", "s"), ("_ns", "ns"), ("_relerr", "ratio"), ("_share", "ratio"),
                         ("bytes_written", "bytes")):
        if kind.endswith(suffix):
            return unit
    return "count"
