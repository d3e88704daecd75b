"""Design and verify occupation-preserving bias-voltage cooling ramps.

commands:
  params      device analysis: coupling, boundary frequencies, occupations
  design      drive f(t), omega_eff(t) and scale factor b(t) per t_final
  simulate    propagated thermal state: occupations, T_eff, moments
  sweep       drive-error sweep table
  reproduce   design + simulate + sweep, report, manifest, hard checks

Every command takes --config FILE (default: the built-in config); --out
DIR, --tol X and --samples N set output_dir, tolerance and sample_count,
parsed and validated as config-file lines are.  Exit codes: 0 success,
also --help and --version; 1 configuration or usage error; 2 numeric or
integration failure; 3 hard reproduction check failed.  All outputs are
pure functions of the configuration: two runs write byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import threading
from dataclasses import asdict, astuple, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__, thermometry
from .config import RunConfig, load_config
from .design import (
    TrajectoryValidation,
    b_polynomial,
    control_function,
    linspace,
    make_spec,
    make_trajectory,
    signed_sqrt,
    validate_trajectory,
)
from .dynamics import IntegrationError, TransferMatrix, moment_series, purity, thermal_state
from .outputs import (
    check_entry,
    format_float,
    hash_manifest,
    render_table,
    tf_label,
    write_json,
    write_table,
    write_text,
)
from .robustness import (
    REFERENCE_TARGETS,
    MarchedMatrices,
    SweepOptions,
    SweepResult,
    perturb_trajectory,
    run_sweep,
)

# Hard-check targets and tolerances for the reproduction run.
CHECK_ETA = (1.25e7, 0.01, "rel")
CHECK_NBAR_HOT = (3.11e3, 0.02, "rel")
CHECK_NBAR_HOT_ROUNDED = (3.1e3, 50.0, "abs")
CHECK_NBAR_COLD = (0.47, 0.01, "abs")
CHECK_TEFF_FINAL = (6e-6, 0.15, "rel")
CHECK_OCCUPATION_DRIFT = (0.0, 1e-3, "abs")
CHECK_SWEEP_GROUND = (1.0, 0.0, "upper")


@dataclass
class CoolingReport:
    """Everything the protocol predicts or measures for one configuration."""

    t_final: tuple[float, ...]
    sample_count: int
    tolerance: float
    eta: float
    chi: float
    omega0_over_omega_m: float
    n_bar_hot: float  # occupation at the bare frequency, bath temperature
    n_bar_cold: float  # occupation once the drive has boosted the frequency
    t_eff_start: float  # K; trivially the bath temperature (consistency echo)
    t_eff_final_predicted: float  # K; from n_bar_cold referenced to omega_m
    validation: dict[str, TrajectoryValidation] = field(default_factory=dict)
    # filled by simulation:
    n_bar_final: dict[str, float] = field(default_factory=dict)
    t_eff_final: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"coupling eta                = {self.eta:.6g}",
            f"scale-factor endpoint chi   = {self.chi:.6g}",
            f"omega_0 / omega_m           = {self.omega0_over_omega_m:.6g}",
            f"occupation at omega_m       = {self.n_bar_hot:.6g}",
            f"occupation at omega_0       = {self.n_bar_cold:.6g}",
            f"T_eff at ramp start         = {self.t_eff_start:.6g} K",
            f"T_eff at ramp end (predict) = {self.t_eff_final_predicted:.6g} K",
        ]
        for label, val in self.validation.items():
            lines.append(
                f"ramp {label}: max|f| interior = {val.max_abs_f_interior:.6g}, "
                f"boundary residuals = ({val.boundary_residual_start:.2e}, "
                f"{val.boundary_residual_end:.2e}), "
                f"imaginary-frequency windows = {len(val.negative_omega_sq_windows)}"
            )
        return "\n".join(lines)


def build_report(cfg: RunConfig) -> CoolingReport:
    """Analysis-only part of the report (closed forms, no propagation)."""
    params = cfg.physical
    eta = params.eta
    spec = make_spec(params, cfg.protocol.t_final[0])
    omega0_sq = spec.omega0_sq
    n_bar_hot = thermometry.thermal_occupation(params.bare_frequency, params.bath_temperature)
    n_bar_cold = thermometry.thermal_occupation(
        math.sqrt(omega0_sq) * params.bare_frequency, params.bath_temperature
    )
    report = CoolingReport(
        t_final=cfg.protocol.t_final,
        sample_count=cfg.protocol.sample_count,
        tolerance=cfg.protocol.tolerance,
        eta=eta,
        chi=spec.chi,
        omega0_over_omega_m=math.sqrt(omega0_sq),
        n_bar_hot=n_bar_hot,
        n_bar_cold=n_bar_cold,
        t_eff_start=thermometry.effective_temperature(
            math.sqrt(omega0_sq) * params.bare_frequency, n_bar_cold
        ),
        t_eff_final_predicted=thermometry.effective_temperature(params.bare_frequency, n_bar_cold),
    )
    if eta != 0.0:
        for t_final in cfg.protocol.t_final:
            traj = make_trajectory(params, t_final)
            val = validate_trajectory(traj, max(cfg.protocol.sample_count, 1001))
            report.validation[tf_label(t_final)] = val
    return report


def cmd_params(cfg: RunConfig) -> int:
    print(build_report(cfg).render())
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _run_tasks(fn: Callable, items: Sequence, costs: Sequence[float]) -> Iterator:
    """``fn(item)`` for each item, yielded in item order.

    The tasks must be independent, do no I/O and print nothing.  They run
    on up to one worker per usable CPU: the parent runs one share and
    forked children run the others, and each child sends its results and
    exceptions back pickled.  A task's exception is raised when its turn
    comes, so the caller does what a one-CPU run does and its output is
    the same bytes.  With one CPU or one task, without ``os.fork``, or
    with a second Python thread alive, the tasks run here, lazily, one by
    one.
    """
    workers = min(len(items), _usable_cpus())
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return map(fn, items)
    return _raise_in_order(_forked_outcomes(fn, items, costs, workers))


def _deal(costs: Sequence[float], workers: int) -> list[list[int]]:
    """Task indices per worker: the costliest task first, each to the least-loaded worker."""
    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        w = min(range(workers), key=lambda w: (loads[w], len(shares[w])))
        shares[w].append(i)
        loads[w] += costs[i]
    return shares


def _outcome(fn: Callable, item) -> tuple:
    """(exception, None) if ``fn(item)`` raised, else (None, its result)."""
    try:
        return None, fn(item)
    except Exception as exc:
        return exc, None


def _forked_outcomes(fn: Callable, items: Sequence, costs: Sequence[float], workers: int) -> list:
    """The outcome of each task; every share but the first runs in a forked child.

    Children always leave through ``os._exit``, and every child is reaped
    before this returns; on an exception (Ctrl-C included) they are killed
    first.  A child that ends without sending its outcomes fails its
    tasks with an OSError.
    """
    import pickle  # only a forking run pays for these imports
    from signal import SIGKILL

    shares = _deal(costs, workers)
    outcomes: list = [None] * len(items)
    children: list[tuple[int, int, list[int]]] = []  # pid, read end of its pipe, share
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    for fd in (read, *(r for _, r, _ in children)):  # only the parent reads
                        os.close(fd)
                    with open(write, "wb") as pipe:
                        pickle.dump([_outcome(fn, items[i]) for i in share], pipe)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read, share))
        for i in shares[0]:
            outcomes[i] = _outcome(fn, items[i])
        for _, read, share in children:
            try:
                with open(read, "rb", closefd=False) as pipe:
                    sent = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # empty or cut short: the child died first
                sent = [(OSError("a worker process ended without sending its results"), None)] * len(share)
            for i, outcome in zip(share, sent):
                outcomes[i] = outcome
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, read, _ in children:
            os.close(read)
            os.waitpid(pid, 0)
    return outcomes


def _raise_in_order(outcomes: list) -> Iterator:
    for error, result in outcomes:
        if error is not None:
            raise error
        yield result


def _path(cfg: RunConfig, stem: str) -> Path:
    return Path(cfg.output.directory) / f"{stem}.{cfg.output.format}"


def _write(cfg: RunConfig, stem: str, header: tuple[str, ...], rows) -> Path:
    """Write one table into the output directory; return its path."""
    path = _path(cfg, stem)
    write_table(path, header, rows, cfg.output.precision, cfg.output.format)
    return path


def _report_failures(failure: IntegrationError | None, results: list[SweepResult]) -> int:
    """Print the simulate failure and the failed sweep cells; 2 if any, else 0."""
    errors = [str(failure)] if failure is not None else []
    errors += [f"eps={r.epsilon} t_final={r.t_final}: {r.status}" for r in results if r.failed]
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 2 if errors else 0


def _design_files(cfg: RunConfig) -> list[Path]:
    written: list[Path] = []
    for t_final in cfg.protocol.t_final:
        traj = make_trajectory(cfg.physical, t_final)
        label = tf_label(t_final)
        t = linspace(0.0, t_final, cfg.protocol.sample_count)
        f = control_function(traj, t)
        omega_eff = list(map(signed_sqrt, traj.omega_eff_sq(t)))
        b, _, _ = b_polynomial([ti / t_final for ti in t], traj.spec.chi)
        for name, series in (("f_t", f), ("omega_eff_t", omega_eff), ("b_t", b)):
            rows = zip(t, series)
            written.append(_write(cfg, f"{name}_{label}", ("t_omega_m", "value"), rows))
    return written


def cmd_design(cfg: RunConfig) -> int:
    for path in _design_files(cfg):
        print(path)
    return 0


def _simulate_rows(
    cfg: RunConfig, t_final: float
) -> tuple[list[tuple], TransferMatrix | None, IntegrationError | None]:
    """Per-sample (t, n_bar_ref_omega_eff, n_bar_ref_omega_m, t_eff, xx, pp, xp).

    One pass over the moment rows of ``moment_series``; no object is
    built per sample.  Also returns the ramp's transfer matrix over
    [0, t_final], None when the ramp failed: on a failed march, or on a
    sample whose moments or occupations overflowed, the rows before the
    failure are returned together with the error so callers can write
    partial output.
    """
    params = cfg.physical
    traj = make_trajectory(params, t_final)
    state0 = thermal_state(params, traj.spec.omega0_sq, params.bath_temperature)
    times = linspace(0.0, t_final, cfg.protocol.sample_count)
    failure: IntegrationError | None = None
    matrix: TransferMatrix | None = None
    try:
        moments, matrix = moment_series(traj, state0, times, tol=cfg.protocol.tolerance)
    except IntegrationError as exc:
        failure = exc
        moments = exc.rows

    # the reference is the instantaneous nominal drive frequency, evaluated
    # at the times of the rows actually returned; in an inverted-potential
    # window no occupation/temperature is defined
    w_refs = traj.omega_eff_sq(times[: len(moments)])
    occupation, temperature = thermometry.occupation, thermometry.effective_temperature
    omega_m, nan, inf = params.bare_frequency, math.nan, math.inf
    rows = []
    for (t, xx, pp, xp), w_ref in zip(moments, w_refs):
        n_inst = occupation(xx, pp, w_ref) if w_ref > 0.0 else nan
        n_bare = occupation(xx, pp, 1.0)
        if n_inst == inf or n_bare == inf:  # finite moments whose energy overflowed
            failure, matrix = IntegrationError("occupation overflowed", t), None
            break
        t_eff = temperature(math.sqrt(w_ref) * omega_m, n_inst) if w_ref > 0.0 else nan
        rows.append((t, n_inst, n_bare, t_eff, xx, pp, xp))
    return rows, matrix, failure


def _simulate_tables(
    cfg: RunConfig, t_final: float
) -> tuple[list[tuple[str, str]], float | None, TransferMatrix | None, IntegrationError | None]:
    """One ramp's three tables as (file stem, text), without writing them.

    Also returns the ramp's final bare occupation and transfer matrix,
    both None when it failed, and its failure.
    """
    rows, matrix, failure = _simulate_rows(cfg, t_final)
    note = None if failure is None else f"integration_error: {failure}"
    n_bar, t_eff, moments = [], [], []
    for t, n_inst, n_bare, temp, xx, pp, xp in rows:
        n_bar.append((t, n_inst, n_bare))
        t_eff.append((t, temp))
        moments.append((t, xx, pp, xp, purity(xx, pp, xp)))
    label, out = tf_label(t_final), cfg.output
    tables = []
    for name, header, table in (
        ("n_bar_t", ("t_omega_m", "n_bar_ref_omega_eff", "n_bar_ref_omega_m"), n_bar),
        ("t_eff_t", ("t_omega_m", "value"), t_eff),
        ("moments_t", ("t_omega_m", "xx", "pp", "xp", "purity"), moments),
    ):
        tables.append((f"{name}_{label}", render_table(header, table, out.precision, out.format, note)))
    return tables, None if matrix is None else rows[-1][2], matrix, failure


def _simulate_files(
    cfg: RunConfig,
) -> tuple[list[Path], dict[str, float], MarchedMatrices, IntegrationError | None]:
    """Write the series of every ramp.

    Returns the final bare occupation of each completed ramp by label,
    and its transfer matrix keyed for ``run_sweep``.
    """
    written: list[Path] = []
    finals: dict[str, float] = {}
    marched: dict[tuple, TransferMatrix] = {}
    first_failure: IntegrationError | None = None
    t_finals = cfg.protocol.t_final
    ramps = _run_tasks(partial(_simulate_tables, cfg), t_finals, t_finals)
    for t_final, (tables, n_final, matrix, failure) in zip(t_finals, ramps):
        first_failure = first_failure or failure
        if matrix is not None:
            finals[tf_label(t_final)] = n_final
            marched[make_trajectory(cfg.physical, t_final), cfg.protocol.tolerance] = matrix
        for stem, text in tables:
            written.append(_path(cfg, stem))
            write_text(written[-1], text)
    return written, finals, marched, first_failure


def cmd_simulate(cfg: RunConfig) -> int:
    written, _, _, failure = _simulate_files(cfg)
    for path in written:
        print(path)
    return _report_failures(failure, [])


_SWEEP_HEADER = (
    "epsilon",
    "t_final",
    "n_bar_final",
    "t_eff_final_K",
    "state_omega_final",
    "ermakov_b_final",
    "status",
    "target_t_eff_K",
    "target_state_omega",
)


def _sweep_row(result: SweepResult) -> tuple:
    # SweepResult's fields are the table's leading columns, in order
    target = next(
        (v for eps, v in REFERENCE_TARGETS.items() if math.isclose(result.epsilon, eps, abs_tol=1e-12)),
        (None, None),
    )
    return (*astuple(result), *target)


def _sweep_file(
    cfg: RunConfig, marched: MarchedMatrices | None = None
) -> tuple[Path, list[SweepResult]]:
    params, tol = cfg.physical, cfg.protocol.tolerance
    options = SweepOptions(tolerance=tol, initial_state=cfg.sweep.initial_state)
    cells = [(t_final, eps) for t_final in cfg.protocol.t_final for eps in cfg.sweep.epsilon]
    # a cell that applies one of simulate's matrices does not march
    costs = [
        0.0 if marched and (perturb_trajectory(make_trajectory(params, t), eps), tol) in marched else t
        for t, eps in cells
    ]

    def sweep_cell(cell: tuple[float, float]) -> SweepResult:
        (result,) = run_sweep(params, cell[:1], cell[1:], options, marched)
        return result

    results = list(_run_tasks(sweep_cell, cells, costs))
    return _write(cfg, "sweep", _SWEEP_HEADER, [_sweep_row(r) for r in results]), results


def cmd_sweep(cfg: RunConfig) -> int:
    path, results = _sweep_file(cfg)
    print(path)
    return _report_failures(None, results)


def _reproduce_checks(
    report: CoolingReport, results: list[SweepResult]
) -> list[dict]:
    checks = [
        check_entry("eta", report.eta, *CHECK_ETA),
        check_entry("n_bar_hot", report.n_bar_hot, *CHECK_NBAR_HOT),
        check_entry("n_bar_hot_rounded", report.n_bar_hot, *CHECK_NBAR_HOT_ROUNDED),
        check_entry("n_bar_cold", report.n_bar_cold, *CHECK_NBAR_COLD),
    ]
    for label in sorted(report.n_bar_final):
        checks.append(
            check_entry(f"t_eff_final_{label}", report.t_eff_final[label], *CHECK_TEFF_FINAL)
        )
        drift = report.n_bar_final[label] - report.n_bar_cold
        checks.append(check_entry(f"occupation_drift_{label}", drift, *CHECK_OCCUPATION_DRIFT))
    for result in results:
        if abs(abs(result.epsilon) - 0.1) <= 1e-12 and not result.failed:
            checks.append(
                check_entry(
                    f"sweep_ground_state_eps{format_float(result.epsilon, 6)}_{tf_label(result.t_final)}",
                    result.n_bar_final,
                    *CHECK_SWEEP_GROUND,
                )
            )
    return checks


def cmd_reproduce(cfg: RunConfig) -> int:
    out_dir = Path(cfg.output.directory)
    report = build_report(cfg)

    written = _design_files(cfg)
    sim_written, finals, marched, failure = _simulate_files(cfg)
    written.extend(sim_written)
    if failure is not None:
        return _report_failures(failure, [])
    for label, n_final in finals.items():
        report.n_bar_final[label] = n_final
        report.t_eff_final[label] = thermometry.effective_temperature(
            cfg.physical.bare_frequency, n_final
        )

    sweep_path, results = _sweep_file(cfg, marched)
    written.append(sweep_path)

    report_path = out_dir / "report.json"
    write_json(report_path, asdict(report))
    written.append(report_path)

    checks = _reproduce_checks(report, results)
    manifest = {
        "tool": {"name": "biascool", "version": __version__},
        "config": asdict(cfg),
        "files": hash_manifest(out_dir, written),
        "checks": checks,
        "all_passed": all(entry["passed"] for entry in checks),
    }
    manifest_path = out_dir / "manifest.json"
    write_json(manifest_path, manifest)

    for entry in checks:
        status = "pass" if entry["passed"] else "FAIL"
        print(
            f"{status}  {entry['name']}: value={format_float(entry['value'], 9)} "
            f"target={format_float(entry['target'], 9)} ({entry['kind']} {entry['tolerance']:g})"
        )
    print(manifest_path)
    if not manifest["all_passed"]:
        return 3
    return _report_failures(None, results)


def _build_parser() -> argparse.ArgumentParser:
    # a flag left out is absent from the namespace; each flag's dest is
    # the config key it sets
    parser = argparse.ArgumentParser(
        prog="biascool",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", metavar="FILE")
    parser.add_argument("--out", dest="output_dir", metavar="DIR")
    parser.add_argument("--tol", dest="tolerance", metavar="X")
    parser.add_argument("--samples", dest="sample_count", metavar="N")
    return parser


_COMMANDS = {
    "params": cmd_params,
    "design": cmd_design,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "reproduce": cmd_reproduce,
}


# built once, at import, so that building it (~0.6 ms, gettext and the
# locale import included) is start-up cost, not the command's
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        flags = vars(_PARSER.parse_args(argv))
        return _COMMANDS[flags.pop("command")](load_config(flags.pop("config", None), flags))
    except SystemExit as exc:  # argparse printed the help, the version or a usage error
        return 1 if exc.code else 0
    except ValueError as exc:  # the package's bad-input errors all subclass ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except IntegrationError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
