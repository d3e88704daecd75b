"""Design and verify occupation-preserving bias-voltage cooling ramps.

commands:
  params      device analysis: coupling, boundary frequencies, occupations
  design      drive f(t), omega_eff(t) and scale factor b(t) per t_final
  simulate    exact thermal-state moments from the invariant: occupations, T_eff
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
import marshal
import math
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from functools import partial
from itertools import chain, islice
from pathlib import Path

from . import __version__, thermometry
from .config import RunConfig, load_config
from .constants import BOLTZMANN, HBAR
from .design import (
    TrajectoryValidation,
    _drive_terms,
    linspace,
    make_spec,
    make_trajectory,
    shortest_ramp,
    validate_trajectory,
)
from .dynamics import IntegrationError, thermal_state
from .outputs import (
    check_entry,
    format_blocks,
    format_float,
    format_rows,
    hash_manifest,
    render_table,
    tf_label,
    write_json,
    write_text,
)
from .records import Record, asdict, astuple
from .robustness import SweepOptions, SweepResult, sweep_row

# Hard-check targets and tolerances for the reproduction run.
CHECK_ETA = (1.25e7, 0.01, "rel")
CHECK_NBAR_HOT = (3.11e3, 0.02, "rel")
CHECK_NBAR_HOT_ROUNDED = (3.1e3, 50.0, "abs")
CHECK_NBAR_COLD = (0.47, 0.01, "abs")
CHECK_TEFF_FINAL = (6e-6, 0.15, "rel")
CHECK_OCCUPATION_DRIFT = (0.0, 1e-3, "abs")
CHECK_SWEEP_GROUND = (1.0, 0.0, "upper")
CHECK_MARCH_VS_INVARIANT = (1e-3, 0.0, "upper")


class CoolingReport(Record):
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
    shortest_t_final: float  # 1/omega_m; t_f*, the shortest ramp with omega_eff^2 >= 0
    validation: dict[str, TrajectoryValidation] = {}
    # filled by simulation:
    n_bar_final: dict[str, float] = {}
    t_eff_final: dict[str, float] = {}

    def render(self) -> str:
        lines = [
            f"coupling eta                = {self.eta:.6g}",
            f"scale-factor endpoint chi   = {self.chi:.6g}",
            f"omega_0 / omega_m           = {self.omega0_over_omega_m:.6g}",
            f"occupation at omega_m       = {self.n_bar_hot:.6g}",
            f"occupation at omega_0       = {self.n_bar_cold:.6g}",
            f"T_eff at ramp start         = {self.t_eff_start:.6g} K",
            f"T_eff at ramp end (predict) = {self.t_eff_final_predicted:.6g} K",
            f"shortest ramp t_f*          = {self.shortest_t_final:.8g} / omega_m",
        ]
        for label, val in self.validation.items():
            lines.append(
                f"ramp {label}: max|f| interior = {val.max_abs_f:.6g}, "
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
        shortest_t_final=shortest_ramp(spec),
    )
    if eta != 0.0:
        for t_final in cfg.protocol.t_final:
            report.validation[tf_label(t_final)] = validate_trajectory(make_trajectory(params, t_final))
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


def _one_round(tasks: list[Callable]) -> Iterator:
    """The results of the zero-argument ``tasks``, in list order, from one round.

    ``sweep`` runs its rows in one round, and ``reproduce`` its design ramps, its simulate ramps
    and its sweep rows, in that order; each writer reads its own count of results from the one
    iterator.  A result not read raises none of its task's errors.

    The tasks must be independent, do no I/O and print nothing.  They run on up to one worker per
    usable CPU, this process and forked children, which take the next task from one shared queue,
    last first, whenever they finish one; so a worker on a slower CPU takes fewer, and in
    ``reproduce`` the sweep rows start first while the ramps fill the other workers.  Each child
    sends its results back marshalled, so they must be plain data.  A task's exception comes back
    as its class's module and name and its args (``_outcome``), and is rebuilt and raised when its
    turn comes, so the caller does what a one-CPU run does and its output is the same bytes.  With
    one CPU or one task, without ``os.fork``, or with a second Python thread alive, the tasks run
    here, lazily, one by one.
    """
    workers = min(len(tasks), _usable_cpus())
    threading = sys.modules.get("threading")  # never imported: no threading.Thread was started
    if workers < 2 or not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return (task() for task in tasks)
    return _raise_in_order(_forked_outcomes(tasks, workers))


def _outcome(task: Callable) -> tuple:
    """(None, the result) of ``task()``, or ((module, class name, args), None) of the exception it raised.

    ``_raise_in_order`` rebuilds the exception as unpickling would: its class called with its args.  So
    the class must be a module attribute and its args plain data that rebuild it, as they are for the
    built-in errors and the package's.
    """
    try:
        return None, task()
    except Exception as exc:
        return (type(exc).__module__, type(exc).__qualname__, exc.args), None


def _forked_outcomes(tasks: Sequence[Callable], workers: int) -> list:
    """The outcome of each task, run here and in ``workers - 1`` forked children.

    The queue is a pipe holding one 8-byte record, the place of the next task counted from the
    list's end (place k is task ``len(tasks) - 1 - k``); a worker takes that task by reading the
    record and writing the next place back, so claims wait for each other (a worker killed
    between the two would stall the rest).  Children always leave through ``os._exit`` and are
    reaped before this returns, killed first on an exception (Ctrl-C included).  A child sends
    its ``(index, outcome)`` list marshalled (``marshal`` is built in and loaded).  A task whose
    child ended without sending all its outcomes fails with an OSError.
    """
    died = ("builtins", "OSError", ("a worker process ended without sending its results",))
    outcomes = [(died, None)] * len(tasks)
    queue_read, queue_write = os.pipe()
    os.write(queue_write, bytes(8))

    def taken() -> Iterator[int]:  # the tasks this worker takes, as it takes them
        while True:
            place = int.from_bytes(os.read(queue_read, 8), "little")
            os.write(queue_write, (place + 1).to_bytes(8, "little"))
            if place >= len(tasks):
                return
            yield len(tasks) - 1 - place

    children: list[tuple[int, int]] = []  # pid, read end of its pipe
    try:
        for _ in range(workers - 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    for fd in (read, *(r for _, r in children)):  # only the parent reads
                        os.close(fd)
                    sent = [(i, _outcome(tasks[i])) for i in taken()]
                    with open(write, "wb") as pipe:
                        pipe.write(marshal.dumps(sent))
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
        for i in taken():
            outcomes[i] = _outcome(tasks[i])
        for _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                try:
                    sent = marshal.loads(pipe.read())
                except (EOFError, ValueError):  # empty or cut short: the child died
                    sent = []
            for i, outcome in sent:
                outcomes[i] = outcome
    except BaseException:
        from signal import SIGKILL  # here only: importing signal takes ~1 ms
        for pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        os.close(queue_read)
        os.close(queue_write)
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)
    return outcomes


def _raise_in_order(outcomes: list) -> Iterator:
    for error, result in outcomes:
        if error is not None:
            module, name, args = error
            raise getattr(sys.modules[module], name)(*args)
        yield result


def _write(cfg: RunConfig, stem: str, header: tuple[str, ...], rows: str, note: str | None = None) -> Path:
    """Write one table, framed from its block of rows, into the output directory; return its path."""
    path = Path(cfg.output.directory) / f"{stem}.{cfg.output.format}"
    write_text(path, render_table(header, rows, cfg.output.format, note))
    return path


def _report_failures(failure: str | None, results: list[SweepResult]) -> int:
    """Print the simulate failure and the failed sweep cells; 2 if any, else 0."""
    errors = [failure] if failure is not None else []
    errors += [f"eps={r.epsilon} t_final={r.t_final}: {r.status}" for r in results if r.failed]
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 2 if errors else 0


# each ramp table: file stem, header and its columns of a ramp's rows, which are (t, f, omega_eff, b) in
# design and (t, n_bar_ref_omega_eff, n_bar_ref_omega_m, t_eff, xx, pp, xp) in simulate; column 7 is the purity
_DESIGN_TABLES = (
    ("f_t", ("t_omega_m", "value"), (0, 1)),
    ("omega_eff_t", ("t_omega_m", "value"), (0, 2)),
    ("b_t", ("t_omega_m", "value"), (0, 3)),
)
_SIMULATE_TABLES = (
    ("n_bar_t", ("t_omega_m", "n_bar_ref_omega_eff", "n_bar_ref_omega_m"), (0, 1, 2)),
    ("t_eff_t", ("t_omega_m", "value"), (0, 3)),
    ("moments_t", ("t_omega_m", "xx", "pp", "xp", "purity"), (0, 4, 5, 6, 7)),
)


def _ramp_blocks(cfg: RunConfig, tables: tuple, t_final: float, times: list[float]) -> tuple:
    """A ramp's samples at ``times`` as its blocks of ``tables``, design's or simulate's; last bare occupation, failure.

    One pass, each formula in its source's operations, so with its bits: per sample the quintic b and the
    drive f0 (``design._drive``), omega_eff^2 = 1 + eta f_scale f0, and design's f = 0 + f_scale f0 and
    omega_eff (``signed_sqrt``), or simulate's exact moments from the invariant (``oracles.invariant_moments``),
    both occupations and T_eff (``thermometry``, whose ``occupation`` clamps a negative one; nan where
    omega_eff^2 <= 0).  The purity is (nbar + 1/2)^2 of the thermal start.  A purity or an occupation
    that overflowed fails the ramp: the blocks hold the rows before it; the failure is the error's text.
    """
    params, out, simulate = cfg.physical, cfg.output, tables is _SIMULATE_TABLES
    traj = make_trajectory(params, t_final)
    bath, omega_m, e = params.bath_temperature, params.bare_frequency, 0.5
    if simulate:
        thermal_state(params, traj.spec.omega0_sq, bath)  # a config error past the float range
        e = thermometry.thermal_occupation(math.sqrt(traj.spec.omega0_sq) * omega_m, bath) + 0.5
        if e * e == math.inf:
            return ["", "", ""], None, str(IntegrationError("purity (n_bar + 1/2)^2 overflowed", 0.0))
    eta, om0sq, t_f, tf_sq, c6, c15, c10, c60 = _drive_terms(traj)
    c30, scale, f_scale, gain = 30.0 * (traj.spec.chi - 1.0), e / math.sqrt(om0sq), traj.f_scale, eta * traj.f_scale
    sqrt, log1p, nan, inf, tiny = math.sqrt, math.log1p, math.nan, math.inf, sys.float_info.min
    occupation, temperature = thermometry.occupation, thermometry.effective_temperature
    rows, failure = [], None
    for t in times:
        s = t / t_f
        u = s - 1.0
        b = ((c6 * s - c15) * s + c10) * s * s * s + 1.0
        b2 = b * b
        b4 = b2 * b2
        f0 = (om0sq - b2 * b * (c60 * s * (2.0 * s - 1.0) * u / tf_sq) - b4) / (eta * b4)
        w = 1.0 + gain * f0
        if not simulate:
            rows.append((t, 0.0 + f_scale * f0, math.copysign(sqrt(abs(w)), w) if w else 0.0, b))
            continue
        b_dot = c30 * (s * s) * (u * u) / t_f
        sb = scale * b
        xx, pp, xp = sb * b, scale * (b_dot * b_dot + om0sq / b2), sb * b_dot
        n_inst, n_bare = 0.5 * (pp + w * xx) / sqrt(w) - 0.5 if w > 0.0 else nan, 0.5 * (pp + xx) - 0.5
        if n_inst < 0.0 or n_bare < 0.0:
            n_inst, n_bare = occupation(xx, pp, w) if w > 0.0 else nan, occupation(xx, pp, 1.0)
        if n_inst == inf or n_bare == inf:  # moments or an energy that overflowed
            failure = str(IntegrationError("occupation overflowed", t))
            break
        t_eff = nan
        if w > 0.0:  # hbar omega / (k_B ln(1 + 1/n)) at omega = omega_eff
            omega, k_ln = sqrt(w) * omega_m, BOLTZMANN * log1p(1.0 / n_inst) if n_inst else 0.0
            t_eff = HBAR * omega / k_ln if k_ln >= tiny and omega > 0.0 else temperature(omega, n_inst)
        rows.append((t, n_inst, n_bare, t_eff, xx, pp, xp))
    blocks = format_blocks(rows, [cols for *_, cols in tables], out.precision, out.format, e * e)
    return blocks, rows[-1][2] if simulate and rows else None, failure


def _ramp_tasks(cfg: RunConfig, tables: tuple) -> list:
    """Each ramp as a task: one ``_ramp_blocks`` pass that returns ``tables``' text."""
    n = cfg.protocol.sample_count
    return [partial(_ramp_blocks, cfg, tables, t, linspace(0.0, t, n)) for t in cfg.protocol.t_final]


def _ramp_files(cfg: RunConfig, tables: tuple, ramps: Iterator) -> tuple:
    """Write every ramp's ``tables``; return the paths, the completed ramps' final bare occupations, the first failure.

    The occupations are by label; a failed ramp's tables hold its rows up to the failure and a note.
    """
    written: list[Path] = []
    finals: dict[str, float] = {}
    first_failure: str | None = None
    # zip draws a t_final before each result, so it reads no result past its own ramps
    for t_final, (blocks, n_final, failure) in zip(cfg.protocol.t_final, ramps):
        first_failure = first_failure or failure
        if failure is None:
            finals[tf_label(t_final)] = n_final
        note = None if failure is None else f"integration_error: {failure}"
        for (name, header, _), block in zip(tables, blocks):
            written.append(_write(cfg, f"{name}_{tf_label(t_final)}", header, block, note))
    return written, finals, first_failure


def cmd_ramps(cfg: RunConfig, tables: tuple) -> int:
    """``design`` and ``simulate``: run each ramp here, write its tables, print their paths, report a failure."""
    written, _, failure = _ramp_files(cfg, tables, (task() for task in _ramp_tasks(cfg, tables)))
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
)


def _sweep_cells(*args) -> list[tuple]:
    """``sweep_row(*args)``'s cells as ``astuple`` rows: plain data, which a worker sends back marshalled."""
    return [astuple(result) for result in sweep_row(*args)]


def _sweep_tasks(cfg: RunConfig) -> list:
    """A task per sweep row: its cells march together."""
    options = SweepOptions(tolerance=cfg.protocol.tolerance, initial_state=cfg.sweep.initial_state)
    return [partial(_sweep_cells, cfg.physical, t, cfg.sweep.epsilon, options) for t in cfg.protocol.t_final]


def _sweep_file(cfg: RunConfig, rows: Iterator[list[tuple]]) -> tuple[Path, list[SweepResult]]:
    """Write the sweep table, a row per cell of its fields; return its path and the cells as ``SweepResult``s."""
    cells = list(chain.from_iterable(islice(rows, len(cfg.protocol.t_final))))
    text = format_rows(cells, cfg.output.precision, cfg.output.format)
    return _write(cfg, "sweep", _SWEEP_HEADER, text), [SweepResult(*fields) for fields in cells]


def cmd_sweep(cfg: RunConfig) -> int:
    path, results = _sweep_file(cfg, _one_round(_sweep_tasks(cfg)))
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
        if result.epsilon == 0.0 and not result.failed:  # the march against the closed form
            b_off = abs(result.ermakov_b_final / report.chi - 1.0)
            deviation = max(b_off, abs(result.state_omega_final - 1.0))
            name = f"march_vs_invariant_{tf_label(result.t_final)}"
            checks.append(check_entry(name, deviation, *CHECK_MARCH_VS_INVARIANT))
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

    round_results = _one_round(
        [*_ramp_tasks(cfg, _DESIGN_TABLES), *_ramp_tasks(cfg, _SIMULATE_TABLES), *_sweep_tasks(cfg)]
    )
    written = _ramp_files(cfg, _DESIGN_TABLES, round_results)[0]
    sim_written, finals, failure = _ramp_files(cfg, _SIMULATE_TABLES, round_results)
    written.extend(sim_written)
    if failure is not None:
        return _report_failures(failure, [])
    for label, n_final in finals.items():
        report.n_bar_final[label] = n_final
        report.t_eff_final[label] = thermometry.effective_temperature(cfg.physical.bare_frequency, n_final)

    sweep_path, results = _sweep_file(cfg, round_results)
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
        # a fixed width while the arguments go in: add_argument builds a formatter each time, and the
        # default one imports shutil (with zlib, bz2 and lzma) to read the terminal's width
        formatter_class=partial(argparse.RawDescriptionHelpFormatter, width=80),
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", metavar="FILE")
    parser.add_argument("--out", dest="output_dir", metavar="DIR")
    parser.add_argument("--tol", dest="tolerance", metavar="X")
    parser.add_argument("--samples", dest="sample_count", metavar="N")
    parser.formatter_class = argparse.RawDescriptionHelpFormatter  # help and usage at the terminal's width
    return parser


_COMMANDS = {
    "params": cmd_params,
    "design": lambda cfg: cmd_ramps(cfg, _DESIGN_TABLES),
    "simulate": lambda cfg: cmd_ramps(cfg, _SIMULATE_TABLES),
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
