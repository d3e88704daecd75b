"""Forked workers: every command's outputs are those of a one-CPU run.

Each case runs ``main`` with the worker count pinned to 1 and then to 2
or more (``cli._usable_cpus`` picks it; forked children inherit the
patch) and compares exit code, stdout, stderr and the bytes of every file
written.  ``sweep`` and ``reproduce`` fork their workers; ``design`` and
``simulate`` run each ramp in this process, whatever the count.
"""

import itertools
import json
import marshal
import math
import os
import select
import subprocess
import sys
import threading
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from biascool import cli
from biascool.config import DEFAULT_CONFIG, ConfigError, load_config
from biascool.design import DesignError, b_polynomial, control_function, linspace, make_trajectory, signed_sqrt
from biascool.dynamics import StateError
from biascool.integrate import IntegrationError
from biascool.outputs import tf_label, write_table
from biascool.physical import ParameterError
from biascool.records import astuple
from biascool.robustness import SweepOptions, run_sweep
from biascool.thermometry import ThermometryError

from oracles import simulate_rows


def config(tmp_path, **replacements):
    text = DEFAULT_CONFIG
    for old, new in replacements.items():
        assert old in text, old
        text = text.replace(old, new)
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def round_of(fn, n):
    """``fn(i)`` for each of n tasks i, listed from one ``cli._one_round``."""
    return list(cli._one_round([partial(fn, i) for i in range(n)]))


def run(monkeypatch, capsys, workdir, argv, workers):
    """(exit code, stdout, stderr, {file: bytes}, forks) of one run in ``workdir``."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(workers)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    workdir.mkdir()
    monkeypatch.chdir(workdir)  # a relative --out, so stdout and the manifest match
    rc = cli.main(argv)
    captured = capsys.readouterr()
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)
    files = {
        p.relative_to(workdir).as_posix(): p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()
    }
    return rc, captured.out, captured.err, files, len(forks)


# the commands that fork, once, ``count - 1`` children for ``count`` workers; the others never fork
FORKING = ("sweep", "reproduce")


def both_paths(monkeypatch, capsys, tmp_path, argv, workers=(2,)):
    """Run with 1 worker and with each count in ``workers``; assert they agree; return the one-CPU run.

    ``sweep`` and ``reproduce`` fork once, ``count - 1`` children; ``design`` and ``simulate`` never fork.
    """
    single = run(monkeypatch, capsys, tmp_path / "one", [*argv, "--out", "out"], 1)
    assert single[4] == 0
    for count in workers:
        forked = run(monkeypatch, capsys, tmp_path / f"many{count}", [*argv, "--out", "out"], count)
        assert forked[:4] == single[:4]
        assert forked[4] == (count - 1 if argv[0] in FORKING else 0)
    return single[:4]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reproduce(tmp_path, monkeypatch, capsys, fmt):
    cfg = config(tmp_path, **{"format = csv": f"format = {fmt}"})
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["reproduce", "--config", cfg])
    assert rc == 0 and err == "" and len(files) == 21


def test_more_workers_than_cpus(tmp_path, monkeypatch, capsys):
    # two children in reproduce's one fork round: the second closes the first one's pipe
    argv = ["reproduce", "--config", config(tmp_path)]
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, argv, (3,))
    assert rc == 0 and err == "" and len(files) == 21


def test_simulate_dense(tmp_path, monkeypatch, capsys):
    # the benchmark's 4001-sample ramps, one task each: no fork on 2 or 3 CPUs, the one-worker bytes
    for fmt in ("csv", "json"):
        (tmp_path / fmt).mkdir()
        cfg = config(tmp_path / fmt, **{
            "t_final = 0.5, 1.0, 2.0": "t_final = 0.1, 1.0, 8.0",
            "sample_count = 201": "sample_count = 4001",
            "format = csv": f"format = {fmt}",
        })
        argv = ["simulate", "--config", cfg]
        rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path / fmt, argv, (2, 3))
        assert rc == 0 and err == "" and len(files) == 9


def test_design(tmp_path, monkeypatch, capsys):
    # a ramp is one task, called here: with 2 or 3 usable CPUs, os.fork is called zero times
    # (both_paths counts) and the files, output and exit code are the one-worker run's
    argv = ["design", "--config", config(tmp_path)]
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, argv, (2, 3))
    assert rc == 0 and err == "" and len(files) == 9


@pytest.mark.parametrize("start", ["nominal", "perturbed"])
def test_sweep(tmp_path, monkeypatch, capsys, start):
    cfg = config(tmp_path, **{"initial_state = nominal": f"initial_state = {start}"})
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["sweep", "--config", cfg])
    assert rc == 0 and err == "" and list(files) == ["out/sweep.csv"]


def test_failing_sweep_cells(tmp_path, monkeypatch, capsys):
    # two rows, so the forked path runs too; each has a failing cell and marches again cell by cell
    cfg = config(
        tmp_path, **{"t_final = 0.5, 1.0, 2.0": "t_final = 1, 2", "epsilon = -0.1, 0.0, 0.1": "epsilon = -2, -1.25"}
    )
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["sweep", "--config", cfg])
    assert rc == 2 and len(err.splitlines()) == 3 and err.count("overflowed") == 3


def test_failed_ramps_write_partial_rows(tmp_path, monkeypatch, capsys):
    # on a hot bath the t_f 1e-80 and 2e-80 ramps overflow the occupation part way;
    # the 1e-80 failure is reported first
    cfg = config(tmp_path, **{
        "t_final = 0.5, 1.0, 2.0": "t_final = 0.5, 1e-80, 2e-80",
        "sample_count = 201": "sample_count = 41",
        "bath_temperature = 20 mK": "bath_temperature = 1e150",
    })
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["simulate", "--config", cfg])
    assert rc == 2 and len(err.splitlines()) == 1 and "tf" not in err and len(files) == 9
    assert err.startswith("error: occupation overflowed (at t = ")
    assert 0.0 < float(err.split("t = ")[1].rstrip(")\n")) < 1e-80
    assert files["out/n_bar_t_tf0.5.csv"].decode().splitlines()[-1].startswith("0.5,")
    for label in ("tf1e-80", "tf2e-80"):
        lines = files[f"out/n_bar_t_{label}.csv"].decode().splitlines()
        assert 2 < len(lines) < 42 and lines[-1].startswith("# integration_error: occupation overflowed")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failure_inside_a_middle_range(tmp_path, monkeypatch, capsys, fmt):
    # t_f 1e-78 on a 1e150 K bath overflows at sample 22 of 41, in the middle of
    # the ramp; some later samples do not overflow, and their rows are dropped all the same
    cfg = config(tmp_path, **{
        "t_final = 0.5, 1.0, 2.0": "t_final = 1e-78, 0.5",
        "sample_count = 201": "sample_count = 41",
        "bath_temperature = 20 mK": "bath_temperature = 1e150",
        "format = csv": f"format = {fmt}",
    })
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["simulate", "--config", cfg], (2, 3))
    assert rc == 2 and err == "error: occupation overflowed (at t = 5.5e-79)\n" and len(files) == 6
    for name in ("n_bar_t", "t_eff_t", "moments_t"):
        text = files[f"out/{name}_tf1e-78.{fmt}"].decode()
        if fmt == "csv":
            lines = text.splitlines()
            assert len(lines) == 24 and lines[-1] == "# integration_error: occupation overflowed (at t = 5.5e-79)"
        else:
            table = json.loads(text)
            assert len(table["rows"]) == 22 and table["note"].startswith("integration_error: occupation overflowed")


def test_reproduce_stops_at_a_failed_simulate(tmp_path, monkeypatch, capsys):
    # the hot-bath ramps of test_a_failure_inside_a_middle_range: reproduce writes the
    # design and simulate tables, the failed ramp's up to its failure, then exits 2 with
    # simulate's one line.  Forked workers have run the sweep rows by then, but a row's
    # error is never raised
    cfg = config(tmp_path, **{
        "t_final = 0.5, 1.0, 2.0": "t_final = 1e-78, 0.5",
        "sample_count = 201": "sample_count = 41",
        "bath_temperature = 20 mK": "bath_temperature = 1e150",
    })
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["reproduce", "--config", cfg])
    assert rc == 2 and out == "" and err == "error: occupation overflowed (at t = 5.5e-79)\n"
    assert len(files) == 12 and not {"out/sweep.csv", "out/report.json", "out/manifest.json"} & set(files)
    for name in ("n_bar_t", "t_eff_t", "moments_t"):
        lines = files[f"out/{name}_tf1e-78.csv"].decode().splitlines()
        assert len(lines) == 24 and lines[-1] == "# integration_error: occupation overflowed (at t = 5.5e-79)"

    def refused(*args):
        raise ValueError("sweep row refused")

    monkeypatch.setattr(cli, "sweep_row", refused)
    (tmp_path / "refused").mkdir()
    assert both_paths(monkeypatch, capsys, tmp_path / "refused", ["reproduce", "--config", cfg]) == (rc, out, err, files)


# each simulate table's header and its columns of an oracle row (oracles.simulate_rows)
SIMULATE_TABLES = {
    "n_bar_t": (("t_omega_m", "n_bar_ref_omega_eff", "n_bar_ref_omega_m"), (0, 1, 2)),
    "t_eff_t": (("t_omega_m", "value"), (0, 3)),
    "moments_t": (("t_omega_m", "xx", "pp", "xp", "purity"), (0, 4, 5, 6, 7)),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("precision", [6, 17])
@pytest.mark.parametrize("ramps", ["inverted", "hot bath"])
def test_simulate_files_are_write_table_of_the_rows(tmp_path, monkeypatch, capsys, fmt, precision, ramps):
    # simulate formats t once and shares its texts between its tables, yet every
    # file is write_table's over the oracle's rows: t_f 0.1 has nan
    # cells, and the hot bath (as in test_a_failure_inside_a_middle_range) stops
    # the t_f 1e-78 tables part way, with the note
    replacements = {
        "sample_count = 201": "sample_count = 41",
        "format = csv": f"format = {fmt}",
        "precision = 12": f"precision = {precision}",
    }
    if ramps == "inverted":
        replacements["t_final = 0.5, 1.0, 2.0"] = "t_final = 0.1, 1.0"
    else:
        replacements["t_final = 0.5, 1.0, 2.0"] = "t_final = 1e-78, 0.5"
        replacements["bath_temperature = 20 mK"] = "bath_temperature = 1e150"
    cfg_path = config(tmp_path, **replacements)
    cfg = load_config(cfg_path)
    expected = {}
    for t_final in cfg.protocol.t_final:
        rows, failure = simulate_rows(cfg, t_final, linspace(0.0, t_final, 41))
        note = None if failure is None else f"integration_error: {failure}"
        for name, (header, cols) in SIMULATE_TABLES.items():
            path = tmp_path / "expected" / f"{name}_{tf_label(t_final)}.{fmt}"
            write_table(path, header, [[row[k] for k in cols] for row in rows], precision, fmt, note)
            expected[f"out/{path.name}"] = path.read_bytes()
    if ramps == "inverted":
        assert b"nan" in expected[f"out/n_bar_t_tf0.1.{fmt}"]
    else:
        assert b"integration_error" in expected[f"out/moments_t_tf1e-78.{fmt}"]
    for workers in (1, 2):
        argv = ["simulate", "--config", cfg_path, "--out", "out"]
        rc, out, err, files, forks = run(monkeypatch, capsys, tmp_path / f"many{workers}", argv, workers)
        assert files == expected
        assert (rc, forks) == (0 if ramps == "inverted" else 2, 0)
    # reproduce's ramps are tasks of its fork round, so a forked worker may write them
    argv = ["reproduce", "--config", cfg_path, "--out", "out"]
    rc, out, err, files, forks = run(monkeypatch, capsys, tmp_path / "reproduce", argv, 2)
    assert {name: files[name] for name in expected} == expected and forks == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("precision", [6, 17])
def test_design_files_are_write_table_of_the_rows(tmp_path, monkeypatch, capsys, fmt, precision):
    # design formats each number once and shares t's texts between its tables, yet every
    # file is write_table's over the closed forms' rows; t_f 0.1 is inverted part way, so
    # its omega_eff column goes negative
    cfg_path = config(tmp_path, **{
        "t_final = 0.5, 1.0, 2.0": "t_final = 0.1, 1.0",
        "sample_count = 201": "sample_count = 41",
        "format = csv": f"format = {fmt}",
        "precision = 12": f"precision = {precision}",
    })
    cfg = load_config(cfg_path)
    expected = {}
    for t_final in cfg.protocol.t_final:
        traj = make_trajectory(cfg.physical, t_final)
        t = linspace(0.0, t_final, 41)
        omega_eff = [signed_sqrt(w) for w in traj.omega_eff_sq(np.array(t)).tolist()]
        assert (min(omega_eff) < 0.0) == (t_final == 0.1)
        b, _, _ = b_polynomial(np.array(t) / t_final, traj.spec.chi)
        for name, values in (("f_t", control_function(traj, np.array(t)).tolist()), ("omega_eff_t", omega_eff),
                             ("b_t", b.tolist())):
            path = tmp_path / "expected" / f"{name}_{tf_label(t_final)}.{fmt}"
            write_table(path, ("t_omega_m", "value"), zip(t, values), precision, fmt)
            expected[f"out/{path.name}"] = path.read_bytes()
    for workers in (1, 2):
        argv = ["design", "--config", cfg_path, "--out", "out"]
        rc, out, err, files, forks = run(monkeypatch, capsys, tmp_path / f"many{workers}", argv, workers)
        assert files == expected
        assert (rc, out, err, forks) == (0, "".join(f"{name}\n" for name in expected), "", 0)
    # reproduce's ramps are tasks of its fork round, so a forked worker may write them
    argv = ["reproduce", "--config", cfg_path, "--out", "out"]
    rc, out, err, files, forks = run(monkeypatch, capsys, tmp_path / "reproduce", argv, 2)
    assert {name: files[name] for name in expected} == expected and forks == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("precision", [6, 17])
@pytest.mark.parametrize("start", ["nominal", "perturbed"])
def test_sweep_files_are_write_table_of_the_cells(tmp_path, monkeypatch, capsys, fmt, precision, start):
    # the sweep table is its cells' fields and nothing else; the perturbed start has no thermal
    # state at eps -1.2 (omega^2 < 0), so those cells hold nan and a status, and the run exits 2
    replacements = {"format = csv": f"format = {fmt}", "precision = 12": f"precision = {precision}"}
    if start == "perturbed":
        replacements["initial_state = nominal"] = "initial_state = perturbed"
        replacements["epsilon = -0.1, 0.0, 0.1"] = "epsilon = -1.2, -0.1, 0.0, 0.1"
    cfg_path = config(tmp_path, **replacements)
    cfg = load_config(cfg_path)
    options = SweepOptions(tolerance=cfg.protocol.tolerance, initial_state=cfg.sweep.initial_state)
    cells = run_sweep(cfg.physical, cfg.protocol.t_final, cfg.sweep.epsilon, options)
    assert any(cell.failed for cell in cells) == (start == "perturbed")
    path = tmp_path / "expected" / f"sweep.{fmt}"
    write_table(path, cli._SWEEP_HEADER, map(astuple, cells), precision, fmt)
    expected = {f"out/{path.name}": path.read_bytes()}
    for workers in (1, 2):
        argv = ["sweep", "--config", cfg_path, "--out", "out"]
        rc, out, err, files, forks = run(monkeypatch, capsys, tmp_path / f"many{workers}", argv, workers)
        assert files == expected
        assert (rc, out, forks) == (2 if start == "perturbed" else 0, f"out/{path.name}\n", workers - 1)
        assert err.count("perturbed start frequency squared") == len(err.splitlines()) == 3 * (start == "perturbed")


def test_a_raising_ramp_stops_the_files_there(tmp_path, monkeypatch, capsys):
    # only simulate's t_f 1 ramp raises: simulate writes the t_f 0.5 tables before it, and
    # reproduce, whose ramps are tasks of its fork round, every design table as well
    blocks = cli._ramp_blocks

    def raising(cfg, tables, t_final, times):
        if t_final == 1.0 and tables is cli._SIMULATE_TABLES:
            raise ValueError("ramp refused")
        return blocks(cfg, tables, t_final, times)

    monkeypatch.setattr(cli, "_ramp_blocks", raising)
    cfg = config(tmp_path, **{"sample_count = 201": "sample_count = 41"})
    simulated = [f"out/{stem}_tf0.5.csv" for stem in ("moments_t", "n_bar_t", "t_eff_t")]
    designed = [f"out/{stem}_tf{label}.csv" for stem in ("b_t", "f_t", "omega_eff_t") for label in ("0.5", "1", "2")]
    for command, written in (("simulate", simulated), ("reproduce", designed + simulated)):
        (tmp_path / command).mkdir()
        argv = [command, "--config", cfg]
        rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path / command, argv, (2, 3))
        assert rc == 1 and out == "" and err == "config error: ramp refused\n"
        assert sorted(files) == sorted(written)


def test_a_worker_that_dies_is_an_io_error(tmp_path, monkeypatch, capsys):
    # the parent's first sweep row waits until the child has taken one, so the child
    # dies with a task whatever the scheduling
    parent = os.getpid()
    row = cli.sweep_row
    taken_read, taken_write = os.pipe()
    waited = []

    def dying(*args):
        if os.getpid() != parent:
            os.write(taken_write, b"x")
            os._exit(1)
        if not waited:
            waited.append(select.select([taken_read], [], [], 30.0)[0])
        return row(*args)

    monkeypatch.setattr(cli, "sweep_row", dying)
    cfg = config(tmp_path, **{"t_final = 0.5, 1.0, 2.0": "t_final = 0.5, 1.0"})
    try:
        rc, out, err, files, forks = run(monkeypatch, capsys, tmp_path / "many", ["sweep", "--config", cfg], 2)
    finally:
        os.close(taken_read)
        os.close(taken_write)
    assert waited == [[taken_read]]
    assert rc == 2 and forks == 1 and out == ""
    assert err == "i/o error: a worker process ended without sending its results\n"


@pytest.mark.parametrize("reason", ["second thread", "no fork"])
def test_runs_in_process(tmp_path, monkeypatch, capsys, reason):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_forked_outcomes", lambda *args: pytest.fail("forked"))
    cfg = config(tmp_path, **{"t_final = 0.5, 1.0, 2.0": "t_final = 0.5, 1.0"})
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "out")]
    if reason == "no fork":
        monkeypatch.delattr(os, "fork")
        assert cli.main(argv) == 0
        return
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert cli.main(argv) == 0
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# A process that pins itself to one CPU of its affinity mask, then runs the built-in sweep (three
# rows, so more CPUs would fork) counting forks; it prints the CPUs it may use, the exit code and the forks.
ONE_CPU = r"""
import os
from biascool import cli

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
rc = cli.main(["sweep", "--out", "out"])
print(cli._usable_cpus(), rc, len(forks))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks on this platform")
def test_one_cpu_in_the_affinity_mask_runs_in_process(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run(
        [sys.executable, "-c", ONE_CPU],
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "1 0 0"


def test_each_worker_takes_the_last_task_left(monkeypatch):
    # every worker's tasks, in the order it ran them, follow the queue's
    # last-first order; the results come back in list order
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    n = 180
    queue = list(reversed(range(n)))
    runs = itertools.count()  # each process counts its own calls from 0

    def task(i):
        return os.getpid(), next(runs), i

    results = round_of(task, n)
    assert [i for _, _, i in results] == list(range(n))
    by_worker = {}
    for pid, run_number, i in sorted(results):
        by_worker.setdefault(pid, []).append(i)
    for taken in by_worker.values():
        assert taken == [i for i in queue if i in taken]


def test_reproduce_claims_its_sweep_rows_first(tmp_path, monkeypatch, capsys):
    # on 2 workers the queue's first three claims are the sweep rows, largest t_final first, then
    # simulate's ramps and design's, each last first.  A worker logs the place it reads from the
    # queue while it holds the queue's one record (during main only the queue is read with
    # os.read), and the task it runs next; its k-th task is its k-th claim
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    read = os.read

    def claiming(fd, n):
        data = read(fd, n)
        os.write(log, b"claim %d %d\n" % (os.getpid(), int.from_bytes(data, "little")))
        return data

    def logged(fn, kind):
        def task(*args):
            os.write(log, f"task {os.getpid()} {kind(*args)}\n".encode())
            return fn(*args)
        return task

    monkeypatch.setattr(os, "read", claiming)
    monkeypatch.setattr(cli, "_sweep_cells", logged(cli._sweep_cells, lambda params, t_final, *_: f"sweep {t_final}"))
    monkeypatch.setattr(cli, "_ramp_blocks", logged(cli._ramp_blocks, lambda cfg, tables, t_final, times: (
        f"{'design' if tables is cli._DESIGN_TABLES else 'simulate'} {t_final}"
    )))
    try:
        rc, out, err, files, forks = run(monkeypatch, capsys, tmp_path / "many", ["reproduce", "--out", "out"], 2)
    finally:
        os.close(log)
    assert (rc, err, forks) == (0, "", 1)
    claims, tasks = {}, {}
    for line in (tmp_path / "log").read_text().splitlines():
        event, pid, what = line.split(" ", 2)
        (claims if event == "claim" else tasks).setdefault(pid, []).append(what)
    claimed = sorted((int(place), task) for pid in tasks for place, task in zip(claims[pid], tasks[pid]))
    assert [place for place, _ in claimed] == list(range(9))
    assert [task for _, task in claimed] == [
        f"{kind} {t_final}" for kind in ("sweep", "simulate", "design") for t_final in (2.0, 1.0, 0.5)
    ]


def test_any_number_of_tasks(monkeypatch):
    # far more task records than a pipe buffer holds, and still one fork
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    n = 20_000
    assert round_of(lambda i: -i, n) == [-i for i in range(n)]
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupt_kills_the_workers(monkeypatch):
    # Ctrl-C during this process's own task: the child, still on its long one, is killed and reaped
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def task(i):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        round_of(task, 2)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "error",
    [
        ConfigError("line 3: bad value"),
        ParameterError("mass must be positive"),
        DesignError("eta = 0"),
        StateError("moments must be positive"),
        ThermometryError("occupation overflows"),
        IntegrationError("transfer matrix overflowed", 0.25),
        OSError("disk full"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_errors_are_rebuilt_from_their_class_and_args(error):
    # a raised error's outcome is plain data, (module, class name, args), and what a child sends
    # of it rebuilds an error of the same type, message and time
    def raising():
        raise error

    outcome = cli._outcome(raising)
    assert outcome == ((type(error).__module__, type(error).__name__, error.args), None)
    with pytest.raises(type(error)) as raised:
        next(cli._raise_in_order([marshal.loads(marshal.dumps(outcome))]))
    copy = raised.value
    assert copy is not error and type(copy) is type(error)
    assert str(copy) == str(error)
    assert getattr(copy, "time", None) == getattr(error, "time", None)


@pytest.mark.parametrize(
    "error, code, kind",
    [
        (ConfigError("line 3: bad value"), 1, "config error"),
        (ParameterError("mass must be positive"), 1, "config error"),
        (DesignError("eta = 0"), 1, "config error"),
        (StateError("moments must be positive"), 1, "config error"),
        (ThermometryError("occupation overflows"), 1, "config error"),
        (IntegrationError("transfer matrix overflowed", 0.25), 2, "numeric error"),
        (OSError("disk full"), 2, "i/o error"),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_an_error_raised_in_a_child_reaches_main(tmp_path, monkeypatch, capsys, error, code, kind):
    # only the child raises, from every sweep row it takes, and this process's first row waits
    # until it has taken one; main maps the error as if it had been raised here
    parent = os.getpid()
    row = cli.sweep_row
    taken_read, taken_write = os.pipe()
    waited = []

    def raising(*args):
        if os.getpid() != parent:
            os.write(taken_write, b"x")
            raise error
        if not waited:
            waited.append(select.select([taken_read], [], [], 30.0)[0])
        return row(*args)

    monkeypatch.setattr(cli, "sweep_row", raising)
    cfg = config(tmp_path, **{"t_final = 0.5, 1.0, 2.0": "t_final = 0.5, 1.0"})
    try:
        rc, out, err, files, forks = run(monkeypatch, capsys, tmp_path / "many", ["sweep", "--config", cfg], 2)
    finally:
        os.close(taken_read)
        os.close(taken_write)
    assert waited in ([], [[taken_read]])
    assert (rc, out, err, forks) == (code, "", f"{kind}: {error}\n", 1)


@pytest.mark.parametrize(
    "result",
    [
        (["\n0,1.5", "\n0,-2"], -0.0, None),
        ([], math.nan, "occupation overflowed (at t = 0.25)"),
        ValueError("ramp refused"),
        IntegrationError("transfer matrix overflowed", 0.25),
    ],
    ids=["plain", "failure text", "raised", "raised IntegrationError"],
)
def test_a_child_sends_marshal(tmp_path, monkeypatch, result):
    # a child's bytes are marshal's of its (index, outcome) list: a result, a failure's text and a
    # raised error's (module, class name, args) alike.  Every proper prefix of them, the empty one
    # included, is one marshal cannot read, and a child that sends one fails its task with the
    # OSError of a worker that died
    parent = os.getpid()
    sent = tmp_path / "sent"
    if isinstance(result, Exception):
        expected = ((type(result).__module__, type(result).__name__, result.args), None)
    else:
        expected = (None, result)

    def forked(cut):
        """A round of two tasks on 2 workers, the child's bytes cut at ``cut``: the outcomes, the
        child's whole bytes and the task it took.  Each worker's task waits until the other worker
        has taken one, so neither takes both."""
        taken_read, taken_write = os.pipe()
        parent_read, parent_write = os.pipe()

        def task():
            if os.getpid() != parent:
                select.select([parent_read], [], [], 30.0)
                os.write(taken_write, b"x")
            else:
                os.write(parent_write, b"x")
                select.select([taken_read], [], [], 30.0)
            if isinstance(result, Exception):
                raise result
            return result

        def dumps(value):
            data = marshal.dumps(value)
            sent.write_bytes(data)
            return data[:cut]

        monkeypatch.setattr(cli, "marshal", SimpleNamespace(dumps=dumps, loads=marshal.loads))
        try:
            outcomes = cli._forked_outcomes([task, task], 2)
        finally:
            for fd in (taken_read, taken_write, parent_read, parent_write):
                os.close(fd)
        data = sent.read_bytes()
        (taken, outcome), = marshal.loads(data)
        assert repr(outcome) == repr(expected)
        return outcomes, data, taken

    outcomes, data, _ = forked(None)
    assert repr(outcomes) == repr([expected] * 2)
    for cut in range(len(data)):
        with pytest.raises((EOFError, ValueError)):
            marshal.loads(data[:cut])
    for cut in (0, len(data) // 2, len(data) - 1):
        outcomes, _, taken = forked(cut)
        assert repr(outcomes[1 - taken]) == repr(expected)
        with pytest.raises(OSError, match="^a worker process ended without sending its results$"):
            next(cli._raise_in_order([outcomes[taken]]))
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


# The worker rounds of test_results_cross_the_pipe_as_plain_data, in a fresh ``python -S`` process so
# that only the package can load pickle.  Each round's tasks run on 2 workers, and the first task
# this process takes waits until the child has taken one; each round prints its name, whether it
# waited (if it took a task), whether what it gave (its results' repr, or the error it raised)
# equals a one-process run's, whether pickle is loaded and whether that holds ``marker``.
WORKER_ROUNDS = r"""
import os, select, sys
from functools import partial
from biascool import cli
from biascool.config import load_config

cli._usable_cpus = lambda: 2
parent = os.getpid()


def given(run):
    try:
        return repr(run())
    except Exception as exc:
        return f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}"


def forked(tasks):
    taken_read, taken_write = os.pipe()
    waited = []

    def call(task):
        if os.getpid() != parent:
            os.write(taken_write, b"x")
        elif not waited:
            waited.append(select.select([taken_read], [], [], 30.0)[0] == [taken_read])
        return task()

    try:
        return given(lambda: list(cli._one_round([partial(call, task) for task in tasks]))), waited
    finally:
        os.close(taken_read)
        os.close(taken_write)


design, rows, hot, tiny = map(load_config, sys.argv[1:])
rounds = [
    ("design", cli._ramp_tasks(design, cli._DESIGN_TABLES), ",-"),
    ("sweep", cli._sweep_tasks(rows), "nan"),
    ("simulate", cli._ramp_tasks(hot, cli._SIMULATE_TABLES), "occupation overflowed"),
    ("raised", cli._ramp_tasks(tiny, cli._SIMULATE_TABLES), "ParameterError: eta"),
]
print("imported", "pickle" in sys.modules)
for name, tasks, marker in rounds:
    results, waited = forked(tasks)
    one = given(lambda: [task() for task in tasks])
    print(name, waited in ([], [True]), results == one, "pickle" in sys.modules, marker in one)
"""


def test_results_cross_the_pipe_as_plain_data(tmp_path):
    # each stage's results on 2 workers equal a one-process run's: design's blocks (t_f 0.1 is
    # inverted part way, so omega_eff goes negative); the sweep's rows, whose failed cells are nan;
    # the hot-bath ramps, each of whose results carries an overflow's text.  A bare frequency of
    # 1e-200 takes eta out of the float range, so every simulate task raises, and the child's error
    # is raised as this process's would be.  Results and errors cross marshalled: pickle is never loaded
    paths = []
    for name, replacements in (
        ("design", {"t_final = 0.5, 1.0, 2.0": "t_final = 0.1, 1.0", "sample_count = 201": "sample_count = 41"}),
        ("rows", {"t_final = 0.5, 1.0, 2.0": "t_final = 2.0, 8.0", "epsilon = -0.1, 0.0, 0.1": "epsilon = -1.2, -1.25, -2.0, 0.0"}),
        ("hot", {
            "t_final = 0.5, 1.0, 2.0": "t_final = 1e-80, 2e-80",
            "sample_count = 201": "sample_count = 41",
            "bath_temperature = 20 mK": "bath_temperature = 1e150",
        }),
        ("tiny", {"bare_frequency = 134 kHz": "bare_frequency = 1e-200", "sample_count = 201": "sample_count = 41"}),
    ):
        (tmp_path / name).mkdir()
        paths.append(config(tmp_path / name, **replacements))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run(
        [sys.executable, "-S", "-c", WORKER_ROUNDS, *paths],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "imported False",
        "design True True False True",
        "sweep True True False True",
        "simulate True True False True",
        "raised True True False True",
    ]
