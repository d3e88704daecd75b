"""Forked workers: every command's outputs are those of a one-CPU run.

Each case runs ``main`` with the worker count pinned to 2 and then to 1
(``cli._usable_cpus`` picks it; forked children inherit the patch) and
compares exit code, stdout, stderr and the bytes of every file written.
"""

import os
import pickle
import threading

import pytest

from biascool import cli, dynamics
from biascool.config import DEFAULT_CONFIG, ConfigError
from biascool.design import DesignError
from biascool.dynamics import StateError
from biascool.integrate import IntegrationError
from biascool.physical import ParameterError
from biascool.thermometry import ThermometryError


def config(tmp_path, **replacements):
    text = DEFAULT_CONFIG
    for old, new in replacements.items():
        assert old in text, old
        text = text.replace(old, new)
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


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


def both_paths(monkeypatch, capsys, tmp_path, argv, workers=2):
    """Run with ``workers`` workers and with 1; assert they agree; return the one-CPU run."""
    forked = run(monkeypatch, capsys, tmp_path / "many", [*argv, "--out", "out"], workers)
    single = run(monkeypatch, capsys, tmp_path / "one", [*argv, "--out", "out"], 1)
    assert forked[:4] == single[:4]
    assert forked[4] >= 1 and single[4] == 0
    return single[:4]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reproduce(tmp_path, monkeypatch, capsys, fmt):
    cfg = config(tmp_path, **{"format = csv": f"format = {fmt}"})
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["reproduce", "--config", cfg])
    assert rc == 0 and err == "" and len(files) == 21


def test_more_workers_than_cpus(tmp_path, monkeypatch, capsys):
    # two children per pool: the second closes the first one's pipe
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["reproduce", "--config", config(tmp_path)], 3)
    assert rc == 0 and err == "" and len(files) == 21


def test_simulate_dense(tmp_path, monkeypatch, capsys):
    cfg = config(
        tmp_path,
        **{"t_final = 0.5, 1.0, 2.0": "t_final = 0.1, 1.0, 8.0", "sample_count = 201": "sample_count = 4001"},
    )
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["simulate", "--config", cfg])
    assert rc == 0 and err == "" and len(files) == 9


@pytest.mark.parametrize("start", ["nominal", "perturbed"])
def test_sweep(tmp_path, monkeypatch, capsys, start):
    cfg = config(tmp_path, **{"initial_state = nominal": f"initial_state = {start}"})
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["sweep", "--config", cfg])
    assert rc == 0 and err == "" and list(files) == ["out/sweep.csv"]


def test_failing_sweep_cells(tmp_path, monkeypatch, capsys):
    cfg = config(
        tmp_path, **{"t_final = 0.5, 1.0, 2.0": "t_final = 2", "epsilon = -0.1, 0.0, 0.1": "epsilon = -2, -1.25"}
    )
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["sweep", "--config", cfg])
    assert rc == 2 and len(err.splitlines()) == 2 and "overflowed" in err


def test_failed_marches_write_partial_rows(tmp_path, monkeypatch, capsys):
    # t_f 8 and 16 exhaust the budget; the t_f 8 failure, reported first, comes from a child
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 2000)
    cfg = config(
        tmp_path,
        **{"t_final = 0.5, 1.0, 2.0": "t_final = 0.5, 8.0, 16.0", "sample_count = 201": "sample_count = 41"},
    )
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["simulate", "--config", cfg])
    assert rc == 2 and len(err.splitlines()) == 1 and "budget" in err and len(files) == 9
    assert files["out/n_bar_t_tf0.5.csv"].decode().splitlines()[-1].startswith("0.5,")
    assert files["out/n_bar_t_tf8.csv"].decode().splitlines()[-1].startswith("# integration_error:")


def test_a_raising_ramp_stops_the_files_there(tmp_path, monkeypatch, capsys):
    rows = cli._simulate_rows

    def raising(cfg, t_final):
        if t_final == 1.0:
            raise ValueError("ramp refused")
        return rows(cfg, t_final)

    monkeypatch.setattr(cli, "_simulate_rows", raising)
    cfg = config(tmp_path, **{"sample_count = 201": "sample_count = 41"})
    rc, out, err, files = both_paths(monkeypatch, capsys, tmp_path, ["simulate", "--config", cfg])
    assert rc == 1 and out == "" and err == "config error: ramp refused\n"
    assert sorted(files) == [f"out/{stem}_tf0.5.csv" for stem in ("moments_t", "n_bar_t", "t_eff_t")]


def test_a_worker_that_dies_is_an_io_error(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    rows = cli._simulate_rows

    def dying(cfg, t_final):
        if os.getpid() != parent:
            os._exit(1)
        return rows(cfg, t_final)

    monkeypatch.setattr(cli, "_simulate_rows", dying)
    cfg = config(tmp_path, **{"sample_count = 201": "sample_count = 41"})
    rc, out, err, files, forks = run(monkeypatch, capsys, tmp_path / "many", ["simulate", "--config", cfg], 2)
    assert rc == 2 and forks == 1 and out == ""
    assert err == "i/o error: a worker process ended without sending its results\n"


@pytest.mark.parametrize("reason", ["second thread", "no fork"])
def test_runs_in_process(tmp_path, monkeypatch, capsys, reason):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_forked_outcomes", lambda *args: pytest.fail("forked"))
    cfg = config(tmp_path, **{"sample_count = 201": "sample_count = 41"})
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "out")]
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


def test_costliest_task_first_to_the_least_loaded_worker():
    assert cli._deal([0.1, 1.0, 8.0], 2) == [[2], [1, 0]]
    # reproduce's cells: the epsilon = 0 cells apply simulate's matrices
    costs = [0.5, 0.0, 0.5, 1.0, 0.0, 1.0, 2.0, 0.0, 2.0]
    assert cli._deal(costs, 2) == [[6, 3, 0, 1, 7], [8, 5, 2, 4]]
    assert cli._deal([0.0, 0.0, 0.0], 3) == [[0], [1], [2]]


@pytest.mark.parametrize(
    "error",
    [
        ConfigError("line 3: bad value"),
        ParameterError("mass must be positive"),
        DesignError("eta = 0"),
        StateError("moments must be positive"),
        ThermometryError("occupation overflows"),
        IntegrationError("transfer matrix overflowed", 0.25),
    ],
    ids=lambda error: type(error).__name__,
)
def test_errors_survive_pickling(error):
    error.rows = [(0.0, 1.0, 2.0, 0.0)]  # a failed march's partial rows ride along
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.rows == error.rows
    assert getattr(copy, "time", None) == getattr(error, "time", None)
