"""biascool benchmark: the real CLI, closed loop, one caller.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout's root.  The package is imported from ``src/`` with
no install step.  Each invocation starts a fresh interpreter that runs
``biascool.cli.main`` exactly as ``python -m biascool.cli`` does
(perfbench/child.py); the next one starts after the previous one has
exited.  Every invocation is checked (exit code, manifest, output hash
map, physics drift), and a failed check counts as a failed operation.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (perfbench/tracing.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CHILD_TIMEOUT_S = 150
MIN_INVOCATIONS = 2  # the hash-map gate compares two runs of the same config
JITTER = 0.02  # seed != 0 scales each t_final and epsilon by 1 +- up to 2 %
DRIFT_TOL = 1e-3  # the occupation drift bound `reproduce` applies
# Each timing is scaled by one part of hostref.py, and REF_S is that part's
# time on the baseline host, so scaled values read as seconds there (README).
REF_PART = {"cli_wall_s": "wall_s", "command_s": "compute_s", "setup_s": "import_s"}
REF_S = {"cli_wall_s": 1.2, "command_s": 0.25, "setup_s": 0.7}

# Closed-loop workloads: (CLI command, overrides of the built-in config).
WORKLOADS = {
    "reproduce-default": ("reproduce", {"t_final": (0.5, 1.0, 2.0), "epsilon": (-0.1, 0.0, 0.1)}),
    "simulate-dense": ("simulate", {"t_final": (0.1, 1.0, 8.0), "sample_count": 4001}),
    "params-startup": ("params", {"t_final": (0.5, 1.0, 2.0)}),
}

END_TO_END_UNITS = {
    "cli_wall_s": "s",
    "command_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken child)."""


# --- inputs -------------------------------------------------------------------


def workload_overrides(name: str, seed: int) -> dict:
    """The workload's config overrides; seed 0 is the nominal config exactly."""
    _, overrides = WORKLOADS[name]
    if seed == 0:
        return dict(overrides)
    rng = random.Random(f"{name}:{seed}")
    jittered = {}
    for key, value in overrides.items():
        if isinstance(value, tuple):
            value = tuple(float(f"{v * (1.0 + rng.uniform(-JITTER, JITTER)):.6g}") for v in value)
        jittered[key] = value
    return jittered


def config_text(default_text: str, overrides: dict) -> str:
    """The built-in config with the overridden keys' lines replaced."""
    def render(value) -> str:
        return ", ".join(repr(v) for v in value) if isinstance(value, tuple) else str(value)

    lines, pending = [], dict(overrides)
    for line in default_text.splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        lines.append(f"{key} = {render(pending.pop(key))}" if key in pending else line)
    lines.extend(f"{key} = {render(value)}" for key, value in pending.items())
    return "\n".join(lines) + "\n"


# --- output checks --------------------------------------------------------------


def _hash_dir(out_dir: Path) -> dict[str, str]:
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def _report_value(stdout: str, label: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(label):
            return float(line.split("=", 1)[1].split()[0])
    return math.nan


def check_outputs(command: str, out_dir: Path, stdout: str, n_bar_cold: float) -> tuple[object, list[str]]:
    """(fingerprint, problems) of one invocation's outputs.

    Equal configs must give equal fingerprints: the manifest's file hash
    map for `reproduce`, the hash map of all files for `simulate`, and
    the printed report for `params`.  Missing or malformed outputs are
    problems, not errors.
    """
    try:
        return _check_outputs(command, out_dir, stdout, n_bar_cold)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return None, [f"unreadable outputs: {exc!r}"]


def _check_outputs(command: str, out_dir: Path, stdout: str, n_bar_cold: float) -> tuple[object, list[str]]:
    problems = []
    if command == "reproduce":
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        if manifest.get("all_passed") is not True:
            failed = [c["name"] for c in manifest.get("checks", []) if not c["passed"]]
            problems.append(f"manifest all_passed is not true: {failed}")
        with (out_dir / "sweep.csv").open(encoding="utf-8") as handle:
            statuses = [line.rstrip("\n").split(",")[6] for line in list(handle)[1:]]
        if not statuses or any(s != "ok" for s in statuses):
            problems.append(f"failed sweep cells: {statuses}")
        return manifest.get("files"), problems
    if command == "simulate":
        fingerprint = _hash_dir(out_dir)
        tables = sorted(out_dir.glob("n_bar_t_tf*.csv"))
        if not tables:
            problems.append("no occupation tables written")
        for table in tables:
            last = table.read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)[-1]
            drift = float(last.split(",")[1]) - n_bar_cold
            if not abs(drift) <= DRIFT_TOL:
                problems.append(f"{table.name}: final occupation drift {drift:.3e}")
        return fingerprint, problems
    eta = _report_value(stdout, "coupling eta")
    n_cold = _report_value(stdout, "occupation at omega_0")
    if not abs(eta - 1.25e7) <= 0.01 * 1.25e7:
        problems.append(f"eta {eta!r} off the 1.25e7 target")
    if not abs(n_cold - n_bar_cold) <= DRIFT_TOL:
        problems.append(f"printed n_bar_cold {n_cold!r} != {n_bar_cold!r}")
    return stdout, problems


# --- fresh processes --------------------------------------------------------------


def _alarm(signum, frame):
    raise TimeoutError


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], stdout_path: Path, script: str = "child.py") -> tuple[int, float, float]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in MB)."""
    with stdout_path.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args], stdout=out, env=child_env(), cwd=ROOT
        )
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_probe(config_path: Path, work: Path) -> dict:
    """Fresh-process import of biascool.cli plus loading the workload config."""
    out = work / "setup.out"
    rc, _, _ = spawn(["setup", str(config_path)], out)
    if rc != 0:
        raise BenchError(f"set-up probe exited with {rc}")
    return json.loads(out.read_text(encoding="utf-8"))


def host_probe(work: Path) -> dict:
    """One run of the fixed reference program hostref.py: its part timings and wall time."""
    out = work / "hostref.out"
    rc, wall, _ = spawn([str(work / "hostref.csv")], out, "hostref.py")
    if rc != 0:
        raise BenchError(f"host reference exited with {rc}")
    return {**json.loads(out.read_text(encoding="utf-8")), "wall_s": wall}


# --- statistics -------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile above the median with ten samples above it (nearest rank)."""
    n = len(values)
    q = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if q <= 50:
        return None
    return q, sorted(values)[math.ceil(q * n / 100) - 1]


def result(attempted: int, failed: int, values: dict[str, float], unit_of) -> dict:
    """The benchmark's last output line: correct, attempted, failed, metrics."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
    }


# --- the untraced run -------------------------------------------------------------------


def host_scaled(values: list[float], refs: list[float], brackets: list[int]) -> list[float]:
    """Each sample over the mean of the reference runs just before and after it."""
    return [v / (0.5 * (refs[k] + refs[k + 1])) for v, k in zip(values, brackets)]


def measure(name: str, config_path: Path, work: Path, seconds: float, n_bar_cold: float) -> dict:
    """The closed loop of CLI invocations; each also times its own set-up.

    A shared host runs in speed phases, seconds to minutes long, that
    differ up to 2x.  So the fixed reference program hostref.py runs
    between invocations, each timing is divided by the mean of the
    matching part (REF_PART) of the two reference runs around it, and a
    metric is the median of these ratios times REF_S: seconds at the
    speed the baseline host ran the reference.  The raw medians and tail
    percentiles are printed beside.
    """
    command, _ = WORKLOADS[name]
    setup_probe(config_path, work)  # fill the bytecode and file caches
    refs = [host_probe(work)]
    brackets, setups, walls, commands, rss = [], [], [], [], []
    attempted, failed, reference = 0, 0, None
    start = time.perf_counter()
    while attempted < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        out_dir = work / f"out{attempted}"
        timings = work / "timings.json"
        timings.unlink(missing_ok=True)
        argv = [command, "--config", str(config_path), "--out", str(out_dir)]
        rc, wall, peak = spawn(["cli", str(timings), str(config_path), "--", *argv], work / "stdout.txt")
        attempted += 1
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if rc == 0:
            fingerprint, problems = check_outputs(
                command, out_dir, (work / "stdout.txt").read_text(encoding="utf-8"), n_bar_cold
            )
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                problems.append("outputs differ from the first run of the same config")
            times = json.loads(timings.read_text(encoding="utf-8"))
            brackets.append(len(refs) - 1)
            setups.append(times["import_s"] + times["load_s"])
            walls.append(wall)
            commands.append(times["command_s"])
            rss.append(peak)
        shutil.rmtree(out_dir, ignore_errors=True)
        refs.append(host_probe(work))
        if problems:
            failed += 1
            print(f"FAILED invocation {attempted}: {'; '.join(problems)}")

    if not walls:
        raise BenchError("no invocation succeeded")
    samples = {"hostref": refs, "brackets": brackets, "cli_wall_s": walls, "command_s": commands, "setup_s": setups}
    (work / "samples.json").write_text(json.dumps(samples), encoding="utf-8")
    metrics = {}
    for label, values in (("cli_wall_s", walls), ("command_s", commands), ("setup_s", setups)):
        part = [r[REF_PART[label]] for r in refs]
        metrics[label] = REF_S[label] * statistics.median(host_scaled(values, part, brackets))
        print(f"host reference {REF_PART[label]}: median {statistics.median(part):.4f} s over "
              f"{len(part)} runs; REF_S {REF_S[label]} s")
        tail = tail_percentile(values)
        print(
            f"{label}: {metrics[label]:.4f} s host-scaled; raw median {statistics.median(values):.4f} s "
            f"over {len(values)} samples, "
            + (f"p{tail[0]} {tail[1]:.4f} s" if tail else "too few samples for a tail percentile above the median")
        )
    if command == "reproduce":
        digest = hashlib.sha256(json.dumps(reference, sort_keys=True).encode()).hexdigest()
        print(f"manifest files digest {digest[:16]}")
    metrics["peak_rss_mb"] = statistics.median(rss)
    metrics["success_ratio"] = (attempted - failed) / attempted
    return result(attempted, failed, metrics, END_TO_END_UNITS.get)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biascool" / "cli.py").is_file():
        print(f"error: no biascool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from biascool.cli import build_report
    from biascool.config import DEFAULT_CONFIG, load_config

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    overrides = workload_overrides(args.workload, args.seed)
    config_path = work / "workload.cfg"
    config_path.write_text(config_text(DEFAULT_CONFIG, overrides), encoding="utf-8")
    print(f"workload {args.workload} seed {args.seed}: {overrides}")
    n_bar_cold = build_report(load_config(config_path)).n_bar_cold

    if args.trace:
        import tracing

        outcome = tracing.traced_run(args.workload, config_path, work, n_bar_cold)
    else:
        outcome = measure(args.workload, config_path, work, args.seconds, n_bar_cold)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.modules.setdefault("run", sys.modules[__name__])  # tracing.py imports this module
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
