"""Fast checks of the benchmark itself (no timed runs).

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from biascool.config import DEFAULT_CONFIG, parse_config  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_keys_and_limits():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    names = []
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert m["better"] in ("lower", "higher") and UNIT.match(m["unit"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_metric_names_match_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert sorted(per_layer) == tracing.per_layer_names()
    assert all(tracing.metric_unit(name) == unit for name, unit in per_layer.items())


def test_result_line_shape():
    line = json.dumps(run.result(3, 1, {"setup_s": 0.5, "success_ratio": 2 / 3}, run.END_TO_END_UNITS.get))
    parsed = json.loads(line)
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    assert parsed["correct"] is False and parsed["attempted"] == 3 and parsed["failed"] == 1
    assert parsed["metrics"]["setup_s"] == {"value": 0.5, "unit": "s"}


def test_seed_zero_is_the_nominal_config_and_seeds_repeat():
    for name, (_, nominal) in run.WORKLOADS.items():
        assert run.workload_overrides(name, 0) == nominal
        jittered = run.workload_overrides(name, 7)
        assert jittered == run.workload_overrides(name, 7) != nominal
        for key, value in nominal.items():
            if isinstance(value, tuple):
                for v, j in zip(value, jittered[key]):
                    assert abs(j - v) <= run.JITTER * abs(v) * 1.0001
            else:
                assert jittered[key] == value


def test_config_text_overrides_only_the_given_keys():
    default = parse_config(DEFAULT_CONFIG)
    cfg = parse_config(run.config_text(DEFAULT_CONFIG, {"t_final": (0.1, 8.0), "sample_count": 4001}))
    assert cfg.protocol.t_final == (0.1, 8.0) and cfg.protocol.sample_count == 4001
    assert cfg.physical == default.physical and cfg.sweep == default.sweep


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile([1.0] * 20) is None  # p50 is the median, not a tail
    values = [float(i) for i in range(40)]
    q, value = run.tail_percentile(values)
    assert q == 75 and sum(v > value for v in values) >= 10


def test_host_scaling_brackets_each_sample_with_the_reference_runs_around_it():
    refs = [1.0, 3.0, 2.0, 2.0]
    assert run.host_scaled([4.0, 5.0, 2.0], refs, [0, 1, 2]) == [2.0, 2.0, 1.0]
    assert run.host_scaled([4.0], refs, [2]) == [2.0]  # a failed invocation leaves a gap


def test_self_times_subtract_child_spans():
    rec = tracing.SpanRecorder("test")
    inner = rec.wrap("dynamics.inner", lambda: time.sleep(0.02))
    outer = rec.wrap("cli.main", lambda: (time.sleep(0.01), inner()))
    outer()
    self_times = rec.self_times()
    total = rec.spans[0][2] - rec.spans[0][1]
    assert abs(sum(self_times.values()) - total) < 1e-9
    assert self_times["dynamics"] >= 0.02 and self_times["cli"] >= 0.01


def test_refuses_to_run_without_the_sources():
    bare = run.WORK / "bare"  # holds only BENCHMARK.json and perfbench/
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "params-startup", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout


def test_gate_flags_bad_outputs():
    out = run.WORK / "gate"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    assert run.check_outputs("reproduce", out, "", 0.47)[1][0].startswith("unreadable outputs")
    (out / "manifest.json").write_text(json.dumps(
        {"all_passed": False, "checks": [{"name": "eta", "passed": False}], "files": {}}))
    (out / "sweep.csv").write_text("epsilon,t_final,n,t,s,b,status\n0.1,1,nan,nan,nan,nan,integration failed\n")
    assert len(run.check_outputs("reproduce", out, "", 0.47)[1]) == 2
    (out / "n_bar_t_tf1.csv").write_text("t,n_eff,n_m\n0,0.47,3000\n1,0.4712,0.4712\n")
    fingerprint, problems = run.check_outputs("simulate", out, "", 0.47)
    assert "n_bar_t_tf1.csv" in fingerprint and "drift" in problems[0]
    shutil.rmtree(out)
