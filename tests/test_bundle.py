"""The bundle's bytes, pinned: each case against the committed digest map.

``bundle_digests.json`` holds, per case, the SHA-256 of every file the
case writes, of its stdout and of its stderr, and its exit code.  Each
case runs ``main`` with one worker and with two (``cli._usable_cpus``
picks the count) and a relative ``--out`` in a fresh working directory,
so the manifest's config echo holds no temporary path.

The map records the Python and glibc it was made on.  ``math.exp``,
``sin``, ``cos`` and ``pow`` come from the platform's libm, which need
not round correctly, so another platform may differ in a last bit.  A
change that moves bytes on purpose remakes the map in the same change
(``PYTHONPATH=src python tests/test_bundle.py``) and says which cells
moved.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import pytest

from biascool import cli
from biascool.config import DEFAULT_CONFIG

MAP = Path(__file__).resolve().with_name("bundle_digests.json")

HOT = {
    "t_final = 0.5, 1.0, 2.0": "t_final = 1e-78, 0.5",
    "sample_count = 201": "sample_count = 41",
    "bath_temperature = 20 mK": "bath_temperature = 1e150",
}
JSON = {"format = csv": "format = json"}

# each case: its command line without --config and --out, and its edits of the built-in config
# (none: no --config, the built-in config itself)
CASES = {
    "params": (["params"], {}),
    "reproduce-csv": (["reproduce"], {}),
    "reproduce-json": (["reproduce"], JSON),
    # the t_f 1e-78 ramp overflows part way: partial tables, exit 2; reproduce stops there
    "hot-simulate-csv": (["simulate"], HOT),
    "hot-simulate-json": (["simulate"], {**HOT, **JSON}),
    "hot-reproduce": (["reproduce"], HOT),
    # each row has a lane that overflows the shared march, so both march again cell by cell; exit 2
    "failing-rows-sweep": (["sweep"], {
        "t_final = 0.5, 1.0, 2.0": "t_final = 2.0, 8.0",
        "epsilon = -0.1, 0.0, 0.1": "epsilon = -1.2, -1.25, -2.0, 0.0",
    }),
    # thermal at each lane's own start frequency: at eps -1.2 that is omega^2 = -2.5e6, so those
    # cells carry a status and nan, and exit 2
    "perturbed-sweep": (["sweep"], {
        "initial_state = nominal": "initial_state = perturbed",
        "epsilon = -0.1, 0.0, 0.1": "epsilon = -1.2, -0.1, 0.0, 0.1",
    }),
    "sweep-tight": (["sweep", "--tol", "1e-12"], {}),
    # short ramps, where the march's error model does not yet hold: the map pins these bytes, not
    # their accuracy
    "sweep-short": (["sweep"], {"t_final = 0.5, 1.0, 2.0": "t_final = 1e-6, 1e-3"}),
    "design-4001-csv": (["design", "--samples", "4001"], {}),
    "design-4001-json": (["design", "--samples", "4001"], JSON),
    "simulate-4001-csv": (["simulate", "--samples", "4001"], {}),
    "simulate-4001-json": (["simulate", "--samples", "4001"], JSON),
    # eta out of the float range, raised inside every simulate task: one line, exit 1
    "tiny-frequency-simulate": (["simulate"], {"bare_frequency = 134 kHz": "bare_frequency = 1e-200"}),
    # the benchmark's simulate-dense config; t_f 0.1 has inverted windows (nan cells)
    "simulate-dense-csv": (["simulate"], {
        "t_final = 0.5, 1.0, 2.0": "t_final = 0.1, 1.0, 8.0",
        "sample_count = 201": "sample_count = 4001",
    }),
    "design-4001-p6-json": (["design", "--samples", "4001"], {**JSON, "precision = 12": "precision = 6"}),
    "simulate-p17-json": (["simulate"], {**JSON, "precision = 12": "precision = 17"}),
    # a 1 nK bath: the occupations are rounding-level
    "cold-simulate": (["simulate"], {"bath_temperature = 20 mK": "bath_temperature = 1e-9 K"}),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(case: str) -> dict:
    """Run ``case`` in the working directory; its exit code and the digests of its stdout, stderr and files."""
    argv, edits = CASES[case]
    argv = [*argv, "--out", "out"]
    if edits:
        text = DEFAULT_CONFIG
        for old, new in edits.items():
            assert old in text, old
            text = text.replace(old, new)
        Path("run.cfg").write_text(text, encoding="utf-8")
        argv += ["--config", "run.cfg"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    files = sorted(p for p in Path("out").rglob("*") if p.is_file())
    return {
        "exit": rc,
        "stdout": sha256(out.getvalue().encode()),
        "stderr": sha256(err.getvalue().encode()),
        "files": {p.as_posix(): sha256(p.read_bytes()) for p in files},
    }


def made_on() -> dict:
    return {"python": platform.python_version(), "libc": " ".join(platform.libc_ver())}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", list(CASES))
def test_the_bundle_is_the_pinned_bytes(tmp_path, monkeypatch, case, workers):
    pinned = json.loads(MAP.read_text(encoding="utf-8"))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    monkeypatch.chdir(tmp_path)
    assert digests(case) == pinned["cases"][case], f"pinned on {pinned['made_on']}, run on {made_on()}"


if __name__ == "__main__":  # remake the map with one worker, from the biascool on sys.path
    cli._usable_cpus = lambda: 1
    cases = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            cases[case] = digests(case)
    MAP.write_text(json.dumps({"made_on": made_on(), "cases": cases}, indent=1) + "\n", encoding="utf-8")
    print(f"{MAP}: {len(cases)} cases", file=sys.stderr)
