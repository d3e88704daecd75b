"""Fresh-interpreter probes started by run.py (one per process).

    child.py setup CONFIG
        import biascool.cli, load CONFIG; print {"import_s", "load_s"} as JSON.
    child.py cli TIMINGS CONFIG -- ARGV...
        import biascool.cli, load CONFIG (the set-up above, once more),
        then run biascool.cli.main(ARGV) exactly as ``python -m
        biascool.cli`` does, exit with its code, and write {"import_s",
        "load_s", "command_s"} to the TIMINGS file.

The package is found through PYTHONPATH, which run.py points at src/.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import biascool.cli as cli

    t1 = time.perf_counter()
    mode = sys.argv[1]
    if mode in ("setup", "cli"):
        from biascool.config import load_config

        load_config(sys.argv[2 if mode == "setup" else 3])
    t2 = time.perf_counter()
    if mode == "setup":
        print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
        return 0
    if mode == "cli" and sys.argv[4] == "--":
        rc = cli.main(sys.argv[5:])
        t3 = time.perf_counter()
        sys.stdout.flush()
        with open(sys.argv[2], "w", encoding="utf-8") as handle:
            json.dump({"import_s": t1 - t0, "load_s": t2 - t1, "command_s": t3 - t2}, handle)
        return rc
    print(f"usage: {__doc__}", file=sys.stderr)
    return 64


if __name__ == "__main__":
    raise SystemExit(main())
