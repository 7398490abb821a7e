"""The benchmark's own test: its checks can fail, and its output matches
BENCHMARK.json.

Run from the repository root (takes a few minutes):

    python3 bench/selftest.py

For every workload it makes a short run that must pass every check and
print exactly the end-to-end metrics, a short traced run that must print
exactly the per-layer metrics, and a short run with --negative-control
that must report failed operations and exit 1.  Last, it copies
BENCHMARK.json and the benchmark's files into a directory without the
package and requires a nonzero exit there with no result printed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, *extra, trace=0):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    return ok


def main():
    good = True
    units = {"end_to_end": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
             "per_layer": {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for w in (x["name"] for x in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run(ROOT, w, trace=trace)
            good &= expect(code == 0 and res is not None and res["correct"] is True
                           and res["failed"] == 0 and res["attempted"] > 0,
                           "%s trace=%d passes every check" % (w, trace))
            got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
            good &= expect(got == units[kind], "%s trace=%d prints the %s metrics" % (w, trace, kind))
        code, res = run(ROOT, w, "--negative-control")
        good &= expect(code == 1 and res is not None and res["correct"] is False
                       and res["failed"] > 0,
                       "%s with --negative-control reports %s failed operations"
                       % (w, res and res["failed"]))
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, res = run(bare, "suites")
    good &= expect(code != 0 and res is None, "without the package: exit %d, no result" % code)
    shutil.rmtree(bare)
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
