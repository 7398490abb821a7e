"""Remake the figures quoted in bench/README.md.

Run from the repository root:

    python3 bench/figures.py spread --workload cohomology --seeds 1-10
    python3 bench/figures.py trace --seed 1
    python3 bench/figures.py reference

``spread`` runs bench/run.py once per seed, for the run_seconds of
BENCHMARK.json, one run after another, and
prints for every end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the quartile distance as a share
of the median.  ``trace`` makes one traced run per workload and prints the
largest per-layer self times.  ``reference`` times three fixed problems
outside the workloads: homology of the constant sheaf on the 24x24 torus
and on torus7 x torus7, and 200 cases of the compose suite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def bench(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args):
    rows = []
    for seed in seed_range(args.seeds):
        res, elapsed = bench(args.workload, seed, 0)
        rows.append(res)
        print("seed %3d  %5.1fs  %s" % (seed, elapsed, "  ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
    shares = {(r["failed"], r["attempted"]) for r in rows}
    print("failed/attempted: %s" % sorted(shares))
    for name in rows[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in rows]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        print("%-14s median %-10.5g q1 %-10.5g q3 %-10.5g spread %.3f"
              % (name, statistics.median(vals), q1, q3, (q3 - q1) / statistics.median(vals)))


def trace(args):
    for w in WORKLOADS:
        res, elapsed = bench(w, args.seed, 1)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        top = sorted((k for k in m if k.endswith(".self_s") and k.count(".") > 1),
                     key=m.get, reverse=True)[:8]
        print("%s seed %d (%.0fs, %d ops, %d failed): overhead %.2fs" % (
            w, args.seed, elapsed, res["attempted"], res["failed"], m["trace.overhead_s"]))
        print("  layers: " + "  ".join("%s %.2f" % (k[:-7], m[k]) for k in m
                                       if k.endswith(".self_s") and k.count(".") == 1))
        print("  top:    " + "  ".join("%s %.2f" % (k[:-7], m[k]) for k in top))


def reference(args):
    sys.path.insert(0, str(ROOT / "src"))
    from conormal import cellcx, checks, qlinalg, randgen, sheaf

    def homology(cx):
        t0 = time.perf_counter()
        ranks = qlinalg.homology_ranks(sheaf.global_sections(sheaf.constant(cx)))
        return time.perf_counter() - t0, ranks

    c24 = randgen.circle(24)
    t7 = randgen.torus7()
    for label, cx in (("torus 24x24", cellcx.product(c24, c24)[0]),
                      ("torus7 x torus7", cellcx.product(t7, t7)[0])):
        secs, ranks = homology(cx)
        print("%-18s %5d cells  %.1fs  %s" % (label, len(cx), secs, ranks), flush=True)
    t0 = time.perf_counter()
    report = checks.run_checks(seed=1, cases=200, suites=["compose"])
    print("%-18s %.1fs  %s" % ("200 compose cases", time.perf_counter() - t0,
                               "ok" if report.ok else report.failures[0]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", choices=WORKLOADS, required=True)
    s.add_argument("--seeds", default="1-10")
    t = sub.add_parser("trace")
    t.add_argument("--seed", type=int, default=1)
    sub.add_parser("reference")
    args = p.parse_args()
    {"spread": spread, "trace": trace, "reference": reference}[args.cmd](args)


if __name__ == "__main__":
    main()
