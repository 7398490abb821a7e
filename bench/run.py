"""Benchmark of conormal: seeded workloads, timed end to end or traced per layer.

Run from the repository root (standard library only, one process, one
thread):

    python3 bench/run.py --workload suites --seed 1 --seconds 20 --trace 0

Workloads: suites, cohomology, operations (see bench/README.md).  A run is
three sessions; each imports conormal afresh, generates the inputs of its
third of the rounds from the seed and runs them.  Every operation is timed
between two runs of a fixed reference loop and reported in reference
seconds (see probed).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end figures (setup_s, wall_s, op_p50_s, op_p90_s, peak_rss_mib);
with --trace 1 a fourth, traced session repeats the first session's rounds,
the metrics are the per-layer figures and the spans are written to
bench/out/.  --negative-control breaks the checks on purpose (the
microlocal Euler class sign flip, and wrong expected Betti numbers) to show
that they can fail.

Exit codes: 0 every operation passed its check, 1 some operation failed,
2 the package cannot be loaded from src/ of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("qlinalg", "cellcx", "sheaf", "mueu", "tracekernel", "lefschetz",
           "randgen", "checks")
SESSIONS = 3
# The reference loop and its median time on the 2-core machine of
# bench/README.md.  That machine's cores run the same code at speeds up to
# 1.9x apart from one moment to the next, most likely as other guests load
# the same physical core, and the slow share drifts over minutes.  The loop, which uses
# nothing of conormal, is run right before and right after each timed
# stretch; the stretch's seconds are scaled by REF_SECONDS over the mean of
# the two loop times, so a figure reads as it would at that machine's
# median speed, and a stretch slowed along with the loop is not counted slow.
REF_TERMS = 150
REF_SECONDS = 0.00054
# Set-up is timed in stretches of at least this long, each between two
# reference loops (the operations are timed one by one).
SETUP_STRETCH_S = 0.05


def reference():
    """Seconds of one run of the reference loop (Fraction sums)."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, REF_TERMS):
        s += Fraction(i % 7 + 1, i % 11 + 1)
    return time.perf_counter() - t0


def probed(call):
    """Run call() between two reference loops: (result, reference seconds).

    An exception of call() is returned as the result."""
    before = reference()
    t0 = time.perf_counter()
    try:
        res = call()
    except Exception as e:  # the operation itself failed
        res = e
    secs = time.perf_counter() - t0
    return res, secs * 2 * REF_SECONDS / (before + reference())


def load_conormal():
    """Import conormal afresh from src/ of this checkout."""
    for name in [n for n in sys.modules if n == "conormal" or n.startswith("conormal.")]:
        del sys.modules[name]
    pkg = importlib.import_module("conormal")
    if Path(pkg.__file__).resolve().parent != SRC / "conormal":
        raise ImportError("conormal was imported from %s, not from %s" % (pkg.__file__, SRC))
    return SimpleNamespace(**{m: importlib.import_module("conormal." + m) for m in MODULES})


def generate(ops_iter):
    """Pull every Op from ops_iter in stretches of SETUP_STRETCH_S, each
    probed; returns (ops, reference seconds)."""
    ops, secs, done = [], 0.0, False

    def stretch():
        nonlocal done
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < SETUP_STRETCH_S:
            op = next(ops_iter, None)
            if op is None:
                done = True
                return
            ops.append(op)
    while not done:
        res, s = probed(stretch)
        if isinstance(res, Exception):
            raise res
        secs += s
    return ops, secs


def setup(workload, seed, rounds, negative, tracer=None):
    """Import conormal and generate the inputs of the given rounds; returns
    (reference seconds, cn, ops).

    With a tracer, the generation (not the import) runs as a "setup" span
    and the seconds are None.
    """
    gc.collect()
    make = (lambda cn: (op for r in rounds
                        for op in wl.WORKLOADS[workload](cn, seed, r, negative)))
    if tracer is None:
        cn, secs = probed(load_conormal)
        if isinstance(cn, Exception):
            raise cn
        ops, gen_secs = generate(make(cn))
        secs += gen_secs
    else:
        cn, secs = load_conormal(), None
        tracer.install(vars(cn))
        ops = tracer.root("setup", lambda: list(make(cn)))
    if negative:
        cn.mueu.set_negative_control(True)
    return secs, cn, ops


def run_session(ops, tracer=None):
    """Time every operation and check its result right after it, untimed.

    The inputs made at set-up are frozen out of the cyclic garbage collector
    for the session: they are the benchmark's, not the program's.  Untimed,
    a collection of the two young generations runs before each operation,
    so the garbage of earlier operations and checks is freed and a young
    collection inside an operation is one its own allocations make due.
    What the program keeps across operations (randgen._INV_CACHE, for one)
    stays tracked, and the full collections that scan it inside an
    operation cost what they cost.
    """
    times, failed = [], 0
    gc.collect()
    gc.freeze()
    try:
        for op in ops:
            gc.collect(1)
            res, secs = probed(lambda: tracer.root(op.name, op.call) if tracer else op.call())
            times.append(secs)
            try:
                ok = not isinstance(res, Exception) and op.check(res)
            except Exception as e:
                ok, res = False, e
            if not ok:
                failed += 1
                detail = ("".join(traceback.format_exception(res))
                          if isinstance(res, Exception) else "check failed")
                print("FAILED %s: %s" % (op.name, detail.strip()), file=sys.stderr)
            res = None
    finally:
        gc.unfreeze()
    return {"wall": sum(times), "times": times, "attempted": len(times), "failed": failed}


def end_to_end(setups, sessions):
    """wall_s sums every operation of the run; the quantiles are over them."""
    times = [t for s in sessions for t in s["times"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10)[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
             "peak_rss_mib": "MiB"}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None):
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing orders sets, and randgen.random_inclusion builds a
        # complex from a set of cell ids, so the same seed gives the same
        # inputs only under a fixed hash seed.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--negative-control", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "conormal" / "__init__.py").is_file():
        print("bench: no package at %s; run from a conormal checkout" % SRC, file=sys.stderr)
        return 2
    os.environ.pop("CONORMAL_THREADS", None)
    sys.path.insert(0, str(SRC))
    per_session = max(1, round(args.seconds / (SESSIONS * wl.ROUND_SECONDS[args.workload])))
    session_rounds = [range(i * per_session, (i + 1) * per_session) for i in range(SESSIONS)]

    setups, sessions = [], []
    try:
        for rounds in session_rounds:
            secs, _, ops = setup(args.workload, args.seed, rounds, args.negative_control)
            setups.append(secs)
            sessions.append(run_session(ops))
            ops = None  # drop these inputs before the next set-up
    except ImportError as e:
        print("bench: cannot import conormal: %s" % e, file=sys.stderr)
        return 2
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    if args.trace:
        tracer = tr.Tracer()
        _, cn, ops = setup(args.workload, args.seed, session_rounds[0],
                           args.negative_control, tracer)
        traced = run_session(ops, tracer)
        tracer.uninstall()
        attempted += traced["attempted"]
        failed += traced["failed"]
        values = tracer.metrics(cn.randgen, traced["wall"] - sessions[0]["wall"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tr.metric_units()}
        tracer.write(OUT / ("trace_%s_s%d" % (args.workload, args.seed)))
    else:
        metrics = end_to_end(setups, sessions)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / ("result_%s_s%d_t%d.json" % (args.workload, args.seed, args.trace))).write_text(line + "\n")
    print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
