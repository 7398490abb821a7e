"""Command line front end.

Exit codes: 0 success, 1 validation failure, 2 property violation,
3 parse error (also a usage error on the command line; --help exits 0),
4 internal error (an unexpected exception, reported on stderr without a
traceback).  Every command that reads an instance file
validates its complex and its explicit sheaves first.  Output on stdout
is deterministic; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cellcx import POINT, CellComplexError, cell_sort_key
from .qlinalg import euler
from .sheaf import (euler_char, pushforward, PushforwardError, verdier_dual,
                    kernel_compose, constant, external, SheafError)
from .mueu import mueu, degree, compose_cycle, pushforward_cycle
from .lefschetz import global_trace, local_trace_sum
from . import io, checks

OK, VALIDATION_FAILURE, PROPERTY_VIOLATION, PARSE_ERROR, INTERNAL_ERROR = 0, 1, 2, 3, 4


def _print_cycle(cycle):
    base = cycle.base
    for c in sorted(cycle.weights, key=cell_sort_key(base)):
        print("%+d %s" % (cycle.weights[c], c))
    print("degree %d" % degree(cycle))


def _named(table, name, what):
    if name not in table:
        raise io.ParseError("no %s named %r in this file" % (what, name))
    return table[name]


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args):
    try:
        inst = io.load_instance(args.file)
    except (CellComplexError, SheafError) as e:
        print(e)
        return VALIDATION_FAILURE
    problems = []
    for name, sheaf in inst.sheaves.items():
        problems += ["sheaf %s: %s" % (name, p) for p in sheaf.validate()]
    for name, lf in inst.lefschetz.items():
        problems += ["lefschetz %s: %s" % (name, p) for p in lf.validate()]
    if problems:
        for p in problems:
            print(p)
        return VALIDATION_FAILURE
    print("ok: %d cells, %d sheaves, %d maps" %
          (len(inst.complex), len(inst.sheaves), len(inst.maps)))
    return OK


def cmd_chi(args):
    inst = io.load_instance(args.file)
    sheaf = _named(inst.sheaves, args.sheaf, "sheaf")
    print(euler_char(sheaf))
    return OK


def cmd_cc(args):
    inst = io.load_instance(args.file)
    sheaf = _named(inst.sheaves, args.sheaf, "sheaf")
    _print_cycle(mueu(sheaf))
    return OK


def cmd_check(args):
    report = checks.run_checks(seed=args.seed, cases=args.cases,
                               suites=args.suite or None,
                               max_dim=args.max_dim, max_cells=args.max_cells)
    for line in report.lines():
        print(line)
    for name, seconds in report.suite_seconds.items():
        print("time %s %.2fs" % (name, seconds), file=sys.stderr)
    print("wall time %.2fs" % report.wall_time, file=sys.stderr)
    if not report.ok:
        name, case, detail = report.failures[0]
        out = args.counterexample or "counterexample.json"
        payload = {"suite": name, "case": case, "seed": report.seed,
                   "detail": json.loads(detail)}
        try:
            with open(out, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
        except OSError as e:
            print("counterexample not written to %s: %s" % (out, e),
                  file=sys.stderr)
        else:
            print("first counterexample written to %s" % out, file=sys.stderr)
        return PROPERTY_VIOLATION
    return OK


def cmd_compose(args):
    """Compose two sheaves on the file's complex M viewed as kernels
    point -> M and M -> point, then compare the Euler class of the
    composite against the composition of the classes."""
    inst = io.load_instance(args.file)
    k12 = external(constant(POINT), _named(inst.sheaves, args.k12, "sheaf"))
    k23 = external(_named(inst.sheaves, args.k23, "sheaf"), constant(POINT))
    composed = kernel_compose(k12, k23)
    got = mueu(composed)
    expected = compose_cycle(mueu(k12), mueu(k23))
    _print_cycle(got)
    if got != expected:
        print("class of composite disagrees with composed classes")
        return PROPERTY_VIOLATION
    print("compose ok")
    return OK


def cmd_pushforward(args):
    inst = io.load_instance(args.file)
    sheaf = _named(inst.sheaves, args.sheaf, "sheaf")
    f = _named(inst.maps, args.map, "map")
    try:
        pushed = pushforward(f, sheaf)
    except PushforwardError as e:
        print("pushforward not representable: %s" % e)
        return VALIDATION_FAILURE
    for c in sorted(pushed.base.cell_ids(), key=cell_sort_key(pushed.base)):
        print("chi %s = %d" % (c, euler(pushed.stalk(c))))
    pushed_class = mueu(pushed)
    if pushed_class != pushforward_cycle(f, mueu(sheaf)):
        print("class of pushforward disagrees with pushed class")
        return PROPERTY_VIOLATION
    print("pushforward ok, degree %d" % degree(pushed_class))
    return OK


def cmd_dual(args):
    inst = io.load_instance(args.file)
    sheaf = _named(inst.sheaves, args.sheaf, "sheaf")
    df = verdier_dual(sheaf)
    for c in sorted(df.base.cell_ids(), key=cell_sort_key(df.base)):
        print("chi %s = %d" % (c, euler(df.stalk(c))))
    index = euler_char(df)
    if index != euler_char(sheaf):
        print("duality changed the global index")
        return PROPERTY_VIOLATION
    print("dual ok, degree %d" % index)
    return OK


def cmd_lefschetz(args):
    inst = io.load_instance(args.file)
    lf = _named(inst.lefschetz, args.instance, "lefschetz instance")
    problems = lf.validate()
    if problems:
        for p in problems:
            print(p)
        return VALIDATION_FAILURE
    g = global_trace(lf)
    l = local_trace_sum(lf)
    print("global %s" % g)
    print("local %s" % l)
    if g != l:
        print("trace mismatch")
        return PROPERTY_VIOLATION
    print("lefschetz ok")
    return OK


def cmd_expand(args):
    inst = io.load_instance(args.file)
    k = _named(inst.kernels, args.kernel, "kernel")
    pairs = k.stalk_pairs()  # the stalk at (x, y) is A_x (x) B_y
    for c in sorted(pairs, key=lambda c: (k.base.dim(c[0]) + k.base.dim(c[1]), str(c))):
        print("chi %s = %d" % (c, euler(pairs[c][0]) * euler(pairs[c][1])))
    print("class:")
    _print_cycle(k.euler_class)
    return OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Exits with PARSE_ERROR on a usage error: argparse's own code 2 would
    read as a property violation.  Subparsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(PARSE_ERROR, "%s: error: %s\n" % (self.prog, message))


def _at_least(low):
    """An argparse type: an int no smaller than low."""
    def integer(text):
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, n))
        return n
    return integer


def build_parser():
    ap = _Parser(
        prog="conormal",
        description="Exact calculus of cellular sheaves, cycles and "
                    "trace kernels on finite cell complexes.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a JSON instance file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("chi", help="global index of a named sheaf")
    p.add_argument("file")
    p.add_argument("sheaf")
    p.set_defaults(fn=cmd_chi)

    p = sub.add_parser("cc", help="characteristic cycle of a named sheaf")
    p.add_argument("file")
    p.add_argument("sheaf")
    p.set_defaults(fn=cmd_cc)

    p = sub.add_parser("check", help="run seeded property suites")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cases", type=_at_least(1), default=100)
    p.add_argument("--suite", action="append", choices=sorted(checks.SUITES),
                   help="restrict to a suite (repeatable)")
    p.add_argument("--max-dim", type=_at_least(0), default=3,
                   help="top cell dimension of the index suite's complexes "
                        "(the other suites draw fixed sizes)")
    p.add_argument("--max-cells", type=_at_least(1), default=40,
                   help="cell bound of the index suite's complexes "
                        "(the other suites draw fixed sizes)")
    p.add_argument("--counterexample", help="failure output path")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compose", help="compose two sheaves as kernels "
                                       "point -> M -> point")
    p.add_argument("file")
    p.add_argument("k12")
    p.add_argument("k23")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("pushforward", help="push a sheaf along a named map")
    p.add_argument("file")
    p.add_argument("sheaf")
    p.add_argument("map")
    p.set_defaults(fn=cmd_pushforward)

    p = sub.add_parser("dual", help="stalkwise indices of the dual sheaf")
    p.add_argument("file")
    p.add_argument("sheaf")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("lefschetz", help="run a named fixed point instance")
    p.add_argument("file")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_lefschetz)

    p = sub.add_parser("expand", help="expand a named trace-kernel tree")
    p.add_argument("file")
    p.add_argument("kernel")
    p.set_defaults(fn=cmd_expand)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except io.ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return PARSE_ERROR
    except (CellComplexError, SheafError) as e:
        print("validation failure: %s" % e, file=sys.stderr)
        return VALIDATION_FAILURE
    except Exception as e:
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
