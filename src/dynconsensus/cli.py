"""Command-line interface: generate scenarios, run + check them, query the
oracle, and drive seeded batches.

Exit codes: 0 success, 1 checker failure, 2 usage / parse / infeasible /
file I/O.
All output is stable for fixed inputs (no timestamps, sorted keys).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys

from . import adversary as adv
from . import harness
from .graphs import (
    causal_distance,
    network_causal_diameter,
    root_components,
    INFINITY,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# Each oracle query's form and the argument counts it takes.
ORACLE_QUERIES = {
    "roots": ("roots [r]", (0, 1)),
    "cd": ("cd p q r", (3,)),
    "diam": ("diam r s", (2,)),
    "rst": ("rst", (0,)),
}


def _fmt(value):
    if value == INFINITY:
        return "INFINITY"
    if value is None:
        return "NONE"
    return str(value)


# What a generator parameter takes when its flag is absent; `horizon` takes
# the generator's own default instead.
FLAG_DEFAULTS = {"seed": 0, "n": 4, "d_bound": 2, "r_st": 2, "kappa": 3,
                 "n0": 2, "n1": 2, "root_size": 8}


def _build_scenario(args, i=0):
    """`adversary.gen_NAME` for `--gen NAME`, called with each parameter it
    declares read from the flag of that dest; `batch` scenario i adds i to
    the seed, and is refused for i > 0 when there is no seed.  A flag it
    declares no parameter for is refused, not dropped: `--n` or `--d` unless
    equal to the n or D the generator fixes itself, any other flag whenever
    given."""
    gen = getattr(adv, f"gen_{args.gen}", None)
    if gen is None:
        raise adv.InfeasibleError(f"unknown generator: {args.gen}")
    params = inspect.signature(gen).parameters
    if i and "seed" not in params:
        raise adv.InfeasibleError(f"--gen {args.gen} takes no seed, so "
                                  f"--count {args.count} would repeat one "
                                  f"scenario")
    for dest in FLAG_DEFAULTS:
        if (dest not in params and dest not in ("n", "d_bound")
                and getattr(args, dest) is not None):
            raise adv.InfeasibleError(f"--gen {args.gen} does not take "
                                      f"--{dest.replace('_', '-')}")
    kwargs = {}
    for name, param in params.items():
        value = getattr(args, name)
        if value is None:
            value = FLAG_DEFAULTS.get(name, param.default)
        if value is param.empty:
            raise adv.InfeasibleError(f"--gen {args.gen} needs --{name}")
        kwargs[name] = value + i if name == "seed" else value
    sc = gen(**kwargs)
    for name, asked, got in (("n", args.n, sc.n),
                             ("D", args.d_bound, sc.d_bound)):
        if asked is not None and asked != got:
            raise adv.InfeasibleError(f"--gen {args.gen} gives {name}={got}, "
                                      f"not --{name.lower()} {asked}")
    return sc


def _print_validation(sc):
    report = sc.facts
    counts = sorted({len(rr) for rr in report.roots})
    print(f"generator={sc.meta.get('generator')} n={sc.n} D={sc.d_bound} "
          f"T={sc.horizon}")
    print(f"roots_per_round={counts}")
    print(f"r_ST={_fmt(report.r_st)}")
    print(f"assumption_holds={report.assumption_holds}")
    if report.multi_root_rounds:
        print(f"multi_root_rounds={report.multi_root_rounds[:10]}")
    if report.unbounded_intervals:
        print(f"unbounded_intervals={report.unbounded_intervals[:10]}")


def cmd_generate(args):
    try:
        sc = _build_scenario(args)
    except ValueError as exc:  # InfeasibleError, or a value Scenario rejects
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_USAGE
    adv.scenario_save(sc, args.out)
    _print_validation(sc)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_run(args):
    try:
        sc = adv.scenario_load(args.scenario)
    except (adv.ScenarioParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    trace = harness.run(sc, prune=args.prune)
    verdicts = harness.run_checkers(trace, full=not args.quick)
    if args.trace:
        harness.trace_save(trace, args.trace)
    for v in verdicts:
        line = f"{v.name}: {v.status}"
        if v.status == "fail" and v.witness is not None:
            line += " witness=" + json.dumps(v.witness, sort_keys=True)
        print(line)
    ok = all(v.ok for v in verdicts)
    print("RESULT: " + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_oracle(args):
    name, *q = args.query
    if name not in ORACLE_QUERIES:
        print(f"unknown query: {name}", file=sys.stderr)
        return EXIT_USAGE
    form, counts = ORACLE_QUERIES[name]
    if len(q) not in counts:
        print(f"bad query: expected '{form}', got '{' '.join(args.query)}'",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        sc = adv.scenario_load(args.scenario)
    except (adv.ScenarioParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if name == "roots":
            rounds = [int(q[0])] if q else range(1, sc.horizon + 1)
            for r in rounds:
                roots = root_components(sc.seq.round(r))
                print(f"{r}: {[sorted(c) for c in roots]}")
        elif name == "cd":
            p, qq, r = map(int, q)
            print(_fmt(causal_distance(sc.seq, r, p, qq)))
        elif name == "diam":
            r, s = map(int, q)
            print(_fmt(network_causal_diameter(sc.seq, (r, s))))
        else:
            print(_fmt(sc.facts.r_st))
    except ValueError as exc:
        print(f"bad query: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_batch(args):
    if args.count < 0:
        print(f"usage error: --count {args.count} is negative", file=sys.stderr)
        return EXIT_USAGE
    try:
        scenarios = [
            _build_scenario(args, i) for i in range(args.count)
        ]
    except ValueError as exc:  # InfeasibleError, or a value Scenario rejects
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows, _ = harness.batch(scenarios, full=args.full)
    harness.report_csv(rows, args.out)
    failed = sum(
        any(row[c] == "fail" for c in harness.CHECKER_NAMES) for row in rows
    )
    print(f"scenarios={len(rows)} failed={failed}")
    print(f"wrote {args.out}")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_report(args):
    rows = []
    for path in args.inputs:
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                rows.extend(csv.DictReader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            print(f"parse error: {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    rows.sort(key=lambda row: (str(row.get("generator")),
                               str(row.get("seed"))))
    harness.report_csv(
        [{c: row.get(c, "") for c in harness.REPORT_COLUMNS} for row in rows],
        args.out,
    )
    print(f"rows={len(rows)}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _add_generator_flags(parser):
    """The flags `_build_scenario` reads; None means absent from the
    command line."""
    parser.add_argument("--gen", required=True, help="one of: " + ", ".join(
        sorted(name[4:] for name in vars(adv) if name.startswith("gen_"))))
    parser.add_argument("--n", type=int)
    parser.add_argument("--d", dest="d_bound", metavar="D", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--r-st", dest="r_st", type=int)
    parser.add_argument("--kappa", type=int)
    parser.add_argument("--n0", type=int)
    parser.add_argument("--n1", type=int)
    parser.add_argument("--root-size", dest="root_size", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dynconsensus",
        description="Simulator and verification harness for consensus in "
                    "synchronous dynamic directed networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a scenario file")
    _add_generator_flags(g)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="simulate a scenario and run all checkers")
    r.add_argument("--scenario", required=True)
    r.add_argument("--trace", default=None)
    r.add_argument("--prune", action="store_true")
    r.add_argument("--quick", action="store_true",
                   help="skip the per-round approximation/lock checkers")
    r.set_defaults(func=cmd_run)

    o = sub.add_parser("oracle", help="query the graph oracle")
    o.add_argument("--scenario", required=True)
    o.add_argument("query", nargs="+",
                   help=" | ".join(f for f, _ in ORACLE_QUERIES.values()))
    o.set_defaults(func=cmd_oracle)

    b = sub.add_parser("batch", help="seeded sweep with CSV report")
    _add_generator_flags(b)
    b.add_argument("--count", type=int, required=True)
    b.add_argument("--full", action="store_true")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_batch)

    p = sub.add_parser("report", help="merge batch CSVs deterministically")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except OSError as exc:  # reading or writing a file the user named
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
