"""Command-line interface: generate scenarios, run + check them, query the
oracle, and drive seeded batches.

Exit codes: 0 success, 1 checker failure, 2 usage / parse / infeasible.
All output is stable for fixed inputs (no timestamps, sorted keys).
"""

from __future__ import annotations

import argparse
import sys

from . import adversary as adv
from . import harness
from .graphs import (
    OutOfRangeError,
    MultipleRootsError,
    causal_distance,
    network_causal_diameter,
    root_components,
    INFINITY,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _fmt(value):
    if value == INFINITY:
        return "INFINITY"
    if value is None:
        return "NONE"
    return str(value)


# Generators without a default horizon.
NEEDS_HORIZON = ("rotating_roots", "static_line", "static_star",
                 "reversing_line", "two_roots", "short_window", "expander")


def _build_scenario(args):
    gen = args.gen
    if args.horizon is None and gen in NEEDS_HORIZON:
        raise adv.InfeasibleError(f"--gen {gen} needs --horizon")
    if gen == "stable_window":
        return adv.gen_stable_window(
            seed=args.seed, n=args.n, d_bound=args.d, r_st=args.r_st,
            window_len=args.window_len, horizon=args.horizon,
        )
    if gen == "rotating_roots":
        return adv.gen_rotating_roots(
            seed=args.seed, n=args.n, d_bound=args.d, horizon=args.horizon
        )
    if gen == "static_line":
        return adv.gen_static_line(args.n, args.horizon)
    if gen == "static_star":
        return adv.gen_static_star(args.n, args.horizon)
    if gen == "reversing_line":
        return adv.gen_reversing_line(args.n, args.kappa, args.horizon)
    if gen == "two_roots":
        return adv.gen_two_roots(args.n0, args.n1, args.horizon)
    if gen == "complete_then_rings":
        return adv.gen_complete_then_rings(args.horizon or 3)
    if gen == "short_window":
        return adv.gen_short_window(
            args.n, args.d, args.horizon, r_st=args.r_st or 3, seed=args.seed
        )
    if gen == "expander":
        cfg = adv.ExpanderConfig(
            n=args.n, root_size=args.root_size, degree=args.degree
        )
        return adv.gen_expander(cfg, args.seed, args.horizon)
    raise adv.InfeasibleError(f"unknown generator: {gen}")


def _print_validation(sc):
    report = sc.facts
    counts = sorted({len(rr.roots) for rr in report.roots})
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
    try:
        adv.scenario_save(sc, args.out)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
            line += f" witness={v.witness}"
        print(line)
    ok = all(v.ok for v in verdicts)
    print("RESULT: " + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_oracle(args):
    try:
        sc = adv.scenario_load(args.scenario)
    except (adv.ScenarioParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    q = args.query
    try:
        if q[0] == "roots":
            rounds = [int(q[1])] if len(q) > 1 else range(1, sc.horizon + 1)
            for r in rounds:
                roots = root_components(sc.seq.round(r)).roots
                print(f"{r}: {[sorted(c) for c in roots]}")
        elif q[0] == "cd":
            p, qq, r = int(q[1]), int(q[2]), int(q[3])
            print(_fmt(causal_distance(sc.seq, r, p, qq)))
        elif q[0] == "diam":
            r, s = int(q[1]), int(q[2])
            print(_fmt(network_causal_diameter(sc.seq, (r, s))))
        elif q[0] == "rst":
            print(_fmt(sc.facts.r_st))
        else:
            print(f"unknown query: {q[0]}", file=sys.stderr)
            return EXIT_USAGE
    except (IndexError, ValueError, OutOfRangeError, MultipleRootsError) as exc:
        print(f"bad query: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_batch(args):
    scenarios = []
    try:
        for i in range(args.count):
            seed = args.seed + i
            if args.gen == "stable_window":
                scenarios.append(
                    adv.gen_stable_window(
                        seed=seed, n=args.n, d_bound=args.d,
                        r_st=args.r_st or (2 + seed % 5),
                    )
                )
            elif args.gen == "rotating_roots":
                scenarios.append(
                    adv.gen_rotating_roots(
                        seed=seed, n=args.n, d_bound=args.d,
                        horizon=args.horizon or 30,
                    )
                )
            else:
                print(f"batch supports stable_window and rotating_roots, "
                      f"not {args.gen}", file=sys.stderr)
                return EXIT_USAGE
    except adv.InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows, _ = harness.batch(scenarios, full=args.full)
    harness.report_csv(rows, args.out)
    failed = sum(
        1
        for row in rows
        if any(row[c] == "fail" for c in ("agreement", "validity",
                                          "termination", "approx", "lock"))
    )
    print(f"scenarios={len(rows)} failed={failed}")
    print(f"wrote {args.out}")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_report(args):
    import csv

    rows = []
    for path in args.inputs:
        try:
            with open(path, newline="") as fh:
                rows.extend(csv.DictReader(fh))
        except OSError as exc:
            print(f"io error: {exc}", file=sys.stderr)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dynconsensus",
        description="Simulator and verification harness for consensus in "
                    "synchronous dynamic directed networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a scenario file")
    g.add_argument("--gen", required=True)
    g.add_argument("--n", type=int, default=4)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--horizon", type=int, default=None)
    g.add_argument("--r-st", dest="r_st", type=int, default=2)
    g.add_argument("--window-len", dest="window_len", type=int, default=None)
    g.add_argument("--kappa", type=int, default=3)
    g.add_argument("--n0", type=int, default=2)
    g.add_argument("--n1", type=int, default=2)
    g.add_argument("--root-size", dest="root_size", type=int, default=8)
    g.add_argument("--degree", type=int, default=4)
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
                   help="roots [r] | cd p q r | diam r s | rst")
    o.set_defaults(func=cmd_oracle)

    b = sub.add_parser("batch", help="seeded sweep with CSV report")
    b.add_argument("--gen", required=True)
    b.add_argument("--count", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--n", type=int, default=6)
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--r-st", dest="r_st", type=int, default=None)
    b.add_argument("--horizon", type=int, default=None)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
