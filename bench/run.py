#!/usr/bin/env python3
"""dynconsensus benchmark: seeded scenario workloads through the full
generate -> find_r_st -> run -> check -> summarize -> save pipeline.

    python3 bench/run.py --workload sweep_full --seed 0 --seconds 30 --trace 0

Each workload is a single-threaded closed loop over a fixed corpus of
scenarios: a scenario starts when the previous one has finished.
`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
runs one pass over the corpus, each scenario untraced and then traced, and
reports per-layer times and deterministic counters.  End-to-end times are
scaled to the host's speed (see REF_S).  Every scenario's
decisions are checked against the oracle and, for the default seed, its
trace against the checked-in golden digest.  The last line of standard
output is one JSON object; see bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import networkx as nx

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# The benchmark measures the library in its own checkout, never an
# installed copy.
if not (SRC / "dynconsensus" / "__init__.py").is_file():
    sys.exit(f"bench: no library source at {SRC / 'dynconsensus'}")
sys.path.insert(0, str(SRC))

from dynconsensus import adversary as adv  # noqa: E402
from dynconsensus import harness  # noqa: E402

import spans  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 11
SETUP_CHILD = ("from time import perf_counter; t0 = perf_counter(); "
               "import dynconsensus; print(perf_counter() - t0)")

# Host speed.  On a shared VM the processor's speed drifts by more than 20%
# over minutes, longer than a run, and processor time slows with it as much
# as wall time.  So the end-to-end times are scaled by a reference
# computation timed between scenarios: fixed pure-Python graph work in
# networkx, which the library depends on but these workloads never call.
# A scaled time is what the time would be on a host where one reference
# call takes REF_S.
REF_S = 1e-3
REF_GRAPHS = tuple(
    nx.gnp_random_graph(40, 0.08, seed=k, directed=True) for k in range(4)
)


# Scenario i of a workload's corpus for a seed.  The sizes (n, D, r_ST,
# horizon) depend on i alone and the seed draws only the graphs, so every
# seed runs the same mix of sizes.

def sweep_full_scenario(seed, i):
    """Scenario i of acceptance 1: (n, D, r_ST) exactly as
    tests/test_acceptance.py::_stable_params draws them, from a generator
    seeded by i alone.  On seed 0 the graphs are the test's too."""
    rng = random.Random(f"acc1:{i}")
    n = 3 + i % 14
    d = rng.randint(2, n - 1)
    r_st = rng.randint(1, 6)
    return adv.gen_stable_window(seed=seed * 1000 + i, n=n, d_bound=d,
                                 r_st=r_st)


def quick_batch_scenario(seed, i):
    j = seed * 200 + i
    n = 3 + i % 10
    if i % 2 == 0:
        return adv.gen_rotating_roots(seed=j, n=n, d_bound=2, horizon=25)
    return adv.gen_stable_window(seed=j, n=n, d_bound=2, r_st=1 + i % 5)


def long_pruned_scenario(seed, i, n=20, horizon=96):
    """D alternates 2, 3.  r_ST is drawn in [4D+2, T-4D-2]: more than 4D
    rounds, the pruning cutoff, precede the window, and the window ends
    inside the horizon."""
    d = 2 + i % 2
    r_st = random.Random(f"long_pruned:{i}").randint(4 * d + 2,
                                                     horizon - 4 * d - 2)
    return adv.gen_stable_window(seed=seed * 100 + i, n=n, d_bound=d,
                                 r_st=r_st, horizon=horizon)


def reference_call(k):
    """Seconds one reference computation on graph k (mod 4) takes."""
    g = REF_GRAPHS[k % len(REF_GRAPHS)]
    t0 = perf_counter()
    nx.condensation(g)
    sorted(map(sorted, nx.strongly_connected_components(g)))
    dict(nx.all_pairs_shortest_path_length(g))
    return perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (seed, i) -> Scenario for i in range(corpus)
    corpus: int  # scenarios in one pass; a run makes whole passes
    full: bool  # also run the approximation and lock checkers
    prune: bool
    save_trace: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_full", sweep_full_scenario, corpus=84,
                 full=True, prune=False, save_trace=True),
        Workload("quick_batch", quick_batch_scenario, corpus=200,
                 full=False, prune=False, save_trace=False),
        Workload("long_pruned", long_pruned_scenario, corpus=8,
                 full=True, prune=True, save_trace=True),
    )
}


def run_scenario(workload, seed, i, trace_path):
    """One scenario through the pipeline `dynconsensus batch` runs, plus the
    trace file `--full` batches and `run --trace` write."""
    sc = workload.make(seed, i)
    rows, traces = harness.batch([sc], full=workload.full, prune=workload.prune)
    if workload.save_trace:
        harness.trace_save(traces[0], trace_path)
    return rows[0], traces[0]


def timed_scenario(workload, seed, i, trace_path):
    """(seconds, row, trace); row and trace are None if the pipeline raised."""
    t0 = perf_counter()
    try:
        row, trace = run_scenario(workload, seed, i, trace_path)
    except Exception:
        traceback.print_exc()
        row = trace = None
    return perf_counter() - t0, row, trace


def protocol_digest(trace_path):
    """sha256 of a saved trace's header and round lines (not the verdict
    footer), and the file's size in bytes."""
    with open(trace_path, "rb") as fh:
        lines = fh.readlines()
    return hashlib.sha256(b"".join(lines[:-1])).hexdigest(), sum(map(len, lines))


def scenario_problems(row, trace, digest=None, golden=None):
    """Why a finished scenario counts as failed; empty when it passed."""
    sc = trace.scenario
    problems = []
    values = sorted({v for v, _ in trace.decisions.values()})
    if len(values) > 1:
        problems.append(f"agreement: decided {values}")
    if not set(values) <= set(sc.inputs):
        problems.append(f"validity: decided {values}, inputs {list(sc.inputs)}")
    claimed = sc.meta.get("claimed_r_st")
    if claimed is not None and row["r_ST"] != claimed:
        problems.append(f"oracle: r_ST {row['r_ST']}, generator claims {claimed}")
    bound = row["bound"]
    if bound != "NONE" and bound <= len(trace.records):
        late = [
            p for p in range(sc.n)
            if p not in trace.decisions or trace.decisions[p][1] > bound
        ]
        if late:
            problems.append(f"deadline: {late} undecided by round {bound}")
    if golden is not None and digest != golden:
        problems.append(f"trace digest {digest} != golden {golden}")
    return problems


class Tally:
    """Runs and checks one workload's scenarios for one seed, counting
    outcomes; with a tracer, each pipeline runs traced."""

    def __init__(self, workload, seed, workdir, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.trace_path = workdir / "trace.jsonl"
        self.golden = load_golden(workload, seed)
        self.seconds = []
        self.failed = 0
        self.verdicts = 0
        self.false_fails = 0
        self.trace_bytes = 0

    def attempt(self, i):
        """Run and check scenario i; returns (pipeline seconds, report row),
        the row None if the pipeline raised."""
        w = self.workload
        if self.tracer is None:
            seconds, row, trace = timed_scenario(w, self.seed, i,
                                                 self.trace_path)
        else:
            with spans.traced(self.tracer):
                seconds, row, trace = timed_scenario(w, self.seed, i,
                                                     self.trace_path)
        self.seconds.append(seconds)
        if trace is None:
            self.failed += 1
            return seconds, None
        expected = self.golden[i] if self.golden is not None else None
        digest = None
        if w.save_trace or expected is not None:
            if not w.save_trace:
                harness.trace_save(trace, self.trace_path)
            digest, size = protocol_digest(self.trace_path)
            if w.save_trace:
                self.trace_bytes += size
        problems = scenario_problems(row, trace, digest, expected)
        if problems:
            self.failed += 1
            print(f"{w.name} seed={self.seed} scenario={i} FAILED: "
                  + "; ".join(problems), file=sys.stderr)
        self.verdicts += len(trace.verdicts)
        self.false_fails += sum(
            v.status in ("fail", "inconclusive") for v in trace.verdicts
        )
        return seconds, row

    @property
    def attempted(self):
        return len(self.seconds)

    def checker_false_fail_ratio(self):
        return self.false_fails / self.verdicts if self.verdicts else 0.0


def load_golden(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["workloads"][workload.name]


def measure_setup():
    """(scaled, unscaled) median time a fresh interpreter takes to import
    dynconsensus.  Each import is timed inside its interpreter, so process
    start-up is left out, and scaled by the fastest of four reference calls
    made just before it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CHILD]
    # Untimed first import: byte-compiles the sources of a fresh checkout.
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
    scaled, unscaled = [], []
    for _ in range(SETUP_REPEATS):
        ref = min(reference_call(k) for k in range(4))
        t = float(subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout)
        scaled.append(t * REF_S / ref)
        unscaled.append(t)
    return statistics.median(scaled), statistics.median(unscaled)


def untraced_run(workload, seed, seconds, workdir):
    """End-to-end metrics of a closed loop that passes over the workload's
    corpus again and again until `seconds` have passed and every scenario
    has run; each whole pass ends in the batch CSV report.  A scenario's
    time is its fastest pass: on a shared host, interference only ever adds
    time, and passes spread over the whole run catch the stretches it
    leaves off.  A reference call before each scenario, also kept at its
    fastest pass, gives the host's speed that the times are scaled by."""
    setup_s, setup_unscaled = measure_setup()
    tally = Tally(workload, seed, workdir)
    best = [float("inf")] * workload.corpus
    ref_best = [float("inf")] * workload.corpus
    best_report = float("inf")
    rows = []
    i = 0
    start = perf_counter()
    while tally.attempted < workload.corpus or perf_counter() - start < seconds:
        ref_best[i] = min(ref_best[i], reference_call(i))
        t, row = tally.attempt(i)
        best[i] = min(best[i], t)
        if row is not None:
            rows.append(row)
        i = (i + 1) % workload.corpus
        if i == 0:
            t0 = perf_counter()
            harness.report_csv(rows, workdir / "report.csv")
            best_report = min(best_report, perf_counter() - t0)
            rows = []

    ref_s = statistics.fmean(ref_best)
    scale = REF_S / ref_s
    ms = sorted(s * 1000 for s in best)
    p90 = (statistics.quantiles(ms, n=10, method="inclusive")[-1]
           if len(ms) > 1 else ms[0])
    rate = workload.corpus / (sum(best) + best_report)
    metrics = {
        "scenarios_per_s": (rate / scale, "1/s"),
        "scenario_ms.p50": (statistics.median(ms) * scale, "ms"),
        "scenario_ms.p90": (p90 * scale, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "setup_s": (setup_s, "s"),
    }
    shown = dict(metrics)
    shown["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    shown["checker_false_fail_ratio"] = (
        tally.checker_false_fail_ratio(), "ratio"
    )
    print(f"workload={workload.name} seed={seed} trace=0 "
          f"corpus={workload.corpus} runs={tally.attempted} "
          f"wall_s={perf_counter() - start:.3f}")
    print(f"host: reference call {ref_s * 1000:.4f} ms, times scaled by "
          f"{scale:.4f}; unscaled: scenarios_per_s {rate:.4f}, "
          f"scenario_ms.p50 {statistics.median(ms):.4f}, "
          f"scenario_ms.p90 {p90:.4f}, setup_s {setup_unscaled:.4f}")
    if workload.corpus < 100:
        print(f"note: scenario_ms.p90 rests on {workload.corpus} scenarios "
              f"(<100), fewer than 10 beyond it")
    return tally.attempted, tally.failed, metrics, shown


def layer_metrics(tracer, tally, traced_s, untraced_s):
    """Per-layer times (inclusive unless named self), counters and ratios;
    see bench/README.md for each metric's definition."""
    def total(name):
        return tracer.total_ns[name] / 1e9

    def own(name):
        return tracer.self_ns[name] / 1e9

    def engine(name):
        return tracer.calls_under["harness.run", name]

    calls = tracer.calls
    detected = engine("approximation.detected_component")
    restrict = "approximation.restrict"
    return {
        "harness.approx_digest_s": (total("harness.approx_digest"), "s"),
        "harness.approx_digest_calls": (calls["harness.approx_digest"], "count"),
        "harness.run.self_s": (own("harness.run"), "s"),
        "harness.check_approx_invariants_s": (
            total("harness.check_approx_invariants"), "s"),
        "harness.check_lock_discipline_s": (
            total("harness.check_lock_discipline"), "s"),
        "harness.check_termination_bound_s": (
            total("harness.check_termination_bound"), "s"),
        "harness.check_agreement_s": (total("harness.check_agreement"), "s"),
        "harness.check_validity_s": (total("harness.check_validity"), "s"),
        "harness.trace_save_s": (total("harness.trace_save"), "s"),
        "harness.trace_bytes": (tally.trace_bytes, "count"),
        "harness.checker_false_fail_ratio": (
            tally.checker_false_fail_ratio(), "ratio"),
        "approximation.absorb_s": (total("approximation.absorb"), "s"),
        "approximation.absorb_calls": (calls["approximation.absorb"], "count"),
        "approximation.in_stable_root_s": (
            own("approximation.in_stable_root"), "s"),
        "approximation.in_stable_root_calls": (
            calls["approximation.in_stable_root"], "count"),
        "approximation.detected_component_calls": (
            calls["approximation.detected_component"], "count"),
        "approximation.restrict_calls.engine": (engine(restrict), "count"),
        "approximation.restrict_calls.checker": (
            calls[restrict] - engine(restrict), "count"),
        "approximation.comp_cache_hit_ratio": (
            1 - engine(restrict) / detected if detected else 0.0, "ratio"),
        "approximation.prune_s": (total("approximation.prune"), "s"),
        "approximation.label_bits_per_msg": (
            tracer.label_bits / tracer.messages if tracer.messages else 0.0,
            "bits"),
        "approximation.label_bits_max": (tracer.label_bits_max, "bits"),
        "consensus.step_s": (own("consensus.step"), "s"),
        "consensus.step_calls": (calls["consensus.step"], "count"),
        "consensus.messages": (tracer.messages, "count"),
        "graphs.find_r_st_s": (total("graphs.find_r_st"), "s"),
        "graphs.find_r_st_calls": (calls["graphs.find_r_st"], "count"),
        "graphs.root_components_calls": (
            calls["graphs.root_components"], "count"),
        "adversary.generate_s": (own("adversary.generate"), "s"),
        "tracing.overhead_ratio": (traced_s / untraced_s - 1, "ratio"),
    }


def traced_run(workload, seed, workdir):
    """Per-layer metrics of one pass over the workload's corpus; each
    scenario runs untraced, then traced, for the overhead ratio."""
    tracer = spans.Tracer()
    untraced = Tally(workload, seed, workdir)
    tally = Tally(workload, seed, workdir, tracer)
    for i in range(workload.corpus):
        untraced.attempt(i)
        tally.attempt(i)
    traced_s, untraced_s = sum(tally.seconds), sum(untraced.seconds)
    metrics = layer_metrics(tracer, tally, traced_s, untraced_s)
    print(f"workload={workload.name} seed={seed} trace=1 "
          f"scenarios={tally.attempted} traced_wall_s={traced_s:.3f} "
          f"untraced_wall_s={untraced_s:.3f}")
    return (tally.attempted + untraced.attempted,
            tally.failed + untraced.failed, metrics, metrics)


def write_golden():
    """Recompute the default seed's golden trace digests for every workload."""
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        path = Path(tmp) / "trace.jsonl"
        for workload in WORKLOADS.values():
            digests = []
            for i in range(workload.corpus):
                _, trace = run_scenario(workload, DEFAULT_SEED, i, path)
                harness.trace_save(trace, path)
                digests.append(protocol_digest(path)[0])
            out["workloads"][workload.name] = digests
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def bench(workload, seed, seconds, trace):
    """Run one workload and print its metrics; returns the result object."""
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        if trace:
            attempted, failed, metrics, shown = traced_run(
                workload, seed, Path(tmp)
            )
        else:
            attempted, failed, metrics, shown = untraced_run(
                workload, seed, seconds, Path(tmp)
            )
    for name, (value, unit) in shown.items():
        print(f"{name} = {value} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measured time of an untraced run; 0 makes one "
                             "pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute bench/golden.json and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    result = bench(WORKLOADS[args.workload], args.seed, args.seconds,
                   args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
