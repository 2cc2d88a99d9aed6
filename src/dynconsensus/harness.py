"""Lock-step round engine, trace recording, and the checker suite.

The engine wires the approximation and consensus state machines to a
scenario's graph sequence.  Checkers compare the recorded trace against the
graph oracle's facts about the scenario (`Scenario.facts`, computed once per
scenario), which never look at protocol state.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field

from . import approximation as ap
from . import consensus as cs
from .graphs import _bits


def approx_digest(state):
    """Stable hash of an approximation state for compact trace records."""
    payload = json.dumps(
        {
            "owner": state.owner,
            "vertices": sorted(state.vertices),
            "edges": state.sorted_edges(),
            "pruned_before": state.pruned_before,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def scenario_digest(sc):
    from .adversary import scenario_to_dict

    payload = json.dumps(scenario_to_dict(sc), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RoundRecord:
    round: int
    delivered: dict  # receiver -> sorted list of sender ids
    events: dict  # process -> list of event dicts
    predicate_evals: dict  # process -> {interval: bool}
    state_digests: dict  # process -> approx digest


@dataclass
class Trace:
    scenario: object
    records: list = field(default_factory=list)
    approx_states: list = field(default_factory=list)  # [round-1][p]
    cons_states: list = field(default_factory=list)
    decisions: dict = field(default_factory=dict)  # p -> (value, round)
    verdicts: list = field(default_factory=list)
    pruned: bool = False


@dataclass(frozen=True)
class CheckerVerdict:
    name: str
    status: str  # pass | fail | skipped | inconclusive
    witness: object = None

    @property
    def ok(self):
        return self.status != "fail"


def run(scenario, prune=False, horizon_override=None, reset_lock_round=False):
    """Simulate the scenario round by round and record a full trace.

    Every process emits a packed (approximation snapshot, consensus message)
    at the start of each round; delivery follows the round graph exactly;
    absorb then cons_step run per process.  Deciders keep emitting DECIDE.
    """
    n = scenario.n
    d = scenario.d_bound
    horizon = scenario.horizon if horizon_override is None else horizon_override
    if not 1 <= horizon <= scenario.horizon:
        raise ValueError(
            f"horizon override {horizon} outside [1, {scenario.horizon}]"
        )

    approx = [ap.approx_init(p) for p in range(n)]
    cons = [cs.cons_init(scenario.inputs[p]) for p in range(n)]
    trace = Trace(scenario=scenario, pruned=prune)

    for r in range(1, horizon + 1):
        g = scenario.seq.round(r)
        emitted = [
            cs.pack(ap.approx_emit(approx[p]), cs.cons_emit(cons[p]))
            for p in range(n)
        ]
        in_masks = g.in_masks()
        delivered = {
            q: [(p, emitted[p]) for p in _bits(in_masks[q])] for q in range(n)
        }

        events = {}
        evals = {}
        for p in range(n):
            inbox = delivered[p]
            approx[p] = ap.approx_absorb(
                approx[p], r, [m.approx for _, m in inbox]
            )
            state = approx[p]
            log = {}

            def predicate(interval, _state=state, _log=log, _r=r):
                result = ap.in_stable_root(_state, interval, _r)
                _log[interval] = result
                return result

            cons[p], evs = cs.cons_step(
                cons[p],
                r,
                [(s, m.cons) for s, m in inbox],
                predicate,
                d,
                reset_lock_round=reset_lock_round,
            )
            if evs:
                events[p] = evs
            if log:
                evals[p] = log
            if cons[p].decided and p not in trace.decisions:
                trace.decisions[p] = cons[p].decision

        if prune:
            keep_after = r - 4 * d
            if keep_after > 0:
                approx = [ap.approx_prune(st, keep_after) for st in approx]

        trace.records.append(
            RoundRecord(
                round=r,
                delivered={q: [p for p, _ in delivered[q]] for q in range(n)},
                events=events,
                predicate_evals=evals,
                state_digests={p: approx_digest(approx[p]) for p in range(n)},
            )
        )
        trace.approx_states.append(list(approx))
        trace.cons_states.append(list(cons))

    return trace


def trace_save(trace, path):
    """JSON-lines: header, one record per round, footer with decisions and
    verdicts.  Canonical key order for byte-reproducibility."""
    sc = trace.scenario
    with open(path, "w") as fh:
        header = {
            "scenario_digest": scenario_digest(sc),
            "n": sc.n,
            "D": sc.d_bound,
            "horizon": sc.horizon,
            "pruned": trace.pruned,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec, states in zip(trace.records, trace.cons_states):
            line = {
                "round": rec.round,
                "delivered": {str(q): s for q, s in rec.delivered.items()},
                "events": {str(p): e for p, e in rec.events.items()},
                "predicates": {
                    str(p): {f"[{a},{b}]": v for (a, b), v in log.items()}
                    for p, log in rec.predicate_evals.items()
                },
                "approx": {str(p): d for p, d in rec.state_digests.items()},
                "cons": {
                    str(p): {
                        "x": st.x,
                        "locked": st.locked,
                        "lockRound": st.lock_round,
                        "decided": st.decided,
                    }
                    for p, st in enumerate(states)
                },
            }
            fh.write(json.dumps(line, sort_keys=True) + "\n")
        footer = {
            "decisions": {
                str(p): [v, r] for p, (v, r) in sorted(trace.decisions.items())
            },
            "verdicts": [
                {"name": v.name, "status": v.status, "witness": v.witness}
                for v in trace.verdicts
            ],
        }
        fh.write(json.dumps(footer, sort_keys=True) + "\n")


def check_agreement(trace):
    values = sorted({v for v, _ in trace.decisions.values()})
    if len(values) <= 1:
        return CheckerVerdict("agreement", "pass")
    return CheckerVerdict(
        "agreement",
        "fail",
        witness={
            "values": values,
            "deciders": {
                p: v for p, (v, _) in sorted(trace.decisions.items())
            },
        },
    )


def check_validity(trace):
    inputs = set(trace.scenario.inputs)
    for p, (v, r) in sorted(trace.decisions.items()):
        if v not in inputs:
            return CheckerVerdict(
                "validity",
                "fail",
                witness={"process": p, "value": v, "round": r},
            )
    return CheckerVerdict("validity", "pass")


def check_termination_bound(trace):
    sc = trace.scenario
    r_st = sc.facts.r_st
    if r_st is None:
        return CheckerVerdict("termination", "skipped",
                              witness={"reason": "no stability window"})
    bound = r_st + 4 * sc.d_bound + 1
    simulated = len(trace.records)
    if simulated < bound:
        return CheckerVerdict("termination", "inconclusive",
                              witness={"bound": bound, "horizon": simulated})
    late = {
        p: r for p, (_, r) in trace.decisions.items() if r > bound
    }
    missing = [p for p in range(sc.n) if p not in trace.decisions]
    if late or missing:
        return CheckerVerdict(
            "termination",
            "fail",
            witness={"bound": bound, "late": late, "undecided": missing},
        )
    return CheckerVerdict("termination", "pass", witness={"bound": bound})


def check_approx_invariants(trace):
    """Oracle verification of the approximation layer on every round state:
    under-approximation and in-neighborhood completeness of each changed
    slice, soundness of nonempty detected components, detection completeness
    over D-bounded stable root intervals, and the end-of-interval predicate.

    A pruned run keeps only the paper's 4D+1-slice window: at round t the
    slices before t - 4D are gone, so the completeness rules check only the
    slices that window retains.  The cutoff comes from the trace's pruning
    flag and D, never from protocol state.
    """
    sc = trace.scenario
    seq, n, d = sc.seq, sc.n, sc.d_bound
    horizon = len(trace.records)
    roots = sc.facts.roots

    def fail(rule, **witness):
        return CheckerVerdict("approx", "fail", witness={"rule": rule, **witness})

    for p in range(n):
        prev_edges = {}
        for r in range(1, horizon + 1):
            state = trace.approx_states[r - 1][p]
            changed = 0
            for e, mask in state.edges.items():
                changed |= mask ^ prev_edges.get(e, 0)
            prev_edges = state.edges
            for t in _bits(changed):
                if t > r:
                    return fail("label_from_future", process=p, round=r, slice=t)
                g = seq.round(t)
                _, slice_edges = ap.approx_restrict(state, t)
                receivers = set()
                for u, v in slice_edges:
                    if (u, v) not in g.edges:
                        return fail(
                            "subset", process=p, round=r, slice=t, edge=[u, v]
                        )
                    receivers.add(v)
                for w in receivers:
                    for u in g.in_neighbors(w):
                        if (u, w) not in slice_edges:
                            return fail(
                                "in_neighborhood",
                                process=p, round=r, slice=t,
                                missing=[u, w],
                            )
            # Soundness: a nonempty detected component for a completed slice
            # is exactly a root component containing the owner.
            for s in range(1, r):
                comp = ap.detected_component(state, s)
                if comp and (p not in comp or comp not in roots[s - 1].roots):
                    return fail(
                        "detected_not_root",
                        process=p, round=r, slice=s,
                        detected=sorted(comp),
                    )

    # A round-t state holds the slices from t - retained on.
    retained = 4 * d if trace.pruned else horizon
    for a, b, members in sc.facts.d_bounded_intervals:
        if b > horizon:
            continue
        for p in sorted(members):
            for t in range(a + d, min(b, a + retained) + 1):
                state = trace.approx_states[t - 1][p]
                comp = ap.detected_component(state, a)
                if comp != members:
                    return fail(
                        "detection_latency",
                        process=p, round=t, slice=a,
                        detected=sorted(comp), expected=sorted(members),
                    )
            if b - d >= a:
                state = trace.approx_states[b - 1][p]
                interval = (max(a, b - retained), b - d)
                if not ap.in_stable_root(state, interval, b):
                    return fail(
                        "stable_predicate",
                        process=p, interval=list(interval), round=b,
                    )
    return CheckerVerdict("approx", "pass")


def check_lock_discipline(trace):
    """Properties of the first decision: lock timing, oracle-confirmed
    stability around the lock round, members locking together, and one
    proposal value at the decision round."""
    sc = trace.scenario
    if not trace.decisions:
        return CheckerVerdict("lock", "skipped",
                              witness={"reason": "no decisions"})
    d = sc.d_bound
    horizon = len(trace.records)
    roots = sc.facts.roots
    if not all(rr.is_single for rr in roots[:horizon]):
        return CheckerVerdict("lock", "skipped",
                              witness={"reason": "multi-root round"})

    rf = min(r for _, r in trace.decisions.values())
    deciders = sorted(p for p, (_, r) in trace.decisions.items() if r == rf)
    p0 = deciders[0]
    lock_round = trace.cons_states[rf - 1][p0].lock_round

    def fail(rule, **witness):
        return CheckerVerdict(
            "lock", "fail",
            witness={"rule": rule, "first_decision": rf,
                     "lock_round": lock_round, **witness},
        )

    if not lock_round + d <= rf <= lock_round + 2 * d:
        return fail("decision_timing")

    lo, hi = lock_round - d - 1, lock_round + d
    if lo < 1 or hi > horizon:
        return fail("window_out_of_range", window=[lo, hi])
    members = roots[lo - 1].roots[0]
    for x in range(lo, hi + 1):
        if roots[x - 1].roots[0] != members:
            return fail("not_vertex_stable", round=x)

    locked_at = {
        p
        for rec in trace.records
        if rec.round == lock_round
        for p, evs in rec.events.items()
        if any(e["kind"] == "lock" for e in evs)
    }
    if not members <= locked_at:
        return fail("members_not_locked",
                    missing=sorted(members - locked_at))
    for rec in trace.records:
        if lock_round <= rec.round <= rf:
            for p, evs in rec.events.items():
                if p not in members and any(
                    e["kind"] == "lock" for e in evs
                ):
                    return fail("outsider_lock", process=p, round=rec.round)

    value = trace.decisions[p0][0]
    pairs = {
        (trace.cons_states[rf - 1][p].lock_round,
         trace.cons_states[rf - 1][p].x)
        for p in members
    }
    if pairs != {(lock_round, value)}:
        return fail("proposals_differ", pairs=sorted(pairs), value=value)
    return CheckerVerdict("lock", "pass")


def run_checkers(trace, full=True):
    verdicts = [
        check_agreement(trace),
        check_validity(trace),
        check_termination_bound(trace),
    ]
    if full:
        verdicts.append(check_approx_invariants(trace))
        verdicts.append(check_lock_discipline(trace))
    trace.verdicts = verdicts
    return verdicts


REPORT_COLUMNS = [
    "seed", "generator", "n", "D", "r_ST", "first_decision",
    "last_decision", "bound", "agreement", "validity", "termination",
    "approx", "lock",
]


def summarize(trace):
    """One report row (dict keyed by REPORT_COLUMNS) for a checked trace."""
    sc = trace.scenario
    report = sc.facts
    rounds = [r for _, r in trace.decisions.values()]
    row = {
        "seed": sc.meta.get("seed"),
        "generator": sc.meta.get("generator"),
        "n": sc.n,
        "D": sc.d_bound,
        "r_ST": report.r_st if report.r_st is not None else "NONE",
        "first_decision": min(rounds) if rounds else "NONE",
        "last_decision": max(rounds) if rounds else "NONE",
        "bound": (report.r_st + 4 * sc.d_bound + 1)
        if report.r_st is not None
        else "NONE",
    }
    by_name = {v.name: v.status for v in trace.verdicts}
    for name in ("agreement", "validity", "termination", "approx", "lock"):
        row[name] = by_name.get(name, "skipped")
    return row


def batch(scenarios, full=False, prune=False):
    """Run and check each scenario; returns (rows, traces) in input order."""
    rows, traces = [], []
    for sc in scenarios:
        trace = run(sc, prune=prune)
        run_checkers(trace, full=full)
        rows.append(summarize(trace))
        traces.append(trace)
    return rows, traces


def report_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
