"""Lock-step round engine, trace recording, and the checker suite.

The engine wires the approximation and consensus state machines to a
scenario's graph sequence.  Checkers compare the recorded trace against the
graph oracle's facts about the scenario (`Scenario.facts`, computed once per
scenario), which never look at protocol state.  The approximation checker
also folds the graph sequence into every process's exact A_p, so each
recorded state is compared with its value, not tested against lemmas.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache

from . import approximation as ap
from . import consensus as cs
from .adversary import scenario_to_dict
from .graphs import _bits


@lru_cache(maxsize=256)
def _vertices_json(vertices):
    """The sorted JSON list of a vertex set.  The processes of a scenario
    share a few: at most 118 distinct sets per benchmark scenario."""
    return json.dumps(sorted(vertices))


# `_label_text`'s size comes from the working sets of the benchmark corpora
# (n <= 20, T <= 96), measured with every cache cleared before each
# scenario: at most 1,170 label masks per scenario.
@lru_cache(maxsize=2048)
def _label_text(mask):
    """The JSON list of the rounds in a label mask: "[l1, ..., lk]"."""
    return f"[{', '.join(map(str, _bits(mask)))}]"


def _layout(n):
    """(rank, prefix) for a run on n processes: `rank[b]` = u*n + v, the
    rank in sorted order of the edge (u, v) with pair bit b, and
    `prefix[u*n + v]` its JSON "[u, v, ".  Shell m holds (u, m) for u < m,
    then (m, v) for v <= m."""
    rank = []
    for m in range(n):
        rank += range(m, m * n, n)
        rank += range(m * n, m * n + m + 1)
    return rank, [f"[{u}, {v}, " for u in range(n) for v in range(n)]


def _edges_json(states, rank, prefix):
    """Yield `json.dumps(state.sorted_edges())` for each of one process's
    states, given in round order, with the `_layout` of their run.
    `masks[j]` is the label mask of the edge of rank j and `frags[j]` its
    JSON fragment "[u, v, [l1, ..., lk]]", or None when it is absent.  Each
    state moves them from the one before by the bits set in the XOR of the
    two packed ints, the new one lifted to the old cutoff (a cutoff never
    falls), so a slice that pruning dropped reads as emptied; the changed
    slots are read off the XOR from the top, one bit length each, and only
    the touched edges are re-rendered.  A state that is the same object as
    the one before is not walked again."""
    width = len(rank)
    masks, frags = [0] * width, [None] * width
    held, a, base, text = None, 0, 0, "[]"
    for state in states:
        if state is not held:
            b = state.packed << (state.pruned_before - base) * width
            diff, touched = a ^ b, set()
            while diff:
                k = (diff.bit_length() - 1) // width
                flips = diff >> k * width  # slot k's changes, the top left
                diff ^= flips << k * width
                label = 1 << base + k
                for i in ap._set_bits(flips):
                    j = rank[i]
                    masks[j] ^= label
                    touched.add(j)
            for j in touched:
                m = masks[j]
                frags[j] = prefix[j] + _label_text(m) + "]" if m else None
            text = "[" + ", ".join(filter(None, frags)) + "]"
            held, a, base = state, state.packed, state.pruned_before
        yield text


def approx_digest(state, edges_json):
    """Stable hash of an approximation state for compact trace records: the
    canonical JSON {edges, owner, pruned_before, vertices}, keys sorted,
    where `edges_json` is the state's edges as sorted [u, v, [labels]],
    exactly `json.dumps(state.sorted_edges())`."""
    payload = (
        f'{{"edges": {edges_json}, '
        f'"owner": {state.owner}, '
        f'"pruned_before": {state.pruned_before}, '
        f'"vertices": {_vertices_json(state.vertices)}}}'
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def scenario_digest(sc):
    payload = json.dumps(scenario_to_dict(sc), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RoundRecord:
    """One round as the engine saw it: each process's events, predicate
    evaluations and end-of-round states.  Deliveries follow from the round
    graph and state digests from `approx`; `trace_save` derives both."""

    events: dict  # process -> list of event dicts
    predicate_evals: dict  # process -> {interval: bool}
    approx: list  # [p] -> ApproxState
    cons: list  # [p] -> ConsensusState


@dataclass
class Trace:
    scenario: object
    records: list = field(default_factory=list)  # records[r - 1]: round r
    decisions: dict = field(default_factory=dict)  # p -> (value, round)
    verdicts: list = field(default_factory=list)
    pruned: bool = False


@dataclass(frozen=True)
class CheckerVerdict:
    name: str
    status: str  # pass | fail | skipped
    witness: object = None

    @property
    def ok(self):
        return self.status != "fail"


@lru_cache(maxsize=1024)
def _senders(in_mask):
    """The senders a receiver with in-neighbour mask `in_mask` hears in a
    round, ascending.  The engine and `trace_save` both read a round's
    deliveries from here.  A benchmark scenario has at most 350 distinct
    in-neighbour masks."""
    return tuple(_bits(in_mask))


def run(scenario, prune=False):
    """Simulate the scenario round by round and record a full trace.

    Every process has one approximation outbox, an `ApproxMessage` built
    once for the run.  At the start of each round, after the previous
    round's prune and before any absorb, each outbox is re-pointed at its
    process's approximation state, so every receiver reads its senders'
    states of the previous round, already pruned in a pruned run, never
    one absorbed in this round.  Each process also sends its consensus
    state as it stood after the previous round.  Each receiver gets those
    of its in-neighbours in the round graph, in ascending sender order;
    absorb then cons_step run per process.  A decided state is read as
    DECIDE(x) by its receivers, every round from its decision on.
    """
    n = scenario.n
    d = scenario.d_bound
    approx = [ap.approx_init(p, n) for p in range(n)]
    cons = [cs.cons_init(scenario.inputs[p]) for p in range(n)]
    outbox = [ap.ApproxMessage(p, st) for p, st in enumerate(approx)]
    trace = Trace(scenario=scenario, pruned=prune)
    decisions = trace.decisions

    for r in range(1, scenario.horizon + 1):
        in_masks = scenario.seq.round(r).in_masks()
        for m, st in zip(outbox, approx):
            m.graph = st
        sent = list(cons)

        events = {}
        evals = {}
        for p in range(n):
            senders = _senders(in_masks[p])
            state = approx[p] = ap.approx_absorb(
                approx[p], r, [outbox[u] for u in senders]
            )
            log = {}

            def predicate(interval, _state=state, _log=log, _r=r):
                result = ap.in_stable_root(_state, interval, _r)
                _log[interval] = result
                return result

            step, evs = cs.cons_step(
                cons[p], r, [sent[u] for u in senders], predicate, d
            )
            cons[p] = step
            if log:
                evals[p] = log
            if evs:
                events[p] = evs
                # A decision comes with its decide event, and a decided
                # state takes no further step.
                if step.decision is not None:
                    decisions[p] = step.decision

        if prune:
            keep_after = r - 4 * d
            if keep_after > 0:
                approx = [ap.approx_prune(st, keep_after) for st in approx]

        trace.records.append(
            RoundRecord(events, evals, list(approx), list(cons))
        )

    return trace


def trace_save(trace, path):
    """JSON-lines: header, one record per round, footer with decisions and
    verdicts.  Canonical key order for byte-reproducibility.

    A round line's `delivered` (each receiver's ascending senders) comes from
    the round graph through `_senders`, as the engine's deliveries do, and
    its `approx` digests from the recorded states.  Those are computed one
    process at a time, before any line is written: `_edges_json` walks that
    process's states of every round forward, and only the 16-character
    digests are kept."""
    sc = trace.scenario
    rank, prefix = _layout(sc.n)
    digests = []  # [p][r - 1]
    for p in range(sc.n):
        states = [rec.approx[p] for rec in trace.records]
        digests.append([approx_digest(st, text) for st, text in
                        zip(states, _edges_json(states, rank, prefix))])
    with open(path, "w") as fh:
        header = {
            "scenario_digest": scenario_digest(sc),
            "n": sc.n,
            "D": sc.d_bound,
            "horizon": sc.horizon,
            "pruned": trace.pruned,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for r, rec in enumerate(trace.records, start=1):
            in_masks = sc.seq.round(r).in_masks()
            line = {
                "round": r,
                "delivered": {
                    str(q): _senders(mask) for q, mask in enumerate(in_masks)
                },
                "events": {str(p): e for p, e in rec.events.items()},
                "predicates": {
                    str(p): {f"[{a},{b}]": v for (a, b), v in log.items()}
                    for p, log in rec.predicate_evals.items()
                },
                "approx": {str(p): digests[p][r - 1] for p in range(sc.n)},
                "cons": {
                    str(p): {
                        "x": st.x,
                        "locked": st.locked,
                        "lockRound": st.lock_round,
                        "decided": st.decided,
                    }
                    for p, st in enumerate(rec.cons)
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


def termination_deadline(sc):
    """The round r_ST + 4D + 1 by which every process must have decided, or
    None when the oracle finds no r_ST."""
    r_st = sc.facts.r_st
    return None if r_st is None else r_st + 4 * sc.d_bound + 1


def check_termination_bound(trace):
    sc = trace.scenario
    bound = termination_deadline(sc)
    if bound is None:
        return CheckerVerdict("termination", "skipped",
                              witness={"reason": "no stability window"})
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
    """Oracle verification of the approximation layer: each round state
    must be A_p exactly as the graph sequence fixes it, and three rules
    check what the protocol computes from A_p.

    Slice s of A_p^r holds the G^s in-edges of every v whose round-s state
    has reached p by round r, and its vertices are the processes whose
    initial state has.  A pruned run keeps the paper's 4D+1-slice window,
    so `pruned_before` is max(0, r - 4D), from the trace's pruning flag and
    D.  A fold over the round graphs keeps, per process w, one int
    `heard[w]` whose n-bit slot s is the set of v whose round-s state w has
    heard.  Each round it ORs in the previous `heard[u]` of each
    in-neighbour u, sets bit w of slot r and, pruned, clears slots
    1 .. r - 4D - 1 (slot 0, the vertices, stays).  The expected A_p of
    each process is one int in the engine's layout, slot k holding slice
    cut + k: each round it shifts right by the slots the cutoff passed,
    and a slot of `heard` that grew ORs the receiver columns of the newly
    heard v, their in-edge bits `_pair(u, v)`, into its slice's slot.

    Round by round, then process by process, a state must have owner p,
    the expected `pruned_before` and `vertices`, and the run's slot width
    n*n, and its packed int must equal the expected one.  A witness names
    the lowest differing slice and its smallest extra or missing edge, the
    smallest extra or missing vertex, or the state's width and the
    expected one.

    Exactness does not cover `detected_component` and `in_stable_root`, so
    soundness (a nonempty detected component of a completed slice is a root
    component holding the owner), detection latency over D-bounded stable
    root intervals and the end-of-interval predicate remain.  A detected
    component depends only on the owner, the slice and `pruned_before`, so
    soundness is checked at round r on the slices the fold saw grow and on
    slice r - 1, completed this round; every other slice passed a round
    earlier.
    """
    sc = trace.scenario
    seq, n, d, horizon = sc.seq, sc.n, sc.d_bound, sc.horizon
    roots = sc.facts.roots
    slot, width = (1 << n) - 1, n * n
    # A round-t state holds the slices from t - retained on.
    retained = 4 * d if trace.pruned else horizon
    heard = [1 << w for w in range(n)]
    vertices = [frozenset((w,)) for w in range(n)]
    expected = [0] * n  # [w]: w's A_p, slot k holding slice cut + k
    cols = [None]  # cols[s][v]: the in-edge bits of v in G^s, s >= cut
    cut = 0

    def fail(rule, **witness):
        return CheckerVerdict("approx", "fail", witness={"rule": rule, **witness})

    for r in range(1, horizon + 1):
        senders = [tuple(_bits(m)) for m in seq.round(r).in_masks()]
        cols.append([sum(1 << ap._pair(u, v) for u in us)
                     for v, us in enumerate(senders)])
        last_cut, cut = cut, max(0, r - retained)
        if cut != last_cut:
            cols[cut - 1] = None
            expected = [e >> (cut - last_cut) * width for e in expected]
        before, heard = heard, []
        for w, us in enumerate(senders):
            h = before[w] | 1 << r * n + w
            for u in us:
                h |= before[u]
            heard.append(h & (-1 << cut * n | slot))
        states = trace.records[r - 1].approx

        for p in range(n):
            state = states[p]
            if state.owner != p:
                return fail("owner", process=p, round=r, owner=state.owner)
            if state.pruned_before != cut:
                return fail("pruned_before", process=p, round=r,
                            pruned_before=state.pruned_before, expected=cut)
            grew = heard[p] & ~before[p]
            if grew & slot:
                vertices[p] = frozenset(_bits(heard[p] & slot))
            if state.vertices != vertices[p]:
                v = min(state.vertices ^ vertices[p])
                side = "extra" if v in state.vertices else "missing"
                return fail("vertices", process=p, round=r, **{side: v})
            if state.width != width:
                return fail("width", process=p, round=r, width=state.width,
                            expected=width)

            e, recheck = expected[p], {r - 1}
            grew &= ~slot
            while grew:
                s = ((grew & -grew).bit_length() - 1) // n
                newly = grew >> s * n & slot
                grew ^= newly << s * n
                m = 0
                while newly:
                    v = newly & -newly
                    m |= cols[s][v.bit_length() - 1]
                    newly ^= v
                shift = (s - cut) * width
                if m & ~(e >> shift):
                    e |= m << shift
                    recheck.add(s)
            expected[p] = e
            if state.packed != e:
                diff = state.packed ^ e
                k = ((diff & -diff).bit_length() - 1) // width
                edge = min(ap._decode(diff >> k * width & (1 << width) - 1))
                bit = k * width + ap._pair(*edge)
                side = "extra" if state.packed >> bit & 1 else "missing"
                return fail("slice", process=p, round=r, slice=cut + k,
                            **{side: list(edge)})

            for s in sorted(recheck - {0, r}):
                comp = ap.detected_component(state, s)
                if comp and (p not in comp or comp not in roots[s - 1]):
                    return fail("detected_not_root", process=p, round=r,
                                slice=s, detected=sorted(comp))

    for a, b, members in sc.facts.d_bounded_intervals:
        for p in sorted(members):
            for t in range(a + d, min(b, a + retained) + 1):
                state = trace.records[t - 1].approx[p]
                comp = ap.detected_component(state, a)
                if comp != members:
                    return fail(
                        "detection_latency",
                        process=p, round=t, slice=a,
                        detected=sorted(comp), expected=sorted(members),
                    )
            if b - d >= a:
                state = trace.records[b - 1].approx[p]
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
    proposal value at the decision round.  Skipped when a members-to-members
    unbounded interval of the oracle overlaps the lock window
    [lock_round - D - 1, lock_round + D], since the lock relies on that
    clause of Assumption 1."""
    sc = trace.scenario
    if not trace.decisions:
        return CheckerVerdict("lock", "skipped",
                              witness={"reason": "no decisions"})
    if sc.facts.multi_root_rounds:
        return CheckerVerdict("lock", "skipped",
                              witness={"reason": "multi-root round"})
    d = sc.d_bound
    roots = sc.facts.roots

    rf = min(r for _, r in trace.decisions.values())
    p0 = min(p for p, (_, r) in trace.decisions.items() if r == rf)
    final = trace.records[rf - 1].cons
    lock_round = final[p0].lock_round

    lo, hi = lock_round - d - 1, lock_round + d
    for a, b in sc.facts.members_unbounded_intervals:
        if a <= hi and b >= lo:
            return CheckerVerdict("lock", "skipped", witness={
                "reason": "assumption_violated", "clause": "members",
                "interval": [a, b]})

    def fail(rule, **witness):
        return CheckerVerdict(
            "lock", "fail",
            witness={"rule": rule, "first_decision": rf,
                     "lock_round": lock_round, **witness},
        )

    if not lock_round + d <= rf <= lock_round + 2 * d:
        return fail("decision_timing")
    if lo < 1 or hi > sc.horizon:
        return fail("window_out_of_range", window=[lo, hi])
    members = roots[lo - 1][0]
    for x in range(lo, hi + 1):
        if roots[x - 1][0] != members:
            return fail("not_vertex_stable", round=x)

    def lockers(r):
        return [p for p, evs in trace.records[r - 1].events.items()
                if any(e["kind"] == "lock" for e in evs)]

    missing = members - set(lockers(lock_round))
    if missing:
        return fail("members_not_locked", missing=sorted(missing))
    for r in range(lock_round, rf + 1):
        for p in lockers(r):
            if p not in members:
                return fail("outsider_lock", process=p, round=r)

    value = trace.decisions[p0][0]
    pairs = {(final[p].lock_round, final[p].x) for p in members}
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


# The verdict names run_checkers produces, in its order; the last two only
# with full=True.
CHECKER_NAMES = ("agreement", "validity", "termination", "approx", "lock")

REPORT_COLUMNS = [
    "seed", "generator", "n", "D", "r_ST", "first_decision",
    "last_decision", "bound", *CHECKER_NAMES,
]


def summarize(trace):
    """One report row (dict keyed by REPORT_COLUMNS) for a checked trace."""
    sc = trace.scenario
    r_st = sc.facts.r_st
    bound = termination_deadline(sc)
    rounds = [r for _, r in trace.decisions.values()]
    row = {
        "seed": sc.meta.get("seed"),
        "generator": sc.meta.get("generator"),
        "n": sc.n,
        "D": sc.d_bound,
        "r_ST": "NONE" if r_st is None else r_st,
        "first_decision": min(rounds) if rounds else "NONE",
        "last_decision": max(rounds) if rounds else "NONE",
        "bound": "NONE" if bound is None else bound,
    }
    by_name = {v.name: v.status for v in trace.verdicts}
    for name in CHECKER_NAMES:
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
