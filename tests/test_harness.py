import contextlib
import hashlib
import json
import random
from math import isqrt
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dynconsensus import (
    GraphSequence,
    RoundGraph,
    Scenario,
    approx_prune,
    batch,
    check_agreement,
    check_approx_invariants,
    check_lock_discipline,
    check_termination_bound,
    check_validity,
    detected_component,
    gen_expander,
    gen_rotating_roots,
    gen_stable_window,
    gen_static_line,
    gen_static_star,
    gen_two_roots,
    report_csv,
    run,
    run_checkers,
    summarize,
    trace_save,
)
from dynconsensus import graphs, harness
from dynconsensus.approximation import ApproxMessage, _pair
from dynconsensus.harness import REPORT_COLUMNS, CheckerVerdict
from forgery import forge, sticky_sequence


def three_cycle(horizon=12, inputs=(1, 5, 3), d=2):
    g = RoundGraph(3, [(0, 1), (1, 2), (2, 0)])
    return Scenario(
        d_bound=d,
        inputs=inputs,
        seq=GraphSequence(3, [g] * horizon),
        meta={"generator": "manual", "seed": 0},
    )


def singleton(horizon=6, value=9):
    return Scenario(
        d_bound=1,
        inputs=(value,),
        seq=GraphSequence(1, [RoundGraph(1)] * horizon),
        meta={"generator": "manual", "seed": 0},
    )


class TestRun:
    def test_three_cycle_decides_max_input(self):
        trace = run(three_cycle())
        assert set(trace.decisions) == {0, 1, 2}
        assert {v for v, _ in trace.decisions.values()} == {5}
        assert max(r for _, r in trace.decisions.values()) <= 10

    def test_three_cycle_lock_at_r_st_plus_d_plus_1(self):
        trace = run(three_cycle())
        locks = {
            (p, r)
            for r, rec in enumerate(trace.records, start=1)
            for p, evs in rec.events.items()
            if any(e["kind"] == "lock" for e in evs)
        }
        assert locks == {(0, 4), (1, 4), (2, 4)}

    def test_singleton_network(self):
        trace = run(singleton())
        assert trace.decisions == {0: (9, 5)}

    def test_delivery_matches_round_graph(self):
        # Only direct receipt puts label r on an edge in round r, so each
        # round-r state names exactly the senders q heard from.
        for sc in (
            gen_stable_window(seed=2, n=5, d_bound=2, r_st=3),
            gen_rotating_roots(seed=3, n=6, d_bound=2, horizon=15),
        ):
            trace = run(sc)
            for r in range(1, sc.horizon + 1):
                g = sc.seq.round(r)
                for q in range(sc.n):
                    state = trace.records[r - 1].approx[q]
                    edges = state.edges
                    heard = {
                        u for u in range(sc.n)
                        if edges.get((u, q), 0) >> r & 1
                    }
                    assert heard == {u for u, w in g.edges if w == q}

    def test_deciders_keep_flooding(self):
        # After everyone decides, states stay frozen to the end of the run.
        trace = run(three_cycle(horizon=12))
        final = trace.records[-1].cons
        assert all(st.decided and st.x == 5 for st in final)

    def test_each_process_builds_one_outbox(self):
        # One ApproxMessage per process for the whole run, pruned or not:
        # the rotating root changes every state each round, and with D = 2
        # the cutoff moves from round 9 on.  Re-pointing the outboxes must
        # leave every recorded state as it is.
        sc = gen_rotating_roots(seed=3, n=5, d_bound=2, horizon=30)
        for prune in (False, True):
            with mock.patch.object(harness.ap, "ApproxMessage",
                                   wraps=harness.ap.ApproxMessage) as built:
                trace = run(sc, prune=prune)
            assert built.call_count == sc.n
            assert [c.args[0] for c in built.call_args_list] == list(
                range(sc.n))
            assert trace == run(sc, prune=prune)

    def test_crash_embedding(self):
        # Removing q's out-edges from round r+1 is equivalent, for everyone
        # else, to q crashing: its inbound edges no longer matter.
        base = gen_stable_window(seed=8, n=6, d_bound=2, r_st=3)
        q, r_crash = 4, 5

        def strip(edges, also_inbound):
            return [
                (u, v)
                for u, v in edges
                if not (u == q or (also_inbound and v == q))
            ]

        variants = []
        for also_inbound in (False, True):
            rounds = [
                g
                if t <= r_crash
                else RoundGraph(base.n, strip(g.sorted_edges(), also_inbound))
                for t, g in enumerate(base.seq.rounds, start=1)
            ]
            sc = Scenario(
                d_bound=base.d_bound,
                inputs=base.inputs,
                seq=GraphSequence(base.n, rounds),
                meta={"generator": "crash", "seed": 8},
            )
            variants.append(run(sc))
        a, b = variants
        for r in range(base.horizon):
            for p in range(base.n):
                if p == q:
                    continue
                assert a.records[r].cons[p] == b.records[r].cons[p]
                assert a.records[r].approx[p] == b.records[r].approx[p]


class TestCheckers:
    def test_agreement_and_validity_pass(self):
        trace = run(three_cycle())
        assert check_agreement(trace).status == "pass"
        assert check_validity(trace).status == "pass"

    def test_agreement_fails_on_two_roots(self):
        trace = run(gen_two_roots(2, 2, 40))
        verdict = check_agreement(trace)
        assert verdict.status == "fail"
        assert verdict.witness["values"] == [0, 1]

    def test_validity_fails_on_forged_decision(self):
        trace = run(three_cycle())
        trace.decisions[0] = (42, 9)
        assert check_validity(trace).status == "fail"

    def test_empty_trace_passes_safety(self):
        trace = run(gen_rotating_roots(seed=1, n=4, d_bound=2, horizon=20))
        assert not trace.decisions
        assert check_agreement(trace).status == "pass"
        assert check_validity(trace).status == "pass"

    def test_termination_bound(self):
        trace = run(three_cycle(horizon=12))
        verdict = check_termination_bound(trace)
        assert verdict.status == "pass"
        assert verdict.witness["bound"] == 10

    def test_termination_skipped_without_window(self):
        trace = run(gen_rotating_roots(seed=2, n=4, d_bound=2, horizon=20))
        assert check_termination_bound(trace).status == "skipped"

    def test_approx_invariants_pass(self):
        for sc in (
            three_cycle(),
            gen_stable_window(seed=3, n=6, d_bound=2, r_st=2),
        ):
            assert check_approx_invariants(run(sc)).status == "pass"

    def test_approx_subset_fault_injection(self):
        trace = run(three_cycle())
        state = trace.records[5].approx[0]
        forged = dict(state.edges)
        forged[(2, 1)] = 1 << 3  # (2 -> 1) never exists in the 3-cycle
        trace.records[5].approx[0] = forge(3, 0, state.vertices | {2, 1},
                                            edges=forged)
        verdict = check_approx_invariants(trace)
        assert verdict.status == "fail"
        assert verdict.witness == {
            "rule": "slice", "process": 0, "round": 6, "slice": 3,
            "extra": [2, 1],
        }

    def test_approx_label_zero_fails_out_of_range(self):
        # Rounds are 1-based: a label-0 slice is an extra slice, not a crash
        # in the round-graph lookup.
        trace = run(gen_stable_window(seed=1, n=3, d_bound=2, r_st=2))
        state = trace.records[5].approx[0]
        forged = dict(state.edges)
        forged[(2, 0)] = forged.get((2, 0), 0) | 1  # label 0
        trace.records[5].approx[0] = forge(3, 0, state.vertices, edges=forged)
        verdict = check_approx_invariants(trace)
        assert verdict.status == "fail"
        assert verdict.witness == {
            "rule": "slice", "process": 0, "round": 6, "slice": 0,
            "extra": [2, 0],
        }

    def test_approx_forged_vertex_beyond_n_fails_vertices(self):
        trace = run(three_cycle())
        state = trace.records[5].approx[0]
        forged = dict(state.edges)
        forged[(2, 9)] = 1 << 4  # vertices 7 and 9 do not exist for n = 3
        forged[(1, 7)] = 1 << 4
        # Only the slots of a run on 10 or more processes hold edge 2 -> 9;
        # the vertices rule precedes the width rule.
        trace.records[5].approx[0] = forge(10, 0, state.vertices | {7, 9},
                                           edges=forged)
        verdict = check_approx_invariants(trace)
        assert verdict.status == "fail"
        assert verdict.witness == {
            "rule": "vertices", "process": 0, "round": 6, "extra": 7,
        }

    def test_approx_wider_slots_fail_the_checker(self):
        # The same edges in the slots of a run on 4 processes: the checker
        # names the width instead of reading slots of two layouts.
        trace = run(three_cycle())
        state = trace.records[5].approx[0]
        trace.records[5].approx[0] = forge(4, 0, state.vertices,
                                           state.slices)
        verdict = check_approx_invariants(trace)
        assert verdict.status == "fail"
        assert verdict.witness == {
            "rule": "width", "process": 0, "round": 6, "width": 16,
            "expected": 9,
        }
        assert verdict == _reference_check_approx_invariants(trace)

    @pytest.mark.parametrize("prune", [False, True])
    def test_approx_slice_witness_in_multiword_slots(self, prune):
        # n = 16 gives 256-bit slots, so a slot spans several machine words
        # and the witness is read off the XOR of the packed ints.
        sc = gen_expander(seed=1, n=16, root_size=4, horizon=12)
        assert sc.d_bound == 3
        trace = run(sc, prune=prune)
        state = trace.records[9].approx[5]
        slices = state.slices
        top = max(slices)
        slices[top] &= slices[top] - 1  # clear its lowest set bit
        trace.records[9].approx[5] = forge(16, 5, state.vertices, slices,
                                           state.pruned_before)
        verdict = check_approx_invariants(trace)
        assert verdict.witness == {
            "rule": "slice", "process": 5, "round": 10, "slice": 10,
            "missing": [1, 5],
        }
        assert verdict == _reference_check_approx_invariants(trace)

    def test_approx_in_neighborhood_names_smallest_missing_edge(self):
        # Round graph: 1, 2, 3 -> 0 and 0 -> 1.  Process 0's own inbox is
        # recorded directly, so the forged state keeps only (3 -> 0).
        g = RoundGraph(4, [(1, 0), (2, 0), (3, 0), (0, 1)])
        sc = Scenario(
            d_bound=2, inputs=(1, 2, 3, 4),
            seq=GraphSequence(4, [g] * 4),
            meta={"generator": "manual", "seed": 0},
        )
        trace = run(sc)
        state = trace.records[2].approx[0]
        forged = dict(state.edges)
        for e in ((1, 0), (2, 0)):
            forged[e] &= ~(1 << 3)
            if not forged[e]:
                del forged[e]
        trace.records[2].approx[0] = forge(4, 0, state.vertices, edges=forged)
        verdict = check_approx_invariants(trace)
        assert verdict.status == "fail"
        assert verdict.witness == {
            "rule": "slice", "process": 0, "round": 3, "slice": 3,
            "missing": [1, 0],
        }

    def test_pruned_static_star_passes(self):
        # The engine keeps 4D+1 slices; the latency rule must not read
        # slices it has pruned away.
        trace = run(gen_static_star(4, 30), prune=True)
        assert check_approx_invariants(trace).status == "pass"
        assert all(v.status == "pass" for v in run_checkers(trace))

    def test_pruned_forged_edge_in_retained_slice(self):
        trace = run(gen_static_star(4, 30), prune=True)
        r, t = 21, 20  # round 21 retains slices >= 21 - 4D = 12
        state = trace.records[r - 1].approx[0]
        forged = dict(state.edges)
        forged[(1, 2)] = 1 << t  # the star has no edge 1 -> 2
        trace.records[r - 1].approx[0] = forge(4, 0, state.vertices, None,
                                               state.pruned_before,
                                               edges=forged)
        verdict = check_approx_invariants(trace)
        assert verdict.status == "fail"
        assert verdict.witness == {
            "rule": "slice", "process": 0, "round": 21, "slice": 20,
            "extra": [1, 2],
        }

    def test_pruned_over_eager_pruner_fails(self):
        # Pruning to 2D+1 slices drops slices the 4D+1 window must keep:
        # D = 3, so round 7 already has cutoff 1 where it must have none.
        sc = gen_static_star(4, 30)
        trace = run(sc, prune=True)
        for t, rec in enumerate(trace.records, start=1):
            keep_after = t - 2 * sc.d_bound
            if keep_after > 0:
                rec.approx[:] = [approx_prune(st, keep_after)
                                 for st in rec.approx]
        verdict = check_approx_invariants(trace)
        assert verdict.witness == {
            "rule": "pruned_before", "process": 0, "round": 7,
            "pruned_before": 1, "expected": 0,
        }

    def test_approx_dropped_slice_fails_slice_rule(self):
        # Slice 4 missing from one state would read as the detected
        # singleton {0}, which is no root component; the slice rule names
        # the smallest of its seven missing edges first.
        trace = run(gen_stable_window(seed=1, n=5, d_bound=2, r_st=3))
        state = trace.records[7].approx[0]
        slices = {s: m for s, m in state.slices.items() if s != 4}
        trace.records[7].approx[0] = forge(
            5, state.owner, state.vertices, slices, state.pruned_before)
        verdict = check_approx_invariants(trace)
        assert verdict.witness == {
            "rule": "slice", "process": 0, "round": 8, "slice": 4,
            "missing": [0, 3],
        }

    def test_approx_lowered_cutoff_fails_pruned_before(self):
        # With `pruned_before` lowered to 0 the pruned-away slices would
        # read as empty graphs, not as no data.
        trace = run(gen_stable_window(seed=1, n=5, d_bound=2, r_st=3),
                    prune=True)
        state = trace.records[-1].approx[0]
        assert state.pruned_before > 1
        trace.records[-1].approx[0] = forge(
            5, state.owner, state.vertices, state.slices, 0)
        verdict = check_approx_invariants(trace)
        assert verdict.witness == {
            "rule": "pruned_before", "process": 0, "round": 15,
            "pruned_before": 0, "expected": 7,
        }

    @pytest.mark.parametrize("edges_over, process, round_", [
        (0, 0, 2),  # slice 1 is checked when round 2 completes it
        (3, 0, 3),  # and again when it grows to four edges at round 3
    ])
    def test_approx_soundness_fault_injection(self, monkeypatch, edges_over,
                                              process, round_):
        # A strong-connectivity test that calls every slice of more than
        # `edges_over` edges strongly connected detects all five processes,
        # and the root is {2} in round 1.
        sc = gen_stable_window(seed=1, n=5, d_bound=2, r_st=3)
        trace = run(sc)
        real = harness.ap._strong
        monkeypatch.setattr(
            harness.ap, "_strong",
            lambda m: frozenset(range(5)) if m.bit_count() > edges_over
            else real(m))
        verdict = check_approx_invariants(trace)
        assert verdict.witness == {
            "rule": "detected_not_root", "process": process, "round": round_,
            "slice": 1, "detected": [0, 1, 2, 3, 4],
        }

    def test_approx_witness_names_the_lowest_differing_slice(self):
        # An extra edge 0 -> 2 in slice 5, and slice 3 without its lowest
        # bit, edge 0 -> 1.
        trace = run(three_cycle())
        state = trace.records[5].approx[0]
        slices = dict(state.slices)
        slices[5] |= 1 << _pair(0, 2)
        slices[3] &= slices[3] - 1
        trace.records[5].approx[0] = forge(3, 0, state.vertices, slices)
        verdict = check_approx_invariants(trace)
        assert verdict.witness == {
            "rule": "slice", "process": 0, "round": 6, "slice": 3,
            "missing": [0, 1],
        }

    def test_approx_detection_latency_fault_injection(self, monkeypatch):
        # Detecting nothing is sound, but the root {1, 2} of the stable
        # interval starting at round 3 must be detected D rounds later.
        sc = gen_stable_window(seed=1, n=5, d_bound=2, r_st=3)
        trace = run(sc)
        monkeypatch.setattr(harness.ap, "detected_component",
                            lambda state, s: frozenset())
        verdict = check_approx_invariants(trace)
        assert verdict.witness == {
            "rule": "detection_latency", "process": 1, "round": 5,
            "slice": 3, "detected": [], "expected": [1, 2],
        }

    def test_approx_stable_predicate_fault_injection(self, monkeypatch):
        sc = gen_stable_window(seed=1, n=5, d_bound=2, r_st=3)
        trace = run(sc)
        assert sc.facts.d_bounded_intervals == [(3, 12, frozenset({1, 2}))]
        monkeypatch.setattr(harness.ap, "in_stable_root",
                            lambda *args: False)
        verdict = check_approx_invariants(trace)
        assert verdict.witness == {
            "rule": "stable_predicate", "process": 1, "interval": [3, 10],
            "round": 12,
        }

    def test_lock_discipline_pass(self):
        trace = run(gen_stable_window(seed=5, n=6, d_bound=2, r_st=4))
        assert check_lock_discipline(trace).status == "pass"

    def test_lock_discipline_outsider_fault_injection(self):
        sc = gen_stable_window(seed=5, n=6, d_bound=2, r_st=4)
        trace = run(sc)
        rf = min(r for _, r in trace.decisions.values())
        decider = min(p for p, (_, r) in trace.decisions.items() if r == rf)
        lock_round = trace.records[rf - 1].cons[decider].lock_round
        rec = trace.records[lock_round - 1]
        members = {
            p
            for p, evs in rec.events.items()
            if any(e["kind"] == "lock" for e in evs)
        }
        outsider = min(set(range(sc.n)) - members)
        rec.events.setdefault(outsider, []).append(
            {"kind": "lock", "round": lock_round}
        )
        verdict = check_lock_discipline(trace)
        assert verdict.status == "fail"
        assert verdict.witness["rule"] == "outsider_lock"
        assert verdict.witness["round"] == lock_round
        assert verdict.witness["process"] == outsider

    def test_lock_discipline_skipped_without_decisions(self):
        trace = run(gen_rotating_roots(seed=3, n=4, d_bound=2, horizon=15))
        assert check_lock_discipline(trace).status == "skipped"

    def test_lock_discipline_skipped_where_the_members_clause_fails(self):
        # The first draw of the random corpus below: two root members do not
        # lock, and the members' own propagation from round 11, inside the
        # lock window, takes more than D rounds.
        rng = random.Random(7)
        seq, d = sticky_sequence(rng)
        inputs = tuple(rng.randint(0, 2) for _ in range(seq.n))
        sc = Scenario(d_bound=d, inputs=inputs, seq=seq)
        trace = run(sc)
        verdict = check_lock_discipline(trace)
        assert verdict.status == "skipped"
        assert verdict.witness == {"reason": "assumption_violated",
                                   "clause": "members", "interval": [11, 11]}
        assert (11, 11) in sc.facts.members_unbounded_intervals
        sc.facts.members_unbounded_intervals.clear()
        verdict = check_lock_discipline(trace)
        assert verdict.status == "fail"
        assert verdict.witness["rule"] == "members_not_locked"


class TestTraceFile:
    def test_jsonl_shape(self, tmp_path):
        sc = three_cycle()
        trace = run(sc)
        run_checkers(trace)
        path = tmp_path / "trace.jsonl"
        trace_save(trace, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        header, rounds, footer = lines[0], lines[1:-1], lines[-1]
        assert header["n"] == 3 and header["horizon"] == 12
        assert len(rounds) == 12
        assert rounds[0]["round"] == 1
        assert footer["decisions"] == {"0": [5, 8], "1": [5, 8], "2": [5, 8]}
        assert {v["name"] for v in footer["verdicts"]} == {
            "agreement", "validity", "termination", "approx", "lock",
        }

    def test_rerun_reproduces_bytes(self, tmp_path):
        sc = gen_stable_window(seed=6, n=5, d_bound=2, r_st=2)
        paths = []
        for name in ("a", "b"):
            trace = run(sc)
            run_checkers(trace)
            path = tmp_path / f"{name}.jsonl"
            trace_save(trace, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
    @pytest.mark.parametrize("make", [
        # r_ST past 4D + 1, so pruning cuts slices before the window.
        lambda: gen_stable_window(seed=4, n=5, d_bound=2, r_st=12),
        lambda: gen_stable_window(seed=5, n=7, d_bound=3, r_st=15),
        lambda: gen_stable_window(seed=6, n=6, d_bound=2, r_st=10),
        # 256-bit slots, D = 3: pruning starts at round 13.
        lambda: gen_expander(seed=1, n=16, root_size=4, horizon=20),
    ], ids=["sw5", "sw7", "sw6", "expander16"])
    def test_approx_digest_hashes_each_recorded_state(self, tmp_path, make,
                                                      prune):
        # Every round line's approx[p] is the digest of records[r - 1]'s
        # state of p, recomputed from `sorted_edges` without the walk: a
        # save that renders a state wrongly, or assembles the digests with
        # rounds or processes swapped, changes a line.
        trace = run(make(), prune=prune)
        run_checkers(trace)
        path = tmp_path / "trace.jsonl"
        trace_save(trace, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()][1:-1]
        assert len(lines) == len(trace.records)
        if prune:
            assert trace.records[-1].approx[0].pruned_before > 0
        for r, line in enumerate(lines, start=1):
            assert line["round"] == r
            want = {}
            for p, state in enumerate(trace.records[r - 1].approx):
                payload = json.dumps({
                    "edges": state.sorted_edges(),
                    "owner": state.owner,
                    "pruned_before": state.pruned_before,
                    "vertices": sorted(state.vertices),
                }, sort_keys=True)
                want[str(p)] = hashlib.sha256(payload.encode()).hexdigest()[:16]
            assert line["approx"] == want

    @pytest.mark.parametrize("make", [
        lambda: gen_stable_window(seed=1, n=12, d_bound=2, r_st=3),
        lambda: gen_two_roots(2, 2, 20),
    ], ids=["sw12", "two_roots"])
    def test_round_lines_equal_their_dict_form(self, tmp_path, make):
        # Each round line is built from fragments; it must be the bytes of
        # json.dumps of the line's dict form, keys sorted, so with n >= 11
        # process "10" comes before "2" in every per-process object.
        trace = run(make())
        run_checkers(trace)
        kinds = {e["kind"] for rec in trace.records
                 for evs in rec.events.values() for e in evs}
        if trace.scenario.n >= 11:
            assert sum(bool(rec.predicate_evals) for rec in trace.records) > 1
        else:
            assert "conflicting_decides" in kinds
        path = tmp_path / "trace.jsonl"
        trace_save(trace, path)
        lines = path.read_text().splitlines()[1:-1]
        assert len(lines) == len(trace.records)
        seq = trace.scenario.seq
        for r, (line, rec) in enumerate(zip(lines, trace.records), start=1):
            approx = {}
            for p, state in enumerate(rec.approx):
                payload = json.dumps({
                    "edges": state.sorted_edges(),
                    "owner": state.owner,
                    "pruned_before": state.pruned_before,
                    "vertices": sorted(state.vertices),
                }, sort_keys=True)
                approx[str(p)] = hashlib.sha256(payload.encode()).hexdigest()[:16]
            want = {
                "round": r,
                "delivered": {
                    str(q): list(graphs._bits(mask))
                    for q, mask in enumerate(seq.round(r).in_masks())
                },
                "events": {str(p): e for p, e in rec.events.items()},
                "predicates": {
                    str(p): {f"[{a},{b}]": v for (a, b), v in log.items()}
                    for p, log in rec.predicate_evals.items()
                },
                "approx": approx,
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
            assert line == json.dumps(want, sort_keys=True)


class TestBatch:
    def test_rows_and_csv(self, tmp_path):
        scenarios = [
            gen_stable_window(seed=s, n=5, d_bound=2, r_st=2)
            for s in range(3)
        ]
        rows, traces = batch(scenarios, full=True)
        assert len(rows) == len(traces) == 3
        for row in rows:
            assert list(row) == REPORT_COLUMNS
            assert row["termination"] == "pass"
        out = tmp_path / "report.csv"
        report_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 4

    def test_empty_batch(self, tmp_path):
        rows, traces = batch([])
        assert rows == [] and traces == []
        out = tmp_path / "empty.csv"
        report_csv(rows, out)
        assert out.read_text().splitlines() == [",".join(REPORT_COLUMNS)]

    def test_summarize_without_decisions(self):
        trace = run(gen_rotating_roots(seed=4, n=4, d_bound=2, horizon=15))
        run_checkers(trace, full=False)
        row = summarize(trace)
        assert row["r_ST"] == "NONE"
        assert row["first_decision"] == "NONE"


def test_batch_decomposes_each_round_once(monkeypatch):
    calls = []
    real = graphs.root_components

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graphs, "root_components", counted)
    sc = gen_stable_window(seed=7, n=6, d_bound=2, r_st=3)
    rows, _ = batch([sc], full=True)
    assert rows[0]["approx"] == rows[0]["lock"] == "pass"
    assert len(calls) == sc.horizon


def test_state_digests_are_computed_at_save(monkeypatch, tmp_path):
    calls = []
    real = harness.approx_digest

    def counted(state, edges_json):
        calls.append(state)
        return real(state, edges_json)

    monkeypatch.setattr(harness, "approx_digest", counted)
    sc = gen_stable_window(seed=7, n=6, d_bound=2, r_st=3)
    _, traces = batch([sc], full=True)
    assert calls == []
    trace_save(traces[0], tmp_path / "trace.jsonl")
    assert len(calls) == sc.n * sc.horizon


def _closed_form(sc, pruned):
    """A function (p, r) -> A_p^r as the graph sequence alone fixes it:
    (pruned_before, vertices, {s: edge set} of its nonempty slices).  p has
    heard v's round-s state by round r iff v is p or a causal chain from v
    at round s + 1 reaches p within r - s steps (`graphs.causal_reach`).
    Slice s holds the G^s edges into every such v, the vertices are the q
    whose initial state p has heard, and a pruned run keeps the slices from
    r - 4D on."""
    seq = sc.seq
    dist = [[graphs.causal_reach(seq, s + 1, v) for v in range(sc.n)]
            for s in range(sc.horizon + 1)]

    def closed(p, r):
        def heard(v, s):
            return v == p or dist[s][v][p] <= r - s

        cut = max(0, r - 4 * sc.d_bound) if pruned else 0
        slices = {s: {(u, v) for u, v in seq.round(s).edges if heard(v, s)}
                  for s in range(max(1, cut), r + 1)}
        return (cut, {q for q in range(sc.n) if heard(q, 0)},
                {s: edges for s, edges in slices.items() if edges})

    return closed


def _held_slices(state):
    """{s: edge set} of a state's nonempty slices, read off its edges."""
    held = {}
    for edge, labels in state.edges.items():
        for s in range(labels.bit_length()):
            if labels >> s & 1:
                held.setdefault(s, set()).add(edge)
    return held


def _reference_check_approx_invariants(trace):
    """The set-based approximation checker: every state compared with its
    closed form on decoded edge sets, round by round, then process by
    process, and soundness on every completed slice of every state.  Kept
    as the reference for the checker's bitmask fold."""
    sc = trace.scenario
    n, d = sc.n, sc.d_bound
    horizon = len(trace.records)
    roots = sc.facts.roots
    closed = _closed_form(sc, trace.pruned)

    def fail(rule, **witness):
        return CheckerVerdict("approx", "fail", witness={"rule": rule, **witness})

    def smallest(got, want):
        x = min(got ^ want)
        return "extra" if x in got else "missing", x

    for r in range(1, horizon + 1):
        for p in range(n):
            state = trace.records[r - 1].approx[p]
            cut, vertices, slices = closed(p, r)
            if state.owner != p:
                return fail("owner", process=p, round=r, owner=state.owner)
            if state.pruned_before != cut:
                return fail("pruned_before", process=p, round=r,
                            pruned_before=state.pruned_before, expected=cut)
            if state.vertices != vertices:
                side, v = smallest(state.vertices, vertices)
                return fail("vertices", process=p, round=r, **{side: v})
            if state.width != n * n:
                return fail("width", process=p, round=r, width=state.width,
                            expected=n * n)
            held = _held_slices(state)
            for s in sorted(held.keys() | slices.keys()):
                got, want = held.get(s, set()), slices.get(s, set())
                if got != want:
                    side, edge = smallest(got, want)
                    return fail("slice", process=p, round=r, slice=s,
                                **{side: list(edge)})
            for s in range(1, r):
                comp = detected_component(state, s)
                if comp and (p not in comp or comp not in roots[s - 1]):
                    return fail("detected_not_root", process=p, round=r,
                                slice=s, detected=sorted(comp))

    retained = 4 * d if trace.pruned else horizon
    for a, b, members in sc.facts.d_bounded_intervals:
        if b > horizon:
            continue
        for p in sorted(members):
            for t in range(a + d, min(b, a + retained) + 1):
                comp = detected_component(trace.records[t - 1].approx[p], a)
                if comp != members:
                    return fail("detection_latency", process=p, round=t,
                                slice=a, detected=sorted(comp),
                                expected=sorted(members))
            if b - d >= a:
                interval = (max(a, b - retained), b - d)
                if not harness.ap.in_stable_root(
                        trace.records[b - 1].approx[p], interval, b):
                    return fail("stable_predicate", process=p,
                                interval=list(interval), round=b)
    return CheckerVerdict("approx", "pass")


def _forge(n, state, kind, t, rng):
    """A copy of a state of a run on n processes with slice t, its pruning
    cutoff, its owner or its slot width broken the way a faulty
    approximation layer could break it.  Every id stays in [0, n)."""
    slices = dict(state.slices)
    cutoff = state.pruned_before
    owner, vertices = state.owner, state.vertices
    ids = range(min(n, len(vertices) + 1))
    if kind in ("add_edge", "bad_label"):
        u, v = rng.sample(ids, 2)
        slices[t] = slices.get(t, 0) | 1 << _pair(u, v)
        vertices = vertices | {u, v}
    elif kind == "drop_in_edge" and t in slices:
        bits = [b for b in range(slices[t].bit_length()) if slices[t] >> b & 1]
        slices[t] ^= 1 << rng.choice(bits)
        if not slices[t]:
            del slices[t]
    elif kind == "drop_slice":
        slices.pop(t, None)
    elif kind == "lower_cutoff":
        cutoff = rng.randint(0, max(0, cutoff - 1))
    elif kind == "change_owner":
        owner = rng.choice(ids)
        vertices = vertices | {owner}
    elif kind == "widen":  # the same slices in the slots of n + 1 ids
        n += 1
    # No state holds a label below its cutoff, so a forged label there
    # lowers the cutoff with it.
    cutoff = min([cutoff, *(s for s, m in slices.items() if m)])
    return forge(n, owner, vertices, slices, cutoff)


FORGERIES = ("add_edge", "drop_in_edge", "drop_slice", "bad_label",
             "lower_cutoff", "change_owner", "widen")


@st.composite
def short_scenarios(draw):
    """A random short scenario: 2 to 5 processes, D of 1 or 2, 1 to 12
    rounds that repeat the previous graph with probability 3/4, so that
    stable root intervals occur.  Half of the fresh graphs have as root a
    2-process cycle that feeds every other process directly, so that D-bounded
    stable roots whose slices have edges occur too."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(1, min(2, n - 1)))
    horizon = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]

    def fresh():
        edges = draw(st.sets(st.sampled_from(pairs)))
        if draw(st.booleans()):
            a, b = draw(st.permutations(range(n)))[:2]
            edges = {(u, v) for u, v in edges if v not in (a, b)}
            edges |= {(a, b), (b, a)}
            edges |= {(a, v) for v in range(n) if v not in (a, b)}
        return RoundGraph(n, edges)

    graphs_ = [fresh()]
    for _ in range(horizon - 1):
        graphs_.append(graphs_[-1] if draw(st.integers(0, 3)) else fresh())
    return Scenario(d_bound=d, inputs=tuple(range(n)),
                    seq=GraphSequence(n, graphs_), meta={})


@st.composite
def forged_runs(draw):
    """A random short run, pruned or not, with zero to three forgeries, each
    applied to one to three consecutive states of one process."""
    sc = draw(short_scenarios())
    n, horizon = sc.n, sc.horizon
    trace = run(sc, prune=draw(st.booleans()))
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(FORGERIES))
        p = draw(st.integers(0, n - 1))
        r = draw(st.integers(1, horizon))
        # Labels outside [1, r] only from `bad_label`: 0 or the future.
        t = (draw(st.sampled_from([0, r + 1, r + 3])) if kind == "bad_label"
             else draw(st.integers(1, r)))
        for rec in trace.records[r - 1:r - 1 + draw(st.integers(1, 3))]:
            rec.approx[p] = _forge(n, rec.approx[p], kind, t, rng)
    return trace


_real_strong = harness.ap._strong


def _over_strong(m):
    """`_strong` that calls a slice with an even number of edges strongly
    connected on all its endpoints."""
    if m.bit_count() % 2:
        return _real_strong(m)
    return frozenset(x for e in harness.ap._decode(m) for x in e)


def _owner_blind_component(owner, m):
    """`_component` that takes a slice's strongly connected vertex set
    whether or not it holds the owner."""
    return _real_strong(m) if m else frozenset((owner,))


# Faults of what the protocol computes from A_p, each taking the arguments
# of the function it replaces.  `_component` is shared by the engine's
# predicate and `detected_component`, so its fault reaches both.
DETECTION_FAULTS = {
    "over_strong": ("_strong", _over_strong),
    "under_strong": ("_strong", lambda m: frozenset()),
    "owner_blind": ("_component", _owner_blind_component),
    "never_stable": ("in_stable_root", lambda *args: False),
}


@given(forged_runs(), st.sampled_from([None, *DETECTION_FAULTS]))
@settings(max_examples=300, deadline=None)
def test_approx_checker_matches_set_reference(trace, fault):
    # A drawn detection-side fault is applied to both checkers, so the
    # checker's soundness recheck of the changed slices alone is compared
    # with the reference's check of every slice on wrong detections too.
    with (mock.patch.object(harness.ap, *DETECTION_FAULTS[fault])
          if fault else contextlib.nullcontext()):
        assert check_approx_invariants(trace) == (
            _reference_check_approx_invariants(trace))


@pytest.mark.parametrize("prune", [False, True])
def test_owner_blind_detection_fails_detected_not_root(prune):
    # The 2-cycle {0, 1} is the root throughout; from round 2 on it also
    # feeds process 2, whose round-3 slice 1 then holds the cycle alone.
    # A component taken whether or not it holds its owner makes process 2
    # detect {0, 1} there, a component without process 2 in it.
    cycle = [(0, 1), (1, 0)]
    sc = Scenario(
        d_bound=1, inputs=(0, 1, 2),
        seq=GraphSequence(3, [RoundGraph(3, cycle)]
                          + [RoundGraph(3, cycle + [(0, 2)])] * 3),
        meta={},
    )
    trace = run(sc, prune=prune)
    assert check_approx_invariants(trace).status == "pass"
    with mock.patch.object(harness.ap, *DETECTION_FAULTS["owner_blind"]):
        verdict = check_approx_invariants(trace)
        assert verdict == _reference_check_approx_invariants(trace)
    assert verdict.status == "fail"
    assert verdict.witness == {
        "rule": "detected_not_root", "process": 2, "round": 3, "slice": 1,
        "detected": [0, 1],
    }


@given(short_scenarios())
@settings(max_examples=200, deadline=None)
def test_every_state_equals_its_closed_form(sc):
    for prune in (False, True):
        trace = run(sc, prune=prune)
        closed = _closed_form(sc, prune)
        for r, rec in enumerate(trace.records, start=1):
            for p, state in enumerate(rec.approx):
                cut, vertices, slices = closed(p, r)
                assert (state.owner, state.pruned_before) == (p, cut)
                assert state.vertices == vertices
                assert _held_slices(state) == slices
        assert check_approx_invariants(trace).status == "pass"


_real_absorb = harness.ap.approx_absorb


def _forgetful_absorb(state, r, received):
    """`approx_absorb` that drops every received slice whose label is a
    multiple of 7."""
    kept = [ApproxMessage(m.sender, forge(
        isqrt(state.width), m.graph.owner, m.graph.vertices,
        {s: x for s, x in m.graph.slices.items() if s % 7},
        m.graph.pruned_before)) for m in received]
    return _real_absorb(state, r, kept)


def test_forgetful_absorb_fails_the_slice_rule(monkeypatch):
    # On the static line 0 -> 1 -> 2 -> 3, process 2 learns at round 8
    # the round-7 in-edge 0 -> 1 from process 1's snapshot.  Every other
    # checker passes, and the held slices stay unions of whole
    # in-neighbourhoods, so only exactness catches the loss.
    sc = gen_static_line(4, 20)
    monkeypatch.setattr(harness.ap, "approx_absorb", _forgetful_absorb)
    trace = run(sc)
    monkeypatch.undo()
    verdicts = {v.name: v for v in run_checkers(trace)}
    assert [v.name for v in verdicts.values() if not v.ok] == ["approx"]
    assert verdicts["approx"].witness == {
        "rule": "slice", "process": 2, "round": 8, "slice": 7,
        "missing": [0, 1],
    }


def test_run_that_does_not_prune_fails_the_cutoff_rule(monkeypatch):
    # D = 3, so the 4D+1-slice window first drops a slice at round 13.
    sc = gen_static_star(4, 30)
    monkeypatch.setattr(harness.ap, "approx_prune",
                        lambda state, keep_after: state)
    trace = run(sc, prune=True)
    monkeypatch.undo()
    verdicts = {v.name: v for v in run_checkers(trace)}
    assert [v.name for v in verdicts.values() if not v.ok] == ["approx"]
    assert verdicts["approx"].witness == {
        "rule": "pruned_before", "process": 0, "round": 13,
        "pruned_before": 0, "expected": 1,
    }


def test_random_sequences_fail_only_where_the_assumption_fails():
    # The oracle classifies 600 random single-root sequences against
    # Assumption 1.  Where it holds, no checker fails.  Where it does not,
    # the approximation layer, agreement and validity still hold, and the
    # lock discipline holds or is skipped where the members-to-members
    # clause fails around the lock; the termination bound is promised only
    # under the assumption.
    rng = random.Random(7)
    clean = violating = lock_skips = 0
    for i in range(600):
        seq, d = sticky_sequence(rng)
        inputs = tuple(rng.randint(0, 2) for _ in range(seq.n))
        sc = Scenario(d_bound=d, inputs=inputs, seq=seq,
                      meta={"generator": "sticky", "seed": i})
        verdicts = run_checkers(run(sc, prune=i % 2 == 1))
        if sc.facts.assumption_holds:
            clean += 1
            failed = [v for v in verdicts if v.status == "fail"]
        else:
            violating += 1
            failed = [v for v in verdicts if v.status == "fail"
                      and v.name != "termination"]
        assert not failed, (i, failed)
        lock_skips += any(
            v.name == "lock" and v.status == "skipped"
            and v.witness["reason"] == "assumption_violated"
            for v in verdicts)
    assert clean >= 50 and violating >= 400, (clean, violating)
    assert lock_skips > 0
