import json

import pytest

from dynconsensus import (
    ApproxState,
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
    gen_rotating_roots,
    gen_stable_window,
    gen_static_star,
    gen_two_roots,
    report_csv,
    run,
    run_checkers,
    summarize,
    trace_save,
)
from dynconsensus import graphs
from dynconsensus.harness import REPORT_COLUMNS


def three_cycle(horizon=12, inputs=(1, 5, 3), d=2):
    g = RoundGraph(3, [(0, 1), (1, 2), (2, 0)])
    return Scenario(
        n=3,
        d_bound=d,
        horizon=horizon,
        inputs=inputs,
        seq=GraphSequence(3, [g] * horizon),
        meta={"generator": "manual", "seed": 0},
    )


def singleton(horizon=6, value=9):
    return Scenario(
        n=1,
        d_bound=1,
        horizon=horizon,
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
            (p, rec.round)
            for rec in trace.records
            for p, evs in rec.events.items()
            if any(e["kind"] == "lock" for e in evs)
        }
        assert locks == {(0, 4), (1, 4), (2, 4)}

    def test_singleton_network(self):
        trace = run(singleton())
        assert trace.decisions == {0: (9, 5)}

    def test_delivery_matches_round_graph(self):
        sc = gen_stable_window(seed=2, n=5, d_bound=2, r_st=3)
        trace = run(sc)
        for rec in trace.records:
            g = sc.seq.round(rec.round)
            for q in range(sc.n):
                assert rec.delivered[q] == sorted(g.in_neighbors(q))

    def test_deciders_keep_flooding(self):
        # After everyone decides, states stay frozen to the end of the run.
        trace = run(three_cycle(horizon=12))
        final = trace.cons_states[-1]
        assert all(st.decided and st.x == 5 for st in final)

    @pytest.mark.parametrize("override", [0, -1, 13])
    def test_horizon_override_out_of_range(self, override):
        with pytest.raises(ValueError):
            run(three_cycle(horizon=12), horizon_override=override)

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
                n=base.n,
                d_bound=base.d_bound,
                horizon=base.horizon,
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
                assert a.cons_states[r][p] == b.cons_states[r][p]
                assert a.approx_states[r][p] == b.approx_states[r][p]


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

    def test_termination_inconclusive_when_horizon_short(self):
        trace = run(three_cycle(horizon=12), horizon_override=7)
        assert check_termination_bound(trace).status == "inconclusive"

    def test_approx_invariants_pass(self):
        for sc in (
            three_cycle(),
            gen_stable_window(seed=3, n=6, d_bound=2, r_st=2),
        ):
            assert check_approx_invariants(run(sc)).status == "pass"

    def test_approx_subset_fault_injection(self):
        trace = run(three_cycle())
        state = trace.approx_states[5][0]
        forged = dict(state.edges)
        forged[(2, 1)] = 1 << 3  # (2 -> 1) never exists in the 3-cycle
        trace.approx_states[5][0] = ApproxState(
            owner=0, vertices=state.vertices | {2, 1}, edges=forged
        )
        verdict = check_approx_invariants(trace)
        assert verdict.status == "fail"
        assert verdict.witness["rule"] in ("subset", "in_neighborhood")

    def test_pruned_static_star_passes(self):
        # The engine keeps 4D+1 slices; the latency rule must not read
        # slices it has pruned away.
        trace = run(gen_static_star(4, 30), prune=True)
        assert check_approx_invariants(trace).status == "pass"
        assert all(v.status == "pass" for v in run_checkers(trace))

    def test_pruned_forged_edge_in_retained_slice(self):
        trace = run(gen_static_star(4, 30), prune=True)
        r, t = 21, 20  # round 21 retains slices >= 21 - 4D = 12
        state = trace.approx_states[r - 1][0]
        forged = dict(state.edges)
        forged[(1, 2)] = 1 << t  # the star has no edge 1 -> 2
        trace.approx_states[r - 1][0] = ApproxState(
            owner=0, vertices=state.vertices, edges=forged,
            pruned_before=state.pruned_before,
        )
        verdict = check_approx_invariants(trace)
        assert verdict.status == "fail"
        assert verdict.witness["rule"] in ("subset", "in_neighborhood")

    def test_pruned_over_eager_pruner_fails(self):
        # Pruning to 2D+1 slices drops slices the 4D+1 window must keep.
        sc = gen_static_star(4, 30)
        trace = run(sc, prune=True)
        for t, states in enumerate(trace.approx_states, start=1):
            keep_after = t - 2 * sc.d_bound
            if keep_after > 0:
                states[:] = [approx_prune(st, keep_after) for st in states]
        verdict = check_approx_invariants(trace)
        assert verdict.status == "fail"
        assert verdict.witness["rule"] == "detection_latency"

    def test_lock_discipline_pass(self):
        trace = run(gen_stable_window(seed=5, n=6, d_bound=2, r_st=4))
        assert check_lock_discipline(trace).status == "pass"

    def test_lock_discipline_outsider_fault_injection(self):
        sc = gen_stable_window(seed=5, n=6, d_bound=2, r_st=4)
        trace = run(sc)
        rf = min(r for _, r in trace.decisions.values())
        decider = min(p for p, (_, r) in trace.decisions.items() if r == rf)
        lock_round = trace.cons_states[rf - 1][decider].lock_round
        members = {
            p
            for rec in trace.records
            if rec.round == lock_round
            for p, evs in rec.events.items()
            if any(e["kind"] == "lock" for e in evs)
        }
        outsider = min(set(range(sc.n)) - members)
        rec = trace.records[lock_round - 1]
        rec.events.setdefault(outsider, []).append(
            {"kind": "lock", "round": lock_round}
        )
        verdict = check_lock_discipline(trace)
        assert verdict.status == "fail"
        assert verdict.witness["rule"] == "outsider_lock"

    def test_lock_discipline_skipped_without_decisions(self):
        trace = run(gen_rotating_roots(seed=3, n=4, d_bound=2, horizon=15))
        assert check_lock_discipline(trace).status == "skipped"


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
