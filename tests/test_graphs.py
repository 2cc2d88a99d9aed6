import math
import random

import pytest

from dynconsensus import (
    INFINITY,
    GraphSequence,
    MultipleRootsError,
    OutOfRangeError,
    RoundGraph,
    causal_distance,
    find_r_st,
    network_causal_diameter,
    root_components,
    scc_decompose,
    vertex_stable_intervals,
)
from dynconsensus.adversary import scenario_from_dict
from dynconsensus.graphs import round_diameter
from forgery import sticky_sequence

# The 5-node figure graph: 0<->1, 1->2, 3->0, 3->4, 4->1.
FIG_EDGES = [(0, 1), (1, 0), (1, 2), (3, 0), (3, 4), (4, 1)]


def static(n, edges, horizon):
    return GraphSequence(n, [RoundGraph(n, edges)] * horizon)


def line_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


class TestRoundGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            RoundGraph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RoundGraph(2, [(0, 2)])

    def test_neighbors(self):
        g = RoundGraph(5, FIG_EDGES)
        assert {p for p, q in g.edges if q == 1} == {0, 4}
        assert {q for p, q in g.edges if p == 3} == {0, 4}
        # The adjacency masks agree with the edge set.
        assert g.in_masks()[1] == 0b10001
        assert g.out_masks()[3] == 0b10001

    def test_pair_lists_build_the_same_graph(self):
        # The loader hands a file's [u, v] lists over as they are.
        lists = RoundGraph(5, [[p, q] for p, q in FIG_EDGES])
        tuples = RoundGraph(5, FIG_EDGES)
        assert lists.edges == tuples.edges == frozenset(FIG_EDGES)
        assert lists.in_masks() == tuples.in_masks()
        assert lists.out_masks() == tuples.out_masks()
        assert lists == tuples and hash(lists) == hash(tuples)
        loaded = scenario_from_dict({
            "n": 5, "D": 1, "horizon": 1, "inputs": [0] * 5,
            "rounds": [[[p, q] for p, q in FIG_EDGES]], "meta": {},
        }).seq.round(1)
        assert loaded == tuples and hash(loaded) == hash(tuples)

    def test_sequence_indexing_is_one_based(self):
        seq = static(3, [(0, 1)], 4)
        assert seq.round(1).edges == seq.round(4).edges
        with pytest.raises(OutOfRangeError):
            seq.round(0)
        with pytest.raises(OutOfRangeError):
            seq.round(5)


class TestScc:
    def test_figure_graph(self):
        # Brute-force pairwise reachability gives {0,1} as the only
        # non-singleton component of the figure graph.
        sccs = scc_decompose(RoundGraph(5, FIG_EDGES))
        assert sccs == [
            frozenset({0, 1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({4}),
        ]

    def test_no_edges(self):
        assert scc_decompose(RoundGraph(3)) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]

    def test_cycle_is_one_scc(self):
        assert scc_decompose(RoundGraph(3, cycle_edges(3))) == [
            frozenset({0, 1, 2})
        ]

    def test_matches_brute_force_reachability(self):
        # Random, edgeless and chain graphs; on a chain the root descent
        # can take many steps.
        rng = random.Random("scc-brute")
        for draw in range(300):
            n = rng.randint(1, 9)
            if draw % 3 == 2:
                order = rng.sample(range(n), n)
                edges = list(zip(order, order[1:]))
            else:
                density = rng.choice([0.0, 0.15, 0.3, 0.5])
                edges = [
                    (p, q)
                    for p in range(n)
                    for q in range(n)
                    if p != q and rng.random() < density
                ]
            g = RoundGraph(n, edges)
            reach = [[p == q for q in range(n)] for p in range(n)]
            for p, q in edges:
                reach[p][q] = True
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        if reach[i][k] and reach[k][j]:
                            reach[i][j] = True
            expected = sorted(
                {
                    frozenset(
                        q for q in range(n) if reach[p][q] and reach[q][p]
                    )
                    for p in range(n)
                },
                key=min,
            )
            assert scc_decompose(g) == expected
            # Root components: the SCCs that nothing outside reaches.
            assert root_components(g) == tuple(
                c
                for c in expected
                if not any(reach[p][min(c)] for p in range(n) if p not in c)
            )


class TestRootComponents:
    def test_figure_graph_single_root(self):
        assert root_components(RoundGraph(5, FIG_EDGES)) == (frozenset({3}),)

    def test_isolated_processes(self):
        roots = root_components(RoundGraph(3))
        assert roots == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_two_cycles_feeding_a_sink(self):
        edges = [(0, 1), (1, 0), (2, 3), (3, 2), (0, 4), (2, 4)]
        roots = root_components(RoundGraph(5, edges))
        assert roots == (frozenset({0, 1}), frozenset({2, 3}))

    def test_count_always_between_1_and_n(self):
        rng = random.Random("roots-range")
        for _ in range(30):
            n = rng.randint(1, 6)
            edges = [
                (p, q)
                for p in range(n)
                for q in range(n)
                if p != q and rng.random() < 0.4
            ]
            roots = root_components(RoundGraph(n, edges))
            assert 1 <= len(roots) <= n
            seen = set()
            for comp in roots:
                assert not comp & seen
                seen |= comp


class TestCausalDistance:
    def test_self_distance_is_one(self):
        seq = static(4, [], 3)
        for p in range(4):
            assert causal_distance(seq, 2, p, p) == 1

    def test_static_line(self):
        seq = static(5, line_edges(5), 10)
        assert causal_distance(seq, 1, 0, 4) == 4
        assert causal_distance(seq, 1, 0, 1) == 1

    def test_star_center_unreachable(self):
        seq = static(4, [(0, 1), (0, 2), (0, 3)], 10)
        assert causal_distance(seq, 1, 1, 0) == INFINITY

    def test_out_of_range_round(self):
        seq = static(3, [], 2)
        with pytest.raises(OutOfRangeError):
            causal_distance(seq, 3, 0, 1)

    def test_horizon_truncation(self):
        # The chain needs 4 rounds; a 2-round horizon reports INFINITY.
        seq = static(5, line_edges(5), 2)
        assert causal_distance(seq, 1, 0, 4) == INFINITY

    def test_successive_round_monotonicity(self):
        rng = random.Random("cd-mono")
        for _ in range(20):
            n = rng.randint(2, 5)
            horizon = rng.randint(2, 6)
            seq = GraphSequence(
                n,
                [
                    RoundGraph(
                        n,
                        [
                            (p, q)
                            for p in range(n)
                            for q in range(n)
                            if p != q and rng.random() < 0.3
                        ],
                    )
                    for _ in range(horizon)
                ],
            )
            for r in range(1, horizon):
                for p in range(n):
                    for q in range(n):
                        a = causal_distance(seq, r, p, q)
                        b = causal_distance(seq, r + 1, p, q)
                        assert b >= a - 1
                        if a == INFINITY:
                            assert b == INFINITY


class TestSccCausalDiameter:
    # The second value of round_diameter: the members' own diameter.
    def test_static_three_cycle(self):
        seq = static(3, cycle_edges(3), 5)
        own = [round_diameter(seq, x, {0, 1, 2})[1] for x in range(1, 6)]
        assert own == [2, 2, 2, 2, INFINITY]
        assert find_r_st(seq, 2).members_unbounded_intervals == []
        assert find_r_st(seq, 1).members_unbounded_intervals == [
            (x, x) for x in range(1, 6)
        ]

    def test_singleton(self):
        seq = static(2, [(0, 1)], 5)
        assert [round_diameter(seq, x, {0}) for x in range(1, 6)] == [(1, 1)] * 5

    def test_complete_then_rings(self):
        complete = RoundGraph(
            4, [(p, q) for p in range(4) for q in range(4) if p != q]
        )
        ring = RoundGraph(4, cycle_edges(4))
        seq = GraphSequence(4, [complete, ring, ring])
        members = {0, 1, 2, 3}
        assert round_diameter(seq, 1, members) == (1, 1)
        # Propagation starting at round 2 cannot finish within the interval.
        assert round_diameter(seq, 2, members) == (INFINITY, INFINITY)

    def test_diameter_bound_for_stable_sccs(self):
        # For |C| >= 2 and s >= r + |C| - 2, D(C^I) <= |C| - 1.
        rng = random.Random("scc-diam")
        for _ in range(25):
            k = rng.randint(2, 6)
            horizon = k - 1 + rng.randint(0, 3)
            rounds = []
            for _ in range(horizon):
                order = list(range(k))
                rng.shuffle(order)
                edges = {
                    (order[i], order[(i + 1) % k]) for i in range(k)
                }
                for _ in range(rng.randint(0, k)):
                    u, v = rng.randrange(k), rng.randrange(k)
                    if u != v:
                        edges.add((u, v))
                rounds.append(RoundGraph(k, edges))
            seq = GraphSequence(k, rounds)
            assert round_diameter(seq, 1, set(range(k)))[1] <= k - 1
            assert find_r_st(seq, k - 1).members_unbounded_intervals == []


class TestNetworkCausalDiameter:
    def test_static_line(self):
        seq = static(5, line_edges(5), 5)
        assert network_causal_diameter(seq, (1, 5)) == 4
        # Round 1's chain completes in the interval's last round, and counts.
        assert network_causal_diameter(seq, (1, 4)) == 4
        assert network_causal_diameter(seq, (1, 3)) == INFINITY

    def test_static_star(self):
        seq = static(4, [(0, 1), (0, 2), (0, 3)], 5)
        assert network_causal_diameter(seq, (1, 2)) == 1

    def test_singleton_network(self):
        seq = static(1, [], 4)
        assert network_causal_diameter(seq, (2, 3)) == 1

    def test_multiple_roots_error(self):
        seq = static(4, [(0, 1), (2, 3)], 3)
        with pytest.raises(MultipleRootsError):
            network_causal_diameter(seq, (1, 2))


class TestVertexStableIntervals:
    def test_static_graph_is_one_interval(self):
        seq = static(4, line_edges(4), 7)
        assert vertex_stable_intervals(seq) == [(1, 7, frozenset({0}))]

    def test_root_change_splits(self):
        a = RoundGraph(3, [(0, 1), (0, 2)])
        b = RoundGraph(3, [(1, 0), (1, 2)])
        seq = GraphSequence(3, [a, a, b])
        assert vertex_stable_intervals(seq) == [
            (1, 2, frozenset({0})), (3, 3, frozenset({1}))
        ]

    def test_alternating_roots(self):
        a = RoundGraph(2, [(0, 1)])
        b = RoundGraph(2, [(1, 0)])
        seq = GraphSequence(2, [a, b, a, b])
        intervals = [(a, b) for a, b, _ in vertex_stable_intervals(seq)]
        assert intervals == [(1, 1), (2, 2), (3, 3), (4, 4)]

    def test_multi_root_rounds_reported_separately(self):
        single = RoundGraph(3, [(0, 1), (0, 2)])
        multi = RoundGraph(3, [(0, 2), (1, 2)])
        seq = GraphSequence(3, [single, multi, single])
        assert vertex_stable_intervals(seq) == [
            (1, 1, frozenset({0})), (2, 2, None), (3, 3, frozenset({0}))
        ]

    def test_oracle_facts_lie_in_the_runs(self):
        # Every D-bounded interval of the oracle's facts is a whole run, and
        # every interval that is not D-bounded lies inside one single-root
        # run.  complete_then_rings (D = 1) supplies the unbounded intervals.
        from dynconsensus import (
            gen_complete_then_rings, gen_rotating_roots, gen_stable_window,
        )

        rng = random.Random("runs-vs-facts")
        scenarios = [gen_complete_then_rings(h) for h in range(2, 7)]
        for seed in range(100):
            n = rng.randint(3, 8)
            d = rng.randint(1, min(3, n - 1))
            scenarios.append(gen_stable_window(
                seed=seed, n=n, d_bound=d, r_st=rng.randint(1, 4)))
            scenarios.append(gen_rotating_roots(
                seed=seed, n=n, d_bound=d, horizon=rng.randint(5, 25)))
        bounded = unbounded = 0
        for sc in scenarios:
            runs = vertex_stable_intervals(sc.seq)
            for triple in sc.facts.d_bounded_intervals:
                assert triple in runs
            for a, b in sc.facts.unbounded_intervals:
                holders = [m for a0, b0, m in runs if a0 <= a and b <= b0]
                assert len(holders) == 1 and holders[0] is not None
            bounded += len(sc.facts.d_bounded_intervals)
            unbounded += len(sc.facts.unbounded_intervals)
        assert bounded >= 100 and unbounded > 0


class TestCheckDBounded:
    # D-boundedness of the root's members to members, as find_r_st reports it.
    def test_long_interval_with_d_n_minus_one(self):
        seq = static(4, cycle_edges(4), 10)
        report = find_r_st(seq, 3)
        assert report.members_unbounded_intervals == []
        assert report.d_bounded_intervals == [(1, 10, frozenset(range(4)))]

    def test_complete_then_rings_not_1_bounded(self):
        complete = RoundGraph(
            4, [(p, q) for p in range(4) for q in range(4) if p != q]
        )
        ring = RoundGraph(4, cycle_edges(4))
        seq = GraphSequence(4, [complete, ring, ring])
        assert find_r_st(seq, 1).members_unbounded_intervals == [(2, 2), (3, 3)]

    def test_singleton_root_always_1_bounded(self):
        seq = static(3, [(0, 1), (0, 2)], 6)
        report = find_r_st(seq, 1)
        assert report.members_unbounded_intervals == []
        assert report.d_bounded_intervals == [(1, 6, frozenset({0}))]

    def test_scc_diameter_is_not_the_network_diameter(self):
        # The root {0, 1} reaches itself in one round but process 3 only in
        # three, so the members' own diameter is 1 and the network's 3: the
        # members clause holds on every interval, while the network clause
        # fails on every round.
        seq = static(4, [(0, 1), (1, 0), (1, 2), (2, 3)], 12)
        assert round_diameter(seq, 1, {0, 1}) == (3, 1)
        assert network_causal_diameter(seq, (1, 12)) == 3
        report = find_r_st(seq, 1)
        assert report.members_unbounded_intervals == []
        assert report.unbounded_intervals == [(x, x) for x in range(1, 13)]
        assert report.r_st is None


class TestFindRSt:
    def test_static_three_cycle(self):
        seq = static(3, cycle_edges(3), 20)
        report = find_r_st(seq, 2)
        assert report.r_st == 1
        assert report.assumption_holds

    def test_two_roots_reports_violation(self):
        seq = static(4, [(0, 1), (1, 0), (2, 3), (3, 2)], 12)
        report = find_r_st(seq, 2)
        assert report.r_st is None
        assert 1 in report.multi_root_rounds

    def test_window_starting_mid_sequence(self):
        from dynconsensus import gen_stable_window

        sc = gen_stable_window(seed=11, n=6, d_bound=2, r_st=6)
        report = find_r_st(sc.seq, 2)
        assert report.r_st == 6

    def test_horizon_too_short_for_window(self):
        seq = static(3, cycle_edges(3), 5)
        assert find_r_st(seq, 2).r_st is None


def quadratic_search(per_round, a0, b0, d_bound):
    """Every sub-interval [a, b] of length D or more of the stable run
    [a0, b0], checked one by one with the start extended leftwards from each
    end, as (a, b, whether it is D-bounded under the per-round diameters)."""
    for b in range(a0 + d_bound - 1, b0 + 1):
        best = 0
        for a in range(b, a0 - 1, -1):
            v = per_round[a]
            if a + v - 1 <= b and v > best:
                best = v
            if b - a + 1 >= d_bound:
                yield a, b, ((best or INFINITY) <= d_bound
                             and per_round[b - d_bound + 1] <= d_bound)


def reference_find_r_st(seq, d_bound):
    """The quadratic search find_r_st once made, over every single-root
    stable run.  Returns (r_st, multi_root_rounds, unbounded_intervals,
    d_bounded_intervals, members_unbounded_intervals), each unbounded list
    holding every sub-interval that is not D-bounded.  The members' own
    diameters come from causal_distance over member pairs."""
    window_len = 4 * d_bound + 2
    r_st, multi, unbounded, bounded, own_unbounded = None, [], [], [], []
    for a0, b0, members in vertex_stable_intervals(seq):
        if members is None:
            multi.extend(range(a0, b0 + 1))
            continue
        if b0 - a0 + 1 < d_bound:
            continue
        per_round = {
            x: round_diameter(seq, x, members, max_steps=b0 - x + 1)[0]
            for x in range(a0, b0 + 1)
        }
        for a, b, ok in quadratic_search(per_round, a0, b0, d_bound):
            if not ok:
                unbounded.append((a, b))
                continue
            if b - a + 1 == window_len and r_st is None:
                r_st = a
            if (a, b) == (a0, b0) and b - a + 1 > d_bound:
                bounded.append((a0, b0, members))
        own = {
            x: max(causal_distance(seq, x, p, q)
                   for p in members for q in members)
            for x in range(a0, b0 + 1)
        }
        own_unbounded += [
            (a, b)
            for a, b, ok in quadratic_search(own, a0, b0, d_bound) if not ok
        ]
    return r_st, multi, unbounded, bounded, own_unbounded


def minimal_intervals(intervals):
    """The intervals of the list that contain no other one, ascending."""
    first_end = {}
    for a, b in intervals:
        first_end[a] = min(b, first_end.get(a, b))
    return sorted(
        (a, b)
        for a, b in set(intervals)
        if first_end[a] == b
        and all(first_end.get(x, b + 1) > b for x in range(a + 1, b + 1))
    )


class TestFindRStReference:
    def test_matches_the_quadratic_search(self):
        # Every fact equals the one-by-one search, except that only the
        # minimal intervals that are not D-bounded are kept, under both the
        # network diameter and the members' own.
        from dynconsensus import (
            gen_complete_then_rings, gen_expander,
            gen_reversing_line, gen_rotating_roots, gen_short_window,
            gen_stable_window, gen_static_line, gen_static_star,
            gen_two_roots,
        )

        rng = random.Random("find-r-st-reference")
        cases = [sticky_sequence(rng) for _ in range(1000)]
        family = [
            gen_stable_window(seed=3, n=6, d_bound=2, r_st=4),
            gen_rotating_roots(seed=3, n=5, d_bound=2, horizon=30),
            gen_static_line(5, 30),
            gen_static_star(4, 20),
            gen_reversing_line(5, 3, 20),
            gen_two_roots(2, 2, 20),
            gen_short_window(6, 2, horizon=12, r_st=3),
            gen_expander(1, 16, 4, 16),
        ] + [gen_complete_then_rings(h) for h in range(2, 30)]
        cases += [(sc.seq, sc.d_bound) for sc in family]
        violating = found = members_violating = only_network = 0
        for seq, d_bound in cases:
            r_st, multi, unbounded, bounded, own_unbounded = (
                reference_find_r_st(seq, d_bound))
            report = find_r_st(seq, d_bound)
            assert report.r_st == r_st
            assert report.multi_root_rounds == multi
            assert report.d_bounded_intervals == bounded
            assert report.unbounded_intervals == minimal_intervals(unbounded)
            assert report.members_unbounded_intervals == minimal_intervals(
                own_unbounded)
            assert report.assumption_holds == (
                r_st is not None and not multi and not unbounded
            )
            violating += bool(unbounded)
            found += r_st is not None
            members_violating += bool(own_unbounded)
            only_network += bool(unbounded) and not own_unbounded
        assert violating >= 500 and found >= 100
        assert members_violating >= 400 and only_network >= 150

    def test_complete_then_rings_list_is_linear(self):
        # One entry per ring round (D = 1); the quadratic search kept all
        # 2,000,999 failing sub-intervals of the ring run.
        from dynconsensus import gen_complete_then_rings

        unbounded = gen_complete_then_rings(2000).facts.unbounded_intervals
        assert len(unbounded) <= 2000
        assert unbounded == [(x, x) for x in range(2, 2001)]
