import hashlib
import json

import pytest
from hypothesis import example, given, strategies as st

from dynconsensus import (
    ApproxMessage,
    ApproxState,
    GraphSequence,
    MalformedMessageError,
    RoundGraph,
    Scenario,
    approx_absorb,
    approx_emit,
    approx_init,
    approx_prune,
    approx_restrict,
    check_approx_invariants,
    detected_component,
    in_stable_root,
    run,
)
from dynconsensus.approximation import (
    EdgeCursor,
    _allowed_mask,
    _decode,
    _degree_masks,
    _pair,
    _strong,
)
from dynconsensus.harness import approx_digest


def test_init_is_singleton():
    state = approx_init(3)
    assert state.owner == 3
    assert state.vertices == {3}
    assert state.edges == {}
    assert approx_init(3) == approx_init(3)


def test_emit_is_a_pure_snapshot():
    state = approx_init(0)
    m1 = approx_emit(state)
    m2 = approx_emit(state)
    assert m1.sender == 0 and m1.graph == state
    assert m1 == m2


def test_absorb_adds_direct_edge_with_round_label():
    p = approx_init(0)
    q = approx_init(1)
    p = approx_absorb(p, 1, [approx_emit(q)])
    assert p.vertices == {0, 1}
    assert p.edges[(1, 0)] == 1 << 1


def test_absorb_empty_inbox_is_identity():
    state = approx_init(2)
    assert approx_absorb(state, 4, []) == state


def test_merge_takes_label_union():
    # p already knows (2 -> 3) from round 1; q's snapshot says round 2 too.
    p = ApproxState.from_edges(
        owner=0, vertices={0, 2, 3}, edges={(2, 3): 1 << 1})
    q = ApproxState.from_edges(
        owner=1, vertices={1, 2, 3}, edges={(2, 3): 1 << 2})
    merged = approx_absorb(p, 3, [approx_emit(q)])
    assert merged.edges[(2, 3)] == 1 << 1 | 1 << 2
    assert merged.edges[(1, 0)] == 1 << 3


def test_absorb_is_monotone():
    p = approx_init(0)
    q = approx_init(1)
    p = approx_absorb(p, 1, [approx_emit(q)])
    p2 = approx_absorb(p, 2, [approx_emit(q)])
    for edge, mask in p.edges.items():
        assert p2.edges[edge] & mask == mask
    assert p.vertices <= p2.vertices


def test_malformed_snapshots_rejected():
    def snapshot(vertices, edges):
        return approx_emit(ApproxState.from_edges(1, vertices, edges))

    # One case per validation rule, each breaking that rule alone.
    cases = [
        (ApproxMessage(sender=2, graph=approx_init(1)), "owner mismatch"),
        (snapshot({1}, {(1, 1): 1 << 1}), "self-loop"),
        (snapshot({1, 2}, {(2, 3): 1 << 1}), "unknown endpoint"),
        (snapshot({0, 1}, {(0, 1): 1 << 5}), "outside"),  # future label
        (snapshot({0, 1}, {(0, 1): 1}), "outside"),  # label 0
    ]
    for msg, rule in cases:
        with pytest.raises(MalformedMessageError, match=rule):
            approx_absorb(approx_init(0), 2, [msg])


def test_cached_snapshot_facts_do_not_fix_the_round():
    # The same message objects are absorbed at rounds 2 and 6, in both
    # orders: label 5 is outside [1, 1] but inside [1, 5].
    state = ApproxState.from_edges(1, {0, 1}, {(0, 1): 1 << 5})
    early, late = approx_emit(state), approx_emit(state)
    for msg, rounds in ((early, (2, 6)), (late, (6, 2))):
        for r in rounds:
            if r == 2:
                with pytest.raises(MalformedMessageError,
                                   match=r"labels outside \[1, 1\]"):
                    approx_absorb(approx_init(0), r, [msg])
            else:
                merged = approx_absorb(approx_init(0), r, [msg])
                assert merged.edges == {(0, 1): 1 << 5, (1, 0): 1 << 6}


def _reference_validate(msg, r):
    """Snapshot validation as one pass per receiver, every fact recomputed:
    the owner, then the label range, then each slice against the edges
    allowed between distinct vertices of the snapshot."""
    g = msg.graph
    if msg.sender != g.owner or g.owner not in g.vertices:
        raise MalformedMessageError(f"snapshot owner mismatch from {msg.sender}")
    if min(g.slices, default=1) < 1 or max(g.slices, default=0) >= r:
        raise MalformedMessageError(
            f"snapshot from {msg.sender} carries labels outside [1, {r - 1}]")
    allowed = _allowed_mask(g.vertices)
    for m in g.slices.values():
        bad = m & ~allowed
        if bad:
            (u, v), = _decode(bad & -bad)
            kind = "self-loop" if u == v else "unknown endpoint in"
            raise MalformedMessageError(f"{kind} {u}->{v} from {msg.sender}")


def _absorb_error(received, r):
    """(type name, text) of what `approx_absorb` raises, or None; a
    negative vertex id makes `_allowed_mask` raise a plain ValueError."""
    try:
        approx_absorb(approx_init(0), r, received)
    except ValueError as exc:  # MalformedMessageError included
        return type(exc).__name__, str(exc)
    return None


def _reference_error(received, r):
    try:
        for msg in received:
            _reference_validate(msg, r)
    except ValueError as exc:  # MalformedMessageError included
        return type(exc).__name__, str(exc)
    return None


def test_first_fault_in_precedence_order_is_reported():
    # Each snapshot breaks every rule from its own onwards: owner, label
    # range, self-loop, unknown endpoint.
    loop_and_stranger = {3: 1 << _pair(1, 1) | 1 << _pair(1, 4)}
    cases = [
        (ApproxMessage(2, ApproxState(1, {1}, {0: 1, **loop_and_stranger})),
         "snapshot owner mismatch from 2"),
        (ApproxMessage(1, ApproxState(1, {1}, {0: 1, **loop_and_stranger})),
         "snapshot from 1 carries labels outside [1, 3]"),
        (ApproxMessage(1, ApproxState(1, {1}, loop_and_stranger)),
         "self-loop 1->1 from 1"),
        (ApproxMessage(1, ApproxState(1, {1}, {1: 1 << _pair(0, 1),
                                                2: 1 << _pair(1, 1)})),
         "unknown endpoint in 0->1 from 1"),
    ]
    for msg, text in cases:
        for _ in range(2):  # a failed check stores nothing; check again
            assert _absorb_error([msg], 4) == ("MalformedMessageError", text)
        assert _reference_error([msg], 4) == ("MalformedMessageError", text)
    # Between messages, the first faulty one in delivery order wins.
    msgs = [msg for msg, _ in cases]
    assert _absorb_error(msgs[::-1], 4) == _reference_error(msgs[::-1], 4)


@st.composite
def forged_snapshots(draw):
    """A list of one to three messages whose states are drawn directly, not
    through `from_edges`: vertex ids in [-1, 4], so a negative one makes the
    allowed-edge mask raise; senders that may not be owners; slice keys in
    [-1, 6], zero values included; and edge bits over ids in [0, 5], with
    self-loops and endpoints outside the vertex set."""
    def message():
        owner = draw(st.integers(0, 4))
        sender = draw(st.sampled_from([owner, owner, owner + 1]))
        vertices = draw(st.sets(st.integers(-1, 4), max_size=5))
        if draw(st.booleans()):
            vertices.add(owner)
        slices = draw(st.dictionaries(
            st.integers(-1, 6),
            st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    max_size=4).map(lambda es: sum(1 << _pair(u, v)
                                                   for u, v in es)),
            max_size=4,
        ))
        return ApproxMessage(sender, ApproxState(owner, vertices, slices))

    return [message() for _ in range(draw(st.integers(1, 3)))]


@given(forged_snapshots(), st.lists(st.integers(1, 8), min_size=1,
                                    max_size=4))
def test_absorb_errors_match_reference_validation(received, rounds):
    # The same message objects are absorbed at every round in turn, so the
    # later absorbs read the facts that an earlier one stored.
    for r in rounds:
        assert _absorb_error(received, r) == _reference_error(received, r)


def _assert_carried_facts_hold(state):
    """A state that carries facts is a well-formed snapshot whose highest
    label is `_top`."""
    if state._top is not None:
        assert state._top == max(state.slices, default=0)
        _reference_validate(ApproxMessage(state.owner, state), state._top + 1)


@st.composite
def chain_steps(draw):
    """One to twelve steps on a population of three states, addressed by
    index: ("absorb", i, r, senders, forged messages added to theirs),
    ("prune", i, keep_after) or ("swap", i, a state drawn by hand).  The
    k-th absorb runs at round k or, now and then, a few rounds earlier, so
    most can succeed and some fall below labels the receiver holds."""
    steps, clock = [], 0
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(["absorb", "absorb", "prune", "swap"]))
        i = draw(st.integers(0, 2))
        if op == "absorb":
            clock += 1
            r = max(1, clock - draw(st.sampled_from([0, 0, 0, 1, 3])))
            senders = draw(st.lists(st.integers(0, 2), min_size=1,
                                    max_size=3))
            forged = draw(forged_snapshots()) if draw(
                st.sampled_from([False, False, True])) else []
            steps.append((op, i, r, senders, forged))
        elif op == "prune":
            # Half the prunes drop every label up to the clock.
            keep_after = draw(st.sampled_from([clock + 1, None]))
            if keep_after is None:
                keep_after = draw(st.integers(0, clock))
            steps.append((op, i, keep_after))
        else:
            steps.append((op, i, draw(forged_snapshots())[0].graph))
    return steps


@given(chain_steps())
# A self-sent message: the direct edge 0 -> 0 is a self-loop.
@example([("absorb", 0, 1, [0], []), ("absorb", 1, 2, [0], [])])
# A faulty slice (a self-loop with label 1) that pruning removes.
@example([("swap", 0, ApproxState(0, {0, 1}, {1: 1 << _pair(0, 0),
                                              3: 1 << _pair(1, 0)})),
          ("prune", 0, 2), ("absorb", 1, 4, [0], [])])
# An absorb at a round below a label the state holds keeps that label the
# highest.
@example([("absorb", 0, 5, [1], []), ("absorb", 0, 2, [1], []),
          ("absorb", 1, 3, [0], [])])
# A forged state swapped in mid-chain, then absorbed into and sent on.
@example([("absorb", 0, 1, [1], []),
          ("swap", 0, ApproxState(0, {0}, {2: 1 << _pair(0, 0)})),
          ("absorb", 0, 3, [1], []), ("absorb", 2, 4, [0], [])])
# Pruning every label of a state leaves no highest label.
@example([("absorb", 0, 6, [1], []), ("prune", 0, 7),
          ("absorb", 1, 3, [0], [])])
def test_carried_facts_match_reference_validation_along_a_chain(steps):
    # Each state's facts come from the transitions that made it; each
    # absorb must still fail exactly as validating every message afresh.
    states = [approx_init(p) for p in range(3)]
    for op, i, *args in steps:
        if op == "swap":
            states[i] = args[0]
        elif op == "prune":
            states[i] = approx_prune(states[i], args[0])
        else:
            r, senders, forged = args
            received = [approx_emit(states[j]) for j in senders] + forged
            expected = _reference_error(received, r)
            try:
                merged = approx_absorb(states[i], r, received)
            except ValueError as exc:  # MalformedMessageError included
                assert (type(exc).__name__, str(exc)) == expected
            else:
                assert expected is None
                states[i] = merged
            for msg in received:
                _assert_carried_facts_hold(msg.graph)
        _assert_carried_facts_hold(states[i])


@pytest.mark.parametrize("dropped", [1, 2, 3])
def test_checker_catches_a_partial_column_gained_later(dropped):
    # Round graph: 1, 2, 3 -> 0 and 0 -> 1.  Process 1 knows slice 1 as
    # {0 -> 1} after round 1; at round 2 it learns process 0's in-edges.
    # The forged round-2 state gains all but one of them, so slice 1 only
    # gained bits since round 1 and misses that one, whether its bit lies
    # below, between or above the bits of the other two.
    g = RoundGraph(4, [(1, 0), (2, 0), (3, 0), (0, 1)])
    sc = Scenario(d_bound=2, inputs=(1, 2, 3, 4),
                  seq=GraphSequence(4, [g] * 4),
                  meta={"generator": "manual", "seed": 0})
    trace = run(sc)
    before = trace.records[0].approx[1].slices[1]
    state = trace.records[1].approx[1]
    assert before == 1 << _pair(0, 1)
    assert state.slices[1] == before | sum(
        1 << _pair(u, 0) for u in (1, 2, 3))
    slices = dict(state.slices)
    slices[1] = state.slices[1] & ~(1 << _pair(dropped, 0))
    trace.records[1].approx[1] = ApproxState(
        1, state.vertices, slices, state.pruned_before)
    verdict = check_approx_invariants(trace)
    assert verdict.witness == {
        "rule": "in_neighborhood", "process": 1, "round": 2, "slice": 1,
        "missing": [dropped, 0],
    }


def test_restrict_filters_by_label():
    state = ApproxState.from_edges(
        owner=0, vertices={0, 1}, edges={(1, 0): (1 << 1) | (1 << 3)})
    vertices, edges = approx_restrict(state, 2)
    assert vertices == {0} and edges == frozenset()
    vertices, edges = approx_restrict(state, 3)
    assert edges == {(1, 0)} and vertices == {0, 1}


def test_detected_component_singleton_rule():
    # An edgeless slice detects the owner alone.
    assert detected_component(approx_init(4), 1) == {4}


def test_detected_component_requires_strong_connectivity():
    path = ApproxState.from_edges(
        owner=0, vertices={0, 1}, edges={(1, 0): 1 << 1})
    assert detected_component(path, 1) == frozenset()
    cyc = ApproxState.from_edges(
        owner=0,
        vertices={0, 1},
        edges={(1, 0): 1 << 1, (0, 1): 1 << 1},
    )
    assert detected_component(cyc, 1) == {0, 1}


def test_in_stable_root_round_bounds():
    state = approx_init(0)
    assert not in_stable_root(state, (0, 1), 5)  # round 0 has no data
    assert not in_stable_root(state, (2, 5), 5)  # round 5 not finished
    assert not in_stable_root(state, (3, 2), 5)  # empty interval
    assert in_stable_root(state, (1, 4), 5)  # singleton detections agree


def test_in_stable_root_requires_equal_components():
    state = ApproxState.from_edges(
        owner=0,
        vertices={0, 1},
        edges={(1, 0): 1 << 2},  # slice 2 is a path -> empty detection
    )
    assert in_stable_root(state, (1, 1), 3)
    assert not in_stable_root(state, (1, 2), 4)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4)),
        max_size=12,
    )
)
def test_absorb_union_is_commutative_and_monotone(items):
    # Build two snapshots from arbitrary (from, to, round) triples and check
    # that merging them into a fresh state is order-independent and only
    # ever adds labels.
    def snapshot(owner, triples):
        edges = {}
        for u, v, r in triples:
            if u != v:
                edges[(u, v)] = edges.get((u, v), 0) | (1 << r)
        vertices = {owner} | {x for e in edges for x in e}
        return ApproxState.from_edges(
            owner=owner, vertices=vertices, edges=edges)

    a = approx_emit(snapshot(1, items[: len(items) // 2]))
    b = approx_emit(snapshot(2, items[len(items) // 2:]))
    ab = approx_absorb(approx_init(0), 5, [a, b])
    ba = approx_absorb(approx_init(0), 5, [b, a])
    assert ab == ba
    for msg in (a, b):
        for edge, mask in msg.graph.edges.items():
            assert ab.edges[edge] & mask == mask


def test_prune_drops_old_labels():
    state = ApproxState.from_edges(
        owner=0,
        vertices={0, 1, 2},
        edges={(1, 0): (1 << 1) | (1 << 5), (2, 0): 1 << 2},
    )
    pruned = approx_prune(state, 3)
    assert pruned.edges[(1, 0)] == 1 << 5
    assert (2, 0) not in pruned.edges
    assert pruned.vertices == {0, 1, 2}
    # Slices below the cutoff report no data, not a spurious singleton.
    assert detected_component(pruned, 2) == frozenset()
    assert approx_prune(state, 0) == state


def _strongly_connected(vertices, edges):
    """Set-based reference: True iff the digraph on `vertices` is strongly
    connected; a single vertex with no edges counts as strongly connected."""
    if len(vertices) == 1:
        return not edges
    fwd = {}
    bwd = {}
    for u, v in edges:
        fwd.setdefault(u, []).append(v)
        bwd.setdefault(v, []).append(u)
    start = next(iter(vertices))
    for adj in (fwd, bwd):
        seen = {start}
        stack = [start]
        while stack:
            for w in adj.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != vertices:
            return False
    return True


@st.composite
def snapshot_sets(draw):
    """(n, r, owner state, received snapshots, edge dict of each state):
    every state is a random edge dict over n <= 6 vertices with labels in
    [1, r - 1], r <= 8; the senders are distinct and differ from the owner."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(2, 8))
    owner = draw(st.integers(0, n - 1))

    def state(p):
        edges = draw(st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]),
            st.integers(1, (1 << (r - 1)) - 1).map(lambda m: m << 1),
            max_size=n * (n - 1),
        ))
        vertices = {p} | {x for e in edges for x in e}
        return ApproxState.from_edges(p, vertices, edges), edges

    senders = draw(st.lists(
        st.integers(0, n - 1).filter(lambda q: q != owner), unique=True))
    own, own_edges = state(owner)
    snaps = [state(q) for q in senders]
    return n, r, own, [approx_emit(s) for s, _ in snaps], [own_edges] + [
        e for _, e in snaps]


@given(snapshot_sets())
def test_slice_layout_matches_edge_reference(case):
    n, r, state, received, edge_dicts = case
    for graph, edges in zip([state] + [m.graph for m in received], edge_dicts):
        assert graph.edges == edges
        rebuilt = ApproxState.from_edges(graph.owner, graph.vertices, edges)
        assert rebuilt == graph

    merged = approx_absorb(state, r, received)
    expected = {}
    for edges in edge_dicts:
        for e, mask in edges.items():
            expected[e] = expected.get(e, 0) | mask
    for msg in received:
        e = (msg.sender, state.owner)
        expected[e] = expected.get(e, 0) | 1 << r
    assert merged.edges == expected

    for s in range(1, r + 1):
        vertices, edges = approx_restrict(merged, s)
        connected = _strongly_connected(vertices, edges)
        assert detected_component(merged, s) == (
            vertices if connected else frozenset())

    for cutoff in range(r + 2):
        pruned = approx_prune(merged, cutoff)
        kept = {e: m >> cutoff << cutoff for e, m in expected.items()}
        assert pruned.edges == {e: m for e, m in kept.items() if m}


@st.composite
def shared_slice_states(draw):
    """(horizon, edge dict, [(owner, pruned_before)]): states of several
    owners over the same slice ints.  Edges span n <= 5 vertices, self-loops
    included, with labels in [1, horizon]; a slice may be edgeless; owners
    range over [0, n], so owner n is in no slice's vertex set."""
    n = draw(st.integers(1, 5))
    horizon = draw(st.integers(1, 6))
    edges = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        st.integers(1, (1 << horizon) - 1).map(lambda m: m << 1),
        max_size=12,
    ))
    owners = draw(st.lists(
        st.tuples(st.integers(0, n), st.integers(0, horizon + 1)),
        min_size=2, max_size=6,
    ))
    return horizon, edges, owners


@given(shared_slice_states())
@example((3, {(0, 1): 1 << 1, (1, 0): 1 << 1, (0, 0): 1 << 1, (2, 2): 1 << 2},
          [(0, 0), (1, 2), (3, 0), (2, 0)]))
def test_detected_component_shared_across_owners(case):
    # `_strong` is keyed by the slice int alone, so whichever owner fills
    # the cache first, each owner must get its own detected component.
    # The example has a slice with a self-loop (1), one whose only edge is
    # a self-loop (2), an edgeless slice (3), an owner outside every slice
    # (3) and a slice below `pruned_before` (owner 1, slice 1).
    horizon, edges, owners = case
    ends = {x for e in edges for x in e}
    states = [ApproxState.from_edges(p, ends | {p}, edges, cutoff)
              for p, cutoff in owners]
    for order in (states, states[::-1]):
        _strong.cache_clear()
        for state in order:
            for s in range(1, horizon + 1):
                vertices, slice_edges = approx_restrict(state, s)
                expected = (
                    vertices
                    if s >= state.pruned_before
                    and _strongly_connected(vertices, slice_edges)
                    else frozenset()
                )
                assert detected_component(state, s) == expected


@st.composite
def slice_edge_sets(draw):
    """A nonempty edge set over vertex ids 0..9, self-loops allowed: random
    edges plus a cycle through random distinct vertices, so that strongly
    connected slices of every size and top vertex are common."""
    edges = draw(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9))))
    cycle = draw(st.lists(st.integers(0, 9), unique=True,
                          min_size=0 if edges else 1))
    return edges | set(zip(cycle, cycle[1:] + cycle[:1]))


@given(slice_edge_sets())
@example({(0, 1), (1, 0), (2, 3), (3, 2)})
@example({(0, 1), (1, 2), (2, 0), (3, 3)})
@example({(0, 1), (1, 2), (2, 0), (0, 3)})
@example({(0, 1), (1, 2), (2, 0), (3, 0)})
@example({(4, 4)})
@example({(0, 5), (5, 0)})
def test_strong_matches_set_reference(edges):
    # `_strong` rejects a slice whose top vertex lacks an in- or out-edge,
    # then one where some vertex has an in-edge but no out-edge or the
    # reverse, before its reach test.  The examples: two disjoint 2-cycles
    # pass both filters but are not strongly connected; a 3-cycle below a
    # top vertex with only a self-loop; a cycle plus a top vertex with only
    # an in-edge, or only an out-edge; a lone self-loop; a 2-cycle between
    # the top vertex and vertex 0, which is strongly connected.
    m = sum(1 << _pair(u, v) for u, v in edges)
    vertices = {x for e in edges for x in e}
    expected = vertices if _strongly_connected(vertices, edges) else set()
    assert _strong(m) == expected


def test_degree_masks_match_pair_layout():
    for bound in (1, 2, 4, 8, 16):
        assert _degree_masks(bound) == tuple(
            (sum(1 << _pair(u, v) for u in range(bound) if u != v),
             sum(1 << _pair(v, u) for u in range(bound) if u != v))
            for v in range(bound)
        )


def _engine_chain(n, graphs, window):
    """Every state of an engine-like run: n processes absorb their
    in-neighbours' snapshots over the round graphs (sets of edges), pruned
    to the last `window` rounds after each round unless it is None."""
    states = [approx_init(p) for p in range(n)]
    chain = list(states)
    for r, edges in enumerate(graphs, 1):
        snaps = [approx_emit(s) for s in states]
        states = [approx_absorb(states[p], r,
                                [snaps[u] for u in range(n) if (u, p) in edges])
                  for p in range(n)]
        if window is not None and r - window > 0:
            states = [approx_prune(s, r - window) for s in states]
        chain += states
    return chain


@st.composite
def lineage_reads(draw):
    """(chain, reads): `_engine_chain` over 2 <= n <= 6 processes and
    r <= 10 random round graphs, optionally pruned to a random window, and
    random indices into it, with repeats, that interleave the lineages."""
    n = draw(st.integers(2, 6))
    horizon = draw(st.integers(1, 10))
    window = draw(st.none() | st.integers(0, 4))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    graphs = [draw(st.sets(st.sampled_from(pairs))) for _ in range(horizon)]
    chain = _engine_chain(n, graphs, window)
    reads = draw(st.lists(st.integers(0, len(chain) - 1),
                          max_size=3 * len(chain)))
    return chain, reads


def _reference_edges(state):
    """Set-based slice -> edge transposition: {(u, v): label mask}."""
    edges = {}
    for s in state.slices:
        for e in approx_restrict(state, s)[1]:
            edges[e] = edges.get(e, 0) | 1 << s
    return edges


def _assert_views_match_reference(state, cursor):
    """`edges`, `sorted_edges`, the cursor's edges JSON and the digest read
    through `cursor` all match the set-based reference."""
    edges = _reference_edges(state)
    ref = sorted(
        (u, v, tuple(s for s in range(m.bit_length()) if m >> s & 1))
        for (u, v), m in edges.items()
    )
    assert state.edges == edges
    assert state.sorted_edges() == ref
    assert cursor.edges_json(state.slices) == json.dumps(ref)
    payload = json.dumps(
        {
            "owner": state.owner,
            "vertices": sorted(state.vertices),
            "edges": ref,
            "pruned_before": state.pruned_before,
        },
        sort_keys=True,
    )
    assert approx_digest(state, cursor) == (
        hashlib.sha256(payload.encode()).hexdigest()[:16])


@given(lineage_reads())
@example((_engine_chain(2, [{(0, 1)}, {(1, 0)}, {(0, 1), (1, 0)}], 1), [5, 2]))
def test_lineage_cursor_matches_reference(case):
    # Each owner's states are read through that owner's own cursor, which
    # must diff from whatever state it holds, while the cursors share
    # `_label_text`.  After the random reads every state is read forward,
    # backward and forward again: going back to the edgeless first states
    # makes every edge vanish from its cursor's order, and going forward
    # makes it reappear.
    chain, reads = case
    cursors = {}
    forward = list(range(len(chain)))
    for i in reads + forward + forward[::-1] + forward:
        state = chain[i]
        cursor = cursors.setdefault(state.owner, EdgeCursor())
        _assert_views_match_reference(state, cursor)


def test_cursor_reads_forged_mid_chain_state():
    # A forged state shares no slice ints with its neighbours, and drops
    # one edge and adds another, so the cursor must flip whole slices in
    # and out on the way to it and back to the real lineage.
    ring = {(0, 1), (1, 2), (2, 0)}
    lineage = _engine_chain(3, [ring] * 8, 3)[1::3]  # process 1's states
    real = lineage[5]
    edges = dict(real.edges)
    del edges[min(edges)]
    edges[(2, 1)] = 1 << 3 | 1 << 4
    lineage[5] = ApproxState.from_edges(1, real.vertices, edges,
                                        real.pruned_before)
    assert lineage[5] != real
    cursor = EdgeCursor()
    for state in lineage:
        _assert_views_match_reference(state, cursor)
