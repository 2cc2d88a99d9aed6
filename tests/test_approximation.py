import hashlib
import json
from dataclasses import dataclass
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from dynconsensus import (
    ApproxMessage,
    ApproxState,
    GraphSequence,
    MalformedMessageError,
    RoundGraph,
    Scenario,
    approx_absorb,
    approx_init,
    approx_prune,
    approx_restrict,
    check_approx_invariants,
    detected_component,
    in_stable_root,
    run,
)
from dynconsensus.approximation import (
    _allowed_mask,
    _decode,
    _degree_masks,
    _pair,
    _strong,
)
from dynconsensus.harness import _edges_json, _layout, approx_digest
from forgery import forge

# Unless a test builds its own run, its states are those of a run on N
# processes, and every id they name is below N.
N = 12


def test_init_is_singleton():
    state = approx_init(3, N)
    assert state.owner == 3
    assert state.vertices == {3}
    assert state.edges == {}
    assert approx_init(3, N) == approx_init(3, N)
    assert state.width == N * N


def test_init_refuses_an_id_outside_the_run():
    for p in (-1, N):
        with pytest.raises(ValueError, match=rf"id {p} outside \[0, 11\]"):
            approx_init(p, N)


def test_absorb_adds_direct_edge_with_round_label():
    p = approx_init(0, N)
    q = approx_init(1, N)
    p = approx_absorb(p, 1, [ApproxMessage(q.owner, q)])
    assert p.vertices == {0, 1}
    assert p.edges[(1, 0)] == 1 << 1


def test_absorb_empty_inbox_is_identity():
    state = approx_init(2, N)
    assert approx_absorb(state, 4, []) == state


def test_merge_takes_label_union():
    # p already knows (2 -> 3) from round 1; q's snapshot says round 2 too.
    p = forge(N, 0, {0, 2, 3}, edges={(2, 3): 1 << 1})
    q = forge(N, 1, {1, 2, 3}, edges={(2, 3): 1 << 2})
    merged = approx_absorb(p, 3, [ApproxMessage(q.owner, q)])
    assert merged.edges[(2, 3)] == 1 << 1 | 1 << 2
    assert merged.edges[(1, 0)] == 1 << 3


def test_absorb_is_monotone():
    p = approx_init(0, N)
    q = approx_init(1, N)
    p = approx_absorb(p, 1, [ApproxMessage(q.owner, q)])
    p2 = approx_absorb(p, 2, [ApproxMessage(q.owner, q)])
    for edge, mask in p.edges.items():
        assert p2.edges[edge] & mask == mask
    assert p.vertices <= p2.vertices


def test_malformed_snapshots_rejected():
    def snapshot(vertices, edges):
        s = forge(N, 1, vertices, edges=edges)
        return ApproxMessage(s.owner, s)

    # One case per validation rule, each breaking that rule alone.  The
    # first three are states known well formed, each failing one clause of
    # absorb's fast path (width, sender, highest label), so each must
    # reach the full check.
    zero, wide = approx_init(0, N), approx_init(1, N + 1)
    heard = approx_absorb(approx_init(1, N), 2,
                          [ApproxMessage(zero.owner, zero)])
    # Built by the constructor, so not known well formed (`_ok` False).
    stray = ApproxState(1, {1, N}, 0, 0, N * N)
    cases = [
        (ApproxMessage(wide.owner, wide), "169-bit slots, not 144"),
        (ApproxMessage(2, approx_init(1, N)), "owner mismatch"),
        (ApproxMessage(heard.owner, heard), r"labels outside \[1, 1\]"),
        (ApproxMessage(stray.owner, stray), r"vertex 12 outside \[0, 11\]"),
        (snapshot({1}, {(1, 1): 1 << 1}), "self-loop"),
        (snapshot({1, 2}, {(2, 3): 1 << 1}), "unknown endpoint"),
        (snapshot({0, 1}, {(0, 1): 1 << 5}), "outside"),  # future label
        (snapshot({0, 1}, {(0, 1): 1}), "outside"),  # label 0
    ]
    assert all(msg.graph._ok for msg, _ in cases[:3])
    for msg, rule in cases:
        with pytest.raises(MalformedMessageError, match=rule):
            approx_absorb(approx_init(0, N), 2, [msg])


def test_cached_snapshot_facts_do_not_fix_the_round():
    # The same message objects are absorbed at rounds 2 and 6, in both
    # orders: label 5 is outside [1, 1] but inside [1, 5].
    state = forge(N, 1, {0, 1}, edges={(0, 1): 1 << 5})
    early = ApproxMessage(state.owner, state)
    late = ApproxMessage(state.owner, state)
    for msg, rounds in ((early, (2, 6)), (late, (6, 2))):
        for r in rounds:
            if r == 2:
                with pytest.raises(MalformedMessageError,
                                   match=r"labels outside \[1, 1\]"):
                    approx_absorb(approx_init(0, N), r, [msg])
            else:
                merged = approx_absorb(approx_init(0, N), r, [msg])
                assert merged.edges == {(0, 1): 1 << 5, (1, 0): 1 << 6}


# The dict-of-slices A_p that the packed int replaced, kept as the reference
# model: its snapshot validation, absorb and prune as they were, on states
# whose `slices` map a round to its edge bits, plus the packed layout's
# refusals of a snapshot of another width or naming a vertex outside the
# run.  Three rules of the packed layout differ from it on purpose, and
# `_canonical` applies them to every reference state:
# - an empty slice carries no label (a zero-valued key used to count in
#   the label range check);
# - no state holds a label below its pruning cutoff (absorb used to keep a
#   sender's slices, and round r's direct edges, below the receiver's);
# - a snapshot's unknown endpoint or self-loop is reported in its lowest
#   bad slice (it used to be the first in dict order).

@dataclass
class RefState:
    owner: int
    vertices: frozenset
    slices: dict
    pruned_before: int
    width: int


def _canonical(state):
    slices = {s: m for s, m in sorted(state.slices.items())
              if m and s >= state.pruned_before}
    return RefState(state.owner, frozenset(state.vertices), slices,
                    state.pruned_before, state.width)


def _reference_validate(sender, g, r, width):
    """Snapshot validation as one pass per receiver, every fact recomputed:
    the width, the owner, the label range, the vertex range, then each
    slice against the edges allowed between distinct vertices of the
    snapshot."""
    if g.width != width:
        raise MalformedMessageError(
            f"snapshot from {sender} has {g.width}-bit slots, not {width}")
    if sender != g.owner or g.owner not in g.vertices:
        raise MalformedMessageError(f"snapshot owner mismatch from {sender}")
    if min(g.slices, default=1) < 1 or max(g.slices, default=0) >= r:
        raise MalformedMessageError(
            f"snapshot from {sender} carries labels outside [1, {r - 1}]")
    n = isqrt(width)
    outside = g.vertices - set(range(n))
    if outside:
        raise MalformedMessageError(
            f"vertex {min(outside)} outside [0, {n - 1}] from {sender}")
    allowed = _allowed_mask(g.vertices)
    for m in g.slices.values():
        bad = m & ~allowed
        if bad:
            (u, v), = _decode(bad & -bad)
            kind = "self-loop" if u == v else "unknown endpoint in"
            raise MalformedMessageError(f"{kind} {u}->{v} from {sender}")


def _reference_absorb(state, r, received):
    """`received` holds (sender, RefState) pairs."""
    if not received:
        return state
    slices, vertices, direct = dict(state.slices), state.vertices, 0
    for sender, g in received:
        _reference_validate(sender, g, r, state.width)
        direct |= 1 << _pair(sender, state.owner)
        vertices = vertices | g.vertices
        for s, m in g.slices.items():
            slices[s] = slices.get(s, 0) | m
    slices[r] = slices.get(r, 0) | direct
    return _canonical(RefState(state.owner, vertices, slices,
                               state.pruned_before, state.width))


def _reference_prune(state, keep_after):
    if keep_after <= state.pruned_before:
        return state
    slices = {s: m for s, m in state.slices.items() if s >= keep_after}
    return RefState(state.owner, state.vertices, slices, keep_after,
                    state.width)


def _reference_detected(state, s):
    """C_p|s from the decoded edge set, with the set-based connectivity
    test."""
    if s < state.pruned_before:
        return frozenset()
    edges = set(_decode(state.slices.get(s, 0)))
    if not edges:
        return frozenset((state.owner,))
    vertices = {x for e in edges for x in e}
    if state.owner in vertices and _strongly_connected(vertices, edges):
        return frozenset(vertices)
    return frozenset()


def _edges_of(slices):
    """{(u, v): label mask} of a slice dict."""
    edges = {}
    for s, m in slices.items():
        for e in _decode(m):
            edges[e] = edges.get(e, 0) | 1 << s
    return dict(sorted(edges.items()))


def _both(sender, owner, vertices, slices, pruned_before=0, *, n=N,
          stray=None):
    """One forged snapshot of a run on n processes as a (packed message,
    reference message) pair; `stray`, if given, is an extra vertex, which
    may lie outside [0, n) since no edge names it."""
    state = forge(n, owner, vertices, slices, pruned_before)
    if stray is not None:
        vertices = {*vertices, stray}
        state = ApproxState(owner, vertices, state.packed, pruned_before,
                            state.width)
    ref = _canonical(RefState(owner, vertices, slices, pruned_before, n * n))
    return ApproxMessage(sender, state), (sender, ref)


def _error(fn, *args):
    """(type name, text) of what `fn(*args)` raises, or None."""
    try:
        fn(*args)
    except ValueError as exc:  # MalformedMessageError included
        return type(exc).__name__, str(exc)
    return None


def _absorb_error(pairs, r):
    return _error(approx_absorb, approx_init(0, N), r, [m for m, _ in pairs])


def _reference_error(pairs, r):
    return _error(_reference_absorb, RefState(0, frozenset({0}), {}, 0, N * N),
                  r, [ref for _, ref in pairs])


def _assert_matches_reference(state, ref):
    """The packed state holds exactly the reference state: fields, slices,
    edges and every detected component, one slice past the highest label
    included.  Equal slices, cutoff and width make equal packed ints."""
    assert (state.owner, state.vertices, state.pruned_before, state.width) == (
        ref.owner, ref.vertices, ref.pruned_before, ref.width)
    assert list(state.slices.items()) == list(ref.slices.items())
    assert state.edges == _edges_of(ref.slices)
    for s in range(1, max(ref.slices, default=0) + 2):
        assert detected_component(state, s) == _reference_detected(ref, s)


def test_first_fault_in_precedence_order_is_reported():
    # Each snapshot breaks every rule from its own onwards: width, owner,
    # label range, vertex range, self-loop, unknown endpoint.
    loop_and_stranger = {3: 1 << _pair(1, 1) | 1 << _pair(1, 4)}
    everything = {0: 1, **loop_and_stranger}
    cases = [
        (_both(2, 1, {1}, everything, n=N + 1, stray=-1),
         "snapshot from 2 has 169-bit slots, not 144"),
        (_both(2, 1, {1}, everything, stray=-1),
         "snapshot owner mismatch from 2"),
        (_both(1, 1, {1}, everything, stray=-1),
         "snapshot from 1 carries labels outside [1, 3]"),
        (_both(1, 1, {1}, loop_and_stranger, stray=-1),
         "vertex -1 outside [0, 11] from 1"),
        (_both(1, 1, {1}, loop_and_stranger), "self-loop 1->1 from 1"),
        # The lowest bad slice holds the witness, whatever the dict order.
        (_both(1, 1, {1}, {2: 1 << _pair(1, 1), 1: 1 << _pair(0, 1)}),
         "unknown endpoint in 0->1 from 1"),
    ]
    for pair, text in cases:
        for _ in range(2):  # a failed check stores nothing; check again
            assert _absorb_error([pair], 4) == ("MalformedMessageError", text)
        assert _reference_error([pair], 4) == ("MalformedMessageError", text)
    # Between messages, the first faulty one in delivery order wins.
    pairs = [pair for pair, _ in cases]
    assert _absorb_error(pairs[::-1], 4) == _reference_error(pairs[::-1], 4)


@st.composite
def forged_snapshots(draw):
    """A list of one to three (packed, reference) message pairs built from
    the same drawn slices, in a run on N processes.  Owners and edge
    endpoints reach id 9; senders may not be owners; now and then a
    snapshot has the slots of a run on N + 1 processes, or names vertex -1
    or N, outside the run; the pruning cutoff is 0, 1 or 2 and labels run
    from it to 6, so label 0 and labels from the future occur; slices may
    be empty; most edges join two distinct vertices, and the rest are any
    pair of ids up to 11, self-loops and unknown endpoints included."""
    def message():
        owner = draw(st.integers(0, 9))
        sender = draw(st.sampled_from([owner, owner, owner, owner + 1]))
        ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4))
        vertices = set(ids)
        if draw(st.integers(0, 3)):
            vertices.add(owner)
        layout = draw(st.sampled_from(["run"] * 6 + ["wide", "stray"]))
        base = draw(st.sampled_from([0, 0, 1, 2]))
        known = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
            lambda e: e[0] != e[1])
        wild = st.tuples(st.integers(0, 11), st.integers(0, 11))
        edges = st.sets(st.one_of(known, known, known, wild), max_size=3)
        slices = draw(st.dictionaries(
            st.integers(base, 6),
            edges.map(lambda es: sum(1 << _pair(u, v) for u, v in es)),
            max_size=4,
        ))
        return _both(sender, owner, vertices, slices, base,
                     n=N + 1 if layout == "wide" else N,
                     stray=draw(st.sampled_from([-1, N]))
                     if layout == "stray" else None)

    return [message() for _ in range(draw(st.integers(1, 3)))]


@given(forged_snapshots(), st.lists(st.integers(1, 8), min_size=1,
                                    max_size=4))
def test_absorb_errors_match_reference_validation(received, rounds):
    # The same message objects are absorbed at every round in turn, so the
    # later absorbs read the facts that an earlier one stored.
    for r in rounds:
        assert _absorb_error(received, r) == _reference_error(received, r)


def _assert_carried_facts_hold(state):
    """A state known to be well formed validates afresh as a snapshot one
    round after its highest label."""
    if state._ok:
        ref = _canonical(state)
        _reference_validate(state.owner, ref, max(ref.slices, default=0) + 1,
                            state.width)


@st.composite
def chain_steps(draw):
    """One to twelve steps on a population of three states, addressed by
    index: ("absorb", i, r, senders, forged pairs added to theirs),
    ("prune", i, keep_after) or ("swap", i, a forged pair).  The k-th
    absorb runs at round k or, now and then, a few rounds earlier, so most
    can succeed and some fall below labels the receiver holds, or below
    its pruning cutoff."""
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
                st.sampled_from([False, True])) else []
            steps.append((op, i, r, senders, forged))
        elif op == "prune":
            # Half the prunes drop every label up to the clock.
            keep_after = draw(st.sampled_from([clock + 1, None]))
            if keep_after is None:
                keep_after = draw(st.integers(0, clock))
            steps.append((op, i, keep_after))
        else:
            steps.append((op, i, draw(forged_snapshots())[0]))
    return steps


def _swap(owner, vertices, slices):
    return ("swap", 0, _both(owner, owner, vertices, slices))


@given(chain_steps())
# A self-sent message: the direct edge 0 -> 0 is a self-loop.
@example([("absorb", 0, 1, [0], []), ("absorb", 1, 2, [0], [])])
# A faulty slice (a self-loop with label 1) that pruning removes.
@example([_swap(0, {0, 1}, {1: 1 << _pair(0, 0), 3: 1 << _pair(1, 0)}),
          ("prune", 0, 2), ("absorb", 1, 4, [0], [])])
# An absorb at a round below a label the state holds keeps that label the
# highest.
@example([("absorb", 0, 5, [1], []), ("absorb", 0, 2, [1], []),
          ("absorb", 1, 3, [0], [])])
# A forged state swapped in mid-chain, then absorbed into and sent on.
@example([("absorb", 0, 1, [1], []),
          _swap(0, {0}, {2: 1 << _pair(0, 0)}),
          ("absorb", 0, 3, [1], []), ("absorb", 2, 4, [0], [])])
# Pruning every label of a state leaves no highest label.
@example([("absorb", 0, 6, [1], []), ("prune", 0, 7),
          ("absorb", 1, 3, [0], [])])
# States with different cutoffs merge: the receiver drops what the sender
# holds below its own cutoff, and a sender's higher cutoff moves its slots.
@example([("absorb", 0, 1, [1], []), ("absorb", 0, 2, [1], []),
          ("absorb", 1, 3, [0], []), ("prune", 0, 2),
          ("absorb", 2, 4, [0], []), ("absorb", 1, 5, [2], [])])
# A snapshot with the slots of a run on N + 1 processes is refused, and so
# is every snapshot sent to a swapped-in state with those slots.
@example([("absorb", 0, 1, [1], [_both(2, 2, {2}, {}, n=N + 1)])])
@example([("swap", 0, _both(0, 0, {0}, {}, n=N + 1)),
          ("absorb", 0, 1, [1], [])])
# A snapshot naming vertex N is refused; a swapped-in state naming vertex
# -1 absorbs, and its snapshot is refused.
@example([("absorb", 0, 1, [1], [_both(2, 2, {2}, {}, stray=N)])])
@example([("swap", 0, _both(0, 0, {0}, {}, stray=-1)),
          ("absorb", 0, 1, [1], []), ("absorb", 1, 2, [0], [])])
def test_carried_facts_match_reference_validation_along_a_chain(steps):
    # A chain of transitions runs on packed states and, side by side, on
    # the dict-of-slices reference model.  After every step the packed
    # state holds what the reference holds, each absorb fails exactly as
    # validating every message afresh does, and a state known to be well
    # formed validates afresh.
    states = [approx_init(p, N) for p in range(3)]
    refs = [RefState(p, frozenset({p}), {}, 0, N * N) for p in range(3)]
    for op, i, *args in steps:
        if op == "swap":
            (msg, (_, ref)), = args
            states[i], refs[i] = msg.graph, ref
        elif op == "prune":
            states[i] = approx_prune(states[i], args[0])
            refs[i] = _reference_prune(refs[i], args[0])
        else:
            r, senders, forged = args
            pairs = [(ApproxMessage(states[j].owner, states[j]),
                      (refs[j].owner, refs[j]))
                     for j in senders] + forged
            expected = _error(_reference_absorb, refs[i], r,
                              [ref for _, ref in pairs])
            try:
                merged = approx_absorb(states[i], r, [m for m, _ in pairs])
            except ValueError as exc:  # MalformedMessageError included
                assert (type(exc).__name__, str(exc)) == expected
            else:
                assert expected is None
                states[i] = merged
                refs[i] = _reference_absorb(refs[i], r,
                                            [ref for _, ref in pairs])
            for msg, _ in pairs:
                _assert_carried_facts_hold(msg.graph)
        _assert_matches_reference(states[i], refs[i])
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
    trace.records[1].approx[1] = forge(
        4, 1, state.vertices, slices, state.pruned_before)
    verdict = check_approx_invariants(trace)
    assert verdict.witness == {
        "rule": "slice", "process": 1, "round": 2, "slice": 1,
        "missing": [dropped, 0],
    }


def test_restrict_filters_by_label():
    state = forge(N, 0, {0, 1}, edges={(1, 0): (1 << 1) | (1 << 3)})
    vertices, edges = approx_restrict(state, 2)
    assert vertices == {0} and edges == frozenset()
    vertices, edges = approx_restrict(state, 3)
    assert edges == {(1, 0)} and vertices == {0, 1}


def test_detected_component_singleton_rule():
    # An edgeless slice detects the owner alone.
    assert detected_component(approx_init(4, N), 1) == {4}


def test_detected_component_requires_strong_connectivity():
    path = forge(N, 0, {0, 1}, edges={(1, 0): 1 << 1})
    assert detected_component(path, 1) == frozenset()
    cyc = forge(N, 0, {0, 1}, edges={(1, 0): 1 << 1, (0, 1): 1 << 1})
    assert detected_component(cyc, 1) == {0, 1}


def test_in_stable_root_round_bounds():
    state = approx_init(0, N)
    assert not in_stable_root(state, (0, 1), 5)  # round 0 has no data
    assert not in_stable_root(state, (2, 5), 5)  # round 5 not finished
    assert not in_stable_root(state, (3, 2), 5)  # empty interval
    assert in_stable_root(state, (1, 4), 5)  # singleton detections agree
    # Slices 1 to 4 are the cycle 0 <-> 1; pruned, slice 1 has no data.
    cycle = forge(N, 0, {0, 1}, edges={(0, 1): 0b11110, (1, 0): 0b11110})
    assert in_stable_root(cycle, (1, 4), 5)
    assert not in_stable_root(approx_prune(cycle, 2), (1, 4), 5)
    assert in_stable_root(approx_prune(cycle, 2), (2, 4), 5)


def test_in_stable_root_requires_equal_components():
    # Slice 2 is a path, so its detection is empty.
    state = forge(N, 0, {0, 1}, edges={(1, 0): 1 << 2})
    assert in_stable_root(state, (1, 1), 3)
    assert not in_stable_root(state, (1, 2), 4)


@st.composite
def stable_root_cases(draw):
    """(state, interval, round) on 4 processes: the pruning cutoff is 0 to
    3, and each slice from it (label 1 at the least) through 8 is one of
    three drawn edge sets, the previous slice's with probability 3/4, so
    equal detections over several slices occur.  An edge set is empty, a
    cycle through 2 to 4 vertices, which may or may not hold the owner, or
    any edges.  Intervals start at 0 to 9, below the cutoff too, and may be
    empty or end past the round."""
    n = 4
    owner = draw(st.integers(0, n - 1))
    cut = draw(st.integers(0, 3))

    def edge_set():
        kind = draw(st.sampled_from(["empty", "cycle", "cycle", "any"]))
        if kind == "empty":
            return 0
        if kind == "cycle":
            ring = draw(st.permutations(range(n)))[:draw(st.integers(2, n))]
            edges = zip(ring, ring[1:] + ring[:1])
        else:
            edges = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]), max_size=5))
        return sum(1 << _pair(u, v) for u, v in edges)

    pool = [edge_set() for _ in range(3)]
    slices, m = {}, draw(st.sampled_from(pool))
    for s in range(max(cut, 1), 9):
        if not draw(st.integers(0, 3)):
            m = draw(st.sampled_from(pool))
        slices[s] = m
    vertices = {owner, *(x for bits in slices.values()
                         for e in _decode(bits) for x in e)}
    state = forge(n, owner, vertices, slices, cut)
    a = draw(st.integers(0, 9))
    return state, (a, a + draw(st.integers(-1, 5))), draw(st.integers(1, 11))


@given(stable_root_cases())
@settings(max_examples=300)
def test_in_stable_root_matches_its_definition(case):
    # True iff 1 <= a <= b < r and every slice's detected component over
    # [a, b] is the same nonempty set; each detection is checked against
    # the set-based reference too.
    state, (a, b), r = case
    ref = _canonical(state)
    comps = [detected_component(state, s) for s in range(max(a, 1), b + 1)]
    assert comps == [_reference_detected(ref, s)
                     for s in range(max(a, 1), b + 1)]
    stable = 1 <= a <= b < r and bool(comps[0]) and all(
        c == comps[0] for c in comps)
    assert in_stable_root(state, (a, b), r) == stable


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
        s = forge(N, owner, vertices, edges=edges)
        return ApproxMessage(s.owner, s)

    a = snapshot(1, items[: len(items) // 2])
    b = snapshot(2, items[len(items) // 2:])
    ab = approx_absorb(approx_init(0, N), 5, [a, b])
    ba = approx_absorb(approx_init(0, N), 5, [b, a])
    assert ab == ba
    for msg in (a, b):
        for edge, mask in msg.graph.edges.items():
            assert ab.edges[edge] & mask == mask


def test_prune_drops_old_labels():
    state = forge(N, 0, {0, 1, 2},
                  edges={(1, 0): (1 << 1) | (1 << 5), (2, 0): 1 << 2})
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
        return forge(n, p, vertices, edges=edges), edges

    senders = draw(st.lists(
        st.integers(0, n - 1).filter(lambda q: q != owner), unique=True))
    own, own_edges = state(owner)
    snaps = [state(q) for q in senders]
    received = [ApproxMessage(s.owner, s) for s, _ in snaps]
    return n, r, own, received, [own_edges] + [e for _, e in snaps]


@given(snapshot_sets())
def test_slice_layout_matches_edge_reference(case):
    n, r, state, received, edge_dicts = case
    for graph, edges in zip([state] + [m.graph for m in received], edge_dicts):
        assert graph.edges == edges
        rebuilt = forge(n, graph.owner, graph.vertices, edges=edges)
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
    # Labels below a state's cutoff read as no data; it does not hold them.
    n = 1 + max(ends | {p for p, _ in owners})
    states = [forge(n, p, ends | {p}, None, cutoff,
                    edges={e: m >> cutoff << cutoff for e, m in edges.items()
                           if m >> cutoff})
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


def _engine_chain(n, graphs, window, ids=None):
    """Every state of an engine-like run: n processes, with ids `ids` in a
    run on 301 (0 .. n - 1 in a run on n by default), absorb their
    in-neighbours' snapshots over the round graphs (sets of index pairs),
    pruned to the last `window` rounds after each round unless it is
    None."""
    size = n if ids is None else 301
    ids = ids or range(n)
    states = [approx_init(ids[p], size) for p in range(n)]
    chain = list(states)
    for r, edges in enumerate(graphs, 1):
        snaps = [ApproxMessage(s.owner, s) for s in states]
        states = [approx_absorb(states[p], r,
                                [snaps[u] for u in range(n) if (u, p) in edges])
                  for p in range(n)]
        if window is not None and r - window > 0:
            states = [approx_prune(s, r - window) for s in states]
        chain += states
    return chain


@st.composite
def lineage_walks(draw):
    """(chain, n, size, repeats): `_engine_chain` over 2 <= n <= 6
    processes and r <= 10 random round graphs in a run on `size` ids,
    optionally pruned to a random window, and for each state of the chain
    how many times in a row its process's walk reads it.  In a third of the
    chains the ids are distinct draws up to 300 in a run on 301, so edges
    often join ids past 256 and the walk reads them through a rank table of
    90,601 entries, `_layout` at its largest size in the tests."""
    n = draw(st.integers(2, 6))
    horizon = draw(st.integers(1, 10))
    window = draw(st.none() | st.integers(0, 4))
    ids = draw(st.none() | st.none() | st.lists(
        st.integers(0, 300), min_size=n, max_size=n, unique=True))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    graphs = [draw(st.sets(st.sampled_from(pairs))) for _ in range(horizon)]
    chain = _engine_chain(n, graphs, window, ids)
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(chain),
                            max_size=len(chain)))
    return chain, n, n if ids is None else 301, repeats


def _reference_edges(state):
    """Set-based slice -> edge transposition: {(u, v): label mask}."""
    edges = {}
    for s in state.slices:
        for e in approx_restrict(state, s)[1]:
            edges[e] = edges.get(e, 0) | 1 << s
    return edges


def _assert_views_match_reference(state, edges_json):
    """`edges`, `sorted_edges`, the walk's edges JSON `edges_json` and the
    digest of the state over it all match the set-based reference."""
    edges = _reference_edges(state)
    ref = sorted(
        (u, v, tuple(s for s in range(m.bit_length()) if m >> s & 1))
        for (u, v), m in edges.items()
    )
    assert state.edges == edges
    assert state.sorted_edges() == ref
    assert edges_json == json.dumps(ref)
    payload = json.dumps(
        {
            "owner": state.owner,
            "vertices": sorted(state.vertices),
            "edges": ref,
            "pruned_before": state.pruned_before,
        },
        sort_keys=True,
    )
    assert approx_digest(state, edges_json) == (
        hashlib.sha256(payload.encode()).hexdigest()[:16])


def _assert_walk_matches_reference(states, n):
    """Walk one process's states, in round order, of a run on n ids, and
    check each state's text and digest against the reference."""
    for state, text in zip(states, _edges_json(states, *_layout(n)),
                           strict=True):
        _assert_views_match_reference(state, text)


@given(lineage_walks())
@settings(deadline=None)  # a chain on 301 ids has 90,601-bit slots
@example((_engine_chain(2, [{(0, 1)}, {(1, 0)}, {(0, 1), (1, 0)}], 1), 2, 2,
          [1, 1, 1, 2, 1, 3, 1, 1]))
# Process 0 (id 3) hears of id 270 at round 2 and of id 299 at round 5,
# while the window of two rounds moves its cutoff.
@example((_engine_chain(3, [{(0, 1)}, {(1, 0)}, {(2, 1), (1, 0)},
                            {(0, 2)}, {(1, 0), (0, 1)}], 2, [3, 270, 299]),
          3, 301, [1, 1, 1, 2, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 3, 1, 1, 1]))
def test_lineage_walk_matches_reference(case):
    # Each process's states are walked forward in round order, each read
    # as many times in a row as `repeats` says, so the walk must keep the
    # text of a repeated state and otherwise move from the state before,
    # across every cutoff the window moves, while the walks share
    # `_label_text`.
    chain, n, size, repeats = case
    for p in range(n):
        _assert_walk_matches_reference(
            [chain[i] for i in range(p, len(chain), n)
             for _ in range(repeats[i])], size)


def test_walk_reads_forged_mid_chain_state():
    # A forged state shares no slice ints with its neighbours, and drops
    # one edge and adds another, so the walk must flip whole slices in
    # and out on the way to it and back to the real lineage.
    ring = {(0, 1), (1, 2), (2, 0)}
    lineage = _engine_chain(3, [ring] * 8, 3)[1::3]  # process 1's states
    real = lineage[5]
    edges = dict(real.edges)
    del edges[min(edges)]
    edges[(2, 1)] = 1 << 3 | 1 << 4
    lineage[5] = forge(3, 1, real.vertices, None, real.pruned_before,
                       edges=edges)
    assert lineage[5] != real
    _assert_walk_matches_reference(lineage, 3)
