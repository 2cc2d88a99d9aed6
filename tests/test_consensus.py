from hypothesis import given, settings, strategies as st

from dynconsensus import ConsensusState, cons_init, cons_step


def always(interval):
    return True


def never(interval):
    return False


def test_init():
    assert cons_init(7) == ConsensusState(x=7, locked=False, lock_round=0,
                                          decision=None)


def decide(x, r=1, locked=False, lock_round=0):
    """A sender that decided x in round r: a DECIDE(x) message, whatever
    its lock fields."""
    return ConsensusState(x=x, locked=locked, lock_round=lock_round,
                          decision=(x, r))


def test_decided_state_is_absorbing():
    state = ConsensusState(x=5, decision=(5, 4))
    new, events = cons_step(state, 6, [decide(9)], always, 2)
    assert new == state and events == []


def test_decide_adoption():
    state = cons_init(1)
    new, events = cons_step(state, 7, [decide(4)], never, 2)
    assert new.decided and new.x == 4 and new.decision == (4, 7)
    assert [e["kind"] for e in events] == ["decide"]


def test_conflicting_decides_take_max_and_flag():
    state = cons_init(1)
    received = [decide(4), decide(9)]
    new, events = cons_step(state, 5, received, never, 2)
    assert new.x == 9 and new.decided
    kinds = [e["kind"] for e in events]
    assert "conflicting_decides" in kinds


def test_lexicographic_max_update():
    state = ConsensusState(x=5, lock_round=2)
    received = [
        ConsensusState(x=7, locked=True, lock_round=2),
        ConsensusState(x=99, lock_round=1),  # lockRound dominates
    ]
    new, _ = cons_step(state, 3, received, never, 1)
    assert (new.lock_round, new.x) == (2, 7)


def test_lock_when_predicate_true_and_unlocked():
    state = cons_init(3)
    evaluated = []

    def predicate(interval):
        evaluated.append(interval)
        return True

    new, events = cons_step(state, 9, [], predicate, 2)
    assert new.locked and new.lock_round == 9 and not new.decided
    assert [e["kind"] for e in events] == ["lock"]
    # Only the lock window is queried on the lock path.
    assert evaluated == [(6, 7)]


def test_decide_when_locked_and_both_windows_stable():
    state = ConsensusState(x=3, locked=True, lock_round=4)
    new, events = cons_step(state, 9, [], always, 2)
    assert new.decided and new.decision == (3, 9)
    assert [e["kind"] for e in events] == ["decide"]


def test_locked_but_lock_window_unstable_keeps_lock():
    state = ConsensusState(x=3, locked=True, lock_round=4)

    def predicate(interval):
        return interval == (6, 7)  # outer window only

    new, events = cons_step(state, 9, [], predicate, 2)
    assert new.locked and not new.decided and events == []


def test_unlock_branch_resets_locked_only():
    state = ConsensusState(x=3, locked=True, lock_round=4)
    new, events = cons_step(state, 9, [], never, 2)
    assert not new.locked and new.lock_round == 4
    assert [e["kind"] for e in events] == ["unlock"]


def reference_step(state, r, received, predicate, d_bound):
    """Reference for `cons_step` in its plain two-pass form: sort the
    decided senders' values, then scan the undecided senders' (lock_round,
    x) pairs; always a fresh state."""
    if state.decided:
        return state, []
    events = []
    decide_values = sorted(m.x for m in received if m.decided)
    if decide_values:
        if decide_values[0] != decide_values[-1]:
            events.append(
                {"kind": "conflicting_decides", "values": decide_values}
            )
        v = decide_values[-1]
        events.append({"kind": "decide", "value": v, "round": r})
        return ConsensusState(x=v, locked=state.locked,
                              lock_round=state.lock_round,
                              decision=(v, r)), events
    best = (state.lock_round, state.x)
    for m in received:
        if not m.decided:
            pair = (m.lock_round, m.x)
            if pair > best:
                best = pair
    lock_round, x = best
    locked = state.locked
    decision = state.decision
    if predicate((r - d_bound - 1, r - d_bound)):
        if not locked:
            locked = True
            lock_round = r
            events.append({"kind": "lock", "round": r})
        elif predicate((lock_round, lock_round + d_bound)):
            decision = (x, r)
            events.append({"kind": "decide", "value": x, "round": r})
    else:
        if locked:
            events.append({"kind": "unlock", "round": r})
        locked = False
    return ConsensusState(x=x, locked=locked, lock_round=lock_round,
                          decision=decision), events


# Few values and lock rounds, so equal lock rounds with different values
# and conflicting decides are common.
values = st.integers(0, 3)
lock_rounds = st.integers(0, 5)


@st.composite
def steps(draw):
    r = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["unlocked", "locked", "decided"]))
    x = draw(values)
    if kind == "unlocked":
        state = ConsensusState(x=x, lock_round=draw(lock_rounds))
    elif kind == "locked":
        state = ConsensusState(x=x, locked=True, lock_round=draw(lock_rounds))
    else:
        state = ConsensusState(x=x, locked=draw(st.booleans()),
                               lock_round=draw(lock_rounds),
                               decision=(x, draw(st.integers(1, r))))
    # Senders are states with arbitrary `locked`, and decided senders also
    # with arbitrary `lock_round`: only (lock_round, x) of an undecided
    # sender and x of a decided one may be read.  Half the lists carry no
    # decided sender, so the lock path is reached as often as the decide
    # path.
    locks = draw(st.lists(
        st.builds(ConsensusState, x=values, locked=st.booleans(),
                  lock_round=lock_rounds), max_size=5))
    decides = draw(st.lists(
        st.builds(decide, values, st.integers(1, 10), locked=st.booleans(),
                  lock_round=lock_rounds), max_size=3)
        if draw(st.booleans()) else st.just([]))
    received = draw(st.permutations(locks + decides))
    return state, r, received, draw(st.integers(1, 3))


@given(steps(), st.randoms(use_true_random=False))
@settings(max_examples=500, deadline=None)
def test_cons_step_matches_two_pass_reference(step, rng):
    state, r, received, d = step
    answers = {}  # interval -> the predicate's random answer, shared

    def recording(calls):
        def predicate(interval):
            calls.append(interval)
            return answers.setdefault(interval, rng.random() < 0.5)
        return predicate

    ref_calls, calls = [], []
    expected, expected_events = reference_step(
        state, r, received, recording(ref_calls), d)
    new, events = cons_step(state, r, received, recording(calls), d)
    assert new == expected
    assert events == expected_events
    assert calls == ref_calls
    # A step that changes no field hands back the state object itself.
    assert (new is state) == (expected == state)
