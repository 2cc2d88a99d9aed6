from dynconsensus import (
    ConsensusState,
    DecideMessage,
    LockMessage,
    cons_emit,
    cons_init,
    cons_step,
)


def always(interval):
    return True


def never(interval):
    return False


def test_init():
    assert cons_init(7) == ConsensusState(x=7, locked=False, lock_round=0,
                                          decision=None)


def test_emit_lock_vs_decide():
    assert cons_emit(ConsensusState(x=5, locked=True, lock_round=3)) == \
        LockMessage(lock_round=3, x=5)
    assert cons_emit(ConsensusState(x=5, decision=(5, 4))) == \
        DecideMessage(x=5)
    assert cons_emit(cons_init(9)) == LockMessage(lock_round=0, x=9)


def test_decided_state_is_absorbing():
    state = ConsensusState(x=5, decision=(5, 4))
    new, events = cons_step(state, 6, [DecideMessage(x=9)], always, 2)
    assert new == state and events == []


def test_decide_adoption():
    state = cons_init(1)
    new, events = cons_step(state, 7, [DecideMessage(x=4)], never, 2)
    assert new.decided and new.x == 4 and new.decision == (4, 7)
    assert [e["kind"] for e in events] == ["decide"]


def test_conflicting_decides_take_max_and_flag():
    state = cons_init(1)
    received = [DecideMessage(x=4), DecideMessage(x=9)]
    new, events = cons_step(state, 5, received, never, 2)
    assert new.x == 9 and new.decided
    kinds = [e["kind"] for e in events]
    assert "conflicting_decides" in kinds


def test_lexicographic_max_update():
    state = ConsensusState(x=5, lock_round=2)
    received = [
        LockMessage(lock_round=2, x=7),
        LockMessage(lock_round=1, x=99),  # lockRound dominates
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
