"""The lock/decide consensus state machine layered on the approximation
predicate.

States are immutable; cons_step returns the next state plus a list of events
(lock / unlock / decide / conflict) for the trace recorder.  A step that
changes no field returns its input state object as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple


@dataclass(frozen=True)
class ConsensusState:
    x: int
    locked: bool = False
    lock_round: int = 0
    decision: Optional[Tuple[int, int]] = None  # (value, round)

    @property
    def decided(self):
        return self.decision is not None


def cons_init(input_value):
    return ConsensusState(x=int(input_value))


def cons_step(state, r, received, predicate, d_bound):
    """One round-r computation step.

    `received` is the list of the senders' round-(r - 1) ConsensusStates,
    which are the round's messages: a sender whose `decision` is set is a
    DECIDE(x), any other is its (lock_round, x) pair, and no other field
    of it is read.  `predicate` is a callable interval -> bool evaluating
    the co-located approximation state's stable-root predicate (already
    absorbed for round r).

    Returns (new_state, events) where events is a list of dicts with a
    "kind" key in {"lock", "unlock", "decide", "conflicting_decides"}.
    When no field changes, new_state is `state` itself.

    One pass over `received` finds the lexicographically largest
    (lock_round, x) among the locks and the lowest and highest decided
    value; the decided values are sorted only when they conflict.
    """
    if state.decision is not None:
        return state, []

    lock_round, x = state.lock_round, state.x
    low = high = None
    for m in received:
        if m.decision is None:
            if m.lock_round > lock_round or (
                m.lock_round == lock_round and m.x > x
            ):
                lock_round, x = m.lock_round, m.x
        else:
            v = m.x
            if high is None:
                low = high = v
            elif v > high:
                high = v
            elif v < low:
                low = v

    if high is not None:
        events = []
        if low != high:
            values = sorted(m.x for m in received if m.decision is not None)
            events.append({"kind": "conflicting_decides", "values": values})
        events.append({"kind": "decide", "value": high, "round": r})
        return replace(state, x=high, decision=(high, r)), events

    if predicate((r - d_bound - 1, r - d_bound)):
        if not state.locked:
            return (
                ConsensusState(x=x, locked=True, lock_round=r),
                [{"kind": "lock", "round": r}],
            )
        if predicate((lock_round, lock_round + d_bound)):
            return (
                ConsensusState(x=x, locked=True, lock_round=lock_round,
                               decision=(x, r)),
                [{"kind": "decide", "value": x, "round": r}],
            )
    elif state.locked:
        return (
            ConsensusState(x=x, lock_round=lock_round),
            [{"kind": "unlock", "round": r}],
        )

    # Still locked without deciding, or still unlocked: only (lock_round, x)
    # can have moved.
    if x == state.x and lock_round == state.lock_round:
        return state, []
    return ConsensusState(x=x, locked=state.locked, lock_round=lock_round), []
