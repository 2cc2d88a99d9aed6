"""The lock/decide consensus state machine layered on the approximation
predicate.

States are immutable; cons_step returns a fresh state plus a list of events
(lock / unlock / decide / conflict) for the trace recorder.
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


@dataclass(frozen=True)
class LockMessage:
    """Carries the sender's (lockRound, x) pair."""

    lock_round: int
    x: int


@dataclass(frozen=True)
class DecideMessage:
    x: int


def cons_init(input_value):
    return ConsensusState(x=int(input_value))


def cons_emit(state):
    if state.decided:
        return DecideMessage(x=state.x)
    return LockMessage(lock_round=state.lock_round, x=state.x)


def cons_step(state, r, received, predicate, d_bound):
    """One round-r computation step.

    `received` is a list of LockMessage|DecideMessage; `predicate`
    is a callable interval -> bool evaluating the co-located approximation
    state's stable-root predicate (already absorbed for round r).

    Returns (new_state, events) where events is a list of dicts with a
    "kind" key in {"lock", "unlock", "decide", "conflicting_decides"}.
    """
    if state.decided:
        return state, []

    events = []
    decide_values = sorted(
        m.x for m in received if isinstance(m, DecideMessage)
    )
    if decide_values:
        if decide_values[0] != decide_values[-1]:
            events.append(
                {"kind": "conflicting_decides", "values": decide_values}
            )
        v = decide_values[-1]
        events.append({"kind": "decide", "value": v, "round": r})
        return (
            replace(state, x=v, decision=(v, r)),
            events,
        )

    best = (state.lock_round, state.x)
    for m in received:
        if isinstance(m, LockMessage):
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

    return (
        ConsensusState(
            x=x,
            locked=locked,
            lock_round=lock_round,
            decision=decision,
        ),
        events,
    )
