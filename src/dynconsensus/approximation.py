"""Per-process network approximation: the labeled digraph A_p.

A_p is one packed int.  A slice, the edges that carry one round label,
is a `width`-bit slot: bit `_pair(u, v)` of slot k is set iff edge u -> v
carries label `pruned_before` + k.  `_pair` is Szudzik's pairing: shell j,
bits j*j .. j*j + 2j, holds the edges whose larger endpoint is j, so the
pairs of ids below n fill exactly bits [0, n*n).  Every state of a run on n
processes has width n*n, fixed by `approx_init`, so merging is one OR per
received snapshot (its slots moved to the receiver's cutoff), pruning is
one right shift, and reading a slice is one shift and one mask.  A snapshot
of another width, or naming a vertex outside [0, n), is refused.  States
are immutable values, so a process sends them by reference: its one
outbox, an `ApproxMessage` kept for the whole run, is re-pointed at its
state of each round, and no message is built per round.

Every process estimates the same graph sequence, so the values derived
from A_p repeat across processes.  `_strong`, a pure function of an
immutable slice, is a bounded module-level cache that every process
shares.  The transitions keep a state's well-formedness up to date, so a
received snapshot is validated by four comparisons inline in
`approx_absorb`, not a pass over its bits; only a snapshot that fails one
goes through `_validate_snapshot`'s full check.
The component rule (an empty slice detects the owner, else the strongly
connected set counts only if it holds the owner) is `_component`, which
both `detected_component` and the one-pass `in_stable_root` call.
`ApproxState.edges` and `sorted_edges` are edge-major views of one state,
for tests and tools; the trace digest renders its edges in `harness`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

from .graphs import _bits


class MalformedMessageError(ValueError):
    """A received approximation snapshot violates its structural invariants."""


def _pair(u, v):
    return v * v + u if u < v else u * u + u + v


def _unpair(z):
    m = isqrt(z)
    t = z - m * m
    return (t, m) if t < m else (m, t - m)


def _set_bits(x):
    """Yield the set bit positions of a non-negative int, ascending.  One
    pass over `bin(x)`, so linear in its length on slice-sized ints, where
    `graphs._bits`, faster on short vertex masks, is quadratic."""
    bits = bin(x)[:1:-1]  # bits[b] is bit b
    b = bits.find("1")
    while b >= 0:
        yield b
        b = bits.find("1", b + 1)


def _decode(bits):
    """The edges (u, v) whose pair bits are set in `bits`, in bit order."""
    return [_unpair(b) for b in _set_bits(bits)]


def _slots(packed, width):
    """The slot ints of `packed`, lowest first, through the highest nonzero
    one."""
    mask, slots = (1 << width) - 1, []
    while packed:
        slots.append(packed & mask)
        packed >>= width
    return slots


def _allowed_mask(vertices):
    """Bits of every edge u -> v, u != v, within `vertices`: in shell m,
    u -> m sits at m*m + u and m -> u at m*m + m + u, for u < m."""
    vmask = sum(1 << v for v in vertices)
    allowed = 0
    for m in vertices:
        low = vmask & ((1 << m) - 1)
        allowed |= low << m * m | low << m * m + m
    return allowed


@dataclass(repr=False, slots=True)
class ApproxState:
    """Process p's approximation digraph: owner, vertices, and `packed`,
    whose slot k, `width` bits from bit k * width, holds the edge bits of
    slice `pruned_before` + k.  Slices before `pruned_before` were dropped
    by pruning, and no state holds a label below it.  `width` is n*n for a
    run on n processes, the same for every state of the run, and the owner
    and vertices are ids in [0, n).  `slices` ({round: edge bits}, nonzero
    slots only), `edges` ({(u, v): label mask}) and `sorted_edges` are
    derived views.

    `_ok`, derived and not part of the value, says the state is known to be
    well formed: the owner a vertex, every vertex in [0, n), no label below
    1, no self-loop or unknown endpoint.  The transitions set it; a state
    built any other way gets it from its first full check in
    `_validate_snapshot`.  States must not be mutated."""

    owner: int
    vertices: frozenset
    packed: int
    pruned_before: int
    width: int
    _ok: bool = field(default=False, init=False, compare=False)

    def __post_init__(self):
        self.vertices = frozenset(self.vertices)

    @property
    def slices(self):
        """{round: edge bits} of every nonempty slice, ascending."""
        base = self.pruned_before
        return {base + k: m
                for k, m in enumerate(_slots(self.packed, self.width)) if m}

    @property
    def edges(self):
        """{(u, v): label mask}, in sorted edge order."""
        masks = {}
        for s, m in self.slices.items():
            label = 1 << s
            for b in _set_bits(m):
                masks[b] = masks.get(b, 0) | label
        return dict(sorted((_unpair(b), m) for b, m in masks.items()))

    def sorted_edges(self):
        return [(u, v, tuple(_bits(m))) for (u, v), m in self.edges.items()]

    def __repr__(self):
        return (
            f"ApproxState(owner={self.owner}, vertices={sorted(self.vertices)}, "
            f"edges={self.sorted_edges()})"
        )


class ApproxMessage:
    """The sender's outbox: a full snapshot of its approximation state.  A
    process keeps one for the whole run and re-points `graph` at its state
    of each round, so equality is identity.  The state it points at must
    not be mutated."""

    __slots__ = ("sender", "graph")

    def __init__(self, sender, graph):
        self.sender = sender
        self.graph = graph

    def __repr__(self):
        return f"ApproxMessage(sender={self.sender}, graph={self.graph!r})"


def approx_init(p, n):
    """Fresh state of process p in a run on n processes: the singleton
    graph ({p}, no edges), with n*n-bit slots.  Raises ValueError unless p
    is in [0, n)."""
    if not 0 <= p < n:
        raise ValueError(f"process id {p} outside [0, {n - 1}]")
    state = ApproxState(p, (p,), 0, 0, n * n)
    state._ok = True
    return state


def _validate_snapshot(msg, r, width):
    """The full check of a round-r snapshot for a receiver with `width`-bit
    slots, for a message that failed `approx_absorb`'s fast path.  Raise
    `MalformedMessageError` unless the snapshot passes, in this order: the
    width, the owner, the labels of the nonempty slices within [1, r - 1],
    every vertex within [0, n) for width n*n, and every edge between two
    distinct vertices of the snapshot.  The vertex range keeps every edge,
    the receiver's direct in-edge from the sender included, inside its
    slot.  The lowest and highest label come from the lowest and highest
    set bit, and the edges from one AND per slot with the cached
    allowed-edge mask.  A state that passes is known well formed."""
    g = msg.graph
    if g.width != width:
        raise MalformedMessageError(
            f"snapshot from {msg.sender} has {g.width}-bit slots, not {width}")
    if msg.sender != g.owner or g.owner not in g.vertices:
        raise MalformedMessageError(
            f"snapshot owner mismatch from {msg.sender}")
    packed, base = g.packed, g.pruned_before
    if packed and (base + ((packed & -packed).bit_length() - 1) // width < 1
                   or base + (packed.bit_length() - 1) // width >= r):
        raise MalformedMessageError(
            f"snapshot from {msg.sender} carries labels outside [1, {r - 1}]")
    n = isqrt(width)
    outside = [v for v in g.vertices if not 0 <= v < n]
    if outside:
        raise MalformedMessageError(
            f"vertex {min(outside)} outside [0, {n - 1}] from {msg.sender}")
    forbidden = ~_allowed_mask(g.vertices)
    for m in _slots(packed, width):
        bad = m & forbidden
        if bad:  # the witness is the lowest bad edge of the lowest bad slice
            u, v = _unpair((bad & -bad).bit_length() - 1)
            kind = "self-loop" if u == v else "unknown endpoint in"
            raise MalformedMessageError(f"{kind} {u}->{v} from {msg.sender}")
    g._ok = True


def approx_absorb(state, r, received):
    """Round-r update: record direct in-edges with label r, then take the
    label-set union with every received snapshot: one OR each, the
    snapshot's slots moved to the receiver's cutoff.  A snapshot is known
    good, and taken as it is, when it has the receiver's width, its sender
    is its owner, it is known well formed (`_ok`) and its highest label is
    below r; any other is checked in full by `_validate_snapshot`.
    Monotone above that cutoff: labels below it, whether a sender's or r
    itself, are not taken.  A well-formed state stays so, unless a sender
    is the owner (a self-loop)."""
    if not received:
        return state
    owner, base, vertices = state.owner, state.pruned_before, state.vertices
    packed, width = state.packed, state.width
    ok, direct = state._ok and r >= 1, 0
    for msg in received:
        g, sender = msg.graph, msg.sender
        m, g_base = g.packed, g.pruned_before
        if not (g.width == width and sender == g.owner and g._ok
                and g_base + (m.bit_length() - 1) // width < r):
            _validate_snapshot(msg, r, width)
        if sender == owner:
            ok = False
        direct |= 1 << _pair(sender, owner)
        if not g.vertices <= vertices:
            vertices = vertices | g.vertices
        shift = (g_base - base) * width
        if shift:  # a shift by 0 would still copy the int
            m = m << shift if shift > 0 else m >> -shift
        packed |= m
    if r >= base:
        packed |= direct << (r - base) * width
    merged = ApproxState(owner, vertices, packed, base, width)
    merged._ok = ok
    return merged


def _slot(state, s):
    """The edge bits of slice s: 0 below the pruning cutoff or above the
    highest label."""
    k = s - state.pruned_before
    if k < 0:
        return 0
    width = state.width
    return state.packed >> k * width & (1 << width) - 1


def approx_restrict(state, s):
    """The round-s slice A_p|s: edges labeled s, plus the owner vertex.

    Returns (vertices, edges) as frozensets.
    """
    if s < 1:
        raise ValueError("rounds are 1-based")
    edges = frozenset(_decode(_slot(state, s)))
    return frozenset((state.owner,)).union(*edges), edges


@lru_cache(maxsize=None)  # one per power-of-two vertex bound; 4.5 MB at 256
def _degree_masks(bound):
    """For each vertex v < bound, the pair bits of its in-edges u -> v and of
    its out-edges v -> u, u != v, u < bound.  Those with u < v sit in shell
    v; each shell u above v holds one of each, at u*u + u + v and u*u + v."""
    squares = sum(1 << u * u for u in range(bound))
    diagonal = sum(1 << u * u + u for u in range(bound))
    table = []
    for v in range(bound):
        low, above = (1 << v) - 1, (v + 1) ** 2  # above: shell v + 1 onwards
        table.append((low << v * v | (diagonal << v) >> above << above,
                      low << v * v + v | (squares << v) >> above << above))
    return tuple(table)


# One long pruned run queries up to 8,218 distinct slices; 4096 entries keep
# 87% of an unbounded memo's hits there, 1024 keep 41%.
@lru_cache(maxsize=4096)
def _strong(m):
    """The vertex set of the slice with edge bits m if it is strongly
    connected, else empty; a single vertex whose only edge is a self-loop is
    not.  It does not depend on the owner, so every process shares it.

    Almost every slice is not strongly connected, so two necessary
    conditions reject most of them before the reach sweeps.  The top
    vertex k, whose shell holds m's highest bit, must have both an in-edge
    and an out-edge; all its neighbours are lower, so one shift reads them.
    Then every vertex below k must have an in-edge iff it has an out-edge,
    one AND each against the `_degree_masks` of the next power of two above
    k.  Only then does the reach test run: shell k yields `into[k]`, the
    senders u < k of edges u -> k, and `out_of[k]`, the receivers u < k of
    edges k -> u."""
    top = isqrt(max(m.bit_length() - 1, 0))  # m = 0 fails the next test
    shell, low = m >> top * top, (1 << top) - 1
    if not shell & low or not shell >> top & low:
        return frozenset()
    for ins, outs in _degree_masks(1 << top.bit_length())[:top]:
        if (not m & ins) != (not m & outs):
            return frozenset()
    into, out_of = [], []
    vmask = 0
    for k in range(top + 1):
        shell = m >> k * k & ((2 << 2 * k) - 1)
        into.append(shell & ((1 << k) - 1))
        out_of.append(shell >> k & ((1 << k) - 1))
        if shell:
            vmask |= 1 << k | into[k] | out_of[k]
    start = vmask & -vmask
    # Forward reach from the lowest vertex, then backward reach to it.
    for down, up in ((out_of, into), (into, out_of)):
        seen, last = start, 0
        while seen != last:
            last = seen
            for k in range(len(into)):
                if seen >> k & 1:
                    seen |= down[k]
                elif up[k] & seen:
                    seen |= 1 << k
        if seen != vmask:
            return frozenset()
    return frozenset(_bits(vmask))


def _component(owner, m):
    """The component that the owner detects in a slice with edge bits m:
    the owner alone if the slice is empty, else the slice's strongly
    connected vertex set if it holds the owner, else empty."""
    if not m:
        return frozenset((owner,))
    comp = _strong(m)
    return comp if owner in comp else frozenset()


def detected_component(state, s):
    """C_p|s: the vertex set of A_p|s if strongly connected, else empty.

    An edgeless slice detects the owner alone; a slice with edges detects
    its strongly connected vertex set only if that holds the owner
    (`_component`).  Slices older than the pruning cutoff report empty (no
    data).
    """
    if s < 1:
        raise ValueError("rounds are 1-based")
    k = s - state.pruned_before
    if k < 0:
        return frozenset()
    width = state.width
    m = state.packed >> k * width & (1 << width) - 1
    return _component(state.owner, m)


def in_stable_root(state, interval, current_round):
    """True iff all detected components over the interval are equal and
    nonempty; rounds outside [1, current_round) make it false, and so does
    a start below the pruning cutoff, whose slice reports empty.  One pass:
    `packed` is shifted to slice a, then by one slot per step through b,
    and each slot, read off the low bits, goes to `_component`, the rule
    that `detected_component` applies."""
    a, b = interval
    if a < 1 or b >= current_round or a > b:
        return False
    k = a - state.pruned_before
    if k < 0:
        return False
    owner, width = state.owner, state.width
    mask = (1 << width) - 1
    packed = state.packed >> k * width
    first = _component(owner, packed & mask)
    if not first:
        return False
    for _ in range(b - a):
        packed >>= width
        if _component(owner, packed & mask) != first:
            return False
    return True


def approx_prune(state, keep_after):
    """Drop all labels < keep_after and edges whose label set empties: one
    right shift of the packed int, which keeps its width.

    Vertices are retained.  Slices below the cutoff subsequently report no
    data rather than a spuriously empty-looking graph.
    """
    if keep_after < 0:
        raise ValueError("keep_after must be >= 0")
    base, width = state.pruned_before, state.width
    if keep_after <= base:
        return state
    packed = state.packed >> (keep_after - base) * width
    pruned = ApproxState(state.owner, state.vertices, packed, keep_after, width)
    pruned._ok = state._ok
    return pruned
