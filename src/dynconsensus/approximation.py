"""Per-process network approximation: the labeled digraph A_p.

A_p is stored by round slice: bit `_pair(u, v)` of the int `slices[s]` is
set iff edge u -> v carries label s.  `_pair` is Szudzik's pairing, so no
bound on the vertex ids is needed; shell k, bits k*k .. k*k + 2k, holds the
edges whose larger endpoint is k.  Merging is one OR per slice, pruning
drops keys, and cutting a slice is one lookup.  States are immutable values,
so they can be snapshotted into messages by reference.

Every process estimates the same graph sequence, so the values derived
from A_p repeat across processes.  The pure functions of immutable values
(`_strong`, `_allowed_mask`, `_label_text`, `_edge`) are bounded
module-level caches that every process shares.  The transitions keep a
state's well-formedness up to date, so validating a received snapshot takes
a few comparisons, not a pass over its slices.  Edge-major views are for
reading traces:
`ApproxState.edges` transposes one state, and an `EdgeCursor` walks one
process's states in round order, moving its transposition by the slices
that changed from state to state.
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


# Cache sizes come from the working sets of the benchmark corpora (n <= 20,
# T <= 96), measured with every cache cleared before each scenario: at most
# 66 distinct vertex sets and 1,170 label masks per scenario.

@lru_cache(maxsize=256)
def _allowed_mask(vertices):
    """Bits of every edge u -> v, u != v, within `vertices`: in shell m,
    u -> m sits at m*m + u and m -> u at m*m + m + u, for u < m."""
    vmask = sum(1 << v for v in vertices)
    allowed = 0
    for m in vertices:
        low = vmask & ((1 << m) - 1)
        allowed |= low << m * m | low << m * m + m
    return allowed


@lru_cache(maxsize=2048)
def _label_text(mask):
    """The JSON list of the rounds in a label mask: "[l1, ..., lk]"."""
    return f"[{', '.join(map(str, _bits(mask)))}]"


@lru_cache(maxsize=1 << 16)  # every edge between vertex ids below 256
def _edge(b):
    """The edge (u, v) with pair bit b.  Every `EdgeCursor` decodes through
    it, since the processes of a scenario read the same edges."""
    return _unpair(b)


class EdgeCursor:
    """The slice -> edge transposition of one process's states, read in
    round order.  Consecutive states differ in a few slices, so moving to
    the next state costs the changed bits plus one pass over the edges, not
    a pass over every label bit; any other order is correct, only slower.
    `masks[b]` is the label mask of the edge with pair bit b, which is
    `_edge(b)`; `frags[(u, v)]` is the edge's JSON fragment
    "[u, v, [l1, ..., lk]]" and `order` the sorted list of the edges."""

    __slots__ = ("slices", "masks", "frags", "order")

    def __init__(self):
        self.slices, self.masks, self.frags = {}, {}, {}
        self.order = []

    def edges_json(self, slices):
        """Exactly `json.dumps(state.sorted_edges())` for the state with
        these `slices`."""
        if slices is not self.slices:
            self._move(slices)
        return "[" + ", ".join(map(self.frags.__getitem__, self.order)) + "]"

    def _move(self, slices):
        """Diff `slices` against the held dict: XOR each changed slice's
        bits into the edge masks and re-render only the touched edges.
        Vanished edges are filtered out of `order`; appeared ones are
        appended and merged in by a sort of the mostly sorted list."""
        masks, held, touched = self.masks, self.slices, {}
        flips = [(s, m ^ held.get(s, 0)) for s, m in slices.items()
                 if m is not held.get(s)]  # absorb shares unchanged ints
        flips += [(s, m) for s, m in held.items() if s not in slices]
        for s, diff in flips:
            label = 1 << s
            for b in _set_bits(diff):
                old = masks.get(b, 0)
                touched.setdefault(b, old)
                masks[b] = old ^ label
        frags, order, vanished, appeared = self.frags, self.order, False, []
        for b, before in touched.items():
            e = _edge(b)
            m = masks[b]
            if not m:
                del masks[b], frags[e]
                vanished = True
                continue
            if not before:
                appeared.append(e)
            frags[e] = f"[{e[0]}, {e[1]}, {_label_text(m)}]"
        if vanished:
            order = [e for e in order if e in frags]
        if appeared:
            order += appeared
            order.sort()
        self.order = order
        self.slices = slices


@dataclass(repr=False, slots=True)
class ApproxState:
    """Process p's approximation digraph: owner, vertices, and `slices`,
    which maps round s to the int of its edge bits (no value is 0).  Slices
    before `pruned_before` were dropped by pruning.  `edges`
    ({(u, v): label mask}) and `sorted_edges` are derived views.

    `_top`, derived and not part of the value, is the highest label (0 if
    none) once the state is known to be well formed: the owner a vertex,
    no negative id, no label below 1, no self-loop or unknown endpoint.
    The transitions set it; a state built any other way gets it from its
    first full check in `_validate_snapshot`.  States must not be mutated."""

    owner: int
    vertices: frozenset
    slices: dict
    pruned_before: int = 0
    _top: int | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        self.vertices = frozenset(self.vertices)

    @classmethod
    def from_edges(cls, owner, vertices, edges, pruned_before=0):
        """A state from an edge dict {(u, v): label mask}."""
        slices = {}
        for (u, v), mask in edges.items():
            if mask <= 0 or min(u, v) < 0:
                raise ValueError(f"edge {u}->{v}: negative id or no label")
            for s in _bits(mask):
                slices[s] = slices.get(s, 0) | 1 << _pair(u, v)
        return cls(owner, vertices, slices, pruned_before)

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


@dataclass(frozen=True)
class ApproxMessage:
    """A full snapshot of the sender's approximation state.  The graph must
    not be mutated once it is sent."""

    sender: int
    graph: ApproxState


def approx_init(p):
    """Fresh state: the singleton graph ({p}, no edges)."""
    state = ApproxState(owner=p, vertices=(p,), slices={})
    state._top = 0 if p >= 0 else None  # a negative id is never well formed
    return state


def approx_emit(state):
    """Snapshot message for the current round; does not mutate the state."""
    return ApproxMessage(sender=state.owner, graph=state)


def _validate_snapshot(msg, r):
    """Raise `MalformedMessageError` unless `msg` is a well-formed round-r
    snapshot, checking, in this order: the owner, the labels within
    [1, r - 1], and every edge between two distinct vertices of the
    snapshot.  A state with `_top` set needs two comparisons; any other
    message is checked in full, and a state that passes keeps its `_top`."""
    g = msg.graph
    top = g._top
    if top is not None and top < r and msg.sender == g.owner:
        return
    if msg.sender != g.owner or g.owner not in g.vertices:
        raise MalformedMessageError(
            f"snapshot owner mismatch from {msg.sender}")
    top = max(g.slices, default=0)
    if min(g.slices, default=1) < 1 or top >= r:
        raise MalformedMessageError(
            f"snapshot from {msg.sender} carries labels outside [1, {r - 1}]")
    bad_bits = ~_allowed_mask(g.vertices)  # raises on a negative vertex id
    for m in g.slices.values():
        bad = m & bad_bits
        if bad:  # the witness is the lowest bad edge of the first such slice
            (u, v), = _decode(bad & -bad)
            kind = "self-loop" if u == v else "unknown endpoint in"
            raise MalformedMessageError(f"{kind} {u}->{v} from {msg.sender}")
    g._top = top


def approx_absorb(state, r, received):
    """Round-r update: record direct in-edges with label r, then take the
    label-set union with every received snapshot.  Monotone: nothing is
    ever removed.  A well-formed state stays so, its highest label now
    max(old, r), unless a sender is the owner (a self-loop)."""
    if not received:
        return state
    owner, top = state.owner, state._top
    vertices = state.vertices
    slices = dict(state.slices)
    direct = 0
    for msg in received:
        _validate_snapshot(msg, r)
        if msg.sender == owner:
            top = None
        g = msg.graph
        direct |= 1 << _pair(msg.sender, owner)
        if not g.vertices <= vertices:
            vertices = vertices | g.vertices
        # Slices are shared by reference: a new one is taken as it is, and
        # one that is already the receiver's int needs no union.
        for s, m in g.slices.items():
            old = slices.get(s)
            if old is None:
                if m:
                    slices[s] = m
            elif old is not m and old | m != old:
                slices[s] = old | m
    slices[r] = slices.get(r, 0) | direct
    merged = ApproxState(owner, vertices, slices, state.pruned_before)
    if top is not None:
        merged._top = max(top, r)
    return merged


def approx_restrict(state, s):
    """The round-s slice A_p|s: edges labeled s, plus the owner vertex.

    Returns (vertices, edges) as frozensets.
    """
    if s < 1:
        raise ValueError("rounds are 1-based")
    edges = frozenset(_decode(state.slices.get(s, 0)))
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


def detected_component(state, s):
    """C_p|s: the vertex set of A_p|s if strongly connected, else empty.

    An edgeless slice detects the owner alone; a slice with edges detects
    its strongly connected vertex set only if that holds the owner.  Slices
    older than the pruning cutoff report empty (no data).
    """
    if s < 1:
        raise ValueError("rounds are 1-based")
    if s < state.pruned_before:
        return frozenset()
    m = state.slices.get(s)
    if not m:
        return frozenset((state.owner,))
    comp = _strong(m)
    return comp if state.owner in comp else frozenset()


def in_stable_root(state, interval, current_round):
    """True iff all detected components over the interval are equal and
    nonempty; rounds outside [1, current_round) make it false."""
    a, b = interval
    if a < 1 or b >= current_round or a > b:
        return False
    first = detected_component(state, a)
    if not first:
        return False
    for s in range(a + 1, b + 1):
        if detected_component(state, s) != first:
            return False
    return True


def approx_prune(state, keep_after):
    """Drop all labels < keep_after and edges whose label set empties.

    Vertices are retained.  Slices below the cutoff subsequently report no
    data rather than a spuriously empty-looking graph.
    """
    if keep_after < 0:
        raise ValueError("keep_after must be >= 0")
    if keep_after <= state.pruned_before:
        return state
    slices = {s: m for s, m in state.slices.items() if s >= keep_after}
    pruned = ApproxState(state.owner, state.vertices, slices, keep_after)
    if state._top is not None:  # any part of a well-formed state is too
        pruned._top = max(slices, default=0)
    return pruned
