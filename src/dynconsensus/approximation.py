"""Per-process network approximation: the labeled digraph A_p.

A_p is stored by round slice: bit `_pair(u, v)` of the int `slices[s]` is
set iff edge u -> v carries label s.  `_pair` is Szudzik's pairing, so no
bound on the vertex ids is needed; shell k, bits k*k .. k*k + 2k, holds the
edges whose larger endpoint is k.  Merging is one OR per slice, pruning
drops keys, and cutting a slice is one lookup.  States are immutable values,
so they can be snapshotted into messages by reference.

Each process's states share one `_Lineage` handle of derived data: the
detected-component memo and an edge transposition cursor.  Consecutive
states differ in a few slices, so the cursor moves between states by
diffing slices: an edge view costs the changed bits plus one pass over the
edges, not a pass over every label bit.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _allowed_mask(vertices):
    """Bits of every edge u -> v, u != v, within `vertices`: in shell m,
    u -> m sits at m*m + u and m -> u at m*m + m + u, for u < m."""
    vmask = sum(1 << v for v in vertices)
    allowed = 0
    for m in vertices:
        low = vmask & ((1 << m) - 1)
        allowed |= low << m * m | low << m * m + m
    return allowed


class _Lineage:
    """Derived data shared by one process's states.  `memo` maps a slice
    value to its detected component (the owner is fixed along a lineage).
    The rest, made on the first edge view, is a cursor: the slice -> edge
    transposition of the `slices` dict it last moved to, keyed by pair bit
    b.  `masks[b]` is the edge's label mask, `frags[b]` its JSON fragment
    "[u, v, [l1, ..., lk]]", `edge[b]` its (u, v), and `order` lists the
    bits in (u, v) order."""

    __slots__ = ("memo", "slices", "masks", "frags", "edge", "order")

    def __init__(self):
        self.memo = {}
        self.slices = None

    def move(self, slices):
        """Diff `slices` against the held dict: XOR each changed slice's
        bits into the edge masks, then re-render only the touched edges and
        re-sort only when an edge appeared or disappeared."""
        if self.slices is None:
            self.slices, self.masks, self.frags, self.edge = {}, {}, {}, {}
            self.order = []
        if slices is self.slices:
            return self
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
        frags, edge, resort = self.frags, self.edge, False
        for b, before in touched.items():
            m = masks[b]
            top = before.bit_length()
            if not m:
                del masks[b], frags[b]
                resort = True
            elif before and m & ((1 << top) - 1) == before:  # appended
                added = ", ".join(map(str, _bits(m >> top << top)))
                frags[b] = f"{frags[b][:-2]}, {added}]]"
            else:
                if not before:
                    resort = True
                    edge[b] = _unpair(b)
                u, v = edge[b]
                frags[b] = f"[{u}, {v}, [{', '.join(map(str, _bits(m)))}]]"
        if resort:
            self.order = sorted(masks, key=edge.__getitem__)
        self.slices = slices
        return self


class ApproxState:
    """Process p's approximation digraph: vertices, labeled edges, owner.

    `slices` maps round s to the int of its edge bits; no value is 0.
    `edges` ({(u, v): label mask}), `labels`, `sorted_edges` and
    `edges_json` are derived read-only views.  Derived data, excluded from
    equality: `_lineage`, one process's `_Lineage` (`approx_init` or
    `from_edges` creates it, absorb and prune hand it on), whose cursor the
    edge views move to this state; and `_allowed`, which caches
    `_allowed_mask(vertices)` for the receivers of this state's snapshot.
    """

    __slots__ = ("owner", "vertices", "slices", "pruned_before", "_lineage",
                 "_allowed")

    def __init__(self, owner, vertices, slices, pruned_before=0,
                 _lineage=None):
        self.owner = owner
        self.vertices = frozenset(vertices)
        self.slices = slices
        self.pruned_before = pruned_before
        self._lineage = _Lineage() if _lineage is None else _lineage
        self._allowed = None

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
        cur = self._lineage.move(self.slices)
        return {cur.edge[b]: cur.masks[b] for b in cur.order}

    def labels(self, edge):
        """The label set of an edge as a sorted tuple of rounds."""
        b = _pair(*edge)
        return tuple(sorted(s for s, m in self.slices.items() if m >> b & 1))

    def sorted_edges(self):
        cur = self._lineage.move(self.slices)
        return [(*cur.edge[b], tuple(_bits(cur.masks[b]))) for b in cur.order]

    def edges_json(self):
        """Exactly `json.dumps(self.sorted_edges())`."""
        cur = self._lineage.move(self.slices)
        return "[" + ", ".join([cur.frags[b] for b in cur.order]) + "]"

    def __eq__(self, other):
        return (
            isinstance(other, ApproxState)
            and self.owner == other.owner
            and self.vertices == other.vertices
            and self.slices == other.slices
            and self.pruned_before == other.pruned_before
        )

    def __repr__(self):
        return (
            f"ApproxState(owner={self.owner}, vertices={sorted(self.vertices)}, "
            f"edges={self.sorted_edges()})"
        )


@dataclass(frozen=True)
class ApproxMessage:
    """A full snapshot of the sender's approximation state."""

    sender: int
    graph: ApproxState


def approx_init(p):
    """Fresh state: the singleton graph ({p}, no edges)."""
    return ApproxState(owner=p, vertices=(p,), slices={})


def approx_emit(state):
    """Snapshot message for the current round; does not mutate the state."""
    return ApproxMessage(sender=state.owner, graph=state)


def _validate_snapshot(msg, r):
    g = msg.graph
    if msg.sender != g.owner or g.owner not in g.vertices:
        raise MalformedMessageError(f"snapshot owner mismatch from {msg.sender}")
    if min(g.slices, default=1) < 1 or max(g.slices, default=0) >= r:
        raise MalformedMessageError(
            f"snapshot from {msg.sender} carries labels outside [1, {r - 1}]")
    if g._allowed is None:
        g._allowed = _allowed_mask(g.vertices)
    for m in g.slices.values():
        bad = m & ~g._allowed
        if bad:
            (u, v), = _decode(bad & -bad)
            kind = "self-loop" if u == v else "unknown endpoint in"
            raise MalformedMessageError(f"{kind} {u}->{v} from {msg.sender}")


def approx_absorb(state, r, received):
    """Round-r update: record direct in-edges with label r, then take the
    label-set union with every received snapshot.  Monotone: nothing is
    ever removed."""
    if not received:
        return state
    for msg in received:
        _validate_snapshot(msg, r)

    vertices = state.vertices
    slices = dict(state.slices)
    direct = 0
    for msg in received:
        g = msg.graph
        direct |= 1 << _pair(msg.sender, state.owner)
        if not g.vertices <= vertices:
            vertices = vertices | g.vertices
        for s, m in g.slices.items():
            old = slices.get(s, 0)
            if old | m != old:  # an unchanged slice keeps its shared int
                slices[s] = old | m
    slices[r] = slices.get(r, 0) | direct
    return ApproxState(state.owner, vertices, slices, state.pruned_before,
                       state._lineage)


def approx_restrict(state, s):
    """The round-s slice A_p|s: edges labeled s, plus the owner vertex.

    Returns (vertices, edges) as frozensets.
    """
    if s < 1:
        raise ValueError("rounds are 1-based")
    edges = frozenset(_decode(state.slices.get(s, 0)))
    return frozenset((state.owner,)).union(*edges), edges


def _component(owner, m):
    """The vertex set of the slice with edge bits m, plus `owner`, if it is
    strongly connected, else empty; a single vertex with no edges counts as
    strongly connected.  Shell k yields `into[k]`, the senders u < k of
    edges u -> k, and `out_of[k]`, the receivers u < k of edges k -> u."""
    into, out_of = [], []
    vmask = 1 << owner
    for k in range(isqrt(m.bit_length()) + 1):
        shell = m >> k * k & ((2 << 2 * k) - 1)
        into.append(shell & ((1 << k) - 1))
        out_of.append(shell >> k & ((1 << k) - 1))
        if shell:
            vmask |= 1 << k | into[k] | out_of[k]
    if vmask == 1 << owner:  # no edge, or only a self-loop at the owner
        return frozenset() if m else frozenset((owner,))
    # Forward reach from the owner, then backward reach to it.
    for down, up in ((out_of, into), (into, out_of)):
        seen, last = 1 << owner, 0
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

    Slices older than the pruning cutoff report empty (no data).
    """
    if s < 1:
        raise ValueError("rounds are 1-based")
    if s < state.pruned_before:
        return frozenset()
    m = state.slices.get(s, 0)
    memo = state._lineage.memo
    comp = memo.get(m)
    if comp is None:
        comp = memo[m] = _component(state.owner, m)
    return comp


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
    return ApproxState(state.owner, state.vertices, slices, keep_after,
                       state._lineage)
