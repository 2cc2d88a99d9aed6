"""Approximation states and graph sequences built by hand, for tests that
forge them.

The transitions are the only way `src/` builds an `ApproxState`; a test
that needs a state no run produces, well formed or not, builds it here, in
the layout the transitions keep (see `dynconsensus.approximation`).  The
generators in `dynconsensus.adversary` build sequences to a plan; a test
that needs random ones, which may satisfy Assumption 1 or violate it,
draws them here with `sticky_sequence` and lets the oracle classify them.
"""

from dynconsensus import GraphSequence, RoundGraph, root_components
from dynconsensus.approximation import ApproxState, _pair
from dynconsensus.graphs import _bits


def forge(n, owner, vertices, slices=None, pruned_before=0, *, edges=None):
    """The state of a run on n processes with these slices ({round: edge
    bits}) or these edges ({(u, v): label mask}), in n*n-bit slots.  Empty
    slices are dropped, since an empty slice carries no label.  Raises
    ValueError on an owner, vertex or edge endpoint outside [0, n), on an
    edge without a label, and on a label below `pruned_before`, which
    cannot be held."""
    width = n * n
    ids = [owner, *vertices, *(x for e in edges or () for x in e)]
    # A pair bit from n*n up has an endpoint from n up.
    if not all(0 <= x < n for x in ids) or any(
            m >> width for m in (slices or {}).values()):
        raise ValueError(f"an id outside [0, {n - 1}]")
    slices = dict(slices or {})
    for (u, v), mask in (edges or {}).items():
        if mask <= 0:
            raise ValueError(f"edge {u}->{v}: no label")
        for s in _bits(mask):
            slices[s] = slices.get(s, 0) | 1 << _pair(u, v)
    slices = {s: m for s, m in slices.items() if m}
    if min(slices, default=pruned_before) < pruned_before:
        raise ValueError("a label below pruned_before cannot be held")
    packed = sum(m << (s - pruned_before) * width for s, m in slices.items())
    return ApproxState(owner, vertices, packed, pruned_before, width)


def sticky_sequence(rng):
    """n in 3..7, D in 1..min(3, n - 1), T in 10..40 rounds, each repeating
    the previous one with probability 0.85 and otherwise a fresh p = 0.3
    digraph with a single root component."""
    n = rng.randint(3, 7)
    d_bound = rng.randint(1, min(3, n - 1))
    rounds = []
    for _ in range(rng.randint(10, 40)):
        if rounds and rng.random() < 0.85:
            rounds.append(rounds[-1])
            continue
        while True:
            g = RoundGraph(n, [
                (p, q)
                for p in range(n)
                for q in range(n)
                if p != q and rng.random() < 0.3
            ])
            if len(root_components(g)) == 1:
                break
        rounds.append(g)
    return GraphSequence(n, rounds), d_bound
