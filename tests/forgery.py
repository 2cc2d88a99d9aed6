"""Approximation states built by hand, for tests that forge them.

The transitions are the only way `src/` builds an `ApproxState`; a test
that needs a state no run produces, well formed or not, builds it here, in
the layout the transitions keep (see `dynconsensus.approximation`).
"""

from math import isqrt

from dynconsensus.approximation import ApproxState, _pair, _width
from dynconsensus.graphs import _bits


def forge(owner, vertices, slices=None, pruned_before=0, *, edges=None):
    """The state with these slices ({round: edge bits}) or these edges
    ({(u, v): label mask}).  Empty slices are dropped, since an empty slice
    carries no label; a label below `pruned_before` cannot be held and
    raises ValueError.  The slot width covers the owner, the vertices and
    every edge's endpoints, as the transitions keep it."""
    slices = dict(slices or {})
    for (u, v), mask in (edges or {}).items():
        if mask <= 0 or min(u, v) < 0:
            raise ValueError(f"edge {u}->{v}: negative id or no label")
        for s in _bits(mask):
            slices[s] = slices.get(s, 0) | 1 << _pair(u, v)
    slices = {s: m for s, m in slices.items() if m}
    if min(slices, default=pruned_before) < pruned_before:
        raise ValueError("a label below pruned_before cannot be held")
    ends = [isqrt(m.bit_length() - 1) for m in slices.values()]
    width = _width([owner, *vertices, *ends])
    packed = sum(m << (s - pruned_before) * width for s, m in slices.items())
    return ApproxState(owner, vertices, packed, pruned_before, width)
