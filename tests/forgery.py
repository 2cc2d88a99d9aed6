"""Approximation states built by hand, for tests that forge them.

The transitions are the only way `src/` builds an `ApproxState`; a test
that needs a state no run produces, well formed or not, builds it here, in
the layout the transitions keep (see `dynconsensus.approximation`).
"""

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
