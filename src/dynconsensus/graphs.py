"""Round graphs, SCC/root decomposition, and the causal-distance oracle.

Everything here is computed directly from a graph sequence, independently of
the per-process protocol code, so it can serve as ground truth for the
checkers.  SCCs and root components come from bitmask reachability over
each round's adjacency masks.  All reachability results are relative to the
finite horizon T: a causal chain that does not complete by round T is
reported as INFINITY.  Rounds are 1-based throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

INFINITY = math.inf


class OutOfRangeError(ValueError):
    """Round index outside the sequence horizon."""


class MultipleRootsError(ValueError):
    """An operation requiring a unique root component hit a multi-root round."""


def _bits(mask):
    """Yield the set bit positions of a non-negative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RoundGraph:
    """One round's communication graph: edge (p, q) means q receives p's message.

    Simple directed graph, no self-loops.  Immutable, with its adjacency
    bitmasks built once: bit q of out_masks()[p] and bit p of in_masks()[q].
    Endpoints are ints in [0, n), given as pairs of any sequence type: a
    self-loop or an endpoint outside the range raises ValueError, and the
    types are not checked, since the generators build ints and
    `scenario_from_dict` type-checks file input first.
    """

    __slots__ = ("n", "edges", "_out_masks", "_in_masks")

    def __init__(self, n, edges=()):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.edges = frozenset(map(tuple, edges))
        out, inn = [0] * n, [0] * n
        for p, q in self.edges:
            if p == q:
                raise ValueError(f"self-loop {p}->{q}")
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"edge {p}->{q} out of range for n={n}")
            out[p] |= 1 << q
            inn[q] |= 1 << p
        self._out_masks, self._in_masks = tuple(out), tuple(inn)

    def out_masks(self):
        return self._out_masks

    def in_masks(self):
        return self._in_masks

    def sorted_edges(self):
        return sorted(self.edges)

    def __eq__(self, other):
        return (
            isinstance(other, RoundGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"RoundGraph(n={self.n}, edges={self.sorted_edges()})"


class GraphSequence:
    """A finite prefix G^1..G^T of a round-graph sequence."""

    __slots__ = ("n", "rounds")

    def __init__(self, n, rounds):
        rounds = tuple(rounds)
        if not rounds:
            raise ValueError("a sequence needs at least one round")
        for g in rounds:
            if g.n != n:
                raise ValueError("all round graphs must share the same n")
        self.n = n
        self.rounds = rounds

    @property
    def horizon(self):
        return len(self.rounds)

    def round(self, r):
        """The round-r graph, 1-based."""
        if not 1 <= r <= len(self.rounds):
            raise OutOfRangeError(f"round {r} outside [1, {len(self.rounds)}]")
        return self.rounds[r - 1]

    def __eq__(self, other):
        return (
            isinstance(other, GraphSequence)
            and self.n == other.n
            and self.rounds == other.rounds
        )

    def __hash__(self):
        return hash((self.n, self.rounds))

    def __repr__(self):
        return f"GraphSequence(n={self.n}, T={self.horizon})"


class StabilityReport(NamedTuple):
    """The oracle's facts about one sequence and D: the r_ST search outcome,
    assumption-clause violations, the root components of every round
    (roots[r - 1] is root_components of round r), and the maximal
    single-root vertex-stable intervals longer than D that are D-bounded,
    as (a, b, members).  D-bounded bounds the diameter from the root's
    members to every process; `unbounded_intervals` are the minimal
    intervals that are not, (x, x + D - 1) ascending: every other one
    contains one of them.  `members_unbounded_intervals` are the same under
    the members' own diameter, members to members, the clause the lock
    depends on."""

    r_st: int | None
    multi_root_rounds: list
    unbounded_intervals: list
    roots: tuple
    d_bounded_intervals: list
    members_unbounded_intervals: list

    @property
    def assumption_holds(self):
        return (
            self.r_st is not None
            and not self.multi_root_rounds
            and not self.unbounded_intervals
        )


def _closure(masks, v):
    """Bitmask of the vertices reachable from v along `masks`, v included."""
    seen = frontier = 1 << v
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return seen


def scc_decompose(g):
    """Maximal strongly connected components of one round graph, by bitmask
    reachability: the lowest vertex v not yet assigned has as component what
    v reaches and what reaches v.  Sorted by smallest member, as frozensets.
    """
    out, inn = g.out_masks(), g.in_masks()
    sccs = []
    left = (1 << g.n) - 1
    while left:
        v = next(_bits(left))
        comp = _closure(out, v) & _closure(inn, v)
        sccs.append(frozenset(_bits(comp)))
        left &= ~comp
    return sccs


def root_components(g):
    """The SCCs with no incoming edge from outside; always 1..n of them.

    Bitmask reachability, by descent: from each uncovered vertex, step to
    the lowest vertex w that reaches the current one but is not reached by
    it, which strictly shrinks the set reaching it.  Once there is no w, that
    set is a root component, and all it reaches is covered.  A tuple of
    frozensets, sorted by smallest member.
    """
    out, inn = g.out_masks(), g.in_masks()
    roots = []
    covered = 0
    for v in range(g.n):
        if covered >> v & 1:
            continue
        fwd, back = _closure(out, v), _closure(inn, v)
        while back & ~fwd:
            w = next(_bits(back & ~fwd))
            fwd, back = _closure(out, w), _closure(inn, w)
        roots.append(frozenset(_bits(back)))
        covered |= fwd
    return tuple(sorted(roots, key=min))


def causal_reach(seq, r, p, max_steps=None):
    """First-influence times from p starting at round r.

    Returns a list d with d[q] = cd_r(p, q) (INFINITY if no chain completes
    within max_steps, default the remaining horizon).  cd_r(p, p) = 1.
    """
    n = seq.n
    limit = seq.horizon - r + 1
    if max_steps is not None:
        limit = min(limit, max_steps)
    dist = [INFINITY] * n
    dist[p] = 1
    frontier = 1 << p
    full = (1 << n) - 1
    for k in range(1, limit + 1):
        if frontier == full:
            break
        out = seq.round(r + k - 1).out_masks()
        new = frontier
        for v in _bits(frontier):
            new |= out[v]
        for q in _bits(new & ~frontier):
            dist[q] = k
        frontier = new
    return dist


def causal_distance(seq, r, p, q):
    """cd_r(p, q): shortest causal chain from p (round r) to q, or INFINITY."""
    if not 1 <= r <= seq.horizon:
        raise OutOfRangeError(f"round {r} outside [1, {seq.horizon}]")
    for v in (p, q):
        if not 0 <= v < seq.n:
            raise ValueError(f"process {v} out of range")
    if p == q:
        return 1
    return causal_reach(seq, r, p)[q]


def _diameters(seq, a, b, sources, starts):
    """`round_diameter` of every start round x in [a, a + starts - 1] at
    once, each capped at round b (max_steps b - x + 1), by one bit-parallel
    forward fold over rounds a .. b.  Returns the dicts (every, own) keyed
    by x.

    Process q holds one int, `held[q]`, with bit i*starts + x - a set once
    the round-x state of the i-th source has reached q.  Round t sets the
    bit of start t at each source, then ORs into every process the previous
    ints of its round-t in-neighbours.  ANDing the ints across the sources,
    then across the other processes, and each result across the sources'
    blocks of `starts` bits, marks every start whose clause is complete
    after round t: its diameter is t - x + 1.  The fold stops once every
    start has completed the first clause, which the second never outlasts.
    """
    n = seq.n
    members = sorted(sources)
    others = [q for q in range(n) if q not in sources]
    shifts = [i * starts for i in range(len(members))]
    every = dict.fromkeys(range(a, a + starts), INFINITY)
    own = dict(every)
    held = [0] * n
    open_every = open_own = 0  # bit x - a: start x begun, clause not complete
    for t in range(a, b + 1):
        k = t - a
        if k < starts:
            for p, shift in zip(members, shifts):
                held[p] |= 1 << shift + k
            open_every |= 1 << k
            open_own |= 1 << k
        in_masks = seq.round(t).in_masks()
        step = []
        for q in range(n):
            h, m = held[q], in_masks[q]
            while m:
                low = m & -m
                h |= held[low.bit_length() - 1]
                m ^= low
            step.append(h)
        held = step
        reached = -1
        for p in members:
            reached &= held[p]
        done_own = open_own
        for shift in shifts:
            done_own &= reached >> shift
        for q in others:
            reached &= held[q]
        done_every = open_every
        for shift in shifts:
            done_every &= reached >> shift
        open_own ^= done_own
        open_every ^= done_every
        for clause, done in ((own, done_own), (every, done_every)):
            while done:
                low = done & -done
                x = a + low.bit_length() - 1
                clause[x] = t - x + 1
                done ^= low
        if k >= starts - 1 and not open_every:
            break
    return every, own


def round_diameter(seq, x, sources, max_steps=None):
    """The pair of largest cd_x(p, q) over p in sources: over q any process,
    and over q in sources; chains may leave the sources.  Each is INFINITY as
    soon as one chain does not complete within max_steps (default the
    remaining horizon).  The fold of `_diameters` with the one start x."""
    limit = seq.horizon - x + 1
    if max_steps is not None:
        limit = min(limit, max_steps)
    every, own = _diameters(seq, x, x + limit - 1, sources, 1)
    return every[x], own[x]


def _interval_diameter(per_round, a, b):
    """D([a, b]): the largest per-round diameter of a round x in [a, b] whose
    propagation completes by round b, or INFINITY if none does."""
    return max(
        (per_round[x] for x in range(a, b + 1) if x + per_round[x] - 1 <= b),
        default=INFINITY,
    )


def _is_d_bounded(per_round, a, b, d_bound):
    """The D-bounded rule for a vertex-stable component over [a, b]: the
    interval diameter is at most D, and propagation starting at round
    b - D + 1, which must lie inside the interval, completes within D
    rounds as well."""
    x0 = b - d_bound + 1
    return (x0 >= a and per_round[x0] <= d_bound
            and _interval_diameter(per_round, a, b) <= d_bound)


def network_causal_diameter(seq, interval):
    """Interval network causal diameter; requires a single root per round."""
    r, s = interval
    if not 1 <= r <= s <= seq.horizon:
        raise OutOfRangeError(f"interval {interval} outside [1, {seq.horizon}]")
    per_round = {}
    for x in range(r, s + 1):
        roots = root_components(seq.round(x))
        if len(roots) != 1:
            raise MultipleRootsError(
                f"round {x} has {len(roots)} root components"
            )
        # Diameters larger than the remaining window cannot qualify anyway,
        # so the reachability search is capped at s - x + 1 steps.
        per_round[x] = round_diameter(seq, x, roots[0], max_steps=s - x + 1)[0]
    return _interval_diameter(per_round, r, s)


def _stable_runs(roots):
    """Group per-round root components (round 1 first) into maximal runs
    [a, b] with a constant single-root vertex set, as (a, b, members);
    members is None on a run of multi-root rounds."""
    runs = []
    for x, rr in enumerate(roots, start=1):
        members = rr[0] if len(rr) == 1 else None
        if runs and runs[-1][2] == members:
            runs[-1] = (runs[-1][0], x, members)
        else:
            runs.append((x, x, members))
    return runs


def vertex_stable_intervals(seq):
    """Maximal intervals with a constant single-root vertex set, as
    (a, b, members); members is None on a run of multi-root rounds."""
    return _stable_runs(root_components(g) for g in seq.rounds)


def find_r_st(seq, d_bound):
    """Search for the earliest stability window of Assumption-1 shape, and
    collect the oracle's facts about the sequence on the way.

    Returns a StabilityReport with the smallest r such that [r, r + 4D + 1]
    lies within the horizon and hosts a D-bounded vertex-stable root
    component (4D + 2 rounds, the minimum satisfying d > 4D).  Here the
    diameter runs from the root's members to every process, as in
    `network_causal_diameter`.  Violations of the single-root clause and of
    "every stable root interval of length >= D is D-bounded" are reported
    as fields, not errors, the latter under both the network diameter and
    the members-to-members one, from one `_diameters` fold per single-root
    run.  Every round is decomposed into root components exactly once, and
    each single-root run is checked in passes linear in its length (O(D)
    per window start).
    """
    if d_bound < 1:
        raise ValueError("D must be >= 1")
    window_len = 4 * d_bound + 2

    roots = tuple(root_components(g) for g in seq.rounds)
    multi = [x for x, rr in enumerate(roots, start=1) if len(rr) != 1]
    r_st, unbounded, members_unbounded, d_bounded = None, [], [], []
    for a0, b0, members in _stable_runs(roots):
        if members is None or b0 - a0 + 1 < d_bound:
            # No interval shorter than D is D-bounded.
            continue
        # Capped at the end of this stable run: any propagation that
        # qualifies for a sub-interval must finish inside it.
        per_round, own = _diameters(seq, a0, b0, members, b0 - a0 + 1)
        # [x, x + D - 1] is not D-bounded iff per_round[x] > D.  If no x in
        # [a, b - D + 1] has that, round b - D + 1 and every other round
        # completing by b have diameters <= D, so [a, b] is D-bounded: these
        # are the minimal intervals that are not, and the rest contain one.
        # The same holds for the members' own diameters.
        starts = range(a0, b0 - d_bound + 2)
        unbounded += [
            (x, x + d_bound - 1) for x in starts if per_round[x] > d_bound
        ]
        members_unbounded += [
            (x, x + d_bound - 1) for x in starts if own[x] > d_bound
        ]
        if r_st is None:
            r_st = next((
                a for a in range(a0, b0 - window_len + 2)
                if _is_d_bounded(per_round, a, a + window_len - 1, d_bound)
            ), None)
        if b0 - a0 + 1 > d_bound and _is_d_bounded(per_round, a0, b0, d_bound):
            d_bounded.append((a0, b0, members))
    return StabilityReport(r_st, multi, unbounded, roots, d_bounded,
                           members_unbounded)
