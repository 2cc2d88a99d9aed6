"""Round graphs, SCC/root decomposition, and the causal-distance oracle.

Everything here is computed directly from a graph sequence, independently of
the per-process protocol code, so it can serve as ground truth for the
checkers.  All reachability results are relative to the finite horizon T:
a causal chain that does not complete by round T is reported as INFINITY.
Rounds are 1-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

INFINITY = math.inf


class OutOfRangeError(ValueError):
    """Round index outside the sequence horizon."""


class NotVertexStableError(ValueError):
    """The given members do not form the same SCC in every round of the interval."""


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

    Simple directed graph, no self-loops.  Immutable; adjacency bitmasks are
    cached lazily.
    """

    __slots__ = ("n", "edges", "_out_masks", "_in_masks")

    def __init__(self, n, edges=()):
        if n < 1:
            raise ValueError("n must be >= 1")
        edges = frozenset((int(p), int(q)) for p, q in edges)
        for p, q in edges:
            if p == q:
                raise ValueError(f"self-loop {p}->{q}")
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"edge {p}->{q} out of range for n={n}")
        self.n = n
        self.edges = edges
        self._out_masks = None
        self._in_masks = None

    def out_masks(self):
        if self._out_masks is None:
            masks = [0] * self.n
            for p, q in self.edges:
                masks[p] |= 1 << q
            self._out_masks = masks
        return self._out_masks

    def in_masks(self):
        if self._in_masks is None:
            masks = [0] * self.n
            for p, q in self.edges:
                masks[q] |= 1 << p
            self._in_masks = masks
        return self._in_masks

    def in_neighbors(self, q):
        return frozenset(_bits(self.in_masks()[q]))

    def out_neighbors(self, p):
        return frozenset(_bits(self.out_masks()[p]))

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


@dataclass(frozen=True)
class RootReport:
    """Root components of one round graph."""

    roots: tuple
    is_single: bool


@dataclass
class StableIntervalReport:
    """A maximal interval over which the root component's vertex set is constant.

    Diameter fields stay None unless explicitly requested; multi_root marks a
    run of rounds with more than one root component (vertex_set is None then).
    """

    interval: tuple
    vertex_set: frozenset | None
    per_round_diameter: dict | None = None
    interval_diameter: float | None = None
    multi_root: bool = False


@dataclass
class StabilityReport:
    """The oracle's facts about one sequence and D: the r_ST search outcome,
    assumption-clause violations, the root components of every round
    (roots[r - 1] for round r), and the maximal single-root vertex-stable
    intervals longer than D that are D-bounded, as (a, b, members)."""

    r_st: int | None
    window: tuple | None
    multi_root_rounds: list = field(default_factory=list)
    unbounded_intervals: list = field(default_factory=list)
    roots: tuple = ()
    d_bounded_intervals: list = field(default_factory=list)

    @property
    def assumption_holds(self):
        return (
            self.r_st is not None
            and not self.multi_root_rounds
            and not self.unbounded_intervals
        )


def scc_decompose(g):
    """Maximal strongly connected components of one round graph.

    Iterative Tarjan; output sorted by smallest member id, components as
    frozensets.
    """
    n = g.n
    adj = [sorted(_bits(m)) for m in g.out_masks()]
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack = []
    sccs = []
    counter = 0

    for start in range(n):
        if index[start] != -1:
            continue
        # Explicit DFS stack of (vertex, iterator position).
        work = [(start, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])

    return sorted(sccs, key=min)


def root_components(g):
    """The SCCs with no incoming edge from outside; always 1..n of them."""
    sccs = scc_decompose(g)
    comp_of = {}
    for i, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = i
    has_external_in = [False] * len(sccs)
    for p, q in g.edges:
        if comp_of[p] != comp_of[q]:
            has_external_in[comp_of[q]] = True
    roots = tuple(c for i, c in enumerate(sccs) if not has_external_in[i])
    return RootReport(roots=roots, is_single=len(roots) == 1)


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


def round_diameter(seq, x, sources, targets=None, max_steps=None):
    """Largest cd_x(p, q) over p in sources and q in targets (default: every
    process); chains may leave both sets.  INFINITY as soon as one chain does
    not complete within max_steps (default the remaining horizon)."""
    worst = 0
    for p in sources:
        dist = causal_reach(seq, x, p, max_steps=max_steps)
        d = max(dist) if targets is None else max(dist[q] for q in targets)
        if d == INFINITY:
            return INFINITY
        if d > worst:
            worst = d
    return worst


def _interval_diameters(per_round, lo, b):
    """Yield (a, D([a, b])) for a = b, b - 1, ..., lo in one leftward pass.

    D([a, b]) is the largest per-round diameter of a round x in [a, b] whose
    propagation completes by round b, or INFINITY if none does.
    """
    best = 0
    for a in range(b, lo - 1, -1):
        v = per_round[a]
        if a + v - 1 <= b and v > best:
            best = v
        yield a, best or INFINITY


def _interval_diameter(per_round, a, b):
    """D([a, b]): the last value of the leftward pass."""
    *_, (_, diameter) = _interval_diameters(per_round, a, b)
    return diameter


def _is_d_bounded(per_round, a, b, diameter, d_bound):
    """The D-bounded rule for a vertex-stable component over [a, b] with
    interval diameter `diameter`: at most D, and propagation starting at
    round b - D + 1, which must lie inside the interval, completes within D
    rounds as well."""
    x0 = b - d_bound + 1
    return diameter <= d_bound and x0 >= a and per_round[x0] <= d_bound


def _scc_containing(g, v):
    for comp in scc_decompose(g):
        if v in comp:
            return comp
    raise AssertionError("unreachable")


def scc_causal_diameter(seq, interval, members):
    """Per-round and interval causal diameters of a vertex-stable SCC."""
    r, s = interval
    if not 1 <= r <= s <= seq.horizon:
        raise OutOfRangeError(f"interval {interval} outside [1, {seq.horizon}]")
    members = frozenset(members)
    if not members:
        raise ValueError("members must be nonempty")
    anchor = min(members)
    for x in range(r, s + 1):
        if _scc_containing(seq.round(x), anchor) != members:
            raise NotVertexStableError(
                f"members are not a vertex-stable SCC at round {x}"
            )
    per_round = {
        x: round_diameter(seq, x, members, members) for x in range(r, s + 1)
    }
    return StableIntervalReport(
        interval=(r, s),
        vertex_set=members,
        per_round_diameter=per_round,
        interval_diameter=_interval_diameter(per_round, r, s),
    )


def network_causal_diameter(seq, interval):
    """Interval network causal diameter; requires a single root per round."""
    r, s = interval
    if not 1 <= r <= s <= seq.horizon:
        raise OutOfRangeError(f"interval {interval} outside [1, {seq.horizon}]")
    per_round = {}
    for x in range(r, s + 1):
        report = root_components(seq.round(x))
        if not report.is_single:
            raise MultipleRootsError(
                f"round {x} has {len(report.roots)} root components"
            )
        # Diameters larger than the remaining window cannot qualify anyway,
        # so the reachability search is capped at s - x + 1 steps.
        per_round[x] = round_diameter(
            seq, x, report.roots[0], max_steps=s - x + 1
        )
    return _interval_diameter(per_round, r, s)


def _stable_runs(root_reports):
    """Group per-round RootReports (round 1 first) into maximal intervals
    with a constant single-root vertex set; runs of multi-root rounds are
    reported separately with multi_root=True."""
    reports = []
    for x, rr in enumerate(root_reports, start=1):
        # vertex_set is None exactly on multi-root rounds.
        vset = rr.roots[0] if rr.is_single else None
        if reports and reports[-1].vertex_set == vset:
            reports[-1].interval = (reports[-1].interval[0], x)
        else:
            reports.append(StableIntervalReport(
                interval=(x, x), vertex_set=vset, multi_root=vset is None
            ))
    return reports


def vertex_stable_intervals(seq):
    """Maximal intervals with a constant single-root vertex set.

    Runs of multi-root rounds are reported separately with multi_root=True.
    """
    return _stable_runs(root_components(g) for g in seq.rounds)


def check_d_bounded(seq, interval, members, d_bound):
    """D-boundedness of a vertex-stable SCC: interval diameter and the
    late-start diameter at round s - D + 1 both at most D."""
    if d_bound < 1:
        raise ValueError("D must be >= 1")
    report = scc_causal_diameter(seq, interval, members)
    return _is_d_bounded(
        report.per_round_diameter, *interval, report.interval_diameter, d_bound
    )


def find_r_st(seq, d_bound, window_len=None):
    """Search for the earliest stability window of Assumption-1 shape, and
    collect the oracle's facts about the sequence on the way.

    Returns a StabilityReport with the smallest r such that
    [r, r + window_len - 1] lies within the horizon and hosts a D-bounded
    vertex-stable root component (window_len defaults to 4D + 2, the minimum
    satisfying d > 4D).  Violations of the single-root clause and of
    "every stable root interval of length >= D is D-bounded" are reported as
    fields, not errors.  Every round is decomposed into root components
    exactly once.
    """
    if d_bound < 1:
        raise ValueError("D must be >= 1")
    if window_len is None:
        window_len = 4 * d_bound + 2

    roots = tuple(root_components(g) for g in seq.rounds)
    report = StabilityReport(
        r_st=None,
        window=None,
        multi_root_rounds=[
            x for x, rr in enumerate(roots, start=1) if not rr.is_single
        ],
        roots=roots,
    )
    for rep in _stable_runs(roots):
        a0, b0 = rep.interval
        if rep.multi_root or b0 - a0 + 1 < d_bound:
            # No interval shorter than D is D-bounded.
            continue
        members = rep.vertex_set
        # Capped at the end of this stable run: any propagation that
        # qualifies for a sub-interval must finish inside it.
        per_round = {
            x: round_diameter(seq, x, members, max_steps=b0 - x + 1)
            for x in range(a0, b0 + 1)
        }
        # Every sub-interval [a, b] of length >= D, for a fixed end b with
        # the start extended leftwards: the global clause needs all of them
        # D-bounded, the window search the earliest bounded one of length
        # window_len, and the checkers the whole run when longer than D.
        for b in range(a0 + d_bound - 1, b0 + 1):
            for a, diameter in _interval_diameters(per_round, a0, b):
                length = b - a + 1
                if length < d_bound:
                    continue
                if not _is_d_bounded(per_round, a, b, diameter, d_bound):
                    report.unbounded_intervals.append((a, b))
                    continue
                if length == window_len and report.r_st is None:
                    report.r_st, report.window = a, (a, b)
                if (a, b) == (a0, b0) and length > d_bound:
                    report.d_bounded_intervals.append((a0, b0, members))
    return report
