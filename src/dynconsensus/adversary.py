"""Scenario generators and the scenario file format.

Each generator builds a full round-graph sequence, assigns inputs, and tags
the scenario with the assumption it satisfies (or deliberately violates).
Every generator returns through `_scenario`, which checks the tags against
the graph oracle, so a scenario's meta tag is never refuted by the oracle:
an `ASSUMPTION_1` tag is given exactly when Assumption 1 holds, a claimed
r_ST equals the oracle's, and an untagged scenario takes both tags from the
oracle.  The oracle's facts are computed once per scenario and cached on it
(`Scenario.facts`), so that check, the checkers and the reports all read the
same computation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property

from .graphs import (
    GraphSequence,
    RoundGraph,
    find_r_st,
    round_diameter,
)

ASSUMPTION_1 = "ASSUMPTION_1"
ASSUMPTION_2 = "ASSUMPTION_2"


def violation(kind):
    return f"VIOLATION({kind})"


class InfeasibleError(ValueError):
    """The requested generator parameters cannot produce a valid scenario."""


class ScenarioParseError(ValueError):
    """A scenario file failed schema validation."""


@dataclass(frozen=True)
class Scenario:
    d_bound: int
    inputs: tuple
    seq: GraphSequence
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.inputs) != self.n:
            raise ValueError("inputs must assign one value per process")
        if not 1 <= self.d_bound <= max(1, self.n - 1):
            raise ValueError("D must satisfy 1 <= D <= n-1")

    @property
    def n(self):
        return self.seq.n

    @property
    def horizon(self):
        return self.seq.horizon

    @cached_property
    def facts(self):
        """The oracle's StabilityReport for this sequence and D, computed on
        first use."""
        return find_r_st(self.seq, self.d_bound)


def scenario_to_dict(sc):
    return {
        "n": sc.n,
        "D": sc.d_bound,
        "horizon": sc.horizon,
        "inputs": list(sc.inputs),
        "rounds": [
            [[p, q] for p, q in g.sorted_edges()] for g in sc.seq.rounds
        ],
        "meta": {
            "generator": None,
            "seed": None,
            "assumption": None,
            "claimed_r_st": None,
            **sc.meta,
        },
    }


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def scenario_from_dict(data):
    if not isinstance(data, dict):
        raise ScenarioParseError("top-level value must be an object")
    fields = ("n", "D", "horizon", "inputs", "rounds", "meta")
    for key in fields:
        if key not in data:
            raise ScenarioParseError(f"missing field: {key}")
    unknown = sorted(data.keys() - set(fields))
    if unknown:
        raise ScenarioParseError(f"unknown field: {unknown[0]}")
    n = data["n"]
    if not _is_int(n) or n < 1:
        raise ScenarioParseError("field n must be a positive integer")
    for key in ("D", "horizon"):
        if not _is_int(data[key]):
            raise ScenarioParseError(f"field {key} must be an integer")
    inputs = data["inputs"]
    if not isinstance(inputs, list) or not all(map(_is_int, inputs)):
        raise ScenarioParseError("field inputs must be a list of integers")
    if len(inputs) != n:  # before any round graph allocates O(n)
        raise ScenarioParseError("field inputs must list one value per process")
    rounds = data["rounds"]
    if not isinstance(rounds, list) or len(rounds) != data["horizon"]:
        raise ScenarioParseError("field rounds must list one edge set per round")
    if not isinstance(data["meta"], dict):
        raise ScenarioParseError("field meta must be an object")
    graphs = []
    shared = {}  # one RoundGraph per distinct edge set: O(n) masks each
    for i, edges in enumerate(rounds, start=1):
        if not isinstance(edges, list):
            raise ScenarioParseError(f"rounds[{i}]: edge set must be a list")
        if not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise ScenarioParseError(f"rounds[{i}]: edge must be a [u, v] pair")
        if not all(_is_int(p) and _is_int(q) for p, q in edges):
            raise ScenarioParseError(
                f"rounds[{i}]: edge endpoints must be integers")
        key = frozenset(map(tuple, edges))
        graph = shared.get(key)
        if graph is None:
            try:
                graph = shared[key] = RoundGraph(n, edges)
            except ValueError as exc:
                raise ScenarioParseError(f"rounds[{i}]: {exc}") from exc
        if len(key) != len(edges):  # name the first repeat
            seen = set()
            for u, v in edges:
                if (u, v) in seen:
                    raise ScenarioParseError(
                        f"rounds[{i}]: duplicate edge {u}->{v}")
                seen.add((u, v))
        graphs.append(graph)
    try:
        return Scenario(
            d_bound=data["D"],
            inputs=tuple(inputs),
            seq=GraphSequence(n, graphs),
            meta=dict(data["meta"]),
        )
    except (ValueError, TypeError) as exc:
        raise ScenarioParseError(str(exc)) from exc


def scenario_save(sc, path):
    """Canonical JSON: sorted keys, sorted edges, trailing newline."""
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(sc), fh, sort_keys=True, indent=None)
        fh.write("\n")


def scenario_load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"not UTF-8 text at byte {exc.start}")
    except RecursionError:
        raise ScenarioParseError("invalid JSON: nested too deeply")
    return scenario_from_dict(data)


def _scenario(generator, seed, n, d_bound, rounds, assumption=None,
              claimed_r_st=None, inputs=None, **extra):
    """The scenario a generator returns: `rounds` on n processes, inputs
    0..n-1 unless given, and meta holding the four tags plus `extra`.

    The tags are checked against the oracle's facts.  An `ASSUMPTION_1` tag
    must hold exactly when Assumption 1 does, so a `VIOLATION(...)` tag must
    not hold; `ASSUMPTION_2` is no oracle fact and is not checked here.  A
    claimed r_ST that is not None must be the oracle's.  With no assumption
    tag, both tags are taken from the oracle.
    """
    sc = Scenario(
        d_bound=d_bound,
        inputs=tuple(range(n)) if inputs is None else inputs,
        seq=GraphSequence(n, rounds),
        meta={"generator": generator, "seed": seed, "assumption": assumption,
              "claimed_r_st": claimed_r_st, **extra},
    )
    facts = sc.facts
    if assumption is None:
        sc.meta["assumption"] = (ASSUMPTION_1 if facts.assumption_holds
                                 else violation("assumption_1"))
        sc.meta["claimed_r_st"] = facts.r_st
    elif ((assumption != ASSUMPTION_2
           and (assumption == ASSUMPTION_1) != facts.assumption_holds)
          or claimed_r_st not in (None, facts.r_st)):
        raise AssertionError(
            f"{generator}: oracle refutes assumption={assumption} "
            f"claimed_r_st={claimed_r_st}: r_st={facts.r_st}, "
            f"violations={facts.unbounded_intervals or facts.multi_root_rounds}"
        )
    return sc


def _cycle(vertices):
    """The directed cycle through `vertices` in order; no edge for fewer
    than two vertices."""
    if len(vertices) < 2:
        return set()
    return set(zip(vertices, [*vertices[1:], vertices[0]]))


def _layered(layers):
    """Every edge from each layer to the next."""
    return {(u, v) for prev, layer in zip(layers, layers[1:])
            for u in prev for v in layer}


def _star_round(n, center, rng=None, extra=0):
    """Singleton-root round: center -> everyone, plus extras not into center."""
    edges = {(center, q) for q in range(n) if q != center}
    if rng is not None:
        for _ in range(extra):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v and v != center:
                edges.add((u, v))
    return RoundGraph(n, edges)


def gen_stable_window(seed, n, d_bound, r_st, horizon=None):
    """Single-root sequence whose only long stable window is [r_ST, r_ST+4D+1].

    The window is always the 4D + 2 rounds Assumption 1 asks for, and the
    horizon defaults to 3 rounds past it.  Inside the window, a fixed root
    set R keeps a cycle backbone plus a layered out-tree of depth <= D
    covering everyone (so the root stays D-bounded), with random extra edges
    re-drawn every round.  Outside the window, a rotating singleton star
    root changes every round.
    """
    if n < 2:
        raise InfeasibleError("need n >= 2")
    if not 1 <= d_bound <= n - 1:
        raise InfeasibleError("need 1 <= D <= n-1")
    if r_st < 1:
        raise InfeasibleError("r_ST must be >= 1")
    w_end = r_st + 4 * d_bound + 1
    if horizon is None:
        horizon = w_end + 3
    if horizon < w_end:
        raise InfeasibleError("horizon shorter than the stability window")

    # String seeds hash deterministically (unlike tuples), keeping output
    # byte-identical across processes.  The last field, the window length,
    # stays so that every seed keeps the graphs it drew before.
    rng = random.Random(
        f"stable_window:{seed}:{n}:{d_bound}:{r_st}:{4 * d_bound + 2}")

    k = rng.randint(1, min(d_bound + 1, n))
    perm = list(range(n))
    rng.shuffle(perm)
    root = perm[:k]
    outside = perm[k:]
    if n == 2 and k == 1:
        raise InfeasibleError(
            "n=2 with a one-process root leaves no other star centre to "
            "rotate outside the window"
        )

    # Layered periphery: L1..Lm, each nonempty, depth m <= D.
    layers = []
    if outside:
        m = min(d_bound, len(outside))
        cuts = sorted(rng.sample(range(1, len(outside)), m - 1)) if m > 1 else []
        prev = 0
        for c in cuts + [len(outside)]:
            layers.append(outside[prev:c])
            prev = c

    backbone = _layered([root] + layers) | _cycle(root)

    root_set = frozenset(root)
    rounds = []
    prev_center = None
    for t in range(1, horizon + 1):
        if r_st <= t <= w_end:
            edges = set(backbone)
            for _ in range(rng.randrange(0, n)):
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u != v and (v not in root_set or u in root_set):
                    edges.add((u, v))
            rounds.append(RoundGraph(n, edges))
            prev_center = None
        else:
            candidates = [
                c
                for c in range(n)
                if c != prev_center and frozenset((c,)) != root_set
            ]
            center = rng.choice(candidates)
            rounds.append(
                _star_round(n, center, rng, extra=rng.randrange(0, n))
            )
            prev_center = center

    return _scenario("stable_window", seed, n, d_bound, rounds,
                     ASSUMPTION_1, r_st)


def gen_rotating_roots(seed, n, d_bound, horizon):
    """Single root every round, but the root rotates every round, so no
    stable window of length >= 2 ever forms.  Safety-only scenarios."""
    if n < 2:
        raise InfeasibleError("need n >= 2")
    rng = random.Random(f"rotating_roots:{seed}:{n}:{horizon}")
    rounds = []
    prev = None
    for _ in range(horizon):
        center = rng.choice([c for c in range(n) if c != prev])
        rounds.append(_star_round(n, center, rng, extra=rng.randrange(0, n)))
        prev = center
    return _scenario("rotating_roots", seed, n, d_bound, rounds,
                     violation("no_stable_window"))


def gen_static_line(n, horizon):
    """Static directed line 0 -> 1 -> ... -> n-1, rooted at 0."""
    if n < 2:
        raise InfeasibleError("need n >= 2")
    g = RoundGraph(n, [(i, i + 1) for i in range(n - 1)])
    return _scenario("static_line", 0, n, n - 1, [g] * horizon)


def gen_static_star(n, horizon):
    """Static star with out-edges only from the center 0."""
    if n < 2:
        raise InfeasibleError("need n >= 2")
    g = _star_round(n, 0)
    return _scenario("static_star", 0, n, n - 1, [g] * horizon)


def gen_reversing_line(n, kappa, horizon):
    """Directed line rooted at 0 through round kappa, then all edges flip."""
    if n < 2:
        raise InfeasibleError("need n >= 2")
    if not 1 <= kappa <= horizon:
        raise InfeasibleError("need 1 <= kappa <= horizon")
    fwd = RoundGraph(n, [(i, i + 1) for i in range(n - 1)])
    rev = RoundGraph(n, [(i + 1, i) for i in range(n - 1)])
    graphs = [fwd] * kappa + [rev] * (horizon - kappa)
    return _scenario("reversing_line", 0, n, n - 1, graphs, kappa=kappa)


def gen_two_roots(n0, n1, horizon):
    """Two disjoint static cycles C0 (inputs 0) and C1 (inputs 1), both
    feeding a sink process; two root components every round."""
    if n0 < 1 or n1 < 1:
        raise InfeasibleError("need n0, n1 >= 1")
    n = n0 + n1 + 1
    sink = n - 1
    edges = (_cycle(range(n0)) | _cycle(range(n0, n0 + n1))
             | {(0, sink), (n0, sink)})
    g = RoundGraph(n, edges)
    return _scenario("two_roots", 0, n, n - 1, [g] * horizon,
                     violation("two_roots"),
                     inputs=(0,) * n0 + (1,) * n1 + (0,))


def gen_complete_then_rings(horizon=3):
    """4 processes: complete digraph in round 1, a fixed directed 4-ring after."""
    if horizon < 2:
        raise InfeasibleError("need horizon >= 2")
    n = 4
    complete = RoundGraph(
        n, [(p, q) for p in range(n) for q in range(n) if p != q]
    )
    ring = RoundGraph(n, _cycle(range(n)))
    return _scenario("complete_then_rings", 0, n, 1,
                     [complete] + [ring] * (horizon - 1),
                     violation("not_d_bounded"))


def gen_short_window(n, d_bound, horizon, r_st=3, seed=0):
    """A stability window of exactly D rounds (< the 4D+2 the assumption
    needs) with one process held at causal distance exactly D from the root.

    The backbone (root 0, layers, far process n-1) is static; outside the
    window an alternating extra edge into 0 enlarges and churns the root.
    """
    if d_bound < 2:
        raise InfeasibleError("need D >= 2")
    if n < d_bound + 2:
        raise InfeasibleError("need n >= D + 2")
    w_end = r_st + d_bound - 1
    if r_st < 2 or horizon < w_end + 1:
        raise InfeasibleError("window must have churn rounds on both sides")

    rng = random.Random(f"short_window:{seed}:{n}:{d_bound}")
    far = n - 1
    body = list(range(1, n - 1))
    # L1 gets at least two members (the alternating root partners).
    depth = d_bound - 1
    layers = [body[: len(body) - depth + 1]]
    for i in range(len(body) - depth + 1, len(body)):
        layers.append([body[i]])

    edges = _layered([[0]] + layers + [[far]])
    backbone = RoundGraph(n, edges)

    a_pair = (layers[0][0], layers[0][1])
    rounds = []
    for t in range(1, horizon + 1):
        if r_st <= t <= w_end:
            rounds.append(backbone)
        else:
            extra = a_pair[t % 2]
            rounds.append(RoundGraph(n, edges | {(extra, 0)}))

    sc = _scenario("short_window", seed, n, d_bound, rounds,
                   violation("short_window"))
    if sc.facts.r_st is not None:
        raise AssertionError("short-window scenario unexpectedly satisfies "
                             "the full-length window search")
    return sc


# Each expander round joins two random regular graphs of this degree.
DEGREE = 4


def _regular_connected(k, rng):
    """Connected random DEGREE-regular graph on k vertices (undirected, as
    edge list of vertex-index pairs); complete graph when k <= DEGREE.

    networkx is imported here, on the first call, and nowhere else in the
    package: `import dynconsensus` loads no third-party package."""
    import networkx as nx  # deferred: most of `import dynconsensus` time

    if k <= DEGREE:
        return [(i, j) for i in range(k) for j in range(i + 1, k)]
    while True:
        g = nx.random_regular_graph(DEGREE, k, seed=rng.randrange(2**32))
        if nx.is_connected(g):
            return list(g.edges())


def _expander_round(n, root_size, rng):
    edges = set()
    for i, j in _regular_connected(root_size, rng):
        edges.add((i, j))
        edges.add((j, i))
    for i, j in _regular_connected(n, rng):
        # Bidirect, then drop directions pointing into the root set.
        if i >= root_size:
            edges.add((j, i))
        if j >= root_size:
            edges.add((i, j))
    return RoundGraph(n, edges)


def gen_expander(seed, n, root_size, horizon):
    """Per-round union of a random regular graph on the root set R = [0, |R|)
    and one on all of V, bidirected, minus edges into R from outside."""
    if not 1 <= root_size <= n:
        raise InfeasibleError("root_size must be in [1, n]")
    rng = random.Random(f"expander:{seed}:{n}:{root_size}:{DEGREE}")
    seq = GraphSequence(
        n, [_expander_round(n, root_size, rng) for _ in range(horizon)]
    )

    root = frozenset(range(root_size))
    measured = round_diameter(seq, 1, root)[0]
    if measured == float("inf"):
        raise InfeasibleError("horizon too short to measure the diameter")
    d_bound = min(max(1, int(measured)), n - 1)
    sc = _scenario("expander", seed, n, d_bound, seq.rounds, ASSUMPTION_2,
                   measured_diameter=int(measured))
    for t, rr in enumerate(sc.facts.roots, start=1):
        if rr != (root,):
            raise AssertionError(f"round {t}: root is not R")
    return sc
