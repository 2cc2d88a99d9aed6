"""Scenario generators and the scenario file format.

Each generator builds a full round-graph sequence, assigns inputs, and tags
the scenario with the assumption it satisfies (or deliberately violates).
Generators validate their own output against the graph oracle before
returning, so a scenario's meta tag is never refuted by the oracle.  The
oracle's facts are computed once per scenario and cached on it
(`Scenario.facts`), so the postconditions, the checkers and the reports all
read the same computation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property

import networkx as nx

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
    n: int
    d_bound: int
    horizon: int
    inputs: tuple
    seq: GraphSequence
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.inputs) != self.n:
            raise ValueError("inputs must assign one value per process")
        if self.seq.n != self.n or self.seq.horizon != self.horizon:
            raise ValueError("sequence does not match n/horizon")
        if not 1 <= self.d_bound <= max(1, self.n - 1):
            raise ValueError("D must satisfy 1 <= D <= n-1")

    @cached_property
    def facts(self):
        """The oracle's StabilityReport for this sequence and D (default
        window 4D + 2), computed on first use."""
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
            "generator": sc.meta.get("generator"),
            "seed": sc.meta.get("seed"),
            "assumption": sc.meta.get("assumption"),
            "claimed_r_st": sc.meta.get("claimed_r_st"),
        },
    }


def scenario_from_dict(data):
    if not isinstance(data, dict):
        raise ScenarioParseError("top-level value must be an object")
    for key in ("n", "D", "horizon", "inputs", "rounds", "meta"):
        if key not in data:
            raise ScenarioParseError(f"missing field: {key}")
    n = data["n"]
    if not isinstance(n, int) or n < 1:
        raise ScenarioParseError("field n must be a positive integer")
    inputs = data["inputs"]
    if not isinstance(inputs, list) or not all(
        isinstance(v, int) for v in inputs
    ):
        raise ScenarioParseError("field inputs must be a list of integers")
    rounds = data["rounds"]
    if not isinstance(rounds, list) or len(rounds) != data["horizon"]:
        raise ScenarioParseError("field rounds must list one edge set per round")
    graphs = []
    for i, edges in enumerate(rounds, start=1):
        try:
            graphs.append(RoundGraph(n, [(p, q) for p, q in edges]))
        except (ValueError, TypeError) as exc:
            raise ScenarioParseError(f"rounds[{i}]: {exc}") from exc
    try:
        return Scenario(
            n=n,
            d_bound=data["D"],
            horizon=data["horizon"],
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
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}")
    return scenario_from_dict(data)


def _default_inputs(n):
    return tuple(range(n))


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


def gen_stable_window(seed, n, d_bound, r_st, window_len=None, horizon=None):
    """Single-root sequence whose only long stable window is [r_ST, r_ST+4D+1].

    Inside the window, a fixed root set R keeps a cycle backbone plus a
    layered out-tree of depth <= D covering everyone (so the root stays
    D-bounded), with random extra edges re-drawn every round.  Outside the
    window, a rotating singleton star root changes every round.
    """
    if n < 2:
        raise InfeasibleError("need n >= 2")
    if not 1 <= d_bound <= n - 1:
        raise InfeasibleError("need 1 <= D <= n-1")
    if window_len is None:
        window_len = 4 * d_bound + 2
    if window_len < 4 * d_bound + 2:
        # The oracle looks for a window of 4D + 2 rounds; a shorter one
        # never yields the claimed r_ST.
        raise InfeasibleError("window_len must be >= 4D + 2")
    if r_st < 1:
        raise InfeasibleError("r_ST must be >= 1")
    if horizon is None:
        horizon = r_st + window_len + 2
    w_end = r_st + window_len - 1
    if horizon < w_end:
        raise InfeasibleError("horizon shorter than the stability window")

    # String seeds hash deterministically (unlike tuples), keeping output
    # byte-identical across processes.
    rng = random.Random(f"stable_window:{seed}:{n}:{d_bound}:{r_st}:{window_len}")

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

    backbone = set()
    if k > 1:
        for i in range(k):
            backbone.add((root[i], root[(i + 1) % k]))
    prev_layer = root
    for layer in layers:
        for u in prev_layer:
            for v in layer:
                backbone.add((u, v))
        prev_layer = layer

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

    sc = Scenario(
        n=n,
        d_bound=d_bound,
        horizon=horizon,
        inputs=_default_inputs(n),
        seq=GraphSequence(n, rounds),
        meta={
            "generator": "stable_window",
            "seed": seed,
            "assumption": ASSUMPTION_1,
            "claimed_r_st": r_st,
        },
    )
    report = sc.facts
    if report.r_st != r_st or not report.assumption_holds:
        raise AssertionError(
            f"generator postcondition failed: r_st={report.r_st}, "
            f"violations={report.unbounded_intervals or report.multi_root_rounds}"
        )
    return sc


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
    return Scenario(
        n=n,
        d_bound=d_bound,
        horizon=horizon,
        inputs=_default_inputs(n),
        seq=GraphSequence(n, rounds),
        meta={
            "generator": "rotating_roots",
            "seed": seed,
            "assumption": violation("no_stable_window"),
            "claimed_r_st": None,
        },
    )


def _tagged_static(name, n, d_bound, horizon, graphs):
    sc = Scenario(
        n=n,
        d_bound=d_bound,
        horizon=horizon,
        inputs=_default_inputs(n),
        seq=GraphSequence(n, graphs),
        meta={"generator": name, "seed": 0},
    )
    report = sc.facts
    sc.meta["assumption"] = (
        ASSUMPTION_1 if report.assumption_holds else violation("assumption_1")
    )
    sc.meta["claimed_r_st"] = report.r_st
    return sc


def gen_static_line(n, horizon):
    """Static directed line 0 -> 1 -> ... -> n-1, rooted at 0."""
    if n < 2:
        raise InfeasibleError("need n >= 2")
    g = RoundGraph(n, [(i, i + 1) for i in range(n - 1)])
    return _tagged_static("static_line", n, n - 1, horizon, [g] * horizon)


def gen_static_star(n, horizon):
    """Static star with out-edges only from the center 0."""
    if n < 2:
        raise InfeasibleError("need n >= 2")
    g = _star_round(n, 0)
    return _tagged_static("static_star", n, n - 1, horizon, [g] * horizon)


def gen_reversing_line(n, kappa, horizon):
    """Directed line rooted at 0 through round kappa, then all edges flip."""
    if n < 2:
        raise InfeasibleError("need n >= 2")
    if not 1 <= kappa <= horizon:
        raise InfeasibleError("need 1 <= kappa <= horizon")
    fwd = RoundGraph(n, [(i, i + 1) for i in range(n - 1)])
    rev = RoundGraph(n, [(i + 1, i) for i in range(n - 1)])
    graphs = [fwd] * kappa + [rev] * (horizon - kappa)
    sc = _tagged_static("reversing_line", n, n - 1, horizon, graphs)
    sc.meta["kappa"] = kappa
    return sc


def gen_two_roots(n0, n1, horizon):
    """Two disjoint static cycles C0 (inputs 0) and C1 (inputs 1), both
    feeding a sink process; two root components every round."""
    if n0 < 1 or n1 < 1:
        raise InfeasibleError("need n0, n1 >= 1")
    n = n0 + n1 + 1
    sink = n - 1
    edges = set()
    if n0 > 1:
        for i in range(n0):
            edges.add((i, (i + 1) % n0))
    if n1 > 1:
        for i in range(n1):
            edges.add((n0 + i, n0 + (i + 1) % n1))
    edges.add((0, sink))
    edges.add((n0, sink))
    g = RoundGraph(n, edges)
    inputs = (0,) * n0 + (1,) * n1 + (0,)
    return Scenario(
        n=n,
        d_bound=n - 1,
        horizon=horizon,
        inputs=inputs,
        seq=GraphSequence(n, [g] * horizon),
        meta={
            "generator": "two_roots",
            "seed": 0,
            "assumption": violation("two_roots"),
            "claimed_r_st": None,
        },
    )


def gen_complete_then_rings(horizon=3):
    """4 processes: complete digraph in round 1, a fixed directed 4-ring after."""
    if horizon < 2:
        raise InfeasibleError("need horizon >= 2")
    n = 4
    complete = RoundGraph(
        n, [(p, q) for p in range(n) for q in range(n) if p != q]
    )
    ring = RoundGraph(n, [(i, (i + 1) % n) for i in range(n)])
    graphs = [complete] + [ring] * (horizon - 1)
    return Scenario(
        n=n,
        d_bound=1,
        horizon=horizon,
        inputs=_default_inputs(n),
        seq=GraphSequence(n, graphs),
        meta={
            "generator": "complete_then_rings",
            "seed": 0,
            "assumption": violation("not_d_bounded"),
            "claimed_r_st": None,
        },
    )


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

    edges = set()
    prev = [0]
    for layer in layers:
        for u in prev:
            for v in layer:
                edges.add((u, v))
        prev = layer
    for u in prev:
        edges.add((u, far))
    backbone = RoundGraph(n, edges)

    a_pair = (layers[0][0], layers[0][1])
    rounds = []
    for t in range(1, horizon + 1):
        if r_st <= t <= w_end:
            rounds.append(backbone)
        else:
            extra = a_pair[t % 2]
            rounds.append(RoundGraph(n, edges | {(extra, 0)}))

    sc = Scenario(
        n=n,
        d_bound=d_bound,
        horizon=horizon,
        inputs=_default_inputs(n),
        seq=GraphSequence(n, rounds),
        meta={
            "generator": "short_window",
            "seed": seed,
            "assumption": violation("short_window"),
            "claimed_r_st": None,
        },
    )
    if sc.facts.r_st is not None:
        raise AssertionError("short-window scenario unexpectedly satisfies "
                             "the full-length window search")
    return sc


@dataclass(frozen=True)
class ExpanderConfig:
    n: int
    root_size: int
    degree: int = 4

    def __post_init__(self):
        if self.degree < 3:
            raise InfeasibleError("degree must be >= 3")
        if not 1 <= self.root_size <= self.n:
            raise InfeasibleError("root_size must be in [1, n]")


def _regular_connected(k, degree, rng):
    """Connected random regular graph on k vertices (undirected, as edge list
    of vertex-index pairs); complete graph when k is too small for the degree."""
    if k <= degree:
        return [(i, j) for i in range(k) for j in range(i + 1, k)]
    if k * degree % 2:
        raise InfeasibleError("k * degree must be even for a regular graph")
    while True:
        g = nx.random_regular_graph(degree, k, seed=rng.randrange(2**32))
        if nx.is_connected(g):
            return list(g.edges())


def _expander_round(cfg, rng):
    n, root = cfg.n, cfg.root_size
    edges = set()
    for i, j in _regular_connected(root, cfg.degree, rng):
        edges.add((i, j))
        edges.add((j, i))
    for i, j in _regular_connected(n, cfg.degree, rng):
        # Bidirect, then drop directions pointing into the root set.
        if i >= root:
            edges.add((j, i))
        if j >= root:
            edges.add((i, j))
    return RoundGraph(n, edges)


def gen_expander(cfg, seed, horizon):
    """Per-round union of a random regular graph on the root set R = [0, |R|)
    and one on all of V, bidirected, minus edges into R from outside."""
    rng = random.Random(f"expander:{seed}:{cfg.n}:{cfg.root_size}:{cfg.degree}")
    seq = GraphSequence(
        cfg.n, [_expander_round(cfg, rng) for _ in range(horizon)]
    )

    root = frozenset(range(cfg.root_size))
    measured = round_diameter(seq, 1, root)
    if measured == float("inf"):
        raise InfeasibleError("horizon too short to measure the diameter")
    d_bound = min(max(1, int(measured)), cfg.n - 1)
    sc = Scenario(
        n=cfg.n,
        d_bound=d_bound,
        horizon=horizon,
        inputs=_default_inputs(cfg.n),
        seq=seq,
        meta={
            "generator": "expander",
            "seed": seed,
            "assumption": ASSUMPTION_2,
            "claimed_r_st": None,
            "measured_diameter": int(measured),
        },
    )
    for t, rr in enumerate(sc.facts.roots, start=1):
        if not (rr.is_single and rr.roots[0] == root):
            raise AssertionError(f"round {t}: root is not R")
    return sc


def sampled_expansion(g, root, samples=200, seed=0):
    """Minimum |N+(S) \\ S| / |S| over random S with R included and |S| <= n/2.

    A cheap stand-in for an exact vertex-expansion certificate.
    """
    rng = random.Random(f"expansion:{seed}:{g.n}")
    root = sorted(root)
    others = [v for v in range(g.n) if v not in set(root)]
    limit = g.n // 2
    out = g.out_masks()
    worst = None
    for _ in range(samples):
        extra = rng.randint(0, max(0, limit - len(root)))
        s = set(root) | set(rng.sample(others, extra))
        if len(s) > limit or not s:
            continue
        mask = 0
        smask = 0
        for v in s:
            smask |= 1 << v
            mask |= out[v]
        boundary = (mask & ~smask).bit_count()
        ratio = boundary / len(s)
        if worst is None or ratio < worst:
            worst = ratio
    return worst
