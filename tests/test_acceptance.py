"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Run with `pytest -v` (add -s to see the verdict lines as they appear).
"""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dynconsensus
from dynconsensus import (
    INFINITY,
    ExpanderConfig,
    GraphSequence,
    RoundGraph,
    causal_distance,
    check_approx_invariants,
    check_d_bounded,
    find_r_st,
    gen_complete_then_rings,
    gen_expander,
    gen_rotating_roots,
    gen_short_window,
    gen_stable_window,
    gen_static_line,
    gen_static_star,
    gen_two_roots,
    run,
    run_checkers,
    scc_causal_diameter,
    scenario_save,
)
from dynconsensus.harness import check_agreement, check_validity


def _verdict(num, desc, ok):
    print(f"[ACCEPTANCE {num}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _stable_params(i):
    rng = random.Random(f"acc1:{i}")
    n = 3 + i % 14  # 3..16
    d = rng.randint(2, n - 1)
    r_st = rng.randint(1, 6)
    return n, d, r_st


@pytest.fixture(scope="module")
def stable_batch():
    """500 seeded assumption-satisfying scenarios, simulated and checked."""
    t0 = time.monotonic()
    results = []
    for i in range(500):
        n, d, r_st = _stable_params(i)
        sc = gen_stable_window(seed=i, n=n, d_bound=d, r_st=r_st)
        trace = run(sc)
        results.append((sc, trace, r_st))
    return results, time.monotonic() - t0


def test_acceptance_1_termination_bound(stable_batch):
    results, elapsed = stable_batch
    ok = elapsed < 60
    for sc, trace, r_st in results:
        report = find_r_st(sc.seq, sc.d_bound)
        bound = report.r_st + 4 * sc.d_bound + 1
        ok = ok and report.r_st == r_st
        ok = ok and len(trace.decisions) == sc.n
        ok = ok and all(r <= bound for _, r in trace.decisions.values())
    _verdict(
        1,
        f"termination <= r_ST+4D+1 on 500 stable-window scenarios "
        f"({elapsed:.1f}s)",
        ok,
    )


def test_acceptance_2_agreement_validity(stable_batch):
    results, _ = stable_batch
    ok = all(
        check_agreement(t).status == "pass"
        and check_validity(t).status == "pass"
        for _, t, _ in results
    )
    for i in range(500):
        sc = gen_rotating_roots(
            seed=i, n=3 + i % 10, d_bound=2, horizon=25
        )
        trace = run(sc)
        ok = ok and check_agreement(trace).status == "pass"
        ok = ok and check_validity(trace).status == "pass"
    _verdict(
        2,
        "agreement+validity on 500 stable + 500 windowless scenarios",
        ok,
    )


def test_acceptance_3_approximation_lemmas():
    scenarios = []
    for i in range(60):
        rng = random.Random(f"acc3:{i}")
        n = rng.randint(3, 8)
        d = rng.randint(2, min(4, n - 1))
        scenarios.append(
            gen_stable_window(seed=1000 + i, n=n, d_bound=d,
                              r_st=rng.randint(1, 4))
        )
    for i in range(20):
        scenarios.append(
            gen_rotating_roots(seed=i, n=3 + i % 6, d_bound=2, horizon=30)
        )
    for n in (4, 6, 8):
        scenarios.append(gen_static_line(n, 40))
        scenarios.append(gen_static_star(n, 30))
    for i in range(7):
        scenarios.append(gen_two_roots(2 + i % 3, 2, 30))
    for i in range(7):
        scenarios.append(gen_short_window(6 + i % 3, 2 + i % 2, 14))
    scenarios = scenarios[:100]
    ok = len(scenarios) == 100
    for sc in scenarios:
        ok = ok and sc.n <= 8 and sc.horizon <= 40
        ok = ok and check_approx_invariants(run(sc)).status == "pass"
    _verdict(3, "approximation lemma suite on 100 scenarios", ok)


def _random_stable_scc_instance(rng):
    """Vertex-stable SCC C = [0, k) each round, plus passive sink vertices."""
    k = rng.randint(2, 8)
    sinks = rng.randint(0, 2)
    n = k + sinks
    horizon = k - 1 + rng.randint(0, 4)
    rounds = []
    for _ in range(horizon):
        order = list(range(k))
        rng.shuffle(order)
        edges = {(order[i], order[(i + 1) % k]) for i in range(k)}
        for _ in range(rng.randint(0, k)):
            u, v = rng.randrange(k), rng.randrange(k)
            if u != v:
                edges.add((u, v))
        for s in range(k, n):
            edges.add((rng.randrange(k), s))
        rounds.append(RoundGraph(n, edges))
    return GraphSequence(n, rounds), k, horizon


def test_acceptance_4_causal_diameter_bounds():
    rng = random.Random("acc4")
    ok = True
    for _ in range(200):
        seq, k, horizon = _random_stable_scc_instance(rng)
        report = scc_causal_diameter(seq, (1, horizon), set(range(k)))
        ok = ok and report.interval_diameter <= k - 1
        for r in range(1, horizon):
            for p in range(seq.n):
                for q in range(seq.n):
                    a = causal_distance(seq, r, p, q)
                    b = causal_distance(seq, r + 1, p, q)
                    ok = ok and b >= a - 1
                    if a == INFINITY:
                        ok = ok and b == INFINITY
    _verdict(
        4,
        "D(C^I) <= |C|-1 and cd monotonicity on 200 stable-SCC instances",
        ok,
    )


def test_acceptance_5_worked_example():
    sc = gen_complete_then_rings()
    report = scc_causal_diameter(sc.seq, (1, 3), frozenset(range(4)))
    ok = report.interval_diameter == 1
    # Propagation starting at round 2 does not finish by round 3.
    ok = ok and report.per_round_diameter[2] == INFINITY
    ok = ok and not check_d_bounded(sc.seq, (1, 3), frozenset(range(4)), 1)
    _verdict(5, "complete-then-rings: D(C^[1,3])=1, round-2 start incomplete", ok)


def test_acceptance_6_two_roots_counterexample():
    trace = run(gen_two_roots(2, 2, 60))
    verdict = check_agreement(trace)
    ok = verdict.status == "fail" and verdict.witness["values"] == [0, 1]
    _verdict(6, "two-roots scenario yields agreement violation {0,1}", ok)


def test_acceptance_7_expander_log_diameter():
    t0 = time.monotonic()
    measured = {}
    for n in (64, 128, 256):
        cfg = ExpanderConfig(n=n, root_size=n // 8, degree=4)
        sc = gen_expander(cfg, seed=17, horizon=20)
        measured[n] = sc.meta["measured_diameter"]
    elapsed = time.monotonic() - t0
    c = measured[64] / math.log2(64)
    limit = measured[64] + c * (math.log2(256) - math.log2(64))
    ok = elapsed < 300 and measured[256] <= limit
    _verdict(
        7,
        f"expander diameter growth at most logarithmic "
        f"(Dm={measured}, limit={limit:.2f}, {elapsed:.1f}s)",
        ok,
    )


def _brute_force_reach(seq, r, p):
    """Shortest causal chains by exhaustive recursive extension (kept
    deliberately different from the layered search in the library)."""
    best = {}
    seen = set()

    def extend(v, k):
        if (v, k) in seen:
            return
        seen.add((v, k))
        if k < best.get(v, math.inf):
            best[v] = k
        if r + k > seq.horizon:
            return
        g = seq.round(r + k)
        for w in sorted(g.out_neighbors(v) | {v}):
            extend(w, k + 1)

    extend(p, 0)
    return best


def test_acceptance_8_oracle_self_check():
    rng = random.Random("acc8")
    ok = True
    for _ in range(50):
        n = rng.randint(2, 5)
        horizon = rng.randint(1, 6)
        seq = GraphSequence(
            n,
            [
                RoundGraph(
                    n,
                    [
                        (p, q)
                        for p in range(n)
                        for q in range(n)
                        if p != q and rng.random() < 0.35
                    ],
                )
                for _ in range(horizon)
            ],
        )
        for r in range(1, horizon + 1):
            for p in range(n):
                brute = _brute_force_reach(seq, r, p)
                for q in range(n):
                    expected = 1 if q == p else brute.get(q, INFINITY)
                    ok = ok and causal_distance(seq, r, p, q) == expected
    _verdict(8, "BFS causal distance equals exhaustive chain enumeration", ok)


DRIVER = """
import sys
from dynconsensus.cli import main

out_dir = sys.argv[1]
scenarios = sys.argv[2:]
for i, sc in enumerate(scenarios):
    code = main(["run", "--scenario", sc,
                 "--trace", f"{out_dir}/trace{i}.jsonl"])
    print(f"scenario{i} exit={code}")
"""


def test_acceptance_9_determinism(tmp_path):
    paths = []
    for i in range(20):
        sc = (
            gen_stable_window(seed=i, n=4 + i % 5, d_bound=2, r_st=2 + i % 3)
            if i % 4
            else gen_rotating_roots(seed=i, n=4 + i % 5, d_bound=2,
                                    horizon=20)
        )
        path = tmp_path / f"sc{i}.json"
        scenario_save(sc, path)
        paths.append(str(path))

    driver = tmp_path / "driver.py"
    driver.write_text(DRIVER)
    # The driver imports the same dynconsensus this test imported.
    src = str(Path(dynconsensus.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    outputs = []
    for rep in ("run1", "run2"):
        out_dir = tmp_path / rep
        out_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(driver), str(out_dir)] + paths,
            capture_output=True, text=True, check=True, env=env,
        )
        traces = b"".join(
            (out_dir / f"trace{i}.jsonl").read_bytes() for i in range(20)
        )
        outputs.append((proc.stdout, traces))
    ok = outputs[0] == outputs[1]
    _verdict(9, "repeated runs produce byte-identical traces and reports", ok)


def test_acceptance_10_pruning_equivalence():
    ok = True
    for i in range(100):
        rng = random.Random(f"acc10:{i}")
        n = rng.randint(3, 10)
        sc = gen_stable_window(
            seed=5000 + i, n=n, d_bound=rng.randint(2, n - 1),
            r_st=rng.randint(1, 5),
        )
        plain = run(sc)
        pruned = run(sc, prune=True)
        ok = ok and plain.decisions == pruned.decisions
    _verdict(10, "pruning window 4D+1 preserves all decisions", ok)
