import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dynconsensus import (
    INFINITY,
    InfeasibleError,
    ScenarioParseError,
    causal_distance,
    find_r_st,
    gen_complete_then_rings,
    gen_expander,
    gen_reversing_line,
    gen_rotating_roots,
    gen_short_window,
    gen_stable_window,
    gen_static_line,
    gen_static_star,
    gen_two_roots,
    root_components,
    scenario_load,
    scenario_save,
    vertex_stable_intervals,
)
from dynconsensus.adversary import (
    ASSUMPTION_1,
    ASSUMPTION_2,
    _scenario,
    scenario_from_dict,
    scenario_to_dict,
    violation,
)


class TestStableWindow:
    def test_oracle_confirms_claimed_r_st(self):
        for seed, n, d, r_st in ((1, 8, 3, 5), (2, 4, 2, 2), (3, 10, 4, 7)):
            sc = gen_stable_window(seed=seed, n=n, d_bound=d, r_st=r_st)
            report = find_r_st(sc.seq, d)
            assert report.r_st == r_st
            assert report.assumption_holds
            assert sc.meta["claimed_r_st"] == r_st

    def test_single_root_every_round(self):
        sc = gen_stable_window(seed=4, n=7, d_bound=2, r_st=3)
        for r in range(1, sc.horizon + 1):
            assert len(root_components(sc.seq.round(r))) == 1

    def test_same_seed_same_scenario(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        scenario_save(gen_stable_window(seed=9, n=6, d_bound=2, r_st=4), a)
        scenario_save(gen_stable_window(seed=9, n=6, d_bound=2, r_st=4), b)
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_parameters(self):
        with pytest.raises(InfeasibleError):
            gen_stable_window(seed=0, n=4, d_bound=4, r_st=2)  # D > n-1
        with pytest.raises(InfeasibleError):
            gen_stable_window(seed=0, n=1, d_bound=1, r_st=1)


class TestRotatingRoots:
    def test_root_changes_every_round(self):
        sc = gen_rotating_roots(seed=5, n=6, d_bound=2, horizon=25)
        prev = None
        for r in range(1, sc.horizon + 1):
            roots = root_components(sc.seq.round(r))
            assert len(roots) == 1
            assert roots[0] != prev
            prev = roots[0]

    def test_no_stable_window(self):
        sc = gen_rotating_roots(seed=6, n=5, d_bound=2, horizon=30)
        assert find_r_st(sc.seq, 2).r_st is None
        assert all(a == b for a, b, _ in vertex_stable_intervals(sc.seq))


class TestStaticFamilies:
    def test_static_line_root(self):
        sc = gen_static_line(5, 10)
        for r in range(1, 11):
            assert root_components(sc.seq.round(r)) == (frozenset({0}),)

    def test_static_star_diameter(self):
        from dynconsensus import network_causal_diameter

        sc = gen_static_star(4, 10)
        assert network_causal_diameter(sc.seq, (1, 10)) == 1

    def test_reversing_line_roots_flip(self):
        sc = gen_reversing_line(5, 3, 20)
        assert root_components(sc.seq.round(3)) == (frozenset({0}),)
        assert root_components(sc.seq.round(4)) == (frozenset({4}),)
        intervals = [(a, b) for a, b, _ in vertex_stable_intervals(sc.seq)]
        assert intervals == [(1, 3), (4, 20)]


class TestTwoRoots:
    def test_two_roots_every_round(self):
        sc = gen_two_roots(2, 2, 60)
        for r in (1, 30, 60):
            assert len(root_components(sc.seq.round(r))) == 2

    def test_inputs_split_by_component(self):
        sc = gen_two_roots(3, 2, 10)
        assert sc.inputs == (0, 0, 0, 1, 1, 0)

    def test_find_r_st_none(self):
        sc = gen_two_roots(2, 2, 60)
        report = find_r_st(sc.seq, sc.d_bound)
        assert report.r_st is None and report.multi_root_rounds


class TestCompleteThenRings:
    def test_shape(self):
        sc = gen_complete_then_rings()
        assert sc.n == 4 and sc.horizon == 3
        assert len(sc.seq.round(1).edges) == 12
        assert len(sc.seq.round(2).edges) == 4
        assert sc.seq.round(2) == sc.seq.round(3)


class TestShortWindow:
    def test_window_length_and_far_process(self):
        n, d = 7, 3
        sc = gen_short_window(n, d, horizon=12, r_st=3)
        stable = [
            (a, b)
            for a, b, members in vertex_stable_intervals(sc.seq)
            if members == frozenset({0})
        ]
        assert stable == [(3, 3 + d - 1)]
        # The far process sits at causal distance >= D from the root
        # throughout the window.
        for r in range(3, 3 + d):
            assert causal_distance(sc.seq, r, 0, n - 1) >= d

    def test_window_one_round_too_short(self):
        # One root component over exactly [3, 4], D = 2 rounds, and every
        # stable run is D-bounded; the 4D + 2 window search finds nothing.
        sc = gen_short_window(6, 2, horizon=10, r_st=3)
        roots = sc.facts.roots
        window = roots[2]
        assert len(window) == 1 and roots[3] == window
        assert roots[1] != window and roots[4] != window
        assert sc.facts.unbounded_intervals == []
        assert sc.facts.r_st is None

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            gen_short_window(3, 2, horizon=10)  # n < D + 2


class TestExpander:
    def test_root_is_r_every_round(self):
        sc = gen_expander(seed=1, n=64, root_size=8, horizon=6)
        for r in range(1, 7):
            assert root_components(sc.seq.round(r)) == (frozenset(range(8)),)

    @pytest.mark.parametrize("root_size", [0, 17])
    def test_root_size_must_be_in_1_to_n(self, root_size):
        with pytest.raises(InfeasibleError, match=r"root_size must be in \[1, n\]"):
            gen_expander(seed=1, n=16, root_size=root_size, horizon=6)

    def test_networkx_loads_on_first_expander_call(self):
        # A fresh interpreter: importing the package and its CLI loads no
        # networkx; the first expander call does.
        code = (
            "import sys\n"
            "import dynconsensus, dynconsensus.cli\n"
            "if 'networkx' in sys.modules:\n"
            "    sys.exit('networkx loaded by the import')\n"
            "from dynconsensus import gen_expander\n"
            "gen_expander(1, 16, 4, 6)\n"
            "if 'networkx' not in sys.modules:\n"
            "    sys.exit('networkx not loaded by gen_expander')\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def _tags_agree_with_oracle(sc):
    """The tag rule `_scenario` enforces, restated against the oracle."""
    facts = find_r_st(sc.seq, sc.d_bound)
    tag, claimed = sc.meta["assumption"], sc.meta["claimed_r_st"]
    if tag == ASSUMPTION_1:
        assert facts.assumption_holds
    elif tag != ASSUMPTION_2:
        assert tag.startswith("VIOLATION(") and not facts.assumption_holds
    assert claimed is None or claimed == facts.r_st


class TestScenarioTags:
    def test_oracle_refuting_a_tag_raises(self):
        two = gen_two_roots(2, 2, 30)
        with pytest.raises(AssertionError, match="oracle refutes"):
            _scenario("two_roots", 0, two.n, two.d_bound, two.seq.rounds,
                      ASSUMPTION_1)
        stable = gen_stable_window(seed=1, n=6, d_bound=2, r_st=3)
        rounds = stable.seq.rounds
        with pytest.raises(AssertionError, match="oracle refutes"):
            _scenario("stable_window", 1, 6, 2, rounds,
                      violation("no_stable_window"))
        for claimed in (2, 4):
            with pytest.raises(AssertionError, match="oracle refutes"):
                _scenario("stable_window", 1, 6, 2, rounds, ASSUMPTION_1,
                          claimed)
        assert _scenario("stable_window", 1, 6, 2, rounds, ASSUMPTION_1,
                         3).meta == stable.meta

    @pytest.mark.parametrize("make, assumption, claimed_r_st", [
        (lambda: gen_static_line(5, 10), violation("assumption_1"), None),
        (lambda: gen_static_line(5, 20), ASSUMPTION_1, 1),
        (lambda: gen_static_star(4, 10), violation("assumption_1"), None),
        (lambda: gen_static_star(4, 20), ASSUMPTION_1, 1),
        (lambda: gen_reversing_line(5, 3, 20), violation("assumption_1"), None),
        (lambda: gen_reversing_line(3, 12, 20), ASSUMPTION_1, 1),
    ], ids=["line_short", "line_long", "star_short", "star_long",
            "reversing_early", "reversing_late"])
    def test_untagged_static_rounds_take_oracle_tags(self, make, assumption,
                                                     claimed_r_st):
        meta = make().meta
        assert meta["seed"] == 0
        assert meta["assumption"] == assumption
        assert meta["claimed_r_st"] == claimed_r_st

    @pytest.mark.parametrize("make", [
        lambda: gen_stable_window(seed=2, n=7, d_bound=3, r_st=4),
        lambda: gen_rotating_roots(seed=3, n=5, d_bound=2, horizon=20),
        lambda: gen_static_line(4, 16),
        lambda: gen_static_star(5, 8),
        lambda: gen_reversing_line(4, 5, 12),
        lambda: gen_two_roots(2, 3, 12),
        lambda: gen_complete_then_rings(),
        lambda: gen_short_window(6, 2, horizon=10, r_st=3),
        lambda: gen_expander(1, 16, 4, 12),
    ], ids=["stable_window", "rotating_roots", "static_line", "static_star",
            "reversing_line", "two_roots", "complete_then_rings",
            "short_window", "expander"])
    def test_every_generator_meta_obeys_the_rule(self, make):
        sc = make()
        assert {"generator", "seed", "assumption", "claimed_r_st"} <= set(sc.meta)
        _tags_agree_with_oracle(sc)


class TestScenarioFormat:
    def test_round_trip_identity(self, tmp_path):
        scenarios = [
            gen_stable_window(seed=1, n=5, d_bound=2, r_st=2),
            gen_two_roots(2, 2, 8),
            gen_complete_then_rings(),
        ]
        for i, sc in enumerate(scenarios):
            path = tmp_path / f"s{i}.json"
            scenario_save(sc, path)
            loaded = scenario_load(path)
            assert loaded.n == sc.n
            assert loaded.d_bound == sc.d_bound
            assert loaded.inputs == sc.inputs
            assert loaded.seq == sc.seq
            assert loaded.meta["generator"] == sc.meta["generator"]
            # The dict form, edges as tuples, loads without JSON too.
            assert scenario_from_dict(scenario_to_dict(sc)).seq == sc.seq

    def test_round_trip_keeps_every_meta_key(self, tmp_path):
        for key, sc in (
            ("kappa", gen_reversing_line(4, 5, 12)),
            ("measured_diameter", gen_expander(1, 16, 4, 12)),
        ):
            path = tmp_path / f"{key}.json"
            scenario_save(sc, path)
            meta = scenario_load(path).meta
            assert key in meta and meta == sc.meta

    def test_equal_rounds_share_one_graph(self, tmp_path):
        # 2,000 empty rounds on 2,000 processes, a 10 KB file, load into
        # one graph, not 2,000 with a pair of 2,000-entry masks each.
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({
            "n": 2000, "D": 1, "horizon": 2000, "inputs": [0] * 2000,
            "rounds": [[]] * 2000, "meta": {},
        }))
        rounds = scenario_load(empty).seq.rounds
        assert len(rounds) == 2000
        assert all(g is rounds[0] for g in rounds)

        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps({
            "n": 2, "D": 1, "horizon": 3, "inputs": [0, 1],
            "rounds": [[[0, 1]], [[1, 0]], [[0, 1]]], "meta": {},
        }))
        a, b, c = scenario_load(mixed).seq.rounds
        assert a is c and a != b

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioParseError):
            scenario_load(bad)

        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"n": 2}))
        with pytest.raises(ScenarioParseError, match="missing field"):
            scenario_load(missing)

        loop = tmp_path / "loop.json"
        loop.write_text(
            json.dumps(
                {
                    "n": 2,
                    "D": 1,
                    "horizon": 1,
                    "inputs": [0, 1],
                    "rounds": [[[0, 0]]],
                    "meta": {},
                }
            )
        )
        with pytest.raises(ScenarioParseError, match="rounds"):
            scenario_load(loop)

        # Integer fields reject floats and booleans instead of truncating
        # them or failing later in the oracle or the engine.
        good = {"n": 2, "D": 1, "horizon": 2, "inputs": [0, 1],
                "rounds": [[[0, 1]], [[1, 0]]], "meta": {}}
        not_pair = r"rounds\[1\]: edge must be a \[u, v\] pair"
        for key, value, match in [
            ("horizon", 2.0, "horizon"),
            ("D", 1.0, "field D"),
            ("D", True, "field D"),
            ("inputs", [0, True], "inputs"),
            ("rounds", [[[0.5, 1]], [[1, 0]]], r"rounds\[1\]"),
            ("rounds", [[[0, 1]], [[1, False]]], r"rounds\[2\]"),
            # A meta that is not an object, or an edge that is not a pair,
            # is refused instead of being coerced or unpacked.
            ("meta", [["seed", 1]], "field meta must be an object"),
            ("meta", [], "field meta must be an object"),
            ("meta", "", "field meta must be an object"),
            ("meta", "ab", "field meta must be an object"),
            ("rounds", [[[0]], [[1, 0]]], not_pair),
            ("rounds", [[{"a": 1}], [[1, 0]]], not_pair),
            ("rounds", [[0, 1, 2], [[1, 0]]], not_pair),
            ("rounds", [[[0, 1]], {}], r"rounds\[2\]: edge set must be a list"),
            # A repeated edge is refused, not collapsed into one.
            ("rounds", [[[0, 1], [0, 1]], [[1, 0]]],
             r"^rounds\[1\]: duplicate edge 0->1$"),
            ("rounds", [[[0, 1]], [[1, 0], [0, 1], [1, 0]]],
             r"^rounds\[2\]: duplicate edge 1->0$"),
            # A round whose edge set an earlier round already has is
            # checked for repeats on its own.
            ("rounds", [[[0, 1]], [[0, 1], [0, 1]]],
             r"^rounds\[2\]: duplicate edge 0->1$"),
        ]:
            typed = tmp_path / "typed.json"
            typed.write_text(json.dumps({**good, key: value}))
            with pytest.raises(ScenarioParseError, match=match):
                scenario_load(typed)
