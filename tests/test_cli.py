import contextlib
import csv
import inspect
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from dynconsensus import adversary
from dynconsensus.adversary import _is_int
from dynconsensus.cli import build_parser, main

GENERATORS = sorted(name[4:] for name in vars(adversary)
                    if name.startswith("gen_"))


def test_generate_and_run_pass(tmp_path, capsys):
    sc = tmp_path / "sc.json"
    code = main([
        "generate", "--gen", "stable_window", "--n", "6", "--d", "2",
        "--seed", "3", "--r-st", "4", "--out", str(sc),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "r_ST=4" in out
    assert "assumption_holds=True" in out

    trace = tmp_path / "trace.jsonl"
    code = main(["run", "--scenario", str(sc), "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT: PASS" in out
    assert trace.exists()


def test_run_two_roots_fails_agreement(tmp_path, capsys):
    sc = tmp_path / "two.json"
    assert main([
        "generate", "--gen", "two_roots", "--n0", "2", "--n1", "2",
        "--horizon", "40", "--out", str(sc),
    ]) == 0
    capsys.readouterr()
    code = main(["run", "--scenario", str(sc), "--quick"])
    out = capsys.readouterr().out
    assert code == 1
    assert "agreement: fail" in out
    assert "RESULT: FAIL" in out
    line = next(l for l in out.splitlines() if l.startswith("agreement: fail"))
    witness = json.loads(line.split(" witness=", 1)[1])
    assert len(witness["values"]) == 2


def test_generate_prints_minimal_unbounded_intervals(tmp_path, capsys):
    # One ring round per entry: the intervals (x, x + D - 1) that are not
    # D-bounded, not every failing sub-interval of the ring run.
    code = main([
        "generate", "--gen", "complete_then_rings", "--horizon", "6",
        "--out", str(tmp_path / "rings.json"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "assumption_holds=False" in out.splitlines()
    assert ("unbounded_intervals=[(2, 2), (3, 3), (4, 4), (5, 5), (6, 6)]"
            in out.splitlines())


def test_missing_scenario_is_usage_error(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.json")])
    capsys.readouterr()
    assert code == 2


def test_infeasible_generate(tmp_path, capsys):
    code = main([
        "generate", "--gen", "stable_window", "--n", "3", "--d", "5",
        "--out", str(tmp_path / "x.json"),
    ])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("flags", [
    ["--gen", "rotating_roots"],
    ["--gen", "static_line"],
    ["--gen", "static_star"],
    ["--gen", "reversing_line"],
    ["--gen", "two_roots"],
    ["--gen", "short_window", "--n", "6"],
    ["--gen", "expander", "--n", "16", "--root-size", "4"],
    ["--gen", "stable_window", "--n", "2", "--d", "1", "--seed", "4"],
    ["--gen", "static_line", "--horizon", "0"],
    ["--gen", "rotating_roots", "--d", "0", "--horizon", "5"],
    ["--gen", "static_star", "--horizon", "5", "--out", "missing/sc.json"],
    ["--gen", "short_window", "--n", "6", "--d", "2", "--horizon", "14",
     "--r-st", "0"],
    ["--gen", "complete_then_rings", "--horizon", "0"],
    # A zero horizon is refused by every generator that takes one.
    ["--gen", "rotating_roots", "--horizon", "0"],
    ["--gen", "static_star", "--horizon", "0"],
    ["--gen", "reversing_line", "--horizon", "0"],
    ["--gen", "two_roots", "--horizon", "0"],
    ["--gen", "short_window", "--n", "6", "--horizon", "0"],
    ["--gen", "expander", "--n", "16", "--root-size", "4", "--horizon", "0"],
    ["--gen", "stable_window", "--horizon", "0"],
    ["--gen", "expander", "--n", "8", "--root-size", "9", "--horizon", "5"],
    ["--gen", "nope"],
])
def test_generate_usage_errors_exit_2(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if "--out" not in flags:
        flags = flags + ["--out", "sc.json"]
    code = main(["generate"] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith(("infeasible: ", "io error: "))


def test_run_prune_static_star_passes(tmp_path, capsys):
    sc = tmp_path / "star.json"
    assert main(["generate", "--gen", "static_star", "--n", "4",
                 "--horizon", "30", "--out", str(sc)]) == 0
    capsys.readouterr()
    code = main(["run", "--scenario", str(sc), "--prune"])
    out = capsys.readouterr().out
    assert code == 0
    assert "approx: pass" in out and "RESULT: PASS" in out


def test_bad_flags_are_usage_errors(tmp_path, capsys):
    assert main(["frobnicate"]) == 2
    # The expander's degree is fixed; there is no flag for it.
    assert main(["generate", "--gen", "expander", "--n", "16",
                 "--root-size", "4", "--horizon", "6", "--degree", "4",
                 "--out", str(tmp_path / "x.json")]) == 2
    capsys.readouterr()


def test_oracle_queries(tmp_path, capsys):
    sc = tmp_path / "sc.json"
    main([
        "generate", "--gen", "static_line", "--n", "5", "--horizon", "20",
        "--out", str(sc),
    ])
    capsys.readouterr()

    assert main(["oracle", "--scenario", str(sc), "cd", "2", "2", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"

    assert main(["oracle", "--scenario", str(sc), "cd", "0", "4", "1"]) == 0
    assert capsys.readouterr().out.strip() == "4"

    assert main(["oracle", "--scenario", str(sc), "roots", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1: [[0]]"

    assert main(["oracle", "--scenario", str(sc), "rst"]) == 0
    assert capsys.readouterr().out.strip() == "1"

    assert main(["oracle", "--scenario", str(sc), "diam", "1", "20"]) == 0
    assert capsys.readouterr().out.strip() == "4"

    assert main(["oracle", "--scenario", str(sc), "nonsense"]) == 2
    capsys.readouterr()

    two = tmp_path / "two.json"
    main([
        "generate", "--gen", "two_roots", "--n0", "2", "--n1", "2",
        "--horizon", "10", "--out", str(two),
    ])
    capsys.readouterr()
    assert main(["oracle", "--scenario", str(two), "roots", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1: [[0, 1], [2, 3]]"


@pytest.mark.parametrize("query, form", [
    (["roots", "1", "2"], "roots [r]"),
    (["rst", "extra"], "rst"),
    (["cd", "0", "1"], "cd p q r"),
    (["cd", "0", "1", "2", "3"], "cd p q r"),
    (["diam", "1"], "diam r s"),
    (["diam", "1", "2", "3"], "diam r s"),
], ids=["roots-2-args", "rst-1-arg", "cd-2-args", "cd-4-args", "diam-1-arg",
        "diam-3-args"])
def test_oracle_wrong_argument_count_exits_2(tmp_path, capsys, query, form):
    sc = tmp_path / "sc.json"
    main([
        "generate", "--gen", "static_line", "--n", "5", "--horizon", "20",
        "--out", str(sc),
    ])
    capsys.readouterr()
    assert main(["oracle", "--scenario", str(sc), *query]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bad query: expected '{form}', got ")


def test_oracle_rst_none_on_two_roots(tmp_path, capsys):
    sc = tmp_path / "two.json"
    main(["generate", "--gen", "two_roots", "--horizon", "20",
          "--out", str(sc)])
    capsys.readouterr()
    assert main(["oracle", "--scenario", str(sc), "rst"]) == 0
    assert capsys.readouterr().out.strip() == "NONE"


def test_batch_and_report(tmp_path, capsys):
    csv1 = tmp_path / "a.csv"
    code = main([
        "batch", "--gen", "stable_window", "--count", "3", "--seed", "0",
        "--n", "5", "--d", "2", "--out", str(csv1),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenarios=3 failed=0" in out

    merged = tmp_path / "merged.csv"
    assert main(["report", str(csv1), "--out", str(merged)]) == 0
    capsys.readouterr()
    assert len(merged.read_text().splitlines()) == 4


BATCH_FLAGS = [
    ["--gen", "stable_window"],
    ["--gen", "rotating_roots", "--horizon", "15"],
    ["--gen", "static_line", "--horizon", "12"],
    ["--gen", "static_star", "--horizon", "12"],
    ["--gen", "reversing_line", "--horizon", "12"],
    ["--gen", "two_roots", "--horizon", "12"],
    ["--gen", "complete_then_rings"],
    ["--gen", "short_window", "--n", "6", "--horizon", "12"],
    ["--gen", "expander", "--n", "16", "--root-size", "4", "--horizon", "12"],
]


def test_batch_flags_cover_every_generator():
    assert sorted(flags[1] for flags in BATCH_FLAGS) == GENERATORS


@pytest.mark.parametrize("flags", BATCH_FLAGS, ids=lambda flags: flags[1])
def test_batch_every_generator(flags, tmp_path, capsys):
    # Two seeds where the generator takes one; one scenario otherwise.
    gen = getattr(adversary, "gen_" + flags[1])
    count = 2 if "seed" in inspect.signature(gen).parameters else 1
    out = tmp_path / "report.csv"
    code = main(["batch"] + flags + ["--count", str(count), "--full",
                                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert "Traceback" not in err
    assert len(out.read_text().splitlines()) == 1 + count


@pytest.mark.parametrize("flags, seeds", [
    (["--gen", "stable_window", "--seed", "5"], ["5", "6", "7"]),
    (["--gen", "rotating_roots", "--horizon", "6"], ["0", "1", "2"]),
    # A generator without a seed would make the same scenario each time.
    (["--gen", "static_star", "--horizon", "6"], None),
], ids=["seeded", "default-seed", "unseeded"])
def test_batch_scenario_i_uses_seed_plus_i(flags, seeds, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["batch", *flags, "--count", "3", "--out", str(out)])
    err = capsys.readouterr().err
    if seeds is None:
        assert code == 2 and not out.exists()
        assert err == ("infeasible: --gen static_star takes no seed, so "
                       "--count 3 would repeat one scenario\n")
        return
    assert code == 0
    with open(out, newline="") as fh:
        assert [row["seed"] for row in csv.DictReader(fh)] == seeds


def test_batch_needs_horizon(tmp_path, capsys):
    code = main(["batch", "--gen", "rotating_roots", "--count", "2",
                 "--out", str(tmp_path / "report.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "needs --horizon" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["batch", "--gen", "stable_window", "--count", "1",
     "--out", "missing/x.csv"],
    ["report", "in.csv", "--out", "missing/x.csv"],
    ["run", "--scenario", "sc.json", "--trace", "missing/t.jsonl"],
], ids=lambda argv: argv[0])
def test_write_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--gen", "static_star", "--horizon", "8",
                 "--out", "sc.json"]) == 0
    assert main(["batch", "--gen", "stable_window", "--count", "1",
                 "--out", "in.csv"]) == 0
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("io error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, data", [
    (["run", "--scenario", "bad"], b'{"n": "\xff\xfe"}\n'),
    (["oracle", "--scenario", "bad", "rst"], b"\xff\xfe{}\n"),
    (["report", "bad", "--out", "out.csv"], b"generator,seed\n\xff,0\n"),
    (["report", "bad", "--out", "out.csv"],
     b"generator,seed\n" + b"x" * 131_073 + b",0\n"),
    (["run", "--scenario", "bad"],
     b'{"n": 2, "D": 1, "horizon": 1, "inputs": [0, 1], "rounds": [[[0, 1]]],'
     b' "meta": [["seed", 1]]}\n'),
], ids=["run-not-utf8", "oracle-not-utf8", "report-not-utf8",
        "report-huge-field", "run-meta-not-object"])
def test_unreadable_input_is_parse_error(argv, data, tmp_path, monkeypatch,
                                         capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad").write_bytes(data)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("parse error:") and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "sc.json"],
    ["oracle", "--scenario", "sc.json", "rst"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("key, value", [
    ("horizon", 2.0),
    ("D", 1.0),
    ("rounds", [[[0.5, 1]], [[1, 0]]]),
], ids=["float-horizon", "float-D", "float-endpoint"])
def test_non_integer_fields_are_parse_errors(argv, key, value, tmp_path,
                                             monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = {"n": 2, "D": 1, "horizon": 2, "inputs": [0, 1],
            "rounds": [[[0, 1]], [[1, 0]]], "meta": {}}
    (tmp_path / "sc.json").write_text(json.dumps({**data, key: value}))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("parse error:")
    assert "Traceback" not in captured.err and not captured.out


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "sc.json"],
    ["oracle", "--scenario", "sc.json", "rst"],
], ids=lambda argv: argv[0])
def test_duplicate_edge_is_parse_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = {"n": 2, "D": 1, "horizon": 2, "inputs": [0, 1],
            "rounds": [[[0, 1]], [[1, 0], [1, 0]]], "meta": {}}
    (tmp_path / "sc.json").write_text(json.dumps(data))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == "parse error: rounds[2]: duplicate edge 1->0\n"


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "sc.json"],
    ["oracle", "--scenario", "sc.json", "rst"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("text, reason", [
    ("[" * 200_000, "invalid JSON: nested too deeply"),
    # Refused before any round graph is built: n sized lists would not fit.
    ('{"n": 1000000000000000000000000000000, "D": 1, "horizon": 1,'
     ' "inputs": [0, 1], "rounds": [[]], "meta": {}}',
     "field inputs must list one value per process"),
    ('{"n": 2, "D": 1, "horizon": 1, "inputs": [0, 1], "rounds": [[]],'
     ' "meta": {}, "seed": 3}', "unknown field: seed"),
], ids=["nested-brackets", "huge-n", "unknown-key"])
def test_malformed_scenario_file_is_parse_error(argv, text, reason, tmp_path,
                                                monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sc.json").write_text(text)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == f"parse error: {reason}\n"


def test_identical_invocations_identical_bytes(tmp_path, capsys):
    outs = []
    for name in ("x", "y"):
        sc = tmp_path / f"{name}.json"
        main([
            "generate", "--gen", "stable_window", "--n", "6", "--d", "2",
            "--seed", "12", "--r-st", "3", "--out", str(sc),
        ])
        outs.append((capsys.readouterr().out.replace(str(sc), "SC"),
                     sc.read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


@pytest.mark.parametrize("command", ["generate", "batch"])
@pytest.mark.parametrize("flags, refused", [
    (["--gen", "static_line", "--n", "5", "--d", "1", "--horizon", "10"],
     "gives D=4, not --d 1"),
    (["--gen", "complete_then_rings", "--n", "7"], "gives n=4, not --n 7"),
    (["--gen", "two_roots", "--n", "4", "--horizon", "10"],
     "gives n=5, not --n 4"),
    (["--gen", "static_line", "--n", "5", "--d", "4", "--horizon", "10"], None),
    (["--gen", "complete_then_rings", "--n", "4", "--d", "1"], None),
    (["--gen", "static_star", "--kappa", "9"],
     "--gen static_star does not take --kappa"),
    (["--gen", "expander", "--r-st", "3"],
     "--gen expander does not take --r-st"),
    (["--gen", "two_roots", "--root-size", "3"],
     "--gen two_roots does not take --root-size"),
    (["--gen", "static_line", "--seed", "3"],
     "--gen static_line does not take --seed"),
    (["--gen", "stable_window", "--n0", "2"],
     "--gen stable_window does not take --n0"),
    # The refusals come in this order: unknown generator, unread flag,
    # missing --horizon, the generator's own checks, --n/--d.
    (["--gen", "nope", "--kappa", "9"], "unknown generator: nope"),
    (["--gen", "static_line", "--seed", "3", "--n", "5", "--d", "1"],
     "does not take --seed"),
    (["--gen", "static_line", "--n", "5", "--d", "1"], "needs --horizon"),
    (["--gen", "static_line", "--n", "1", "--d", "1", "--horizon", "5"],
     "need n >= 2"),
], ids=["line-d", "rings-n", "two-roots-n", "line-d-fixed", "rings-fixed",
        "star-kappa", "expander-r-st", "two-roots-root-size", "line-seed",
        "window-n0", "unknown-first", "unread-before-horizon",
        "horizon-before-d", "own-check-before-d"])
def test_flags_a_generator_fixes(command, flags, refused, tmp_path,
                                 monkeypatch, capsys):
    # An explicit --n or --d that the generator cannot honour is refused;
    # one equal to the value it fixes is accepted.  Any other flag the
    # generator declares no parameter for is refused whenever it is given.
    monkeypatch.chdir(tmp_path)
    extra = ["--count", "1"] if command == "batch" else []
    code = main([command] + flags + extra + ["--out", "out"])
    captured = capsys.readouterr()
    if refused:
        assert code == 2
        assert captured.err.startswith("infeasible:") and refused in captured.err
        assert not (tmp_path / "out").exists()
    else:
        assert code in (0, 1) and "Traceback" not in captured.err
        assert (tmp_path / "out").exists()


def _generator_dests(command):
    extra = ["--count", "1"] if command == "batch" else []
    args = build_parser().parse_args([command, "--gen", "x", "--out", "o",
                                      *extra])
    return set(vars(args)) - {"command", "func", "gen", "out", "count",
                              "full"}


@pytest.mark.parametrize("command", ["generate", "batch"])
def test_every_generator_parameter_is_a_flag(command):
    # `--gen NAME` passes each parameter of `gen_NAME` by keyword from the
    # flag of that dest, so a parameter with no flag could not be set.
    dests = _generator_dests(command)
    for name in GENERATORS:
        params = inspect.signature(getattr(adversary, "gen_" + name)).parameters
        assert set(params) <= dests, name


@pytest.mark.parametrize("name", GENERATORS + ["nope", "", "scenario_load"])
def test_gen_accepts_exactly_the_adversary_generators(name, tmp_path, capsys):
    out = tmp_path / "sc.json"
    code = main(["generate", "--gen", name, "--horizon", "0",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()  # every generator refuses T = 0
    assert (err == f"infeasible: unknown generator: {name}\n") == (
        name not in GENERATORS)


def test_gen_help_lists_the_generators(capsys):
    assert main(["generate", "--help"]) == 0
    assert "one of: " + ", ".join(GENERATORS) in " ".join(
        capsys.readouterr().out.split())


def test_complete_then_rings_takes_the_library_horizon(tmp_path, capsys):
    sc = tmp_path / "rings.json"
    assert main(["generate", "--gen", "complete_then_rings",
                 "--out", str(sc)]) == 0
    assert "T=3" in capsys.readouterr().out
    assert adversary.scenario_load(sc).horizon == 3


def test_batch_negative_count_exits_2(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["batch", "--gen", "static_star", "--horizon", "10",
                 "--count", "-3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--count" in err and "Traceback" not in err
    assert not out.exists()


# The stderr prefix of every exit 2 the CLI gives on a file it reads.
REFUSALS = ("parse error: ", "bad query: ", "io error: ")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(-2, 8)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mutate(draw, data):
    """One mutation of a scenario dict, in place.  Most keep it plausible:
    D, n or an input set to a small int, an edge added or dropped, a round
    added or dropped with the horizon kept in step.  The rest are wild: a
    field or an edge endpoint replaced by any small JSON value, or a field
    deleted or added."""
    kind = draw(st.sampled_from(["D", "n", "input", "edge", "edge", "unedge",
                                 "round", "unround", "field", "endpoint",
                                 "delete", "add"]))
    rounds = data.get("rounds")
    edge_sets = ([r for r in rounds if isinstance(r, list)]
                 if isinstance(rounds, list) else [])
    if kind in ("D", "n"):
        data[kind] = draw(st.integers(-1, 6))
    elif kind == "input" and isinstance(data.get("inputs"), list):
        inputs = data["inputs"]
        if inputs and draw(st.booleans()):
            inputs[draw(st.integers(0, len(inputs) - 1))] = draw(
                st.integers(-3, 8) | json_values)
        elif inputs and draw(st.booleans()):
            inputs.pop()
        else:
            inputs.append(draw(st.integers(-3, 8)))
    elif kind == "edge" and edge_sets:
        draw(st.sampled_from(edge_sets)).append(
            [draw(st.integers(-1, 5)), draw(st.integers(-1, 5))])
    elif kind == "unedge" and any(edge_sets):
        edges = draw(st.sampled_from([e for e in edge_sets if e]))
        del edges[draw(st.integers(0, len(edges) - 1))]
    elif kind in ("round", "unround") and edge_sets:
        if kind == "round":
            rounds.append(list(draw(st.sampled_from(edge_sets))))
        else:
            rounds.pop()
        if _is_int(data.get("horizon")):
            data["horizon"] = len(rounds)
    elif kind == "field":
        data[draw(st.sampled_from(sorted(data) or ["n"]))] = draw(json_values)
    elif kind == "endpoint" and any(edge_sets):
        edge = draw(st.sampled_from([e for e in edge_sets if e]))[0]
        if isinstance(edge, list) and edge:
            edge[draw(st.integers(0, len(edge) - 1))] = draw(json_values)
    elif kind == "delete" and data:
        del data[draw(st.sampled_from(sorted(data)))]
    elif kind == "add":
        data[draw(st.text(max_size=3))] = draw(json_values)


@st.composite
def scenario_texts(draw):
    """The JSON text of a small valid scenario after one to three
    mutations, and now and then cut short or with a character replaced."""
    data = json.loads(draw(st.sampled_from(SMALL_SCENARIOS)))
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, data)
    text = json.dumps(data)
    cut = draw(st.none() | st.none() | st.none() | st.integers(0, len(text)))
    if cut is not None:
        if draw(st.booleans()):
            text = text[:cut]
        else:
            text = text[:cut] + draw(st.characters()) + text[cut + 1:]
    return text


def _scenario_json(gen, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sc.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["generate", "--gen", gen, *flags, "--out", path]) == 0
        with open(path) as fh:
            return fh.read()


SMALL_SCENARIOS = [
    _scenario_json("static_star", "--n", "3", "--horizon", "4"),
    _scenario_json("stable_window", "--n", "3", "--d", "1", "--r-st", "1"),
    _scenario_json("two_roots", "--horizon", "3"),
]

COMMANDS = [
    ["run"], ["run", "--prune"], ["run", "--quick"],
    ["run", "--prune", "--trace", "TRACE"],
    ["oracle", "rst"], ["oracle", "roots"], ["oracle", "roots", "2"],
    ["oracle", "cd", "0", "1", "1"], ["oracle", "diam", "1", "2"],
    ["oracle", "cd", "0", "x", "1"],
]


def _main(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(scenario_texts(), st.sampled_from(COMMANDS))
@settings(max_examples=300, deadline=None)
def test_fuzzed_scenario_files_keep_the_exit_code_contract(text, command):
    # Any exception escaping `main` fails the test.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sc.json")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        name, *rest = command
        rest = [os.path.join(tmp, "t.jsonl") if a == "TRACE" else a
                for a in rest]
        if name == "oracle":
            argv = ["oracle", "--scenario", path, *rest]
        else:
            argv = ["run", "--scenario", path, *rest]
        code, _, err = _main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith(REFUSALS), err


@st.composite
def report_texts(draw):
    """A batch report CSV with characters replaced, lines dropped or
    repeated, and fields added or emptied."""
    lines = REPORT_CSV.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["char", "drop", "repeat", "field"]))
        line = lines[i]
        if kind == "char" and line:
            j = draw(st.integers(0, len(line) - 1))
            lines[i] = line[:j] + draw(st.characters()) + line[j + 1:]
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, line)
        else:
            lines[i] = line.rstrip("\r\n") + draw(
                st.sampled_from([",", ",x", ',"', ',""'])) + "\n"
    return "".join(lines)


def _report_csv():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["batch", "--gen", "stable_window", "--n", "3", "--d", "1",
                  "--count", "2", "--out", path])
        with open(path, newline="") as fh:
            return fh.read()


REPORT_CSV = _report_csv()


@given(report_texts())
@settings(max_examples=100, deadline=None)
def test_fuzzed_report_csvs_keep_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.csv")
        with open(path, "w", encoding="utf-8", errors="surrogatepass",
                  newline="") as fh:
            fh.write(text)
        code, _, err = _main(["report", path, "--out",
                              os.path.join(tmp, "out.csv")])
    assert code in (0, 2)
    if code == 2:
        assert err.startswith(REFUSALS), err
