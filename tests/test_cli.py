import pytest

from dynconsensus.cli import main


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
    ["--gen", "stable_window", "--window-len", "3"],
    ["--gen", "stable_window", "--n", "2", "--d", "1", "--seed", "4"],
    ["--gen", "static_line", "--horizon", "0"],
    ["--gen", "rotating_roots", "--d", "0", "--horizon", "5"],
    ["--gen", "static_star", "--horizon", "5", "--out", "missing/sc.json"],
])
def test_generate_usage_errors_exit_2(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if "--out" not in flags:
        flags = flags + ["--out", "sc.json"]
    code = main(["generate"] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.strip()


def test_run_prune_static_star_passes(tmp_path, capsys):
    sc = tmp_path / "star.json"
    assert main(["generate", "--gen", "static_star", "--n", "4",
                 "--horizon", "30", "--out", str(sc)]) == 0
    capsys.readouterr()
    code = main(["run", "--scenario", str(sc), "--prune"])
    out = capsys.readouterr().out
    assert code == 0
    assert "approx: pass" in out and "RESULT: PASS" in out


def test_bad_flags_are_usage_errors(capsys):
    assert main(["frobnicate"]) == 2
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

    assert main(["oracle", "--scenario", str(sc), "nonsense"]) == 2
    capsys.readouterr()


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
