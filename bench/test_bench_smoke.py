"""Smoke test of the benchmark's own code: every workload, shrunk to two
small scenarios, prints every metric BENCHMARK.json names with its unit, and
a corrupted trace digest or a forged decision counts as a failed scenario."""

import dataclasses
import functools
import json

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    make = workload.make
    if workload.name == "long_pruned":
        make = functools.partial(run.long_pruned_scenario, n=6, horizon=30)
    return dataclasses.replace(workload, make=make, corpus=2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_prints_every_metric(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.bench(tiny(run.WORKLOADS[name]), seed=1, seconds=0,
                       trace=trace)
    out = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = {
        m["name"]: m["unit"]
        for m in BENCHMARK["per_layer" if trace else "end_to_end"]
    }
    if not trace:
        expected.update(failed_ratio="ratio", checker_false_fail_ratio="ratio")
    printed = {
        line.split(" = ")[0]: line.rsplit(" ", 1)[1]
        for line in out.splitlines()
        if " = " in line
    }
    assert printed == expected
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"]
        for m in BENCHMARK["per_layer" if trace else "end_to_end"]
    }


def test_traced_counters_repeat_exactly(capsys):
    workload = tiny(run.WORKLOADS["long_pruned"])
    first, second = (
        run.bench(workload, seed=1, seconds=0, trace=1)["metrics"]
        for _ in range(2)
    )
    counters = [k for k, v in first.items() if v["unit"] != "s"]
    counters.remove("tracing.overhead_ratio")
    assert {k: first[k] for k in counters} == {k: second[k] for k in counters}


def test_corrupted_digest_counts_as_failed(tmp_path):
    workload = run.WORKLOADS["sweep_full"]
    tally = run.Tally(workload, run.DEFAULT_SEED, tmp_path)
    tally.attempt(0)
    assert tally.failed == 0
    tally.golden = ["0" * 64] * workload.corpus
    tally.attempt(0)
    assert tally.failed == 1


def test_forged_decision_counts_as_failed(tmp_path, monkeypatch):
    real = run.run_scenario

    def forged(*args):
        row, trace = real(*args)
        p = min(trace.decisions)
        value, r = trace.decisions[p]
        trace.decisions[p] = (value + 1000, r)
        return row, trace

    monkeypatch.setattr(run, "run_scenario", forged)
    tally = run.Tally(run.WORKLOADS["sweep_full"], 1, tmp_path)
    tally.attempt(0)
    assert tally.failed == 1
