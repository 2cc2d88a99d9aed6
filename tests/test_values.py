"""Value semantics of the classes the simulator passes around: which are
equal by field, which are hashable, and what their constructors check.
Importing the package must not load `dataclasses` or `inspect`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynconsensus
from dynconsensus import (
    ApproxState,
    CheckerVerdict,
    ConsensusState,
    GraphSequence,
    RoundGraph,
    Scenario,
    StabilityReport,
    Trace,
    approx_init,
    find_r_st,
    run,
    run_checkers,
)
from dynconsensus import adversary
from dynconsensus.harness import RoundRecord


def line(n=3, horizon=12, d=2, meta=None):
    g = RoundGraph(n, [(p, p + 1) for p in range(n - 1)])
    return Scenario(d_bound=d, inputs=tuple(range(n)),
                    seq=GraphSequence(n, [g] * horizon), meta=meta)


def test_approx_state_equality_ignores_ok():
    known = approx_init(1, 4)
    built = ApproxState(1, [1], 0, 0, 16)
    assert known._ok and not built._ok
    assert known == built
    assert built.vertices == frozenset({1})
    assert built != ApproxState(1, [1], 0, 0, 25)
    assert built != ApproxState(1, [0, 1], 0, 0, 16)
    assert built != ApproxState(1, [1], 1 << 17, 0, 16)
    assert built != ApproxState(1, [1], 0, 1, 16)
    with pytest.raises(TypeError):
        hash(built)


def test_consensus_state_is_a_hashable_value():
    a = ConsensusState(x=3, locked=True, lock_round=2)
    assert a == ConsensusState(3, True, 2, None)
    assert hash(a) == hash(ConsensusState(3, True, 2, None))
    assert a != ConsensusState(x=3, locked=True, lock_round=2, decision=(3, 4))
    assert not a.decided
    assert ConsensusState(x=3, decision=(3, 4)).decided
    assert len({a, ConsensusState(3, True, 2), ConsensusState(4)}) == 2


def test_checker_verdict_is_a_hashable_value():
    v = CheckerVerdict("lock", "skipped", witness="no decisions")
    assert v == CheckerVerdict("lock", "skipped", "no decisions")
    assert hash(v) == hash(CheckerVerdict("lock", "skipped", "no decisions"))
    assert v != CheckerVerdict("lock", "pass", "no decisions")
    assert CheckerVerdict("agreement", "pass").witness is None
    assert v.ok and not CheckerVerdict("lock", "fail").ok


def test_stability_report_is_equal_by_field():
    sc = line()
    report = find_r_st(sc.seq, sc.d_bound)
    assert report == find_r_st(sc.seq, sc.d_bound)
    assert report.assumption_holds
    for i in range(len(report)):
        changed = list(report)
        changed[i] = "changed"
        assert StabilityReport(*changed) != report


def test_round_record_and_trace_are_equal_by_field():
    sc = line()
    trace, again = run(sc), run(sc)
    assert trace.records and trace.decisions
    assert trace == again
    rec = trace.records[0]
    assert rec == RoundRecord(*rec)
    assert rec != RoundRecord(*rec[:3], [])

    run_checkers(trace)
    assert trace != again
    run_checkers(again)
    assert trace == again
    assert trace != Trace(sc, trace.records, trace.decisions,
                          trace.verdicts, pruned=True)
    assert trace != Trace(line(meta={"seed": 1}), trace.records,
                          trace.decisions, trace.verdicts)
    fresh = Trace(sc)
    assert fresh.records == [] and fresh.records is not Trace(sc).records


def test_scenario_is_equal_by_field():
    sc = line(meta={"seed": 0})
    assert sc == line(meta={"seed": 0})
    assert line().meta == {}
    assert sc != line(meta={"seed": 1})
    assert sc != line(horizon=9, meta={"seed": 0})
    assert sc != line(d=1, meta={"seed": 0})
    assert sc != Scenario(d_bound=2, inputs=(0, 1, 1), seq=sc.seq,
                          meta={"seed": 0})
    with pytest.raises(TypeError):
        hash(sc)


def test_scenario_checks_inputs_and_d():
    seq = line().seq
    with pytest.raises(ValueError, match="one value per process"):
        Scenario(d_bound=1, inputs=(0, 1), seq=seq)
    for d in (0, 3):
        with pytest.raises(ValueError, match="1 <= D <= n-1"):
            Scenario(d_bound=d, inputs=(0, 1, 2), seq=seq)


def test_scenario_facts_computed_once(monkeypatch):
    calls = []

    def counting(seq, d_bound):
        calls.append(d_bound)
        return find_r_st(seq, d_bound)

    monkeypatch.setattr(adversary, "find_r_st", counting)
    sc = line()
    first = sc.facts
    assert sc.facts is first
    assert calls == [2]
    assert first == find_r_st(sc.seq, sc.d_bound)


def test_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; before = set(sys.modules); import dynconsensus; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(dynconsensus.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "dynconsensus" in out
    assert "dataclasses" not in out
    assert "inspect" not in out
