"""Golden traces: the sha256 of every whole saved trace file (header, round
lines and the verdict footer) on a fixed corpus of unpruned scenarios.

The corpus is acceptance 9's 20 scenarios plus one small scenario per
generator.  A refactor that changes any protocol record or any verdict of
these runs changes a digest.  After an intended change of trace bytes,
regenerate the data file with

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from dynconsensus import (
    ExpanderConfig,
    gen_complete_then_rings,
    gen_expander,
    gen_reversing_line,
    gen_rotating_roots,
    gen_short_window,
    gen_stable_window,
    gen_static_line,
    gen_static_star,
    gen_two_roots,
    run,
    run_checkers,
    trace_save,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_traces.json"


def _acceptance_9(i):
    if i % 4:
        return gen_stable_window(seed=i, n=4 + i % 5, d_bound=2, r_st=2 + i % 3)
    return gen_rotating_roots(seed=i, n=4 + i % 5, d_bound=2, horizon=20)


CORPUS = {
    **{f"acceptance9_{i:02d}": (lambda i=i: _acceptance_9(i)) for i in range(20)},
    "stable_window": lambda: gen_stable_window(seed=1, n=5, d_bound=2, r_st=3),
    "rotating_roots": lambda: gen_rotating_roots(seed=1, n=4, d_bound=2,
                                                 horizon=15),
    "static_line": lambda: gen_static_line(4, 20),
    "static_star": lambda: gen_static_star(4, 20),
    "reversing_line": lambda: gen_reversing_line(4, 3, 20),
    "two_roots": lambda: gen_two_roots(2, 2, 20),
    "complete_then_rings": lambda: gen_complete_then_rings(6),
    "short_window": lambda: gen_short_window(6, 2, 12),
    "expander": lambda: gen_expander(
        ExpanderConfig(n=16, root_size=4, degree=4), seed=1, horizon=12
    ),
}


def trace_digest(name, workdir):
    """sha256 of the whole trace file of one unpruned, fully checked run."""
    trace = run(CORPUS[name]())
    run_checkers(trace, full=True)
    path = Path(workdir) / f"{name}.jsonl"
    trace_save(trace, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_corpus_matches_data_file(golden):
    assert sorted(golden) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_trace_bytes_unchanged(name, golden, tmp_path):
    assert trace_digest(name, tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: trace_digest(name, tmp) for name in sorted(CORPUS)}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}", file=sys.stderr)
