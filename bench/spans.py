"""Span tracing for the benchmark's traced run.

`traced(tracer)` swaps every module attribute that names one of the traced
library functions for a wrapper that opens a span around the call, so the
library's own cross-module calls (`harness.find_r_st`, `adversary.find_r_st`,
`ap.approx_absorb`, ...) are timed without changing any file under `src/`.

A span holds its name, its start, the time covered by its child spans and,
through the open-span stack, its parent; at its end it is folded into
per-name totals rather than kept, because the approximation checker opens
hundreds of thousands of spans per long scenario.  Self time is a span's
duration minus the part its child spans cover.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import dynconsensus
from dynconsensus import adversary, approximation, cli, consensus, graphs, harness

# Span name -> (module, functions).  Every public generator counts as one
# "adversary.generate" span.
SPANS = {
    "adversary.generate": (
        adversary,
        sorted(name for name in vars(adversary) if name.startswith("gen_")),
    ),
    "graphs.find_r_st": (graphs, ["find_r_st"]),
    "graphs.root_components": (graphs, ["root_components"]),
    "approximation.absorb": (approximation, ["approx_absorb"]),
    "approximation.in_stable_root": (approximation, ["in_stable_root"]),
    "approximation.detected_component": (approximation, ["detected_component"]),
    "approximation.restrict": (approximation, ["approx_restrict"]),
    "approximation.prune": (approximation, ["approx_prune"]),
    "consensus.step": (consensus, ["cons_step"]),
    "harness.run": (harness, ["run"]),
    "harness.approx_digest": (harness, ["approx_digest"]),
    "harness.check_agreement": (harness, ["check_agreement"]),
    "harness.check_validity": (harness, ["check_validity"]),
    "harness.check_termination_bound": (harness, ["check_termination_bound"]),
    "harness.check_approx_invariants": (harness, ["check_approx_invariants"]),
    "harness.check_lock_discipline": (harness, ["check_lock_discipline"]),
    "harness.trace_save": (harness, ["trace_save"]),
}

# Every module that may hold a reference to a traced function.
MODULES = (dynconsensus, graphs, approximation, consensus, adversary, harness, cli)


class Tracer:
    """Per-span-name totals plus the layer counters of one traced run."""

    def __init__(self):
        self.stack = []  # open spans: [name, start_ns, child_ns]
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.calls = Counter()
        # (outermost open span, span) -> calls; splits a function's calls
        # between the engine (harness.run) and the checkers.
        self.calls_under = Counter()
        self.messages = 0
        self.label_bits = 0
        self.label_bits_max = 0
        self._bits_round = None
        self._bits_of = {}  # id(snapshot) -> (snapshot, popcount), one round

    def wrap(self, name, fn, hook=None):
        stack = self.stack

        def traced_call(*args, **kwargs):
            if hook is not None:
                # Counter work is charged to no span.
                t0 = perf_counter_ns()
                hook(*args, **kwargs)
                if stack:
                    stack[-1][2] += perf_counter_ns() - t0
            frame = [name, perf_counter_ns(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - frame[1]
                stack.pop()
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                    self.calls_under[stack[0][0], name] += 1
                else:
                    self.calls_under[name, name] += 1

        return traced_call

    def _on_absorb(self, state, r, received):
        """Label bits of each delivered snapshot: the paper's message cost."""
        if r != self._bits_round:
            self._bits_round = r
            self._bits_of = {}
        for msg in received:
            snapshot = msg.graph
            entry = self._bits_of.get(id(snapshot))
            if entry is None:
                bits = sum(mask.bit_count() for mask in snapshot.edges.values())
                # Holding the snapshot keeps its id from being reused.
                entry = self._bits_of[id(snapshot)] = (snapshot, bits)
            self.label_bits += entry[1]
            if entry[1] > self.label_bits_max:
                self.label_bits_max = entry[1]

    def _on_step(self, state, r, received, *args, **kwargs):
        self.messages += len(received)

    def hooks(self):
        return {
            "approximation.absorb": self._on_absorb,
            "consensus.step": self._on_step,
        }


@contextmanager
def traced(tracer):
    """Route every traced function through `tracer` until the block exits."""
    hooks = tracer.hooks()
    wrappers = {}
    for name, (module, functions) in SPANS.items():
        for fn_name in functions:
            fn = getattr(module, fn_name)
            wrappers[id(fn)] = tracer.wrap(name, fn, hooks.get(name))
    patched = []
    try:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
