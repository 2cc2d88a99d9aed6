"""Deterministic simulator and verification harness for consensus in
synchronous dynamic directed networks."""

from .graphs import (
    INFINITY,
    GraphSequence,
    MultipleRootsError,
    NotVertexStableError,
    OutOfRangeError,
    RootReport,
    RoundGraph,
    StabilityReport,
    StableIntervalReport,
    causal_distance,
    check_d_bounded,
    find_r_st,
    network_causal_diameter,
    root_components,
    scc_causal_diameter,
    scc_decompose,
    vertex_stable_intervals,
)
from .approximation import (
    ApproxMessage,
    ApproxState,
    MalformedMessageError,
    approx_absorb,
    approx_emit,
    approx_init,
    approx_prune,
    approx_restrict,
    detected_component,
    in_stable_root,
)
from .consensus import (
    ConsensusState,
    DecideMessage,
    LockMessage,
    PackedMessage,
    cons_emit,
    cons_init,
    cons_step,
    pack,
)
from .adversary import (
    ExpanderConfig,
    InfeasibleError,
    Scenario,
    ScenarioParseError,
    gen_complete_then_rings,
    gen_expander,
    gen_reversing_line,
    gen_rotating_roots,
    gen_short_window,
    gen_stable_window,
    gen_static_line,
    gen_static_star,
    gen_two_roots,
    sampled_expansion,
    scenario_load,
    scenario_save,
)
from .harness import (
    CheckerVerdict,
    Trace,
    batch,
    check_agreement,
    check_approx_invariants,
    check_lock_discipline,
    check_termination_bound,
    check_validity,
    report_csv,
    run,
    run_checkers,
    summarize,
    trace_save,
)

__version__ = "0.1.0"
