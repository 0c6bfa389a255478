"""Deterministic simulator and verifier for a self-stabilizing maximal
matching protocol under sequential, synchronous and distributed daemons."""

from .graph import Graph, GraphFormatError, check_distance2_unique, generate, read_graph, write_graph
from .protocol import (
    Configuration,
    ConfigFormatError,
    PredicateClass,
    Rule,
    RuleSemantics,
    STANDARD,
    classify,
    command_target,
    enabled_rule,
    enabled_rules,
    parse_configuration,
    pr_married,
    random_configuration,
)
from .scheduler import (
    DaemonPolicy,
    Move,
    SchedulerState,
    StepRecord,
    Trace,
    TraceFormatError,
    apply_step,
    default_step_cap,
    parse_trace,
    run,
    select,
    trace_from_schedule,
    write_trace,
)
from .verifier import (
    AuditReport,
    CorruptTraceError,
    SearchResult,
    audit_trace,
    check_maximal,
    exhaustive_search,
    extract_matching,
    witness_trace,
)

__version__ = "0.1.0"
