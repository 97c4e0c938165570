"""Metric temporal logic trace checking.

The package evaluates metric temporal logic formulas over timed words —
finite sequences of (atom set, integer timestamp) elements with strictly
increasing, positive timestamps.  It offers:

- a reference evaluator for the standard point-based semantics and for a
  lazy semantics over arbitrary integer instants (:mod:`.semantics`);
- a translation from the point-based to the lazy reading and a window
  decomposition that rewrites formulas so no temporal window is wider
  than a chosen budget (:mod:`.transforms`);
- a MapReduce-style checking pipeline whose peak window footprint is
  controlled by that budget (:mod:`.engine`);
- trace parsing and pseudo-random trace generation (:mod:`.trace`);
- a command-line interface (``mtlcheck``).
"""

from .formula import (
    Act,
    And,
    Atom,
    Eventually,
    ExactStep,
    Formula,
    FormulaError,
    FormulaTable,
    Globally,
    Interval,
    Not,
    Or,
    Until,
    analyze,
    parse_formula,
    singleton,
    to_text,
)
from .trace import (
    GeneratorConfig,
    TimedWord,
    TraceError,
    generate_trace,
    parse_trace,
    parse_trace_lines,
    word,
)
from .semantics import (
    ANCHOR_FIRST,
    ANCHOR_ZERO,
    LAZY,
    POINT,
    EvalTable,
    EvaluationError,
    eval_lazy,
    eval_point,
    eval_table,
    verdict,
)
from .transforms import (
    TransformError,
    decompose,
    lazy_translation,
    max_bounded_upper,
    pipeline_formula,
    split_zero_window,
    strip_position_guards,
)
from .engine import (
    EngineError,
    PipelineResult,
    ReducerStats,
    RunStats,
    compute_offsets,
    input_read,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "Act",
    "And",
    "Atom",
    "Eventually",
    "ExactStep",
    "Formula",
    "FormulaError",
    "FormulaTable",
    "Globally",
    "Interval",
    "Not",
    "Or",
    "Until",
    "analyze",
    "parse_formula",
    "singleton",
    "to_text",
    "GeneratorConfig",
    "TimedWord",
    "TraceError",
    "generate_trace",
    "parse_trace",
    "parse_trace_lines",
    "word",
    "ANCHOR_FIRST",
    "ANCHOR_ZERO",
    "LAZY",
    "POINT",
    "EvalTable",
    "EvaluationError",
    "eval_lazy",
    "eval_point",
    "eval_table",
    "verdict",
    "TransformError",
    "decompose",
    "lazy_translation",
    "max_bounded_upper",
    "pipeline_formula",
    "split_zero_window",
    "strip_position_guards",
    "EngineError",
    "PipelineResult",
    "ReducerStats",
    "RunStats",
    "compute_offsets",
    "input_read",
    "run_pipeline",
    "__version__",
]
