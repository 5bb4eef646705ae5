"""repro — litmus tests for comparing memory consistency models.

A reproduction of Mador-Haim, Alur and Martin, *"Litmus Tests for Comparing
Memory Consistency Models: How Long Do They Need to Be?"* (DAC 2011 /
UPenn MS-CIS-11-04).

The package provides:

* a litmus-test IR and execution semantics (:mod:`repro.core`);
* memory models as must-not-reorder functions, a catalog of hardware models
  and the paper's 90-model parametric family (:mod:`repro.core`);
* admissibility checking via explicit enumeration or a built-in SAT solver
  (:mod:`repro.checker`, :mod:`repro.sat`);
* a batched, cached, incremental checking engine behind every comparison
  and exploration entry point (:mod:`repro.engine`);
* litmus-test generation from the seven templates of Figure 2
  (:mod:`repro.generation`);
* model comparison, exploration of model spaces and minimal distinguishing
  test sets (:mod:`repro.comparison`);
* a sharded, resumable exhaustive-enumeration pipeline proving the
  template suite's completeness (:mod:`repro.pipeline`);
* a litmus text format and a command-line interface (:mod:`repro.io`,
  :mod:`repro.cli`).

Quickstart::

    from repro import TSO, SC, TEST_A, is_allowed
    assert is_allowed(TEST_A, TSO) and not is_allowed(TEST_A, SC)
"""

from repro.core import (
    ALPHA,
    IBM370,
    PSO,
    RMO,
    SC,
    TSO,
    X86,
    Branch,
    Execution,
    Fence,
    LitmusTest,
    Load,
    MemoryModel,
    Op,
    ParametricModel,
    Program,
    ReorderOption,
    Store,
    Thread,
    model_space,
    named_models,
    parse_formula,
)
from repro.checker import (
    CheckResult,
    ExplicitChecker,
    OutcomeSet,
    SatChecker,
    allowed_outcomes,
    is_allowed,
)
from repro.comparison import (
    ModelComparator,
    Relation,
    compare_models,
    explore_models,
    find_minimal_distinguishing_set,
    verify_distinguishing_set,
)
from repro.engine import CheckEngine, EngineStats
from repro.generation import (
    L_TESTS,
    TEST_A,
    all_named_tests,
    corollary1_count,
    generate_suite,
    segment_counts,
)
from repro.compile import CompiledModel, compile_model
from repro.io import (
    litmus_to_text,
    parse_litmus,
    parse_litmus_file,
    parse_model_file,
    write_litmus_file,
    write_model_file,
)
from repro.pipeline import (
    EquivalenceReport,
    PipelineConfig,
    canonical_key,
    canonicalize,
    run_pipeline,
)
from repro.api import (
    BatchResult,
    CheckRequest,
    CompareRequest,
    ExhaustiveRequest,
    ExploreRequest,
    ModelRegistry,
    OutcomesRequest,
    Session,
    TestRegistry,
    UnknownModelError,
    UnknownTestError,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # core
    "Program",
    "Thread",
    "Load",
    "Store",
    "Fence",
    "Op",
    "Branch",
    "LitmusTest",
    "Execution",
    "MemoryModel",
    "ParametricModel",
    "ReorderOption",
    "model_space",
    "named_models",
    "parse_formula",
    "SC",
    "TSO",
    "X86",
    "PSO",
    "RMO",
    "IBM370",
    "ALPHA",
    # checking
    "ExplicitChecker",
    "SatChecker",
    "CheckResult",
    "OutcomeSet",
    "is_allowed",
    "allowed_outcomes",
    # public API sessions
    "Session",
    "BatchResult",
    "ModelRegistry",
    "TestRegistry",
    "UnknownModelError",
    "UnknownTestError",
    "CheckRequest",
    "CompareRequest",
    "ExploreRequest",
    "OutcomesRequest",
    "ExhaustiveRequest",
    # engine
    "CheckEngine",
    "EngineStats",
    # exhaustive-enumeration pipeline
    "EquivalenceReport",
    "PipelineConfig",
    "canonical_key",
    "canonicalize",
    "run_pipeline",
    # comparison
    "ModelComparator",
    "Relation",
    "compare_models",
    "explore_models",
    "find_minimal_distinguishing_set",
    "verify_distinguishing_set",
    # generation
    "TEST_A",
    "L_TESTS",
    "all_named_tests",
    "generate_suite",
    "segment_counts",
    "corollary1_count",
    # compile
    "CompiledModel",
    "compile_model",
    # io
    "parse_litmus",
    "parse_litmus_file",
    "litmus_to_text",
    "write_litmus_file",
    "parse_model_file",
    "write_model_file",
]
