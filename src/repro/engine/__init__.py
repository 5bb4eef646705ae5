"""Batched, cached, incremental admissibility checking.

This package is the single entry point the comparison, exploration,
outcome-enumeration and CLI layers use to compute verdicts:

* :class:`~repro.engine.engine.CheckEngine` — owns the
  ``models × tests -> bool`` verdict-matrix computation, with per-test
  caching, an incremental assumption-based SAT mode, and
  :class:`~repro.engine.engine.EngineStats` reporting;
* :class:`~repro.engine.context.TestContext` — the per-test
  model-independent caches (execution, candidate spaces, CNF skeleton,
  persistent solver);
* :mod:`repro.engine.strategies` — the explicit / enumeration /
  incremental-SAT checking strategies beneath the engine.
"""

from repro.engine.context import TestContext
from repro.engine.engine import CheckEngine, EngineStats, VerdictVector
from repro.engine.strategies import (
    CheckStrategy,
    EnumerationStrategy,
    ExplicitStrategy,
    IncrementalSatStrategy,
    make_strategy,
)

__all__ = [
    "CheckEngine",
    "EngineStats",
    "VerdictVector",
    "TestContext",
    "CheckStrategy",
    "EnumerationStrategy",
    "ExplicitStrategy",
    "IncrementalSatStrategy",
    "make_strategy",
]
