"""Batched, cached, incremental admissibility checking.

This package is the single entry point the comparison, exploration,
outcome-enumeration and CLI layers use to compute verdicts:

* :class:`~repro.engine.engine.CheckEngine` — owns the
  ``models × tests -> bool`` verdict-matrix computation, one column
  (:meth:`~repro.engine.engine.CheckEngine.check_column`) at a time, with
  per-test caching and :class:`~repro.engine.engine.EngineStats` reporting;
* :class:`~repro.engine.context.TestContext` — the per-test caches
  (execution, indexed execution, CNF skeleton, persistent solver, po-masks
  and the mask -> verdict memo);
* :mod:`repro.engine.strategies` — the explicit and incremental-SAT
  strategies that decide one distinct po-mask beneath the engine.
"""

from repro.engine.context import TestContext
from repro.engine.engine import CheckEngine, EngineStats, VerdictVector
from repro.engine.strategies import (
    CheckStrategy,
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
    "ExplicitStrategy",
    "IncrementalSatStrategy",
    "make_strategy",
]
