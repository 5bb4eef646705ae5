"""Per-test cached state shared by every model of an exploration.

A :class:`TestContext` owns everything about one litmus test that does *not*
depend on the memory model being checked:

* the evaluated :class:`~repro.core.execution.Execution` (or the evaluation
  error when the candidate outcome is malformed) — evaluated exactly once,
  however many models are checked against the test;
* the candidate space the kernel-based explicit backend searches over: the
  :class:`~repro.checker.kernel.IndexedExecution` (events as ints,
  relations as bitmasks), or — for an enumerated test on the native
  kernel — the C search problem built straight from the test's items,
  with the test and its execution materialised only on demand;
* the model-independent CNF skeleton and the persistent incremental
  :class:`~repro.sat.solver.SatSolver` the SAT backend instantiates per
  po-mask through assumption literals, reusing learned clauses.

Two model-dependent caches make repeated checks cheap.  The po-pair truth
vector (bitmask) a model forces on this test is keyed by the model's **IR
digest** (:mod:`repro.compile`) — semantic identity, not object identity —
so warm caches survive model re-registration, and an inline model document
resent to a ``serve`` session hits the same entries as the original.  The
verdict depends on the test and that mask alone, so :attr:`TestContext.
verdicts` memoizes mask -> verdict: models forcing identical edges share
one search, in one column or across the model-major loop of
:meth:`~repro.engine.engine.CheckEngine.verdict_vector`.

Everything is built lazily so a context only pays for the strategy that
actually uses it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.checker.encoder import Encoding, encode_skeleton
from repro.checker.kernel import IndexedExecution
from repro.core.execution import Execution, ExecutionError
from repro.core.expr import ExprError
from repro.core.litmus import LitmusTest
from repro.generation.enumeration import ItemsTest
from repro.sat.solver import SatSolver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.native.backend import KernelBackend
    from repro.native.problem import KernelProblem


#: What the engine checks: a litmus test, or an enumerated test as its items.
CheckedTest = Union[LitmusTest, ItemsTest]


_DIGEST = attrgetter("digest")


class TestContext:
    """Cached model-independent state for one litmus test.

    ``test`` is a :class:`~repro.core.litmus.LitmusTest` or an
    :class:`~repro.generation.enumeration.ItemsTest`.  With a native
    ``kernel``, an items test keeps the *items path*: its candidate space is
    the C problem built from the items, and the test, its execution and its
    indexed execution are materialised only if something asks for them.
    Otherwise the test is materialised and evaluated here (the object path).
    """

    def __init__(self, test: CheckedTest, kernel: Optional["KernelBackend"] = None) -> None:
        #: the evaluation error of a malformed candidate outcome, else ""
        self.error: str = ""
        self._items: Optional[ItemsTest] = None
        self._test: Optional[LitmusTest] = None
        self._execution: Optional[Execution] = None
        if isinstance(test, ItemsTest) and kernel is not None and kernel.is_native:
            self._items = test  # enumerated tests always evaluate
        else:
            self._test = test.litmus() if isinstance(test, ItemsTest) else test
            try:
                self._execution = self._test.execution()
            except (ExecutionError, ExprError) as error:
                self.error = f"execution cannot be evaluated: {error}"

        self._indexed: Optional[IndexedExecution] = None
        self._space: Union[None, IndexedExecution, "KernelProblem"] = None
        # po-pair masks keyed by the model's IR digest (semantic identity):
        # structurally equal models — re-registered, resent over serve, or
        # simply distinct objects — share one entry.
        self._po_masks: Dict[str, int] = {}
        #: po-mask -> verdict under the engine's strategy (written only by
        #: :meth:`~repro.engine.engine.CheckEngine.check_column`)
        self.verdicts: Dict[int, bool] = {}

        # SAT-strategy caches.
        self._skeleton: Optional[Encoding] = None
        self._solver: Optional[SatSolver] = None

    @property
    def test(self) -> LitmusTest:
        """The litmus test (materialised on first use on the items path)."""
        if self._test is None:
            assert self._items is not None
            self._test = self._items.litmus()
        return self._test

    @property
    def execution(self) -> Optional[Execution]:
        """The evaluated execution, or None when it cannot be evaluated."""
        if self._execution is None and not self.error:
            self._execution = self.test.execution()
        return self._execution

    # ------------------------------------------------------------------
    # kernel-strategy caches
    # ------------------------------------------------------------------
    @property
    def candidate_space_built(self) -> bool:
        """True once some strategy has built its candidate space."""
        return (
            self._indexed is not None
            or self._space is not None
            or self._skeleton is not None
        )

    def indexed(self) -> IndexedExecution:
        """Return the bitset-indexed execution, building it once."""
        if self._indexed is None:
            execution = self.execution
            assert execution is not None
            self._indexed = IndexedExecution(execution)
        return self._indexed

    def candidate_space(self):
        """What the explicit kernel decides over, built once: on the items
        path the C problem built from the items
        (:func:`~repro.native.problem.items_problem`), else the indexed
        execution."""
        space = self._space
        if space is None:
            if self._items is None:
                space = self.indexed()
            else:
                from repro.native.problem import items_problem

                space = items_problem(self._items.items, self.indexed)
            self._space = space
        return space

    def po_masks_column(self, compiled_models, stats=None, kernel=None) -> List[int]:
        """Return the column's po-pair masks, batch-evaluating misses.

        Masks are cached by IR digest; a hit increments
        ``stats.po_edge_cache_hits``.  The streaming pipeline answers each
        test for the full model space exactly once, so the common case is
        every digest missing; the misses go through the kernel's
        :meth:`~repro.native.backend.KernelBackend.po_pair_masks` over the
        :meth:`candidate_space` — one combined-program evaluation for the
        column instead of one call per model.  ``kernel=None`` evaluates
        through the bigint closure lowering; all evaluators compute
        identical masks.
        """
        masks = self._po_masks
        if not masks and kernel is not None:
            # A fresh context (every pipeline check): one batch, no lookups.
            column = kernel.po_pair_masks(self.candidate_space(), compiled_models)
            masks.update(zip(map(_DIGEST, compiled_models), column))
            return column
        missing = []
        for compiled in compiled_models:
            if compiled.digest not in masks:
                missing.append(compiled)
            elif stats is not None:
                stats.po_edge_cache_hits += 1
        if missing:
            if kernel is None:
                indexed = self.indexed()
                for compiled in missing:
                    masks[compiled.digest] = compiled.mask_program(indexed)
            else:
                space = self.candidate_space()
                for compiled, mask in zip(missing, kernel.po_pair_masks(space, missing)):
                    masks[compiled.digest] = mask
        return [masks[compiled.digest] for compiled in compiled_models]

    # ------------------------------------------------------------------
    # SAT-strategy caches
    # ------------------------------------------------------------------
    def skeleton(self) -> Encoding:
        """Return the model-independent CNF skeleton, encoding once."""
        if self._skeleton is None:
            execution = self.execution
            assert execution is not None
            self._skeleton = encode_skeleton(execution)
        return self._skeleton

    def solver(self) -> SatSolver:
        """Return the persistent incremental solver over the skeleton."""
        if self._solver is None:
            self._solver = SatSolver(self.skeleton().cnf)
        return self._solver
