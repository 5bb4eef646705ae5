"""The batched, cached, incremental checking engine.

:class:`CheckEngine` owns the full verdict-matrix computation
(``models × tests -> bool``) behind the comparison, exploration and
outcome-enumeration entry points.  Compared with dispatching one independent
admissibility check per (model, test) pair, the engine:

* evaluates each test's :class:`~repro.core.execution.Execution` exactly
  once and shares it — plus the enumerated read-from/coherence candidate
  spaces or the CNF skeleton — across every model
  (:class:`~repro.engine.context.TestContext`);
* on the SAT backend, keeps one persistent incremental solver per test and
  answers each model through ``solve(assumptions=...)`` over per-pair
  selector literals, reusing learned clauses between models;
* reports what it did through :class:`EngineStats`.

The matrix is computed test-major: all models of one test are answered
consecutively, which is exactly the access pattern the per-test caches and
the incremental solver are built for.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.compile import CompiledModel, compile_model
from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.engine.context import TestContext
from repro.engine.strategies import CheckStrategy, make_strategy
from repro.util import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.cache.verdict import VerdictCache

#: One model's verdicts over a test suite, in suite order.
VerdictVector = Tuple[bool, ...]


@dataclass
class EngineStats:
    """Counters describing the work a :class:`CheckEngine` performed."""

    #: individual (test, model) admissibility checks answered
    checks_performed: int = 0
    #: litmus-test executions evaluated (one per distinct test)
    executions_evaluated: int = 0
    #: tests whose candidate outcome could not be evaluated at all
    execution_failures: int = 0
    #: checks answered from an already-built test context
    context_cache_hits: int = 0
    #: read-from/coherence spaces or CNF skeletons built (one per test)
    candidate_spaces_built: int = 0
    #: per-model program-order edge sets answered from the context cache
    po_edge_cache_hits: int = 0
    #: coherence-position map sweeps answered from the context cache
    coherence_cache_hits: int = 0
    #: incremental SAT calls issued (SAT backend only)
    solver_calls: int = 0
    #: learned clauses already present at the start of a SAT call, summed
    #: over all calls (SAT backend only) — the clause-reuse metric
    clauses_reused: int = 0
    #: distinct model IRs this engine compiled (one per semantic digest)
    models_compiled: int = 0
    #: model resolutions answered from the engine's compile cache (repeat
    #: objects and re-registered structurally equal models alike)
    compile_cache_hits: int = 0
    #: IR DAG nodes first seen by this engine across its compiled models
    ir_nodes_created: int = 0
    #: IR DAG nodes shared with previously compiled models — the
    #: cross-model common-subexpression metric
    ir_cse_hits: int = 0
    #: resolved kernel backend name ("native" or "bigint"; empty for
    #: strategies that have no kernel, e.g. SAT and enumeration)
    kernel_backend: str = ""
    #: kernel searches answered by the C extension
    native_searches: int = 0
    #: kernel searches answered by the Python-int bigint kernel
    fallback_searches: int = 0
    #: synthesis queries answered (one per SynthesisEngine.synthesize call)
    synth_runs: int = 0
    #: incremental SAT solves issued by the synthesis SAT strategy (one per
    #: distinct po-pair mask per observation)
    synth_solver_calls: int = 0
    #: synthesis verdicts answered by a model sharing an already-solved
    #: po-pair mask — the SAT strategy's model-grouping metric
    synth_group_hits: int = 0
    #: checks answered from the digest-keyed verdict cache without touching
    #: the strategy (or, for serve's fast path, the engine lock)
    verdict_cache_hits: int = 0
    #: cacheable checks the verdict cache could not answer
    verdict_cache_misses: int = 0
    #: verdicts appended to the cache's persistent tier
    verdict_cache_persisted: int = 0
    #: column verdicts derived from an already-searched po-mask by the
    #: monotonicity order instead of a fresh kernel search (derive mode)
    derived_verdicts: int = 0

    def as_dict(self) -> Dict[str, int]:
        # Not dataclasses.asdict: that deep-copies recursively and shows up
        # in serve's per-request profile; a plain attribute walk is ~10x
        # cheaper and produces the identical dict.
        return {name: getattr(self, name) for name in _STAT_FIELDS}

    def merge(self, other: Dict[str, int]) -> None:
        """Fold a worker's counters into this one.

        ``kernel_backend`` is a label, not a counter: the worker's value is
        adopted when this side has none (workers inherit the parent engine's
        resolved kernel, so the labels agree whenever both are set).
        """
        for key, value in other.items():
            if key == "kernel_backend":
                if value and not self.kernel_backend:
                    self.kernel_backend = value
                continue
            setattr(self, key, getattr(self, key) + value)

    def snapshot(self) -> "EngineStats":
        return replace(self)

    def since(self, before: "EngineStats") -> "EngineStats":
        """Return the counter deltas relative to an earlier snapshot (the
        ``kernel_backend`` label carries over unchanged)."""
        deltas = {
            key: value - getattr(before, key)
            for key, value in self.as_dict().items()
            if key != "kernel_backend"
        }
        return EngineStats(kernel_backend=self.kernel_backend, **deltas)

    def describe(self) -> str:
        parts = [
            f"{self.checks_performed} checks",
            f"{self.executions_evaluated} executions evaluated",
            f"{self.context_cache_hits} cache hits",
        ]
        if self.po_edge_cache_hits:
            parts.append(f"{self.po_edge_cache_hits} po-edge cache hits")
        if self.coherence_cache_hits:
            parts.append(f"{self.coherence_cache_hits} coherence cache hits")
        if self.solver_calls:
            parts.append(f"{self.solver_calls} SAT calls")
            parts.append(f"{self.clauses_reused} learned clauses reused")
        if self.models_compiled:
            parts.append(f"{self.models_compiled} models compiled")
        if self.ir_cse_hits:
            parts.append(f"{self.ir_cse_hits} IR subformulas shared")
        if self.synth_runs:
            parts.append(
                f"{self.synth_runs} synthesis runs "
                f"({self.synth_solver_calls} synthesis SAT calls, "
                f"{self.synth_group_hits} mask-group hits)"
            )
        if self.verdict_cache_hits or self.verdict_cache_misses:
            parts.append(
                f"{self.verdict_cache_hits} verdict-cache hits "
                f"({self.verdict_cache_misses} misses, "
                f"{self.verdict_cache_persisted} persisted)"
            )
        if self.derived_verdicts:
            parts.append(f"{self.derived_verdicts} verdicts derived by monotonicity")
        if self.kernel_backend:
            searches = (
                self.native_searches
                if self.kernel_backend == "native"
                else self.fallback_searches
            )
            parts.append(f"{searches} kernel searches ({self.kernel_backend})")
        return ", ".join(parts)


_STAT_FIELDS = tuple(field.name for field in fields(EngineStats))


class CheckEngine:
    """Single entry point for batched admissibility checking.

    Args:
        backend: ``"explicit"`` (default), ``"enumeration"``, ``"sat"``, or
            an instance of one of those strategies (see
            :func:`~repro.engine.strategies.make_strategy`); a standalone
            checker object raises ``TypeError``.
        kernel: kernel backend for the explicit strategy — ``"auto"``
            (default; consults ``REPRO_KERNEL`` and prefers the C extension
            when built), ``"native"``, ``"bigint"``, or a
            :class:`~repro.native.backend.KernelBackend` instance.  Resolved
            once, at construction; ignored by non-kernel backends.
        verdict_cache: optional :class:`~repro.cache.verdict.VerdictCache`
            interposed in :meth:`check`/:meth:`check_column`: cacheable
            (formula model, canonicalizable test) pairs are answered from
            the cache when warm and stored after computing otherwise.
            Every strategy is a pure function of (model IR, canonical
            test), so verdicts are bit-identical with or without the cache.

    Thread safety: every stats/cache mutation happens under :attr:`lock`
    (an ``RLock``), so concurrent callers — serve's connections — observe
    exact counters; a cache-hit :meth:`check` takes only the cache's own
    lock plus one brief :attr:`lock` acquisition for the counters.
    """

    def __init__(
        self,
        backend: object = "explicit",
        kernel: object = None,
        verdict_cache: Optional["VerdictCache"] = None,
    ) -> None:
        self.strategy: CheckStrategy = make_strategy(backend, kernel=kernel)
        #: the resolved kernel backend, when the strategy has one
        self.kernel = getattr(self.strategy, "kernel", None)
        #: serialises stats/cache mutation; public so serve can hold it
        #: across a whole request for exact stats attribution
        self.lock = threading.RLock()
        self.verdict_cache = verdict_cache
        self.stats = EngineStats()
        if self.kernel is not None:
            self.stats.kernel_backend = self.kernel.name
        # id(test) -> (test, context); the test reference keeps the id stable.
        self._contexts: Dict[int, Tuple[LitmusTest, TestContext]] = {}
        # id(model) -> (model, compiled); resolution goes through the
        # process-global compile cache, but hit/miss accounting is kept
        # engine-local (via the digest and node-id sets below) so the
        # compile/CSE counters are deterministic per engine regardless of
        # what other engines in the process compiled first.
        self._compiled: Dict[int, Tuple[MemoryModel, CompiledModel]] = {}
        self._seen_digests: set = set()
        self._seen_node_ids: set = set()
        # id(model sequence) -> (sequence, compiled list): one lookup per
        # verdict column instead of one per model — the streaming pipeline
        # resolves the same model-space list hundreds of thousands of times.
        self._compiled_spaces: Dict[int, Tuple[Sequence[MemoryModel], List[CompiledModel]]] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def ensure(
        cls, checker: Optional[object] = None, kernel: object = None
    ) -> "CheckEngine":
        """Return ``checker`` if it already is an engine, else build one.

        ``checker`` is an engine, a backend name or strategy instance (see
        :func:`~repro.engine.strategies.make_strategy`), or None for the
        explicit backend.
        """
        if isinstance(checker, CheckEngine):
            return checker
        return cls(
            backend=checker if checker is not None else "explicit",
            kernel=kernel,
        )

    # ------------------------------------------------------------------
    # contexts
    # ------------------------------------------------------------------
    def context(self, test: LitmusTest, cache: bool = True) -> TestContext:
        """Return (building and, by default, caching) the test's context.

        ``cache=False`` builds a throwaway context: callers checking a
        one-shot test (e.g. outcome enumeration, where every candidate
        outcome is a fresh ``LitmusTest``) would otherwise grow the
        identity-keyed cache without any chance of a later hit.
        """
        key = id(test)
        with self.lock:
            entry = self._contexts.get(key)
            if entry is not None and entry[0] is test:
                self.stats.context_cache_hits += 1
                return entry[1]
            context = TestContext(test)
            self.stats.executions_evaluated += 1
            if context.execution is None:
                self.stats.execution_failures += 1
            if cache:
                self._contexts[key] = (test, context)
            return context

    # ------------------------------------------------------------------
    # model compilation
    # ------------------------------------------------------------------
    def compiled(self, model: MemoryModel) -> CompiledModel:
        """Return the model's :class:`~repro.compile.CompiledModel`.

        A repeat resolution — the same object again, or a structurally
        equal model under any name — counts as a ``compile_cache_hits``;
        the first sight of a new IR digest counts as ``models_compiled``
        and attributes its DAG nodes to ``ir_nodes_created`` /
        ``ir_cse_hits`` depending on whether an earlier model of this
        engine already contained them (cross-model CSE).
        """
        with self.lock:
            return self._compiled_locked(model)

    def _compiled_locked(self, model: MemoryModel) -> CompiledModel:
        key = id(model)
        entry = self._compiled.get(key)
        if entry is not None and entry[0] is model:
            self.stats.compile_cache_hits += 1
            return entry[1]
        compiled = compile_model(model)
        if len(self._compiled) >= 4096:
            # A long-lived serve session fed ever-new inline model documents
            # must not pin one model object per request forever; recompiling
            # after a clear is an intern-table walk, and the digest/node-id
            # sets below (tiny, and what the counters key on) are kept.
            self._compiled.clear()
            self._compiled_spaces.clear()
        self._compiled[key] = (model, compiled)
        if compiled.digest in self._seen_digests:
            self.stats.compile_cache_hits += 1
        else:
            self._seen_digests.add(compiled.digest)
            self.stats.models_compiled += 1
            seen = self._seen_node_ids
            for node_id in compiled.node_ids:
                if node_id in seen:
                    self.stats.ir_cse_hits += 1
                else:
                    seen.add(node_id)
                    self.stats.ir_nodes_created += 1
        return compiled

    def compiled_all(self, models: Sequence[MemoryModel]) -> List[CompiledModel]:
        """Resolve a whole model sequence, memoized by sequence identity.

        Counts exactly what per-model :meth:`compiled` calls would count, so
        the compile counters stay deterministic.
        """
        with self.lock:
            entry = self._compiled_spaces.get(id(models))
            if entry is not None and entry[0] is models:
                self.stats.compile_cache_hits += len(entry[1])
                return entry[1]
            compiled = [self._compiled_locked(model) for model in models]
            if len(self._compiled_spaces) >= 64:
                # Callers building a fresh list per call would otherwise pin
                # every list forever; the per-model cache stays warm regardless.
                self._compiled_spaces.clear()
            self._compiled_spaces[id(models)] = (models, compiled)
            return compiled

    def precompile(self, models: Sequence[MemoryModel]) -> None:
        """Eagerly compile a model space (worker warm-up)."""
        self.compiled_all(models)

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, test: LitmusTest, model: MemoryModel, cache: bool = True) -> bool:
        """Return whether ``model`` allows the candidate execution of ``test``."""
        # Fault point guarded by the armed-table truthiness so the hot
        # check path costs one list check when no fault is injected.
        if faults._FAULTS:
            faults.fire("engine.check", test=test.name, model=model.name)
        vcache = self.verdict_cache
        key = None
        if vcache is not None:
            key = vcache.key_for(test, model)
            if key is not None:
                verdict = vcache.get(key)
                if verdict is not None:
                    with self.lock:
                        self.stats.checks_performed += 1
                        self.stats.verdict_cache_hits += 1
                    return verdict
        with self.lock:
            if key is not None:
                self.stats.verdict_cache_misses += 1
            compiled = self._compiled_locked(model)
            context = self.context(test, cache=cache)
            self.stats.checks_performed += 1
            if context.execution is None:
                verdict = False
            else:
                verdict = self.strategy.check(context, compiled, self.stats)
        if key is not None and vcache.put(key, verdict) and vcache.store is not None:
            with self.lock:
                self.stats.verdict_cache_persisted += 1
        return verdict

    def verdict_vector(
        self, model: MemoryModel, tests: Sequence[LitmusTest]
    ) -> VerdictVector:
        """Return one model's verdicts over a suite, in suite order."""
        return tuple(self.check(test, model) for test in tests)

    def verdict_matrix(
        self, models: Sequence[MemoryModel], tests: Sequence[LitmusTest]
    ) -> Dict[str, VerdictVector]:
        """Compute every model's verdict vector over the suite, test-major.

        Deliberately NOT built on :meth:`check_column`: each column goes
        through :meth:`check` per model, so ``context_cache_hits`` counts one
        hit per (model, test) repeat — the counter semantics the serialized
        ``EngineStats`` documents pin — while ``check_column`` resolves the
        context once per column for the streaming hot path.
        """
        models = list(models)
        columns = [[self.check(test, model) for model in models] for test in tests]
        return {
            model.name: tuple(column[m] for column in columns)
            for m, model in enumerate(models)
        }

    def check_column(
        self,
        test: LitmusTest,
        models: Sequence[MemoryModel],
        retain: bool = False,
        derive: bool = False,
    ) -> List[bool]:
        """One test's verdicts for every model, then evict the test's context.

        This is the streaming access pattern of the exhaustive-enumeration
        pipeline: each test is answered for the whole model space exactly
        once (sharing the context across the column) and never seen again,
        so by default its context is dropped instead of growing the cache
        unboundedly.  ``retain=True`` keeps it, matching :meth:`check`.

        ``derive=True`` lets strategies with a column fast path derive some
        verdicts by po-mask monotonicity (a model forcing a superset of
        another's program order admits a subset of its witnesses) instead
        of searching each distinct mask; verdicts are identical but the
        search counters differ, so the brute pipeline keeps it off.
        """
        if faults._FAULTS:
            faults.fire("engine.check_column", test=test.name)
        vcache = self.verdict_cache
        keys: Optional[List[Optional[Tuple[str, str]]]] = None
        if vcache is not None:
            test_digest = vcache.test_digest(test)
            if test_digest is not None:
                keys = []
                cached: List[Optional[bool]] = []
                for model in models:
                    model_digest = vcache.model_digest(model)
                    key = (model_digest, test_digest) if model_digest else None
                    keys.append(key)
                    cached.append(vcache.get(key) if key is not None else None)
                if cached and all(verdict is not None for verdict in cached):
                    with self.lock:
                        self.stats.checks_performed += len(models)
                        self.stats.verdict_cache_hits += len(models)
                    return [bool(verdict) for verdict in cached]
        with self.lock:
            if keys is not None:
                self.stats.verdict_cache_misses += sum(
                    1
                    for key, verdict in zip(keys, cached)
                    if key is not None and verdict is None
                )
            compiled_models = self.compiled_all(models)
            context = self.context(test, cache=retain)
            self.stats.checks_performed += len(models)
            if context.execution is None:
                column = [False] * len(models)
            else:
                strategy = self.strategy
                stats = self.stats
                # Strategies with a column fast path (the explicit kernel
                # batches the whole column's masks through one combined
                # program) take it; verdicts and counters are identical to
                # the per-model loop.
                column_check = getattr(strategy, "check_column", None)
                if column_check is not None:
                    column = column_check(
                        context, compiled_models, stats, derive=derive
                    )
                else:
                    column = [
                        strategy.check(context, compiled, stats)
                        for compiled in compiled_models
                    ]
        if keys is not None:
            persisted = 0
            for key, verdict in zip(keys, column):
                if key is not None and vcache.put(key, verdict):
                    persisted += 1
            if persisted and vcache.store is not None:
                with self.lock:
                    self.stats.verdict_cache_persisted += persisted
        return column
