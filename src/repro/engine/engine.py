"""The batched, cached, incremental checking engine.

:class:`CheckEngine` owns the full verdict-matrix computation
(``models × tests -> bool``) behind the comparison, exploration,
synthesis and outcome-enumeration entry points, and computes it one way:
:meth:`CheckEngine.check_column`, one test's verdicts for a sequence of
models.  A single check is a one-model column, and a verdict matrix or
vector is a sequence of columns.  Within a column the engine:

* evaluates the test's :class:`~repro.core.execution.Execution` once and
  shares it — plus the indexed execution or the CNF skeleton — across
  every model (:class:`~repro.engine.context.TestContext`); an enumerated
  test handed over as its items on the native kernel skips the objects and
  shares the C search problem built from the items instead;
* evaluates each model's forced po-pair mask (batched through the kernel's
  combined program), and asks the strategy for one decision per distinct
  mask the context has not decided yet — models forcing the same edges
  share one kernel search or one incremental ``solve(assumptions=...)``;
* optionally derives verdicts by mask monotonicity instead of deciding
  them (``derive=True``);
* reports what it did through :class:`EngineStats`, counted into the
  calling thread's innermost :meth:`CheckEngine.recording`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.compile import CompiledModel, compile_model
from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.engine.context import CheckedTest, TestContext
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
    #: columns (a check is a one-model column) answered from an
    #: already-built test context
    context_cache_hits: int = 0
    #: indexed executions or CNF skeletons built (one per test)
    candidate_spaces_built: int = 0
    #: per-model po-pair masks answered from the context cache
    po_edge_cache_hits: int = 0
    #: incremental SAT calls issued, one per distinct po-mask of a test
    #: (SAT backend only)
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
    #: resolved kernel backend name ("native" or "bigint"; empty for the
    #: SAT strategy, which has no kernel)
    kernel_backend: str = ""
    #: kernel searches answered by the C extension (one per distinct
    #: po-mask of a test)
    native_searches: int = 0
    #: kernel searches answered by the Python-int bigint kernel
    fallback_searches: int = 0
    #: synthesis queries answered (one per SynthesisEngine.synthesize call)
    synth_runs: int = 0
    #: checks answered from the digest-keyed verdict cache without touching
    #: the strategy (serve's response-memo hits count here too)
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
        """Fold a worker's or a closed recording's counters into this one.

        ``kernel_backend`` is a label, not a counter: the worker's value is
        adopted when this side has none (workers inherit the parent engine's
        resolved kernel, so the labels agree whenever both are set).
        """
        for key, value in other.items():
            if not value:
                continue
            if key == "kernel_backend":
                if not self.kernel_backend:
                    self.kernel_backend = value
                continue
            setattr(self, key, getattr(self, key) + value)

    def describe(self) -> str:
        parts = [
            f"{self.checks_performed} checks",
            f"{self.executions_evaluated} executions evaluated",
            f"{self.context_cache_hits} cache hits",
        ]
        if self.po_edge_cache_hits:
            parts.append(f"{self.po_edge_cache_hits} po-edge cache hits")
        if self.solver_calls:
            parts.append(f"{self.solver_calls} SAT calls")
            parts.append(f"{self.clauses_reused} learned clauses reused")
        if self.models_compiled:
            parts.append(f"{self.models_compiled} models compiled")
        if self.ir_cse_hits:
            parts.append(f"{self.ir_cse_hits} IR subformulas shared")
        if self.synth_runs:
            parts.append(f"{self.synth_runs} synthesis runs")
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
        backend: ``"explicit"`` (default), ``"sat"``, or an instance of
            one of those strategies (see
            :func:`~repro.engine.strategies.make_strategy`); a standalone
            checker object raises ``TypeError``.
        kernel: kernel backend for the explicit strategy — ``"auto"``
            (default; consults ``REPRO_KERNEL`` and prefers the C extension
            when built), ``"native"``, ``"bigint"``, or a
            :class:`~repro.native.backend.KernelBackend` instance.  Resolved
            once, at construction; ignored by the SAT backend.
        verdict_cache: optional :class:`~repro.cache.verdict.VerdictCache`
            interposed in :meth:`check_column`: cacheable
            (formula model, canonicalizable test) pairs are answered from
            the cache when warm and stored after computing otherwise.
            Every strategy is a pure function of (model IR, canonical
            test), so verdicts are bit-identical with or without the cache.

    Thread safety: counters go into the calling thread's innermost
    :meth:`recording`, so threads sharing one engine each see exactly their
    own work.  :attr:`lock` (an ``RLock``) guards the contexts, the compile
    bookkeeping and the strategies' per-test state; an all-hit column takes
    only the cache's own lock.
    """

    def __init__(
        self,
        backend: object = "explicit",
        kernel: object = None,
        verdict_cache: Optional["VerdictCache"] = None,
    ) -> None:
        self.strategy: CheckStrategy = make_strategy(backend, kernel=kernel)
        #: the resolved kernel backend, when the strategy has one
        self.kernel = self.strategy.kernel
        #: serialises the engine's shared caches; public so serve can hold
        #: it across a request for the state it guards beyond the engine
        self.lock = threading.RLock()
        self.verdict_cache = verdict_cache
        #: cumulative counters, added to under :attr:`_stats_lock`
        self.stats = EngineStats()
        if self.kernel is not None:
            self.stats.kernel_backend = self.kernel.name
        self._stats_lock = threading.Lock()
        #: ``.sink``: the calling thread's innermost open recording
        self._local = threading.local()
        # id(test) -> (test, context); the test reference keeps the id stable.
        self._contexts: Dict[int, Tuple[CheckedTest, TestContext]] = {}
        # Model resolution goes through the process-global compile cache,
        # but hit/miss accounting is kept engine-local (via the digest and
        # node-id sets below) so the compile/CSE counters are deterministic
        # per engine regardless of what other engines in the process
        # compiled first.
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
    # stats
    # ------------------------------------------------------------------
    @contextmanager
    def recording(self) -> Iterator[EngineStats]:
        """Count this thread's engine work in a fresh, kernel-labelled sink.

        Until the block ends, by an exception too, the sink is the thread's
        innermost and gets every counter the engine books on this thread;
        then its counts go to the enclosing recording, or to :attr:`stats`
        at the outermost level.  Entry points called outside any recording
        open their own.
        """
        sink = EngineStats(kernel_backend=self.stats.kernel_backend)
        local = self._local
        outer = getattr(local, "sink", None)
        local.sink = sink
        try:
            yield sink
        finally:
            local.sink = outer
            self.count(vars(sink))

    def count(self, counts: Dict[str, int]) -> None:
        """Add counters (as :meth:`EngineStats.merge` takes them) to this
        thread's innermost recording, or to :attr:`stats` when none is open."""
        sink = getattr(self._local, "sink", None)
        if sink is not None:
            sink.merge(counts)
        else:
            with self._stats_lock:
                self.stats.merge(counts)

    # ------------------------------------------------------------------
    # contexts and model compilation (callers hold :attr:`lock`)
    # ------------------------------------------------------------------
    def _context(self, test: CheckedTest, retain: bool, spent: EngineStats) -> TestContext:
        """Return the test's context, building it (and retaining it, when
        asked: a one-shot test would only grow the identity-keyed cache)."""
        key = id(test)
        entry = self._contexts.get(key)
        if entry is not None and entry[0] is test:
            spent.context_cache_hits += 1
            return entry[1]
        context = TestContext(test, self.kernel)
        spent.executions_evaluated += 1
        if context.error:
            spent.execution_failures += 1
        if retain:
            self._contexts[key] = (test, context)
        return context

    def _compile_all(
        self, models: Sequence[MemoryModel], spent: EngineStats
    ) -> List[CompiledModel]:
        """Resolve a model sequence, memoized by sequence identity.

        A repeat resolution — the same object again, or a structurally
        equal model under any name — counts as a ``compile_cache_hits``;
        the first sight of a new IR digest counts as ``models_compiled``
        and attributes its DAG nodes to ``ir_nodes_created`` /
        ``ir_cse_hits`` depending on whether an earlier model of this
        engine already contained them (cross-model CSE).
        """
        entry = self._compiled_spaces.get(id(models))
        if entry is not None and entry[0] is models:
            spent.compile_cache_hits += len(entry[1])
            return entry[1]
        compiled = [compile_model(model) for model in models]
        seen = self._seen_node_ids
        for resolved in compiled:
            if resolved.digest in self._seen_digests:
                spent.compile_cache_hits += 1
                continue
            self._seen_digests.add(resolved.digest)
            spent.models_compiled += 1
            for node_id in resolved.node_ids:
                if node_id in seen:
                    spent.ir_cse_hits += 1
                else:
                    seen.add(node_id)
                    spent.ir_nodes_created += 1
        # A one-model column (every check) is a throwaway sequence; past 64
        # sequences, callers building a fresh list per call would otherwise
        # pin every list forever.
        if len(models) > 1:
            if len(self._compiled_spaces) >= 64:
                self._compiled_spaces.clear()
            self._compiled_spaces[id(models)] = (models, compiled)
        return compiled

    def precompile(self, models: Sequence[MemoryModel]) -> None:
        """Eagerly compile a model space (worker warm-up)."""
        with self.recording() as spent, self.lock:
            self._compile_all(models, spent)

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, test: LitmusTest, model: MemoryModel, cache: bool = True) -> bool:
        """Return whether ``model`` allows the candidate execution of ``test``.

        A one-model :meth:`check_column`; ``cache=False`` keeps no newly
        built context (outcome enumeration checks one-shot tests).
        """
        return self.check_column(test, (model,), retain=cache)[0]

    def verdict_vector(
        self, model: MemoryModel, tests: Sequence[LitmusTest]
    ) -> VerdictVector:
        """Return one model's verdicts over a suite, in suite order.

        Each test's context is retained, and its mask -> verdict memo with
        it, so model-major callers (one vector per model) share every
        search across models just like :meth:`verdict_matrix`.
        """
        return tuple(self.check(test, model) for test in tests)

    def verdict_matrix(
        self, models: Sequence[MemoryModel], tests: Sequence[LitmusTest]
    ) -> Dict[str, VerdictVector]:
        """Compute every model's verdict vector over the suite, test-major."""
        models = list(models)
        columns = [self.check_column(test, models, retain=True) for test in tests]
        return {
            model.name: tuple(column[m] for column in columns)
            for m, model in enumerate(models)
        }

    def check_column(
        self,
        test: CheckedTest,
        models: Sequence[MemoryModel],
        retain: bool = False,
        derive: bool = False,
    ) -> List[bool]:
        """One test's verdicts for every model — the engine's one check path.

        The default suits the streaming exhaustive-enumeration pipeline:
        each test is answered for the whole model space exactly once and
        never seen again, so its context is dropped afterwards instead of
        growing the cache unboundedly.  ``retain=True`` keeps it, and with
        it the test's mask -> verdict memo.

        ``derive=True`` visits the column's undecided masks in descending
        popcount order and reads a verdict off an already-decided mask
        when monotonicity settles it: more forced edges means fewer
        candidate executions, so ``allowed`` at a superset mask implies
        ``allowed`` at every subset, and ``forbidden`` at a subset implies
        ``forbidden`` at every superset.  Verdicts are identical, but those
        shortcuts count as ``derived_verdicts`` instead of searches, which
        is why the brute pipeline keeps the flag off.

        ``test`` may be an :class:`~repro.generation.enumeration.ItemsTest`:
        on the native kernel its search problem is built from the items,
        with no litmus-test objects (:class:`~repro.engine.context.
        TestContext`); every other engine materialises it.
        """
        spent = getattr(self._local, "sink", None)
        if spent is None:
            with self.recording() as spent:
                return self._check_column(test, models, retain, derive, spent)
        return self._check_column(test, models, retain, derive, spent)

    def _check_column(
        self, test: CheckedTest, models: Sequence[MemoryModel], retain: bool, derive: bool,
        spent: EngineStats,
    ) -> List[bool]:
        if faults._FAULTS:
            faults.fire("engine.check_column", test=test.name)
        spent.checks_performed += len(models)
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
                    spent.verdict_cache_hits += len(models)
                    return [bool(verdict) for verdict in cached]
                spent.verdict_cache_misses += sum(
                    1
                    for key, verdict in zip(keys, cached)
                    if key is not None and verdict is None
                )
        with self.lock:
            compiled_models = self._compile_all(models, spent)
            context = self._context(test, retain, spent)
            column = self._decide(context, compiled_models, derive, spent)
        if keys is not None:
            persisted = 0
            for key, verdict in zip(keys, column):
                if key is not None and vcache.put(key, verdict):
                    persisted += 1
            if vcache.store is not None:
                spent.verdict_cache_persisted += persisted
        return column

    def _decide(
        self, context: TestContext, compiled_models: Sequence[CompiledModel], derive: bool,
        stats: EngineStats,
    ) -> List[bool]:
        """The column's verdicts: one strategy decision per undecided mask."""
        if context.error:
            return [False] * len(compiled_models)
        strategy = self.strategy
        first_visit = not context.candidate_space_built
        feasible = strategy.prepare(context)
        if first_visit:
            stats.candidate_spaces_built += 1
        if not feasible:
            return [False] * len(compiled_models)
        masks = context.po_masks_column(compiled_models, stats, kernel=strategy.kernel)
        verdicts = context.verdicts
        if derive:
            undecided = sorted(
                set(masks).difference(verdicts),
                key=lambda mask: (-bin(mask).count("1"), mask),
            )
            for mask in undecided:
                verdict = None
                for known_mask, known in verdicts.items():
                    if known and (mask & known_mask) == mask:
                        verdict = True  # subset of an allowed mask
                        break
                    if not known and (mask & known_mask) == known_mask:
                        verdict = False  # superset of a forbidden mask
                        break
                if verdict is None:
                    verdict = strategy.decide(context, mask, stats)
                else:
                    stats.derived_verdicts += 1
                verdicts[mask] = verdict
            return [verdicts[mask] for mask in masks]
        column = []
        for mask in masks:
            verdict = verdicts.get(mask)
            if verdict is None:
                verdict = verdicts[mask] = strategy.decide(context, mask, stats)
            column.append(verdict)
        return column
