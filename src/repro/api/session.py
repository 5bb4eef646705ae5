"""The session: one warm engine answering declarative requests.

A :class:`Session` owns

* a :class:`~repro.api.registry.ModelRegistry` (built-in catalog plus
  user-registered parametric or custom models),
* a :class:`~repro.api.registry.TestRegistry` (named tests, ``.litmus``
  files, inline programs, memoized generated suites), and
* one persistent :class:`~repro.engine.engine.CheckEngine`,

so that everything the engine caches — per-test
:class:`~repro.engine.context.TestContext` objects, persistent incremental
SAT solvers, kernel indexes — survives across calls.  A session that
answers a ``compare`` and then an ``explore`` over the same suite evaluates
each test's execution exactly once, total.

All operations are declarative request dataclasses dispatched through
:meth:`Session.run` (one result) or :meth:`Session.run_batch` (a list of
results plus the aggregate :class:`~repro.engine.engine.EngineStats` delta
for the whole batch).
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.registry import ModelRegistry, TestRegistry
from repro.api.requests import (
    CheckRequest,
    CompareRequest,
    ExhaustiveRequest,
    ExploreRequest,
    OutcomesRequest,
    Request,
    SynthesizeRequest,
)
from repro.checker.outcomes import OutcomeSet, allowed_outcome_set
from repro.checker.result import CheckResult
from repro.comparison.compare import ComparisonResult, ModelComparator
from repro.comparison.exploration import ExplorationResult, explore_models
from repro.engine.engine import CheckEngine, EngineStats
from repro.pipeline.report import EquivalenceReport
from repro.synth.engine import SynthesisEngine, SynthesisResult
from repro.util import faults

#: Everything a session can hand back.
Result = Union[
    CheckResult,
    ComparisonResult,
    ExplorationResult,
    OutcomeSet,
    EquivalenceReport,
    SynthesisResult,
]


@dataclass
class BatchResult:
    """The results of :meth:`Session.run_batch`, plus the stats delta."""

    results: List[Result] = field(default_factory=list)
    #: aggregate engine counters for the whole batch
    stats: EngineStats = field(default_factory=EngineStats)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> Result:
        return self.results[index]


class Session:
    """A long-lived API session over one warm :class:`CheckEngine`.

    Args:
        backend: engine backend name (``"explicit"`` or ``"sat"``),
            ignored when ``engine`` is given.
        kernel: explicit-strategy kernel backend (``"auto"``, ``"native"``
            or ``"bigint"`` — see :mod:`repro.native.backend`),
            ignored when ``engine`` is given.
        engine: a ready-made engine to adopt (shared with other callers).
        models: a model registry to adopt; a fresh catalog-backed one by
            default.
        tests: a test registry to adopt; a fresh one by default.
    """

    def __init__(
        self,
        backend: str = "explicit",
        kernel: Optional[str] = None,
        engine: Optional[CheckEngine] = None,
        models: Optional[ModelRegistry] = None,
        tests: Optional[TestRegistry] = None,
    ) -> None:
        self.models = models if models is not None else ModelRegistry()
        self.tests = tests if tests is not None else TestRegistry()
        if engine is not None:
            self.engine = engine
        else:
            self.engine = CheckEngine(backend=backend, kernel=kernel)
        # One comparator per comparison suite, so verdict vectors computed
        # for one compare request are reused by the next.
        self._comparators: Dict[Tuple[str, bool], ModelComparator] = {}
        # One synthesis engine per (space, suite), sharing this session's
        # check engine so repeated synthesize requests stay cache-warm.
        self._synth_engines: Dict[Tuple[str, str], SynthesisEngine] = {}
        # Digest-keyed memo of whole exploration results, the explore
        # analogue of the verdict cache: a repeat explore over the same
        # model set (by semantic digest) and suite returns the memoized
        # result without touching the engine.  Only active when the
        # engine has a verdict cache (the digests come from it).
        self._explore_memo: "OrderedDict[tuple, ExplorationResult]" = OrderedDict()
        # id(suite) -> (suite ref, digest): suites are memoized objects, so
        # identity is stable; the ref pins them against id reuse.
        self._suite_digests: Dict[int, Tuple[object, str]] = {}

    # ------------------------------------------------------------------
    # per-connection views
    # ------------------------------------------------------------------
    def view(self) -> "Session":
        """A lightweight per-connection view sharing this session's engine.

        The view gets private registry overlays (one connection's
        ``register``/``replace`` cannot affect another) while the engine —
        and with it every warm cache, the verdict cache and the counters —
        is shared.  The registries' memoized suites are shared by
        reference, so requests through any view resolve the same test
        objects and hit the shared engine's identity-keyed caches.
        """
        view = Session(
            engine=self.engine,
            models=self.models.view(),
            tests=self.tests.view(),
        )
        # The explore memo rides with the engine's caches: digest-keyed
        # results are view-independent (overlays change *which* models a
        # name resolves to, but the key is the resolved models' digests).
        view._explore_memo = self._explore_memo
        view._suite_digests = self._suite_digests
        return view

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> EngineStats:
        """The engine's cumulative counters for this session."""
        return self.engine.stats

    @property
    def backend_name(self) -> str:
        return self.engine.strategy.name

    @property
    def kernel_name(self) -> str:
        """The engine's kernel backend name, or ``""`` for non-kernel strategies."""
        kernel = getattr(self.engine, "kernel", None)
        return kernel.name if kernel is not None else ""

    def info(self) -> Dict[str, object]:
        """A JSON-safe description of this session (for the serve stats op)."""
        return {
            "backend": self.backend_name,
            "kernel": self.kernel_name,
            "models_registered": len(list(self.models)),
            "path_specs_allowed": bool(self.tests.allow_paths),
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run(self, request: Request) -> Result:
        """Execute one declarative request and return its result object."""
        faults.fire("session.run", op=getattr(request, "op", None))
        if isinstance(request, CheckRequest):
            return self._run_check(request)
        if isinstance(request, CompareRequest):
            return self._run_compare(request)
        if isinstance(request, ExploreRequest):
            return self._run_explore(request)
        if isinstance(request, OutcomesRequest):
            return self._run_outcomes(request)
        if isinstance(request, ExhaustiveRequest):
            return self._run_exhaustive(request)
        if isinstance(request, SynthesizeRequest):
            return self._run_synthesize(request)
        raise TypeError(f"unknown request type {type(request).__name__}")

    def run_batch(self, requests: Sequence[Request]) -> BatchResult:
        """Execute requests in order over the shared engine.

        Later requests see every context the earlier ones built; the
        returned :class:`BatchResult` carries the aggregate engine-stats
        delta for the whole batch.
        """
        with self.engine.recording() as spent:
            results = [self.run(request) for request in requests]
        return BatchResult(results=results, stats=spent)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _run_check(self, request: CheckRequest) -> CheckResult:
        test = self.tests.resolve(request.test)
        model = self.models.resolve(request.model)
        allowed = self.engine.check(test, model)
        witness = None
        reason = ""
        if request.witness:
            from repro.checker.explicit import ExplicitChecker

            detailed = ExplicitChecker(kernel=getattr(self.engine, "kernel", None)).check(
                test, model
            )
            # The engine's verdict is authoritative (the backends are
            # cross-validated); attach the witness/reason only when the
            # witness checker agrees, so a hypothetical disagreement cannot
            # mislabel evidence or crash the serve loop.
            if detailed.allowed == allowed:
                witness = detailed.witness
                reason = detailed.reason
        return CheckResult(
            allowed=allowed,
            test_name=test.name,
            model_name=model.name,
            witness=witness,
            reason=reason,
        )

    def comparator(self, suite: str = "standard", include_named: bool = True) -> ModelComparator:
        """Return (creating and caching) the comparator for a suite."""
        key = (suite, include_named)
        if key not in self._comparators:
            tests = self.tests.comparison_tests(suite, include_named=include_named)
            self._comparators[key] = ModelComparator(tests, self.engine)
        return self._comparators[key]

    def _run_compare(self, request: CompareRequest) -> ComparisonResult:
        first = self.models.resolve(request.first)
        second = self.models.resolve(request.second)
        comparator = self.comparator(request.suite, request.include_named)
        return comparator.compare(first, second)

    #: explore-memo entries kept (an exploration result is small; 64 of
    #: them cover any realistic serve rotation of spaces and suites)
    _EXPLORE_MEMO_LIMIT = 64

    def _suite_digest(self, suite: Sequence[object]) -> str:
        """A content digest of a memoized suite, computed once per object.

        Deliberately *not* the verdict cache's per-test digest: that one
        only covers the canonical kernel fragment (dependency-bearing
        suites would be unkeyable), while the JSON serialization covers
        every test the registry can hand out.
        """
        entry = self._suite_digests.get(id(suite))
        if entry is not None and entry[0] is suite:
            return entry[1]
        from repro.api.serialize import test_to_json

        digest = hashlib.sha256()
        for test in suite:
            digest.update(
                json.dumps(test_to_json(test), sort_keys=True).encode("utf-8")
            )
            digest.update(b"\x00")
        hexdigest = digest.hexdigest()
        self._suite_digests[id(suite)] = (suite, hexdigest)
        return hexdigest

    def _run_explore(self, request: ExploreRequest) -> ExplorationResult:
        if request.models is not None:
            models = self.models.resolve_all(request.models)
        else:
            models = self.models.space(request.space)
        suite = self.tests.suite(request.suite_key())
        preferred = self.tests.preferred_tests() if request.preferred else []
        # The explore memo: key the whole result by the
        # resolved models' semantic digests plus the suite's content
        # digest.  Any non-digestable model (opaque callables) disables
        # the memo for that request; verdicts never go stale because the
        # digest pins the full semantics of both sides.
        memo_key = None
        vcache = self.engine.verdict_cache
        if vcache is not None:
            model_digests = tuple(vcache.model_digest(model) for model in models)
            if all(digest is not None for digest in model_digests):
                memo_key = (
                    model_digests,
                    self._suite_digest(suite),
                    bool(request.preferred),
                )
                memoized = self._explore_memo.get(memo_key)
                if memoized is not None:
                    self._explore_memo.move_to_end(memo_key)
                    vcache.note_hit()
                    return memoized
        result = explore_models(
            models, suite, checker=self.engine, preferred_tests=preferred
        )
        if memo_key is not None:
            self._explore_memo[memo_key] = result
            while len(self._explore_memo) > self._EXPLORE_MEMO_LIMIT:
                self._explore_memo.popitem(last=False)
        return result

    def _run_outcomes(self, request: OutcomesRequest) -> OutcomeSet:
        test = self.tests.resolve(request.test)
        model = self.models.resolve(request.model)
        return allowed_outcome_set(test, model, checker=self.engine)

    def synthesis_engine(
        self, space: str = "deps", suite: Optional[str] = None
    ) -> SynthesisEngine:
        """Return (creating and caching) the synthesis engine for a space.

        The engine shares this session's :class:`CheckEngine`, so verdict
        columns computed by earlier explore/compare requests answer later
        synthesize requests from warm caches (and vice versa).
        """
        from repro.api.registry import canonical_space

        space_key = canonical_space(space)
        suite_key = suite if suite is not None else (
            "standard" if space_key == "deps" else "no_deps"
        )
        cache_key = (space_key, suite_key)
        if cache_key not in self._synth_engines:
            self._synth_engines[cache_key] = SynthesisEngine(
                models=self.models.space(space_key),
                comparison_tests=self.tests.comparison_tests(suite_key),
                engine=self.engine,
                preferred_tests=self.tests.preferred_tests(),
                space=space_key,
            )
        return self._synth_engines[cache_key]

    def _run_synthesize(self, request: SynthesizeRequest) -> SynthesisResult:
        synth = self.synthesis_engine(request.space, request.suite)
        resolved = [
            (self.tests.resolve(observation.test), bool(observation.allowed))
            for observation in request.observations
        ]
        return synth.synthesize(resolved, suggest_tests=request.suggest_tests)

    def _run_exhaustive(self, request: ExhaustiveRequest) -> EquivalenceReport:
        from repro.pipeline.run import PipelineConfig, run_pipeline

        if request.run_dir is not None and not self.tests.allow_paths:
            # Mirrors the test-spec path restriction: network-facing serve
            # sessions must not let remote clients choose server-side paths.
            raise ValueError("run_dir is not available on path-restricted sessions")
        config = PipelineConfig(
            bound=request.bound,
            space=request.space,
            suite=request.suite,
            backend=self.backend_name,
            kernel=self.kernel_name or "auto",
            jobs=request.jobs,
            shard_size=request.shard_size,
            limit=request.limit,
            run_dir=request.run_dir,
            resume=request.resume,
            shard_timeout=request.shard_timeout,
            shard_retries=request.shard_retries,
            adaptive=request.adaptive,
            audit_rate=request.audit_rate,
        )
        return run_pipeline(
            config,
            models=self.models.space(request.space),
            suite_tests=self.tests.suite(config.suite_key()),
            engine=self.engine,
        )
