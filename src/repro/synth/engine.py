"""The synthesis engine: which models are consistent with observed verdicts?

Given a parametric model space and a sequence of resolved observations
(``(LitmusTest, observed_verdict)`` pairs), :class:`SynthesisEngine`
computes

* the **consistent set** — every model whose predicted verdicts match all
  observations;
* the **weakest and strongest** consistent models under the dominance
  order of :mod:`repro.comparison.exploration` (allowing a subset of the
  comparison suite = stronger);
* an **exclusion witness** per ruled-out model — the first observation its
  prediction contradicts;
* when *no* model is consistent, a **minimal conflict core** — an
  irreducible subset of the observations that already excludes every model
  (greedy deletion: dropping any one member readmits some model);
* when *several* models remain, **distinguishing-test suggestions** — a
  greedy set cover (the :mod:`repro.comparison.minimal_tests` algorithm)
  over the surviving models' exploration vectors, proposing the suite
  tests that best split the survivors.

Each observation's predicted verdicts over the space are one
:meth:`~repro.engine.engine.CheckEngine.check_column` of the engine the
synthesizer shares, so the column follows that engine's backend (explicit
kernel or incremental SAT) and its per-test caches: models forcing the
same program-order edges on a test share one kernel search or one
``solve(assumptions=...)``.  Everything after the columns is shared code,
so the backends agree by construction; the hypothesis differential suite
asserts it anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.comparison.exploration import ExplorationResult, explore_models
from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.engine.engine import CheckEngine, EngineStats
from repro.util import faults

#: A resolved observation: the test plus the verdict observed for it.
ResolvedObservation = Tuple[LitmusTest, bool]

@dataclass(frozen=True)
class ExclusionWitness:
    """Why one model is ruled out: the observation its prediction contradicts."""

    model: str
    test: str
    observed: bool
    predicted: bool

    def describe(self) -> str:
        return (
            f"{self.model}: predicts {self.test} "
            f"{'allowed' if self.predicted else 'forbidden'}, observed "
            f"{'allowed' if self.observed else 'forbidden'}"
        )


@dataclass(frozen=True)
class TestSuggestion:
    """A suite test proposed to split the surviving consistent models."""

    test: str
    #: consistent-model pairs this test newly separates when it was picked
    separates_pairs: int
    #: how the surviving models split on it (predicted allowed / forbidden)
    allowed_models: int
    forbidden_models: int

    def describe(self) -> str:
        return (
            f"{self.test}: separates {self.separates_pairs} pairs "
            f"({self.allowed_models} survivors allow, "
            f"{self.forbidden_models} forbid)"
        )


@dataclass
class SynthesisResult:
    """The full answer to one synthesis query."""

    #: canonical space key ("deps" or "no_deps")
    space: str
    #: the engine strategy that produced the verdict columns
    #: ("explicit" or "sat")
    backend: str
    #: the observations as (test name, observed verdict), in input order
    observations: Tuple[Tuple[str, bool], ...]
    models_considered: int
    #: names of the consistent models, in space order
    consistent_models: Tuple[str, ...]
    #: weakest consistent class representatives (dominance order)
    weakest: Tuple[str, ...]
    #: strongest consistent class representatives (dominance order)
    strongest: Tuple[str, ...]
    #: one witness per excluded model, in space order
    witnesses: Tuple[ExclusionWitness, ...]
    #: when nothing is consistent: an irreducible conflicting subset of the
    #: observation test names (dropping any one readmits some model)
    conflict_core: Tuple[str, ...] = ()
    #: when several models survive: tests that best split them
    suggestions: Tuple[TestSuggestion, ...] = ()
    #: engine counters for this synthesis run
    stats: Optional[EngineStats] = None

    # ------------------------------------------------------------------
    @property
    def consistent(self) -> bool:
        return bool(self.consistent_models)

    @property
    def unique_model(self) -> Optional[str]:
        """The single consistent model, when the answer is unambiguous."""
        if len(self.consistent_models) == 1:
            return self.consistent_models[0]
        return None

    def describe(self) -> str:
        lines = [
            f"synthesis over {self.models_considered} models "
            f"({self.space!r} space, {self.backend} backend), "
            f"{len(self.observations)} observations"
        ]
        if not self.consistent:
            lines.append("no model is consistent with the observations")
            if self.conflict_core:
                lines.append(
                    "minimal conflict core: " + ", ".join(self.conflict_core)
                )
            shown = self.witnesses[:5]
            for witness in shown:
                lines.append("  " + witness.describe())
            if len(self.witnesses) > len(shown):
                lines.append(f"  ... and {len(self.witnesses) - len(shown)} more")
            return "\n".join(lines)
        if self.unique_model is not None:
            lines.append(f"unique consistent model: {self.unique_model}")
        else:
            lines.append(
                f"{len(self.consistent_models)} consistent models: "
                + ", ".join(self.consistent_models)
            )
        lines.append(f"weakest: {', '.join(self.weakest)}")
        lines.append(f"strongest: {', '.join(self.strongest)}")
        if self.suggestions:
            lines.append("suggested distinguishing tests:")
            for suggestion in self.suggestions:
                lines.append("  " + suggestion.describe())
        elif self.unique_model is None:
            lines.append(
                "no suite test distinguishes the survivors "
                "(they are equivalent over the comparison suite)"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        from repro.api.serialize import synthesis_result_to_json

        return synthesis_result_to_json(self)

    @staticmethod
    def from_json(document: Dict[str, object]) -> "SynthesisResult":
        from repro.api.serialize import synthesis_result_from_json

        return synthesis_result_from_json(document)


class SynthesisEngine:
    """Answers synthesis queries over one model space and one warm engine.

    Args:
        models: the parametric space searched (e.g. the 90-model space).
        comparison_tests: the suite defining the dominance order among the
            consistent models and the pool distinguishing-test suggestions
            are drawn from (typically the template suite plus L1..L9).
        engine: a shared :class:`~repro.engine.engine.CheckEngine` (or a
            backend spec) whose backend computes the verdict columns;
            sharing the session's engine keeps every per-test context warm
            across requests.
        preferred_tests: tests preferred among equal-gain suggestions (the
            paper's L1..L9).
        space: canonical space key recorded in the results.
    """

    def __init__(
        self,
        models: Sequence[MemoryModel],
        comparison_tests: Sequence[LitmusTest],
        engine: Optional[object] = None,
        preferred_tests: Sequence[LitmusTest] = (),
        space: str = "",
    ) -> None:
        self.models = list(models)
        self.comparison_tests = list(comparison_tests)
        self.engine = CheckEngine.ensure(engine)
        self.preferred_names = {test.name for test in preferred_tests}
        self.preferred_tests = list(preferred_tests)
        self.space = space

    # ------------------------------------------------------------------
    def synthesize(
        self,
        observations: Sequence[ResolvedObservation],
        suggest_tests: int = 3,
    ) -> SynthesisResult:
        """Run one synthesis query; see the module docstring for the parts."""
        with self.engine.recording() as spent:
            spent.synth_runs += 1
            return self._synthesize(observations, suggest_tests, spent)

    def _synthesize(
        self, observations: Sequence[ResolvedObservation], suggest_tests: int, spent: EngineStats
    ) -> SynthesisResult:
        columns = [self._column(test) for test, _ in observations]
        observed = [bool(verdict) for _, verdict in observations]
        labels = tuple((test.name, obs) for (test, _), obs in zip(observations, observed))

        names = [model.name for model in self.models]
        consistent_indices = [
            m
            for m in range(len(names))
            if all(column[m] == want for column, want in zip(columns, observed))
        ]
        consistent_names = tuple(names[m] for m in consistent_indices)

        witnesses = []
        consistent_set = set(consistent_indices)
        for m, name in enumerate(names):
            if m in consistent_set:
                continue
            for (test, _), column, want in zip(observations, columns, observed):
                if column[m] != want:
                    witnesses.append(
                        ExclusionWitness(
                            model=name,
                            test=test.name,
                            observed=want,
                            predicted=column[m],
                        )
                    )
                    break

        conflict_core: Tuple[str, ...] = ()
        if not consistent_indices and observations:
            conflict_core = self._conflict_core(observations, columns, observed)

        weakest: Tuple[str, ...] = ()
        strongest: Tuple[str, ...] = ()
        suggestions: Tuple[TestSuggestion, ...] = ()
        if len(consistent_indices) == 1:
            weakest = strongest = consistent_names
        elif len(consistent_indices) > 1:
            survivors = [self.models[m] for m in consistent_indices]
            exploration = explore_models(
                survivors,
                self.comparison_tests,
                checker=self.engine,
                preferred_tests=self.preferred_tests,
            )
            weakest = tuple(sorted(exploration.weakest_models()))
            strongest = tuple(sorted(exploration.strongest_models()))
            if suggest_tests > 0:
                suggestions = self._suggest(exploration, consistent_names, suggest_tests)

        return SynthesisResult(
            space=self.space,
            backend=self.engine.strategy.name,
            observations=labels,
            models_considered=len(names),
            consistent_models=consistent_names,
            weakest=weakest,
            strongest=strongest,
            witnesses=tuple(witnesses),
            conflict_core=conflict_core,
            suggestions=suggestions,
            stats=spent,
        )

    # ------------------------------------------------------------------
    # verdict columns
    # ------------------------------------------------------------------
    def _column(self, test: LitmusTest) -> List[bool]:
        """One observation's predicted verdicts over the whole space."""
        if faults._FAULTS:
            faults.fire("synth.solve", test=test.name, backend=self.engine.strategy.name)
        return self.engine.check_column(test, self.models, retain=True)

    # ------------------------------------------------------------------
    # explanations
    # ------------------------------------------------------------------
    def _conflict_core(
        self,
        observations: Sequence[ResolvedObservation],
        columns: Sequence[List[bool]],
        observed: Sequence[bool],
    ) -> Tuple[str, ...]:
        """An irreducible observation subset that excludes every model.

        Greedy deletion over the per-observation satisfier sets: walk the
        observations in order and drop each whose removal still leaves the
        intersection empty.  The survivors form a minimal (irreducible)
        core — removing any one of them readmits some model.
        """
        model_indices = frozenset(range(len(self.models)))
        satisfiers = [
            frozenset(
                m for m in model_indices if column[m] == want
            )
            for column, want in zip(columns, observed)
        ]
        keep = list(range(len(observations)))
        for candidate in list(keep):
            trial = [index for index in keep if index != candidate]
            remaining = model_indices
            for index in trial:
                remaining = remaining & satisfiers[index]
                if not remaining:
                    break
            if not remaining:
                keep = trial
        return tuple(observations[index][0].name for index in keep)

    def _suggest(
        self,
        exploration: ExplorationResult,
        consistent_names: Sequence[str],
        max_tests: int,
    ) -> Tuple[TestSuggestion, ...]:
        """Greedy set cover over the survivors' non-equivalent pairs.

        The same algorithm as
        :func:`repro.comparison.minimal_tests.find_minimal_distinguishing_set`,
        run directly on the exploration's verdict vectors (already computed
        for the dominance order) instead of re-checking anything.  Ties in
        gain prefer the paper's named tests, then suite order.
        """
        vectors = exploration.vectors
        pairs = [
            (first, second)
            for i, first in enumerate(consistent_names)
            for second in consistent_names[i + 1 :]
            if vectors[first] != vectors[second]
        ]
        per_test: List[set] = []
        for t, _test in enumerate(exploration.tests):
            per_test.append(
                {
                    pair
                    for pair in pairs
                    if vectors[pair[0]][t] != vectors[pair[1]][t]
                }
            )
        uncovered = set(pairs)
        suggestions: List[TestSuggestion] = []
        while uncovered and len(suggestions) < max_tests:
            best_index = -1
            best_key = (0, False)
            for t, test in enumerate(exploration.tests):
                gain = len(per_test[t] & uncovered)
                if gain == 0:
                    continue
                key = (gain, test.name in self.preferred_names)
                if key > best_key:
                    best_key = key
                    best_index = t
            if best_index < 0:
                break
            gain_pairs = per_test[best_index] & uncovered
            uncovered -= gain_pairs
            test = exploration.tests[best_index]
            column = [vectors[name][best_index] for name in consistent_names]
            suggestions.append(
                TestSuggestion(
                    test=test.name,
                    separates_pairs=len(gain_pairs),
                    allowed_models=sum(column),
                    forbidden_models=len(column) - sum(column),
                )
            )
        return tuple(suggestions)
