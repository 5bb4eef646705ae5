"""Exploration of a family of memory models (Section 4.2, Figure 4).

Given a list of models and a litmus-test suite, the exploration computes

* every model's verdict vector;
* the equivalence classes (models with identical vectors);
* the strictly-stronger relation between classes and its transitive
  reduction (the Hasse diagram drawn in Figure 4, with arrows pointing from
  weaker to stronger models);
* for every Hasse edge, the litmus tests that distinguish the two classes,
  preferring tests from a designated "preferred" list (the paper labels its
  edges with L1..L9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.comparison.compare import Relation, VerdictVector
from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.engine.engine import CheckEngine, EngineStats
from repro.util.digraph import Digraph


@dataclass(frozen=True)
class HasseEdge:
    """One edge of the Hasse diagram, pointing from weaker to stronger."""

    weaker: str
    stronger: str
    #: names of distinguishing tests (allowed by the weaker class only)
    tests: Tuple[str, ...]
    #: the subset of ``tests`` drawn from the preferred list (if any)
    preferred_tests: Tuple[str, ...] = ()

    @property
    def label(self) -> str:
        chosen = self.preferred_tests or self.tests
        return ", ".join(chosen[:3])


@dataclass
class ExplorationResult:
    """The full result of exploring a model family."""

    models: List[MemoryModel]
    tests: List[LitmusTest]
    vectors: Dict[str, VerdictVector]
    #: equivalence classes as sorted tuples of model names, sorted by representative
    equivalence_classes: List[Tuple[str, ...]]
    #: Hasse edges between class representatives (weaker -> stronger)
    hasse_edges: List[HasseEdge]
    #: number of admissibility checks performed
    checks_performed: int = 0
    #: engine counters for this exploration (executions evaluated, cache
    #: hits, SAT calls, learned clauses reused, ...)
    stats: Optional[EngineStats] = None

    # ------------------------------------------------------------------
    def class_of(self, model_name: str) -> Tuple[str, ...]:
        """Return the equivalence class containing ``model_name``."""
        for cls in self.equivalence_classes:
            if model_name in cls:
                return cls
        raise KeyError(f"unknown model {model_name!r}")

    def representative(self, model_name: str) -> str:
        """Return the canonical representative of the model's class."""
        return self.class_of(model_name)[0]

    def equivalent_pairs(self) -> List[Tuple[str, str]]:
        """Return every unordered pair of distinct-but-equivalent models."""
        pairs: List[Tuple[str, str]] = []
        for cls in self.equivalence_classes:
            for i, first in enumerate(cls):
                for second in cls[i + 1 :]:
                    pairs.append((first, second))
        return pairs

    def num_equivalent_pairs(self) -> int:
        return len(self.equivalent_pairs())

    def stronger_graph(self) -> Digraph:
        """Return the full (transitively closed) weaker -> stronger digraph."""
        graph = Digraph(cls[0] for cls in self.equivalence_classes)
        representatives = [cls[0] for cls in self.equivalence_classes]
        for weaker in representatives:
            for stronger in representatives:
                if weaker == stronger:
                    continue
                if self._is_strictly_stronger(stronger, weaker):
                    graph.add_edge(weaker, stronger)
        return graph

    def _is_strictly_stronger(self, first: str, second: str) -> bool:
        """True iff model ``first`` allows a strict subset of ``second``'s tests."""
        first_vector = self.vectors[first]
        second_vector = self.vectors[second]
        subset = all(not a or b for a, b in zip(first_vector, second_vector))
        return subset and first_vector != second_vector

    def strongest_models(self) -> List[str]:
        """Return the representatives no other class is stronger than."""
        graph = self.stronger_graph()
        return [node for node in graph.nodes() if not graph.successors(node)]

    def weakest_models(self) -> List[str]:
        """Return the representatives no other class is weaker than."""
        graph = self.stronger_graph()
        return [node for node in graph.nodes() if not graph.predecessors(node)]

    def distinguishing_tests(self, first: str, second: str) -> List[str]:
        """Names of the suite tests on which two models disagree."""
        names: List[str] = []
        for test, a, b in zip(self.tests, self.vectors[first], self.vectors[second]):
            if a != b:
                names.append(test.name)
        return names

    def relation(self, first: str, second: str) -> Relation:
        """Return the relation between two explored models."""
        if self.vectors[first] == self.vectors[second]:
            return Relation.EQUIVALENT
        if self._is_strictly_stronger(first, second):
            return Relation.STRONGER
        if self._is_strictly_stronger(second, first):
            return Relation.WEAKER
        return Relation.INCOMPARABLE

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        """Serialize to a schema-versioned JSON document.

        The document embeds the full model formulas and test programs, so
        :meth:`from_json` rebuilds a structurally equal result (``==``).
        """
        from repro.api.serialize import exploration_result_to_json

        return exploration_result_to_json(self)

    @staticmethod
    def from_json(document: Dict[str, object]) -> "ExplorationResult":
        """Rebuild from a document written by :meth:`to_json`."""
        from repro.api.serialize import exploration_result_from_json

        return exploration_result_from_json(document)


def explore_models(
    models: Sequence[MemoryModel],
    tests: Sequence[LitmusTest],
    checker: Optional[object] = None,
    preferred_tests: Sequence[LitmusTest] = (),
) -> ExplorationResult:
    """Explore a family of models over a test suite.

    The whole verdict matrix is computed in one batch by a
    :class:`~repro.engine.engine.CheckEngine`, which evaluates each test's
    execution exactly once and shares its candidate spaces (or its
    incremental SAT solver) across every model of the family.

    Args:
        models: the family to explore (e.g. the 36- or 90-model space).
        tests: the comparison suite (e.g. the template suite).
        checker: admissibility backend — a backend name, a strategy
            instance, or a shared :class:`~repro.engine.engine.CheckEngine`;
            explicit enumeration by default.
        preferred_tests: tests whose names should be preferred when labelling
            Hasse edges (the paper uses L1..L9).  They are appended to the
            comparison suite if not already present.
    """
    suite: List[LitmusTest] = list(tests)
    existing_names = {test.name for test in suite}
    for test in preferred_tests:
        if test.name not in existing_names:
            suite.append(test)
            existing_names.add(test.name)
    preferred_names = [test.name for test in preferred_tests]

    engine = CheckEngine.ensure(checker)
    before = engine.stats.snapshot()
    vectors: Dict[str, VerdictVector] = engine.verdict_matrix(models, suite)
    stats = engine.stats.since(before)

    # Equivalence classes: group models by verdict vector.
    by_vector: Dict[VerdictVector, List[str]] = {}
    for model in models:
        by_vector.setdefault(vectors[model.name], []).append(model.name)
    equivalence_classes = sorted(
        (tuple(sorted(names)) for names in by_vector.values()), key=lambda cls: cls[0]
    )

    result = ExplorationResult(
        models=list(models),
        tests=suite,
        vectors=vectors,
        equivalence_classes=equivalence_classes,
        hasse_edges=[],
        checks_performed=stats.checks_performed,
        stats=stats,
    )

    # Hasse diagram: transitive reduction of the weaker -> stronger order.
    reduction = result.stronger_graph().transitive_reduction()
    edges: List[HasseEdge] = []
    for weaker, stronger in reduction.edges():
        distinguishing = [
            test.name
            for test, weak_allowed, strong_allowed in zip(
                suite, vectors[weaker], vectors[stronger]
            )
            if weak_allowed and not strong_allowed
        ]
        preferred = tuple(name for name in preferred_names if name in distinguishing)
        edges.append(HasseEdge(weaker, stronger, tuple(distinguishing), preferred))
    edges.sort(key=lambda edge: (edge.weaker, edge.stronger))
    result.hasse_edges = edges
    return result
