"""Pairwise comparison of memory models over a litmus-test suite.

By Theorem 1 (and the template construction of Section 3.4), two models of
the paper's class are equivalent iff they agree on every test of the template
suite; when they disagree, the tests allowed by one but not the other are the
*contrasting litmus tests* witnessing the difference.

The terminology follows the paper: a model is **stronger** when it allows
*fewer* executions (SC is the strongest model of the space), and **weaker**
when it allows more.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.engine.engine import CheckEngine

#: What the comparison entry points accept as an admissibility backend: a
#: ready-made engine to share, or a backend name (``"explicit"`` or
#: ``"sat"``).
EngineSpec = Union[CheckEngine, str]

#: A verdict vector: one boolean (allowed?) per test, in suite order.
VerdictVector = Tuple[bool, ...]


class Relation(str, Enum):
    """How the first model relates to the second."""

    EQUIVALENT = "equivalent"
    STRONGER = "stronger"  # first allows strictly fewer executions
    WEAKER = "weaker"  # first allows strictly more executions
    INCOMPARABLE = "incomparable"

    def inverse(self) -> "Relation":
        if self is Relation.STRONGER:
            return Relation.WEAKER
        if self is Relation.WEAKER:
            return Relation.STRONGER
        return self


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of comparing two models over a test suite."""

    first: str
    second: str
    relation: Relation
    #: tests allowed by the first model but forbidden by the second
    only_first: Tuple[str, ...] = ()
    #: tests allowed by the second model but forbidden by the first
    only_second: Tuple[str, ...] = ()

    @property
    def equivalent(self) -> bool:
        return self.relation is Relation.EQUIVALENT

    def witnesses(self) -> Tuple[str, ...]:
        """Return every contrasting test name."""
        return tuple(self.only_first) + tuple(self.only_second)

    def describe(self) -> str:
        if self.relation is Relation.EQUIVALENT:
            return f"{self.first} and {self.second} are equivalent"
        if self.relation is Relation.STRONGER:
            detail = ", ".join(self.only_second) or "-"
            return f"{self.first} is stronger than {self.second} (witnesses: {detail})"
        if self.relation is Relation.WEAKER:
            detail = ", ".join(self.only_first) or "-"
            return f"{self.first} is weaker than {self.second} (witnesses: {detail})"
        return (
            f"{self.first} and {self.second} are incomparable "
            f"(only {self.first}: {', '.join(self.only_first)}; "
            f"only {self.second}: {', '.join(self.only_second)})"
        )

    def to_json(self) -> Dict[str, Any]:
        """Serialize to a schema-versioned JSON document."""
        from repro.api.serialize import comparison_result_to_json

        return comparison_result_to_json(self)

    @staticmethod
    def from_json(document: Dict[str, Any]) -> "ComparisonResult":
        """Rebuild from a document written by :meth:`to_json`."""
        from repro.api.serialize import comparison_result_from_json

        return comparison_result_from_json(document)


class ModelComparator:
    """Compares models over a fixed test suite, caching verdict vectors.

    All admissibility checks are routed through a
    :class:`~repro.engine.engine.CheckEngine`, so the per-test execution and
    candidate-space work is shared across every model this comparator (or
    anything else holding the same engine) ever sees.

    Args:
        tests: the litmus tests to compare over (typically a template suite).
        engine: the admissibility backend — a ready-made
            :class:`~repro.engine.engine.CheckEngine` to share, or a backend
            name (``"explicit"`` or ``"sat"``).  The explicit backend by
            default.
    """

    def __init__(
        self, tests: Sequence[LitmusTest], engine: Optional[EngineSpec] = None
    ) -> None:
        self.tests: List[LitmusTest] = list(tests)
        self.engine = CheckEngine.ensure(engine)
        self._vectors: Dict[str, VerdictVector] = {}
        self._checks_performed = 0

    # ------------------------------------------------------------------
    # verdict vectors
    # ------------------------------------------------------------------
    def verdict_vector(self, model: MemoryModel) -> VerdictVector:
        """Return (computing and caching) the model's verdict vector."""
        if model.name not in self._vectors:
            self._vectors[model.name] = self.engine.verdict_vector(model, self.tests)
            self._checks_performed += len(self.tests)
        return self._vectors[model.name]

    @property
    def checks_performed(self) -> int:
        """Number of individual admissibility checks executed so far."""
        return self._checks_performed

    def allowed_tests(self, model: MemoryModel) -> List[str]:
        """Return the names of the suite tests the model allows."""
        vector = self.verdict_vector(model)
        return [test.name for test, allowed in zip(self.tests, vector) if allowed]

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def compare(self, first: MemoryModel, second: MemoryModel) -> ComparisonResult:
        """Compare two models over the suite."""
        first_vector = self.verdict_vector(first)
        second_vector = self.verdict_vector(second)

        only_first: List[str] = []
        only_second: List[str] = []
        for test, first_allowed, second_allowed in zip(self.tests, first_vector, second_vector):
            if first_allowed and not second_allowed:
                only_first.append(test.name)
            elif second_allowed and not first_allowed:
                only_second.append(test.name)

        if not only_first and not only_second:
            relation = Relation.EQUIVALENT
        elif not only_first:
            relation = Relation.STRONGER
        elif not only_second:
            relation = Relation.WEAKER
        else:
            relation = Relation.INCOMPARABLE
        return ComparisonResult(
            first.name, second.name, relation, tuple(only_first), tuple(only_second)
        )

    def distinguishing_tests(self, first: MemoryModel, second: MemoryModel) -> List[str]:
        """Return the names of every test on which the two models disagree."""
        result = self.compare(first, second)
        return sorted(result.witnesses())


def verdict_vector(
    model: MemoryModel,
    tests: Sequence[LitmusTest],
    engine: Optional[EngineSpec] = None,
) -> VerdictVector:
    """Convenience wrapper around :meth:`ModelComparator.verdict_vector`."""
    return ModelComparator(tests, engine).verdict_vector(model)


def compare_models(
    first: MemoryModel,
    second: MemoryModel,
    tests: Sequence[LitmusTest],
    engine: Optional[EngineSpec] = None,
) -> ComparisonResult:
    """Convenience wrapper around :meth:`ModelComparator.compare`."""
    return ModelComparator(tests, engine).compare(first, second)
