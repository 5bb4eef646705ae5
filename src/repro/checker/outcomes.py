"""Outcome enumeration: which final results can a program produce?

The litmus-test workflow of the paper always asks about one specific outcome,
but for examples and exploratory use it is handy to ask the dual question:
"given this program, which observable outcomes does a model allow?"  This
module enumerates the finite space of candidate outcomes (every load observes
either the initial value or a value some store to its location can write) and
filters it through an admissibility checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.core.execution import EventKey, Execution, ExecutionError
from repro.core.instructions import Load, Store
from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.core.program import Program


def _load_keys(program: Program) -> List[EventKey]:
    keys: List[EventKey] = []
    for thread_index, thread in enumerate(program.threads):
        for instruction_index, instruction in enumerate(thread.instructions):
            if isinstance(instruction, Load):
                keys.append((thread_index, instruction_index))
    return keys


def _candidate_values(
    program: Program, initial_values: Optional[Mapping[str, int]] = None, rounds: int = 4
) -> Dict[EventKey, Set[int]]:
    """Compute a superset of the values each load can observe.

    Store values may depend on loaded values (dependency idioms), so the
    candidate sets are grown to a fixed point: starting from the initial
    values and constant stores, each round evaluates the program against
    every combination discovered so far and records the store values it
    produces.  Litmus-sized programs converge after one or two rounds.
    """
    initial_values = dict(initial_values or {})
    load_keys = _load_keys(program)
    candidates: Dict[EventKey, Set[int]] = {key: {initial_values.get("", 0)} for key in load_keys}
    # Seed with initial values per location (default 0).
    candidates = {key: {0} for key in load_keys}
    for key in load_keys:
        thread_index, instruction_index = key
        instruction = program.threads[thread_index].instructions[instruction_index]
        # If the address is a plain location, seed with its initial value.
        candidates[key] = {initial_values.get(str(instruction.address), 0)}

    for _round in range(rounds):
        discovered: Dict[EventKey, Set[int]] = {key: set(values) for key, values in candidates.items()}
        value_lists = [sorted(candidates[key]) for key in load_keys]
        for combination in product(*value_lists):
            read_values = dict(zip(load_keys, combination))
            try:
                execution = Execution(program, read_values, initial_values)
            except ExecutionError:
                continue
            for store in execution.stores():
                location = execution.location_of(store)
                value = execution.value_of(store)
                for key in load_keys:
                    load_event = execution.event(*key)
                    if execution.location_of(load_event) == location:
                        discovered[key].add(value)
        if discovered == candidates:
            break
        candidates = discovered
    return candidates


def enumerate_candidate_outcomes(
    program: Program, initial_values: Optional[Mapping[str, int]] = None
) -> Iterator[Dict[EventKey, int]]:
    """Yield every feasible outcome (load-value assignment) of ``program``.

    An outcome is *feasible* when each load's value is either the initial
    value of its location or a value actually written to that location by
    some store in the same execution.  Feasibility does not yet involve a
    memory model; it only rules out values that no store can produce.
    """
    load_keys = _load_keys(program)
    candidates = _candidate_values(program, initial_values)
    value_lists = [sorted(candidates[key]) for key in load_keys]
    for combination in product(*value_lists):
        read_values = dict(zip(load_keys, combination))
        try:
            execution = Execution(program, read_values, initial_values)
        except ExecutionError:
            continue
        if _is_feasible(execution):
            yield read_values


def _is_feasible(execution: Execution) -> bool:
    for load in execution.loads():
        location = execution.location_of(load)
        value = execution.value_of(load)
        if value == execution.initial_value(location):
            continue
        if any(
            execution.value_of(store) == value for store in execution.stores_to(location)
        ):
            continue
        return False
    return True


@dataclass
class OutcomeSet:
    """The outcomes a model allows for one program, as a result object.

    ``outcomes`` maps load destination registers to observed values, one
    dictionary per allowed outcome, in the stable order produced by
    :func:`allowed_outcomes`.  The type round-trips through JSON via
    :mod:`repro.api.serialize`.
    """

    test_name: str
    model_name: str
    outcomes: List[Dict[str, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[Dict[str, int]]:
        return iter(self.outcomes)

    def describe(self) -> str:
        lines = [f"Outcomes allowed under {self.model_name}:"]
        for outcome in self.outcomes:
            rendered = "; ".join(f"{register} = {value}" for register, value in sorted(outcome.items()))
            lines.append(f"  {rendered}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """Serialize to a schema-versioned JSON document."""
        from repro.api.serialize import outcome_set_to_json

        return outcome_set_to_json(self)

    @staticmethod
    def from_json(document: Dict[str, Any]) -> "OutcomeSet":
        """Rebuild from a document written by :meth:`to_json`."""
        from repro.api.serialize import outcome_set_from_json

        return outcome_set_from_json(document)


def allowed_outcome_set(
    test: LitmusTest,
    model: MemoryModel,
    checker: Optional[object] = None,
    initial_values: Optional[Mapping[str, int]] = None,
) -> OutcomeSet:
    """Return the outcomes ``model`` allows for the test's program, packaged.

    The candidate outcome of ``test`` itself is ignored — only its program
    matters; the test contributes its name to the result.
    """
    outcomes = allowed_outcomes(
        test.program, model, checker=checker, initial_values=initial_values, name=test.name
    )
    return OutcomeSet(test_name=test.name, model_name=model.name, outcomes=outcomes)


def allowed_outcomes(
    program: Program,
    model: MemoryModel,
    checker: Optional[object] = None,
    initial_values: Optional[Mapping[str, int]] = None,
    name: str = "outcome",
) -> List[Dict[str, int]]:
    """Return the register outcomes ``model`` allows for ``program``.

    ``checker`` is a backend name, a strategy instance, or a
    :class:`~repro.engine.engine.CheckEngine` to share; explicit enumeration
    by default.  Each element maps load destination registers to observed
    values, in a stable order (sorted by register name within sorted outcome
    tuples).
    """
    from repro.engine.engine import CheckEngine

    engine = CheckEngine.ensure(checker)
    results: List[Dict[str, int]] = []
    seen: Set[Tuple[Tuple[str, int], ...]] = set()
    for read_values in enumerate_candidate_outcomes(program, initial_values):
        test = LitmusTest(name, program, read_values)
        # cache=False: each candidate outcome is a fresh one-shot test, so
        # caching its context in a shared engine could never pay off.
        if not engine.check(test, model, cache=False):
            continue
        register_outcome = test.register_outcome()
        key = tuple(sorted(register_outcome.items()))
        if key not in seen:
            seen.add(key)
            results.append(register_outcome)
    results.sort(key=lambda outcome: tuple(sorted(outcome.items())))
    return results
