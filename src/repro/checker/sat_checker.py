"""SAT-based admissibility checker (the paper's MiniSat role).

The checker encodes the existential question "is there a read-from map and
coherence order making the forced happens-before digraph acyclic?" into CNF
(:mod:`repro.checker.encoder`) and hands it to the CDCL solver in
:mod:`repro.sat`.  When the formula is satisfiable the assignment is decoded
back into a :class:`~repro.checker.result.CheckWitness` so that the two
backends return comparable results.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.checker.encoder import Encoding, encode
from repro.checker.relations import forced_edges, program_order_edges
from repro.checker.result import CheckResult, CheckWitness
from repro.core.events import Event
from repro.core.execution import Execution, ExecutionError
from repro.core.expr import ExprError
from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.sat.cnf import Assignment
from repro.sat.solver import SatSolver


class SatChecker:
    """Decide admissibility via the SAT encoding."""

    name = "sat"

    def check(self, test: LitmusTest, model: MemoryModel) -> CheckResult:
        """Return whether ``model`` allows the candidate execution of ``test``."""
        try:
            execution = test.execution()
        except (ExecutionError, ExprError) as error:
            return CheckResult(
                False,
                test_name=test.name,
                model_name=model.name,
                reason=f"execution cannot be evaluated: {error}",
            )
        return self.check_execution(execution, model, test_name=test.name)

    def check_execution(
        self, execution: Execution, model: MemoryModel, test_name: str = ""
    ) -> CheckResult:
        encoding = encode(execution, model)
        if encoding.trivially_unsat:
            return CheckResult(
                False,
                test_name=test_name,
                model_name=model.name,
                reason="no read-from source can produce the observed values",
            )

        result = SatSolver(encoding.cnf).solve()
        if not result.satisfiable or result.assignment is None:
            return CheckResult(
                False,
                test_name=test_name,
                model_name=model.name,
                reason="SAT encoding is unsatisfiable",
            )

        witness = self._decode_witness(execution, model, encoding, result.assignment)
        return CheckResult(
            True,
            test_name=test_name,
            model_name=model.name,
            witness=witness,
        )

    # ------------------------------------------------------------------
    def _decode_witness(
        self,
        execution: Execution,
        model: MemoryModel,
        encoding: Encoding,
        assignment: Assignment,
    ) -> Optional[CheckWitness]:
        events_by_uid: Dict[str, Event] = {event.uid: event for event in execution.events}

        read_from: Dict[Event, Optional[Event]] = {}
        for (load_uid, source_label), variable in encoding.read_from_vars.items():
            if assignment.get(variable, False):
                load = events_by_uid[load_uid]
                source = None if source_label == "init" else events_by_uid[source_label]
                read_from[load] = source
        if set(read_from) != set(execution.loads()):
            return None  # decoding failed; should not happen for valid encodings

        coherence: Dict[str, Tuple[Event, ...]] = {}
        for location in execution.locations():
            stores = execution.stores_to(location)

            def coherence_key(store: Event) -> int:
                return sum(
                    1
                    for other in stores
                    if other != store and self._coherence_before(encoding, assignment, other, store)
                )

            coherence[location] = tuple(sorted(stores, key=coherence_key))

        edges = forced_edges(
            execution, model, read_from, coherence, program_order_edges(execution, model)
        )
        return CheckWitness(
            read_from=tuple(sorted(read_from.items(), key=lambda kv: kv[0].uid)),
            coherence=tuple(sorted(coherence.items())),
            edges=tuple(edges or ()),
        )

    @staticmethod
    def _coherence_before(
        encoding: Encoding, assignment: Assignment, first: Event, second: Event
    ) -> bool:
        if (first.uid, second.uid) in encoding.coherence_vars:
            return assignment.get(encoding.coherence_vars[(first.uid, second.uid)], False)
        if (second.uid, first.uid) in encoding.coherence_vars:
            return not assignment.get(encoding.coherence_vars[(second.uid, first.uid)], False)
        return False
