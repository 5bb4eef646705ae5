"""Schema-versioned JSON serialization for every public result type.

Every top-level document carries two envelope fields::

    {"schema": "repro/<kind>", "schema_version": 2, ...payload...}

``to_json`` turns a result object into a plain-JSON dictionary (nothing but
dicts, lists, strings, numbers, booleans and ``None``) and ``from_json``
turns such a dictionary back into the original object, dispatching on the
``schema`` kind.  Round trips are exact: for every supported object ``x``,
``from_json(to_json(x)) == x`` and ``to_json(from_json(doc)) == doc``.

Documents whose ``schema_version`` differs from :data:`SCHEMA_VERSION` are
rejected with :class:`SchemaVersionError` — readers must not silently
reinterpret a payload written by an incompatible producer.

The serializable types are

* :class:`~repro.checker.result.CheckResult` (with its witness),
* :class:`~repro.checker.outcomes.OutcomeSet`,
* :class:`~repro.comparison.compare.ComparisonResult`,
* :class:`~repro.comparison.exploration.ExplorationResult`
  (including :class:`~repro.engine.engine.EngineStats` and Hasse edges),
* :class:`~repro.pipeline.report.EquivalenceReport` (the exhaustive
  enumeration pipeline's partition-vs-template verdict),
* :class:`~repro.synth.engine.SynthesisResult` (consistent/weakest/
  strongest models, exclusion witnesses, conflict core, suggestions),
* :class:`~repro.synth.observations.ObservationSet` and
  :class:`~repro.synth.observations.VerdictDocument` (the synthesis
  inputs: observed verdicts, and the exported models×tests matrix),
* :class:`~repro.core.litmus.LitmusTest` (full program structure),
* formula-defined :class:`~repro.core.model.MemoryModel` objects
  (models backed by arbitrary Python callables cannot travel as JSON and
  raise :class:`SerializationError`).

``repro/model`` documents are also accepted *inline* wherever a request
takes a model spec (:mod:`repro.api.requests`), which is how ``serve``
clients ship models the server has never seen; the ``.model`` text format
of :mod:`repro.io.model_file` carries the same four fields.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.checker.outcomes import OutcomeSet
from repro.checker.result import CheckResult, CheckWitness, HbEdge
from repro.comparison.compare import ComparisonResult, Relation
from repro.comparison.exploration import ExplorationResult, HasseEdge
from repro.core.events import Event
from repro.core.expr import BinOp, Const, Expr, Loc, Reg
from repro.core.formula import parse_formula
from repro.core.instructions import Branch, Fence, Instruction, Load, Op, Store
from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.core.predicates import PredicateSet, default_registry
from repro.core.program import Program, Thread
from repro.engine.engine import EngineStats
from repro.pipeline.report import EquivalenceReport

#: The version every document written by this module carries.  Version 2
#: added the synthesis document kinds and the synthesis counters in every
#: serialized ``EngineStats`` payload; version 3 added the adaptive
#: pipeline's counters (``adaptive``/``profile_skips``/``frontier_skips``/
#: ``audits_performed`` on equivalence reports, ``derived_verdicts`` in
#: ``EngineStats``); version 4 dropped three counters of deleted check
#: paths (the in-engine enumeration's coherence-cache hits, synthesis's
#: private SAT calls and mask-group hits), the synthesize request's
#: ``backend`` field and the exhaustive request's partition checkpoint
#: path.  Older documents are rejected (regenerate them, or strip the
#: envelope for request documents).
SCHEMA_VERSION = 4

#: ``schema`` kind strings, one per top-level document type.
SCHEMA_PREFIX = "repro/"


class SerializationError(ValueError):
    """Raised when an object cannot be serialized or a document is malformed."""


class SchemaVersionError(SerializationError):
    """Raised when a document's ``schema_version`` is not :data:`SCHEMA_VERSION`."""


def envelope(kind: str) -> Dict[str, Any]:
    """Return a fresh document envelope for ``kind``."""
    return {"schema": SCHEMA_PREFIX + kind, "schema_version": SCHEMA_VERSION}


def check_envelope(document: Any, kind: Optional[str] = None) -> str:
    """Validate a document's envelope; return its kind (without the prefix)."""
    if not isinstance(document, dict):
        raise SerializationError(f"expected a JSON object, got {type(document).__name__}")
    schema = document.get("schema")
    if not isinstance(schema, str) or not schema.startswith(SCHEMA_PREFIX):
        raise SerializationError(f"missing or malformed 'schema' field: {schema!r}")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"schema_version {version!r} is not supported (expected {SCHEMA_VERSION})"
        )
    found = schema[len(SCHEMA_PREFIX) :]
    if kind is not None and found != kind:
        raise SerializationError(f"expected a {kind!r} document, found {found!r}")
    return found


# ----------------------------------------------------------------------
# expressions and instructions
# ----------------------------------------------------------------------
def _expr_to_json(expr: Expr) -> Dict[str, Any]:
    if isinstance(expr, Const):
        return {"kind": "const", "value": expr.value}
    if isinstance(expr, Reg):
        return {"kind": "reg", "name": expr.name}
    if isinstance(expr, Loc):
        return {"kind": "loc", "name": expr.name}
    if isinstance(expr, BinOp):
        return {
            "kind": "binop",
            "op": expr.op,
            "left": _expr_to_json(expr.left),
            "right": _expr_to_json(expr.right),
        }
    raise SerializationError(f"cannot serialize expression {expr!r}")


def _expr_from_json(data: Dict[str, Any]) -> Expr:
    kind = data.get("kind")
    if kind == "const":
        return Const(data["value"])
    if kind == "reg":
        return Reg(data["name"])
    if kind == "loc":
        return Loc(data["name"])
    if kind == "binop":
        return BinOp(data["op"], _expr_from_json(data["left"]), _expr_from_json(data["right"]))
    raise SerializationError(f"unknown expression kind {kind!r}")


def _instruction_to_json(instruction: Instruction) -> Dict[str, Any]:
    if isinstance(instruction, Load):
        return {"kind": "load", "dest": instruction.dest, "address": _expr_to_json(instruction.address)}
    if isinstance(instruction, Store):
        return {
            "kind": "store",
            "address": _expr_to_json(instruction.address),
            "value": _expr_to_json(instruction.value),
        }
    if isinstance(instruction, Fence):
        return {"kind": "fence", "fence_kind": instruction.kind}
    if isinstance(instruction, Op):
        return {"kind": "op", "dest": instruction.dest, "expr": _expr_to_json(instruction.expr)}
    if isinstance(instruction, Branch):
        return {"kind": "branch", "expr": _expr_to_json(instruction.expr), "label": instruction.label}
    raise SerializationError(f"cannot serialize instruction {instruction!r}")


def _instruction_from_json(data: Dict[str, Any]) -> Instruction:
    kind = data.get("kind")
    if kind == "load":
        return Load(data["dest"], _expr_from_json(data["address"]))
    if kind == "store":
        return Store(_expr_from_json(data["address"]), _expr_from_json(data["value"]))
    if kind == "fence":
        return Fence(data["fence_kind"])
    if kind == "op":
        return Op(data["dest"], _expr_from_json(data["expr"]))
    if kind == "branch":
        return Branch(_expr_from_json(data["expr"]), data["label"])
    raise SerializationError(f"unknown instruction kind {kind!r}")


# ----------------------------------------------------------------------
# programs, litmus tests and models
# ----------------------------------------------------------------------
def _program_to_json(program: Program) -> Dict[str, Any]:
    return {
        "threads": [
            {
                "name": thread.name,
                "instructions": [_instruction_to_json(i) for i in thread.instructions],
            }
            for thread in program.threads
        ]
    }


def _program_from_json(data: Dict[str, Any]) -> Program:
    return Program(
        Thread(thread["name"], [_instruction_from_json(i) for i in thread["instructions"]])
        for thread in data["threads"]
    )


def test_to_json(test: LitmusTest) -> Dict[str, Any]:
    """Serialize a litmus test with its full program structure."""
    document = envelope("litmus_test")
    document.update(
        {
            "name": test.name,
            "description": test.description,
            "program": _program_to_json(test.program),
            "outcome": [
                [[key[0], key[1]], value] for key, value in test.outcome.read_values
            ],
        }
    )
    return document


def test_from_json(document: Dict[str, Any]) -> LitmusTest:
    """Rebuild a litmus test serialized by :func:`test_to_json`."""
    check_envelope(document, "litmus_test")
    outcome = {(key[0], key[1]): value for key, value in document["outcome"]}
    return LitmusTest(
        document["name"],
        _program_from_json(document["program"]),
        outcome,
        document.get("description", ""),
    )


def model_to_json(model: MemoryModel) -> Dict[str, Any]:
    """Serialize a formula-defined memory model.

    Models whose must-not-reorder function is an arbitrary Python callable
    have no JSON representation and raise :class:`SerializationError`.
    """
    if model.formula is None:
        raise SerializationError(
            f"model {model.name!r} is defined by a Python callable and cannot be "
            "serialized; express it in the formula DSL to make it portable"
        )
    document = envelope("model")
    document.update(
        {
            "name": model.name,
            "formula": str(model.formula),
            "predicates": list(model.predicates.names()),
            "description": model.description,
        }
    )
    return document


def model_from_json(document: Dict[str, Any]) -> MemoryModel:
    """Rebuild a memory model serialized by :func:`model_to_json`."""
    check_envelope(document, "model")
    registry = default_registry()
    predicates = []
    for name in document["predicates"]:
        if name not in registry:
            raise SerializationError(f"unknown predicate {name!r} in model document")
        predicates.append(registry[name])
    return MemoryModel(
        document["name"],
        parse_formula(document["formula"]),
        PredicateSet(predicates),
        document.get("description", ""),
    )


# ----------------------------------------------------------------------
# events and witnesses
# ----------------------------------------------------------------------
def _event_to_json(event: Event) -> Dict[str, Any]:
    return {
        "thread": event.thread_index,
        "index": event.index,
        "instruction": _instruction_to_json(event.instruction),
    }


def _event_from_json(data: Dict[str, Any]) -> Event:
    return Event(data["thread"], data["index"], _instruction_from_json(data["instruction"]))


def _witness_to_json(witness: CheckWitness) -> Dict[str, Any]:
    return {
        "read_from": [
            [_event_to_json(load), None if store is None else _event_to_json(store)]
            for load, store in witness.read_from
        ],
        "coherence": [
            [location, [_event_to_json(store) for store in stores]]
            for location, stores in witness.coherence
        ],
        "edges": [
            [_event_to_json(source), _event_to_json(target), kind]
            for source, target, kind in witness.edges
        ],
    }


def _witness_from_json(data: Dict[str, Any]) -> CheckWitness:
    read_from: Tuple[Tuple[Event, Optional[Event]], ...] = tuple(
        (_event_from_json(load), None if store is None else _event_from_json(store))
        for load, store in data["read_from"]
    )
    coherence = tuple(
        (location, tuple(_event_from_json(store) for store in stores))
        for location, stores in data["coherence"]
    )
    edges: Tuple[HbEdge, ...] = tuple(
        (_event_from_json(source), _event_from_json(target), kind)
        for source, target, kind in data["edges"]
    )
    return CheckWitness(read_from, coherence, edges)


# ----------------------------------------------------------------------
# result types
# ----------------------------------------------------------------------
def check_result_to_json(result: CheckResult) -> Dict[str, Any]:
    document = envelope("check_result")
    document.update(
        {
            "allowed": result.allowed,
            "test_name": result.test_name,
            "model_name": result.model_name,
            "reason": result.reason,
            "witness": None if result.witness is None else _witness_to_json(result.witness),
        }
    )
    return document


def check_result_from_json(document: Dict[str, Any]) -> CheckResult:
    check_envelope(document, "check_result")
    witness = document.get("witness")
    return CheckResult(
        allowed=document["allowed"],
        test_name=document.get("test_name", ""),
        model_name=document.get("model_name", ""),
        witness=None if witness is None else _witness_from_json(witness),
        reason=document.get("reason", ""),
    )


def comparison_result_to_json(result: ComparisonResult) -> Dict[str, Any]:
    document = envelope("comparison_result")
    document.update(
        {
            "first": result.first,
            "second": result.second,
            "relation": result.relation.value,
            "only_first": list(result.only_first),
            "only_second": list(result.only_second),
        }
    )
    return document


def comparison_result_from_json(document: Dict[str, Any]) -> ComparisonResult:
    check_envelope(document, "comparison_result")
    return ComparisonResult(
        first=document["first"],
        second=document["second"],
        relation=Relation(document["relation"]),
        only_first=tuple(document["only_first"]),
        only_second=tuple(document["only_second"]),
    )


def engine_stats_to_json(stats: EngineStats) -> Dict[str, Any]:
    return dict(stats.as_dict())


def engine_stats_from_json(data: Dict[str, Any]) -> EngineStats:
    known = EngineStats().as_dict()
    unknown = [key for key in data if key not in known]
    if unknown:
        raise SerializationError(f"unknown EngineStats counters: {unknown}")
    return EngineStats(**data)


def _hasse_edge_to_json(edge: HasseEdge) -> Dict[str, Any]:
    return {
        "weaker": edge.weaker,
        "stronger": edge.stronger,
        "tests": list(edge.tests),
        "preferred_tests": list(edge.preferred_tests),
    }


def _hasse_edge_from_json(data: Dict[str, Any]) -> HasseEdge:
    return HasseEdge(
        weaker=data["weaker"],
        stronger=data["stronger"],
        tests=tuple(data["tests"]),
        preferred_tests=tuple(data.get("preferred_tests", ())),
    )


def exploration_result_to_json(result: ExplorationResult) -> Dict[str, Any]:
    document = envelope("exploration_result")
    document.update(
        {
            "models": [model_to_json(model) for model in result.models],
            "tests": [test_to_json(test) for test in result.tests],
            "vectors": {
                name: list(vector) for name, vector in result.vectors.items()
            },
            "equivalence_classes": [list(cls) for cls in result.equivalence_classes],
            "hasse_edges": [_hasse_edge_to_json(edge) for edge in result.hasse_edges],
            "checks_performed": result.checks_performed,
            "stats": None if result.stats is None else engine_stats_to_json(result.stats),
        }
    )
    return document


def exploration_result_from_json(document: Dict[str, Any]) -> ExplorationResult:
    check_envelope(document, "exploration_result")
    stats = document.get("stats")
    return ExplorationResult(
        models=[model_from_json(model) for model in document["models"]],
        tests=[test_from_json(test) for test in document["tests"]],
        vectors={
            name: tuple(vector) for name, vector in document["vectors"].items()
        },
        equivalence_classes=[tuple(cls) for cls in document["equivalence_classes"]],
        hasse_edges=[_hasse_edge_from_json(edge) for edge in document["hasse_edges"]],
        checks_performed=document.get("checks_performed", 0),
        stats=None if stats is None else engine_stats_from_json(stats),
    )


def equivalence_report_to_json(report: EquivalenceReport) -> Dict[str, Any]:
    document = envelope("equivalence_report")
    document.update(
        {
            "bound": report.bound,
            "space": report.space,
            "suite": report.suite,
            "backend": report.backend,
            "model_names": list(report.model_names),
            "raw_tests": report.raw_tests,
            "unique_tests": report.unique_tests,
            "shards_total": report.shards_total,
            "shards_checked": report.shards_checked,
            "shards_resumed": report.shards_resumed,
            "checks_performed": report.checks_performed,
            "equivalence_classes": [list(cls) for cls in report.equivalence_classes],
            "hasse_edges": [list(edge) for edge in report.hasse_edges],
            "template_classes": [list(cls) for cls in report.template_classes],
            "template_hasse_edges": [list(edge) for edge in report.template_hasse_edges],
            "matches_template": report.matches_template,
            "mismatches": list(report.mismatches),
            "stats": None if report.stats is None else engine_stats_to_json(report.stats),
            "elapsed_seconds": report.elapsed_seconds,
            "shards_quarantined": report.shards_quarantined,
            "quarantined_shards": list(report.quarantined_shards),
            "complete": report.complete,
            "adaptive": report.adaptive,
            "profile_skips": report.profile_skips,
            "frontier_skips": report.frontier_skips,
            "audits_performed": report.audits_performed,
        }
    )
    return document


def equivalence_report_from_json(document: Dict[str, Any]) -> EquivalenceReport:
    check_envelope(document, "equivalence_report")
    stats = document.get("stats")
    return EquivalenceReport(
        bound=document["bound"],
        space=document["space"],
        suite=document["suite"],
        backend=document["backend"],
        model_names=list(document["model_names"]),
        raw_tests=document["raw_tests"],
        unique_tests=document["unique_tests"],
        shards_total=document["shards_total"],
        shards_checked=document["shards_checked"],
        shards_resumed=document["shards_resumed"],
        checks_performed=document["checks_performed"],
        equivalence_classes=[tuple(cls) for cls in document["equivalence_classes"]],
        hasse_edges=[(edge[0], edge[1]) for edge in document["hasse_edges"]],
        template_classes=[tuple(cls) for cls in document["template_classes"]],
        template_hasse_edges=[
            (edge[0], edge[1]) for edge in document["template_hasse_edges"]
        ],
        matches_template=document["matches_template"],
        mismatches=list(document.get("mismatches", [])),
        stats=None if stats is None else engine_stats_from_json(stats),
        elapsed_seconds=document.get("elapsed_seconds", 0.0),
        # Absent in pre-fault-tolerance documents: default to a complete run.
        shards_quarantined=document.get("shards_quarantined", 0),
        quarantined_shards=list(document.get("quarantined_shards", [])),
        complete=document.get("complete", True),
        # Absent in pre-adaptive documents: default to a brute-force run.
        adaptive=document.get("adaptive", False),
        profile_skips=document.get("profile_skips", 0),
        frontier_skips=document.get("frontier_skips", 0),
        audits_performed=document.get("audits_performed", 0),
    )


def synthesis_result_to_json(result: "SynthesisResult") -> Dict[str, Any]:
    document = envelope("synthesis_result")
    document.update(
        {
            "space": result.space,
            "backend": result.backend,
            "observations": [[name, allowed] for name, allowed in result.observations],
            "models_considered": result.models_considered,
            "consistent_models": list(result.consistent_models),
            "weakest": list(result.weakest),
            "strongest": list(result.strongest),
            "witnesses": [
                {
                    "model": witness.model,
                    "test": witness.test,
                    "observed": witness.observed,
                    "predicted": witness.predicted,
                }
                for witness in result.witnesses
            ],
            "conflict_core": list(result.conflict_core),
            "suggestions": [
                {
                    "test": suggestion.test,
                    "separates_pairs": suggestion.separates_pairs,
                    "allowed_models": suggestion.allowed_models,
                    "forbidden_models": suggestion.forbidden_models,
                }
                for suggestion in result.suggestions
            ],
            "stats": None if result.stats is None else engine_stats_to_json(result.stats),
        }
    )
    return document


def synthesis_result_from_json(document: Dict[str, Any]) -> "SynthesisResult":
    from repro.synth.engine import ExclusionWitness, SynthesisResult, TestSuggestion

    check_envelope(document, "synthesis_result")
    stats = document.get("stats")
    return SynthesisResult(
        space=document["space"],
        backend=document["backend"],
        observations=tuple(
            (name, allowed) for name, allowed in document["observations"]
        ),
        models_considered=document["models_considered"],
        consistent_models=tuple(document["consistent_models"]),
        weakest=tuple(document["weakest"]),
        strongest=tuple(document["strongest"]),
        witnesses=tuple(
            ExclusionWitness(
                model=witness["model"],
                test=witness["test"],
                observed=witness["observed"],
                predicted=witness["predicted"],
            )
            for witness in document["witnesses"]
        ),
        conflict_core=tuple(document.get("conflict_core", ())),
        suggestions=tuple(
            TestSuggestion(
                test=suggestion["test"],
                separates_pairs=suggestion["separates_pairs"],
                allowed_models=suggestion["allowed_models"],
                forbidden_models=suggestion["forbidden_models"],
            )
            for suggestion in document.get("suggestions", ())
        ),
        stats=None if stats is None else engine_stats_from_json(stats),
    )


def outcome_set_to_json(result: OutcomeSet) -> Dict[str, Any]:
    document = envelope("outcome_set")
    document.update(
        {
            "test_name": result.test_name,
            "model_name": result.model_name,
            "outcomes": [dict(outcome) for outcome in result.outcomes],
        }
    )
    return document


def outcome_set_from_json(document: Dict[str, Any]) -> OutcomeSet:
    check_envelope(document, "outcome_set")
    return OutcomeSet(
        test_name=document["test_name"],
        model_name=document["model_name"],
        outcomes=[dict(outcome) for outcome in document["outcomes"]],
    )


# ----------------------------------------------------------------------
# generic dispatch
# ----------------------------------------------------------------------
def _synth_types():
    # Deferred: repro.synth imports this module for envelopes.
    from repro.synth.engine import SynthesisResult
    from repro.synth.observations import ObservationSet, VerdictDocument

    return SynthesisResult, ObservationSet, VerdictDocument


_TO_JSON: Tuple[Tuple[type, Callable[[Any], Dict[str, Any]]], ...] = (
    (CheckResult, check_result_to_json),
    (ComparisonResult, comparison_result_to_json),
    (ExplorationResult, exploration_result_to_json),
    (EquivalenceReport, equivalence_report_to_json),
    (OutcomeSet, outcome_set_to_json),
    (LitmusTest, test_to_json),
    (MemoryModel, model_to_json),
    (EngineStats, lambda stats: dict(envelope("engine_stats"), counters=engine_stats_to_json(stats))),
)

_FROM_JSON: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "check_result": check_result_from_json,
    "comparison_result": comparison_result_from_json,
    "exploration_result": exploration_result_from_json,
    "equivalence_report": equivalence_report_from_json,
    "outcome_set": outcome_set_from_json,
    "litmus_test": test_from_json,
    "model": model_from_json,
    "engine_stats": lambda document: engine_stats_from_json(document["counters"]),
    "synthesis_result": synthesis_result_from_json,
    "observations": lambda document: _synth_types()[1].from_json(document),
    "verdicts": lambda document: _synth_types()[2].from_json(document),
}


def to_json(obj: Any) -> Dict[str, Any]:
    """Serialize any supported result object to a schema-versioned document."""
    for cls, writer in _TO_JSON:
        if isinstance(obj, cls):
            return writer(obj)
    SynthesisResult, ObservationSet, VerdictDocument = _synth_types()
    if isinstance(obj, SynthesisResult):
        return synthesis_result_to_json(obj)
    if isinstance(obj, (ObservationSet, VerdictDocument)):
        return obj.to_json()
    raise SerializationError(f"cannot serialize objects of type {type(obj).__name__}")


def from_json(document: Dict[str, Any]) -> Any:
    """Rebuild an object from any document written by :func:`to_json`."""
    kind = check_envelope(document)
    reader = _FROM_JSON.get(kind)
    if reader is None:
        raise SerializationError(f"unknown document kind {kind!r}")
    return reader(document)
