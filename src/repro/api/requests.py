"""Declarative request objects dispatched through :meth:`Session.run`.

Every operation of the public API is a frozen dataclass describing *what* to
compute, not *how*: model and test fields accept either live objects or
specs (names, paths, inline litmus text, serialized documents) that the
session's registries resolve.  In particular every model field — including
``CompareRequest.first``/``second`` and ``ExploreRequest.models`` — accepts
an inline ``repro/model`` document, so a ``serve`` client can have the
server check models it has never seen; the compile layer's digest-keyed
caches make a resent definition as cheap as a registered name.  Requests
round-trip through JSON — the ``serve`` loop reads one request document per
line — via :func:`request_to_json` / :func:`request_from_json`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.api.registry import ModelSpec, TestSpec
from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel


@dataclass(frozen=True)
class CheckRequest:
    """Is ``test``'s candidate execution allowed under ``model``?

    With ``witness=True`` the result carries a happens-before witness when
    the execution is allowed (at the cost of one extra witness-producing
    check outside the engine and its verdict cache).
    """

    test: TestSpec
    model: ModelSpec
    witness: bool = False

    op = "check"


@dataclass(frozen=True)
class CompareRequest:
    """Compare two models over a comparison suite.

    ``suite`` names a generated template suite (``"standard"``,
    ``"no_deps"`` or ``"extended"``); with ``include_named=True`` the
    paper's nine tests L1..L9 are appended, matching the classic CLI
    behaviour.  ``first``/``second`` accept names, live models, or inline
    ``repro/model`` documents.
    """

    first: ModelSpec
    second: ModelSpec
    suite: str = "standard"
    include_named: bool = True

    op = "compare"


@dataclass(frozen=True)
class ExploreRequest:
    """Explore a family of models over a template suite.

    By default the parametric space named by ``space`` (``"no_deps"`` for
    the 36-model Figure 4 space, ``"deps"`` for the full 90-model space) is
    explored over the matching template suite; an explicit ``models`` tuple
    — names, live models, or inline ``repro/model`` documents — overrides
    the space.  With ``preferred=True`` the paper's nine tests label the
    Hasse edges.
    """

    space: str = "no_deps"
    models: Optional[Tuple[ModelSpec, ...]] = None
    suite: Optional[str] = None
    preferred: bool = True

    def __post_init__(self) -> None:
        if self.models is not None and not isinstance(self.models, tuple):
            object.__setattr__(self, "models", tuple(self.models))

    def suite_key(self) -> str:
        """The template suite to use: explicit, or matched to the space."""
        if self.suite is not None:
            return self.suite
        return "standard" if self.space == "deps" else "no_deps"

    op = "explore"


@dataclass(frozen=True)
class OutcomesRequest:
    """Enumerate the outcomes ``model`` allows for ``test``'s program."""

    test: TestSpec
    model: ModelSpec

    op = "outcomes"


@dataclass(frozen=True)
class ExhaustiveRequest:
    """Run the sharded exhaustive-enumeration verification pipeline.

    Streams the naive bounded enumeration (``bound`` names a configuration
    from :data:`repro.pipeline.run.BOUNDS`) through the symmetry-reducing
    canonicalizer, checks every kernel-distinct survivor against the whole
    ``space``, and reports whether the induced model partition equals the
    template suite's — the paper's completeness claim.  With a ``run_dir``
    each completed shard is checkpointed as JSON lines; ``resume=True``
    answers completed shards from disk instead of re-checking them.
    ``space="deps"`` is refused: the enumeration has no dependencies yet.
    """

    bound: str = "small"
    space: str = "no_deps"
    suite: Optional[str] = None
    jobs: int = 1
    shard_size: int = 512
    limit: Optional[int] = None
    run_dir: Optional[str] = None
    resume: bool = False
    #: wall-clock seconds a parallel worker may spend on one shard before
    #: it is killed and the shard retried on a fresh worker; None = no limit
    shard_timeout: Optional[float] = None
    #: retries per shard (beyond the first attempt) before quarantine
    shard_retries: int = 2
    #: partition-guided adaptive layer: profile/frontier skipping with
    #: certificates, monotone verdict derivation, partition checkpointing
    adaptive: bool = False
    #: fraction of skipped tests re-checked end-of-run (requires adaptive)
    audit_rate: float = 0.0

    op = "exhaustive"


@dataclass(frozen=True)
class SynthesizeRequest:
    """Find the models of a parametric space consistent with observations.

    ``observations`` is a tuple of :class:`~repro.synth.observations.
    Observation` objects (plain ``{"test": ..., "allowed": ...}`` mappings
    are coerced); each ``test`` spec resolves through the session's test
    registry, so path specs honor the registry's path restrictions.
    ``space`` accepts the canonical keys (``"deps"``/``"no_deps"``) and
    their paper-facing aliases (``"paper90"``/``"paper36"``); the verdict
    columns come from the session's engine, on its backend;
    ``suggest_tests`` caps the number of distinguishing-test suggestions
    when the answer is ambiguous.
    """

    observations: Tuple["Observation", ...] = ()
    space: str = "deps"
    suggest_tests: int = 3
    suite: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.synth.observations import Observation, _observation_from_json

        coerced = tuple(
            obs if isinstance(obs, Observation) else _observation_from_json(obs)
            for obs in self.observations
        )
        object.__setattr__(self, "observations", coerced)

    def suite_key(self) -> str:
        """The comparison suite: explicit, or matched to the space."""
        if self.suite is not None:
            return self.suite
        from repro.api.registry import canonical_space

        return "standard" if canonical_space(self.space) == "deps" else "no_deps"

    op = "synthesize"


Request = Union[
    CheckRequest,
    CompareRequest,
    ExploreRequest,
    OutcomesRequest,
    ExhaustiveRequest,
    SynthesizeRequest,
]

_REQUEST_TYPES: Dict[str, type] = {
    cls.op: cls
    for cls in (
        CheckRequest,
        CompareRequest,
        ExploreRequest,
        OutcomesRequest,
        ExhaustiveRequest,
        SynthesizeRequest,
    )
}


def _spec_to_json(spec: Any) -> Any:
    """Serialize a model/test spec field: names pass through, objects embed."""
    if isinstance(spec, (MemoryModel, LitmusTest)):
        from repro.api.serialize import to_json

        return to_json(spec)
    if isinstance(spec, Mapping):
        return dict(spec)
    return spec


def request_to_json(request: Request) -> Dict[str, Any]:
    """Serialize a request to a schema-versioned JSON document."""
    from repro.api.serialize import envelope

    document = envelope("request")
    document["op"] = request.op
    for field_info in fields(request):
        value = getattr(request, field_info.name)
        if field_info.name in ("test", "model", "first", "second"):
            value = _spec_to_json(value)
        elif field_info.name == "models" and value is not None:
            value = [_spec_to_json(spec) for spec in value]
        elif field_info.name == "observations":
            from repro.synth.observations import _observation_to_json

            value = [_observation_to_json(obs) for obs in value]
        document[field_info.name] = value
    return document


def request_from_json(document: Mapping[str, Any]) -> Request:
    """Rebuild a request from a document written by :func:`request_to_json`.

    The envelope is validated when present; bare ``{"op": ..., ...}``
    dictionaries (convenient for hand-written ``serve`` input) are accepted
    too.
    """
    from repro.api.serialize import SerializationError, check_envelope

    if not isinstance(document, Mapping):
        # A JSON array or scalar on a serve line must be a structured
        # bad-request error, not an AttributeError escaping the loop.
        raise SerializationError(
            f"request document must be a JSON object, not {type(document).__name__}"
        )
    if "schema" in document or "schema_version" in document:
        check_envelope(dict(document), "request")
    op = document.get("op")
    if not isinstance(op, str):
        raise SerializationError(
            f"request op must be a string (expected one of {', '.join(_REQUEST_TYPES)})"
        )
    cls = _REQUEST_TYPES.get(op)
    if cls is None:
        raise SerializationError(
            f"unknown request op {op!r} (expected one of {', '.join(_REQUEST_TYPES)})"
        )
    kwargs: Dict[str, Any] = {}
    known = {field_info.name for field_info in fields(cls)}
    for key, value in document.items():
        if key in ("schema", "schema_version", "op"):
            continue
        if key not in known:
            raise SerializationError(f"unknown field {key!r} for request op {op!r}")
        if key == "models" and value is not None:
            value = tuple(value)
        elif key == "observations":
            if not isinstance(value, (list, tuple)):
                raise SerializationError(
                    "'observations' must be a JSON array of "
                    '{"test": ..., "allowed": ...} objects'
                )
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as error:
        raise SerializationError(f"malformed {op!r} request: {error}") from error
