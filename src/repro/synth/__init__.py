"""Model synthesis: invert the checker.

The checking stack answers "model + litmus test -> verdict"; this package
answers the inverse query — given a vector of *observed* verdicts (e.g.
from running litmus tests on real or simulated hardware), which models of a
parametric space are consistent with them, and which of those are the
weakest and strongest under the dominance order of
:mod:`repro.comparison.exploration`?  "Which memory model is this
hardware?" becomes one :class:`SynthesisEngine` call, or one
``repro synthesize`` invocation, or one ``synthesize`` request over
``repro serve``.

Each per-observation verdict column is one
:meth:`~repro.engine.engine.CheckEngine.check_column` of the shared
engine, so synthesis runs on whichever backend that engine runs (the
explicit kernel or incremental SAT); every downstream step is shared, so
the backends' results agree by construction.
"""

from repro.synth.observations import (
    Observation,
    ObservationError,
    ObservationSet,
    VerdictDocument,
    observations_from_document,
    verdict_document_from_exploration,
)
from repro.synth.engine import (
    ExclusionWitness,
    SynthesisEngine,
    SynthesisResult,
    TestSuggestion,
)

__all__ = [
    "Observation",
    "ObservationError",
    "ObservationSet",
    "VerdictDocument",
    "observations_from_document",
    "verdict_document_from_exploration",
    "ExclusionWitness",
    "SynthesisEngine",
    "SynthesisResult",
    "TestSuggestion",
]
