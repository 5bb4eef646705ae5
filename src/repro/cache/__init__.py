"""The verdict cache: digest-keyed admissibility verdicts across requests,
threads, restarts and replicas.

A verdict — "does model M allow test T's candidate execution?" — is a pure
function of the model's semantics and the test's symmetry class, and the
repo already has process-stable names for both:

* the :class:`~repro.compile.CompiledModel` sha256 **IR digest** (PR 5),
  identical for structurally equal formulas across processes; and
* the pipeline's **canonical test key** (PR 4), identical for every test in
  a symmetry class, digested to a stable hex string.

:class:`VerdictCache` maps ``(model digest, test digest)`` to the boolean
verdict through a thread-safe in-memory LRU tier and an optional
append-only persistent tier (:class:`~repro.cache.persist.VerdictStore`),
so a restarted — or freshly booted replica — server answers repeat catalog
queries without evaluating a single execution.  The
:class:`~repro.engine.engine.CheckEngine` interposes the cache in
``check_column``; in front of it, the serve layer's per-connection
response memo answers repeated cache-hit ``check`` lines without taking
the engine lock.
"""

from repro.cache.persist import VerdictStore, STORE_FORMAT, STORE_VERSION
from repro.cache.verdict import CacheStats, VerdictCache

__all__ = [
    "CacheStats",
    "VerdictCache",
    "VerdictStore",
    "STORE_FORMAT",
    "STORE_VERSION",
]
