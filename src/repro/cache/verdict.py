"""The in-memory verdict-cache tier: a thread-safe digest-keyed LRU.

See :mod:`repro.cache` for the key design.  This module keeps the hot
path minimal: a :meth:`VerdictCache.get` on a warm key is one lock
acquisition, one ``OrderedDict`` move-to-end and two counter increments,
so an all-hit column in :meth:`~repro.engine.engine.CheckEngine.check_column`
takes no engine lock and runs no search.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from repro.cache.persist import VerdictStore
from repro.util import faults

#: One cache key: (model IR digest, canonical test-key digest).
Key = Tuple[str, str]

#: Cap on the per-object digest memos (streams of throwaway tests/models
#: must not pin ids forever; recomputing after a clear is cheap).
_MEMO_LIMIT = 1 << 16


@dataclass
class CacheStats:
    """Counters describing what a :class:`VerdictCache` did."""

    #: lookups answered from the memory tier
    hits: int = 0
    #: lookups that found nothing
    misses: int = 0
    #: verdicts inserted (first sight of a key)
    stores: int = 0
    #: LRU entries dropped to stay under capacity
    evictions: int = 0
    #: entries recovered from the persistent tier at open
    persisted_loaded: int = 0
    #: corrupt/foreign lines skipped at open
    persisted_skipped: int = 0
    #: entries appended to the persistent tier by this process
    persisted_written: int = 0
    #: current memory-tier size
    entries: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class VerdictCache:
    """Thread-safe LRU over ``(model digest, test digest) -> verdict``.

    Args:
        capacity: memory-tier entry cap; the least recently used entry is
            evicted past it.  Evicted entries remain recoverable from the
            persistent tier (they were appended on first store).
        store: optional persistent tier; when given, the file's entries
            seed the memory tier and every new verdict is appended.
    """

    def __init__(
        self, capacity: int = 1 << 20, store: Optional[VerdictStore] = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.store = store
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Key, bool]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        # id-keyed digest memos; the object reference keeps the id honest.
        self._test_digests: Dict[int, Tuple[object, Optional[str]]] = {}
        self._model_digests: Dict[int, Tuple[object, Optional[str]]] = {}
        if store is not None:
            for key, verdict in store.load().items():
                self._entries[key] = verdict
                if len(self._entries) > capacity:
                    self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory: str, capacity: int = 1 << 20) -> "VerdictCache":
        """A cache backed by ``directory``'s persistent tier."""
        return cls(capacity=capacity, store=VerdictStore(directory))

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def test_digest(self, test: object) -> Optional[str]:
        """The test's canonical-key digest, or None when uncacheable.

        Only tests inside the canonicalizable Load/Store/Fence fragment get
        a key: their canonical form is a pure function of the program and
        outcome, stable across processes.  Anything else (dependency
        idioms, computed addresses) is simply never cached.  An
        :class:`~repro.generation.enumeration.ItemsTest` is keyed from its
        items, with the same digest its materialised test would get.
        """
        key = id(test)
        entry = self._test_digests.get(key)
        if entry is not None and entry[0] is test:
            return entry[1]
        from repro.generation.enumeration import ItemsTest
        from repro.pipeline.canonical import abstract_test, canonical_form, key_digest

        if isinstance(test, ItemsTest):
            abstracted = test.items
        else:
            abstracted = abstract_test(test)  # type: ignore[arg-type]
        digest = (
            key_digest(canonical_form(abstracted)) if abstracted is not None else None
        )
        if len(self._test_digests) >= _MEMO_LIMIT:
            self._test_digests.clear()
        self._test_digests[key] = (test, digest)
        return digest

    def model_digest(self, model: object) -> Optional[str]:
        """The model's IR digest, or None when uncacheable.

        Only formula models are cacheable: an opaque-callable model's IR
        digest embeds the function object's id, which does not survive a
        process restart — exactly the property the persistent tier needs.
        """
        key = id(model)
        entry = self._model_digests.get(key)
        if entry is not None and entry[0] is model:
            return entry[1]
        from repro.compile.compiler import compile_model

        compiled = compile_model(model)  # type: ignore[arg-type]
        digest = compiled.digest if compiled.kind == "formula" else None
        if len(self._model_digests) >= _MEMO_LIMIT:
            self._model_digests.clear()
        self._model_digests[key] = (model, digest)
        return digest

    def key_for(self, test: object, model: object) -> Optional[Key]:
        """The cache key for a (test, model) pair, or None when uncacheable."""
        model_digest = self.model_digest(model)
        if model_digest is None:
            return None
        test_digest = self.test_digest(test)
        if test_digest is None:
            return None
        return (model_digest, test_digest)

    # ------------------------------------------------------------------
    # the tiers
    # ------------------------------------------------------------------
    def get(self, key: Key) -> Optional[bool]:
        """Look a key up in the memory tier; None on miss."""
        if faults._FAULTS:
            faults.fire("cache.get", model=key[0][:12], test=key[1][:12])
        with self._lock:
            verdict = self._entries.get(key)
            if verdict is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return verdict

    def note_hit(self) -> None:
        """Count a hit answered from a memoized materialisation of an entry.

        The serve transport memoises whole response lines for repeated
        cache-hit checks; those requests never reach :meth:`get`, so the
        transport reports them here to keep hit counts truthful.
        """
        with self._lock:
            self._hits += 1

    def put(self, key: Key, verdict: bool) -> bool:
        """Insert a verdict; first sight of a key also persists it.

        Returns True when the key was newly inserted (and, with a store,
        appended to the persistent tier), False for a repeat.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return False
            self._entries[key] = bool(verdict)
            self._stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
        if self.store is not None:
            self.store.append(key, bool(verdict))
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    # lifecycle / observability
    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self.store is not None:
            self.store.flush()

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            stats = CacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                evictions=self._evictions,
                entries=len(self._entries),
            )
        if self.store is not None:
            stats.persisted_loaded = self.store.loaded
            stats.persisted_skipped = self.store.skipped
            stats.persisted_written = self.store.written
        return stats
