"""Span tracer that wraps repro's layer entry points from outside.

Nothing in ``src/`` knows about this module: :func:`install` patches the
functions named in :data:`LAYERS` (module globals, class methods, or the
``next()`` of a returned stream) with thin wrappers that record a span per
call.  A span is ``(id, layer, start_ns, end_ns, parent_id, context)``;
the context is the pipeline shard or the serve request being worked on.

Every span updates per-thread running totals (calls, self time) on exit,
so the totals stay exact however many spans there are; only the first
:data:`SPAN_LIMIT` spans per process are kept verbatim, in memory, and
written out at the end.  Self time is the span's duration minus the time covered
by its direct children.

A target that no longer exists is recorded as absent instead of failing:
later changes may delete private helpers (the worker pool, the response
memo) without having to edit the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
import types
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``(layer, "module:attribute.path", kind)``.  ``call`` times each call,
#: ``stream`` times each ``next()`` of the iterator the function returns,
#: ``opaque`` times each call and folds nested spans into it, ``request``
#: starts a fresh request context, ``queue`` records submit-to-start waits
#: of the serve worker pool, and ``shard_context`` (no layer) tags spans
#: with the pipeline shard the ``pipeline.shard`` fault point announces.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("generation.enumerate", "repro.pipeline.run:enumerate_raw_naive_items", "stream"),
    ("pipeline.canonical", "repro.pipeline.canonical:canonical_form", "call"),
    ("pipeline.canonical", "repro.pipeline.canonical:key_digest", "call"),
    ("pipeline.adaptive.profile", "repro.pipeline.adaptive:AdaptiveSpace.profile", "call"),
    ("pipeline.adaptive.profile", "repro.pipeline.run:profile_digest", "call"),
    ("pipeline.adaptive.frontier", "repro.pipeline.adaptive:AdaptiveSpace.groups", "call"),
    ("pipeline.adaptive.frontier", "repro.pipeline.report:PartitionAccumulator.can_refine", "call"),
    ("generation.materialise", "repro.pipeline.run:test_from_items", "call"),
    ("engine.execution", "repro.engine.context:TestContext.__init__", "call"),
    ("engine.index", "repro.engine.context:TestContext.indexed", "call"),
    ("engine.po_masks", "repro.engine.context:TestContext.po_masks_column", "call"),
    ("engine.po_masks", "repro.engine.context:TestContext.po_mask", "call"),
    ("engine.po_masks", "repro.engine.context:TestContext.po_edge_pairs", "call"),
    ("native.kernel", "repro.native.backend:NativeKernelBackend.allowed", "call"),
    ("engine.column", "repro.engine.engine:CheckEngine.check_column", "call"),
    ("pipeline.fold", "repro.pipeline.report:PartitionAccumulator.fold_row", "call"),
    ("pipeline.checkpoint", "repro.pipeline.run:_write_adaptive_shard", "call"),
    ("pipeline.checkpoint", "repro.pipeline.adaptive:PartitionCheckpoint.write", "call"),
    ("pipeline.audit", "repro.pipeline.report:PartitionAccumulator.row_would_change", "call"),
    ("compile", "repro.engine.engine:CheckEngine.precompile", "call"),
    ("comparison.template", "repro.comparison.exploration:explore_models", "call"),
    ("serve.request", "repro.api.serve:handle_request_line", "request"),
    ("serve.parse", "repro.api.serve:json.loads", "call"),
    ("serve.parse", "repro.api.serve:request_from_json", "call"),
    ("serve.fast_path", "repro.api.serve:_fast_check", "call"),
    ("serve.memo", "repro.api.serve:_count_memo_hit", "call"),
    ("serve.queue_wait", "repro.api.serve:Dispatcher.submit", "queue"),
    ("serve.render", "repro.api.serve:to_json", "call"),
    ("serve.render", "repro.api.serve:json.dumps", "call"),
    ("serve.render", "repro.api.serve:_SocketWriter.flush", "call"),
    ("serve.log", "repro.api.serve:ServerState.log", "opaque"),
    ("registry.resolve", "repro.api.registry:TestRegistry.resolve", "call"),
    ("registry.resolve", "repro.api.registry:ModelRegistry.resolve", "call"),
    ("session.run", "repro.api.session:Session.run", "call"),
    ("engine.check", "repro.engine.engine:CheckEngine.check", "call"),
    ("cache.get", "repro.cache.verdict:VerdictCache.get", "call"),
    ("cache.put", "repro.cache.verdict:VerdictCache.put", "call"),
    ("", "repro.pipeline.run:faults.fire", "shard_context"),
)

#: Every layer name, in table order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS if layer))

#: Spans kept verbatim per process; the totals count every span.
SPAN_LIMIT = 100_000

# Frame slots: [layer, start_ns, child_ns, opaque, span_id].
_LAYER, _START, _CHILD, _OPAQUE, _ID = range(5)


class _ThreadState:
    __slots__ = ("stack", "totals", "spans", "dropped", "context")

    def __init__(self) -> None:
        self.stack: List[list] = []
        #: layer -> [calls, self_ns]
        self.totals: Dict[str, List[int]] = {}
        self.spans: List[tuple] = []
        self.dropped = 0
        self.context: object = None


class _ModuleProxy(types.ModuleType):
    """A private copy of a module's namespace, so patching one of its
    functions affects only the module that imported it."""

    def __init__(self, module: types.ModuleType) -> None:
        super().__init__(module.__name__)
        self.__dict__.update(module.__dict__)


class Tracer:
    """Collects spans and per-layer totals for one process."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._reset()
        #: layer -> targets that could not be resolved
        self.absent: Dict[str, List[str]] = {}
        #: layer -> targets wrapped
        self.installed: Dict[str, List[str]] = {}

    def _reset(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        #: externally measured layers: layer -> [calls, ns]
        self._waits: Dict[str, List[int]] = {}
        self._phase: Optional[list] = None
        #: phase layer -> ns spent inside the top-level spans of its phase
        self._inclusive: Dict[str, int] = {}

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    # -- spans ----------------------------------------------------------
    def _open(self, state: _ThreadState, layer: str, opaque: bool = False) -> list:
        frame = [layer, self._clock(), 0, opaque, next(self._ids)]
        state.stack.append(frame)
        return frame

    def _close(self, state: _ThreadState, frame: list, record: bool = True) -> None:
        end = self._clock()
        stack = state.stack
        stack.pop()
        duration = end - frame[_START]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[_CHILD] += duration
        if not record:
            return
        layer = frame[_LAYER]
        totals = state.totals.get(layer)
        if totals is None:
            totals = state.totals[layer] = [0, 0]
        totals[0] += 1
        totals[1] += duration - frame[_CHILD]
        if len(state.spans) < SPAN_LIMIT:
            state.spans.append(
                (frame[_ID], layer, frame[_START], end,
                 parent[_ID] if parent is not None else 0, state.context)
            )
        else:
            state.dropped += 1

    def wrap(self, layer: str, fn: Callable, opaque: bool = False) -> Callable:
        """``fn`` with a span around every call."""
        state_of = self._state
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if stack and stack[-1][_OPAQUE]:
                return fn(*args, **kwargs)
            frame = open_(state, layer, opaque)
            try:
                return fn(*args, **kwargs)
            finally:
                close(state, frame)

        return functools.update_wrapper(wrapper, fn)

    def wrap_stream(self, layer: str, fn: Callable) -> Callable:
        """``fn`` returning an iterator whose every ``next()`` is a span."""
        wrap = self.wrap

        def wrapper(*args, **kwargs):
            step = wrap(layer, iter(fn(*args, **kwargs)).__next__)

            def generate():
                while True:
                    try:
                        item = step()
                    except StopIteration:
                        return
                    yield item

            return generate()

        return functools.update_wrapper(wrapper, fn)

    def wrap_request(self, layer: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`, and each call starts a fresh request context."""
        inner = self.wrap(layer, fn)
        state_of = self._state
        requests = self._requests

        def wrapper(*args, **kwargs):
            state = state_of()
            saved = state.context
            state.context = next(requests)
            try:
                return inner(*args, **kwargs)
            finally:
                state.context = saved

        return functools.update_wrapper(wrapper, fn)

    def wrap_queue(self, layer: str, submit: Callable) -> Callable:
        """Wrap ``Dispatcher.submit(self, fn)``: time each job's wait from
        submission to the moment a worker starts it, and carry the
        submitter's request context onto the worker thread."""
        tracer, clock = self, self._clock

        def wrapper(dispatcher, fn, *args, **kwargs):
            submitted = clock()
            context = tracer._state().context

            def job():
                waited = clock() - submitted
                tracer.add_wait(layer, waited)
                state = tracer._state()
                saved = state.context
                state.context = context
                try:
                    return fn()
                finally:
                    state.context = saved

            return submit(dispatcher, job, *args, **kwargs)

        return functools.update_wrapper(wrapper, submit)

    def wrap_shard_context(self, fire: Callable) -> Callable:
        """Wrap the fault hook so spans carry the shard it announces."""
        state_of = self._state

        def wrapper(point, *args, **context):
            if point == "pipeline.shard" and "shard" in context:
                state_of().context = context["shard"]
            return fire(point, *args, **context)

        return functools.update_wrapper(wrapper, fire)

    def add_wait(self, layer: str, nanoseconds: int) -> None:
        with self._lock:
            entry = self._waits.setdefault(layer, [0, 0])
            entry[0] += 1
            entry[1] += nanoseconds

    # -- phases (opened and closed by the caller, not a wrapper) --------
    def phase_restart(self, layer: str) -> None:
        """Discard the open phase, if any, and open a new one.

        Used for a phase whose start is only known in hindsight: the audit
        phase begins after the *last* shard fold, so a phase is opened
        after every fold and only the one still open at the end counts.
        """
        state = self._state()
        if self._phase is not None and state.stack and state.stack[-1] is self._phase:
            self._close(state, self._phase, record=False)
        self._phase = self._open(state, layer)

    def phase_commit(self) -> None:
        """Close the open phase and book the time of the traced calls made
        inside it (its direct children) as the layer's ``inclusive_s``.

        Untraced work in the phase (worker shutdown, report building) is
        left out, and so is the phase's own bookkeeping.
        """
        state = self._state()
        phase = self._phase
        self._phase = None
        if phase is not None and state.stack and state.stack[-1] is phase:
            self._close(state, phase, record=False)
            with self._lock:
                layer = phase[_LAYER]
                self._inclusive[layer] = self._inclusive.get(layer, 0) + phase[_CHILD]

    # -- results --------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """``layer -> {"calls", "self_s"}`` summed over this process's threads,
        plus ``wait_s`` for externally timed waits and ``inclusive_s`` for
        phases."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
            waits = {layer: list(entry) for layer, entry in self._waits.items()}
            inclusive = dict(self._inclusive)
        for state in states:
            for layer, (calls, self_ns) in list(state.totals.items()):
                entry = merged.setdefault(layer, {"calls": 0, "self_s": 0.0})
                entry["calls"] += calls
                entry["self_s"] += self_ns / 1e9
        for layer, (calls, ns) in waits.items():
            entry = merged.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["wait_s"] = entry.get("wait_s", 0.0) + ns / 1e9
        for layer, ns in inclusive.items():
            entry = merged.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["inclusive_s"] = ns / 1e9
        return merged

    def absent_layers(self) -> Dict[str, List[str]]:
        """Layers none of whose wrap targets exist, with those targets."""
        return {
            layer: targets
            for layer, targets in self.absent.items()
            if layer not in self.installed
        }

    def spans(self) -> Tuple[List[tuple], int]:
        with self._lock:
            states = list(self._states)
        spans: List[tuple] = []
        dropped = 0
        for state in states:
            spans.extend(state.spans)
            dropped += state.dropped
        return spans, dropped

    def dump(self, path: str) -> None:
        """Write totals, absent targets and the kept spans as one JSON file."""
        spans, dropped = self.spans()
        document = {
            "pid": os.getpid(),
            "layers": self.totals(),
            "absent": self.absent_layers(),
            "missing_targets": sorted(t for targets in self.absent.values() for t in targets),
            "spans": spans,
            "spans_dropped": dropped,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(document, handle)
        os.replace(tmp, path)

    def enable_fork_dumps(self, directory: str) -> None:
        """Make every ``multiprocessing`` child forked from here start with
        empty totals and dump them to ``directory`` when it exits cleanly."""
        import multiprocessing.util as mp_util

        def after_fork(tracer: "Tracer") -> None:
            tracer._reset()
            path = os.path.join(directory, f"worker-{os.getpid()}.json")
            mp_util.Finalize(None, tracer.dump, args=(path,), exitpriority=10)

        mp_util.register_after_fork(self, after_fork)


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _resolve_owner(target: str) -> Tuple[object, str]:
    """The object holding the target attribute, and the attribute name.

    A module reached through another module's namespace (``json`` in
    ``repro.api.serve:json.loads``) is replaced there by a private proxy,
    so the patch stays local to the importing module.
    """
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        child = getattr(owner, part)
        if isinstance(child, types.ModuleType) and not isinstance(child, _ModuleProxy):
            child = _ModuleProxy(child)
            setattr(owner, part, child)
        owner = child
    if not hasattr(owner, parts[-1]):
        raise AttributeError(f"{target} not found")
    return owner, parts[-1]


def _patch(tracer: Tracer, layer: str, target: str, kind: str) -> None:
    owner, name = _resolve_owner(target)
    static = inspect.getattr_static(owner, name)
    descriptor = type(static) if isinstance(static, (staticmethod, classmethod)) else None
    original = static.__func__ if descriptor is not None else getattr(owner, name)
    if kind == "stream":
        wrapped = tracer.wrap_stream(layer, original)
    elif kind == "request":
        wrapped = tracer.wrap_request(layer, original)
    elif kind == "queue":
        wrapped = tracer.wrap_queue(layer, original)
    elif kind == "shard_context":
        wrapped = tracer.wrap_shard_context(original)
    else:
        wrapped = tracer.wrap(layer, original, opaque=kind == "opaque")
    setattr(owner, name, descriptor(wrapped) if descriptor is not None else wrapped)


def install(
    tracer: Tracer, layers: Iterable[Tuple[str, str, str]] = LAYERS
) -> Tracer:
    """Wrap every target in ``layers``; unresolvable ones become absent."""
    for layer, target, kind in layers:
        try:
            _patch(tracer, layer, target, kind)
        except (ImportError, AttributeError):
            tracer.absent.setdefault(layer or "context", []).append(target)
        else:
            tracer.installed.setdefault(layer or "context", []).append(target)
    return tracer


def merge_totals(
    into: Dict[str, Dict[str, float]], other: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Add one process's layer totals into another's (in place)."""
    for layer, entry in other.items():
        target = into.setdefault(layer, {"calls": 0, "self_s": 0.0})
        for key, value in entry.items():
            target[key] = target.get(key, 0) + value
    return into

