"""The sharded, resumable exhaustive-enumeration verification pipeline.

``run_pipeline`` streams the naive bounded enumeration of Section 3.4
through the symmetry-reducing canonicalizer
(:mod:`repro.pipeline.canonical`), shards the kernel-distinct survivors,
checks every shard against the whole model space on a persistent
:class:`~repro.engine.engine.CheckEngine` (one per worker process), and
folds the per-shard verdict rows into the incremental
:class:`~repro.pipeline.report.PartitionAccumulator`.  The result — an
:class:`~repro.pipeline.report.EquivalenceReport` — asserts the paper's
completeness claim: the partition the naive space induces on the model
space equals the partition the ~230-test template suite induces.

Checkpointing: with a ``run_dir``, every completed shard is written as one
JSON-lines file (one verdict row per test plus a terminal ``done`` marker),
atomically via rename.  A killed run re-enumerates the (cheap,
deterministic) canonical stream but answers completed shards from disk —
``--resume`` never re-checks a finished shard, which the per-shard key
digests guard against stale or mismatched checkpoints.

Adaptive mode (:mod:`repro.pipeline.adaptive`) replaces the canonical
dedup with the stronger profile prefilter (tests whose verdict row
provably coincides with an already-folded row are skipped with a
certificate), adds the frontier rule (tests that cannot refine the
partition are skipped), derives column verdicts by po-mask monotonicity,
and checkpoints the folded partition itself so ``--resume`` restarts from
the matrix instead of replaying shard rows.
"""

from __future__ import annotations

import json
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.core.parametric import model_space
from repro.engine.engine import CheckEngine, EngineStats
from repro.generation.enumeration import (
    NaiveEnumerationConfig,
    enumerate_canonical_naive_items,
    enumerate_raw_naive_items,
    test_from_items,
)
from repro.pipeline.adaptive import (
    AdaptiveSpace,
    PartitionCheckpoint,
    ProfileIndex,
    audit_selected,
    profile_digest,
)
from repro.pipeline.canonical import CanonicalIndex, key_digest
from repro.pipeline.report import EquivalenceReport, PartitionAccumulator
from repro.util import faults

#: Named enumeration bounds, smallest to largest.  ``paper`` is the Theorem 1
#: bound (three accesses per thread, four locations, optional fences) whose
#: naive space is about a million raw tests; the smaller bounds keep CI and
#: smoke runs fast.
BOUNDS: Dict[str, NaiveEnumerationConfig] = {
    "tiny": NaiveEnumerationConfig(
        max_accesses_per_thread=2, max_locations=2, allow_fences=False
    ),
    "small": NaiveEnumerationConfig(
        max_accesses_per_thread=2, max_locations=2, allow_fences=True
    ),
    "medium": NaiveEnumerationConfig(
        max_accesses_per_thread=2, max_locations=3, allow_fences=True
    ),
    "large": NaiveEnumerationConfig(
        max_accesses_per_thread=3, max_locations=2, allow_fences=True
    ),
    "xlarge": NaiveEnumerationConfig(
        max_accesses_per_thread=3, max_locations=3, allow_fences=True
    ),
    "paper": NaiveEnumerationConfig(),
}

#: Progress callback: ``progress(event, payload)``; events are
#: ``"template"``, ``"shard"`` and ``"finish"``.
ProgressCallback = Callable[[str, Dict[str, object]], None]


class PipelineError(ValueError):
    """Raised for malformed pipeline configurations or checkpoints.

    A ``ValueError`` so the ``serve`` loop's error envelope catches it like
    every other malformed-request problem.
    """


@dataclass(frozen=True)
class PipelineConfig:
    """What to enumerate, how to shard it, and where to checkpoint.

    Args:
        bound: named enumeration bound (see :data:`BOUNDS`).
        space: parametric model space (``"no_deps"`` = the 36-model
            Figure 4 space, ``"deps"`` = the full 90-model space).
        suite: template suite to compare against; matched to the space by
            default (``"no_deps"`` / ``"standard"``).
        backend: engine backend for the admissibility checks.
        kernel: explicit-strategy kernel backend (``"auto"``, ``"native"``
            or ``"bigint"``); each worker process resolves it once when it
            builds its engine.  The *resolved* kernel is
            recorded in the checkpoint manifest, and ``--resume`` refuses
            a run_dir whose shards were produced by a different kernel —
            all shipped kernels are bit-identical, but a checkpoint must
            never silently mix verdict provenances.
        jobs: worker processes checking shards (1 = serial, in-process).
        shard_size: unique tests per shard (the checkpointing granule).
        limit: optional cap on unique tests (for smoke runs).
        run_dir: checkpoint directory; None disables checkpointing.
        resume: answer already-completed shards from ``run_dir``.
        shard_timeout: wall-clock seconds a parallel worker may spend on
            one shard; past it the worker is killed and the shard retried
            on a fresh worker.  None = no limit.
        shard_retries: retries per shard (beyond the first attempt) before
            the shard is quarantined and the run reported incomplete.
        adaptive: enable the partition-guided adaptive layer (profile
            prefilter, frontier skipping, monotone verdict derivation,
            partition checkpointing).  Off = the exact brute force, which
            doubles as the differential oracle for the adaptive layer.
        audit_rate: fraction (0..1) of skipped tests to re-check against
            the final matrix end-of-run; a refining row fails the run.
        partition_checkpoint: where to write the partition checkpoint;
            defaults to ``<run_dir>/partition.json`` when a run_dir is set.
    """

    bound: str = "small"
    space: str = "no_deps"
    suite: Optional[str] = None
    backend: str = "explicit"
    kernel: str = "auto"
    jobs: int = 1
    shard_size: int = 512
    limit: Optional[int] = None
    run_dir: Optional[str] = None
    resume: bool = False
    shard_timeout: Optional[float] = None
    shard_retries: int = 2
    adaptive: bool = False
    audit_rate: float = 0.0
    partition_checkpoint: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.native.backend import KERNEL_CHOICES

        if self.bound not in BOUNDS:
            raise PipelineError(
                f"unknown bound {self.bound!r} (expected one of {', '.join(BOUNDS)})"
            )
        if self.kernel not in KERNEL_CHOICES:
            raise PipelineError(
                f"unknown kernel {self.kernel!r} "
                f"(expected one of {', '.join(KERNEL_CHOICES)})"
            )
        if self.space not in ("deps", "no_deps"):
            raise PipelineError(
                f"unknown model space {self.space!r} (expected 'deps' or 'no_deps')"
            )
        if self.jobs < 1:
            raise PipelineError("jobs must be >= 1")
        if self.shard_size < 1:
            raise PipelineError("shard_size must be >= 1")
        if self.resume and self.run_dir is None:
            raise PipelineError("resume requires a run_dir")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise PipelineError("shard_timeout must be positive")
        if self.shard_retries < 0:
            raise PipelineError("shard_retries must be >= 0")
        if not 0.0 <= self.audit_rate <= 1.0:
            raise PipelineError("audit_rate must be between 0 and 1")
        if self.audit_rate and not self.adaptive:
            raise PipelineError("audit_rate requires adaptive mode")
        if self.partition_checkpoint is not None and not self.adaptive:
            raise PipelineError("partition_checkpoint requires adaptive mode")

    def suite_key(self) -> str:
        """The template suite to compare against: explicit, or matched."""
        if self.suite is not None:
            return self.suite
        return "standard" if self.space == "deps" else "no_deps"

    def enumeration_config(self) -> NaiveEnumerationConfig:
        return BOUNDS[self.bound]


# ----------------------------------------------------------------------
# checkpoint files
# ----------------------------------------------------------------------
def _manifest_payload(
    config: PipelineConfig, model_names: Sequence[str], kernel: str
) -> Dict[str, object]:
    return {
        "schema": "repro/exhaustive_manifest",
        "schema_version": 2,
        "bound": config.bound,
        "space": config.space,
        "suite": config.suite_key(),
        "backend": config.backend,
        # The *resolved* kernel ("native"/"bigint", "" for
        # kernel-less backends), not the requested spec: a resume must not
        # mix verdict rows from differently-resolved kernels.
        "kernel": kernel,
        "adaptive": config.adaptive,
        "shard_size": config.shard_size,
        "limit": config.limit,
        "model_names": list(model_names),
    }


def _write_manifest(run_dir: str, payload: Dict[str, object]) -> None:
    path = os.path.join(run_dir, "manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2)
    os.replace(tmp, path)


def _check_manifest(run_dir: str, payload: Dict[str, object]) -> None:
    """On resume, the existing manifest must describe the same run."""
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        return
    try:
        with open(path) as handle:
            existing = json.load(handle)
        if not isinstance(existing, dict):
            raise ValueError("manifest is not a JSON object")
    except (OSError, ValueError):
        # A torn/truncated manifest (e.g. the process died mid-write before
        # the atomic rename existed) is treated as absent: the caller
        # rewrites it, and the per-shard digests still guard every row.
        return
    for key, value in payload.items():
        if existing.get(key) != value:
            raise PipelineError(
                f"cannot resume: manifest field {key!r} is {existing.get(key)!r} "
                f"on disk but {value!r} in this configuration "
                f"(run_dir {run_dir!r} belongs to a different run)"
            )


def _shard_path(run_dir: str, shard_index: int) -> str:
    return os.path.join(run_dir, "shards", f"shard-{shard_index:05d}.jsonl")


def _mask_to_bits(mask: int, width: int) -> str:
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(width))


def _bits_to_mask(bits: str) -> int:
    mask = 0
    for i, bit in enumerate(bits):
        if bit == "1":
            mask |= 1 << i
    return mask


def _write_shard(
    run_dir: str,
    shard_index: int,
    names: Sequence[str],
    digests: Sequence[str],
    rows: Sequence[int],
    num_models: int,
) -> None:
    """Atomically persist one completed shard as JSON lines."""
    path = _shard_path(run_dir, shard_index)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        for name, digest, mask in zip(names, digests, rows):
            handle.write(
                json.dumps(
                    {"test": name, "key": digest, "verdicts": _mask_to_bits(mask, num_models)}
                )
                + "\n"
            )
        handle.write(json.dumps({"done": True, "tests": len(rows)}) + "\n")
    os.replace(tmp, path)
    # Fault point: tests simulate a torn checkpoint by truncating the file
    # just after the atomic rename (spec: pipeline.checkpoint[...]=truncate:N).
    faults.truncate_file("pipeline.checkpoint", path, shard=shard_index)


def _write_adaptive_shard(
    run_dir: str,
    shard_index: int,
    extras: Dict[str, object],
    rows: Sequence[int],
    num_models: int,
) -> None:
    """Persist an adaptive shard: verdict rows *and* skip certificates.

    Records are written in stream order.  A checked test becomes a row
    keyed by its profile digest; a profile skip records the representative
    whose folded row its verdicts provably coincide with; a frontier skip
    records the model-group decomposition under which no verdict row could
    have refined the partition.  Both certificate kinds are machine-
    checkable after the fact (and sampled by ``--audit-rate``).
    """
    path = _shard_path(run_dir, shard_index)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        for record in extras["records"]:
            if "row" in record:
                record = {
                    "test": record["test"],
                    "key": record["key"],
                    "verdicts": _mask_to_bits(rows[record["row"]], num_models),
                }
            handle.write(json.dumps(record) + "\n")
        handle.write(
            json.dumps(
                {
                    "done": True,
                    "tests": len(rows),
                    "profile_skips": extras["profile_skips"],
                    "frontier_skips": extras["frontier_skips"],
                    "raw_offset": extras["raw_offset"],
                }
            )
            + "\n"
        )
    os.replace(tmp, path)
    faults.truncate_file("pipeline.checkpoint", path, shard=shard_index)


def _rebuild_profile_index(run_dir: str, shards_folded: int, pindex: ProfileIndex) -> None:
    """Re-derive the profile-dedup index from the folded shard prefix.

    Row and frontier records carry the first-occurrence representative per
    profile digest (skip records reference an earlier representative, so
    they add nothing).  Unreadable lines are tolerated: a lost digest only
    means the test is re-checked — sound, just not maximally pruned.
    """
    for shard_index in range(shards_folded):
        try:
            with open(_shard_path(run_dir, shard_index)) as handle:
                for line in handle:
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if not isinstance(record, dict):
                        continue
                    if "test" in record and "key" in record:
                        pindex.add(record["key"], record["test"])
                    elif "frontier" in record:
                        pindex.add(record["profile"], record["frontier"])
        except OSError:
            continue


def _load_shard(
    run_dir: str, shard_index: int, digests: Sequence[str], num_models: int
) -> Optional[List[int]]:
    """Load a completed shard's verdict rows; None when absent or invalid.

    A shard is only trusted when its terminal ``done`` marker is present,
    its row count matches, and every row's key digest equals the digest of
    the test recomputed from the (deterministic) canonical stream.  This
    loader must *never* raise: any torn, truncated or otherwise mangled
    checkpoint — including structurally-wrong JSON like an array line —
    simply means the shard is re-checked.
    """
    path = _shard_path(run_dir, shard_index)
    try:
        with open(path) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        if not lines or not all(isinstance(line, dict) for line in lines):
            return None
        if lines[-1].get("done") is not True:
            return None
        rows_data, marker = lines[:-1], lines[-1]
        if marker.get("tests") != len(digests) or len(rows_data) != len(digests):
            return None
        rows: List[int] = []
        for row, digest in zip(rows_data, digests):
            bits = row.get("verdicts")
            if row.get("key") != digest or not isinstance(bits, str) or len(bits) != num_models:
                return None
            rows.append(_bits_to_mask(bits))
        return rows
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# shard checking
# ----------------------------------------------------------------------
def _column_mask(
    engine: CheckEngine,
    test: LitmusTest,
    models: Sequence[MemoryModel],
    derive: bool = False,
) -> int:
    mask = 0
    for index, allowed in enumerate(engine.check_column(test, models, derive=derive)):
        if allowed:
            mask |= 1 << index
    return mask


#: State inherited by forked shard workers (backend name, kernel name,
#: model list, derive flag).
_PIPE_STATE: Optional[Tuple[str, str, List[MemoryModel], bool]] = None
_PIPE_STATE_LOCK = threading.Lock()
#: The worker process's persistent engine (one per process, lazily built).
_WORKER_ENGINE: Optional[CheckEngine] = None


def _pipeline_worker_loop(conn) -> None:
    """A shard worker's main loop (runs in a forked child process).

    Receives ``(shard_index, names, items_list, attempt)`` jobs on the
    pipe and answers ``("ok", shard_index, rows, stats_dict)`` or
    ``("error", shard_index, traceback_text)``; a ``None`` job (or a
    closed pipe) ends the worker.  The engine is built lazily and persists
    across shards, so a long-lived worker pays kernel resolution and model
    compilation once.
    """
    global _WORKER_ENGINE
    assert _PIPE_STATE is not None
    backend, kernel, models, derive = _PIPE_STATE
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        shard_index, names, items_list, attempt = job
        try:
            # Fault point for worker-failure testing: the attempt number is
            # part of the context, so a spec like
            # ``pipeline.shard[shard=1,attempt=0]=kill`` SIGKILLs only the
            # first attempt and lets the retry succeed.
            faults.fire("pipeline.shard", shard=shard_index, attempt=attempt)
            if _WORKER_ENGINE is None:
                _WORKER_ENGINE = CheckEngine(backend=backend, kernel=kernel)
                _WORKER_ENGINE.precompile(models)
            engine = _WORKER_ENGINE
            before = engine.stats.snapshot()
            # The LitmusTest objects are materialised here, in the worker:
            # the enumerating process streams only the compact abstract item
            # tuples, which both parallelises the test construction and
            # keeps the pipe carrying small tuples instead of instruction
            # object graphs.
            rows = [
                _column_mask(engine, test_from_items(items, name), models, derive=derive)
                for name, items in zip(names, items_list)
            ]
            conn.send(("ok", shard_index, rows, engine.stats.since(before).as_dict()))
        except Exception:  # noqa: BLE001 - the parent decides retry/quarantine
            try:
                conn.send(("error", shard_index, traceback.format_exc(limit=20)))
            except (OSError, ValueError):
                return


#: One shard off the stream: ``(shard_index, names, digests, items_list,
#: extras)``; ``extras`` is None on the brute stream and the adaptive
#: stream's record/counter snapshot otherwise.
ShardTuple = Tuple[int, List[str], List[str], List[tuple], Optional[Dict[str, object]]]


def _shards(config: PipelineConfig, index: CanonicalIndex) -> Iterator[ShardTuple]:
    """The brute stream: canonical dedup, every survivor checked.

    The stream carries abstract item tuples, not built tests — the consumer
    (a worker process, or the serial loop) calls
    :func:`~repro.generation.enumeration.test_from_items` per test.
    """
    stream = enumerate_canonical_naive_items(
        config.enumeration_config(), limit=config.limit, index=index
    )
    shard_index = 0
    names: List[str] = []
    digests: List[str] = []
    items_list: List[tuple] = []
    for key, name, items in stream:
        names.append(name)
        digests.append(key_digest(key))
        items_list.append(items)
        if len(items_list) == config.shard_size:
            yield shard_index, names, digests, items_list, None
            shard_index += 1
            names, digests, items_list = [], [], []
    if items_list:
        yield shard_index, names, digests, items_list, None


def _adaptive_shards(
    config: PipelineConfig,
    space: AdaptiveSpace,
    accumulator: PartitionAccumulator,
    pindex: ProfileIndex,
    counters: Dict[str, int],
    audit_candidates: List[Tuple[str, tuple]],
    start_shard: int = 0,
    start_raw: int = 0,
) -> Iterator[ShardTuple]:
    """The adaptive stream: profile dedup and frontier skipping.

    Works on the *raw* enumeration (the profile is invariant under the
    full symmetry group, so it subsumes canonical dedup).  Per raw test:

    * profile already indexed -> **profile skip** (certificate: the
      representative whose folded row the verdicts coincide with);
    * profile fresh but no row constant on its model groups could refine
      the accumulator matrix -> **frontier skip** (certificate: the group
      masks); the matrix only grows, so the decision never needs revisiting
      and the fresh profile still indexes future duplicates;
    * otherwise the test is checked.

    Frontier decisions read the live accumulator: in serial runs folds
    happen between yields (exactly-replayable decisions); in parallel runs
    the stream may run ahead of the fold, so decisions use a *lagged*
    matrix — skipping strictly less, never unsoundly more.  Counters are
    snapshotted into ``extras`` at yield time for the partition checkpoint.
    ``config.limit`` caps *checked* tests, mirroring the brute stream's cap
    on unique tests.
    """
    raw_stream = enumerate_raw_naive_items(config.enumeration_config())
    for _ in range(start_raw):
        if next(raw_stream, None) is None:
            break
    counters["raw"] = start_raw
    shard_index = start_shard
    names: List[str] = []
    digests: List[str] = []
    items_list: List[tuple] = []
    records: List[Dict[str, object]] = []
    produced = accumulator.tests_folded

    def extras_snapshot() -> Dict[str, object]:
        return {
            "records": records,
            "raw_offset": counters["raw"],
            "profile_skips": counters["profile_skips"],
            "frontier_skips": counters["frontier_skips"],
        }

    for name, items in raw_stream:
        if config.limit is not None and produced >= config.limit:
            break
        counters["raw"] += 1
        profile = space.profile(items)
        digest = profile_digest(profile)
        representative = pindex.representative(digest)
        if representative is not None:
            counters["profile_skips"] += 1
            records.append({"skip": name, "profile": digest, "rep": representative})
            if audit_selected(digest, name, config.audit_rate):
                audit_candidates.append((name, items))
            continue
        groups = space.groups(profile)
        if not accumulator.can_refine(groups):
            counters["frontier_skips"] += 1
            pindex.add(digest, name)
            records.append(
                {
                    "frontier": name,
                    "profile": digest,
                    "groups": [_mask_to_bits(g, space.num_models) for g in groups],
                }
            )
            if audit_selected(digest, name, config.audit_rate):
                audit_candidates.append((name, items))
            continue
        pindex.add(digest, name)
        records.append({"row": len(names), "test": name, "key": digest})
        names.append(name)
        digests.append(digest)
        items_list.append(items)
        produced += 1
        if len(names) == config.shard_size:
            yield shard_index, names, digests, items_list, extras_snapshot()
            shard_index += 1
            names, digests, items_list, records = [], [], [], []
    if names or records:
        yield shard_index, names, digests, items_list, extras_snapshot()


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
def run_pipeline(
    config: PipelineConfig,
    models: Optional[Sequence[MemoryModel]] = None,
    suite_tests: Optional[Sequence[LitmusTest]] = None,
    engine: Optional[CheckEngine] = None,
    progress: Optional[ProgressCallback] = None,
) -> EquivalenceReport:
    """Run the exhaustive-enumeration verification pipeline.

    Args:
        config: what to enumerate and how (see :class:`PipelineConfig`).
        models: the model space to partition; derived from ``config.space``
            by default.
        suite_tests: the template suite whose partition is the reference;
            derived from ``config.suite_key()`` by default.
        engine: engine for the template exploration and (with ``jobs=1``)
            the shard checks — pass a session's engine to share its caches.
            Workers of a parallel run always build their own engines from
            ``config.backend``.
        progress: optional callback; raising from it aborts the run (a
            checkpointed run resumes cleanly afterwards).
    """
    started = time.perf_counter()
    if models is None:
        models = model_space(include_data_dependencies=config.space == "deps")
    models = list(models)
    model_names = [model.name for model in models]
    if suite_tests is None:
        suite_tests = _template_suite(config.suite_key())
    if engine is None:
        engine = CheckEngine(backend=config.backend, kernel=config.kernel)
    # Compile the model space once up front: the template exploration, the
    # serial shard loop and (through the process-global IR intern table)
    # any same-process worker fallback all share the compiled artifacts.
    engine.precompile(models)
    resolved_kernel = getattr(getattr(engine, "strategy", None), "kernel", None)
    resolved_kernel = getattr(resolved_kernel, "name", "") or ""

    adaptive_space: Optional[AdaptiveSpace] = None
    if config.adaptive:
        adaptive_space = AdaptiveSpace.build(models)
        if adaptive_space is None:
            raise PipelineError(
                "adaptive mode requires a tabulable formula model space "
                "(straight-line Read/Write/Fence/SameAddr/dependency "
                "vocabulary); rerun with --no-adaptive"
            )

    run_dir = config.run_dir
    if run_dir is not None:
        os.makedirs(os.path.join(run_dir, "shards"), exist_ok=True)
        manifest = _manifest_payload(config, model_names, resolved_kernel)
        if config.resume:
            _check_manifest(run_dir, manifest)
        _write_manifest(run_dir, manifest)

    # The reference partition: what the template suite says about the space.
    from repro.comparison.exploration import explore_models

    template_result = explore_models(models, suite_tests, checker=engine)
    template_classes = [tuple(cls) for cls in template_result.equivalence_classes]
    template_edges = sorted(
        (edge.weaker, edge.stronger) for edge in template_result.hasse_edges
    )
    if progress is not None:
        progress(
            "template",
            {"classes": len(template_classes), "suite_tests": len(suite_tests)},
        )

    accumulator = PartitionAccumulator(model_names)
    index = CanonicalIndex()
    stats = EngineStats()
    num_models = len(models)
    shards_total = 0
    shards_checked = 0
    shards_resumed = 0

    # ------------------------------------------------------------------
    # adaptive state: profile index, skip counters, partition checkpoint
    # ------------------------------------------------------------------
    pindex = ProfileIndex()
    counters = {"raw": 0, "profile_skips": 0, "frontier_skips": 0}
    audit_candidates: List[Tuple[str, tuple]] = []
    start_shard = 0
    start_raw = 0
    partition_path: Optional[str] = None
    if config.adaptive:
        partition_path = config.partition_checkpoint
        if partition_path is None and run_dir is not None:
            partition_path = os.path.join(run_dir, "partition.json")
        if config.resume and partition_path is not None:
            template = _partition_template(
                config, model_names, adaptive_space.digest()
            )
            restored = PartitionCheckpoint.load(partition_path)
            # A torn, tampered or foreign checkpoint degrades to a cold
            # start — never to a wrong partition (the digest seals it).
            if restored is not None and restored.identity() == template.identity():
                accumulator.distinguished = list(restored.distinguished)
                accumulator.tests_folded = restored.tests_folded
                counters["profile_skips"] = restored.profile_skips
                counters["frontier_skips"] = restored.frontier_skips
                start_shard = restored.shards_folded
                start_raw = restored.raw_offset
                shards_total = shards_resumed = start_shard
                if run_dir is not None:
                    _rebuild_profile_index(run_dir, start_shard, pindex)
    #: next shard index whose fold extends the contiguous folded prefix;
    #: the partition checkpoint only advances while the prefix is intact
    #: (a quarantined shard freezes it at the last sound state).
    next_checkpoint_shard = start_shard

    def fold_completed(
        shard_index: int,
        names: Sequence[str],
        digests: Sequence[str],
        rows: Sequence[int],
        resumed: bool,
        extras: Optional[Dict[str, object]] = None,
    ) -> None:
        nonlocal shards_checked, shards_resumed, next_checkpoint_shard
        for mask in rows:
            accumulator.fold_row(mask)
        if resumed:
            shards_resumed += 1
        else:
            shards_checked += 1
            if run_dir is not None:
                if extras is not None:
                    _write_adaptive_shard(
                        run_dir, shard_index, extras, rows, num_models
                    )
                else:
                    _write_shard(
                        run_dir, shard_index, names, digests, rows, num_models
                    )
        if (
            partition_path is not None
            and extras is not None
            and shard_index == next_checkpoint_shard
        ):
            next_checkpoint_shard += 1
            checkpoint = _partition_template(
                config, model_names, adaptive_space.digest()
            )
            checkpoint.shards_folded = next_checkpoint_shard
            checkpoint.raw_offset = int(extras["raw_offset"])
            checkpoint.tests_folded = accumulator.tests_folded
            checkpoint.raw_tests = int(extras["raw_offset"])
            checkpoint.profile_skips = int(extras["profile_skips"])
            checkpoint.frontier_skips = int(extras["frontier_skips"])
            checkpoint.distinguished = list(accumulator.distinguished)
            checkpoint.write(partition_path)
        if progress is not None:
            payload: Dict[str, object] = {
                "shard": shard_index,
                "tests": len(rows),
                "resumed": resumed,
                "unique_so_far": accumulator.tests_folded,
            }
            if extras is not None:
                payload["profile_skips"] = extras["profile_skips"]
                payload["frontier_skips"] = extras["frontier_skips"]
            progress("shard", payload)

    if config.adaptive:
        stream: Iterator[ShardTuple] = _adaptive_shards(
            config, adaptive_space, accumulator, pindex, counters,
            audit_candidates, start_shard, start_raw,
        )
    else:
        stream = _shards(config, index)

    # Extra workers beyond the machine's cores only add fork/IPC overhead
    # (the check is CPU-bound), so a single-core host always takes the
    # serial in-process path no matter what ``--jobs`` asks for.
    effective_jobs = _effective_jobs(config)
    quarantined: List[int] = []
    if effective_jobs > 1:
        quarantined = _run_shards_parallel(
            config, models, stream, fold_completed, stats, num_models
        )
        shards_total = shards_checked + shards_resumed + len(quarantined)
    else:
        for shard_index, names, digests, items_list, extras in stream:
            shards_total += 1
            rows = None
            # Adaptive runs never resume from shard rows: the partition
            # checkpoint already restored the folded prefix wholesale.
            if config.resume and run_dir is not None and not config.adaptive:
                rows = _load_shard(run_dir, shard_index, digests, num_models)
            if rows is not None:
                fold_completed(shard_index, names, digests, rows, resumed=True)
                continue
            # In the serial path the fault point runs in-process (attempt 0
            # only — there is no worker to retry on), so a `kill` fault here
            # SIGKILLs the whole run: exactly the crash-resume scenario.
            faults.fire("pipeline.shard", shard=shard_index, attempt=0)
            before = engine.stats.snapshot()
            rows = [
                _column_mask(
                    engine, test_from_items(items, name), models,
                    derive=config.adaptive,
                )
                for name, items in zip(names, items_list)
            ]
            stats.merge(engine.stats.since(before).as_dict())
            fold_completed(shard_index, names, digests, rows, False, extras)

    # ------------------------------------------------------------------
    # end-of-run audits: re-check a deterministic sample of the skipped
    # tests the long way and verify their certificates — a row that would
    # still refine the partition means an unsound skip, which fails the run.
    # (Skipped when shards were quarantined: a representative's row may be
    # among the lost ones, and ``complete=False`` already flags the run.)
    # ------------------------------------------------------------------
    audits_performed = 0
    if config.adaptive and audit_candidates and not quarantined:
        before = engine.stats.snapshot()
        for name, items in audit_candidates:
            mask = _column_mask(engine, test_from_items(items, name), models)
            if accumulator.row_would_change(mask):
                raise PipelineError(
                    f"adaptive audit failed: skipped test {name!r} would "
                    f"refine the partition (unsound skip certificate)"
                )
            audits_performed += 1
        stats.merge(engine.stats.since(before).as_dict())

    naive_classes = accumulator.equivalence_classes()
    naive_edges = accumulator.hasse_edges()
    mismatches = EquivalenceReport.compare_partitions(
        naive_classes, naive_edges, template_classes, template_edges
    )
    report = EquivalenceReport(
        bound=config.bound,
        space=config.space,
        suite=config.suite_key(),
        backend=config.backend,
        model_names=model_names,
        raw_tests=counters["raw"] if config.adaptive else index.offered,
        unique_tests=accumulator.tests_folded,
        shards_total=shards_total,
        shards_checked=shards_checked,
        shards_resumed=shards_resumed,
        checks_performed=stats.checks_performed,
        equivalence_classes=naive_classes,
        hasse_edges=naive_edges,
        template_classes=template_classes,
        template_hasse_edges=template_edges,
        matches_template=not mismatches,
        mismatches=mismatches,
        stats=stats,
        elapsed_seconds=time.perf_counter() - started,
        shards_quarantined=len(quarantined),
        quarantined_shards=sorted(quarantined),
        complete=not quarantined,
        adaptive=config.adaptive,
        profile_skips=counters["profile_skips"],
        frontier_skips=counters["frontier_skips"],
        audits_performed=audits_performed,
    )
    if quarantined and run_dir is not None:
        # Record the quarantine in the manifest (an extra key the resume
        # check ignores); the quarantined shards have no checkpoint file,
        # so a later --resume re-checks exactly them.
        _write_manifest(
            run_dir, dict(manifest, quarantined=sorted(quarantined))
        )
    if progress is not None:
        progress(
            "finish",
            {"matches": report.matches_template, "complete": report.complete},
        )
    return report


def _effective_jobs(config: PipelineConfig) -> int:
    """Worker count after the core-count clamp.

    The clamp is a performance heuristic (oversubscribing a CPU-bound
    check only adds fork/IPC overhead) — but when faults are armed, the
    caller is explicitly testing worker isolation, so the requested job
    count is honored even on a single-core host: a SIGKILLed worker must
    exercise the retry path, not be silently run in-process.
    """
    if faults.active():
        return config.jobs
    return min(config.jobs, os.cpu_count() or 1)


def _partition_template(
    config: PipelineConfig, model_names: Sequence[str], space_digest: str
) -> PartitionCheckpoint:
    """A zero-progress checkpoint carrying this run's identity fields."""
    return PartitionCheckpoint(
        bound=config.bound,
        space=config.space,
        suite=config.suite_key(),
        backend=config.backend,
        shard_size=config.shard_size,
        limit=config.limit,
        model_names=list(model_names),
        space_digest=space_digest,
    )


def _template_suite(key: str) -> List[LitmusTest]:
    from repro.core.predicates import EXTENDED_PREDICATES
    from repro.generation.suite import generate_suite, no_dependency_suite, standard_suite

    if key == "standard":
        return standard_suite().tests()
    if key == "no_deps":
        return no_dependency_suite().tests()
    if key == "extended":
        return generate_suite(EXTENDED_PREDICATES).tests()
    raise PipelineError(
        f"unknown template suite {key!r} (expected 'standard', 'no_deps' or 'extended')"
    )


class _ShardEntry:
    """One shard's lifecycle in the parallel scheduler."""

    __slots__ = (
        "shard_index", "names", "digests", "items_list", "extras",
        "rows", "resumed", "attempts", "quarantined", "failure",
    )

    def __init__(
        self,
        shard_index: int,
        names: List[str],
        digests: List[str],
        items_list: List[tuple],
        extras: Optional[Dict[str, object]] = None,
    ) -> None:
        self.shard_index = shard_index
        self.names = names
        self.digests = digests
        self.items_list: Optional[List[tuple]] = items_list
        self.extras = extras
        self.rows: Optional[List[int]] = None
        self.resumed = False
        #: attempts started so far (the worker sees this as ``attempt``)
        self.attempts = 0
        self.quarantined = False
        self.failure = ""

    def done(self) -> bool:
        return self.resumed or self.quarantined or self.rows is not None


class _WorkerHandle:
    """One live shard worker: a forked process plus its duplex pipe."""

    def __init__(self, context) -> None:
        parent_conn, child_conn = context.Pipe()
        self.conn = parent_conn
        self.process = context.Process(
            target=_pipeline_worker_loop, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.entry: Optional[_ShardEntry] = None
        self.deadline: Optional[float] = None

    def assign(self, entry: _ShardEntry, shard_timeout: Optional[float]) -> bool:
        """Send a shard to the worker; False if the pipe is already broken."""
        attempt = entry.attempts
        entry.attempts += 1
        try:
            self.conn.send((entry.shard_index, entry.names, entry.items_list, attempt))
        except (OSError, ValueError):
            return False
        self.entry = entry
        self.deadline = (
            time.monotonic() + shard_timeout if shard_timeout is not None else None
        )
        return True

    def close(self, kill: bool = False) -> None:
        if kill:
            self.process.kill()
        else:
            try:
                self.conn.send(None)
            except (OSError, ValueError):
                pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        self.conn.close()


def _run_shards_parallel(
    config: PipelineConfig,
    models: List[MemoryModel],
    stream: Iterator[ShardTuple],
    fold_completed: Callable[..., None],
    stats: EngineStats,
    num_models: int,
) -> List[int]:
    """Fan shard checking out over fault-tolerant fork workers.

    Shards are materialised at most ``2 * jobs`` at a time so a huge
    enumeration never holds more than a window of shards in memory, and
    results are folded (and checkpointed) in shard order so a kill leaves
    a clean resumable prefix plus at most a window of lost work.

    Fault tolerance: a worker that dies (any cause, detected through its
    process sentinel), reports an exception, or overruns
    ``config.shard_timeout`` is killed and replaced by a fresh worker, and
    its shard is retried up to ``config.shard_retries`` more times.  A
    shard that exhausts its attempts is *quarantined* — excluded from the
    partition and returned to the caller — instead of aborting the run.

    Returns the quarantined shard indices (empty for a clean run).
    """
    import multiprocessing
    from multiprocessing import connection as mp_connection

    global _PIPE_STATE
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        # No fork on this platform: check serially on one in-process engine.
        engine = CheckEngine(backend=config.backend, kernel=config.kernel)
        for shard_index, names, digests, items_list, extras in stream:
            rows = None
            if config.resume and config.run_dir is not None and not config.adaptive:
                rows = _load_shard(config.run_dir, shard_index, digests, num_models)
            if rows is not None:
                fold_completed(shard_index, names, digests, rows, resumed=True)
                continue
            faults.fire("pipeline.shard", shard=shard_index, attempt=0)
            before = engine.stats.snapshot()
            rows = [
                _column_mask(
                    engine, test_from_items(items, name), models,
                    derive=config.adaptive,
                )
                for name, items in zip(names, items_list)
            ]
            stats.merge(engine.stats.since(before).as_dict())
            fold_completed(shard_index, names, digests, rows, False, extras)
        return []

    jobs = _effective_jobs(config)
    window = jobs * 2
    max_attempts = 1 + config.shard_retries
    quarantined: List[int] = []

    with _PIPE_STATE_LOCK:
        _PIPE_STATE = (config.backend, config.kernel, models, config.adaptive)
        workers: List[_WorkerHandle] = []
        try:
            #: shards materialised but not yet folded, in shard order
            entries: List[_ShardEntry] = []
            #: shards awaiting a worker (retries go to the front)
            pending: Deque[_ShardEntry] = deque()
            exhausted = False

            def fill_window() -> None:
                nonlocal exhausted
                while not exhausted and len(entries) < window:
                    try:
                        shard_index, names, digests, items_list, extras = next(stream)
                    except StopIteration:
                        exhausted = True
                        return
                    entry = _ShardEntry(shard_index, names, digests, items_list, extras)
                    if config.resume and config.run_dir is not None and not config.adaptive:
                        rows = _load_shard(config.run_dir, shard_index, digests, num_models)
                        if rows is not None:
                            entry.rows, entry.resumed = rows, True
                    entries.append(entry)
                    if not entry.resumed:
                        pending.append(entry)

            def fold_front() -> None:
                while entries and entries[0].done():
                    entry = entries.pop(0)
                    if entry.quarantined:
                        quarantined.append(entry.shard_index)
                        continue
                    assert entry.rows is not None
                    fold_completed(
                        entry.shard_index, entry.names, entry.digests,
                        entry.rows, entry.resumed, entry.extras,
                    )

            def fail(worker: _WorkerHandle, reason: str) -> None:
                """Kill a failed/hung worker; retry or quarantine its shard."""
                entry = worker.entry
                worker.entry = None
                worker.close(kill=True)
                workers.remove(worker)
                assert entry is not None
                entry.failure = reason
                if entry.attempts >= max_attempts:
                    entry.quarantined = True
                else:
                    pending.appendleft(entry)

            while True:
                fill_window()
                fold_front()
                # Hand pending shards to idle workers, spawning fresh
                # workers up to the job count as needed.
                idle = [worker for worker in workers if worker.entry is None]
                while pending and (idle or len(workers) < jobs):
                    worker = idle.pop() if idle else None
                    if worker is None:
                        worker = _WorkerHandle(context)
                        workers.append(worker)
                    entry = pending.popleft()
                    if not worker.assign(entry, config.shard_timeout):
                        entry.attempts -= 1  # the send never reached a worker
                        worker.entry = entry  # so fail() routes the retry
                        fail(worker, "worker pipe broken before dispatch")

                busy = [worker for worker in workers if worker.entry is not None]
                if not busy:
                    if exhausted and not pending:
                        fold_front()
                        if not entries:
                            break
                    continue

                # Wait for a result, a death (process sentinel), or the
                # nearest shard deadline.
                waitables: List[object] = [worker.conn for worker in busy]
                waitables += [worker.process.sentinel for worker in busy]
                timeout = 0.5
                if config.shard_timeout is not None:
                    soonest = min(
                        worker.deadline for worker in busy if worker.deadline is not None
                    )
                    timeout = max(0.0, min(0.5, soonest - time.monotonic()))
                mp_connection.wait(waitables, timeout)

                now = time.monotonic()
                for worker in busy:
                    entry = worker.entry
                    if entry is None:  # already handled this round
                        continue
                    if worker.conn.poll():
                        try:
                            message = worker.conn.recv()
                        except (EOFError, OSError):
                            fail(worker, "worker died mid-shard")
                            continue
                        if message[0] == "ok":
                            _, shard_index, rows, worker_stats = message
                            assert shard_index == entry.shard_index
                            # Stats merge only on success, keeping counters
                            # deterministic: failed attempts contribute none.
                            stats.merge(worker_stats)
                            entry.rows = rows
                            entry.items_list = None
                            worker.entry = None
                            worker.deadline = None
                        else:
                            _, shard_index, text = message
                            # A fresh worker per retry: the failed worker's
                            # state is suspect, so it is not reused.
                            fail(worker, f"worker exception:\n{text}")
                    elif not worker.process.is_alive():
                        fail(worker, "worker died mid-shard")
                    elif worker.deadline is not None and now >= worker.deadline:
                        fail(
                            worker,
                            f"shard exceeded the {config.shard_timeout:g}s timeout",
                        )
        finally:
            for worker in workers:
                worker.close()
            _PIPE_STATE = None
    return quarantined
