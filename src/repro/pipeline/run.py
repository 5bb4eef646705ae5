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
the matrix instead of replaying shard rows.  Workers enumerate and
profile raw ranges (:func:`_profile_range`); the parent keeps only the
profile index, the frontier check and the fold (:class:`_AdaptiveStream`).
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.core.parametric import model_space
from repro.engine.context import CheckedTest
from repro.engine.engine import CheckEngine, EngineStats
from repro.generation.enumeration import (
    ItemsTest,
    NaiveEnumerationConfig,
    block_items,
    count_naive_tests,
    enumerate_canonical_naive_items,
    enumerate_raw_naive_items,
    raw_naive_blocks,
    test_from_items,
)
from repro.pipeline.adaptive import (
    AdaptiveSpace,
    PartitionCheckpoint,
    audit_selected,
    bits_to_mask,
    mask_to_bits,
    profile_digest,
    repr_digest,
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

#: Why ``enumerate-verify --deps`` and ``ExhaustiveRequest(space="deps")``
#: are refused (``PipelineConfig`` still accepts the space, for tests).
DEPS_REFUSAL = (
    "exhaustive verification of the 90-model dependency space is not "
    "available: the naive enumeration has no dependency instructions yet, "
    "so a DISAGREE against the standard suite would hold by construction"
)

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
        jobs: worker processes checking shards and, in adaptive runs,
            profiling raw ranges (1 = serial, in-process).
        shard_size: unique tests per shard (the checkpointing granule);
            an adaptive range job covers ``RANGE_SHARDS`` times as many
            raw tests.
        limit: optional cap on unique tests (for smoke runs).
        run_dir: checkpoint directory; None disables checkpointing.
        resume: answer already-completed shards from ``run_dir``.
        shard_timeout: wall-clock seconds a parallel worker may spend on
            one job (shard, range or audit batch); past it the worker is
            killed and the job retried on a fresh worker.  None = no limit.
        shard_retries: retries per job (beyond the first attempt) before
            it is quarantined and the run reported incomplete.
        adaptive: enable the partition-guided adaptive layer (profile
            prefilter, frontier skipping, monotone verdict derivation,
            partition checkpointing).  Off = the exact brute force, which
            doubles as the differential oracle for the adaptive layer.
        audit_rate: fraction (0..1) of skipped tests to re-check against
            the final matrix end-of-run; a refining row fails the run.

    Adaptive runs with a ``run_dir`` checkpoint the partition to
    ``<run_dir>/partition.json``.
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


# Checkpoint records are rendered straight to their JSON lines: names are
# ``N<int>``, digests are hex and verdicts are bit strings, so nothing
# needs escaping, and each line equals ``json.dumps(record)`` byte for byte.
def _row_line(name: str, digest: str, bits: str) -> str:
    return f'{{"test": "{name}", "key": "{digest}", "verdicts": "{bits}"}}\n'


def _frontier_line(name: str, digest: str, groups: Sequence[int], width: int) -> str:
    bits = ", ".join(f'"{mask_to_bits(group, width)}"' for group in groups)
    return f'{{"frontier": "{name}", "profile": "{digest}", "groups": [{bits}]}}\n'


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
        handle.write(
            "".join(
                _row_line(name, digest, mask_to_bits(mask, num_models))
                for name, digest, mask in zip(names, digests, rows)
            )
        )
        handle.write(json.dumps({"done": True, "tests": len(rows)}) + "\n")
    os.replace(tmp, path)
    # Fault point: tests simulate a torn checkpoint by truncating the file
    # just after the atomic rename (spec: pipeline.checkpoint[...]=truncate:N).
    faults.truncate_file("pipeline.checkpoint", path, shard=shard_index)


def _write_adaptive_shard(
    run_dir: str,
    shard_index: int,
    names: Sequence[str],
    digests: Sequence[str],
    rows: Sequence[int],
    extras: Dict[str, object],
    num_models: int,
) -> None:
    """Persist an adaptive shard: verdict rows *and* frontier certificates.

    Records are written in stream order, one per test with a fresh profile.
    A checked test becomes a row keyed by its profile digest; a frontier
    skip records the model-group decomposition under which no verdict row
    could have refined the partition (machine-checkable after the fact, and
    sampled by ``--audit-rate``).  A profile skip has no record: its
    digest's earlier row or frontier record is its certificate, and the
    ``done`` marker counts it.  In ``extras["records"]`` frontier skips
    arrive already rendered and a checked test as its row index.
    """
    path = _shard_path(run_dir, shard_index)
    tmp = path + ".tmp"
    lines = [
        record if isinstance(record, str)
        else _row_line(names[record], digests[record], mask_to_bits(rows[record], num_models))
        for record in extras["records"]
    ]
    lines.append(
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
    with open(tmp, "w") as handle:
        handle.write("".join(lines))
    os.replace(tmp, path)
    faults.truncate_file("pipeline.checkpoint", path, shard=shard_index)


def _rebuild_profile_index(run_dir: str, shards_folded: int) -> Set[str]:
    """Re-derive the profile digests met by the folded shard prefix.

    Row and frontier records carry every digest the stream met first;
    any other line (a profile-skip record of an older writer included)
    adds nothing.  Unreadable lines are tolerated: a lost digest only
    means the test is re-checked — sound, just not maximally pruned.
    """
    profiles: Set[str] = set()
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
                        profiles.add(record["key"])
                    elif "frontier" in record:
                        profiles.add(record["profile"])
        except OSError:
            continue
    return profiles


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
            rows.append(bits_to_mask(bits))
        return rows
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# the worker half: checking shards and profiling raw ranges
# ----------------------------------------------------------------------
def _column_mask(
    engine: CheckEngine,
    test: CheckedTest,
    models: Sequence[MemoryModel],
    derive: bool = False,
) -> int:
    mask = 0
    for index, allowed in enumerate(engine.check_column(test, models, derive=derive)):
        if allowed:
            mask |= 1 << index
    return mask


def _check_items(
    engine: CheckEngine,
    models: Sequence[MemoryModel],
    names: Sequence[str],
    items_list: Sequence[tuple],
    derive: bool,
) -> Tuple[List[int], Dict[str, object]]:
    """Check a batch of tests; their verdict rows and the engine stats spent.

    The stream carries only the compact abstract item tuples.  On the
    native kernel they reach the engine as
    :class:`~repro.generation.enumeration.ItemsTest`, whose C search
    problem is built from the items directly; any other engine gets the
    :class:`~repro.core.litmus.LitmusTest` objects, materialised here.
    """
    kernel = engine.kernel
    if kernel is not None and kernel.is_native:
        tests: Iterable[CheckedTest] = map(ItemsTest, names, items_list)
    else:
        tests = map(test_from_items, items_list, names)
    with engine.recording() as spent:
        rows = [_column_mask(engine, test, models, derive=derive) for test in tests]
    return rows, spent.as_dict()


#: Raw tests per range job, in shard sizes: a range of the adaptive stream
#: costs about as much to profile as a shard costs to check.
RANGE_SHARDS = 8

#: What profiling a raw range yields: the number of raw tests profiled;
#: ``(digest, model groups, items)`` by range offset of each test whose
#: digest is new to the profiler (only those can be new to the parent); and
#: the items of every test the audit sample selects.
RangeResult = Tuple[int, Dict[int, Tuple[str, List[int], tuple]], Dict[int, tuple]]


def _profile_range(
    space: AdaptiveSpace,
    config: PipelineConfig,
    start: int,
    stop: int,
    seen: Set[str],
    native: bool = False,
) -> RangeResult:
    """Enumerate and profile raw tests ``start .. stop-1``.

    Everything here depends on the tests alone, not on the partition, so
    ranges are profiled independently (in shard workers, with the profile
    memos living there) and only the compact result travels to the parent.

    ``seen`` holds the digests this profiler met in *earlier* ranges of the
    stream; it is updated in place.  The parent classifies ranges in raw
    order and indexes every digest it classifies, so a test whose digest is
    in ``seen``, or repeats one met earlier in the range, is a profile skip
    the parent recognises by its absence from the result.

    ``native`` (the run's kernel resolved to ``native``) profiles with the
    C profiler (:class:`~repro.pipeline.adaptive.NativeProfiler`); the
    result is identical to the reference :meth:`AdaptiveSpace.profile`
    path's.
    """
    if native:
        return _profile_range_native(space, config, start, stop, seen)
    count = 0
    firsts: Dict[int, Tuple[str, List[int], tuple]] = {}
    audits: Dict[int, tuple] = {}
    rate = config.audit_rate
    stream = enumerate_raw_naive_items(config.enumeration_config(), start=start)
    for offset, (name, items) in zip(range(stop - start), stream):
        profile = space.profile(items)
        digest = profile_digest(profile)
        if digest not in seen:
            seen.add(digest)
            firsts[offset] = (digest, space.groups(profile), items)
        if rate and audit_selected(digest, name, rate):
            audits[offset] = items
        count += 1
    return count, firsts, audits


def _profile_range_native(
    space: AdaptiveSpace, config: PipelineConfig, start: int, stop: int, seen: Set[str]
) -> RangeResult:
    """:func:`_profile_range` over the C profiler, one shape combination
    per call; items are rebuilt only for first-seen and audited tests."""
    native = space.native_profiler()
    profiler, known = native.profiler, native.digests
    firsts: Dict[int, Tuple[str, List[int], tuple]] = {}
    audits: Dict[int, tuple] = {}
    rate = config.audit_rate
    offset = 0
    for templates, choices, skip in raw_naive_blocks(config.enumeration_config(), start):
        ids, fresh = profiler.profile_block(templates, choices, skip, stop - start - offset)
        known.extend(map(repr_digest, fresh))
        # First-seen tests: the first occurrence of each id new to ``seen``.
        new = {pid for pid in set(ids) if known[pid] not in seen}
        seen.update(known[pid] for pid in new)
        for index, pid in enumerate(ids):
            if not new:
                break
            if pid in new:
                new.discard(pid)
                firsts[offset + index] = (
                    known[pid],
                    space.groups(profiler.profile(pid)),
                    block_items(templates, choices, skip + index),
                )
        if rate:
            for index, pid in enumerate(ids):
                if audit_selected(known[pid], f"N{start + offset + index + 1}", rate):
                    audits[offset + index] = block_items(templates, choices, skip + index)
        offset += len(ids)
        if offset == stop - start:
            break
    return offset, firsts, audits


#: State inherited by forked workers: the config, the model list, the
#: tabulated adaptive space (None for brute runs) and whether ranges are
#: profiled natively.
_PIPE_STATE: Optional[
    Tuple[PipelineConfig, List[MemoryModel], Optional[AdaptiveSpace], bool]
] = None
_PIPE_STATE_LOCK = threading.Lock()
#: The worker process's persistent engine (one per process, lazily built).
_WORKER_ENGINE: Optional[CheckEngine] = None


def _pipeline_worker_loop(conn) -> None:
    """A worker's main loop (runs in a forked child process).

    Receives ``(kind, index, payload, attempt)`` jobs on the pipe — kind
    ``"range"`` profiles a raw range, ``"shard"`` and ``"audit"`` check
    tests — and answers ``("ok", result, stats_dict)`` or
    ``("error", traceback_text)``; a ``None`` job (or a closed pipe) ends
    the worker.  The engine and the profile memos persist across jobs, so a
    long-lived worker pays kernel resolution and model compilation once.
    """
    global _WORKER_ENGINE
    assert _PIPE_STATE is not None
    config, models, space, native = _PIPE_STATE
    # Workers allocate millions of short-lived tuples and almost no
    # reference cycles: leave the inherited heap out of collections and
    # collect the youngest generation less often.
    gc.freeze()
    gc.set_threshold(10_000, 10, 10)
    #: digests profiled in earlier ranges, valid while ranges arrive in
    #: raw order (a retried earlier range resets it)
    seen: Set[str] = set()
    profiled_to = 0
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        kind, index, payload, attempt = job
        try:
            # Fault point for worker-failure testing: the attempt number is
            # part of the context, so a spec like
            # ``pipeline.shard[shard=1,attempt=0]=kill`` SIGKILLs only the
            # first attempt and lets the retry succeed.
            faults.fire(f"pipeline.{kind}", attempt=attempt, **{kind: index})
            if kind == "range":
                assert space is not None
                start, stop = payload
                if start < profiled_to:
                    seen = set()
                profiled_to = stop
                conn.send(("ok", _profile_range(space, config, start, stop, seen, native), None))
                continue
            if _WORKER_ENGINE is None:
                _WORKER_ENGINE = CheckEngine(backend=config.backend, kernel=config.kernel)
                _WORKER_ENGINE.precompile(models)
            rows, stats = _check_items(_WORKER_ENGINE, models, *payload)
            conn.send(("ok", rows, stats))
        except Exception:  # noqa: BLE001 - the parent decides retry/quarantine
            try:
                conn.send(("error", traceback.format_exc(limit=20)))
            except (OSError, ValueError):
                return


# ----------------------------------------------------------------------
# the parent half: shard streams
# ----------------------------------------------------------------------
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


class _AdaptiveStream:
    """The adaptive stream's parent half: profile index and frontier check.

    Works on the *raw* enumeration (the profile is invariant under the
    full symmetry group, so it subsumes canonical dedup).  Raw ranges are
    profiled elsewhere (:func:`_profile_range`); :meth:`feed` consumes
    their results strictly in raw order and, per raw test:

    * profile already indexed -> **profile skip** (certificate: the earlier
      row or frontier record with the same digest); a range result lists
      only the tests new to its profiler and the audit sample, so the
      tests between those are profile skips, counted in bulk;
    * profile fresh but no row constant on its model groups could refine
      the accumulator matrix -> **frontier skip** (certificate: the group
      masks); the matrix only grows, so the decision never needs revisiting
      and the fresh profile still indexes future duplicates;
    * otherwise the test is checked: every ``shard_size``-th one cuts a
      shard.

    Frontier decisions read the live accumulator: in serial runs folds
    happen between the shards :meth:`feed` yields (exactly-replayable
    decisions); in parallel runs classification runs ahead of the fold, so
    decisions use a *lagged* matrix — skipping strictly less, never
    unsoundly more.  Counters are snapshotted into ``extras`` at each cut
    for the partition checkpoint.  ``config.limit`` caps *checked* tests,
    mirroring the brute stream's cap on unique tests.
    """

    def __init__(
        self,
        config: PipelineConfig,
        space: AdaptiveSpace,
        accumulator: PartitionAccumulator,
        profiles: Set[str],
        counters: Dict[str, int],
        start_shard: int,
        native: bool = False,
    ) -> None:
        self.config = config
        self.space = space
        #: ranges are profiled by the C profiler (the run's kernel is native)
        self.native = native
        self.accumulator = accumulator
        #: the profile digests classified so far
        self.profiles = profiles
        self.counters = counters
        #: the index of the next shard to cut
        self.shard_index = start_shard
        #: the raw offset of the last cut
        self.cut_offset = counters["raw"]
        self.produced = accumulator.tests_folded
        #: True once the limit is reached or the stream was cut short
        self.done = False
        self.names: List[str] = []
        self.digests: List[str] = []
        self.items_list: List[tuple] = []
        self.records: List[object] = []
        #: skipped tests the audit sample selected, awaiting a check
        self.audit_names: List[str] = []
        self.audit_items: List[tuple] = []

    def ranges(self) -> Iterator[Tuple[int, int]]:
        """The raw ranges still to profile, from the resume offset on."""
        size = self.config.shard_size * RANGE_SHARDS
        total = count_naive_tests(self.config.enumeration_config())
        for start in range(self.counters["raw"], total, size):
            yield start, min(start + size, total)

    def feed(self, start: int, result: RangeResult) -> Iterator[ShardTuple]:
        """Classify one profiled range; yields each shard as it is cut."""
        count, firsts, audits = result
        counters, limit, size = self.counters, self.config.limit, self.config.shard_size
        width = self.accumulator.num_models
        profiles = self.profiles
        #: the offset after the last test classified
        position = 0
        for offset in sorted(firsts.keys() | audits.keys()) + [count]:
            if limit is not None and self.produced >= limit:
                self.done = True
                return
            # The tests since the last one visited are profile skips (the
            # trailing ``count`` closes the range).
            counters["raw"] += offset - position
            counters["profile_skips"] += offset - position
            if offset == count:
                return
            counters["raw"] += 1
            position = offset + 1
            name = f"N{start + offset + 1}"
            fresh = firsts.get(offset)
            if fresh is None or fresh[0] in profiles:
                counters["profile_skips"] += 1
            else:
                digest, groups, items = fresh
                profiles.add(digest)
                if self.accumulator.can_refine(groups):
                    self.records.append(len(self.names))
                    self.names.append(name)
                    self.digests.append(digest)
                    self.items_list.append(items)
                    self.produced += 1
                    if len(self.names) == size:
                        yield self._cut()
                    continue
                counters["frontier_skips"] += 1
                self.records.append(_frontier_line(name, digest, groups, width))
            if offset in audits:
                self.audit_names.append(name)
                self.audit_items.append(audits[offset])

    def finish(self) -> Iterator[ShardTuple]:
        """Cut the last, partial shard (if the stream left one)."""
        self.done = True
        if self.counters["raw"] > self.cut_offset:
            yield self._cut()

    def _cut(self) -> ShardTuple:
        counters = self.counters
        extras: Dict[str, object] = {
            "records": self.records,
            "raw_offset": counters["raw"],
            "profile_skips": counters["profile_skips"],
            "frontier_skips": counters["frontier_skips"],
        }
        shard = (self.shard_index, self.names, self.digests, self.items_list, extras)
        self.shard_index += 1
        self.cut_offset = counters["raw"]
        self.names, self.digests, self.items_list, self.records = [], [], [], []
        return shard

    def take_audits(self, size: int) -> Iterator[Tuple[List[str], List[tuple]]]:
        """Audit candidates in batches of ``size`` (a short last batch once
        the stream is done)."""
        while len(self.audit_names) >= size or (self.done and self.audit_names):
            yield self.audit_names[:size], self.audit_items[:size]
            del self.audit_names[:size], self.audit_items[:size]


def _serial_adaptive_shards(stream: _AdaptiveStream) -> Iterator[ShardTuple]:
    """The adaptive stream with every range profiled in-process."""
    seen: Set[str] = set()
    for range_index, (start, stop) in enumerate(stream.ranges()):
        faults.fire("pipeline.range", range=range_index, attempt=0)
        result = _profile_range(
            stream.space, stream.config, start, stop, seen, stream.native
        )
        yield from stream.feed(start, result)
        if stream.done:
            break
    yield from stream.finish()


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
    shards_checked = 0
    shards_resumed = 0

    # ------------------------------------------------------------------
    # adaptive state: profile index, skip counters, partition checkpoint
    # ------------------------------------------------------------------
    profiles: Set[str] = set()
    counters = {"raw": 0, "profile_skips": 0, "frontier_skips": 0}
    start_shard = 0
    partition_path: Optional[str] = None
    if adaptive_space is not None and run_dir is not None:
        partition_path = os.path.join(run_dir, "partition.json")
        if config.resume:
            template = _partition_template(
                config, model_names, adaptive_space.digest()
            )
            restored = PartitionCheckpoint.load(partition_path)
            # A torn, tampered or foreign checkpoint degrades to a cold
            # start — never to a wrong partition (the digest seals it).
            if restored is not None and restored.identity() == template.identity():
                accumulator.distinguished = list(restored.distinguished)
                accumulator.tests_folded = restored.tests_folded
                counters["raw"] = restored.raw_offset
                counters["profile_skips"] = restored.profile_skips
                counters["frontier_skips"] = restored.frontier_skips
                start_shard = shards_resumed = restored.shards_folded
                profiles = _rebuild_profile_index(run_dir, start_shard)
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
                        run_dir, shard_index, names, digests, rows, extras, num_models
                    )
                else:
                    _write_shard(
                        run_dir, shard_index, names, digests, rows, num_models
                    )
        if (
            partition_path is not None
            and adaptive_space is not None
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
            checkpoint.raw_tests = checkpoint.raw_offset
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

    stream: Optional[_AdaptiveStream] = None
    if adaptive_space is not None:
        stream = _AdaptiveStream(
            config, adaptive_space, accumulator, profiles, counters, start_shard,
            native=resolved_kernel == "native",
        )

    # Extra workers beyond the machine's cores only add fork/IPC overhead
    # (the work is CPU-bound), so a single-core host always takes the
    # serial in-process path no matter what ``--jobs`` asks for.
    context = _fork_context() if _effective_jobs(config) > 1 else None
    quarantined: List[int] = []
    audit_rows: List[Tuple[List[str], List[int]]] = []
    if context is not None:
        quarantined, audit_rows = _run_parallel(
            context, config, models, stream,
            _shards(config, index) if stream is None else None, fold_completed, stats,
        )
    else:
        shards = _serial_adaptive_shards(stream) if stream else _shards(config, index)
        for shard_index, names, digests, items_list, extras in shards:
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
            rows, spent = _check_items(engine, models, names, items_list, config.adaptive)
            stats.merge(spent)
            fold_completed(shard_index, names, digests, rows, False, extras)
        if stream is not None and stream.audit_names:
            rows, spent = _check_items(
                engine, models, stream.audit_names, stream.audit_items, False
            )
            stats.merge(spent)
            audit_rows.append((stream.audit_names, rows))

    # ------------------------------------------------------------------
    # end-of-run audits: a deterministic sample of the skipped tests was
    # re-checked the long way (no derivation); a row that would still
    # refine the final partition means an unsound skip, which fails the
    # run.  (Skipped when shards were quarantined: a representative's row
    # may be among the lost ones, and ``complete=False`` already flags it.)
    # ------------------------------------------------------------------
    audits_performed = 0
    if not quarantined:
        for names, rows in audit_rows:
            for name, mask in zip(names, rows):
                if accumulator.row_would_change(mask):
                    raise PipelineError(
                        f"adaptive audit failed: skipped test {name!r} would "
                        f"refine the partition (unsound skip certificate)"
                    )
                audits_performed += 1

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
        shards_total=shards_checked + shards_resumed + len(quarantined),
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


def _fork_context():
    """The ``fork`` multiprocessing context; None where fork is missing
    (the run then takes the serial in-process path)."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


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


# ----------------------------------------------------------------------
# the parallel scheduler
# ----------------------------------------------------------------------
class _Job:
    """One unit of worker work and its lifecycle in the parallel scheduler.

    ``kind`` names the job and its fault point: ``"range"`` profiles the
    raw tests ``payload = (start, stop)``; ``"shard"`` checks
    ``payload = (names, items_list, derive)`` and is folded in shard
    order; ``"audit"`` checks sampled skips without derivation.
    """

    __slots__ = (
        "kind", "index", "payload", "fold", "result", "resumed",
        "attempts", "quarantined", "failure",
    )

    def __init__(
        self, kind: str, index: int, payload: tuple, fold: Optional[tuple] = None
    ) -> None:
        self.kind = kind
        self.index = index
        self.payload: Optional[tuple] = payload
        #: for shards: the ``(names, digests, extras)`` the fold needs
        self.fold = fold
        self.result: object = None
        self.resumed = False
        #: attempts started so far (the worker sees this as ``attempt``)
        self.attempts = 0
        self.quarantined = False
        self.failure = ""

    def done(self) -> bool:
        return self.quarantined or self.result is not None


class _WorkerHandle:
    """One live worker: a forked process plus its duplex pipe."""

    def __init__(self, context) -> None:
        parent_conn, child_conn = context.Pipe()
        self.conn = parent_conn
        self.process = context.Process(
            target=_pipeline_worker_loop, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.job: Optional[_Job] = None
        self.deadline: Optional[float] = None

    def assign(self, job: _Job, shard_timeout: Optional[float]) -> bool:
        """Send a job to the worker; False if the pipe is already broken."""
        attempt = job.attempts
        job.attempts += 1
        try:
            self.conn.send((job.kind, job.index, job.payload, attempt))
        except (OSError, ValueError):
            return False
        self.job = job
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


def _run_parallel(
    context,
    config: PipelineConfig,
    models: List[MemoryModel],
    stream: Optional[_AdaptiveStream],
    brute_shards: Optional[Iterator[ShardTuple]],
    fold_completed: Callable[..., None],
    stats: EngineStats,
) -> Tuple[List[int], List[Tuple[List[str], List[int]]]]:
    """Fan the run out over fault-tolerant fork workers.

    Brute runs check the parent's ``brute_shards``.  Adaptive runs hand
    the workers raw ranges to profile, classify the results in raw order
    through ``stream`` (profile index and frontier check stay here), and
    hand the workers the shards ``stream`` cuts; sampled audits are
    checked on the workers too.  At most ``2 * jobs`` ranges (or brute shards) are
    outstanding at a time, and shards are folded (and checkpointed) in
    shard order, so a kill leaves a clean resumable prefix.

    Fault tolerance: a worker that dies (any cause, detected through its
    process sentinel), reports an exception, or overruns
    ``config.shard_timeout`` is killed and replaced by a fresh worker, and
    its job is retried up to ``config.shard_retries`` more times.  A shard
    that exhausts its attempts is *quarantined* — excluded from the
    partition — instead of aborting the run.  A quarantined range ends
    the stream where it starts: the shards before it are folded, the
    partition checkpoint stops at them, and the shard that would have
    followed is reported quarantined.  A quarantined audit batch is left
    out of the audit count.

    Returns the quarantined shard indices and the audited rows.
    """
    from multiprocessing import connection as mp_connection

    global _PIPE_STATE
    jobs = _effective_jobs(config)
    window = jobs * 2
    max_attempts = 1 + config.shard_retries
    quarantined: List[int] = []
    num_models = len(models)

    with _PIPE_STATE_LOCK:
        if stream is None:
            _PIPE_STATE = (config, models, None, False)
        else:
            _PIPE_STATE = (config, models, stream.space, stream.native)
        workers: List[_WorkerHandle] = []
        try:
            #: shards not yet folded, in shard order
            shards: Deque[_Job] = deque()
            #: ranges not yet classified, in raw order
            ranges: Deque[_Job] = deque()
            audits: List[_Job] = []
            #: jobs awaiting a worker, by kind (retries go to the front)
            pending: Dict[str, Deque[_Job]] = {
                "shard": deque(), "range": deque(), "audit": deque(),
            }
            plan = enumerate(stream.ranges()) if stream is not None else None
            #: every shard of the run has been cut
            exhausted = False
            range_lost = False

            def add_shard(shard: ShardTuple) -> None:
                shard_index, names, digests, items_list, extras = shard
                job = _Job(
                    "shard", shard_index, (names, items_list, config.adaptive),
                    (names, digests, extras),
                )
                if config.resume and config.run_dir is not None and not config.adaptive:
                    rows = _load_shard(config.run_dir, shard_index, digests, num_models)
                    if rows is not None:
                        job.result, job.resumed = rows, True
                shards.append(job)
                if not job.resumed:
                    pending["shard"].append(job)

            def produce() -> None:
                nonlocal exhausted, range_lost
                if brute_shards is not None:
                    while not exhausted and len(shards) < window:
                        shard = next(brute_shards, None)
                        if shard is None:
                            exhausted = True
                        else:
                            add_shard(shard)
                    return
                assert stream is not None
                while ranges and ranges[0].done() and not stream.done:
                    job = ranges.popleft()
                    if job.quarantined:
                        range_lost = stream.done = True
                        break
                    assert job.payload is not None
                    for shard in stream.feed(job.payload[0], job.result):  # type: ignore[arg-type]
                        add_shard(shard)
                while plan is not None and not stream.done and len(ranges) < window:
                    entry = next(plan, None)
                    if entry is None:
                        break
                    job = _Job("range", entry[0], entry[1])
                    ranges.append(job)
                    pending["range"].append(job)
                if not exhausted and (stream.done or not ranges):
                    for shard in stream.finish():
                        add_shard(shard)
                    exhausted = True
                    if range_lost:
                        quarantined.append(stream.shard_index)
                    # Ranges past the end of the stream are not needed.
                    ranges.clear()
                    pending["range"].clear()
                for names, items_list in stream.take_audits(config.shard_size):
                    job = _Job("audit", len(audits), (names, items_list, False))
                    audits.append(job)
                    pending["audit"].append(job)

            def fold_front() -> None:
                while shards and shards[0].done():
                    job = shards.popleft()
                    if job.quarantined:
                        quarantined.append(job.index)
                        continue
                    assert job.fold is not None
                    names, digests, extras = job.fold
                    fold_completed(
                        job.index, names, digests, job.result, job.resumed, extras
                    )

            def next_pending(ranges_first: bool) -> _Job:
                first, second = ("range", "shard") if ranges_first else ("shard", "range")
                queue = next(pending[kind] for kind in (first, second, "audit") if pending[kind])
                return queue.popleft()

            def fail(worker: _WorkerHandle, reason: str) -> None:
                """Kill a failed/hung worker; retry or quarantine its job."""
                job = worker.job
                worker.job = None
                worker.close(kill=True)
                workers.remove(worker)
                assert job is not None
                job.failure = reason
                if job.attempts >= max_attempts:
                    job.quarantined = True
                else:
                    pending[job.kind].appendleft(job)

            while True:
                produce()
                fold_front()
                if exhausted and not shards and all(job.done() for job in audits):
                    break
                # Hand pending jobs to idle workers, spawning fresh
                # workers up to the job count as needed.  The oldest worker
                # takes ranges first and the others take shards first, so
                # the profile memos warm up mostly in one process.
                idle = [worker for worker in workers if worker.job is None]
                while any(pending.values()):
                    if idle:
                        worker = idle.pop(0)
                    elif len(workers) < jobs:
                        worker = _WorkerHandle(context)
                        workers.append(worker)
                    else:
                        break
                    job = next_pending(worker is workers[0])
                    if not worker.assign(job, config.shard_timeout):
                        job.attempts -= 1  # the send never reached a worker
                        worker.job = job  # so fail() routes the retry
                        fail(worker, "worker pipe broken before dispatch")

                busy = [worker for worker in workers if worker.job is not None]
                if not busy:
                    continue

                # Wait for a result, a death (process sentinel), or the
                # nearest job deadline.
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
                    job = worker.job
                    if job is None:  # already handled this round
                        continue
                    if worker.conn.poll():
                        try:
                            message = worker.conn.recv()
                        except (EOFError, OSError):
                            fail(worker, "worker died mid-job")
                            continue
                        if message[0] == "ok":
                            _, result, worker_stats = message
                            # Stats merge only on success, keeping counters
                            # deterministic: failed attempts contribute none.
                            if worker_stats is not None:
                                stats.merge(worker_stats)
                            job.result = result
                            if job.kind == "shard":
                                job.payload = None
                            worker.job = None
                            worker.deadline = None
                        else:
                            # A fresh worker per retry: the failed worker's
                            # state is suspect, so it is not reused.
                            fail(worker, f"worker exception:\n{message[1]}")
                    elif not worker.process.is_alive():
                        fail(worker, "worker died mid-job")
                    elif worker.deadline is not None and now >= worker.deadline:
                        fail(
                            worker,
                            f"{job.kind} exceeded the {config.shard_timeout:g}s timeout",
                        )
        finally:
            # A worker still busy (an abandoned range, or an aborted run)
            # may be blocked sending its result: kill it rather than wait.
            for worker in workers:
                worker.close(kill=worker.job is not None)
            _PIPE_STATE = None
    audit_rows = [
        (job.payload[0], job.result)
        for job in audits
        if not job.quarantined and job.payload is not None
    ]
    return quarantined, audit_rows  # type: ignore[return-value]
