"""Partition-guided adaptive exhaustive verification.

The brute pipeline checks every symmetry-distinct test of the naive bounded
enumeration.  This module prunes that work with two *sound, certified*
static filters computed before a :class:`~repro.core.litmus.LitmusTest` is
ever materialised — let alone any kernel search run:

**The profile prefilter.**  Within the enumeration fragment every write has
a distinct nonzero value per location, so every read-from edge is *forced*:
a test's verdict under any model of the tabulated class is a function of

* the retained memory accesses (after sound erasures, below) with their
  location/value structure, and
* per model, the transitive closure of the model's forced program-order
  edges, projected onto the retained accesses.

Erasures (cascaded to a fixpoint, each justified structurally, i.e. for
*every* model of the class):

* **R4** — boundary fences.  Fences participate in no rf/co/fr edge, so a
  fence at a thread boundary is a source or sink of the happens-before
  graph and can never lie on a cycle.
* **R2** — an unread write at the end of a thread is coherence-last with
  out-degree 0; one at the start is erasable only when no read observes
  the location's initial value 0 (initial readers carry from-read edges
  into *every* write of the location).
* **R1** — a boundary read of the initial value of a location nobody
  writes has no rf/fr edges at all.
* Interior fences and interior pure-init reads are *conduits*: they stay
  for the transitive closure but are projected out of the signature.

Two tests with equal :func:`AdaptiveSpace.profile` therefore have equal
verdict rows, and the profile is invariant under the pipeline's full
symmetry group (thread permutation, location renaming, 0-fixing value
renaming) — so profile dedup *replaces* canonical dedup on the raw stream.

**The frontier rule.**  A profile also partitions the *model space*: models
whose projected forced structure coincides on every thread (the common
refinement of the per-thread signature groups) receive identical verdicts
on the test.  A test can only newly distinguish an ordered model pair from
*different* groups; when every such pair is already distinguished in the
accumulator matrix, folding the row is a no-op — the test is skipped with
its group decomposition as the certificate.  The matrix only grows, so a
certificate checked against the matrix at skip time also holds against the
final matrix.

Every frontier skip writes a machine-checkable certificate record into the
shard checkpoint files.  A profile skip needs no record of its own: the
row or frontier record of the first test with its profile digest is its
certificate, and each shard's ``done`` marker counts the profile skips.
:class:`PartitionCheckpoint` persists the folded
partition itself — digest-validated, versioned, atomically written — so a
resumed run restarts from the matrix instead of re-reading shard rows, and
cooperating runs can :meth:`~PartitionCheckpoint.merge` their partitions
(an associative fold with a merge-conflict check).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

#: One reduced event: (kind, location, value, retained).
ReducedItem = Tuple[str, object, object, bool]

#: One thread's profile: (retained accesses, signature); the signature is a
#: sorted tuple of (model bitmask, projected closed edges) pairs.
ThreadProfile = Tuple[Tuple[Tuple[str, int, int], ...], Tuple]

#: A whole test's profile: one ThreadProfile per non-empty thread, in the
#: canonical (minimising) thread order; () for a fully-erased test.
Profile = Tuple[ThreadProfile, ...]

#: Schema of the partition checkpoint document.
PARTITION_SCHEMA = "repro/partition_checkpoint"
PARTITION_SCHEMA_VERSION = 1

_EVENT_KINDS = ("R", "W", "F")


# ----------------------------------------------------------------------
# pair-atom tabulation of a model space
# ----------------------------------------------------------------------
def _pair_assignment(kind_x: str, kind_y: str, same: bool) -> Dict[Tuple[str, tuple], bool]:
    """Truth assignment for the binary must-not-reorder vocabulary.

    The enumeration fragment carries no dependency instructions, so the
    dependency atoms are uniformly false — which is exactly what makes the
    90-model dependency space tabulable too.
    """
    assign: Dict[Tuple[str, tuple], bool] = {}
    for var, kind in (("x", kind_x), ("y", kind_y)):
        assign[("Read", (var,))] = kind == "R"
        assign[("Write", (var,))] = kind == "W"
        assign[("Fence", (var,))] = kind == "F"
        assign[("MemoryAccess", (var,))] = kind in ("R", "W")
    assign[("SameAddr", ("x", "y"))] = same
    assign[("DataDep", ("x", "y"))] = False
    assign[("CtrlDep", ("x", "y"))] = False
    assign[("AnyDep", ("x", "y"))] = False
    return assign


def _eval_ir(node, assign: Dict[Tuple[str, tuple], bool]) -> bool:
    """Evaluate a compiled formula IR under a pair-atom assignment.

    Raises ``KeyError`` (unknown atom) or ``ValueError`` (opaque node) when
    the model falls outside the tabulated fragment; the caller treats
    either as ineligibility.
    """
    kind = node.kind
    if kind == "true":
        return True
    if kind == "false":
        return False
    if kind in ("atom", "natom"):
        value = assign[(node.predicate.name, node.args)]
        return (not value) if kind == "natom" else value
    if kind == "and":
        return all(_eval_ir(child, assign) for child in node.children)
    if kind == "or":
        return any(_eval_ir(child, assign) for child in node.children)
    raise ValueError(f"node kind {kind!r} is outside the tabulated fragment")


class AdaptiveSpace:
    """A model space's tabulated pair semantics plus the profile machinery.

    Build with :meth:`build`, which returns ``None`` when any model falls
    outside the tabulated straight-line vocabulary (opaque callables,
    predicates beyond Read/Write/Fence/MemoryAccess/SameAddr/*Dep) — the
    caller then refuses adaptive mode rather than risk an unsound skip.
    """

    def __init__(
        self, model_names: Sequence[str], tables: Dict[Tuple[str, str, bool], int]
    ) -> None:
        self.model_names = list(model_names)
        self.num_models = len(self.model_names)
        self.full_mask = (1 << self.num_models) - 1
        self.tables = tables
        self._thread_memo: Dict[Tuple[ReducedItem, ...], ThreadProfile] = {}
        self._row_memo: Dict[Tuple[Tuple[str, int, int], ...], Tuple] = {}
        self._profile_memo: Dict[Tuple[ThreadProfile, ...], Profile] = {}
        self._memo_cap = 1 << 20
        self._native: Optional["NativeProfiler"] = None

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, models: Sequence[object]) -> Optional["AdaptiveSpace"]:
        """Tabulate a model space; None when any model is not tabulable."""
        from repro.compile.compiler import compile_model

        roots = []
        names = []
        for model in models:
            compiled = compile_model(model)
            if compiled.kind != "formula":
                return None
            roots.append(compiled.root)
            names.append(model.name)
        tables: Dict[Tuple[str, str, bool], int] = {}
        try:
            for kind_x in _EVENT_KINDS:
                for kind_y in _EVENT_KINDS:
                    for same in (False, True):
                        if same and "F" in (kind_x, kind_y):
                            continue  # fences have no address
                        assign = _pair_assignment(kind_x, kind_y, same)
                        mask = 0
                        for index, root in enumerate(roots):
                            if _eval_ir(root, assign):
                                mask |= 1 << index
                        tables[(kind_x, kind_y, same)] = mask
        except (KeyError, ValueError):
            return None
        return cls(names, tables)

    def digest(self) -> str:
        """A stable digest of the tabulated space (for checkpoint validation)."""
        payload = (tuple(self.model_names), tuple(sorted(self.tables.items())))
        return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:32]

    # ------------------------------------------------------------------
    # per-thread profiles
    # ------------------------------------------------------------------
    def _pair_label(self, kind_x: str, kind_y: str, loc_x: object, loc_y: object) -> int:
        if "F" in (kind_x, kind_y):
            return self.tables[(kind_x, kind_y, False)]
        return self.tables[(kind_x, kind_y, loc_x == loc_y)]

    def _thread_profile(self, thread: Tuple[ReducedItem, ...]) -> ThreadProfile:
        """One reduced thread's (retained accesses, signature)."""
        n = len(thread)
        retained_idx = [i for i in range(n) if thread[i][3]]
        remap = {position: i for i, position in enumerate(retained_idx)}
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        labels = {
            pair: self._pair_label(
                thread[pair[0]][0], thread[pair[1]][0],
                thread[pair[0]][1], thread[pair[1]][1],
            )
            for pair in pairs
        }
        # Group the models by their per-pair forced-edge vector.
        groups: Dict[Tuple[int, ...], int] = {}
        for m in range(self.num_models):
            bit = 1 << m
            key = tuple(1 if labels[pair] & bit else 0 for pair in pairs)
            groups[key] = groups.get(key, 0) | bit
        # Per group: transitively close the forced edges (conduit events
        # relay ordering), then project onto the retained positions.
        merged: Dict[Tuple, int] = {}
        for key, mask in groups.items():
            edges = {pair for pair, bit in zip(pairs, key) if bit}
            changed = True
            while changed:
                changed = False
                for (i, j) in pairs:
                    if (i, j) in edges:
                        continue
                    for k in range(i + 1, j):
                        if (i, k) in edges and (k, j) in edges:
                            edges.add((i, j))
                            changed = True
                            break
            projected = tuple(
                sorted(
                    (remap[i], remap[j])
                    for (i, j) in edges
                    if i in remap and j in remap
                )
            )
            merged[projected] = merged.get(projected, 0) | mask
        signature = tuple(sorted((mask, proj) for proj, mask in merged.items()))
        accesses = tuple(thread[i][:3] for i in retained_idx)
        return accesses, signature

    def _thread_profile_memo(self, thread: List[ReducedItem]) -> ThreadProfile:
        key = tuple(thread)
        entry = self._thread_memo.get(key)
        if entry is None:
            if len(self._thread_memo) >= self._memo_cap:
                self._thread_memo.clear()
            entry = self._thread_profile(key)
            self._thread_memo[key] = entry
        return entry

    # ------------------------------------------------------------------
    # whole-test profiles
    # ------------------------------------------------------------------
    def _relabel_single(self, accesses: Tuple[Tuple[str, int, int], ...]) -> Tuple:
        """First-use relabelling of one thread alone (permutation tiebreak)."""
        row = self._row_memo.get(accesses)
        if row is None:
            if len(self._row_memo) >= self._memo_cap:
                self._row_memo.clear()
            row = _relabel_threads((accesses,))[0]
            self._row_memo[accesses] = row
        return row

    def _assemble(self, ordered: Sequence[ThreadProfile]) -> Profile:
        relabelled = _relabel_threads([accesses for accesses, _sig in ordered])
        return tuple(
            (row, sig) for row, (_accs, sig) in zip(relabelled, ordered)
        )

    def profile(self, items: Tuple[Tuple[Tuple[str, object, object], ...], ...]) -> Profile:
        """The test's verdict-determining profile (symmetry-invariant)."""
        threads = [
            entry
            for entry in (
                self._thread_profile_memo(thread) for thread in reduce_core(items)
            )
            if entry[0]
        ]
        if not threads:
            return ()
        # Distinct raw tests collapse onto far fewer reduced-thread tuples,
        # so the permutation-minimisation below repeats heavily — memoised
        # on the (order-sensitive) thread tuple, exact by construction.
        memo_key = tuple(threads)
        result = self._profile_memo.get(memo_key)
        if result is not None:
            return result
        if len(threads) == 1:
            result = self._assemble(threads)
        elif len(threads) == 2:
            first, second = threads
            key_first = (self._relabel_single(first[0]), first[1])
            key_second = (self._relabel_single(second[0]), second[1])
            if key_first < key_second:
                result = self._assemble((first, second))
            elif key_second < key_first:
                result = self._assemble((second, first))
            else:
                result = min(
                    self._assemble((first, second)), self._assemble((second, first))
                )
        else:
            result = min(self._assemble(order) for order in permutations(threads))
        if len(self._profile_memo) >= self._memo_cap:
            self._profile_memo.clear()
        self._profile_memo[memo_key] = result
        return result

    def native_profiler(self) -> "NativeProfiler":
        """This process's C profiler of the space, built on first use."""
        if self._native is None:
            self._native = NativeProfiler(self)
        return self._native

    def groups(self, profile: Profile) -> List[int]:
        """The model partition a profiled test induces: the common refinement
        of the per-thread signature groups.  Verdicts are constant on each
        group, so a test can only distinguish models from different groups.
        """
        groups = [self.full_mask]
        for _accesses, signature in profile:
            refined: List[int] = []
            for group in groups:
                for mask, _proj in signature:
                    overlap = group & mask
                    if overlap:
                        refined.append(overlap)
            groups = refined
        return groups


class NativeProfiler:
    """The C twin of :meth:`AdaptiveSpace.profile`, for one process.

    ``profiler`` is a ``_kernelmod.Profiler`` over the space's pair
    tables.  ``profiler.profile_block`` reduces and keys whole shape
    combinations of the raw stream (see
    :func:`~repro.generation.enumeration.raw_naive_blocks`) and returns a
    dense profile id per test, plus ``repr(profile)`` (as bytes) of every
    id it hands out for the first time; ``profiler.profile(id)`` rebuilds
    the exact :data:`Profile` tuple.  ``digests[id]`` is that profile's
    :func:`profile_digest` (:func:`repr_digest` of the rendering); the
    caller appends them as ids arrive.  The Python profile stays the
    reference.
    """

    def __init__(self, space: AdaptiveSpace) -> None:
        from repro.native import _kernelmod

        width = 8 * ((space.num_models + 63) // 64)
        table = b"".join(
            space.tables.get((kind_x, kind_y, same), 0).to_bytes(width, "little")
            for kind_x in _EVENT_KINDS
            for kind_y in _EVENT_KINDS
            for same in (False, True)
        )
        self.profiler = _kernelmod.Profiler(space.num_models, table)
        self.digests: List[str] = []


def _relabel_threads(
    threads: Sequence[Tuple[Tuple[str, int, int], ...]]
) -> List[Tuple[Tuple[str, int, int], ...]]:
    """First-use location/value relabelling across threads (0 stays 0)."""
    loc_ids: Dict[object, int] = {}
    value_ids: Dict[object, Dict[object, int]] = {}
    out: List[Tuple[Tuple[str, int, int], ...]] = []
    for accesses in threads:
        row = []
        for kind, loc, val in accesses:
            if loc not in loc_ids:
                loc_ids[loc] = len(loc_ids)
            if val == 0:
                new_val = 0
            else:
                values = value_ids.setdefault(loc, {})
                if val not in values:
                    values[val] = len(values) + 1
                new_val = values[val]
            row.append((kind, loc_ids[loc], new_val))
        out.append(tuple(row))
    return out


# ----------------------------------------------------------------------
# core reduction (the sound erasures)
# ----------------------------------------------------------------------
def reduce_core(
    items: Tuple[Tuple[Tuple[str, object, object], ...], ...]
) -> List[List[ReducedItem]]:
    """Apply the R1/R2/R4 erasures to a fixpoint; mark conduits.

    Returns the reduced threads (empty threads dropped), each event tagged
    ``retained`` — ``False`` marks a conduit (interior fence or interior
    pure-init read) kept only to relay forced-order transitivity.
    """
    threads = [list(thread) for thread in items]
    while True:
        changed = False
        writes: Dict[object, set] = {}
        read_vals: Dict[object, set] = {}
        for thread in threads:
            for kind, loc, val in thread:
                if kind == "W":
                    writes.setdefault(loc, set()).add(val)
                elif kind == "R":
                    read_vals.setdefault(loc, set()).add(val)
        new_threads = []
        for thread in threads:
            # R4: boundary fences are happens-before sources/sinks.
            while thread and thread[0][0] == "F":
                thread = thread[1:]
                changed = True
            while thread and thread[-1][0] == "F":
                thread = thread[:-1]
                changed = True
            if not thread:
                changed = True
                continue
            first, last = thread[0], thread[-1]
            # R2-last: an unread write at thread end is co-last, out-degree 0.
            if last[0] == "W" and last[2] not in read_vals.get(last[1], ()):
                thread = thread[:-1]
                changed = True
            # R2-first: an unread write at thread start is erasable only
            # when no read observes the location's initial value — initial
            # readers have from-read edges into every write of the location.
            elif (
                first[0] == "W"
                and first[2] not in read_vals.get(first[1], ())
                and 0 not in read_vals.get(first[1], ())
            ):
                thread = thread[1:]
                changed = True
            # R1: a boundary read of the initial value of an unwritten
            # location has no rf/fr edges at all.
            elif first[0] == "R" and first[2] == 0 and not writes.get(first[1]):
                thread = thread[1:]
                changed = True
            elif last[0] == "R" and last[2] == 0 and not writes.get(last[1]):
                thread = thread[:-1]
                changed = True
            if thread:
                new_threads.append(thread)
        threads = new_threads
        if not changed:
            break
    # Interior fences and interior pure-init reads become conduits.
    writes = {}
    for thread in threads:
        for kind, loc, val in thread:
            if kind == "W":
                writes.setdefault(loc, set()).add(val)
    reduced: List[List[ReducedItem]] = []
    for thread in threads:
        row: List[ReducedItem] = []
        for kind, loc, val in thread:
            if kind == "F":
                row.append((kind, loc, val, False))
            elif kind == "R" and val == 0 and not writes.get(loc):
                row.append((kind, loc, val, False))
            else:
                row.append((kind, loc, val, True))
        reduced.append(row)
    return reduced


_DIGEST_MEMO: Dict[Tuple, str] = {}
_DIGEST_MEMO_CAP = 1 << 20


def profile_digest(profile: Profile) -> str:
    """A stable hex digest of a profile (dedup key and certificate label)."""
    digest = _DIGEST_MEMO.get(profile)
    if digest is None:
        if len(_DIGEST_MEMO) >= _DIGEST_MEMO_CAP:
            _DIGEST_MEMO.clear()
        digest = repr_digest(repr(profile).encode("utf-8"))
        _DIGEST_MEMO[profile] = digest
    return digest


def repr_digest(rendered: bytes) -> str:
    """:func:`profile_digest` of the profile whose ``repr`` is ``rendered``
    (the C profiler renders it, see :class:`NativeProfiler`)."""
    return hashlib.sha256(rendered).hexdigest()[:32]


def audit_selected(digest: str, name: str, rate: float) -> bool:
    """Deterministic sampled-audit selection for a skipped test."""
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    draw = int.from_bytes(
        hashlib.sha256(f"{digest}:{name}".encode("utf-8")).digest()[:4], "big"
    )
    return draw / 0x100000000 < rate


# ----------------------------------------------------------------------
# the partition checkpoint
# ----------------------------------------------------------------------
def mask_to_bits(mask: int, width: int) -> str:
    """Bit ``i`` of ``mask`` at position ``i`` (lowest model first): the
    encoding of verdict rows, frontier groups and the dominance matrix."""
    return format(mask, f"0{width}b")[::-1]


def bits_to_mask(bits: str) -> int:
    mask = 0
    for i, bit in enumerate(bits):
        if bit == "1":
            mask |= 1 << i
    return mask


@dataclass
class PartitionCheckpoint:
    """The folded partition itself, checkpointed.

    Written atomically alongside the shard checkpoints after every fold, so
    ``--resume`` restores the dominance matrix and fast-forwards the raw
    stream instead of re-reading shard JSONL row by row.  The ``digest``
    field seals the whole document; a torn or tampered file loads as
    ``None`` and the run falls back to a cold start.
    """

    bound: str
    space: str
    suite: str
    backend: str
    shard_size: int
    limit: Optional[int]
    model_names: List[str]
    space_digest: str
    #: contiguous prefix of shards whose rows are folded into the matrix
    shards_folded: int = 0
    #: raw enumeration items consumed to produce that prefix
    raw_offset: int = 0
    tests_folded: int = 0
    raw_tests: int = 0
    profile_skips: int = 0
    frontier_skips: int = 0
    #: the dominance matrix, one bitmask per model
    distinguished: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.distinguished:
            self.distinguished = [0] * len(self.model_names)

    # ------------------------------------------------------------------
    def identity(self) -> Tuple:
        """The fields two checkpoints must share to merge or resume."""
        return (
            self.bound, self.space, self.suite, self.backend,
            self.shard_size, self.limit,
            tuple(self.model_names), self.space_digest,
        )

    def merge(self, other: "PartitionCheckpoint") -> "PartitionCheckpoint":
        """Fold another run's partition into this one (associative).

        The dominance matrix is a monotone union, so cooperating workers
        covering disjoint (or overlapping) slices of the stream can merge
        in any order.  Stream positions are *not* mergeable — the merged
        checkpoint restarts the stream and lets the warm matrix do the
        pruning — and mismatched identities raise ``ValueError``.
        """
        if self.identity() != other.identity():
            raise ValueError(
                "partition merge conflict: checkpoints describe different runs "
                f"({self.identity()!r} vs {other.identity()!r})"
            )
        merged = PartitionCheckpoint(
            bound=self.bound, space=self.space, suite=self.suite,
            backend=self.backend, shard_size=self.shard_size, limit=self.limit,
            model_names=list(self.model_names), space_digest=self.space_digest,
            shards_folded=0, raw_offset=0,
            tests_folded=self.tests_folded + other.tests_folded,
            raw_tests=max(self.raw_tests, other.raw_tests),
            profile_skips=self.profile_skips + other.profile_skips,
            frontier_skips=self.frontier_skips + other.frontier_skips,
            distinguished=[
                a | b for a, b in zip(self.distinguished, other.distinguished)
            ],
        )
        return merged

    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, object]:
        width = len(self.model_names)
        body: Dict[str, object] = {
            "schema": PARTITION_SCHEMA,
            "schema_version": PARTITION_SCHEMA_VERSION,
            "bound": self.bound,
            "space": self.space,
            "suite": self.suite,
            "backend": self.backend,
            "shard_size": self.shard_size,
            "limit": self.limit,
            "model_names": list(self.model_names),
            "space_digest": self.space_digest,
            "shards_folded": self.shards_folded,
            "raw_offset": self.raw_offset,
            "tests_folded": self.tests_folded,
            "raw_tests": self.raw_tests,
            "profile_skips": self.profile_skips,
            "frontier_skips": self.frontier_skips,
            "distinguished": [mask_to_bits(mask, width) for mask in self.distinguished],
        }
        body["digest"] = _payload_digest(body)
        return body

    def write(self, path: str) -> None:
        """Atomically persist the checkpoint document."""
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.payload(), handle, indent=1)
        os.replace(tmp, path)

    @staticmethod
    def load(path: str) -> Optional["PartitionCheckpoint"]:
        """Load a checkpoint; None when absent, torn, or digest-invalid.

        This loader never raises: resuming from a bad checkpoint must
        degrade to a cold start, never crash the run.
        """
        try:
            with open(path) as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(document, dict):
            return None
        if document.get("schema") != PARTITION_SCHEMA:
            return None
        if document.get("schema_version") != PARTITION_SCHEMA_VERSION:
            return None
        recorded = document.get("digest")
        body = {key: value for key, value in document.items() if key != "digest"}
        if recorded != _payload_digest(body):
            return None
        try:
            model_names = list(document["model_names"])
            bits = document["distinguished"]
            if len(bits) != len(model_names):
                return None
            if any(len(row) != len(model_names) for row in bits):
                return None
            return PartitionCheckpoint(
                bound=document["bound"],
                space=document["space"],
                suite=document["suite"],
                backend=document["backend"],
                shard_size=document["shard_size"],
                limit=document["limit"],
                model_names=model_names,
                space_digest=document["space_digest"],
                shards_folded=int(document["shards_folded"]),
                raw_offset=int(document["raw_offset"]),
                tests_folded=int(document["tests_folded"]),
                raw_tests=int(document["raw_tests"]),
                profile_skips=int(document["profile_skips"]),
                frontier_skips=int(document["frontier_skips"]),
                distinguished=[bits_to_mask(row) for row in bits],
            )
        except (KeyError, TypeError, ValueError):
            return None


def _payload_digest(body: Dict[str, object]) -> str:
    canonical = json.dumps(
        {key: value for key, value in body.items() if key != "digest"},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]
