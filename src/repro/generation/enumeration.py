"""Naive bounded enumeration of litmus tests.

Section 3.4 observes that enumerating *all* two-thread tests within the
Theorem 1 bound (up to three memory accesses per thread, optional fences,
all address and outcome choices) yields roughly a million tests even without
dependencies, that the optimisations of earlier work reduce this to a few
thousand, and that the template construction needs only a few hundred.  This
module implements the naive baseline so the benchmark suite can reproduce the
comparison:

* :func:`count_naive_tests` counts the space without materialising it;
* :func:`enumerate_naive_tests` yields the tests (optionally capped), using
  canonical location naming so the count is not inflated by pure renamings.

By default the stream is additionally collapsed by the full symmetry
reduction of :mod:`repro.pipeline.canonical` (thread permutation, location
renaming *and* value renaming — historically only location renaming was
deduplicated), so each kernel-distinct test appears once.  The raw
location-canonical stream — the space :func:`count_naive_tests` counts —
remains available as ``enumerate_naive_tests(raw=True)``.

The enumeration is parameterised so that both the paper's "no dependencies"
setting and richer settings can be measured.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.litmus import LitmusTest


@dataclass(frozen=True)
class NaiveEnumerationConfig:
    """Parameters of the naive enumeration.

    The defaults mirror the Theorem 1 bound for the dependency-free setting:
    two threads, one to three memory accesses per thread, an optional fence
    between consecutive accesses, and at most four distinct locations.
    """

    max_accesses_per_thread: int = 3
    min_accesses_per_thread: int = 1
    num_threads: int = 2
    max_locations: int = 4
    allow_fences: bool = True

    def __post_init__(self) -> None:
        if self.min_accesses_per_thread < 1:
            raise ValueError("threads need at least one access")
        if self.max_accesses_per_thread < self.min_accesses_per_thread:
            raise ValueError("max accesses must be at least min accesses")
        if self.num_threads < 1:
            raise ValueError("at least one thread is required")


#: One symbolic access: kind ("R" or "W") and location index.
_Access = Tuple[str, int]
#: One thread shape: accesses plus fence positions (between consecutive accesses).
_ThreadShape = Tuple[Tuple[_Access, ...], Tuple[bool, ...]]


def _thread_shapes(config: NaiveEnumerationConfig) -> List[_ThreadShape]:
    """Enumerate the per-thread shapes (accesses, fences), canonically."""
    shapes: List[_ThreadShape] = []
    for length in range(config.min_accesses_per_thread, config.max_accesses_per_thread + 1):
        for kinds in product("RW", repeat=length):
            for locations in product(range(config.max_locations), repeat=length):
                accesses = tuple(zip(kinds, locations))
                fence_slots = max(length - 1, 0)
                fence_options = (
                    product((False, True), repeat=fence_slots)
                    if config.allow_fences
                    else [tuple([False] * fence_slots)]
                )
                for fences in fence_options:
                    shapes.append((accesses, tuple(fences)))
    return shapes


#: Per shape: the location count after the shape for every count of
#: locations used before it (None where the shape would skip a location
#: index), and its per-location read and write counts.
_ShapeRow = Tuple[Tuple[Optional[int], ...], Tuple[int, ...], Tuple[int, ...]]


class _Plan:
    """The shapes of one enumeration config, plus exact test counting.

    A combination of thread shapes is location-canonical when every
    location's first use comes in index order, so validity only depends on
    how many locations the earlier threads used; and its outcome product
    is ``prod (1 + writes[l]) ** reads[l]`` over the locations ``l``.  That
    makes every block of combinations countable without enumerating it,
    which is what lets :func:`enumerate_raw_naive_items` seek.
    """

    def __init__(self, config: NaiveEnumerationConfig) -> None:
        self.config = config
        self.shapes = _thread_shapes(config)
        self.rows = [_shape_row(shape, config.max_locations) for shape in self.shapes]
        #: per shape, the locations of its reads in order
        self.read_locations = [
            tuple(location for kind, location in accesses if kind == "R")
            for accesses, _fences in self.shapes
        ]
        #: the values a read can observe, by the write count of its location
        self.choice_values = [
            tuple(range(writes + 1))
            for writes in range(config.num_threads * config.max_accesses_per_thread + 1)
        ]
        #: distinct rows with their multiplicity, for counting whole blocks
        self.classes = list(Counter(self.rows).items())
        self._completions: Dict[Tuple, int] = {}

    def completions(
        self, threads: int, used: int, reads: Tuple[int, ...], writes: Tuple[int, ...]
    ) -> int:
        """Tests in all canonical completions by ``threads`` more threads."""
        if not threads:
            total = 1
            for read_count, write_count in zip(reads, writes):
                total *= (1 + write_count) ** read_count
            return total
        key = (threads, used, reads, writes)
        total = self._completions.get(key)
        if total is None:
            total = 0
            for (after, shape_reads, shape_writes), multiplicity in self.classes:
                now_used = after[used]
                if now_used is not None:
                    total += multiplicity * self.completions(
                        threads - 1, now_used,
                        _add(reads, shape_reads), _add(writes, shape_writes),
                    )
            self._completions[key] = total
        return total

    def seek(self, start: int) -> Optional[Tuple[List[int], int]]:
        """The shape indices of the combination holding test ``start``
        (0-based) and the test's offset in its outcome product; None past
        the end.  Skips whole blocks by their counts."""
        zero = (0,) * self.config.max_locations
        used, reads, writes = 0, zero, zero
        position: List[int] = []
        for depth in range(self.config.num_threads, 0, -1):
            for index, (after, shape_reads, shape_writes) in enumerate(self.rows):
                now_used = after[used]
                if now_used is None:
                    continue
                now_reads, now_writes = _add(reads, shape_reads), _add(writes, shape_writes)
                block = self.completions(depth - 1, now_used, now_reads, now_writes)
                if start < block:
                    position.append(index)
                    used, reads, writes = now_used, now_reads, now_writes
                    break
                start -= block
            else:
                return None
        return position, start

    def blocks(self, position: Sequence[int]) -> Iterator[Tuple[tuple, List[Tuple[int, ...]]]]:
        """Item templates and read choices of each canonical combination,
        in product order from ``position`` on.  Templates are built thread
        by thread, so a prefix's rows are shared by every combination that
        extends it."""
        rows, shapes, last = self.rows, self.shapes, self.config.num_threads - 1
        read_locations, values = self.read_locations, self.choice_values

        def walk(
            depth: int, used: int, counts: Tuple[int, ...], templates: tuple,
            reads: Tuple[int, ...], resume: bool,
        ):
            low = position[depth] if resume else 0
            for index in range(low, len(rows)):
                after = rows[index][0][used]
                if after is None:
                    continue
                row, now = _thread_template(shapes[index], counts)
                now_reads = reads + read_locations[index]
                if depth == last:
                    yield templates + (row,), [values[now[location]] for location in now_reads]
                else:
                    yield from walk(
                        depth + 1, after, now, templates + (row,), now_reads,
                        resume and index == low,
                    )

        return walk(0, 0, (0,) * self.config.max_locations, (), (), True)


def _shape_row(shape: _ThreadShape, max_locations: int) -> _ShapeRow:
    accesses, _fences = shape
    reads = [0] * max_locations
    writes = [0] * max_locations
    for kind, location in accesses:
        (reads if kind == "R" else writes)[location] += 1
    after = tuple(_locations_after(accesses, used) for used in range(max_locations + 1))
    return after, tuple(reads), tuple(writes)


def _locations_after(accesses: Sequence[_Access], used: int) -> Optional[int]:
    """Locations in use after ``accesses``, given ``used`` before them; None
    when an access would skip a location index."""
    for _kind, location in accesses:
        if location > used:
            return None
        if location == used:
            used += 1
    return used


def _add(left: Tuple[int, ...], right: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(a + b for a, b in zip(left, right))


@lru_cache(maxsize=8)
def _plan(config: NaiveEnumerationConfig) -> _Plan:
    return _Plan(config)


def count_naive_tests(config: NaiveEnumerationConfig = NaiveEnumerationConfig()) -> int:
    """Count the naive enumeration space without building the tests."""
    zero = (0,) * config.max_locations
    return _plan(config).completions(config.num_threads, 0, zero, zero)


def enumerate_naive_tests(
    config: NaiveEnumerationConfig = NaiveEnumerationConfig(),
    limit: Optional[int] = None,
    raw: bool = False,
) -> Iterator[LitmusTest]:
    """Yield the naive enumeration as litmus tests (optionally capped).

    With ``raw=True`` every location-canonical test is yielded — the space
    :func:`count_naive_tests` counts.  By default the stream is further
    collapsed by the symmetry reduction of :mod:`repro.pipeline.canonical`
    (thread permutation, location renaming and value renaming), yielding
    the first-enumerated representative of each kernel-distinct class;
    ``limit`` then caps the number of *unique* tests.
    """
    if raw:
        yield from _enumerate_raw(config, limit)
    else:
        for _key, test in enumerate_canonical_naive_tests(config, limit):
            yield test


def _enumerate_raw(
    config: NaiveEnumerationConfig, limit: Optional[int]
) -> Iterator[LitmusTest]:
    """The historical stream: location-canonical, but symmetry-redundant."""
    for name, items in islice(enumerate_raw_naive_items(config), limit):
        yield test_from_items(items, name)


def enumerate_canonical_naive_tests(
    config: NaiveEnumerationConfig = NaiveEnumerationConfig(),
    limit: Optional[int] = None,
    index: Optional[object] = None,
) -> Iterator[Tuple[object, LitmusTest]]:
    """Yield ``(canonical_key, test)`` for each kernel-distinct naive test.

    This is the symmetry-reduced stream the exhaustive-verification
    pipeline consumes.  Canonical keys are computed directly on the
    enumeration's internal shape/outcome representation, so duplicate
    symmetry classes are rejected *before* any
    :class:`~repro.core.litmus.LitmusTest` is constructed — on the paper's
    Theorem 1 bound that skips materialising the vast majority of the
    roughly one million raw tests.

    Pass a :class:`~repro.pipeline.canonical.CanonicalIndex` as ``index``
    to observe the raw/unique counts or to dedup across several streams.
    """
    for key, name, items in enumerate_canonical_naive_items(config, limit, index):
        yield key, test_from_items(items, name)


def enumerate_raw_naive_items(
    config: NaiveEnumerationConfig = NaiveEnumerationConfig(),
    start: int = 0,
) -> Iterator[Tuple[str, Tuple[Tuple[Tuple[str, object, object], ...], ...]]]:
    """Yield ``(name, abstract_items)`` for every raw location-canonical test.

    The symmetry-redundant stream underneath
    :func:`enumerate_canonical_naive_items`: every test
    :func:`count_naive_tests` counts appears exactly once, numbered
    ``N1, N2, ...`` in enumeration order (the same numbering the canonical
    stream's surviving representatives carry).  The adaptive verification
    pipeline consumes this stream directly so its profile-based prefilter
    can *replace* the canonicalizer as the primary dedup.

    ``start`` skips the first ``start`` tests: whole shape combinations
    are skipped by their outcome counts, so seeking costs about as much as
    enumerating one combination, and the stream equals the full stream
    sliced at ``start``.
    """
    test_index = start
    for templates, choices, skip in raw_naive_blocks(config, start):
        outcomes = product(*choices)
        if skip:
            outcomes = islice(outcomes, skip, None)
        for outcome in outcomes:
            test_index += 1
            yield f"N{test_index}", _fill_items(templates, outcome)


#: One shape combination of the raw stream: its item templates (see
#: :func:`_thread_template`), the value choices of its reads, and the
#: outcome the stream starts at.
RawBlock = Tuple[Tuple[Tuple[Tuple, ...], ...], List[Tuple[int, ...]], int]


def raw_naive_blocks(
    config: NaiveEnumerationConfig = NaiveEnumerationConfig(), start: int = 0
) -> Iterator[RawBlock]:
    """The raw stream from test ``start`` on, one shape combination at a time.

    The tests of a block are its outcomes ``product(*choices)`` from
    ``skip`` on, each filled into the templates (:func:`block_items`); the
    first block's ``skip`` places ``start`` mid-combination, later blocks
    start at 0.  :func:`enumerate_raw_naive_items` is this stream expanded.
    """
    if start < 0:
        raise ValueError("start must be >= 0")
    plan = _plan(config)
    found = plan.seek(start)
    if found is None:
        return
    first, skip = found
    for templates, choices in plan.blocks(first):
        yield templates, choices, skip
        skip = 0


def block_items(
    templates: Tuple[Tuple[Tuple, ...], ...], choices: Sequence[Sequence[int]], index: int
) -> Tuple[Tuple[Tuple[str, object, object], ...], ...]:
    """The items of outcome ``index`` of a block, in ``product`` order."""
    outcome = [0] * len(choices)
    for position in range(len(choices) - 1, -1, -1):
        index, digit = divmod(index, len(choices[position]))
        outcome[position] = choices[position][digit]
    return _fill_items(templates, outcome)


def _fill_items(
    templates: Tuple[Tuple[Tuple, ...], ...], outcome: Sequence[int]
) -> Tuple[Tuple[Tuple[str, object, object], ...], ...]:
    """Fill the read values of an outcome into a block's item templates."""
    position = 0
    threads = []
    for template in templates:
        row = []
        for item in template:
            if len(item) == 2:
                row.append(("R", item[1], outcome[position]))
                position += 1
            else:
                row.append(item)
        threads.append(tuple(row))
    return tuple(threads)


def enumerate_canonical_naive_items(
    config: NaiveEnumerationConfig = NaiveEnumerationConfig(),
    limit: Optional[int] = None,
    index: Optional[object] = None,
) -> Iterator[Tuple[object, str, Tuple[Tuple[Tuple[str, object, object], ...], ...]]]:
    """Yield ``(canonical_key, name, abstract_items)`` per kernel-distinct test.

    The compact core of :func:`enumerate_canonical_naive_tests`: the
    abstract item tuples fully determine the representative
    (:func:`test_from_items` rebuilds it bit-for-bit), so a parallel
    pipeline can stream these small picklable tuples to worker processes
    and materialise the :class:`~repro.core.litmus.LitmusTest` objects
    there, instead of building every test in the enumerating process and
    pickling whole object graphs through the pool.
    """
    from repro.pipeline.canonical import CanonicalIndex, canonical_form

    if index is None:
        index = CanonicalIndex()
    produced = 0
    for name, items in enumerate_raw_naive_items(config):
        if limit is not None and produced >= limit:
            return
        key = canonical_form(items)
        if not index.add(key):
            continue
        produced += 1
        yield key, name, items


def test_from_items(
    items: Tuple[Tuple[Tuple[str, object, object], ...], ...], name: str
) -> LitmusTest:
    """Materialise one enumerated test from its abstract items.

    The abstract items already carry the thread-major write numbering and
    the outcome values in read order, so the rebuild is a straight
    transliteration (shared with the canonicalizer's
    :func:`~repro.pipeline.canonical.build_canonical_test`).
    """
    from repro.pipeline.canonical import build_canonical_test

    return build_canonical_test(items, name, description="naive enumeration")


class ItemsTest:
    """An enumerated test as its name and abstract items.

    What the pipeline hands :meth:`~repro.engine.engine.CheckEngine.
    check_column` on the native kernel: the engine builds the C search
    problem from ``items`` directly, and :meth:`litmus` materialises the
    :class:`~repro.core.litmus.LitmusTest` only for a consumer that needs
    the object (a fallback atom, a witness, the SAT backend).
    """

    __slots__ = ("name", "items", "_test")

    def __init__(
        self, name: str, items: Tuple[Tuple[Tuple[str, object, object], ...], ...]
    ) -> None:
        self.name = name
        self.items = items
        self._test: Optional[LitmusTest] = None

    def litmus(self) -> LitmusTest:
        """The materialised test (:func:`test_from_items`), built once."""
        if self._test is None:
            self._test = test_from_items(self.items, self.name)
        return self._test


#: The item of a fence (outcome-independent, shared by every row).
_FENCE_ITEM = ("F", "full", 0)


def _thread_template(
    shape: _ThreadShape, counts: Tuple[int, ...]
) -> Tuple[Tuple[Tuple, ...], Tuple[int, ...]]:
    """One thread's outcome-independent item row, and the per-location
    write counts after it, given the counts of the threads before it.

    Writes are numbered ``1..k`` per location in thread-major order; a
    2-tuple ``("R", location)`` marks a read whose value the caller fills
    from the outcome, in thread-major read order.
    """
    accesses, fences = shape
    now = list(counts)
    row: List[Tuple] = []
    for access_index, (kind, location) in enumerate(accesses):
        if access_index > 0 and fences[access_index - 1]:
            row.append(_FENCE_ITEM)
        if kind == "R":
            row.append(("R", location))
        else:
            now[location] += 1
            row.append(("W", location, now[location]))
    return tuple(row), tuple(now)
