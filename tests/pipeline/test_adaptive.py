"""The partition-guided adaptive verification layer.

Covers the soundness backbone (profile-equal tests have identical verdict
rows; frontier-skipped tests cannot refine the partition; derived verdicts
are bit-identical to searched ones), the partition checkpoint (roundtrip,
tamper rejection, merge), adaptive/brute differential equality, resume
determinism, the audit machinery, and the satellite API surfaces.
"""

import hashlib
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.requests import ExhaustiveRequest, request_from_json, request_to_json
from repro.api.session import Session
from repro.cache.verdict import VerdictCache
from repro.core.parametric import model_space
from repro.engine.engine import CheckEngine
from repro.generation.enumeration import enumerate_raw_naive_items
from repro.generation.enumeration import test_from_items as _test_from_items
from repro.pipeline.adaptive import (
    AdaptiveSpace,
    NativeProfiler,
    PartitionCheckpoint,
    audit_selected,
    profile_digest,
)
from repro.pipeline.report import PartitionAccumulator
from repro.pipeline.run import BOUNDS, PipelineConfig, PipelineError, run_pipeline
from repro.native.backend import native_available

KERNELS = ["bigint"] + (["native"] if native_available() else [])
NEEDS_NATIVE = pytest.mark.skipif(not native_available(), reason="C extension not built")

MODELS = model_space(include_data_dependencies=False)
MODEL_NAMES = [model.name for model in MODELS]
SPACE = AdaptiveSpace.build(MODELS)

#: every raw test of the small bound, materialised once for sampling
RAW_SMALL = list(enumerate_raw_naive_items(BOUNDS["small"]))

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def _column(engine, name, items):
    return engine.check_column(_test_from_items(items, name), MODELS)


def _mask(column):
    mask = 0
    for index, allowed in enumerate(column):
        if allowed:
            mask |= 1 << index
    return mask


# ----------------------------------------------------------------------
# the profile prefilter's certificate: profile-equal => row-equal
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=KERNELS)
def rep_rows(request):
    """Per kernel: an engine plus a profile-digest -> verdict-row memo."""
    engine = CheckEngine(kernel=request.param)
    return engine, {}


@_SETTINGS
@given(index=st.integers(min_value=0, max_value=len(RAW_SMALL) - 1))
def test_profile_equal_tests_have_identical_verdict_rows(rep_rows, index):
    engine, memo = rep_rows
    name, items = RAW_SMALL[index]
    digest = profile_digest(SPACE.profile(items))
    column = _column(engine, name, items)
    previous = memo.setdefault(digest, column)
    assert column == previous


@_SETTINGS
@given(index=st.integers(min_value=0, max_value=len(RAW_SMALL) - 1))
def test_verdicts_are_constant_on_each_profile_group(rep_rows, index):
    engine, _memo = rep_rows
    name, items = RAW_SMALL[index]
    groups = SPACE.groups(SPACE.profile(items))
    mask = _mask(_column(engine, name, items))
    for group in groups:
        assert mask & group in (0, group), (
            f"verdict not constant on group {group:b} for {name}"
        )


def test_frontier_skipped_rows_cannot_refine_the_partition(tmp_path):
    """Every frontier certificate in a real run's shard files holds against
    the *final* matrix (monotonicity: skip-time matrix <= final matrix)."""
    run_dir = str(tmp_path / "run")
    report = run_pipeline(
        PipelineConfig(
            bound="small", kernel="bigint", adaptive=True,
            shard_size=64, run_dir=run_dir,
        )
    )
    checkpoint = PartitionCheckpoint.load(os.path.join(run_dir, "partition.json"))
    assert checkpoint is not None and checkpoint.shards_folded == report.shards_total
    final = PartitionAccumulator(MODEL_NAMES)
    final.distinguished = list(checkpoint.distinguished)
    engine = CheckEngine(kernel="bigint")
    by_name = dict(RAW_SMALL)
    frontier = []
    for shard_index in range(report.shards_total):
        with open(os.path.join(run_dir, "shards", f"shard-{shard_index:05d}.jsonl")) as fh:
            for line in fh:
                record = json.loads(line)
                if "frontier" in record:
                    frontier.append(record)
    assert len(frontier) == report.frontier_skips > 0
    for record in frontier:
        name = record["frontier"]
        mask = _mask(_column(engine, name, by_name[name]))
        # the recorded group decomposition really is verdict-constant...
        for bits in record["groups"]:
            group = sum(1 << i for i, b in enumerate(bits) if b == "1")
            assert mask & group in (0, group)
        # ...and the actual row cannot change the final matrix
        assert not final.row_would_change(mask)


# ----------------------------------------------------------------------
# adaptive == brute (the differential oracle)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bound,space", [("tiny", "no_deps"), ("small", "no_deps"), ("tiny", "deps")])
def test_adaptive_partition_equals_brute_partition(bound, space):
    brute = run_pipeline(PipelineConfig(bound=bound, space=space, kernel="bigint"))
    adaptive = run_pipeline(
        PipelineConfig(bound=bound, space=space, kernel="bigint", adaptive=True)
    )
    assert adaptive.equivalence_classes == brute.equivalence_classes
    assert adaptive.hasse_edges == brute.hasse_edges
    assert adaptive.matches_template == brute.matches_template
    assert adaptive.adaptive and not brute.adaptive
    assert adaptive.unique_tests < brute.unique_tests
    assert adaptive.profile_skips > 0
    assert (
        adaptive.unique_tests + adaptive.profile_skips + adaptive.frontier_skips
        == adaptive.raw_tests
    )


def test_adaptive_derives_verdicts_and_brute_does_not():
    brute = run_pipeline(PipelineConfig(bound="tiny", kernel="bigint"))
    adaptive = run_pipeline(PipelineConfig(bound="tiny", kernel="bigint", adaptive=True))
    assert brute.stats.derived_verdicts == 0
    assert adaptive.stats.derived_verdicts > 0


def test_derive_flag_is_bit_identical_per_column():
    plain = CheckEngine(kernel="bigint")
    derived = CheckEngine(kernel="bigint")
    for name, items in RAW_SMALL[:200]:
        test = _test_from_items(items, name)
        assert plain.check_column(test, MODELS) == derived.check_column(
            test, MODELS, derive=True
        )
    assert derived.stats.derived_verdicts > 0
    assert plain.stats.derived_verdicts == 0
    searched = lambda s: s.native_searches + s.fallback_searches  # noqa: E731
    assert searched(derived.stats) < searched(plain.stats)


# ----------------------------------------------------------------------
# the partition checkpoint document
# ----------------------------------------------------------------------
def _checkpoint(**overrides):
    fields = dict(
        bound="small", space="no_deps", suite="no_deps", backend="explicit",
        shard_size=64, limit=None, model_names=["A", "B", "C"],
        space_digest="deadbeef",
    )
    fields.update(overrides)
    return PartitionCheckpoint(**fields)


def test_partition_checkpoint_roundtrips(tmp_path):
    checkpoint = _checkpoint()
    checkpoint.distinguished = [0b010, 0b001, 0b100]
    checkpoint.shards_folded, checkpoint.raw_offset = 3, 120
    path = str(tmp_path / "partition.json")
    checkpoint.write(path)
    loaded = PartitionCheckpoint.load(path)
    assert loaded is not None
    assert loaded.identity() == checkpoint.identity()
    assert loaded.distinguished == checkpoint.distinguished
    assert loaded.shards_folded == 3 and loaded.raw_offset == 120


def test_partition_checkpoint_rejects_tampering_and_tears(tmp_path):
    checkpoint = _checkpoint()
    path = str(tmp_path / "partition.json")
    checkpoint.write(path)
    text = open(path).read()
    open(path, "w").write(text.replace('"tests_folded": 0', '"tests_folded": 7'))
    assert PartitionCheckpoint.load(path) is None  # digest seal broken
    open(path, "w").write(text[: len(text) // 2])
    assert PartitionCheckpoint.load(path) is None  # torn write
    assert PartitionCheckpoint.load(str(tmp_path / "absent.json")) is None


def test_partition_checkpoint_merge_is_a_matrix_union():
    first = _checkpoint()
    first.distinguished = [0b010, 0b001, 0b100]
    first.tests_folded, first.profile_skips = 10, 4
    second = _checkpoint()
    second.distinguished = [0b100, 0b000, 0b001]
    second.tests_folded, second.profile_skips = 7, 2
    merged = first.merge(second)
    assert merged.distinguished == [0b110, 0b001, 0b101]
    assert merged.tests_folded == 17 and merged.profile_skips == 6
    # stream positions are not mergeable: the merged document restarts them
    assert merged.shards_folded == 0 and merged.raw_offset == 0


def test_partition_checkpoint_merge_refuses_identity_conflicts():
    with pytest.raises(ValueError, match="merge conflict"):
        _checkpoint().merge(_checkpoint(bound="tiny"))
    with pytest.raises(ValueError, match="merge conflict"):
        _checkpoint().merge(_checkpoint(space_digest="0123beef"))


def test_merged_checkpoint_warm_starts_a_cold_run(tmp_path):
    """A merged partition restarts the stream but keeps the matrix — the
    warm matrix turns already-distinguished work into frontier skips."""
    cold = run_pipeline(
        PipelineConfig(bound="small", kernel="bigint", adaptive=True)
    )
    run_dir = str(tmp_path / "run")
    full = run_pipeline(
        PipelineConfig(
            bound="small", kernel="bigint", adaptive=True, run_dir=run_dir
        )
    )
    path = os.path.join(run_dir, "partition.json")
    finished = PartitionCheckpoint.load(path)
    assert finished is not None
    merged = finished.merge(finished)
    merged.write(path)
    # resume from the merged (stream-restarted) checkpoint: everything is
    # already distinguished, so no test row needs checking at all
    resumed = run_pipeline(
        PipelineConfig(
            bound="small", kernel="bigint", adaptive=True,
            run_dir=run_dir, resume=True,
        )
    )
    assert resumed.equivalence_classes == full.equivalence_classes == cold.equivalence_classes
    assert resumed.frontier_skips >= full.frontier_skips


# ----------------------------------------------------------------------
# resume determinism
# ----------------------------------------------------------------------
class _Killed(Exception):
    pass


def _run_adaptive(
    run_dir, bound="small", jobs=1, kill_after=None, kernel="bigint", **overrides
):
    """An adaptive run (bigint unless told otherwise, shard size 24) that
    raises ``_Killed`` after ``kill_after`` folded shards."""
    seen = [0]

    def progress(event, payload):
        if event == "shard" and kill_after is not None:
            seen[0] += 1
            if seen[0] > kill_after:
                raise _Killed()

    return run_pipeline(
        PipelineConfig(
            bound=bound, kernel=kernel, adaptive=True, shard_size=24,
            jobs=jobs, run_dir=run_dir, **overrides,
        ),
        progress=progress,
    )


def test_adaptive_resume_is_bit_identical(tmp_path):
    full_dir, killed_dir = str(tmp_path / "full"), str(tmp_path / "killed")
    full = _run_adaptive(full_dir)
    with pytest.raises(_Killed):
        _run_adaptive(killed_dir, kill_after=2)
    mid = PartitionCheckpoint.load(os.path.join(killed_dir, "partition.json"))
    assert mid is not None and 0 < mid.shards_folded
    resumed = _run_adaptive(killed_dir, resume=True)
    assert resumed.equivalence_classes == full.equivalence_classes
    assert resumed.hasse_edges == full.hasse_edges
    assert resumed.unique_tests == full.unique_tests
    assert resumed.profile_skips == full.profile_skips
    assert resumed.frontier_skips == full.frontier_skips
    assert resumed.raw_tests == full.raw_tests
    assert resumed.shards_resumed == mid.shards_folded
    final_full = json.load(open(os.path.join(full_dir, "partition.json")))
    final_resumed = json.load(open(os.path.join(killed_dir, "partition.json")))
    assert final_full["digest"] == final_resumed["digest"]


def test_adaptive_resume_survives_a_torn_partition_checkpoint(tmp_path):
    """A torn checkpoint degrades to a cold start, never a crash."""
    run_dir = str(tmp_path / "run")
    full = _run_adaptive(run_dir)
    path = os.path.join(run_dir, "partition.json")
    text = open(path).read()
    open(path, "w").write(text[: len(text) // 3])
    again = _run_adaptive(run_dir, resume=True)
    assert again.equivalence_classes == full.equivalence_classes
    assert again.shards_resumed == 0  # cold start: nothing restorable


def test_resume_refuses_a_different_kernel(tmp_path):
    run_dir = str(tmp_path / "run")
    _run_adaptive(run_dir)
    manifest_path = os.path.join(run_dir, "manifest.json")
    manifest = json.load(open(manifest_path))
    assert manifest["kernel"] == "bigint"
    assert manifest["adaptive"] is True
    assert manifest["schema_version"] == 2
    manifest["kernel"] = "somekernel"
    json.dump(manifest, open(manifest_path, "w"))
    with pytest.raises(PipelineError, match="kernel"):
        _run_adaptive(run_dir, resume=True)


def test_resume_refuses_crossing_adaptive_and_brute(tmp_path):
    run_dir = str(tmp_path / "run")
    run_pipeline(
        PipelineConfig(bound="tiny", kernel="bigint", shard_size=64, run_dir=run_dir)
    )
    with pytest.raises(PipelineError, match="adaptive"):
        run_pipeline(
            PipelineConfig(
                bound="tiny", kernel="bigint", shard_size=64,
                run_dir=run_dir, resume=True, adaptive=True,
            )
        )


# ----------------------------------------------------------------------
# audits
# ----------------------------------------------------------------------
def test_audit_draw_equals_the_hexdigest_formula():
    """The draw reads the first four digest bytes, which is the value the
    first eight hex digits spell."""
    digest = profile_digest(SPACE.profile(RAW_SMALL[0][1]))
    for rate in (0.01, 0.25, 0.37):
        for i in range(10_000):
            name = f"N{i}"
            text = hashlib.sha256(f"{digest}:{name}".encode("utf-8")).hexdigest()
            expected = int(text[:8], 16) / 0x100000000 < rate
            assert audit_selected(digest, name, rate) == expected


def test_audit_selection_is_deterministic_and_proportional():
    picks = [audit_selected("d", f"N{i}", 0.25) for i in range(4000)]
    assert 0.2 < sum(picks) / len(picks) < 0.3
    assert picks == [audit_selected("d", f"N{i}", 0.25) for i in range(4000)]
    assert not any(audit_selected("d", f"N{i}", 0.0) for i in range(50))
    assert all(audit_selected("d", f"N{i}", 1.0) for i in range(50))


def test_full_audit_passes_and_is_counted(tmp_path):
    report = _run_adaptive(str(tmp_path / "run"), audit_rate=1.0)
    assert report.audits_performed == report.profile_skips + report.frontier_skips > 0


def test_audit_fails_on_an_unsound_skip(monkeypatch):
    """Force every test onto one profile: the dedup becomes unsound, and a
    full audit must catch it and fail the run."""
    constant = SPACE.profile(RAW_SMALL[0][1])
    monkeypatch.setattr(AdaptiveSpace, "profile", lambda self, items: constant)
    with pytest.raises(PipelineError, match="audit failed"):
        run_pipeline(
            PipelineConfig(
                bound="small", kernel="bigint", adaptive=True, audit_rate=1.0
            )
        )


# ----------------------------------------------------------------------
# shard records & config plumbing
# ----------------------------------------------------------------------
def test_adaptive_shard_files_carry_certificates(tmp_path):
    """One record per fresh profile (a row or a frontier certificate); the
    profile skips are counted in the done markers, never recorded."""
    run_dir = str(tmp_path / "run")
    report = _run_adaptive(run_dir)
    rows = frontiers = 0
    for shard_index in range(report.shards_total):
        path = os.path.join(run_dir, "shards", f"shard-{shard_index:05d}.jsonl")
        lines = [json.loads(line) for line in open(path)]
        marker = lines[-1]
        assert marker["done"] is True
        for record in lines[:-1]:
            if "test" in record:
                rows += 1
                assert set(record) == {"test", "key", "verdicts"}
                assert len(record["verdicts"]) == len(MODEL_NAMES)
            else:
                frontiers += 1
                assert set(record) == {"frontier", "profile", "groups"}
    assert rows == report.unique_tests
    assert frontiers == report.frontier_skips
    assert marker["raw_offset"] == report.raw_tests
    assert marker["profile_skips"] == report.profile_skips > 0
    assert rows + frontiers + report.profile_skips == report.raw_tests


def test_a_tail_of_profile_skips_still_cuts_a_shard(tmp_path):
    """At ``tiny`` with 13-test shards the last fresh test fills shard 3
    and only profile skips follow it; they still get a shard of their own
    (a bare done marker), so the checkpoints cover the whole stream."""
    run_dir = str(tmp_path / "run")
    report = run_pipeline(
        PipelineConfig(
            bound="tiny", kernel="bigint", adaptive=True, shard_size=13, run_dir=run_dir
        )
    )
    assert report.shards_total == 5
    with open(os.path.join(run_dir, "shards", "shard-00004.jsonl")) as handle:
        (marker,) = [json.loads(line) for line in handle]
    assert marker["tests"] == 0 and marker["raw_offset"] == report.raw_tests
    assert marker["profile_skips"] == report.profile_skips
    checkpoint = PartitionCheckpoint.load(os.path.join(run_dir, "partition.json"))
    assert checkpoint.shards_folded == 5 and checkpoint.raw_offset == report.raw_tests


def test_checkpoint_lines_equal_json_dumps():
    """Records are rendered straight to their lines, byte for byte what
    ``json.dumps`` writes for the same record."""
    from repro.pipeline.run import _frontier_line, _row_line

    digest = "0123456789abcdef0123456789abcdef"
    assert _row_line("N7", digest, "0110") == json.dumps(
        {"test": "N7", "key": digest, "verdicts": "0110"}
    ) + "\n"
    for groups in ([0b1111], [0b0001, 0b1110], [0b0101, 0b0010, 0b1000]):
        bits = ["".join("1" if group >> i & 1 else "0" for i in range(4)) for group in groups]
        assert _frontier_line("N9", digest, groups, 4) == json.dumps(
            {"frontier": "N9", "profile": digest, "groups": bits}
        ) + "\n"


def test_adaptive_shard_files_are_json_dumps_lines(tmp_path):
    """A medium run dir is byte-identical to one whose writer called
    ``json.dumps`` per record."""
    run_dir = str(tmp_path / "run")
    report = run_pipeline(
        PipelineConfig(
            bound="medium", kernel="bigint", adaptive=True, shard_size=24, run_dir=run_dir
        )
    )
    lines = 0
    for shard_index in range(report.shards_total):
        path = os.path.join(run_dir, "shards", f"shard-{shard_index:05d}.jsonl")
        with open(path) as handle:
            for line in handle:
                assert line == json.dumps(json.loads(line)) + "\n"
                lines += 1
    assert lines == report.unique_tests + report.frontier_skips + report.shards_total


# ----------------------------------------------------------------------
# the prefilter in the workers
# ----------------------------------------------------------------------
def _fresh_names(run_dir, shards):
    """The names of a run dir's fresh-profile tests (rows and frontier
    certificates), in stream order."""
    names = []
    for shard_index in range(shards):
        with open(os.path.join(run_dir, "shards", f"shard-{shard_index:05d}.jsonl")) as handle:
            for line in handle:
                record = json.loads(line)
                if "test" in record or "frontier" in record:
                    names.append(record.get("test", record.get("frontier")))
    return names


@pytest.mark.parametrize("bound,jobs", [("small", 2), ("medium", 2), ("medium", 4)])
def test_worker_prefilter_matches_the_serial_run(tmp_path, monkeypatch, bound, jobs):
    """Workers profiling raw ranges give the serial run's partition, raw
    count and fresh-profile tests (frontier decisions may use a lagged
    matrix, so only the sum of checked and frontier-skipped tests must
    agree)."""
    monkeypatch.setattr(os, "cpu_count", lambda: jobs)
    serial = _run_adaptive(str(tmp_path / "serial"), bound)
    parallel = _run_adaptive(str(tmp_path / "parallel"), bound, jobs=jobs)
    assert parallel.equivalence_classes == serial.equivalence_classes
    assert parallel.hasse_edges == serial.hasse_edges
    assert parallel.raw_tests == serial.raw_tests
    assert parallel.profile_skips == serial.profile_skips
    for report in (serial, parallel):
        assert report.complete
        assert (
            report.profile_skips + report.frontier_skips + report.unique_tests
            == report.raw_tests
        )
    fresh = _fresh_names(str(tmp_path / "serial"), serial.shards_total)
    assert len(fresh) == serial.unique_tests + serial.frontier_skips
    assert _fresh_names(str(tmp_path / "parallel"), parallel.shards_total) == fresh


def test_worker_prefilter_audits_on_the_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = _run_adaptive(str(tmp_path / "run"), jobs=2, audit_rate=1.0)
    assert report.audits_performed == report.profile_skips + report.frontier_skips > 0


def test_worker_audits_fail_on_an_unsound_skip(monkeypatch):
    """The workers inherit a broken profiler; the parent still judges the
    audit rows and fails the run."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    constant = SPACE.profile(RAW_SMALL[0][1])
    monkeypatch.setattr(AdaptiveSpace, "profile", lambda self, items: constant)
    with pytest.raises(PipelineError, match="audit failed"):
        _run_adaptive(None, jobs=2, audit_rate=1.0)


def test_worker_prefilter_resumes_a_killed_run(tmp_path, monkeypatch):
    """An adaptive parallel run killed mid-stream and resumed equals an
    uninterrupted one."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    full = _run_adaptive(str(tmp_path / "full"), "medium", jobs=2)
    killed_dir = str(tmp_path / "killed")
    with pytest.raises(_Killed):
        _run_adaptive(killed_dir, "medium", jobs=2, kill_after=2)
    mid = PartitionCheckpoint.load(os.path.join(killed_dir, "partition.json"))
    assert mid is not None and 0 < mid.raw_offset < full.raw_tests
    resumed = _run_adaptive(killed_dir, "medium", jobs=2, resume=True)
    assert resumed.shards_resumed == mid.shards_folded
    assert resumed.equivalence_classes == full.equivalence_classes
    assert resumed.hasse_edges == full.hasse_edges
    assert resumed.raw_tests == full.raw_tests
    assert resumed.profile_skips == full.profile_skips
    assert (
        resumed.unique_tests + resumed.frontier_skips
        == full.unique_tests + full.frontier_skips
    )


# ----------------------------------------------------------------------
# the native range profiler, end to end
# ----------------------------------------------------------------------
def _run_files(run_dir):
    """The shard files and the partition checkpoint of a run dir, as bytes
    (the manifest names the kernel, so it differs by design)."""
    names = ["partition.json"] + [
        os.path.join("shards", name) for name in sorted(os.listdir(os.path.join(run_dir, "shards")))
    ]
    files = {}
    for name in names:
        with open(os.path.join(run_dir, name), "rb") as handle:
            files[name] = handle.read()
    return files


@NEEDS_NATIVE
@pytest.mark.parametrize("bound", ["small", "medium"])
def test_native_profiler_run_dirs_equal_the_reference(tmp_path, bound):
    reference_dir, native_dir = str(tmp_path / "bigint"), str(tmp_path / "native")
    reference = _run_adaptive(reference_dir, bound, audit_rate=0.2)
    native = _run_adaptive(native_dir, bound, kernel="native", audit_rate=0.2)
    with open(os.path.join(native_dir, "manifest.json")) as handle:
        assert json.load(handle)["kernel"] == "native"
    assert _run_files(native_dir) == _run_files(reference_dir)
    assert native.audits_performed == reference.audits_performed > 0
    assert native.equivalence_classes == reference.equivalence_classes


@NEEDS_NATIVE
@pytest.mark.parametrize("bound", ["small", "medium"])
def test_native_profiler_in_the_workers_matches_the_serial_run(tmp_path, monkeypatch, bound):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = _run_adaptive(str(tmp_path / "serial"), bound, kernel="native")
    parallel = _run_adaptive(str(tmp_path / "parallel"), bound, jobs=2, kernel="native")
    assert parallel.equivalence_classes == serial.equivalence_classes
    assert parallel.hasse_edges == serial.hasse_edges
    assert parallel.raw_tests == serial.raw_tests
    assert parallel.profile_skips == serial.profile_skips
    assert parallel.complete and serial.complete


class _OneKey:
    """A broken C profiler: every test gets the first test's profile id."""

    def __init__(self, profiler):
        self.profiler = profiler

    def profile_block(self, templates, choices, skip, count):
        ids, fresh = self.profiler.profile_block(templates, choices, skip, count)
        return [0] * len(ids), fresh

    def profile(self, pid):
        return self.profiler.profile(pid)


@NEEDS_NATIVE
@pytest.mark.parametrize("jobs", [1, 2])
def test_audit_fails_on_an_unsound_native_profiler(monkeypatch, jobs):
    monkeypatch.setattr(os, "cpu_count", lambda: jobs)

    def one_key(space):
        if space._native is None:
            space._native = NativeProfiler(space)
            space._native.profiler = _OneKey(space._native.profiler)
        return space._native

    monkeypatch.setattr(AdaptiveSpace, "native_profiler", one_key)
    with pytest.raises(PipelineError, match="audit failed"):
        _run_adaptive(None, jobs=jobs, kernel="native", audit_rate=1.0)


def test_config_validation_for_adaptive_options():
    with pytest.raises(PipelineError, match="audit_rate"):
        PipelineConfig(audit_rate=1.5, adaptive=True)
    with pytest.raises(PipelineError, match="requires adaptive"):
        PipelineConfig(audit_rate=0.5)


def test_xlarge_bound_is_registered():
    config = BOUNDS["xlarge"]
    assert config.max_accesses_per_thread == 3
    assert config.max_locations == 3
    assert config.allow_fences


def test_exhaustive_request_roundtrips_adaptive_fields():
    request = ExhaustiveRequest(bound="tiny", adaptive=True, audit_rate=0.25)
    wire = request_to_json(request)
    assert wire["adaptive"] is True and wire["audit_rate"] == 0.25
    assert request_from_json(wire) == request


def test_session_runs_adaptive_exhaustive_end_to_end(tmp_path):
    session = Session(kernel="bigint")
    report = session.run(
        ExhaustiveRequest(
            bound="tiny", adaptive=True, audit_rate=0.5,
            run_dir=str(tmp_path / "run"),
        )
    )
    assert report.adaptive and report.profile_skips > 0
    assert os.path.exists(str(tmp_path / "run" / "partition.json"))


# ----------------------------------------------------------------------
# the explore memo (serve's digest fast path, extended to explore)
# ----------------------------------------------------------------------
def test_explore_memo_returns_identical_results_and_counts_hits():
    from repro.api.requests import ExploreRequest

    cached = Session(engine=CheckEngine(kernel="bigint", verdict_cache=VerdictCache()))
    uncached = Session(engine=CheckEngine(kernel="bigint"))
    request = ExploreRequest(space="no_deps")
    first = cached.run(request)
    hits_before = cached.engine.verdict_cache.stats.hits
    second = cached.run(request)
    assert second is first  # memoized wholesale
    assert cached.engine.verdict_cache.stats.hits == hits_before + 1
    plain = uncached.run(request)
    assert uncached.run(request) is not plain  # no cache, no memo
    from repro.api.serialize import to_json

    # cache on/off bit-identical, modulo the engine's incidental perf
    # counters (the verdict cache legitimately changes how much work ran)
    memo_doc, plain_doc = to_json(first), to_json(plain)
    memo_doc.pop("stats"), plain_doc.pop("stats")
    assert memo_doc == plain_doc


def test_explore_memo_is_shared_across_session_views():
    from repro.api.requests import ExploreRequest

    base = Session(engine=CheckEngine(kernel="bigint", verdict_cache=VerdictCache()))
    first = base.view().run(ExploreRequest(space="no_deps"))
    assert base.view().run(ExploreRequest(space="no_deps")) is first
