"""Fault-tolerance tests for the exhaustive-enumeration pipeline: killed
and hung workers, quarantine, torn checkpoints, and crash-resume."""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.pipeline.run import (
    PipelineConfig,
    PipelineError,
    _load_shard,
    _shard_path,
    run_pipeline,
)
from repro.util import faults

#: The smallest real configuration: 276 unique tests in 5 shards.
TINY = dict(bound="tiny", space="no_deps", shard_size=64)

#: Report fields that legitimately differ between a clean run and a
#: faulted/resumed run of the same configuration.
VOLATILE_FIELDS = {
    "elapsed_seconds",
    "stats",
    "shards_checked",
    "shards_resumed",
    "checks_performed",
}


@pytest.fixture(autouse=True)
def _isolate_faults():
    saved = faults.snapshot()
    faults.clear()
    yield
    faults.restore(saved)


@pytest.fixture(scope="module")
def clean_report():
    saved = faults.snapshot()
    faults.clear()
    try:
        return run_pipeline(PipelineConfig(**TINY))
    finally:
        faults.restore(saved)


def _essence(report):
    document = report.to_json()
    for field in VOLATILE_FIELDS:
        document.pop(field, None)
    return document


# ----------------------------------------------------------------------
# worker fault tolerance
# ----------------------------------------------------------------------
def test_sigkilled_worker_is_retried_on_a_fresh_worker(clean_report):
    """A worker SIGKILLed mid-shard costs one retry, not the run; the
    result is identical to the serial run, including the deterministic
    check counters (failed attempts contribute no stats)."""
    faults.install("pipeline.shard[shard=1,attempt=0]=kill")
    report = run_pipeline(PipelineConfig(jobs=2, **TINY))
    assert report.complete is True
    assert report.quarantined_shards == []
    assert report.equivalence_classes == clean_report.equivalence_classes
    assert report.hasse_edges == clean_report.hasse_edges
    assert report.unique_tests == clean_report.unique_tests
    assert report.checks_performed == clean_report.checks_performed


def test_worker_exception_is_retried(clean_report):
    faults.install("pipeline.shard[shard=2,attempt=0]=raise")
    report = run_pipeline(PipelineConfig(jobs=2, **TINY))
    assert report.complete is True
    assert report.equivalence_classes == clean_report.equivalence_classes
    assert report.checks_performed == clean_report.checks_performed


def test_hung_worker_is_killed_and_shard_retried(clean_report):
    """A worker stuck past shard_timeout is killed; the shard reruns on a
    fresh worker and the run finishes with identical results."""
    faults.install("pipeline.shard[shard=1,attempt=0]=delay:120")
    report = run_pipeline(PipelineConfig(jobs=2, shard_timeout=2.0, **TINY))
    assert report.complete is True
    assert report.equivalence_classes == clean_report.equivalence_classes
    assert report.checks_performed == clean_report.checks_performed


def test_repeatedly_failing_shard_is_quarantined(clean_report):
    """A shard that fails every attempt is quarantined: the run completes,
    reports itself incomplete, and names the shard."""
    faults.install("pipeline.shard[shard=0]=raise")  # unlimited count
    report = run_pipeline(PipelineConfig(jobs=2, shard_retries=1, **TINY))
    assert report.complete is False
    assert report.quarantined_shards == [0]
    assert report.shards_quarantined == 1
    assert report.shards_total == clean_report.shards_total
    assert report.shards_checked == clean_report.shards_total - 1
    assert report.unique_tests < clean_report.unique_tests
    assert "INCOMPLETE" in report.describe()
    assert str([0]) in report.describe()


def test_quarantine_is_recorded_in_the_manifest(tmp_path):
    run_dir = str(tmp_path / "run")
    faults.install("pipeline.shard[shard=0]=raise")
    report = run_pipeline(
        PipelineConfig(jobs=2, shard_retries=0, run_dir=run_dir, **TINY)
    )
    assert report.complete is False
    with open(os.path.join(run_dir, "manifest.json")) as handle:
        manifest = json.load(handle)
    assert manifest["quarantined"] == [0]
    # The quarantined shard has no checkpoint, so a resume re-checks
    # exactly it — and with the fault cleared, the run completes.
    faults.clear()
    resumed = run_pipeline(
        PipelineConfig(jobs=2, run_dir=run_dir, resume=True, **TINY)
    )
    assert resumed.complete is True
    assert resumed.shards_resumed == report.shards_checked


def test_incomplete_report_roundtrips_through_json(clean_report):
    faults.install("pipeline.shard[shard=0]=raise")
    report = run_pipeline(PipelineConfig(jobs=2, shard_retries=0, **TINY))
    from repro.pipeline.report import EquivalenceReport

    document = json.loads(json.dumps(report.to_json()))
    rebuilt = EquivalenceReport.from_json(document)
    assert rebuilt.complete is False
    assert rebuilt.quarantined_shards == [0]
    # Pre-fault-tolerance documents (no new fields) read as complete runs.
    for field in ("complete", "quarantined_shards", "shards_quarantined"):
        document.pop(field)
    legacy = EquivalenceReport.from_json(document)
    assert legacy.complete is True and legacy.quarantined_shards == []


def test_assert_match_flag_fails_incomplete_runs(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    faults.install("pipeline.shard[shard=0]=raise")
    code = main(
        ["enumerate-verify", "--bound", "tiny", "--shard-size", "64",
         "--jobs", "2", "--shard-retries", "0", "--assert-match"]
    )
    assert code == 1
    assert "incomplete" in capsys.readouterr().err


#: An adaptive configuration whose raw stream is ten 192-test ranges.
SMALL_ADAPTIVE = dict(bound="small", adaptive=True, shard_size=24)


def _adaptive_essence(report):
    return (
        report.equivalence_classes, report.hasse_edges, report.raw_tests,
        report.profile_skips, report.unique_tests + report.frontier_skips,
    )


@pytest.fixture(scope="module")
def clean_adaptive():
    saved = faults.snapshot()
    faults.clear()
    try:
        return _adaptive_essence(run_pipeline(PipelineConfig(**SMALL_ADAPTIVE)))
    finally:
        faults.restore(saved)


def test_killed_range_worker_is_retried_on_a_fresh_worker(clean_adaptive):
    faults.install("pipeline.range[range=1,attempt=0]=kill")
    report = run_pipeline(PipelineConfig(jobs=2, **SMALL_ADAPTIVE))
    assert report.complete is True
    assert report.quarantined_shards == []
    assert _adaptive_essence(report) == clean_adaptive


def test_range_retried_on_a_worker_that_ran_ahead(clean_adaptive):
    """Range 0 hangs past the timeout while the other worker profiles
    ranges 1-3; the retry lands on that worker, which must forget the
    digests it met in later ranges."""
    faults.install("pipeline.range[range=0,attempt=0]=delay:120")
    report = run_pipeline(PipelineConfig(jobs=2, shard_timeout=1.0, **SMALL_ADAPTIVE))
    assert report.complete is True
    assert _adaptive_essence(report) == clean_adaptive


def test_exhausted_range_is_quarantined_and_resumable(tmp_path, clean_adaptive):
    """A range that fails every attempt ends the stream where it starts:
    the run is incomplete, the partition checkpoint stops before the
    range, and a resume with the fault cleared completes the run."""
    run_dir = str(tmp_path / "run")
    faults.install("pipeline.range[range=1]=raise")
    report = run_pipeline(
        PipelineConfig(jobs=2, shard_retries=1, run_dir=run_dir, **SMALL_ADAPTIVE)
    )
    assert report.complete is False
    assert report.raw_tests == 192  # range 0 only
    assert report.quarantined_shards == [report.shards_total - 1]
    from repro.pipeline.adaptive import PartitionCheckpoint

    frozen = PartitionCheckpoint.load(os.path.join(run_dir, "partition.json"))
    assert frozen is not None and frozen.raw_offset == 192
    faults.clear()
    resumed = run_pipeline(
        PipelineConfig(jobs=2, run_dir=run_dir, resume=True, **SMALL_ADAPTIVE)
    )
    assert resumed.complete is True
    assert _adaptive_essence(resumed) == clean_adaptive


# ----------------------------------------------------------------------
# torn checkpoints and manifests
# ----------------------------------------------------------------------
def test_truncated_checkpoint_is_recheckable(tmp_path, clean_report):
    """A torn shard file (simulated by the truncate fault) is rejected by
    the loader and transparently re-checked on resume."""
    run_dir = str(tmp_path / "run")
    faults.install("pipeline.checkpoint[shard=1]=truncate:40")
    first = run_pipeline(PipelineConfig(run_dir=run_dir, **TINY))
    assert os.path.getsize(_shard_path(run_dir, 1)) == 40
    faults.clear()
    resumed = run_pipeline(PipelineConfig(run_dir=run_dir, resume=True, **TINY))
    assert resumed.shards_resumed == first.shards_total - 1
    assert resumed.shards_checked == 1  # exactly the torn shard
    assert _essence(resumed) == _essence(clean_report)


def test_structurally_wrong_shard_lines_never_raise(tmp_path):
    """_load_shard must reject, not crash on, shard files whose lines are
    valid JSON but not objects (or otherwise mangled)."""
    run_dir = str(tmp_path / "run")
    os.makedirs(os.path.join(run_dir, "shards"))
    path = _shard_path(run_dir, 0)
    for content in (
        "[1, 2, 3]\n",  # JSON array line: used to raise AttributeError
        '"just a string"\n',
        '{"done": true, "tests": 1}\n{"done": true}\n',
        "",
        '{"test": "t", "key": "k"}\n',  # no done marker
    ):
        with open(path, "w") as handle:
            handle.write(content)
        assert _load_shard(run_dir, 0, ["digest"], 4) is None


def test_torn_manifest_is_rewritten_not_fatal(tmp_path):
    run_dir = str(tmp_path / "run")
    first = run_pipeline(PipelineConfig(run_dir=run_dir, **TINY))
    manifest_path = os.path.join(run_dir, "manifest.json")
    with open(manifest_path, "r+") as handle:
        handle.truncate(17)  # tear the manifest mid-object
    resumed = run_pipeline(PipelineConfig(run_dir=run_dir, resume=True, **TINY))
    assert resumed.shards_resumed == first.shards_total
    with open(manifest_path) as handle:
        assert json.load(handle)["bound"] == "tiny"  # rewritten whole


def test_mismatched_manifest_still_rejects_resume(tmp_path):
    run_pipeline(PipelineConfig(run_dir=str(tmp_path), **TINY))
    with pytest.raises(PipelineError, match="different run"):
        run_pipeline(
            PipelineConfig(
                run_dir=str(tmp_path), resume=True, bound="tiny",
                space="no_deps", shard_size=32,
            )
        )


# ----------------------------------------------------------------------
# the crash-resume acceptance scenario
# ----------------------------------------------------------------------
def test_crash_resume_is_bit_identical(tmp_path, clean_report):
    """The satellite acceptance test: SIGKILL a run mid-shard via the
    fault harness AND tear the last checkpoint, then assert --resume
    produces a bit-identical EquivalenceReport to an uninterrupted run."""
    run_dir = str(tmp_path / "run")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    env["REPRO_FAULTS"] = (
        "pipeline.checkpoint[shard=1]=truncate:40,"
        "pipeline.shard[shard=2,attempt=0]=kill"
    )
    crashed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "enumerate-verify",
         "--bound", "tiny", "--shard-size", "64", "--run-dir", run_dir],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert crashed.returncode == -signal.SIGKILL  # died mid-run, as injected
    # Shard 0 checkpointed cleanly; shard 1 is torn; shard 2+ never ran.
    assert os.path.exists(_shard_path(run_dir, 0))
    assert os.path.getsize(_shard_path(run_dir, 1)) == 40
    assert not os.path.exists(_shard_path(run_dir, 2))

    resumed = run_pipeline(PipelineConfig(run_dir=run_dir, resume=True, **TINY))
    assert resumed.shards_resumed == 1  # only the intact checkpoint
    assert resumed.shards_checked == clean_report.shards_total - 1
    assert _essence(resumed) == _essence(clean_report)


def _with_profile_skip_records(run_dir, shards):
    """Rewrite ``shards`` shard files the way writers that recorded every
    profile skip laid them out: a ``{"skip", "profile", "rep"}`` line for
    each raw test whose profile an earlier test already had, in raw order
    among the row and frontier records.  Returns the lines added."""
    from repro.core.parametric import model_space
    from repro.generation.enumeration import enumerate_raw_naive_items
    from repro.pipeline.adaptive import AdaptiveSpace, profile_digest
    from repro.pipeline.run import BOUNDS

    space = AdaptiveSpace.build(model_space(include_data_dependencies=False))
    raw = enumerate_raw_naive_items(BOUNDS["small"])
    reps = {}
    added = 0
    for shard_index in range(shards):
        path = _shard_path(run_dir, shard_index)
        with open(path) as handle:
            *records, marker = handle.readlines()
        lines = []
        while records or len(reps) + added < json.loads(marker)["raw_offset"]:
            name, items = next(raw)
            digest = profile_digest(space.profile(items))
            if digest in reps:
                record = {"skip": name, "profile": digest, "rep": reps[digest]}
                lines.append(json.dumps(record) + "\n")
                added += 1
            else:
                reps[digest] = name
                assert f'"{name}"' in records[0]
                lines.append(records.pop(0))
        with open(path, "w") as handle:
            handle.writelines(lines + [marker])
    return added


def test_adaptive_resume_reads_past_profile_skip_records(tmp_path):
    """Run dirs of writers that recorded every profile skip still resume:
    SIGKILL an adaptive run mid-stream, give its shard files those skip
    records, and the resumed report equals an uninterrupted run's."""
    clean = run_pipeline(PipelineConfig(**SMALL_ADAPTIVE))
    run_dir = str(tmp_path / "run")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    env["REPRO_FAULTS"] = "pipeline.shard[shard=3,attempt=0]=kill"
    crashed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "enumerate-verify", "--bound", "small",
         "--adaptive", "--shard-size", "24", "--run-dir", run_dir],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert crashed.returncode == -signal.SIGKILL
    assert not os.path.exists(_shard_path(run_dir, 3))
    assert _with_profile_skip_records(run_dir, 3) > 0

    resumed = run_pipeline(PipelineConfig(run_dir=run_dir, resume=True, **SMALL_ADAPTIVE))
    assert resumed.shards_resumed == 3
    assert _essence(resumed) == _essence(clean)
