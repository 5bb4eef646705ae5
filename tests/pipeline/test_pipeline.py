"""Integration tests for the sharded, resumable verification pipeline."""

import json
import os

import pytest

from repro.api.requests import ExhaustiveRequest, request_from_json, request_to_json
from repro.api.serialize import from_json, to_json
from repro.api.session import Session
from repro.comparison.exploration import explore_models
from repro.core.parametric import model_space
from repro.generation.named_tests import L_TESTS
from repro.pipeline.report import EquivalenceReport, PartitionAccumulator
from repro.pipeline.run import (
    PipelineConfig,
    PipelineError,
    _template_suite,
    run_pipeline,
)

TINY = dict(bound="tiny", space="no_deps", shard_size=64)


@pytest.fixture(scope="module")
def tiny_report():
    return run_pipeline(PipelineConfig(**TINY))


# ----------------------------------------------------------------------
# the partition accumulator against the exploration reference
# ----------------------------------------------------------------------
def test_accumulator_reproduces_exploration_partition():
    models = model_space(include_data_dependencies=False)
    suite = list(L_TESTS)
    exploration = explore_models(models, suite)
    accumulator = PartitionAccumulator([model.name for model in models])
    for index, _test in enumerate(suite):
        accumulator.fold_bools(
            [exploration.vectors[model.name][index] for model in models]
        )
    assert accumulator.equivalence_classes() == exploration.equivalence_classes
    assert accumulator.hasse_edges() == sorted(
        (edge.weaker, edge.stronger) for edge in exploration.hasse_edges
    )


def test_accumulator_merge_equals_single_fold():
    names = ["A", "B", "C"]
    rows = [0b011, 0b101, 0b110, 0b001]
    whole = PartitionAccumulator(names)
    first, second = PartitionAccumulator(names), PartitionAccumulator(names)
    for row in rows:
        whole.fold_row(row)
    for row in rows[:2]:
        first.fold_row(row)
    for row in rows[2:]:
        second.fold_row(row)
    first.merge(second)
    assert first.distinguished == whole.distinguished
    assert first.tests_folded == whole.tests_folded
    with pytest.raises(ValueError):
        first.merge(PartitionAccumulator(["A", "B"]))


# ----------------------------------------------------------------------
# the pipeline itself
# ----------------------------------------------------------------------
def test_tiny_pipeline_counts_are_consistent(tiny_report):
    report = tiny_report
    assert report.raw_tests > report.unique_tests > 0
    assert report.checks_performed == report.unique_tests * len(report.model_names)
    assert report.shards_total == report.shards_checked
    assert report.shards_resumed == 0
    assert report.stats.checks_performed == report.checks_performed
    assert report.elapsed_seconds > 0
    assert report.reduction_factor() > 1.5


def test_tiny_pipeline_template_partition_matches_explore(tiny_report):
    models = model_space(include_data_dependencies=False)
    exploration = explore_models(models, _template_suite("no_deps"))
    assert tiny_report.template_classes == exploration.equivalence_classes
    assert sorted(tiny_report.template_hasse_edges) == sorted(
        (edge.weaker, edge.stronger) for edge in exploration.hasse_edges
    )


def test_tiny_bound_is_too_coarse_but_refines_nothing_wrongly(tiny_report):
    """A naive space smaller than the template suite's reach may merge
    template classes but must never split one (the template suite
    distinguishes at least as much as any subset of bounded programs)."""
    report = tiny_report
    assert not report.matches_template
    template_class_of = {
        name: cls for cls in report.template_classes for name in cls
    }
    for naive_class in report.equivalence_classes:
        for name in naive_class:
            assert set(template_class_of[name]) <= set(naive_class)


def test_limit_caps_unique_tests():
    report = run_pipeline(PipelineConfig(bound="tiny", limit=50, shard_size=16))
    assert report.unique_tests == 50
    assert report.shards_total == 4  # 16 + 16 + 16 + 2


def test_parallel_jobs_match_serial():
    serial = run_pipeline(PipelineConfig(**TINY))
    parallel = run_pipeline(PipelineConfig(**dict(TINY, jobs=2)))
    assert parallel.equivalence_classes == serial.equivalence_classes
    assert parallel.hasse_edges == serial.hasse_edges
    assert parallel.unique_tests == serial.unique_tests
    assert parallel.checks_performed == serial.checks_performed


def test_config_validation():
    with pytest.raises(PipelineError):
        PipelineConfig(bound="nonsense")
    with pytest.raises(PipelineError):
        PipelineConfig(space="sideways")
    with pytest.raises(PipelineError):
        PipelineConfig(jobs=0)
    with pytest.raises(PipelineError):
        PipelineConfig(shard_size=0)
    with pytest.raises(PipelineError):
        PipelineConfig(resume=True)  # resume needs a run_dir


# ----------------------------------------------------------------------
# checkpointing and resume
# ----------------------------------------------------------------------
class _Killed(Exception):
    pass


def _kill_after(shard_index):
    def progress(event, payload):
        if event == "shard" and payload["shard"] == shard_index:
            raise _Killed()

    return progress


def test_kill_and_resume_round_trip(tmp_path, tiny_report):
    run_dir = str(tmp_path / "run")
    config = PipelineConfig(**TINY, run_dir=run_dir)
    with pytest.raises(_Killed):
        run_pipeline(config, progress=_kill_after(1))
    # Shards 0 and 1 are checkpointed; the kill lost nothing committed.
    assert sorted(os.listdir(os.path.join(run_dir, "shards"))) == [
        "shard-00000.jsonl",
        "shard-00001.jsonl",
    ]

    resumed = run_pipeline(PipelineConfig(**TINY, run_dir=run_dir, resume=True))
    assert resumed.shards_resumed == 2
    assert resumed.shards_checked == resumed.shards_total - 2
    # Completed shards were answered from disk: only the rest was checked.
    expected_checked = resumed.unique_tests - 2 * 64
    assert resumed.checks_performed == expected_checked * len(resumed.model_names)
    # And the result is identical to an uninterrupted run.
    assert resumed.equivalence_classes == tiny_report.equivalence_classes
    assert resumed.hasse_edges == tiny_report.hasse_edges
    assert resumed.unique_tests == tiny_report.unique_tests


def test_full_resume_rechecks_nothing(tmp_path, tiny_report):
    run_dir = str(tmp_path / "run")
    run_pipeline(PipelineConfig(**TINY, run_dir=run_dir))
    resumed = run_pipeline(PipelineConfig(**TINY, run_dir=run_dir, resume=True))
    assert resumed.shards_checked == 0
    assert resumed.checks_performed == 0
    assert resumed.shards_resumed == resumed.shards_total
    assert resumed.equivalence_classes == tiny_report.equivalence_classes


def test_corrupted_shard_is_rechecked(tmp_path, tiny_report):
    run_dir = str(tmp_path / "run")
    run_pipeline(PipelineConfig(**TINY, run_dir=run_dir))
    shard_path = os.path.join(run_dir, "shards", "shard-00001.jsonl")
    with open(shard_path) as handle:
        lines = handle.readlines()
    with open(shard_path, "w") as handle:
        handle.writelines(lines[:-2])  # drop a row and the done marker
    resumed = run_pipeline(PipelineConfig(**TINY, run_dir=run_dir, resume=True))
    assert resumed.shards_checked == 1
    assert resumed.shards_resumed == resumed.shards_total - 1
    assert resumed.equivalence_classes == tiny_report.equivalence_classes


def test_resume_rejects_a_different_configuration(tmp_path):
    run_dir = str(tmp_path / "run")
    run_pipeline(PipelineConfig(**TINY, run_dir=run_dir))
    with pytest.raises(PipelineError, match="different run"):
        run_pipeline(
            PipelineConfig(bound="small", space="no_deps", shard_size=64,
                           run_dir=run_dir, resume=True)
        )


def test_shard_files_are_json_lines_with_digests(tmp_path):
    run_dir = str(tmp_path / "run")
    report = run_pipeline(PipelineConfig(bound="tiny", shard_size=1000, run_dir=run_dir))
    with open(os.path.join(run_dir, "shards", "shard-00000.jsonl")) as handle:
        lines = [json.loads(line) for line in handle]
    assert lines[-1] == {"done": True, "tests": report.unique_tests}
    for row in lines[:-1]:
        assert set(row) == {"test", "key", "verdicts"}
        assert len(row["verdicts"]) == len(report.model_names)
        assert set(row["verdicts"]) <= {"0", "1"}
        int(row["key"], 16)
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["schema"] == "repro/exhaustive_manifest"
    assert manifest["model_names"] == report.model_names


# ----------------------------------------------------------------------
# the API surface
# ----------------------------------------------------------------------
def test_session_runs_exhaustive_requests(tiny_report):
    session = Session()
    report = session.run(ExhaustiveRequest(bound="tiny", shard_size=64))
    assert isinstance(report, EquivalenceReport)
    assert report.equivalence_classes == tiny_report.equivalence_classes
    # The session's engine did the work (template suite contexts are warm).
    assert session.stats.checks_performed >= report.checks_performed


def test_path_restricted_session_rejects_run_dir(tmp_path):
    session = Session()
    session.tests.allow_paths = False  # what serve --port does
    with pytest.raises(ValueError, match="run_dir"):
        session.run(ExhaustiveRequest(bound="tiny", run_dir=str(tmp_path)))


def test_enumerate_verify_refuses_the_dependency_space(capsys):
    from repro.cli import main

    assert main(["enumerate-verify", "--deps", "--bound", "tiny"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no dependency instructions" in captured.err
    assert "by construction" in captured.err


def test_exhaustive_request_refuses_the_dependency_space():
    import io

    from repro.api.serve import serve_stream

    with pytest.raises(ValueError, match="no dependency instructions"):
        Session().run(ExhaustiveRequest(bound="tiny", space="deps"))
    output = io.StringIO()
    line = json.dumps({"op": "exhaustive", "bound": "tiny", "space": "deps"})
    assert serve_stream(Session(), io.StringIO(line + "\n"), output) == 1
    response = json.loads(output.getvalue())
    assert response["ok"] is False
    assert response["error"]["code"] == "invalid_request"
    assert "by construction" in response["error"]["message"]


def test_exhaustive_request_round_trips_as_json():
    request = ExhaustiveRequest(bound="tiny", jobs=2, limit=10, resume=False)
    document = request_to_json(request)
    assert document["op"] == "exhaustive"
    assert request_from_json(json.loads(json.dumps(document))) == request


def test_equivalence_report_round_trips_as_json(tiny_report):
    document = tiny_report.to_json()
    assert document["schema"] == "repro/equivalence_report"
    rebuilt = EquivalenceReport.from_json(json.loads(json.dumps(document)))
    assert rebuilt == tiny_report
    assert to_json(rebuilt) == document
    assert from_json(document) == tiny_report


def test_describe_mentions_the_verdict(tiny_report):
    text = tiny_report.describe()
    assert "DISAGREE" in text
    assert str(tiny_report.unique_tests) in text
