"""End-to-end tests of the public API surface and the command-line interface."""

import io
import json

import pytest

import repro
from repro.cli import build_parser, main
from repro.io.writer import write_litmus_file


def test_package_exports_are_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"
    assert repro.__version__


def test_quickstart_snippet_from_module_docstring():
    from repro import SC, TEST_A, TSO, is_allowed

    assert is_allowed(TEST_A, TSO)
    assert not is_allowed(TEST_A, SC)


def test_compare_models_via_top_level_api():
    from repro import L_TESTS, SC, TSO, Relation, compare_models

    result = compare_models(SC, TSO, L_TESTS)
    assert result.relation is Relation.STRONGER


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    output = capsys.readouterr().out
    assert "TSO" in output and "SC" in output


def test_cli_check_litmus_file(tmp_path, capsys):
    path = tmp_path / "a.litmus"
    write_litmus_file(repro.TEST_A, path)
    assert main(["check", str(path), "--model", "TSO"]) == 0
    assert "ALLOWED" in capsys.readouterr().out
    assert main(["--backend", "sat", "check", str(path), "--model", "SC"]) == 0
    assert "FORBIDDEN" in capsys.readouterr().out


def test_cli_compare(capsys):
    assert main(["compare", "TSO", "x86", "--no-deps"]) == 0
    assert "equivalent" in capsys.readouterr().out
    assert main(["compare", "SC", "M4044", "--no-deps"]) == 0
    assert "stronger" in capsys.readouterr().out


def test_cli_outcomes(tmp_path, capsys):
    path = tmp_path / "a.litmus"
    write_litmus_file(repro.L_TESTS[6], path)  # store buffering (L7)
    assert main(["outcomes", str(path), "--model", "SC"]) == 0
    output = capsys.readouterr().out
    assert "Outcomes allowed under SC" in output
    assert output.count("r1") >= 3


def test_cli_explore_small_space(tmp_path, capsys):
    dot_path = tmp_path / "space.dot"
    assert main(["explore", "--no-deps", "--dot", str(dot_path)]) == 0
    output = capsys.readouterr().out
    assert "Explored 36 models" in output
    assert dot_path.exists()
    assert dot_path.read_text().startswith("digraph")


def test_cli_parser_rejects_unknown_backend():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--backend", "bogus", "catalog"])


def test_cli_rejects_unknown_model_with_clear_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", "TSO", "NotAModel", "--no-deps"])
    assert "NotAModel" in str(excinfo.value)


# ----------------------------------------------------------------------
# --format json on every subcommand
# ----------------------------------------------------------------------
def test_cli_check_json(tmp_path, capsys):
    from repro.api.serialize import from_json

    path = tmp_path / "a.litmus"
    write_litmus_file(repro.TEST_A, path)
    assert main(["check", str(path), "--model", "TSO", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == "repro/check_result"
    result = from_json(document)
    assert result.allowed and result.model_name == "TSO"
    assert result.witness is not None


def test_cli_compare_json(capsys):
    from repro.api.serialize import from_json
    from repro.comparison.compare import Relation

    assert main(["compare", "SC", "M4044", "--no-deps", "--format", "json"]) == 0
    result = from_json(json.loads(capsys.readouterr().out))
    assert result.relation is Relation.STRONGER


def test_cli_outcomes_json(tmp_path, capsys):
    from repro.api.serialize import from_json

    path = tmp_path / "sb.litmus"
    write_litmus_file(repro.L_TESTS[6], path)
    assert main(["outcomes", str(path), "--model", "SC", "--format", "json"]) == 0
    result = from_json(json.loads(capsys.readouterr().out))
    assert result.model_name == "SC" and len(result) == 3


def test_cli_catalog_json(capsys):
    from repro.api.serialize import from_json

    assert main(["catalog", "--format", "json"]) == 0
    documents = json.loads(capsys.readouterr().out)
    models = [from_json(document) for document in documents]
    assert "TSO" in {model.name for model in models}


def test_cli_explore_json_roundtrips_through_validate(capsys):
    """Acceptance: ``repro explore --format json | python -m repro.api.validate``
    round-trips to an ExplorationResult equal to the in-process one."""
    from repro.api import ExploreRequest, Session
    from repro.api.serialize import from_json
    from repro.api.validate import main as validate_main

    assert main(["explore", "--no-deps", "--format", "json"]) == 0
    output = capsys.readouterr().out

    # the validate filter accepts the document verbatim
    assert validate_main([], input_stream=io.StringIO(output)) == 0
    assert "OK: valid exploration_result" in capsys.readouterr().err

    # and the deserialized result equals the in-process exploration
    piped = from_json(json.loads(output))
    in_process = Session().run(ExploreRequest(space="no_deps"))
    assert piped == in_process


def test_validate_rejects_tampered_documents(capsys):
    from repro.api.validate import main as validate_main

    assert main(["compare", "TSO", "x86", "--no-deps", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    document["schema_version"] = 99
    assert validate_main([], input_stream=io.StringIO(json.dumps(document))) == 1
    assert "INVALID" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
def test_cli_serve_stdin_roundtrip(monkeypatch, capsys):
    requests = "\n".join(
        [
            json.dumps({"op": "check", "test": "A", "model": "TSO"}),
            json.dumps({"op": "compare", "first": "TSO", "second": "x86", "suite": "no_deps"}),
            json.dumps({"op": "explore", "space": "no_deps"}),
        ]
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(requests + "\n"))
    assert main(["serve"]) == 0
    responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [response["ok"] for response in responses] == [True, True, True]
    # the warm session answers the exploration from the compare's caches
    assert responses[2]["stats"]["executions_evaluated"] == 0
    assert responses[2]["stats"]["context_cache_hits"] > 0


# ----------------------------------------------------------------------
# `repro models` and --model-file
# ----------------------------------------------------------------------
MODEL_FILE_TEXT = """\
model "FileTSO"
description "TSO loaded from a .model file"
predicates Read Write Fence SameAddr
formula (Write(x) & Write(y)) | Read(x) | Fence(x) | Fence(y)
"""


def test_cli_models_lists_catalog_and_families(capsys):
    assert main(["models"]) == 0
    output = capsys.readouterr().out
    assert "TSO" in output and "F(x, y)" in output
    assert "predicates:" in output
    assert "no_deps" in output and "36 models" in output
    assert "deps" in output and "90 models" in output


def test_cli_models_json_lists_formulas_and_vocabulary(capsys):
    import json as json_module

    assert main(["models", "--format", "json"]) == 0
    document = json_module.loads(capsys.readouterr().out)
    assert document["schema"] == "repro/model_list"
    names = [entry["name"] for entry in document["models"]]
    assert "TSO" in names and "SC" in names
    families = {family["key"]: family for family in document["families"]}
    assert families["deps"]["size"] == 90
    assert "DataDep" in families["deps"]["predicates"]
    assert families["no_deps"]["size"] == 36


def test_cli_models_space_lists_every_member(capsys):
    import json as json_module

    assert main(["models", "--space", "no_deps", "--format", "json"]) == 0
    document = json_module.loads(capsys.readouterr().out)
    names = [entry["name"] for entry in document["models"]]
    assert "M4444" in names and "M4044" in names
    assert len(names) >= 36


def test_cli_model_file_registers_models(tmp_path, capsys):
    path = tmp_path / "file_tso.model"
    path.write_text(MODEL_FILE_TEXT)
    assert main(["--model-file", str(path), "compare", "FileTSO", "TSO", "--no-deps"]) == 0
    assert "equivalent" in capsys.readouterr().out
    # The registered model shows up in `repro models`.
    assert main(["--model-file", str(path), "models"]) == 0
    assert "FileTSO" in capsys.readouterr().out


def test_cli_model_paths_resolve_directly(tmp_path, capsys):
    path = tmp_path / "file_tso.model"
    path.write_text(MODEL_FILE_TEXT)
    litmus = tmp_path / "a.litmus"
    write_litmus_file(repro.TEST_A, litmus)
    assert main(["check", str(litmus), "--model", str(path)]) == 0
    assert "ALLOWED" in capsys.readouterr().out


def test_cli_model_file_errors_are_clear(tmp_path, capsys):
    path = tmp_path / "broken.model"
    path.write_text("model Broken\nformula Write(x) & )\n")
    with pytest.raises(SystemExit) as info:
        main(["--model-file", str(path), "catalog"])
    assert "broken.model" in str(info.value)


def test_cli_bad_model_paths_exit_cleanly(tmp_path):
    litmus = tmp_path / "a.litmus"
    write_litmus_file(repro.TEST_A, litmus)
    with pytest.raises(SystemExit) as info:
        main(["check", str(litmus), "--model", str(tmp_path / "missing.model")])
    assert "missing.model" in str(info.value)
    broken = tmp_path / "broken.model"
    broken.write_text("model B\nformula Write(x) & )\n")
    with pytest.raises(SystemExit) as info:
        main(["check", str(litmus), "--model", str(broken)])
    assert "broken.model" in str(info.value)
