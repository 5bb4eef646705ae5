"""The CI perf-regression gate, tested deterministically.

No timing happens here: synthetic baseline and fresh documents drive
``benchmarks/check_regression.py`` through every verdict — in particular
the acceptance fact that an artificially slowed benchmark result makes the
gate fail.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).parent.parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS_DIR))

import check_regression  # noqa: E402  (needs the path tweak above)
import update_baseline  # noqa: E402


def write_baseline(path, medians):
    path.write_text(
        json.dumps(
            {
                "schema": "repro/bench_baseline",
                "schema_version": 1,
                "benchmarks": {name: {"median": m} for name, m in medians.items()},
            }
        )
    )


def write_fresh(path, medians):
    """Write the raw pytest-benchmark shape (with a machine-specific prefix)."""
    path.write_text(
        json.dumps(
            {
                "benchmarks": [
                    {"fullname": f"home/runner/work/repo/{name}", "stats": {"median": m}}
                    for name, m in medians.items()
                ]
            }
        )
    )


NAMES = [f"benchmarks/bench_x.py::test_{i}" for i in range(5)]
BASE = {name: 0.1 for name in NAMES}


def run_gate(tmp_path, fresh_medians, *extra_args):
    baseline_path = tmp_path / "baseline.json"
    fresh_path = tmp_path / "fresh.json"
    write_baseline(baseline_path, BASE)
    write_fresh(fresh_path, fresh_medians)
    return check_regression.main(
        [str(fresh_path), "--baseline", str(baseline_path), *extra_args]
    )


def test_identical_result_passes(tmp_path):
    assert run_gate(tmp_path, dict(BASE)) == 0


def test_artificially_slowed_benchmark_fails(tmp_path, capsys):
    """The acceptance fact: a 2x-slowed median must fail the gate."""
    slowed = dict(BASE)
    slowed[NAMES[0]] = 0.2
    assert run_gate(tmp_path, slowed) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.err
    assert NAMES[0] in captured.err


def test_slowdown_within_tolerance_passes(tmp_path):
    within = dict(BASE)
    within[NAMES[0]] = 0.11  # +10% < 25%
    assert run_gate(tmp_path, within) == 0


def test_uniformly_slower_machine_is_calibrated_away(tmp_path):
    """2x across the board reads as machine speed, not regression."""
    uniform = {name: 0.2 for name in NAMES}
    assert run_gate(tmp_path, uniform) == 0
    # ... but strict absolute gating still catches it.
    assert run_gate(tmp_path, uniform, "--no-calibrate") == 1


def test_relative_regression_fails_even_on_a_faster_machine(tmp_path):
    """The machine got 2x faster but one benchmark only broke even: fail."""
    fresh = {name: 0.05 for name in NAMES}
    fresh[NAMES[0]] = 0.1
    assert run_gate(tmp_path, fresh) == 1


def test_missing_baselined_benchmark_fails(tmp_path, capsys):
    fresh = dict(BASE)
    del fresh[NAMES[0]]
    assert run_gate(tmp_path, fresh) == 1
    assert "missing from the fresh run" in capsys.readouterr().err


def test_new_benchmark_passes_with_a_note(tmp_path, capsys):
    fresh = dict(BASE)
    fresh["benchmarks/bench_x.py::test_new"] = 5.0
    assert run_gate(tmp_path, fresh) == 0
    assert "new benchmark" in capsys.readouterr().out


def test_tolerance_flag_widens_the_gate(tmp_path):
    slowed = dict(BASE)
    slowed[NAMES[0]] = 0.135  # +35%
    assert run_gate(tmp_path, slowed) == 1
    assert run_gate(tmp_path, slowed, "--tolerance", "50") == 0


def test_normalize_name_strips_machine_prefix():
    assert (
        check_regression.normalize_name("root/repo/benchmarks/bench_a.py::test_b")
        == "benchmarks/bench_a.py::test_b"
    )
    assert (
        check_regression.normalize_name("benchmarks/bench_a.py::test_b")
        == "benchmarks/bench_a.py::test_b"
    )


def test_committed_baseline_is_loadable_and_nonempty():
    medians = check_regression.load_medians(check_regression.DEFAULT_BASELINE)
    assert len(medians) >= 20
    assert all(median > 0 for median in medians.values())
    assert all(name.startswith("benchmarks/") for name in medians)


def test_unreadable_inputs_are_a_usage_error(tmp_path):
    assert check_regression.main([str(tmp_path / "nope.json")]) == 2


def test_ci_benchmark_smoke_runs_the_baselined_modules():
    """CI must run exactly the subset the baseline is refreshed from, or the
    gate reports the missing modules' entries as regressions."""
    workflow = (BENCHMARKS_DIR.parent / ".github" / "workflows" / "ci.yml").read_text()
    step = workflow.split("- name: Benchmark smoke", 1)[1].split("- name:", 1)[0]
    assert re.findall(r"benchmarks/bench_\w+\.py", step) == list(update_baseline.BENCH_MODULES)
