"""One adaptive exhaustive-verification pass in a fresh process.

Runs ``run_pipeline(PipelineConfig(...), progress=...)`` adaptively with
:data:`JOBS` shard workers, checkpointed to ``--run-dir``, with
:data:`AUDIT_RATE` of the skips audited, and prints one JSON object: the
``time.monotonic()`` stamps of the ``template`` event and of the returned
report (the parent subtracts its own launch stamp; the clock is
system-wide), the report's counts, the process's and its workers' peak
RSS, and — with ``--trace-dir`` — the per-layer totals of this process
and of every forked shard worker.

``--setup-only`` stops the run at the ``template`` event (a raising
progress callback aborts ``run_pipeline``), which times set-up alone.

    PYTHONPATH=src python3 perfbench/verify_pass.py --bound small --run-dir .perfbench/run
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time

#: Shard workers of every pass (the cores of the reference box).
JOBS = 2
#: Share of the certified skips re-checked at the end of the run.
AUDIT_RATE = 0.01


class _StopAtTemplate(Exception):
    """Raised from the progress callback to end a set-up-only pass."""


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bound", required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_dir is not None:
        from tracer import Tracer, install

        tracer = install(Tracer())
        tracer.enable_fork_dumps(args.trace_dir)

    from repro.pipeline.run import PipelineConfig, run_pipeline

    marks = {}

    def progress(event, payload):
        marks.setdefault(event, time.monotonic())
        if event == "template" and args.setup_only:
            raise _StopAtTemplate()
        if tracer is not None:
            if event == "shard":
                tracer.phase_restart("pipeline.audit")
            elif event == "finish":
                tracer.phase_commit()

    config = PipelineConfig(
        bound=args.bound,
        adaptive=True,
        jobs=JOBS,
        run_dir=args.run_dir,
        audit_rate=AUDIT_RATE,
    )
    try:
        report = run_pipeline(config, progress=progress)
    except _StopAtTemplate:
        print(json.dumps({"template_at": marks["template"], "peak_rss_mb": _peak_rss_mb()}))
        return 0
    done_at = time.monotonic()

    stats = report.stats
    out = {
        "template_at": marks["template"],
        "done_at": done_at,
        "peak_rss_mb": _peak_rss_mb(),
        "kernel": stats.kernel_backend,
        "raw_tests": report.raw_tests,
        "unique_tests": report.unique_tests,
        "classes": len(report.equivalence_classes),
        "hasse_edges": len(report.hasse_edges),
        "matches_template": report.matches_template,
        "complete": report.complete,
        "shards_total": report.shards_total,
        "shards_quarantined": report.shards_quarantined,
        "checks": report.checks_performed,
        "profile_skips": report.profile_skips,
        "frontier_skips": report.frontier_skips,
        "audits": report.audits_performed,
        "executions": stats.executions_evaluated,
        "native_searches": stats.native_searches,
        "fallback_searches": stats.fallback_searches,
        "derived_verdicts": stats.derived_verdicts,
    }
    if tracer is not None:
        from tracer import merge_totals

        tracer.dump(os.path.join(args.trace_dir, f"parent-{os.getpid()}.json"))
        layers = tracer.totals()
        for path in sorted(glob.glob(os.path.join(args.trace_dir, "worker-*.json"))):
            with open(path) as handle:
                merge_totals(layers, json.load(handle)["layers"])
        out["layers"] = layers
        out["absent"] = tracer.absent_layers()
        out["missing_targets"] = sorted(t for targets in tracer.absent.values() for t in targets)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
