"""The repository benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout.  It builds the optional
native kernel with the repository's own ``setup.py build_ext`` when it is
missing, pins it (``REPRO_KERNEL=native`` for every child, and every
result must report it), runs the workload in fresh processes, checks the
outputs, prints every metric with its unit and every ratio with its base,
and ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  It exits non-zero when a correctness check fails.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``verify-large-adaptive`` — ``run_pipeline`` at bound ``large``,
  adaptive, ``jobs=2``, checkpointed to a fresh run directory, audit rate
  0.01 (see ``verify_pass.py``): raw enumeration, the profile prefilter,
  the checked path, checkpoint I/O and the audits.  It is deterministic
  at a fixed bound: the seed is accepted and recorded, and changes nothing.
* ``serve-mixed`` — ``repro serve --port`` with default flags under a
  seeded 80/20 mix of verdict-cache hits and canonical-distinct misses
  from two closed-loop connections (see ``serve_load.py``).

With ``--trace 0`` the metrics are the end-to-end ones; ``--trace 1``
makes one untraced and one traced pass at equal settings and prints the
per-layer metrics, the tracing overhead between the two, and marks any
layer whose wrap targets no longer exist as absent.  ``--smoke`` shrinks
every workload (bound ``small``, a few hundred requests) to run in seconds.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
from tracer import LAYER_NAMES  # noqa: E402
from verify_pass import AUDIT_RATE, JOBS  # noqa: E402

#: Set-up-only launches before each verify pass (each pass adds its own
#: set-up time too); the median of all of them is ``setup_s``.
SETUP_LAUNCHES_PER_PASS = 5
#: Server launches timed for ``setup_s`` on ``serve-mixed`` (the measured
#: session is one of them).
SERVE_SETUP_SAMPLES = 12
#: Every child process gets this long before it is killed.
CHILD_TIMEOUT = 100.0

#: What one adaptive pass must produce at each bound: raw tests, classes,
#: Hasse edges and whether the partition matches the template suite's
#: (30 classes / 64 Hasse edges over the 36-model space; ``small`` is too
#: small to reach it).
EXPECTED = {
    "large": (439414, 30, 64, True),
    "small": (1830, 24, 52, False),
}

END_TO_END = (("setup_s", "s"), ("verdicts_per_s", "1/s"), ("peak_rss_mb", "MB"))

RATIOS = (
    "pipeline.adaptive.skip_ratio",
    "engine.derived_ratio",
    "native.searches_per_test",
    "cache.hit_ratio",
    "serve.memo_hit_ratio",
)
SERVE_LATENCIES = ("serve.hit_p50_ms", "serve.hit_p99_ms", "serve.miss_p50_ms", "serve.miss_p99_ms")


def layer_fields(layer: str) -> List[Tuple[str, str]]:
    """A layer's ``--trace 1`` metrics, each with the totals key it reads."""
    if layer == "serve.queue_wait":
        return [(f"{layer}.calls", "calls"), ("serve.queue_wait_s", "wait_s")]
    fields = [(f"{layer}.calls", "calls"), (f"{layer}.self_s", "self_s")]
    if layer == "pipeline.audit":
        fields.append((f"{layer}.inclusive_s", "inclusive_s"))
    return fields


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every ``--trace 1`` metric name with its unit, in print order."""
    names = [
        (name, "count" if key == "calls" else "s")
        for layer in LAYER_NAMES
        for name, key in layer_fields(layer)
    ]
    names.append(("pipeline.checkpoint.bytes", "bytes"))
    names += [(name, "ratio") for name in RATIOS]
    names += [(name, "ms") for name in SERVE_LATENCIES]
    names.append(("serve.requests_per_s", "1/s"))
    names.append(("trace.overhead", "ratio"))
    return names


# ----------------------------------------------------------------------
# environment: source layout, native kernel, child environment
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """The parent environment minus every ``REPRO_*`` knob, with the
    checkout's ``src`` first on the path and the native kernel pinned."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_KERNEL"] = "native"
    return env


def ensure_native(env: Dict[str, str]) -> None:
    """Build the C kernel with ``setup.py build_ext`` if it does not import."""
    probe = [sys.executable, "-c", "import repro.native._kernelmod"]
    if subprocess.run(probe, env=env, cwd=ROOT, capture_output=True).returncode == 0:
        return
    build_dir = os.path.join(ROOT, ".bench_build")
    command = [
        sys.executable, "setup.py", "build_ext", "--inplace",
        "--build-temp", os.path.join(build_dir, "temp"),
        "--build-lib", os.path.join(build_dir, "lib"),
    ]
    print("building the native kernel: " + " ".join(command[1:]), file=sys.stderr)
    built = subprocess.run(command, env=env, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0 or subprocess.run(probe, env=env, cwd=ROOT).returncode != 0:
        raise SystemExit("perfbench: the native kernel could not be built; refusing to time bigint")


def run_child(command: List[str], env: Dict[str, str]) -> Tuple[float, dict]:
    """Run one child to completion; its launch stamp and last JSON line."""
    launched = time.monotonic()
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"{os.path.basename(command[1])} exited with {done.returncode}")
    return launched, json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# verify-large-adaptive
# ----------------------------------------------------------------------
def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, files in os.walk(path)
        for name in files
    )


class VerifyRun:
    """Fresh ``verify_pass.py`` processes, each on a fresh run directory."""

    def __init__(self, bound: str, env: Dict[str, str], tmp: str, result: harness.Result) -> None:
        self.bound, self.env, self.tmp, self.result = bound, env, tmp, result
        self.counter = 0
        self.checkpoint_bytes = 0

    def _launch(self, *extra: str) -> Tuple[float, dict, str]:
        self.counter += 1
        run_dir = os.path.join(self.tmp, f"run-dir-{self.counter}")
        command = [sys.executable, os.path.join(HERE, "verify_pass.py"),
                   "--bound", self.bound, "--run-dir", run_dir, *extra]
        launched, out = run_child(command, self.env)
        return launched, out, run_dir

    def setup_sample(self) -> float:
        launched, out, run_dir = self._launch("--setup-only")
        shutil.rmtree(run_dir, ignore_errors=True)
        return out["template_at"] - launched

    def full_pass(self, trace_dir: Optional[str] = None) -> dict:
        launched, out, run_dir = self._launch(*(["--trace-dir", trace_dir] if trace_dir else []))
        out["setup_s"] = out["template_at"] - launched
        out["wall_s"] = out["done_at"] - out["template_at"]
        self.checkpoint_bytes = dir_bytes(run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        self.verify(out)
        return out

    def verify(self, out: dict) -> None:
        check = self.result.check
        raw, classes, edges, matches = EXPECTED[self.bound]
        self.result.kernels.add(out["kernel"])
        check(out["raw_tests"] == raw, f"raw tests {out['raw_tests']} != {raw}")
        check(out["classes"] == classes, f"classes {out['classes']} != {classes}")
        check(out["hasse_edges"] == edges, f"Hasse edges {out['hasse_edges']} != {edges}")
        check(out["matches_template"] == matches, f"matches_template is {out['matches_template']}")
        check(out["complete"] and out["shards_quarantined"] == 0,
              f"{out['shards_quarantined']} shards quarantined")
        check(out["audits"] > 0, "no audit checks ran")
        self.result.attempted += out["shards_total"]
        self.result.failed += out["shards_quarantined"]


def verify_ratios(result: harness.Result, out: dict) -> None:
    searches = out["native_searches"] + out["fallback_searches"]
    result.ratio("pipeline.adaptive.skip_ratio",
                 out["profile_skips"] + out["frontier_skips"], out["raw_tests"])
    result.ratio("engine.derived_ratio", out["derived_verdicts"], out["derived_verdicts"] + searches)
    result.ratio("native.searches_per_test", out["native_searches"], out["executions"])
    result.ratio("cache.hit_ratio", 0, 0)
    result.ratio("serve.memo_hit_ratio", 0, 0)


def run_verify(name: str, args, env, tmp, result: harness.Result) -> None:
    bound = "small" if args.smoke else "large"
    runner = VerifyRun(bound, env, tmp, result)
    result.note(f"run: workload={name} bound={bound} adaptive=True jobs={JOBS} "
                f"audit_rate={AUDIT_RATE} checkpointed=True "
                f"(deterministic at a fixed bound: seed {args.seed} recorded, unused)")
    if args.trace:
        plain = runner.full_pass()
        trace_dir = os.path.join(ROOT, ".perfbench", "trace", name)
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        traced = runner.full_pass(trace_dir=trace_dir)
        result.note(f"pass: untraced {plain['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s "
                    f"(jobs={JOBS} both); spans and totals in {os.path.relpath(trace_dir, ROOT)}")
        layer_metrics(result, traced["layers"], traced["absent"], traced["missing_targets"])
        result.metric("pipeline.checkpoint.bytes", runner.checkpoint_bytes, "bytes")
        verify_ratios(result, traced)
        for metric in SERVE_LATENCIES:
            result.metric(metric, 0.0, "ms", "no requests on this workload")
        result.metric("serve.requests_per_s", 0.0, "1/s", "no requests on this workload")
        result.metric("trace.overhead", traced["wall_s"] / plain["wall_s"] - 1.0, "ratio",
                      f"traced {traced['wall_s']:.3f} s over untraced {plain['wall_s']:.3f} s")
        return

    # Passes repeat until their measured time reaches --seconds; set-up
    # launches are spread between them so both sample the same stretch of
    # the run.
    setups: List[float] = []
    passes: List[dict] = []
    budget = 0.0 if args.smoke else args.seconds
    while not passes or sum(out["wall_s"] for out in passes) < budget:
        setups += [runner.setup_sample() for _ in range(SETUP_LAUNCHES_PER_PASS)]
        out = runner.full_pass()
        passes.append(out)
        setups.append(out["setup_s"])
    rates = [out["raw_tests"] / out["wall_s"] for out in passes]
    first = passes[0]
    result.note(f"counts: raw_tests={first['raw_tests']} checked={first['unique_tests']} "
                f"checks={first['checks']} profile_skips={first['profile_skips']} "
                f"frontier_skips={first['frontier_skips']} audits={first['audits']} "
                f"shards={first['shards_total']} passes={len(passes)}")
    result.note("time_to_verdict_s per pass: " + ", ".join(f"{o['wall_s']:.3f}" for o in passes))
    result.metric("setup_s", harness.median(setups), "s",
                  f"median of {len(setups)}: launch to the template event")
    result.metric("verdicts_per_s", harness.median(rates), "1/s",
                  f"raw tests per second from template to report, median of {len(rates)} passes")
    result.metric("peak_rss_mb", harness.median(o["peak_rss_mb"] for o in passes), "MB",
                  "largest of the pipeline parent and its workers, median of passes")


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def serve_session(plan, env, tmp, result: harness.Result,
                  trace_out: Optional[str] = None, loop: bool = True) -> dict:
    """Start a server, warm it up, optionally drive the measured loop, stop it."""
    import serve_load

    server = serve_load.Server(env, tmp, trace_out=trace_out)
    out: dict = {}
    try:
        server.start()
        warm = serve_load.request_lines(server.port, plan.warmup)
        out["setup_s"] = time.monotonic() - server.launched
        for line in warm:
            result.check(json.loads(line).get("ok") is True, f"warm-up request failed: {line[:200]!r}")
        if loop:
            out["loop"] = serve_load.segmented_loop(server.port, plan.lines)
            out["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        status = server.stop()
    result.check(status == 0, f"server exited with {status} after SIGTERM")
    return out


def serve_metrics(plan, out: dict, result: harness.Result, seed: int) -> dict:
    import serve_load

    responses, latencies, sent, elapsed, rates = out["loop"]
    result.check(sent == len(plan.lines),
                 f"only {sent} of {len(plan.lines)} planned requests sent "
                 f"in {serve_load.LOOP_TIMEOUT:g} s")
    checked = serve_load.check_responses(plan, responses, latencies, sent, result, seed)
    result.attempted += sent
    result.failed += checked["failures"]
    # The median segment rate: a burst of host noise spoils one segment,
    # not the run.
    checked["rate"] = harness.median(rates)
    checked["segment_rates"] = rates
    checked["sent"] = sent
    checked["elapsed"] = elapsed
    return checked


def latency_metrics(result: harness.Result, checked: dict) -> None:
    for label, key in (("hit", "hits_ms"), ("miss", "misses_ms")):
        summary = harness.latency_summary(label, checked[key])
        if not summary["count"]:
            result.check(False, f"no {label} requests were answered")
            continue
        support = "" if summary["p99_supported"] else ", below the 10-sample tail"
        result.metric(f"serve.{label}_p50_ms", summary["p50_ms"], "ms", f"n={summary['count']}")
        result.metric(f"serve.{label}_p99_ms", summary["p99_ms"], "ms",
                      f"n={summary['count']}, {summary['p99_tail']} beyond{support}")


def run_serve(name: str, args, env, tmp, result: harness.Result) -> None:
    import serve_load

    requests = 300 if args.smoke else int(args.seconds * serve_load.PLAN_RATE)
    plan = serve_load.Plan(args.seed, requests, bound="small" if args.smoke else "large")
    result.note(f"run: workload={name} seed={args.seed} plan={len(plan.lines)} requests "
                f"({sum(1 for kind, _ in plan.entries if kind == 'miss')} misses, "
                f"{len(plan.hot)} hot pairs) clients={serve_load.CLIENTS} closed-loop, "
                f"warm-up={len(plan.warmup)} requests")
    if args.trace:
        plain = serve_metrics(plan, serve_session(plan, env, tmp, result), result, args.seed)
        trace_out = os.path.join(ROOT, ".perfbench", "trace", name, "server.json")
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        traced = serve_metrics(
            plan, serve_session(plan, env, tmp, result, trace_out=trace_out),
            result, args.seed,
        )
        with open(trace_out) as handle:
            document = json.load(handle)
        layer_metrics(result, document["layers"], document["absent"], document["missing_targets"])
        result.metric("pipeline.checkpoint.bytes", 0, "bytes", "no checkpoints on this workload")
        totals = traced["totals"]
        searches = totals.get("native_searches", 0) + totals.get("fallback_searches", 0)
        result.ratio("pipeline.adaptive.skip_ratio", 0, 0)
        result.ratio("engine.derived_ratio", totals.get("derived_verdicts", 0),
                     totals.get("derived_verdicts", 0) + searches)
        result.ratio("native.searches_per_test", totals.get("native_searches", 0),
                     totals.get("executions_evaluated", 0))
        result.ratio("cache.hit_ratio", totals.get("verdict_cache_hits", 0),
                     totals.get("verdict_cache_hits", 0) + totals.get("verdict_cache_misses", 0))
        memo = document["layers"].get("serve.memo", {}).get("calls", 0)
        result.ratio("serve.memo_hit_ratio", memo, len(traced["hits_ms"]))
        latency_metrics(result, plain)
        result.metric("serve.requests_per_s", plain["rate"], "1/s", f"untraced, {plain['sent']} sent")
        result.metric("trace.overhead", plain["rate"] / traced["rate"] - 1.0, "ratio",
                      f"untraced {plain['rate']:.1f} req/s over traced {traced['rate']:.1f} req/s")
        return

    # Set-up launches before and after the measured session, so they
    # sample the same stretch of the run.
    before = SERVE_SETUP_SAMPLES // 2
    setups = [serve_session(plan, env, tmp, result, loop=False)["setup_s"] for _ in range(before)]
    out = serve_session(plan, env, tmp, result)
    setups.append(out["setup_s"])
    setups += [serve_session(plan, env, tmp, result, loop=False)["setup_s"]
               for _ in range(SERVE_SETUP_SAMPLES - before - 1)]
    checked = serve_metrics(plan, out, result, args.seed)
    result.note(f"counts: sent={checked['sent']} hits={len(checked['hits_ms'])} "
                f"misses={len(checked['misses_ms'])} failed={checked['failures']} "
                f"elapsed={checked['elapsed']:.3f} s; segment rates "
                + ", ".join(f"{rate:.0f}" for rate in checked["segment_rates"]) + " req/s")
    for label, key in (("hit", "hits_ms"), ("miss", "misses_ms")):
        summary = harness.latency_summary(label, checked[key])
        if summary["count"]:
            result.note(f"latency {label}: p50 {summary['p50_ms']:.3f} ms, p99 {summary['p99_ms']:.3f} ms "
                        f"(n={summary['count']}, {summary['p99_tail']} beyond p99)")
    result.metric("setup_s", harness.median(setups), "s",
                  f"median of {len(setups)}: launch to the end of the warm-up pass")
    result.metric("verdicts_per_s", checked["rate"], "1/s",
                  f"answered checks per second, median of {len(checked['segment_rates'])} plan slices")
    result.metric("peak_rss_mb", out["peak_rss_mb"], "MB", "server VmHWM after the loop")


def layer_metrics(result: harness.Result, layers: dict, absent: dict, missing: List[str]) -> None:
    """Print every field of every layer; absent layers read 0."""
    for layer in LAYER_NAMES:
        entry = layers.get(layer, {})
        note = "absent: no wrap target exists" if layer in absent else ""
        for name, key in layer_fields(layer):
            result.metric(name, entry.get(key, 0 if key == "calls" else 0.0),
                          "count" if key == "calls" else "s", note)
    for layer in sorted(absent):
        result.note(f"layer {layer}: absent")
    for target in missing:
        result.note(f"wrap target missing: {target}")


WORKLOADS = {
    "verify-large-adaptive": run_verify,
    "serve-mixed": run_serve,
}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="bound 'small' and a few hundred requests: runs in seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")) or not os.path.isfile(
        os.path.join(ROOT, "setup.py")
    ):
        print(f"perfbench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    env = child_env()
    ensure_native(env)
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    result = harness.Result()
    tmp = os.path.join(ROOT, ".perfbench", f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    started = time.monotonic()
    try:
        WORKLOADS[args.workload](args.workload, args, env, tmp, result)
    except Exception as error:  # a crashed, hung or failing child fails the run
        result.check(False, f"{args.workload} stopped: {type(error).__name__}: {error}")
        result.attempted += 1
        result.failed += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result.check(result.kernels == {"native"},
                 f"timed kernels {sorted(map(str, result.kernels))}, expected only native")
    commit = harness.git_commit(ROOT) or "unknown (not a git checkout)"
    kernels = ",".join(sorted(map(str, result.kernels)))
    print(f"run: seed={args.seed} commit={commit} source_sha256={harness.source_digest(ROOT)} "
          f"kernel={kernels} trace={args.trace} smoke={args.smoke} "
          f"wall={time.monotonic() - started:.1f}s")
    for line in result.lines:
        print(line)
    rate = harness.ratio(result.failed, result.attempted)
    print(f"error_rate = {rate:g} ({result.failed} failed / base {result.attempted} attempted)")
    for problem in result.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(result.problems) > 20:
        print(f"CHECK FAILED: ... and {len(result.problems) - 20} more")
    print(result.final_line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
