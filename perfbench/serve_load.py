"""The ``serve-mixed`` workload: a seeded check mix against ``repro serve --port``.

The plan is made here, from the seed, and the server only ever sees the
rendered request lines:

* **hits** — 30 hot pairs, a registered test name × a catalog model name,
  each answered once during warm-up and from the verdict cache after;
* **misses** — inline tests drawn from ``enumerate_canonical_naive_items``
  at bound ``large`` (so no two share a cache key, and none shares one
  with a named test) × a model drawn from the 90-model space.

One single-threaded client drives two closed-loop connections without
pipelining: each connection sends its next line only after the previous
response arrived, as callers that wait for their verdict do.  Every
response's stats delta must confirm the planned class, and verdicts are
compared against an oracle engine on the ``bigint`` kernel, never the
native kernel under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import harness

HOT_PAIRS = 30
MISS_SHARE = 0.2
#: Plan length per second of ``--seconds``.  The plan is fixed work, not a
#: fixed time, so memory and throughput compare across commits: at 45 s it
#: is 45k requests (about 36k hits and 9k misses), which two clients get
#: through in about 17 s on a 2-vCPU Xeon VM; building the plan and the
#: set-up launches take most of the rest of the run.
PLAN_RATE = 1000
ORACLE_SAMPLE = 200
CLIENTS = 2
#: The plan is driven in this many consecutive slices; the median slice
#: rate is the throughput.
SEGMENTS = 6
#: Seconds the server gets to report its port, and to drain on SIGTERM.
SERVER_TIMEOUT = 60.0
#: Seconds without any response after which outstanding requests count
#: as dropped.
DRAIN_TIMEOUT = 30.0
#: Safety stop for the whole plan, which normally ends long before.
LOOP_TIMEOUT = 120.0


class Plan:
    """The seeded request mix, rendered to wire lines before any timing."""

    def __init__(self, seed: int, requests: int, bound: str = "large") -> None:
        from repro.api.registry import ModelRegistry, TestRegistry
        from repro.api.serialize import to_json
        from repro.cache.verdict import VerdictCache
        from repro.core.parametric import model_space
        from repro.generation.enumeration import (
            enumerate_canonical_naive_items,
            test_from_items,
        )
        from repro.pipeline.run import BOUNDS

        rng = random.Random(seed)
        self.seed = seed
        tests, models, digests = TestRegistry(), ModelRegistry(), VerdictCache()
        # Only pairs the verdict cache can key (tests in the Load/Store/Fence
        # fragment, formula models) can ever be hits.
        pairs = [
            (test, model)
            for test in tests.names()
            for model in models.names()
            if digests.key_for(tests.resolve(test), models.resolve(model)) is not None
        ]
        self.hot: List[Tuple[str, str]] = rng.sample(pairs, HOT_PAIRS)
        self.space: List[str] = [model.name for model in model_space(True)]

        kinds = ["miss" if rng.random() < MISS_SHARE else "hit" for _ in range(requests)]
        wanted = kinds.count("miss")
        named = {digests.test_digest(tests.resolve(name)) for name in tests.names()}
        # Reservoir sample of the canonical stream (a few spare for the
        # named-test filter), then materialise only the sample.
        reservoir: List[Tuple[str, tuple]] = []
        keep = wanted + wanted // 20 + 16
        for seen, (_key, name, items) in enumerate(
            enumerate_canonical_naive_items(BOUNDS[bound])
        ):
            if len(reservoir) < keep:
                reservoir.append((name, items))
            else:
                slot = rng.randrange(seen + 1)
                if slot < keep:
                    reservoir[slot] = (name, items)
        rng.shuffle(reservoir)
        self.misses: List[Tuple[str, tuple, str]] = []
        miss_docs: List[dict] = []
        for name, items in reservoir:
            if len(self.misses) == wanted:
                break
            test = test_from_items(items, name)
            if digests.test_digest(test) in named:
                continue
            self.misses.append((name, items, rng.choice(self.space)))
            miss_docs.append(to_json(test))
        if len(self.misses) < wanted:
            raise RuntimeError(f"only {len(self.misses)} of {wanted} distinct misses available")

        #: per line: ("hit", hot index) or ("miss", miss index)
        self.entries: List[Tuple[str, int]] = []
        self.lines: List[bytes] = []
        hot_lines = [_line({"op": "check", "test": t, "model": m}) for t, m in self.hot]
        next_miss = 0
        for kind in kinds:
            if kind == "hit":
                index = rng.randrange(HOT_PAIRS)
                self.lines.append(hot_lines[index])
            else:
                index = next_miss
                next_miss += 1
                self.lines.append(
                    _line({"op": "check", "test": miss_docs[index], "model": self.misses[index][2]})
                )
            self.entries.append((kind, index))
        self.warmup: List[bytes] = hot_lines + [
            _line({"op": "check", "test": self.hot[i % HOT_PAIRS][0], "model": model})
            for i, model in enumerate(self.space)
        ]


def _line(document: dict) -> bytes:
    return (json.dumps(document) + "\n").encode()


class Server:
    """One ``repro serve --port 0`` process started through the bootstrap."""

    def __init__(self, env: Dict[str, str], work_dir: str, trace_out: Optional[str] = None):
        self.env = env
        self.work_dir = work_dir
        self.trace_out = trace_out
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.launched = 0.0

    def start(self) -> None:
        boot = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_boot.py")
        command = [sys.executable, boot]
        if self.trace_out is not None:
            command += ["--trace-out", self.trace_out]
        command += ["--", "serve", "--port", "0"]
        log_path = os.path.join(self.work_dir, f"serve-{time.monotonic_ns()}.log")
        self.log = open(log_path, "w+")
        self.launched = time.monotonic()
        self.process = subprocess.Popen(
            command, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self.log,
        )
        deadline = self.launched + SERVER_TIMEOUT
        with open(log_path) as reader:
            while time.monotonic() < deadline:
                line = reader.readline()
                if not line:
                    if self.process.poll() is not None:
                        raise RuntimeError(f"server exited with {self.process.returncode}")
                    time.sleep(0.002)
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if event.get("event") == "serve_start":
                    self.port = int(event["port"])
                    return
        raise RuntimeError("server did not report serve_start in time")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> int:
        """Drain with SIGTERM (kill past :data:`SERVER_TIMEOUT`) and reap
        the process."""
        if self.process is None:
            return 0
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=SERVER_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            return self.process.returncode
        finally:
            self.log.close()
            self.process = None


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def request_lines(port: int, lines: Sequence[bytes]) -> List[bytes]:
    """Send lines one at a time over one connection; the response lines."""
    responses = []
    with _connect(port) as sock, sock.makefile("rb") as reader:
        for line in lines:
            sock.sendall(line)
            responses.append(reader.readline().rstrip(b"\n"))
    return responses


class _Conn:
    __slots__ = ("sock", "buffer", "index", "sent")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""
        self.index: Optional[int] = None
        self.sent = 0


def closed_loop(
    port: int, lines: Sequence[bytes], timeout: float
) -> Tuple[List[Optional[bytes]], List[int], int, float]:
    """Drive :data:`CLIENTS` lockstep connections through ``lines`` in
    order until the plan is done (or, as a safety stop, ``timeout`` passes).

    Returns per-line responses (None = never answered), per-line latency
    in ns, how many lines were sent, and the elapsed seconds from the
    first send to the last response.
    """
    responses: List[Optional[bytes]] = [None] * len(lines)
    latencies = [0] * len(lines)
    selector = selectors.DefaultSelector()
    conns = [_Conn(_connect(port)) for _ in range(CLIENTS)]
    sent = 0
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + int(timeout * 1e9)

    def send_next(conn: _Conn) -> None:
        nonlocal sent
        conn.index = None
        if sent < len(lines) and clock() < deadline:
            conn.index = sent
            sent += 1
            conn.sent = clock()
            conn.sock.sendall(lines[conn.index])

    try:
        for conn in conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
            send_next(conn)
        while any(conn.index is not None for conn in conns):
            events = selector.select(timeout=DRAIN_TIMEOUT)
            if not events:
                break  # unanswered requests count as dropped
            for key, _ in events:
                conn = key.data
                data = conn.sock.recv(1 << 16)
                if not data:
                    selector.unregister(conn.sock)
                    conn.index = None
                    continue
                conn.buffer += data
                while conn.index is not None and b"\n" in conn.buffer:
                    line, _, conn.buffer = conn.buffer.partition(b"\n")
                    latencies[conn.index] = clock() - conn.sent
                    responses[conn.index] = line
                    send_next(conn)
        end = clock()
    finally:
        for conn in conns:
            conn.sock.close()
        selector.close()
    return responses, latencies, sent, (end - start) / 1e9


def segmented_loop(
    port: int, lines: Sequence[bytes]
) -> Tuple[List[Optional[bytes]], List[int], int, float, List[float]]:
    """:func:`closed_loop` over :data:`SEGMENTS` consecutive slices of the plan.

    Returns what :func:`closed_loop` does for the whole plan, plus each
    slice's rate (answered requests per second).
    """
    responses: List[Optional[bytes]] = []
    latencies: List[int] = []
    sent = 0
    elapsed = 0.0
    rates: List[float] = []
    size = -(-len(lines) // SEGMENTS)
    for start in range(0, len(lines), size):
        part = lines[start:start + size]
        part_responses, part_latencies, part_sent, part_elapsed = closed_loop(
            port, part, max(0.0, LOOP_TIMEOUT - elapsed)
        )
        responses += part_responses
        latencies += part_latencies
        sent += part_sent
        elapsed += part_elapsed
        answered = sum(1 for response in part_responses if response is not None)
        rates.append(answered / part_elapsed if part_elapsed else 0.0)
        if part_sent < len(part):
            break
    responses += [None] * (len(lines) - len(responses))
    latencies += [0] * (len(lines) - len(latencies))
    return responses, latencies, sent, elapsed, rates


class Oracle:
    """Reference verdicts on the bigint kernel."""

    def __init__(self) -> None:
        from repro.api.registry import ModelRegistry, TestRegistry
        from repro.engine.engine import CheckEngine

        self.engine = CheckEngine(kernel="bigint")
        self.tests = TestRegistry()
        self.models = ModelRegistry()

    def named(self, test: str, model: str) -> bool:
        return self.engine.check(self.tests.resolve(test), self.models.resolve(model))

    def inline(self, name: str, items: tuple, model: str) -> bool:
        from repro.generation.enumeration import test_from_items

        return self.engine.check(test_from_items(items, name), self.models.resolve(model))


def check_responses(
    plan: Plan, responses: Sequence[Optional[bytes]], latencies: Sequence[int],
    sent: int, result: "harness.Result", seed: int,
) -> Dict[str, object]:
    """Classify, count and verify every response of a measured loop.

    Returns latency samples per class and summed stats deltas.
    """
    oracle = Oracle()
    hot_verdicts = [oracle.named(test, model) for test, model in plan.hot]
    hits_ms: List[float] = []
    misses_ms: List[float] = []
    totals: Dict[str, int] = {}
    failures = 0
    sent_misses: List[Tuple[int, bool]] = []
    for position in range(sent):
        kind, index = plan.entries[position]
        raw = responses[position]
        if raw is None:
            failures += 1
            result.check(False, f"request {position} was never answered")
            continue
        response = json.loads(raw)
        if not response.get("ok"):
            failures += 1
            result.check(False, f"request {position} failed: {response.get('error')}")
            continue
        stats = response.get("stats", {})
        for key, value in stats.items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
        verdict = response["result"]["allowed"]
        path = harness.classify(stats)
        result.check(path == kind, f"request {position} planned {kind} but took {path}: {stats}")
        result.kernels.add(stats.get("kernel_backend"))
        if kind == "hit":
            hits_ms.append(latencies[position] / 1e6)
            result.check(
                verdict == hot_verdicts[index],
                f"request {position} verdict {verdict} != oracle for {plan.hot[index]}",
            )
        else:
            misses_ms.append(latencies[position] / 1e6)
            sent_misses.append((index, verdict))
    sample = random.Random(seed ^ 0x5EED).sample(
        sent_misses, min(ORACLE_SAMPLE, len(sent_misses))
    )
    labels = []
    for index, verdict in sample:
        name, items, model = plan.misses[index]
        labels.append(f"{name}@{model}")
        result.check(
            verdict == oracle.inline(name, items, model),
            f"miss {name} x {model}: verdict {verdict} disagrees with the bigint oracle",
        )
    fingerprint = hashlib.sha256(",".join(labels).encode()).hexdigest()[:12]
    result.note(
        f"oracle (bigint kernel): all {len(plan.hot)} hot pairs, {len(hits_ms)} hit "
        f"verdicts, and a seeded sample of {len(sample)} of {len(sent_misses)} misses "
        f"[{', '.join(labels[:8])}{', ...' if len(labels) > 8 else ''}] sha256:{fingerprint}"
    )
    return {"hits_ms": hits_ms, "misses_ms": misses_ms, "totals": totals, "failures": failures}
