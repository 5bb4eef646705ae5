"""Arithmetic and bookkeeping shared by the benchmark scripts (no repro imports).

Kept free of the package under test so the self-tests in
``perfbench/tests`` exercise it directly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

#: A percentile is only reported as supported when at least this many
#: samples lie beyond it.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the samples at or below it (``q`` in (0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile rank {q} outside (0, 1]")
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q`` percentile among ``count`` samples."""
    return max(1, math.ceil(q * count - 1e-9))


def tail_count(count: int, q: float) -> int:
    """Samples strictly beyond the ``q`` percentile's rank."""
    return count - rank(count, q) if count else 0


def supported(count: int, q: float) -> bool:
    """True when at least :data:`MIN_TAIL` samples lie beyond the percentile."""
    return tail_count(count, q) >= MIN_TAIL


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, or 0 for an empty base (printed with its base)."""
    return numerator / base if base else 0.0


def classify(stats: Mapping[str, object]) -> str:
    """Which path answered a ``check``, from the response's stats delta.

    A verdict-cache hit books exactly one hit and evaluates nothing; a
    miss books one cache miss and evaluates the test.  Anything else
    means the request did not take the path its plan assumed.
    """
    hits = stats.get("verdict_cache_hits", 0)
    misses = stats.get("verdict_cache_misses", 0)
    evaluated = stats.get("executions_evaluated", 0)
    if hits == 1 and misses == 0 and evaluated == 0:
        return "hit"
    if hits == 0 and misses == 1:
        return "miss"
    return "other"


def latency_summary(name: str, samples_ms: Sequence[float]) -> Dict[str, object]:
    """p50 and p99 of one request class, with sample and tail counts."""
    count = len(samples_ms)
    if not count:
        return {"name": name, "count": 0}
    return {
        "name": name,
        "count": count,
        "p50_ms": percentile(samples_ms, 0.50),
        "p99_ms": percentile(samples_ms, 0.99),
        "p99_tail": tail_count(count, 0.99),
        "p99_supported": supported(count, 0.99),
    }


class Result:
    """The run's outcome: correctness, counts, metrics and notes."""

    def __init__(self) -> None:
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.problems: List[str] = []
        self.lines: List[str] = []
        #: kernel backends the program reported; only ``native`` is timed
        self.kernels: Set[str] = set()

    def check(self, condition: bool, message: str) -> bool:
        """Record a correctness check; a failed one marks the run incorrect."""
        if not condition:
            self.correct = False
            self.problems.append(message)
        return condition

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        self.lines.append(f"metric {name} = {shown} {unit}" + (f"  ({note})" if note else ""))

    def ratio(self, name: str, numerator: int, base: int) -> None:
        self.metric(name, ratio(numerator, base), "ratio", f"{numerator} / base {base}")

    def note(self, line: str) -> None:
        self.lines.append(line)

    def final_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )


#: What the benchmark builds the program from, relative to the checkout.
SOURCE_PARTS = ("src", "setup.py")


def source_digest(root: str) -> str:
    """SHA-256 over the files the benchmark builds from (path + bytes)."""
    digest = hashlib.sha256()
    for part in SOURCE_PARTS:
        top = os.path.join(root, part)
        paths = [top] if os.path.isfile(top) else []
        for directory, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            paths.extend(
                os.path.join(directory, name)
                for name in sorted(files)
                if name.endswith((".py", ".c"))
            )
        for path in paths:
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root: str) -> Optional[str]:
    """The checked-out commit read from ``.git`` in ``root`` itself, if any
    (no ``git`` process, which would search parent directories)."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None
