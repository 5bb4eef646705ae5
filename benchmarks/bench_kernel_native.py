"""Kernel-backend micro-benchmarks: the bigint reference vs the C extension.

The native layer (:mod:`repro.native`) reimplements the three hot loops of
the explicit checker — incremental reachability, mask-program evaluation,
and the full backtracking search — over fixed-width word arrays in a C
extension behind the same :class:`~repro.native.backend.KernelBackend`
interface as the bigint kernel.  This module measures each loop per backend, records the backend
name in ``extra_info``, and asserts bit-identical results along the way, so
the perf gate sees kernel-level regressions separately from engine-level
ones.

Backends are discovered at import: the native benchmarks run only when the
C extension is built (``python setup.py build_ext --inplace``), so the
module stays green on pure-Python checkouts.
"""

import random

import pytest

from repro.checker.kernel import IndexedExecution, ReachabilityKernel
from repro.compile import compile_model
from repro.engine import CheckEngine
from repro.generation.named_tests import L_TESTS, TEST_A
from repro.native.backend import native_available, resolve_kernel

ALL_TESTS = [TEST_A] + list(L_TESTS)

#: (name, kernel) for every backend available in this environment.
KERNELS = [("bigint", resolve_kernel("bigint"))]
if native_available():
    KERNELS.append(("native", resolve_kernel("native")))

KERNEL_IDS = [name for name, _ in KERNELS]


def _random_edges(n, count, seed=20110605):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


# ----------------------------------------------------------------------
# reachability: edge insertion + undo per backend
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="kernel-reachability")
@pytest.mark.parametrize("backend", KERNEL_IDS)
def test_reachability_add_undo(benchmark, backend):
    n = 24
    edges = _random_edges(n, 600)

    if backend == "bigint":

        def run():
            kernel = ReachabilityKernel(n)
            inserted = 0
            for u, v in edges:
                mark = kernel.mark()
                if kernel.add_edge(u, v):
                    inserted += 1
                    kernel.undo_to(mark)
            return inserted

    else:
        from repro.native import _kernelmod

        flat = b"".join(
            u.to_bytes(4, "little") + v.to_bytes(4, "little") for u, v in edges
        )

        def run():
            # bench_reach inserts every edge, checksums, and undoes to zero.
            return _kernelmod.bench_reach(n, flat, 1)

    result = benchmark.pedantic(run, rounds=5, iterations=1)
    assert result  # some edges inserted / nonzero checksum
    benchmark.extra_info["kernel_backend"] = backend
    benchmark.extra_info["edges"] = len(edges)


# ----------------------------------------------------------------------
# mask-program evaluation per backend
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="kernel-mask-eval")
@pytest.mark.parametrize("backend", KERNEL_IDS)
def test_mask_program_evaluation(benchmark, backend, models_36):
    name, kernel = next(pair for pair in KERNELS if pair[0] == backend)
    compiled = [compile_model(model) for model in models_36]
    executions = [test.execution() for test in ALL_TESTS]
    reference_kernel = resolve_kernel("bigint")
    expected = [
        mask
        for execution in executions
        for mask in reference_kernel.po_pair_masks(IndexedExecution(execution), compiled)
    ]

    def run():
        masks = []
        for execution in executions:
            # Fresh per round so the per-node memo doesn't hide the work.
            indexed = IndexedExecution(execution)
            for entry in compiled:
                masks.extend(kernel.po_pair_masks(indexed, [entry]))
        return masks

    masks = benchmark.pedantic(run, rounds=3, iterations=1)
    assert masks == expected  # bit-identical to the bigint lowering
    benchmark.extra_info["kernel_backend"] = name
    benchmark.extra_info["mask_evaluations"] = len(masks)


# ----------------------------------------------------------------------
# full search: the verdict matrix per backend
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="kernel-search")
@pytest.mark.parametrize("backend", KERNEL_IDS)
def test_full_search_matrix(benchmark, backend, models_36):
    expected = CheckEngine(kernel="bigint").verdict_matrix(models_36, ALL_TESTS)

    def run():
        return CheckEngine(kernel=backend).verdict_matrix(models_36, ALL_TESTS)

    matrix = benchmark.pedantic(run, rounds=3, iterations=1)
    assert matrix == expected
    benchmark.extra_info["kernel_backend"] = backend


def test_engine_reports_the_benchmarked_backend(models_36):
    for name, _ in KERNELS:
        engine = CheckEngine(kernel=name)
        engine.check(TEST_A, models_36[0])
        assert engine.stats.kernel_backend == name
        searches = engine.stats.native_searches + engine.stats.fallback_searches
        assert searches == 1
