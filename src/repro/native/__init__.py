"""Word-array native checking kernels.

This package lowers the hot loop of the explicit checker — the
decide/propagate/undo search of :mod:`repro.checker.kernel` and the
bitmask-program evaluation of :mod:`repro.compile.lower_masks` — from
unbounded Python ints to fixed-width arrays of 64-bit words in a C
extension (``native``, :mod:`repro.native._kernelmod`, built optionally by
``setup.py``), behind one :class:`~repro.native.backend.KernelBackend`
interface whose other implementation is the original ``bigint`` kernel:
the semantic reference and the fallback when the extension is not built.

See ``docs/architecture.md`` ("Kernel backends") for the word layout,
the selection order and the build-fallback semantics.
"""

from repro.native.backend import (
    KERNEL_CHOICES,
    KERNEL_ENV,
    BigintKernelBackend,
    KernelBackend,
    NativeKernelBackend,
    native_available,
    native_import_error,
    resolve_kernel,
)
from repro.native.problem import WORD_BITS, KernelProblem, kernel_problem, word_count

__all__ = [
    "KERNEL_CHOICES",
    "KERNEL_ENV",
    "BigintKernelBackend",
    "KernelBackend",
    "KernelProblem",
    "NativeKernelBackend",
    "WORD_BITS",
    "kernel_problem",
    "native_available",
    "native_import_error",
    "resolve_kernel",
    "word_count",
]
