"""Pluggable kernel backends and their selection policy.

A :class:`KernelBackend` answers the kernel-level questions the explicit
strategy asks: evaluate a column of compiled models' po-pair masks over a
test (:meth:`~KernelBackend.po_pair_masks`), and decide whether some
execution honours one forced po-pair mask (:meth:`~KernelBackend.allowed`,
a bool).  :meth:`~KernelBackend.search` runs the same decide/propagate/undo
search for an edge list and returns the witness, for the consumers that
need one.  Two implementations:

* ``bigint`` — the original Python-int kernel of
  :mod:`repro.checker.kernel` and the closure lowering of
  :mod:`repro.compile.lower_masks`; the semantic reference, and the
  fallback when the C extension is not built.
* ``native`` — the C extension :mod:`repro.native._kernelmod` over
  fixed-width word arrays (:mod:`repro.native.problem` /
  :mod:`repro.native.flatprog`), when built; the fast path.  The
  differential suite holds it bit-identical to ``bigint``.

Selection (:func:`resolve_kernel`) resolves, in order: an explicit
backend instance > an explicit name > the ``REPRO_KERNEL`` environment
variable (consulted only when the spec is absent or ``"auto"``) >
``auto`` = ``native`` when the extension imports, else ``bigint``.
Requesting ``native`` explicitly when the extension is missing is an error;
``auto`` degrades silently (the build is declared optional in packaging,
so a failed compile must never break a pure-Python install).  Resolution
happens when an engine/strategy is *constructed* — once per process for
pipeline workers — never per check.
"""

from __future__ import annotations

import os
from array import array
from itertools import chain
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

from repro.checker.kernel import IndexedExecution, KernelSearch, KernelWitness
from repro.native.flatprog import flat_program_multi
from repro.native.problem import KernelProblem, kernel_problem

#: Environment variable consulted by ``auto`` kernel resolution.
KERNEL_ENV = "REPRO_KERNEL"

#: Accepted --kernel / CheckEngine(kernel=...) / REPRO_KERNEL spellings.
KERNEL_CHOICES = ("auto", "native", "bigint")

_NATIVE_IMPORT_ERROR: Optional[str] = None
_NATIVE_CHECKED = False


def native_available() -> bool:
    """True iff the C extension imports in this process (checked once)."""
    global _NATIVE_CHECKED, _NATIVE_IMPORT_ERROR
    if not _NATIVE_CHECKED:
        try:
            from repro.native import _kernelmod  # noqa: F401
        except ImportError as error:
            _NATIVE_IMPORT_ERROR = str(error)
        _NATIVE_CHECKED = True
    return _NATIVE_IMPORT_ERROR is None


def native_import_error() -> Optional[str]:
    """The import failure that made ``native`` unavailable, if any."""
    native_available()
    return _NATIVE_IMPORT_ERROR


class KernelBackend:
    """Interface the explicit strategy drives; see the module docstring.

    :meth:`allowed` and :meth:`po_pair_masks` take a test's *candidate
    space*: an :class:`~repro.checker.kernel.IndexedExecution`, or — native
    only — a :class:`~repro.native.problem.KernelProblem` built straight
    from enumeration items (:meth:`~repro.engine.context.TestContext.
    candidate_space`).
    """

    name: str = ""
    #: True for the C-extension backend; drives the native/fallback counters.
    is_native: bool = False

    def search(
        self, indexed: IndexedExecution, po_edges: Sequence[Tuple[int, int]]
    ) -> Optional[KernelWitness]:
        """Run the kernel search; the witness found, or None."""
        raise NotImplementedError

    def allowed(self, space, mask: int) -> bool:
        """Whether some execution honours the po pairs set in ``mask``
        (a bitmask over the space's ``po_pairs``); no witness is built."""
        raise NotImplementedError

    def po_pair_masks(self, space, compiled_list) -> List[int]:
        """Evaluate a model column's po-pair truth vectors (int masks)."""
        raise NotImplementedError


class BigintKernelBackend(KernelBackend):
    """The original Python-int kernel — the semantic reference."""

    name = "bigint"

    def search(self, indexed, po_edges):
        return KernelSearch(indexed, po_edges).run()

    def allowed(self, indexed, mask):
        pairs = [pair for p, pair in enumerate(indexed.po_pairs) if (mask >> p) & 1]
        return KernelSearch(indexed, pairs).run() is not None

    def po_pair_masks(self, indexed, compiled_list):
        return [compiled.mask_program(indexed) for compiled in compiled_list]


_ROOT = attrgetter("root")


def _problem(space) -> KernelProblem:
    """The native problem of a candidate space (built once per execution)."""
    return space if type(space) is KernelProblem else kernel_problem(space)


class NativeKernelBackend(KernelBackend):
    """The C extension over contiguous word buffers."""

    name = "native"
    is_native = True

    def search(self, indexed, po_edges):
        problem = kernel_problem(indexed)
        result = problem.native.search(array("i", chain.from_iterable(po_edges)).tobytes())
        if result is None:
            return None
        return problem.witness(result[0], result[1])

    def allowed(self, space, mask):
        problem = _problem(space)
        return problem.native.allowed(mask.to_bytes(problem.pw * 8, "little"))

    def po_pair_masks(self, space, compiled_list):
        # One combined program for the column: registers are shared across
        # models through the hash-consed node ids, evaluated in one pass.
        if not compiled_list:
            return []
        program = flat_program_multi(list(map(_ROOT, compiled_list)))
        problem = _problem(space)
        return problem.native.eval_program(
            program.codes_bytes,
            program.num_instructions,
            problem.atom_buffer(program),
            program.outputs_bytes,
        )


_BIGINT = BigintKernelBackend()
_NATIVE = NativeKernelBackend()

_BY_NAME = {"bigint": _BIGINT, "native": _NATIVE}


def resolve_kernel(spec: object = None) -> KernelBackend:
    """Resolve a kernel specification to a backend instance.

    ``spec`` is a backend instance (returned as-is), one of
    :data:`KERNEL_CHOICES`, or None (= ``"auto"``).  ``auto`` consults
    ``REPRO_KERNEL`` and falls back to ``native``-if-available-else-
    ``bigint``; any explicit non-auto name overrides the environment.
    """
    if isinstance(spec, KernelBackend):
        return spec
    if spec is None:
        spec = "auto"
    if not isinstance(spec, str):
        raise TypeError(f"cannot resolve a kernel backend from {spec!r}")
    name = spec.strip().lower()
    if name == "auto":
        name = os.environ.get(KERNEL_ENV, "").strip().lower() or "auto"
        if name == "auto":
            return _NATIVE if native_available() else _BIGINT
        source = f" (from ${KERNEL_ENV})"
    else:
        source = ""
    backend = _BY_NAME.get(name)
    if backend is None:
        raise ValueError(
            f"unknown kernel backend {name!r}{source}; "
            f"expected one of {', '.join(KERNEL_CHOICES)}"
        )
    if backend.is_native and not native_available():
        raise ValueError(
            f"kernel backend 'native' requested{source} but the C extension "
            f"is not importable: {native_import_error()}"
        )
    return backend
