"""Pluggable kernel backends and their selection policy.

A :class:`KernelBackend` answers the two kernel-level questions the explicit
strategy asks: run the decide/propagate/undo search for one po-edge set
(:meth:`~KernelBackend.search`, returning the witness or None), and
evaluate a column of compiled models' po-pair masks over an execution
(:meth:`~KernelBackend.po_pair_masks`).  Two implementations:

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
from typing import List, Optional, Sequence, Tuple

from repro.checker.kernel import IndexedExecution, KernelSearch, KernelWitness
from repro.native.flatprog import flat_program_multi
from repro.native.problem import kernel_problem

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
    """Interface the explicit strategy drives; see the module docstring."""

    name: str = ""
    #: True for the C-extension backend; drives the native/fallback counters.
    is_native: bool = False

    def search(
        self, indexed: IndexedExecution, po_edges: Sequence[Tuple[int, int]]
    ) -> Optional[KernelWitness]:
        """Run the kernel search; the witness found, or None."""
        raise NotImplementedError

    def allowed(
        self, indexed: IndexedExecution, po_edges: Sequence[Tuple[int, int]]
    ) -> bool:
        """Decide admissibility for a model's program-order edges."""
        return self.search(indexed, po_edges) is not None

    def po_pair_masks(self, indexed: IndexedExecution, compiled_list) -> List[int]:
        """Evaluate a model column's po-pair truth vectors (int masks)."""
        raise NotImplementedError


class BigintKernelBackend(KernelBackend):
    """The original Python-int kernel — the semantic reference."""

    name = "bigint"

    def search(self, indexed, po_edges):
        return KernelSearch(indexed, po_edges).run()

    def po_pair_masks(self, indexed, compiled_list):
        return [compiled.mask_program(indexed) for compiled in compiled_list]


class NativeKernelBackend(KernelBackend):
    """The C extension over contiguous word buffers."""

    name = "native"
    is_native = True

    def search(self, indexed, po_edges):
        if indexed.infeasible:
            return None
        problem = kernel_problem(indexed)
        result = problem.native().search(problem.edges_to_bytes(po_edges))
        if result is None:
            return None
        return problem.witness(result[0], result[1])

    def po_pair_masks(self, indexed, compiled_list):
        # One combined program for the column: registers are shared across
        # models through the hash-consed node ids, evaluated in one pass.
        if not compiled_list:
            return []
        program = flat_program_multi([compiled.root for compiled in compiled_list])
        problem = kernel_problem(indexed)
        atoms: List[bytes] = problem.atom_words_list(program.atoms)
        out = problem.native().eval_program(
            program.codes_bytes, program.num_instructions, atoms, program.outputs_bytes
        )
        row = problem.pw * 8
        from_bytes = int.from_bytes
        return [
            from_bytes(out[offset : offset + row], "little")
            for offset in range(0, len(out), row)
        ]


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
