"""Kernel resolution when the C extension is missing.

A failed optional build must never break a pure-Python install: ``auto``
degrades silently to the ``bigint`` reference, while an explicit
``native`` request is an error carrying the import failure.  The module
flags that cache the import probe are patched, so these tests behave the
same whether or not the extension is built here.
"""

import pytest

from repro.native import backend
from repro.native.backend import KERNEL_ENV, resolve_kernel

IMPORT_ERROR = "No module named 'repro.native._kernelmod'"


@pytest.fixture
def without_extension(monkeypatch):
    monkeypatch.setattr(backend, "_NATIVE_CHECKED", True)
    monkeypatch.setattr(backend, "_NATIVE_IMPORT_ERROR", IMPORT_ERROR)
    monkeypatch.delenv(KERNEL_ENV, raising=False)


def test_auto_falls_back_to_bigint(without_extension):
    assert resolve_kernel("auto").name == "bigint"
    assert resolve_kernel(None).name == "bigint"


def test_explicit_native_request_reports_the_import_error(without_extension):
    with pytest.raises(ValueError, match="not importable") as raised:
        resolve_kernel("native")
    assert IMPORT_ERROR in str(raised.value)


def test_unknown_kernel_name_lists_the_choices(without_extension):
    with pytest.raises(ValueError, match="expected one of auto, native, bigint") as raised:
        resolve_kernel("python")
    assert f"${KERNEL_ENV}" not in str(raised.value)


def test_unknown_kernel_from_the_environment_names_the_variable(
    without_extension, monkeypatch
):
    monkeypatch.setenv(KERNEL_ENV, "python")
    with pytest.raises(ValueError, match="expected one of auto, native, bigint") as raised:
        resolve_kernel("auto")
    assert f"(from ${KERNEL_ENV})" in str(raised.value)
