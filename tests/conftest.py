"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import strategies as st

from repro.checker.explicit import ExplicitChecker
from repro.checker.reference import ReferenceChecker
from repro.checker.sat_checker import SatChecker
from repro.core.catalog import ALPHA, IBM370, PSO, RMO, SC, TSO
from repro.core.instructions import Fence, Load, Store
from repro.core.litmus import LitmusTest
from repro.core.parametric import ALLOWED_OPTIONS, ParametricModel
from repro.core.program import Program, Thread
from repro.native.backend import native_available

#: The kernel legs for cache-on vs cache-off differentials: the bigint
#: reference always, the C extension when it is built.
KERNEL_LEGS = (
    "bigint",
    pytest.param(
        "native", marks=pytest.mark.skipif(not native_available(), reason="C extension not built")
    ),
)


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def explicit_checker() -> ExplicitChecker:
    return ExplicitChecker()


@pytest.fixture(scope="session")
def sat_checker() -> SatChecker:
    return SatChecker()


@pytest.fixture(scope="session")
def reference_checker() -> ReferenceChecker:
    return ReferenceChecker()


@pytest.fixture(scope="session")
def named_model_list():
    return [SC, TSO, IBM370, PSO, RMO, ALPHA]


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
def parametric_models() -> st.SearchStrategy[ParametricModel]:
    """Random models from the paper's parametric family."""
    return st.builds(
        ParametricModel,
        ww=st.sampled_from(ALLOWED_OPTIONS["ww"]),
        wr=st.sampled_from(ALLOWED_OPTIONS["wr"]),
        rw=st.sampled_from(ALLOWED_OPTIONS["rw"]),
        rr=st.sampled_from(ALLOWED_OPTIONS["rr"]),
    )


_LOCATIONS = ("X", "Y")


@st.composite
def small_litmus_tests(draw) -> LitmusTest:
    """Random small two-thread litmus tests (at most 2 accesses + 1 fence per thread).

    The tests are kept tiny so the factorial reference checker stays usable;
    read values are drawn from the values stores can write (0, 1, 2) so a
    reasonable fraction of the generated outcomes is feasible.
    """
    threads: List[Thread] = []
    read_values: Dict[Tuple[int, int], int] = {}
    for thread_index in range(2):
        length = draw(st.integers(min_value=1, max_value=2))
        instructions = []
        register_serial = 0
        for access_index in range(length):
            if access_index > 0 and draw(st.booleans()):
                instructions.append(Fence())
            location = draw(st.sampled_from(_LOCATIONS))
            if draw(st.booleans()):
                register = f"r{thread_index + 1}{register_serial}"
                register_serial += 1
                instructions.append(Load(register, location))
                read_values[(thread_index, len(instructions) - 1)] = draw(
                    st.integers(min_value=0, max_value=2)
                )
            else:
                value = draw(st.integers(min_value=1, max_value=2))
                instructions.append(Store(location, value))
        threads.append(Thread(f"T{thread_index + 1}", instructions))
    return LitmusTest("random", Program(threads), read_values)
