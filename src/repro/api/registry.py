"""Model and test registries: the one place names are resolved.

:class:`ModelRegistry` is the single resolver for model specs, built on
``core.catalog.named_models`` and also accepting user-registered models.
A spec resolves, in order, to

1. a live :class:`~repro.core.model.MemoryModel`;
2. a serialized ``repro/model`` document (so ``serve`` clients can send
   inline model definitions the server has never seen);
3. a registered or catalogued model (exact match, then case-insensitive);
4. a parametric model of the paper's family (``M4044`` and friends);
5. a ``.model`` file path (parsed once and cached by path, unless the
   registry is path-restricted);

anything else raises :class:`UnknownModelError` with the known names.

:class:`TestRegistry` plays the same role for litmus tests: the paper's
named tests (Test A, L1..L9), tests registered by the user, ``.litmus``
files (parsed once and cached by path), inline litmus text, and the
generated template suites (``"standard"``, ``"no_deps"``, ``"extended"``
— built once and memoized).  Memoization matters beyond speed: returning
the *same* :class:`~repro.core.litmus.LitmusTest` objects on every call is
what lets a shared :class:`~repro.engine.engine.CheckEngine` answer later
requests from its per-test context cache.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from repro.core.catalog import named_models
from repro.core.litmus import LitmusTest
from repro.core.model import MemoryModel
from repro.core.parametric import model_space, parametric_model

#: Anything that resolves to a model: an instance, a name, a ``.model``
#: path, or a serialized ``repro/model`` document.
ModelSpec = Union[MemoryModel, str, Mapping]

#: Anything that resolves to a test: an instance, a name, a ``.litmus``
#: path, inline litmus text, or a serialized litmus-test document.
TestSpec = Union[LitmusTest, str, Mapping]


#: Accepted aliases for the two parametric spaces: the paper-facing names
#: (``paper90``/``paper36``) resolve to the canonical keys.
SPACE_ALIASES = {"paper90": "deps", "paper36": "no_deps"}


def canonical_space(key: str) -> str:
    """Resolve a space key or alias to its canonical name.

    Raises :class:`UnknownModelError` for anything else.
    """
    resolved = SPACE_ALIASES.get(key, key)
    if resolved not in ("deps", "no_deps"):
        raise UnknownModelError(
            f"unknown model space {key!r} (expected 'deps', 'no_deps', "
            "'paper90' or 'paper36')"
        )
    return resolved


class UnknownModelError(ValueError):
    """Raised when a model name cannot be resolved."""


class UnknownTestError(ValueError):
    """Raised when a test name cannot be resolved."""


class ModelRegistry:
    """Resolves model names; holds the catalog plus user-registered models."""

    def __init__(self, include_catalog: bool = True, allow_paths: bool = True) -> None:
        #: whether string specs may name filesystem paths.  Network-facing
        #: callers (``repro serve --port``) turn this off so remote clients
        #: cannot probe or read server-side files through model specs.
        self.allow_paths = allow_paths
        self._models: Dict[str, MemoryModel] = {}
        if include_catalog:
            self._models.update(named_models())
        self._spaces: Dict[bool, List[MemoryModel]] = {}
        self._files: Dict[str, MemoryModel] = {}

    # ------------------------------------------------------------------
    def register(self, model: MemoryModel, replace: bool = False) -> MemoryModel:
        """Register a model under its name; returns the model for chaining."""
        if not replace and model.name in self._models:
            raise ValueError(f"model {model.name!r} is already registered")
        self._models[model.name] = model
        return model

    def names(self) -> Tuple[str, ...]:
        return tuple(self._models)

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def __iter__(self) -> Iterator[MemoryModel]:
        return iter(self._models.values())

    def __len__(self) -> int:
        return len(self._models)

    def view(self) -> "ModelRegistry":
        """A private overlay of this registry (one per serve connection).

        The view starts with this registry's current models and may
        register or replace freely without the change leaking back.  The
        memoized parametric spaces and the parsed-file cache are shared
        *by reference*: every view resolves the same space/model objects,
        which is what keeps a shared engine's identity-keyed caches warm
        across connections.
        """
        view = ModelRegistry.__new__(ModelRegistry)
        view.allow_paths = self.allow_paths
        view._models = dict(self._models)
        view._spaces = self._spaces
        view._files = self._files
        return view

    # ------------------------------------------------------------------
    def load(self, path: Union[str, os.PathLike]) -> MemoryModel:
        """Parse a ``.model`` file, caching the result by absolute path."""
        from repro.io.model_file import parse_model_file

        key = os.path.abspath(os.fspath(path))
        if key not in self._files:
            self._files[key] = parse_model_file(key)
        return self._files[key]

    def _load_for_resolve(self, spec: str) -> MemoryModel:
        """Load a path-shaped spec, keeping :meth:`resolve`'s error contract:
        a missing or malformed file is an unresolvable spec, so it surfaces
        as :class:`UnknownModelError` (with the underlying detail chained),
        not as a raw ``OSError``/``ModelFileError``."""
        from repro.io.model_file import ModelFileError

        try:
            return self.load(spec)
        except (OSError, ModelFileError) as error:
            raise UnknownModelError(str(error)) from error

    def resolve(self, spec: ModelSpec) -> MemoryModel:
        """Resolve a model spec.

        Accepts a :class:`MemoryModel`, a serialized ``repro/model``
        document (inline model definitions in requests), a
        registered/catalog name, a parametric ``Mxxxx`` name, or a path to
        a ``.model`` file.
        """
        if isinstance(spec, MemoryModel):
            return spec
        if isinstance(spec, Mapping):
            from repro.api.serialize import model_from_json

            return model_from_json(dict(spec))
        if not isinstance(spec, str):
            raise UnknownModelError(f"cannot resolve model spec {spec!r}")
        if spec in self._models:
            return self._models[spec]
        for name, model in self._models.items():
            if name.lower() == spec.lower():
                return model
        if self.allow_paths and (spec.endswith(".model") or os.sep in spec):
            return self._load_for_resolve(spec)
        if spec.startswith("M") and spec[1:].isdigit():
            try:
                return parametric_model(spec)
            except ValueError as error:
                raise UnknownModelError(str(error)) from error
        if self.allow_paths and os.path.exists(spec):
            return self._load_for_resolve(spec)
        raise UnknownModelError(
            f"unknown model {spec!r}; use one of {', '.join(self._models)}, "
            "a parametric name like M4044, or a .model file path"
        )

    def resolve_all(self, specs: Sequence[ModelSpec]) -> List[MemoryModel]:
        return [self.resolve(spec) for spec in specs]

    def space(self, key: str = "no_deps") -> List[MemoryModel]:
        """Return a memoized parametric model space.

        ``"deps"`` (alias ``"paper90"``) is the full 90-model space of
        Section 4.2; ``"no_deps"`` (alias ``"paper36"``) the 36-model
        dependency-free space of Figure 4.
        """
        include = canonical_space(key) == "deps"
        if include not in self._spaces:
            self._spaces[include] = model_space(include_data_dependencies=include)
        return self._spaces[include]

    # ------------------------------------------------------------------
    def summary(self) -> List[str]:
        """Return one formatted line per registered model."""
        lines = []
        for name, model in self._models.items():
            formula = model.formula if model.formula is not None else "<python function>"
            lines.append(f"{name:10s} F(x, y) = {formula}")
        return lines


class TestRegistry:
    """Resolves litmus tests from names, files, inline text and documents."""

    #: not a pytest test class, despite the name
    __test__ = False

    #: Suite keys understood by :meth:`suite`.
    SUITE_KEYS = ("standard", "no_deps", "extended")

    def __init__(self, include_named: bool = True, allow_paths: bool = True) -> None:
        #: whether string specs may name filesystem paths.  Network-facing
        #: callers (``repro serve --port``) turn this off so remote clients
        #: cannot probe or read server-side files through test specs.
        self.allow_paths = allow_paths
        self._tests: Dict[str, LitmusTest] = {}
        if include_named:
            from repro.generation.named_tests import all_named_tests

            self._tests.update(all_named_tests())
        self._files: Dict[str, LitmusTest] = {}
        self._suites: Dict[str, List[LitmusTest]] = {}
        self._comparison_suites: Dict[Tuple[str, bool], List[LitmusTest]] = {}

    # ------------------------------------------------------------------
    def register(self, test: LitmusTest, replace: bool = False) -> LitmusTest:
        """Register a test under its name; returns the test for chaining."""
        if not replace and test.name in self._tests:
            raise ValueError(f"test {test.name!r} is already registered")
        self._tests[test.name] = test
        return test

    def names(self) -> Tuple[str, ...]:
        return tuple(self._tests)

    def __contains__(self, name: str) -> bool:
        return name in self._tests

    def view(self) -> "TestRegistry":
        """A private overlay of this registry (one per serve connection).

        Registered tests are copied (register/replace stays private); the
        memoized suites, comparison suites and parsed-file cache are
        shared by reference so every view returns the *same* test objects
        — the object identity a shared engine's per-test caches key on.
        """
        view = TestRegistry.__new__(TestRegistry)
        view.allow_paths = self.allow_paths
        view._tests = dict(self._tests)
        view._files = self._files
        view._suites = self._suites
        view._comparison_suites = self._comparison_suites
        return view

    # ------------------------------------------------------------------
    def load(self, path: Union[str, os.PathLike]) -> LitmusTest:
        """Parse a ``.litmus`` file, caching the result by absolute path."""
        from repro.io.parser import parse_litmus_file

        key = os.path.abspath(os.fspath(path))
        if key not in self._files:
            self._files[key] = parse_litmus_file(key)
        return self._files[key]

    def resolve(self, spec: TestSpec) -> LitmusTest:
        """Resolve a test spec.

        Accepts a :class:`LitmusTest`, a serialized litmus-test document, a
        registered test name, a path to a ``.litmus`` file, or inline litmus
        text (recognised by containing a newline).
        """
        if isinstance(spec, LitmusTest):
            return spec
        if isinstance(spec, Mapping):
            from repro.api.serialize import test_from_json

            return test_from_json(dict(spec))
        if not isinstance(spec, str):
            raise UnknownTestError(f"cannot resolve test spec {spec!r}")
        if spec in self._tests:
            return self._tests[spec]
        if "\n" in spec:
            from repro.io.parser import parse_litmus

            return parse_litmus(spec)
        if self.allow_paths and (
            spec.endswith(".litmus") or os.sep in spec or os.path.exists(spec)
        ):
            return self.load(spec)
        raise UnknownTestError(
            f"unknown test {spec!r}; use a registered name "
            f"({', '.join(self._tests)}), a .litmus path, or inline litmus text"
        )

    # ------------------------------------------------------------------
    def suite(self, key: str = "standard") -> List[LitmusTest]:
        """Return a memoized generated template suite.

        ``"standard"`` is the paper's 230-instantiation suite (with data
        dependencies), ``"no_deps"`` the 124-instantiation dependency-free
        suite, and ``"extended"`` the suite over the control-dependency
        predicate set.  Repeated calls return the same test objects, so a
        shared engine keeps its per-test caches warm across requests.
        """
        if key not in self._suites:
            if key not in self.SUITE_KEYS:
                raise UnknownTestError(
                    f"unknown suite {key!r} (expected one of {', '.join(self.SUITE_KEYS)})"
                )
            from repro.core.predicates import EXTENDED_PREDICATES
            from repro.generation.suite import generate_suite, no_dependency_suite, standard_suite

            if key == "standard":
                self._suites[key] = standard_suite().tests()
            elif key == "no_deps":
                self._suites[key] = no_dependency_suite().tests()
            else:
                self._suites[key] = generate_suite(EXTENDED_PREDICATES).tests()
        return self._suites[key]

    def comparison_tests(self, key: str = "standard", include_named: bool = True) -> List[LitmusTest]:
        """Return a memoized comparison suite: template suite + L1..L9.

        This is the suite the comparison entry points historically used
        (``suite.tests() + list(L_TESTS)``), with stable object identity.
        """
        cache_key = (key, include_named)
        if cache_key not in self._comparison_suites:
            tests = list(self.suite(key))
            if include_named:
                from repro.generation.named_tests import L_TESTS

                names = {test.name for test in tests}
                tests.extend(test for test in L_TESTS if test.name not in names)
            self._comparison_suites[cache_key] = tests
        return self._comparison_suites[cache_key]

    def preferred_tests(self) -> List[LitmusTest]:
        """The paper's nine preferred edge-label tests, L1..L9."""
        from repro.generation.named_tests import L_TESTS

        return list(L_TESTS)
