"""Component registries: the extension points of the experiment layer.

The paper's PDSAT is one orchestrator with interchangeable parts — cost
measures, metaheuristics, partitioning techniques and execution substrates.
This module gives every family of parts a named registry so that experiment
configurations can refer to components by string and third-party code can plug
in new ones:

* ``@register_cipher`` — keystream-generator presets (``"geffe-tiny"``, …);
* ``@register_solver`` — sub-problem solvers (``"cdcl"``, ``"dpll"``, …);
* ``@register_minimizer`` — predictive-function minimisers (``"tabu"``, …);
* ``@register_partitioner`` — classical partitioning techniques;
* ``@register_backend`` — execution backends (``"serial"``, ``"process-pool"``,
  ``"simulated-cluster"``, ``"volunteer-grid"``);
* ``@register_preprocessor`` — CNF preprocessing pipelines (``"satelite"``,
  ``"units-only"``, …);
* ``@register_portfolio`` — diversified portfolio member sets (``"default-8"``,
  ``"tiny-4"``, …) for the isolated and clause-sharing portfolio solvers;

plus the matching ``get_*()`` / ``list_*()`` lookups.  The cost-measure
registry is populated by :mod:`repro.api.measures`.

The built-in components register themselves when their home modules are
imported; the lookup functions lazily import those modules, so
``list_solvers()`` is complete even when only :mod:`repro.api` was imported.
This module itself imports nothing from the rest of the library, which keeps
it safe to use from low-level modules such as :mod:`repro.sat.solver`.
"""

from __future__ import annotations

import importlib
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any


class RegistryError(ValueError):
    """Base class of registry failures (a :class:`ValueError` subclass)."""


class DuplicateNameError(RegistryError):
    """Raised when a name is registered twice without ``replace=True``."""


class UnknownNameError(RegistryError):
    """Raised when a name is looked up that no component registered."""


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: its name, factory object and description."""

    name: str
    obj: Any
    description: str = ""


#: Modules whose import registers every built-in component.
_BUILTIN_MODULES = (
    "repro.ciphers",
    "repro.sat.cdcl.solver",
    "repro.sat.dpll",
    "repro.sat.walksat",
    "repro.sat.lookahead",
    "repro.core.annealing",
    "repro.core.tabu",
    "repro.core.hillclimb",
    "repro.core.genetic",
    "repro.partitioning.guiding_path",
    "repro.partitioning.scattering",
    "repro.partitioning.lookahead_partition",
    "repro.api.backends",
    "repro.sat.simplify",
    "repro.portfolio.portfolio",
)

class _ModuleLoader:
    """Imports a fixed list of registering modules once, safely across threads.

    ``loaded`` is set only after every import has finished, so another
    thread never sees a half-filled registry: it waits on the lock instead.
    Lookups made by the importing thread itself while the imports run (a
    module that queries a registry at import time) return at once and see
    the registries as filled so far.
    """

    def __init__(self, *modules: str) -> None:
        self.modules = modules
        self.loaded = False
        self._loading = False
        self._lock = threading.RLock()

    def __call__(self) -> None:
        if self.loaded:
            return
        with self._lock:
            if self.loaded or self._loading:
                return
            self._loading = True
            try:
                for module in self.modules:
                    importlib.import_module(module)
                self.loaded = True
            finally:
                self._loading = False


#: Import the modules that register the library's built-in components.
_ensure_builtins = _ModuleLoader(*_BUILTIN_MODULES)

#: Import the module that registers the built-in cost measures.
_ensure_measures = _ModuleLoader("repro.api.measures")


@dataclass
class Registry:
    """A named mapping from component names to factories.

    ``kind`` is the human-readable family name used in error messages;
    ``ensure`` is an optional hook that loads the built-in members before any
    lookup, so registries are complete without eager imports.
    """

    kind: str
    ensure: Callable[[], None] | None = None
    _entries: dict[str, RegistryEntry] = field(default_factory=dict)

    def add(self, name: str, obj: Any, description: str = "", replace: bool = False) -> Any:
        """Register ``obj`` under ``name``; returns ``obj`` unchanged."""
        if not name or not isinstance(name, str):
            raise RegistryError(f"a {self.kind} name must be a non-empty string")
        if name in self._entries and not replace:
            raise DuplicateNameError(
                f"{self.kind} {name!r} is already registered; pass replace=True to override"
            )
        self._entries[name] = RegistryEntry(name=name, obj=obj, description=description)
        return obj

    def register(
        self, name: str, *, description: str = "", replace: bool = False
    ) -> Callable[[Any], Any]:
        """Decorator form of :meth:`add` (returns the decorated object unchanged)."""

        def decorator(obj: Any) -> Any:
            return self.add(name, obj, description=description, replace=replace)

        return decorator

    def get(self, name: str) -> Any:
        """Look up the component registered under ``name``.

        Raises :class:`UnknownNameError` (a ``ValueError``) listing the
        registered choices when the name is unknown — the one consistent error
        every layer of the library reports for a bad component name.
        """
        return self.entry(name).obj

    def entry(self, name: str) -> RegistryEntry:
        """Look up the full :class:`RegistryEntry` for ``name``."""
        if self.ensure is not None:
            self.ensure()
        try:
            return self._entries[name]
        except KeyError:
            choices = ", ".join(self.names()) or "(none registered)"
            raise UnknownNameError(
                f"unknown {self.kind} {name!r}; choose one of: {choices}"
            ) from None

    def names(self) -> list[str]:
        """Sorted names of every registered component."""
        if self.ensure is not None:
            self.ensure()
        return sorted(self._entries)

    def entries(self) -> list[RegistryEntry]:
        """Every registered entry, sorted by name."""
        if self.ensure is not None:
            self.ensure()
        return [self._entries[name] for name in sorted(self._entries)]

    def unregister(self, name: str) -> None:
        """Remove a registration (mainly for tests and interactive sessions)."""
        self._entries.pop(name, None)

    def __contains__(self, name: object) -> bool:
        if self.ensure is not None:
            self.ensure()
        return name in self._entries

    def __len__(self) -> int:
        if self.ensure is not None:
            self.ensure()
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())


#: The component registries of the experiment layer.
CIPHERS = Registry("cipher", ensure=_ensure_builtins)
SOLVERS = Registry("solver", ensure=_ensure_builtins)
MINIMIZERS = Registry("minimizer", ensure=_ensure_builtins)
PARTITIONERS = Registry("partitioner", ensure=_ensure_builtins)
BACKENDS = Registry("backend", ensure=_ensure_builtins)
PREPROCESSORS = Registry("preprocessor", ensure=_ensure_builtins)
PORTFOLIOS = Registry("portfolio", ensure=_ensure_builtins)
COST_MEASURES = Registry("cost measure", ensure=_ensure_measures)


# ----------------------------------------------------------------- decorators
def register_cipher(name: str, *, description: str = "", replace: bool = False):
    """Register a no-argument keystream-generator factory under ``name``."""
    return CIPHERS.register(name, description=description, replace=replace)


def register_solver(name: str, *, description: str = "", replace: bool = False):
    """Register a solver factory ``fn(**options) -> Solver`` under ``name``."""
    return SOLVERS.register(name, description=description, replace=replace)


def register_minimizer(name: str, *, description: str = "", replace: bool = False):
    """Register a minimizer factory under ``name``.

    The factory signature is
    ``fn(evaluator, search_space, *, stopping=None, seed=0, config=None, **options)``.
    """
    return MINIMIZERS.register(name, description=description, replace=replace)


def register_partitioner(name: str, *, description: str = "", replace: bool = False):
    """Register a partitioner factory ``fn(cnf, parts, **options)`` under ``name``."""
    return PARTITIONERS.register(name, description=description, replace=replace)


def register_backend(name: str, *, description: str = "", replace: bool = False):
    """Register an execution-backend factory ``fn(**options)`` under ``name``."""
    return BACKENDS.register(name, description=description, replace=replace)


def register_preprocessor(name: str, *, description: str = "", replace: bool = False):
    """Register a preprocessor factory ``fn(**options) -> Preprocessor`` under ``name``."""
    return PREPROCESSORS.register(name, description=description, replace=replace)


def register_portfolio(name: str, *, description: str = "", replace: bool = False):
    """Register a portfolio-member factory under ``name``.

    The factory signature is ``fn() -> list[SolverConfiguration]``: a fresh
    list of diversified member configurations, consumed by both the isolated
    :class:`~repro.portfolio.portfolio.PortfolioSolver` and the
    clause-sharing :class:`~repro.portfolio.sharing.SharingPortfolioSolver`.
    """
    return PORTFOLIOS.register(name, description=description, replace=replace)


# -------------------------------------------------------------------- lookups
def get_cipher(name: str):
    """The cipher-preset factory registered under ``name``."""
    return CIPHERS.get(name)


def list_ciphers() -> list[str]:
    """Sorted names of the registered cipher presets."""
    return CIPHERS.names()


def get_solver(name: str):
    """The solver factory registered under ``name``."""
    return SOLVERS.get(name)


def list_solvers() -> list[str]:
    """Sorted names of the registered solvers."""
    return SOLVERS.names()


def get_minimizer(name: str):
    """The minimizer factory registered under ``name``."""
    return MINIMIZERS.get(name)


def list_minimizers() -> list[str]:
    """Sorted names of the registered predictive-function minimisers."""
    return MINIMIZERS.names()


def get_partitioner(name: str):
    """The partitioner factory registered under ``name``."""
    return PARTITIONERS.get(name)


def list_partitioners() -> list[str]:
    """Sorted names of the registered partitioning techniques."""
    return PARTITIONERS.names()


def get_backend(name: str):
    """The execution-backend factory registered under ``name``."""
    return BACKENDS.get(name)


def list_backends() -> list[str]:
    """Sorted names of the registered execution backends."""
    return BACKENDS.names()


def get_preprocessor(name: str):
    """The preprocessor factory registered under ``name``."""
    return PREPROCESSORS.get(name)


def list_preprocessors() -> list[str]:
    """Sorted names of the registered CNF preprocessors."""
    return PREPROCESSORS.names()


def get_portfolio(name: str):
    """The portfolio-member factory registered under ``name``."""
    return PORTFOLIOS.get(name)


def list_portfolios() -> list[str]:
    """Sorted names of the registered portfolio presets."""
    return PORTFOLIOS.names()


def get_cost_measure(name: str):
    """The :class:`~repro.api.measures.CostMeasure` registered under ``name``."""
    return COST_MEASURES.get(name)


def list_cost_measures() -> list[str]:
    """Sorted names of the registered cost measures."""
    return COST_MEASURES.names()
