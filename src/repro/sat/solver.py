"""Common solver interface: status codes, statistics, budgets, results.

Every solver in the library (CDCL, DPLL, WalkSAT) implements the small
:class:`Solver` protocol: it takes a :class:`~repro.sat.formula.CNF`, optional
assumptions, and an optional :class:`SolverBudget`, and returns a
:class:`SolveResult`.  The result carries both the outcome (SAT/UNSAT/UNKNOWN
plus the model when satisfiable) and a :class:`SolverStats` record.

The statistics record is what the Monte Carlo predictive function consumes: the
paper measures per-subproblem wall-clock time with a deterministic solver; we
additionally expose deterministic work counters (conflicts, decisions,
propagations) which make estimates exactly reproducible across machines.  The
choice of cost measure lives in :mod:`repro.core.predictive`.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.api.registry import get_cost_measure
from repro.sat.formula import CNF


class SolverStatus(enum.Enum):
    """Outcome of a solver run."""

    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"

    def __bool__(self) -> bool:  # pragma: no cover - guard against accidental truthiness
        raise TypeError(
            "SolverStatus must be compared explicitly (status is SolverStatus.SAT)"
        )


@dataclass
class SolverBudget:
    """Resource limits for a single solver call.

    A budget of ``None`` in every field means "run to completion".  Budgets are
    used by the orchestration layer to stop hopeless sub-problems early (the
    original PDSAT interrupted MiniSat through non-blocking MPI messages; a
    conflict/time budget is the single-process analogue).
    """

    max_conflicts: int | None = None
    max_decisions: int | None = None
    max_propagations: int | None = None
    max_seconds: float | None = None

    def is_unlimited(self) -> bool:
        """True when no limit is set."""
        return (
            self.max_conflicts is None
            and self.max_decisions is None
            and self.max_propagations is None
            and self.max_seconds is None
        )


@dataclass
class SolverStats:
    """Work counters accumulated during one solver call.

    ``conflicts``, ``decisions`` and ``propagations`` are deterministic for a
    deterministic solver and a fixed input, which is exactly the property the
    Monte Carlo method needs from the random variable ``ξ_{C,A}``.

    ``propagations`` counts the literals **assigned by unit propagation**
    (one per ENQUEUE trace event), not the literals dequeued from the
    propagation queue: assignment counts are a property of the propagation
    closure, so the CDCL engines agree on them whenever their trails agree,
    where dequeue counts depend on which watcher-visit order first surfaces
    a conflict.  Decision literals and the input formula's own unit clauses
    are not propagations.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    max_decision_level: int = 0
    wall_time: float = 0.0

    def cost(self, measure: str = "conflicts") -> float:
        """Return the scalar cost according to the selected measure.

        Measures are looked up in the cost-measure registry
        (:mod:`repro.api.measures`); the built-ins are ``"conflicts"``,
        ``"decisions"``, ``"propagations"``, ``"wall_time"`` and ``"weighted"``
        (a fixed linear combination that approximates wall time but stays
        deterministic).  An unknown measure raises
        :class:`repro.api.registry.UnknownNameError` (a ``ValueError``).
        """
        return get_cost_measure(measure)(self)

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Pointwise sum of two stats records (wall times add, levels take max)."""
        return SolverStats(
            conflicts=self.conflicts + other.conflicts,
            decisions=self.decisions + other.decisions,
            propagations=self.propagations + other.propagations,
            restarts=self.restarts + other.restarts,
            learned_clauses=self.learned_clauses + other.learned_clauses,
            deleted_clauses=self.deleted_clauses + other.deleted_clauses,
            max_decision_level=max(self.max_decision_level, other.max_decision_level),
            wall_time=self.wall_time + other.wall_time,
        )


@dataclass
class SolveResult:
    """Result of one solver call."""

    status: SolverStatus
    model: dict[int, bool] | None = None
    stats: SolverStats = field(default_factory=SolverStats)
    #: This call's conflict activity of each variable it bumped (nonzero
    #: values only); empty for solvers that keep no activity.
    conflict_activity: dict[int, float] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        """True when the instance was proven satisfiable."""
        return self.status is SolverStatus.SAT

    @property
    def is_unsat(self) -> bool:
        """True when the instance was proven unsatisfiable."""
        return self.status is SolverStatus.UNSAT

    @property
    def is_decided(self) -> bool:
        """True when the solver reached a definite answer within its budget."""
        return self.status is not SolverStatus.UNKNOWN

    def model_bits(self, variables: Sequence[int]) -> tuple[int, ...]:
        """Project the model onto ``variables`` as a 0/1 tuple."""
        if self.model is None:
            raise ValueError("no model available (instance not SAT or not solved)")
        return tuple(int(self.model[v]) for v in variables)


@runtime_checkable
class Solver(Protocol):
    """Minimal protocol every solver in the library implements."""

    def solve(
        self,
        cnf: CNF,
        assumptions: Sequence[int] = (),
        budget: SolverBudget | None = None,
    ) -> SolveResult:
        """Solve ``cnf`` under the given assumption literals within ``budget``."""
        ...  # pragma: no cover


def check_model(cnf: CNF, model: dict[int, bool]) -> bool:
    """Verify that ``model`` satisfies ``cnf`` (used as a post-condition in tests)."""
    for clause in cnf.clauses:
        if not any(model.get(abs(lit), False) == (lit > 0) for lit in clause):
            return False
    return True
