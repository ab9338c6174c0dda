"""A diversified solver portfolio and its comparison against partitioning.

A parallel portfolio runs ``M`` differently-configured copies of a sequential
solver on the *same* instance and stops as soon as one of them finishes.  With
deterministic solvers and a deterministic cost measure the parallel run can be
simulated exactly: run every configuration to completion (or to a budget),
record its cost, and the portfolio's virtual wall-clock on ``M`` cores is the
*minimum* cost over the configurations, while the work it burned is the sum of
what every copy executed before that point.

This is the counterpart the paper's introduction positions partitioning
against: a portfolio helps only as much as its most lucky member, whereas a
partitioning divides the work.  The comparison function at the bottom runs both
on the same instance and the same virtual core count.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.api.registry import register_portfolio
from repro.core.decomposition import DecompositionSet
from repro.runner.cluster import simulate_makespan
from repro.sat.cdcl import CDCLConfig, CDCLSolver
from repro.sat.formula import CNF
from repro.sat.solver import SolveResult, SolverBudget, SolverStatus


#: Cost measure -> the :class:`SolverBudget` field that charges it.  Only
#: deterministic work counters appear here: slicing by ``max_seconds`` would
#: make the virtual-portfolio simulation machine-dependent (and the exact
#: sharing-vs-isolated counts in the tests flaky), so wall-clock measures are
#: rejected.
_SLICEABLE_MEASURES = {
    "conflicts": "max_conflicts",
    "decisions": "max_decisions",
    "propagations": "max_propagations",
}


def slice_budget_for(cost_measure: str, units: int) -> SolverBudget:
    """A per-slice :class:`SolverBudget` of ``units`` cost-measure units.

    The round-robin time-slicing of the sharing portfolio charges each
    member's virtual round in the *cost measure* — deterministic solver work
    counters — never in wall-clock seconds, so a sliced run is bit-identical
    across machines.  Measures without a matching deterministic budget field
    (``wall_time``, ``weighted``) raise :class:`ValueError`.
    """
    budget_field = _SLICEABLE_MEASURES.get(cost_measure)
    if budget_field is None:
        raise ValueError(
            f"cost measure {cost_measure!r} cannot budget a deterministic "
            f"slice; use one of {sorted(_SLICEABLE_MEASURES)}"
        )
    if units < 1:
        raise ValueError("a slice budget must be at least 1 unit")
    return SolverBudget(**{budget_field: units})


@dataclass(frozen=True)
class SolverConfiguration:
    """One member of the portfolio: a name plus a CDCL configuration."""

    name: str
    config: CDCLConfig

    def build_solver(self) -> CDCLSolver:
        """Instantiate a fresh solver for this configuration."""
        return CDCLSolver(config=self.config)


@register_portfolio("default-8", description="restart/phase/decay-diversified 8 members")
def default_portfolio() -> list[SolverConfiguration]:
    """A standard 8-member portfolio diversified on restarts, phase and decay."""
    return [
        SolverConfiguration("luby-false", CDCLConfig(use_luby_restarts=True, default_phase=False)),
        SolverConfiguration("luby-true", CDCLConfig(use_luby_restarts=True, default_phase=True)),
        SolverConfiguration(
            "geometric-false", CDCLConfig(use_luby_restarts=False, default_phase=False)
        ),
        SolverConfiguration(
            "geometric-true", CDCLConfig(use_luby_restarts=False, default_phase=True)
        ),
        SolverConfiguration("fast-decay", CDCLConfig(var_decay=0.85)),
        SolverConfiguration("slow-decay", CDCLConfig(var_decay=0.99)),
        SolverConfiguration("rapid-restarts", CDCLConfig(restart_base=16)),
        SolverConfiguration("no-minimization", CDCLConfig(clause_minimization=False)),
    ]


@register_portfolio("tiny-4", description="first four default members (tests, fuzzing)")
def tiny_portfolio() -> list[SolverConfiguration]:
    """The first four default members — the cheap preset tests and fuzz lanes use."""
    return default_portfolio()[:4]


@dataclass
class PortfolioMemberRun:
    """Result of one portfolio member on the instance."""

    configuration: SolverConfiguration
    result: SolveResult
    cost: float


@dataclass
class PortfolioResult:
    """Outcome of a (simulated parallel) portfolio run."""

    runs: list[PortfolioMemberRun] = field(default_factory=list)
    cost_measure: str = "propagations"
    wall_time: float = 0.0

    @property
    def status(self) -> SolverStatus:
        """The portfolio's answer: the answer of any decided member."""
        for run in self.runs:
            if run.result.is_decided:
                return run.result.status
        return SolverStatus.UNKNOWN

    @property
    def winner(self) -> PortfolioMemberRun | None:
        """The decided member with the smallest cost (the virtual first finisher)."""
        decided = [run for run in self.runs if run.result.is_decided]
        if not decided:
            return None
        return min(decided, key=lambda run: (run.cost, run.configuration.name))

    @property
    def virtual_parallel_cost(self) -> float:
        """Cost until the first member finishes when all run in parallel."""
        winner = self.winner
        return winner.cost if winner is not None else float("inf")

    @property
    def total_work(self) -> float:
        """Work burned by all members up to the winner's finish time."""
        cap = self.virtual_parallel_cost
        return sum(min(run.cost, cap) for run in self.runs)

    def summary(self) -> str:
        """One-line report used by benchmarks and examples."""
        winner = self.winner
        name = winner.configuration.name if winner else "none"
        return (
            f"portfolio of {len(self.runs)}: {self.status.value} by {name}, "
            f"virtual parallel cost {self.virtual_parallel_cost:.4g} ({self.cost_measure})"
        )


class PortfolioSolver:
    """Runs every configuration on the instance and simulates the parallel race.

    The member runs are dispatched as tasks of the unified scheduler
    (:mod:`repro.runner.scheduler`): the default inline executor reproduces
    the historical sequential loop bit for bit, while ``threads`` runs the
    members on a thread pool — results are folded in member order either way,
    so the reported portfolio is independent of the execution interleaving.

    The sliced isolated race — the baseline clause sharing is measured
    against — is :class:`~repro.portfolio.sharing.SharingPortfolioSolver`
    with ``SharingPolicy(per_round=0)``: identical slicing, no exchange.
    """

    def __init__(
        self,
        configurations: Sequence[SolverConfiguration] | None = None,
        cost_measure: str = "propagations",
        threads: int | None = None,
    ):
        self.configurations = (
            default_portfolio() if configurations is None else list(configurations)
        )
        if not self.configurations:
            raise ValueError("a portfolio needs at least one configuration")
        if threads is not None and threads < 1:
            raise ValueError("threads must be at least 1")
        self.cost_measure = cost_measure
        self.threads = threads

    def solve(
        self,
        cnf: CNF,
        assumptions: Sequence[int] = (),
        budget: SolverBudget | None = None,
    ) -> PortfolioResult:
        """Race the portfolio on ``cnf`` through the scheduler."""
        from repro.runner.scheduler import (
            InlineExecutor,
            RetryPolicy,
            Scheduler,
            Task,
            TaskGraph,
            ThreadExecutor,
        )

        started = time.perf_counter()
        members = {
            f"member-{index:03d}": configuration
            for index, configuration in enumerate(self.configurations)
        }
        literals = list(assumptions)

        def race_member(member_id: str) -> PortfolioMemberRun:
            configuration = members[member_id]
            result = configuration.build_solver().solve(
                cnf, assumptions=literals, budget=budget
            )
            return PortfolioMemberRun(
                configuration=configuration,
                result=result,
                cost=result.stats.cost(self.cost_measure),
            )

        graph = TaskGraph(Task(task_id=member_id, payload=member_id) for member_id in members)
        executor = (
            ThreadExecutor(task_fn=race_member, num_workers=self.threads)
            if self.threads is not None and self.threads > 1
            else InlineExecutor(task_fn=race_member)
        )
        run = Scheduler(graph, executor, retry=RetryPolicy(max_attempts=2)).run()
        if run.failed:
            member_id, error = next(iter(run.failed.items()))
            raise RuntimeError(f"portfolio member {member_id} failed: {error}")
        outcome = PortfolioResult(
            runs=run.values_in_order(), cost_measure=self.cost_measure
        )
        outcome.wall_time = time.perf_counter() - started
        return outcome


@dataclass
class PortfolioComparison:
    """Head-to-head numbers for the portfolio-vs-partitioning benchmark."""

    num_cores: int
    portfolio: PortfolioResult
    partitioning_makespan: float
    partitioning_total_work: float
    cost_measure: str

    @property
    def portfolio_wall_clock(self) -> float:
        """Virtual wall-clock of the portfolio on ``num_cores`` cores."""
        return self.portfolio.virtual_parallel_cost

    @property
    def speedup_of_partitioning(self) -> float:
        """How much faster the partitioned run finishes (> 1 favours partitioning)."""
        if self.partitioning_makespan == 0:
            return float("inf")
        return self.portfolio_wall_clock / self.partitioning_makespan


def compare_with_partitioning(
    cnf: CNF,
    decomposition: Sequence[int] | DecompositionSet,
    num_cores: int,
    configurations: Sequence[SolverConfiguration] | None = None,
    cost_measure: str = "propagations",
    budget: SolverBudget | None = None,
) -> PortfolioComparison:
    """Compare a portfolio against processing the decomposition family of ``decomposition``.

    The portfolio gets ``num_cores`` member configurations (its list is truncated
    or reused as-is); the partitioning side solves all ``2^d`` sub-problems and
    schedules them on ``num_cores`` virtual cores with the dynamic scheduler.
    """
    members = list(configurations) if configurations is not None else default_portfolio()
    portfolio = PortfolioSolver(members[:num_cores] or members, cost_measure=cost_measure)
    portfolio_result = portfolio.solve(cnf, budget=budget)

    dec = (
        decomposition
        if isinstance(decomposition, DecompositionSet)
        else DecompositionSet.of(decomposition)
    )
    solver = CDCLSolver()
    costs = []
    for assignment in dec.all_assignments():
        result = solver.solve(cnf, assumptions=assignment.to_literals(), budget=budget)
        costs.append(result.stats.cost(cost_measure))
    cluster = simulate_makespan(costs, num_cores)

    return PortfolioComparison(
        num_cores=num_cores,
        portfolio=portfolio_result,
        partitioning_makespan=cluster.makespan,
        partitioning_total_work=cluster.total_work,
        cost_measure=cost_measure,
    )
