"""Monte Carlo estimation on the unified scheduler.

The estimating mode's inner loop — solve ``N`` sampled sub-instances, fold the
costs into :class:`~repro.stats.montecarlo.OnlineStatistics` — is exactly the
workload the paper farmed out to MPI computing processes and SAT@home hosts.
This module runs it on the scheduler (:mod:`repro.runner.scheduler`) with any
executor, and guarantees the one property a distributed estimator must have:

**the statistics are a pure function of (instance, decomposition, seed).**

Two mechanisms deliver that:

* every sample task draws its assignment from a private child seed spawned by
  the discipline of :func:`repro.stats.sampling.derive_child_seeds`, so sample
  ``j`` never depends on scheduling order or the worker count;
* costs are folded into the accumulator in *task order* (not completion
  order), so the floating-point fold is the serial fold.

Consequently the inline, thread, process-pool and simulated-cluster executors
produce bit-identical :class:`~repro.stats.montecarlo.OnlineStatistics` — even
with injected worker crashes, stragglers and duplicated results — and a run
interrupted mid-trajectory resumes from its checkpoint to the same statistics
it would have produced uninterrupted.

Every executor runs the one row-solving kernel of :mod:`repro.runner.pool`
on this run's own worker state: a sample task is one fresh solve, a batched
task one ``solve_batch`` call, and either returns
:class:`~repro.runner.pool.SubproblemOutcome` records.  Checkpoints keep the
estimation format — one ``{assumptions, cost, status, wall_time}`` record per
sample.

Each sample task solves with the registry's default ``"cdcl"`` solver, the
flat-array arena engine of :mod:`repro.sat.cdcl.solver`.  Statuses — and
therefore these statistics with a status-independent cost measure and no
per-sample budget — are solver-independent; pinned cost sequences hold for
one solver configuration only.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.runner.pool import SubproblemOutcome, WorkerState, decode_outcome, worker_executor
from repro.runner.scheduler import (
    Executor,
    FailureModel,
    RetryPolicy,
    Scheduler,
    SchedulerCheckpoint,
    SchedulerRun,
    Task,
    TaskGraph,
)
from repro.sat.formula import CNF
from repro.sat.solver import SolverBudget
from repro.stats.montecarlo import MonteCarloEstimate, OnlineStatistics
from repro.stats.sampling import derive_child_seeds, sample_bits

#: Executor names accepted by :func:`estimate_family_scheduled`.
ESTIMATION_EXECUTORS = ("serial", "thread", "process-pool", "simulated-cluster")


def _sample_literals(
    variables: Sequence[int], sample_size: int, seed: int
) -> tuple[tuple[int, ...], ...]:
    """The sampled assumption rows, in sample order (the single source).

    Sample ``j``'s assignment bits come from child seed ``j`` of ``seed``
    (spawn discipline), so the rows — and therefore every trajectory computed
    from them — are independent of how tasks are later scheduled *and* of
    whether they are shipped one per task or batched.
    """
    ordered = tuple(sorted(set(int(v) for v in variables)))
    if not ordered:
        raise ValueError("cannot estimate over an empty decomposition set")
    if sample_size < 1:
        raise ValueError("sample_size must be at least 1")
    rows = []
    for child in derive_child_seeds(seed, sample_size):
        bits = sample_bits(child, len(ordered))
        rows.append(tuple(var if bit else -var for var, bit in zip(ordered, bits)))
    return tuple(rows)


def estimation_tasks(
    variables: Sequence[int], sample_size: int, seed: int
) -> TaskGraph:
    """The task graph of one predictive-function evaluation (one sample per task)."""
    return TaskGraph(
        Task(task_id=f"sample-{index:06d}", payload=literals)
        for index, literals in enumerate(_sample_literals(variables, sample_size, seed))
    )


def _batched_tasks(rows: Sequence[tuple[int, ...]], batch_size: int) -> TaskGraph:
    """``ceil(N / batch_size)`` tasks of up to ``batch_size`` rows each, in sample order.

    Concatenating the per-task outcome lists in task order reproduces sample
    order exactly, so the leader's fold is the serial fold.
    """
    return TaskGraph(
        Task(task_id=f"batch-{index:06d}", payload=tuple(rows[begin : begin + batch_size]))
        for index, begin in enumerate(range(0, len(rows), batch_size))
    )


def _encode_sample(outcome: SubproblemOutcome) -> dict[str, Any]:
    """One sample's checkpoint record (the estimation checkpoint format)."""
    return {
        "assumptions": list(outcome.assumptions),
        "cost": outcome.cost,
        "status": outcome.status.value,
        "wall_time": outcome.wall_time,
    }


def _encode_batch(outcomes: Sequence[SubproblemOutcome]) -> list[dict[str, Any]]:
    return [_encode_sample(outcome) for outcome in outcomes]


def _decode_batch(records: Sequence[dict[str, Any]]) -> list[SubproblemOutcome]:
    return [decode_outcome(record) for record in records]


@dataclass
class ScheduledEstimation:
    """Result of one scheduler-driven predictive-function evaluation."""

    variables: tuple[int, ...]
    sample_size: int
    cost_measure: str
    seed: int
    statistics: OnlineStatistics
    #: Per-sample costs in sample order (the serial fold order).
    costs: list[float] = field(default_factory=list)
    #: Per-sample statuses ("SAT"/"UNSAT"/"UNKNOWN") in sample order.
    statuses: list[str] = field(default_factory=list)
    run: SchedulerRun | None = None

    @property
    def value(self) -> float:
        """``F = 2^d · mean`` — the predicted total sequential cost."""
        return float(1 << len(self.variables)) * self.statistics.mean

    def estimate(self, confidence_level: float = 0.95) -> MonteCarloEstimate:
        """The accumulated statistics as a :class:`MonteCarloEstimate`."""
        return self.statistics.estimate(confidence_level)


def estimate_family_scheduled(
    cnf: CNF,
    variables: Sequence[int],
    sample_size: int = 100,
    seed: int = 0,
    executor: str | Executor = "serial",
    cost_measure: str = "propagations",
    solver: str = "cdcl",
    solver_options: Mapping[str, object] | None = None,
    budget: SolverBudget | None = None,
    processes: int | None = None,
    cores: int = 8,
    failures: FailureModel | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: SchedulerCheckpoint | None = None,
    checkpoint_sink: Callable[[SchedulerCheckpoint], None] | None = None,
    checkpoint_every: int = 1,
    interrupt_after: int | None = None,
    trace=None,
    batch_size: int = 1,
) -> ScheduledEstimation:
    """Evaluate the predictive function's sample through a scheduler executor.

    ``executor`` is ``"serial"``, ``"thread"``, ``"process-pool"`` or
    ``"simulated-cluster"`` — built by :func:`repro.runner.pool.worker_executor`
    around one :class:`~repro.runner.pool.WorkerState` for this run — or any
    :class:`~repro.runner.scheduler.Executor` whose task function returns
    what that kernel returns (a :class:`~repro.runner.pool.SubproblemOutcome`
    per one-row task, a list of them per batched task).  For a fixed
    ``(cnf, variables, sample_size, seed)`` every executor returns
    bit-identical statistics; the simulated executor additionally accepts a
    :class:`~repro.runner.scheduler.FailureModel` whose injected faults change
    the virtual makespan but never the statistics.  ``checkpoint`` /
    ``checkpoint_sink`` resume and persist partial trajectories;
    ``interrupt_after`` pauses the run after that many fresh samples (the
    checkpoint/resume round-trip the tests exercise).  ``trace`` is an
    optional :class:`repro.trace.format.TraceWriter` receiving the
    scheduler's task-lifecycle events.

    ``batch_size > 1`` ships up to that many sampled rows per task and solves
    them with :meth:`~repro.sat.cdcl.CDCLSolver.solve_batch` (requires a
    solver exposing it): the root propagation prefix is shared within each
    batch, each worker thread loads the formula once, and on the
    process-pool the formula reaches the workers as a frozen
    :class:`~repro.sat.cdcl.image.ArenaImage` in the pool initializer, which
    forked workers inherit without pickling.  Per-sample costs and statuses
    — and therefore the folded statistics — are bit-identical to
    ``batch_size=1``; the statistics stay a pure function of (instance,
    decomposition, seed).
    """
    ordered = tuple(sorted(set(int(v) for v in variables)))
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    batched = batch_size > 1
    if batched:
        graph = _batched_tasks(_sample_literals(ordered, sample_size, seed), batch_size)
        encode, decode = _encode_batch, _decode_batch
    else:
        graph = estimation_tasks(ordered, sample_size, seed)
        encode, decode = _encode_sample, decode_outcome
    if isinstance(executor, str):
        if executor not in ESTIMATION_EXECUTORS:
            raise ValueError(
                f"unknown estimation executor {executor!r}; expected one of "
                f"{ESTIMATION_EXECUTORS} or an Executor instance"
            )
        state = WorkerState(cnf, solver, solver_options, cost_measure, budget, batched)
        if batched and not state.solves_in_batches:
            raise ValueError(
                f"batch_size > 1 requires a solver with solve_batch (the arena "
                f"'cdcl' engine) and simplify off; {solver!r} cannot batch"
            )
        executors = worker_executor(
            executor,
            state,
            workers=cores if executor == "simulated-cluster" else processes,
            failures=failures,
        )
    else:
        executors = nullcontext(executor)
    with executors as resolved:
        run = Scheduler(
            graph,
            resolved,
            retry=retry or RetryPolicy(max_attempts=5),
            checkpoint=checkpoint,
            result_decoder=decode,
            checkpoint_sink=checkpoint_sink,
            result_encoder=encode,
            checkpoint_every=checkpoint_every,
            interrupt_after=interrupt_after,
            trace=trace,
        ).run()
    if run.failed:
        task_id, error = next(iter(run.failed.items()))
        raise RuntimeError(
            f"{len(run.failed)} estimation samples failed after retries "
            f"(first: {task_id}: {error})"
        )

    outcomes = run.values_in_order()
    if batched:
        # Task order × within-task row order == sample order: flattening
        # reproduces the serial fold exactly.
        outcomes = [outcome for chunk in outcomes for outcome in chunk]
    statistics = OnlineStatistics()
    costs: list[float] = []
    statuses: list[str] = []
    for outcome in outcomes:
        costs.append(outcome.cost)
        statuses.append(outcome.status.value)
        statistics.add(outcome.cost)
    return ScheduledEstimation(
        variables=ordered,
        sample_size=sample_size,
        cost_measure=cost_measure,
        seed=seed,
        statistics=statistics,
        costs=costs,
        statuses=statuses,
        run=run,
    )
