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

Each sample task solves with the registry's default ``"cdcl"`` solver, the
flat-array arena engine of :mod:`repro.sat.cdcl.solver`.  Statuses — and
therefore these statistics with a status-independent cost measure and no
per-sample budget — are solver-independent; pinned cost sequences hold for
one solver configuration only.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.runner import pool as _pool
from repro.runner.scheduler import (
    Executor,
    FailureModel,
    RetryPolicy,
    Scheduler,
    SchedulerCheckpoint,
    SchedulerRun,
    SimulatedGridExecutor,
    Task,
    TaskGraph,
)
from repro.sat.formula import CNF
from repro.sat.solver import SolverBudget
from repro.stats.montecarlo import MonteCarloEstimate, OnlineStatistics
from repro.stats.sampling import derive_child_seeds, sample_bits

#: Executor names accepted by :func:`estimate_family_scheduled`.
ESTIMATION_EXECUTORS = ("serial", "thread", "process-pool", "simulated-cluster")


def _sample_task(payload: tuple[int, ...]) -> dict[str, Any]:
    """Solve one sampled sub-instance in the primed worker (JSON-plain result)."""
    outcome = _pool._solve_one(payload)
    return {
        "assumptions": list(outcome.assumptions),
        "cost": outcome.cost,
        "status": outcome.status.value,
        "wall_time": outcome.wall_time,
    }


def _batch_task(payload: tuple[str | None, tuple[tuple[int, ...], ...]]) -> list[dict]:
    """Solve one batch of sampled rows in the primed worker (JSON-plain rows)."""
    return _pool._solve_batch(payload)


def _thread_safe_batch_fn(
    cnf: CNF,
    cost_measure: str,
    solver: str,
    solver_options: Mapping[str, object] | None,
    budget: SolverBudget | None,
) -> Callable[[tuple[str | None, tuple[tuple[int, ...], ...]]], list[dict]]:
    """A batch task function with one loaded solver *per thread* (see
    :func:`_thread_safe_sample_fn` for why sharing one would race)."""
    import threading

    from repro.api.registry import get_solver

    options = dict(solver_options or {})
    factory = get_solver(solver)
    local = threading.local()

    def solve_batch(payload: tuple[str | None, tuple[tuple[int, ...], ...]]) -> list[dict]:
        _segment, rows = payload  # threads share the parent's memory: no segment
        worker_solver = getattr(local, "solver", None)
        if worker_solver is None:
            worker_solver = factory(**options).load(cnf)
            local.solver = worker_solver
        results = worker_solver.solve_batch([tuple(row) for row in rows], budget=budget)
        return [
            {
                "assumptions": [int(lit) for lit in row],
                "cost": result.stats.cost(cost_measure),
                "status": result.status.value,
                "wall_time": result.stats.wall_time,
            }
            for row, result in zip(rows, results)
        ]

    return solve_batch


def _thread_safe_sample_fn(
    cnf: CNF,
    cost_measure: str,
    solver: str,
    solver_options: Mapping[str, object] | None,
    budget: SolverBudget | None,
) -> Callable[[tuple[int, ...]], dict[str, Any]]:
    """A sample task function with one solver *per thread*.

    A :class:`~repro.runner.scheduler.ThreadExecutor` runs attempts
    concurrently, and a CDCL solver is stateful during ``solve`` — sharing one
    instance across threads would race.  The CNF itself is only read, so it is
    shared; each worker thread lazily builds its own solver from the spec, and
    fresh-solve determinism keeps the per-sample results identical to the
    serial executor's.
    """
    import threading

    from repro.api.registry import get_solver

    options = dict(solver_options or {})
    factory = get_solver(solver)
    local = threading.local()

    def sample(literals: tuple[int, ...]) -> dict[str, Any]:
        worker_solver = getattr(local, "solver", None)
        if worker_solver is None:
            worker_solver = factory(**options)
            local.solver = worker_solver
        result = worker_solver.solve(cnf, assumptions=list(literals), budget=budget)
        return {
            "assumptions": [int(lit) for lit in literals],
            "cost": result.stats.cost(cost_measure),
            "status": result.status.value,
            "wall_time": result.stats.wall_time,
        }

    return sample


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


def estimation_batch_tasks(
    variables: Sequence[int],
    sample_size: int,
    seed: int,
    batch_size: int,
    segment: str | None = None,
) -> TaskGraph:
    """The batched task graph: ``ceil(N / batch_size)`` tasks of up to
    ``batch_size`` assumption rows each, in sample order.

    ``segment`` optionally names a shared :class:`~repro.sat.cdcl.image
    .ArenaImage` segment; with it, a task payload is just
    ``(segment name, assumption rows)`` — the zero-copy worker protocol.
    Concatenating the per-task result lists in task order reproduces sample
    order exactly, so the leader's fold is the serial fold.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    rows = _sample_literals(variables, sample_size, seed)
    tasks = []
    for index, begin in enumerate(range(0, len(rows), batch_size)):
        chunk = rows[begin : begin + batch_size]
        tasks.append(Task(task_id=f"batch-{index:06d}", payload=(segment, chunk)))
    return TaskGraph(tasks)


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


def _resolve_executor(
    executor: str | Executor,
    cnf: CNF,
    cost_measure: str,
    solver: str,
    solver_options: Mapping[str, object] | None,
    budget: SolverBudget | None,
    processes: int | None,
    cores: int,
    failures: FailureModel | None,
) -> Executor:
    if not isinstance(executor, str):
        return executor
    if executor not in ESTIMATION_EXECUTORS:
        raise ValueError(
            f"unknown estimation executor {executor!r}; expected one of "
            f"{ESTIMATION_EXECUTORS} or an Executor instance"
        )
    if executor in ("serial", "simulated-cluster"):
        # Prime the in-process worker state once; these executors run the
        # sample task function sequentially in this process.
        _pool._init_worker(cnf, cost_measure, False, solver, dict(solver_options or {}), budget)
    if executor == "serial":
        from repro.runner.scheduler import InlineExecutor

        return InlineExecutor(task_fn=_sample_task)
    if executor == "thread":
        from repro.runner.scheduler import ThreadExecutor

        # One solver per thread — attempts run concurrently, and sharing the
        # module-level worker state across threads would race.
        return ThreadExecutor(
            task_fn=_thread_safe_sample_fn(cnf, cost_measure, solver, solver_options, budget),
            num_workers=processes or 4,
        )
    if executor == "simulated-cluster":
        return SimulatedGridExecutor(
            task_fn=_sample_task,
            workers=cores,
            duration_of=lambda result: result["cost"],
            failures=failures,
        )
    # process-pool: the worker state is installed by the pool initializer.
    import multiprocessing

    from repro.runner.scheduler import ProcessExecutor

    return ProcessExecutor(
        task_fn=_sample_task,
        num_workers=processes or multiprocessing.cpu_count(),
        initializer=_pool._init_worker,
        initargs=(cnf, cost_measure, False, solver, dict(solver_options or {}), budget),
    )


def _resolve_batch_executor(
    executor: str | Executor,
    cnf: CNF,
    cost_measure: str,
    solver: str,
    solver_options: Mapping[str, object] | None,
    budget: SolverBudget | None,
    processes: int | None,
    cores: int,
    failures: FailureModel | None,
):
    """Resolve the executor for batched tasks; returns ``(executor, shared image)``.

    Only the process-pool path builds a shared image: the leader freezes the
    clause database once (:meth:`~repro.sat.cdcl.image.ArenaImage.freeze`) and
    shares it, workers attach read-only, and task payloads shrink to (segment
    name, assumption rows).  The caller owns the returned image and must
    ``unlink`` it when the run completes.  In-process executors pass the CNF
    through the worker state instead — same results, no segment to leak.
    """
    if not isinstance(executor, str):
        return executor, None
    if executor not in ESTIMATION_EXECUTORS:
        raise ValueError(
            f"unknown estimation executor {executor!r}; expected one of "
            f"{ESTIMATION_EXECUTORS} or an Executor instance"
        )
    options = dict(solver_options or {})
    if executor in ("serial", "simulated-cluster"):
        _pool._init_worker(cnf, cost_measure, False, solver, options, budget)
    if executor == "serial":
        from repro.runner.scheduler import InlineExecutor

        return InlineExecutor(task_fn=_batch_task), None
    if executor == "thread":
        from repro.runner.scheduler import ThreadExecutor

        return (
            ThreadExecutor(
                task_fn=_thread_safe_batch_fn(cnf, cost_measure, solver, solver_options, budget),
                num_workers=processes or 4,
            ),
            None,
        )
    if executor == "simulated-cluster":
        return (
            SimulatedGridExecutor(
                task_fn=_batch_task,
                workers=cores,
                duration_of=lambda result: sum(row["cost"] for row in result),
                failures=failures,
            ),
            None,
        )
    import multiprocessing

    from repro.runner.scheduler import ProcessExecutor

    shared = None
    if solver == "cdcl" and not options.get("simplify"):
        from repro.sat.cdcl.config import CDCLConfig
        from repro.sat.cdcl.image import ArenaImage

        shared = ArenaImage.freeze(cnf, CDCLConfig(**options)).share()
    # With a shared image the initializer ships no CNF at all; without one
    # (non-arena solver) the CNF rides in the initializer exactly once per
    # worker, like the scalar path.
    initargs = (
        None if shared is not None else cnf,
        cost_measure, False, solver, options, budget,
    )
    return (
        ProcessExecutor(
            task_fn=_batch_task,
            num_workers=processes or multiprocessing.cpu_count(),
            initializer=_pool._init_worker,
            initargs=initargs,
        ),
        shared,
    )


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

    ``executor`` is ``"serial"``, ``"thread"``, ``"process-pool"``,
    ``"simulated-cluster"`` or any :class:`~repro.runner.scheduler.Executor`.
    For a fixed ``(cnf, variables, sample_size, seed)`` every executor returns
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
    batch, and on the process-pool the formula travels as one shared
    read-only :class:`~repro.sat.cdcl.image.ArenaImage` segment instead of a
    pickled CNF per worker.  Per-sample costs and statuses — and therefore
    the folded statistics — are bit-identical to ``batch_size=1``; the
    statistics stay a pure function of (instance, decomposition, seed).
    """
    ordered = tuple(sorted(set(int(v) for v in variables)))
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    shared = None
    if batch_size == 1:
        graph = estimation_tasks(ordered, sample_size, seed)
        resolved = _resolve_executor(
            executor, cnf, cost_measure, solver, solver_options, budget,
            processes, cores, failures,
        )
    else:
        if isinstance(executor, str):
            from repro.api.registry import get_solver

            probe = get_solver(solver)(**dict(solver_options or {}))
            if not hasattr(probe, "solve_batch"):
                raise ValueError(
                    f"batch_size={batch_size} requires a solver with solve_batch "
                    f"(the arena 'cdcl' engine); {solver!r} does not expose it"
                )
        resolved, shared = _resolve_batch_executor(
            executor, cnf, cost_measure, solver, solver_options, budget,
            processes, cores, failures,
        )
        graph = estimation_batch_tasks(
            ordered, sample_size, seed, batch_size,
            segment=shared.name if shared is not None else None,
        )
    try:
        run = Scheduler(
            graph,
            resolved,
            retry=retry or RetryPolicy(max_attempts=5),
            checkpoint=checkpoint,
            checkpoint_sink=checkpoint_sink,
            checkpoint_every=checkpoint_every,
            interrupt_after=interrupt_after,
            trace=trace,
        ).run()
    finally:
        if shared is not None:
            # The leader owns the segment: destroy it however the run ended.
            # Workers keep their existing mappings (POSIX), so in-flight
            # attempts cannot crash on the unlink.
            shared.unlink()
    if run.failed:
        task_id, error = next(iter(run.failed.items()))
        raise RuntimeError(
            f"{len(run.failed)} estimation samples failed after retries "
            f"(first: {task_id}: {error})"
        )

    values = run.values_in_order()
    if batch_size > 1:
        # Task order × within-task row order == sample order: flattening
        # reproduces the serial fold exactly.
        values = [row for chunk in values for row in chunk]
    statistics = OnlineStatistics()
    costs: list[float] = []
    statuses: list[str] = []
    for value in values:
        costs.append(float(value["cost"]))
        statuses.append(str(value["status"]))
        statistics.add(float(value["cost"]))
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
