"""Pluggable execution backends for processing sub-problem families.

PDSAT dispatched the sub-problems of a decomposition family to MPI computing
processes; the SAT@home campaign dispatched them to a BOINC volunteer grid.
This module keeps the :class:`ExecutionBackend` protocol as the compatibility
facade of that idea — a backend takes a CNF and a list of assumption vectors
and returns one :class:`SubproblemOutcome` per vector, in input order, plus
backend-specific metadata — but every built-in backend is a thin policy over
one shared path: the family becomes a task graph, the run gets its own
:class:`~repro.runner.pool.WorkerState`, the backend names an executor that
:func:`~repro.runner.pool.worker_executor` builds (inline, real process pool,
simulated virtual-clock cluster), and the scheduler of
:mod:`repro.runner.scheduler` contributes retry budgets, checkpoint/resume and
order-independent result folding.  Every task carries a chunk of rows,
cut when a worker goes idle and sized from the pace of the last chunk to
finish, so progress events stay about a quarter of a second apart however
slow the rows are — except on the simulated cluster, whose virtual clock
charges each sub-problem to a core, where every chunk holds one row.  A
chunk is one ``solve_batch`` call — bit-identical to fresh solves — when
the solver has it and ``simplify`` is off, and one fresh solve per row
otherwise; progress events and checkpoint records stay one per
sub-problem.  :class:`SubproblemOutcome` — with :func:`encode_outcome` /
:func:`decode_outcome`, its checkpoint format — is the one outcome type of
that path, defined in :mod:`repro.runner.pool` and re-exported here.

Because the bundled solvers are deterministic, every backend returns the exact
same statuses and costs for the same inputs — the backends differ only in how
the work is executed and what scheduling metadata they report.

Built-in backends (registered under :mod:`repro.api.registry`):

* ``serial`` — one solver, one loop, in-process;
* ``process-pool`` — real worker processes (``processes`` option) with
  crash retry; :meth:`ProcessPoolBackend.pool` opens them for a whole
  facade call, whose estimating mode then solves its samples on them too;
* ``simulated-cluster`` — scheduler-driven solving plus the makespan
  simulation of :mod:`repro.runner.cluster` (``cores`` / ``scheduler``
  options, optional ``dispatch_latency`` / ``crash_rate`` fault injection);
* ``volunteer-grid`` — scheduler-driven solving plus the BOINC-style
  discrete-event simulation of :mod:`repro.runner.volunteer`.

Checkpoint/resume: every built-in ``run`` accepts optional ``checkpoint`` /
``checkpoint_sink`` keyword arguments (a
:class:`~repro.runner.scheduler.SchedulerCheckpoint` and a callable receiving
updated snapshots).  Sub-problems present in the checkpoint are never
re-solved; the ``repro-sat run --resume`` flag wires a JSON checkpoint file
through this path.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from repro.api.registry import register_backend
from repro.api.specs import SolverSpec
from repro.runner.pool import (
    SubproblemOutcome,
    WorkerState,
    decode_outcome,
    encode_outcome,
    family_task_id,
    family_tasks,
    process_executor,
    worker_executor,
)
from repro.runner.scheduler import (
    Executor,
    FailureModel,
    ProcessExecutor,
    RetryPolicy,
    Scheduler,
    SchedulerCheckpoint,
    SchedulerRun,
    Task,
    TaskGraph,
)
from repro.sat.formula import CNF
from repro.sat.solver import SolverBudget, SolverStatus


@dataclass
class BackendRun:
    """Everything a backend reports about processing one family."""

    backend: str
    outcomes: list[SubproblemOutcome] = field(default_factory=list)
    wall_time: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def statuses(self) -> list[SolverStatus]:
        """Per-sub-problem statuses, in input order."""
        return [outcome.status for outcome in self.outcomes]

    @property
    def costs(self) -> list[float]:
        """Per-sub-problem costs, in input order."""
        return [outcome.cost for outcome in self.outcomes]

    @property
    def total_cost(self) -> float:
        """Total sequential cost over the processed sub-problems."""
        return sum(self.costs)

    @property
    def num_sat(self) -> int:
        """Number of satisfiable sub-problems."""
        return sum(1 for outcome in self.outcomes if outcome.status is SolverStatus.SAT)

    @property
    def satisfying_models(self) -> list[dict[int, bool]]:
        """Models of the satisfiable sub-problems (when the backend kept them)."""
        return [o.model for o in self.outcomes if o.model is not None]


#: Progress callback: ``fn(completed, total)`` after each finished sub-problem.
ProgressFn = Callable[[int, int], None]


@runtime_checkable
class ExecutionBackend(Protocol):
    """The one interface every execution substrate implements."""

    name: str

    def run(
        self,
        cnf: CNF,
        assumption_vectors: Sequence[Sequence[int]],
        solver: SolverSpec | None = None,
        cost_measure: str = "propagations",
        budget: SolverBudget | None = None,
        stop_on_sat: bool = False,
        progress: ProgressFn | None = None,
        checkpoint: SchedulerCheckpoint | None = None,
        checkpoint_sink: Callable[[SchedulerCheckpoint], None] | None = None,
        checkpoint_every: int = 1,
        trace=None,
    ) -> BackendRun:
        """Solve ``cnf`` under every assumption vector and report the outcomes.

        ``checkpoint`` / ``checkpoint_sink`` / ``checkpoint_every`` are the
        optional resume contract: sub-problems present in ``checkpoint`` are
        not re-solved, and the sink receives an updated snapshot after every
        ``checkpoint_every``-th fresh result.  Backends that cannot support
        resuming may ignore them, but must accept the keywords.  ``trace`` is
        an optional :class:`repro.trace.format.TraceWriter`: the scheduler
        behind the backend emits its task-lifecycle events into it.
        """
        ...  # pragma: no cover


def _validate_family_checkpoint(graph, checkpoint: SchedulerCheckpoint) -> None:
    """Refuse a checkpoint whose recorded assumptions mismatch this family.

    Checkpoints key results by positional task id, so a file produced by a
    *different* experiment (another decomposition, another instance) would
    otherwise be resumed silently — reporting that experiment's outcomes as
    this one's.
    """
    for task_id, encoded in checkpoint.results.items():
        if task_id not in graph:
            raise ValueError(
                f"checkpoint entry {task_id!r} does not belong to this family "
                f"of {len(graph)} sub-problems — refusing to resume from a "
                f"checkpoint of a different experiment"
            )
        recorded = tuple(int(lit) for lit in encoded["assumptions"])
        expected = graph.task(task_id).payload
        if recorded != expected:
            raise ValueError(
                f"checkpoint entry {task_id!r} was solved under assumptions "
                f"{recorded}, but this family's sub-problem is {expected} — "
                f"refusing to resume from a checkpoint of a different experiment"
            )


#: Most rows one chunk task carries.
_MAX_CHUNK_ROWS = 64

#: About how long one chunk may run.  The progress callback — where the
#: service daemon checks cancellation, resource budgets and shutdown — runs
#: only as chunks finish, so each chunk is sized from the pace of the last
#: one that finished to keep its calls about this far apart, however slow
#: the rows are.
_CHUNK_SECONDS = 0.25


def _run_family_scheduler(
    executor: str,
    cnf: CNF,
    assumption_vectors: Sequence[Sequence[int]],
    solver: SolverSpec | None,
    cost_measure: str,
    budget: SolverBudget | None,
    stop_on_sat: bool,
    progress: ProgressFn | None,
    checkpoint: SchedulerCheckpoint | None,
    checkpoint_sink: Callable[[SchedulerCheckpoint], None] | None,
    checkpoint_every: int,
    trace,
    workers: int | None = None,
    dispatch_latency: float = 0.0,
    failures: FailureModel | None = None,
    retry: RetryPolicy | None = None,
    pool: ProcessExecutor | None = None,
) -> tuple[list[SubproblemOutcome], SchedulerRun]:
    """The shared path behind every built-in backend.

    One :class:`~repro.runner.pool.WorkerState` for this run, the
    ``executor`` built around it by :func:`~repro.runner.pool.worker_executor`,
    and one scheduler pass over the family's chunks (:func:`_solve_in_chunks`).
    An open ``pool`` whose state serves this run is used instead of building
    one; the scheduler closes it once the family is done.
    """
    graph = family_tasks(assumption_vectors)
    if checkpoint is not None:
        _validate_family_checkpoint(graph, checkpoint)
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    spec = solver or SolverSpec()
    if pool is not None and not pool.closed and pool.task_fn.serves(
        cnf, spec.name, spec.options, cost_measure, budget
    ):
        executors = nullcontext(pool)
    else:
        state = WorkerState(cnf, spec.name, spec.options, cost_measure, budget)
        executors = worker_executor(
            executor, state, workers=workers, dispatch_latency=dispatch_latency,
            failures=failures,
        )
    total = len(graph)
    completed = {"count": 0}

    def advance() -> None:
        completed["count"] += 1
        if progress is not None:
            progress(completed["count"], total)

    # Scheduler-level early stop is only safe when completion order equals
    # input order (the inline executor): with parallel or fault-injected
    # executors, stopping at the first SAT *completion* could leave earlier
    # sub-problems unresolved and silently punch holes in the reported
    # prefix.  Everyone else solves the whole family and truncates after.
    with executors as resolved:
        solved, run = _solve_in_chunks(
            graph, resolved, retry or RetryPolicy(max_attempts=3), checkpoint,
            checkpoint_sink, checkpoint_every, advance, trace,
            stop_on_sat=stop_on_sat and executor == "serial",
            one_row=executor == "simulated-cluster",
        )
    outcomes: list[SubproblemOutcome] = []
    for task_id in graph.task_ids:
        outcome = solved.get(task_id)
        if outcome is None:
            if stop_on_sat:
                # Serial semantics: the *contiguous* prefix of input-order
                # results up to and including the first satisfiable
                # sub-problem.  Stopping at a gap (an unresolved earlier
                # sub-problem) keeps the report honest — a gap can only arise
                # from an early stop, never from a full run.
                break
            continue
        outcomes.append(outcome)
        if stop_on_sat and outcome.status is SolverStatus.SAT:
            break
    return outcomes, run


def _solve_in_chunks(
    graph: TaskGraph,
    executor: Executor,
    retry: RetryPolicy,
    checkpoint: SchedulerCheckpoint | None,
    checkpoint_sink: Callable[[SchedulerCheckpoint], None] | None,
    checkpoint_every: int,
    advance: Callable[[], None],
    trace,
    stop_on_sat: bool,
    one_row: bool,
) -> tuple[dict[str, SubproblemOutcome], SchedulerRun]:
    """Solve the family's unsolved rows in chunks, in one scheduler pass.

    The scheduler dispatches, retries and traces the chunks, and takes the
    next one from this function whenever a worker goes idle with nothing
    queued: the first chunk holds one row, and each next one twice as many
    as the last one cut, up to 64 — but never more than the pace of the last
    chunk to finish (from its dispatch to its result) fits into
    :data:`_CHUNK_SECONDS`, and at least one.  Until a chunk has finished
    there is no pace, so each chunk cut before then (one per pool worker)
    holds one row.  With ``one_row`` (the simulated cluster, whose virtual
    clock charges each sub-problem to a core) every chunk holds one row and
    all of them are queued at the start.
    Everything else stays per sub-problem: ``advance`` (the progress event)
    runs once per row, restored rows first; the sink's snapshots hold one
    ``sub-%06d`` record per sub-problem, in family order, and each chunk's
    snapshot is taken before that chunk's progress events; and the sink
    fires whenever the count of freshly solved sub-problems crosses a
    multiple of ``checkpoint_every``, and once at the end unless the last
    snapshot was already complete.  ``stop_on_sat`` (inline executor only,
    where chunks complete in family order) solves no chunk after the first
    one holding a satisfiable row, and none at all when a restored row is
    satisfiable.  Returns the outcomes by sub-problem id and the chunk run,
    whose ``from_checkpoint`` counts restored sub-problems.
    """
    solved: dict[str, SubproblemOutcome] = {}
    for task_id in graph.task_ids:
        if checkpoint is not None and task_id in checkpoint:
            solved[task_id] = decode_outcome(checkpoint.results[task_id])
            advance()
    pending = [task_id for task_id in graph.task_ids if task_id not in solved]
    if stop_on_sat and any(outcome.status is SolverStatus.SAT for outcome in solved.values()):
        pending = []
    members: dict[str, tuple[list[str], float]] = {}  # chunk -> (rows, cut at)
    fresh = saved = cut = last = 0
    fits = 1

    def next_chunk(size: int | None = None) -> Task | None:
        """The next ``size`` pending rows as one task (by default, as the rule allows)."""
        nonlocal cut, last
        if cut == len(pending):
            return None
        ids = pending[cut : cut + (size or max(1, min(_MAX_CHUNK_ROWS, 2 * last, fits)))]
        cut, last = cut + len(ids), len(ids)
        chunk_id = f"chunk-{len(members):06d}"
        members[chunk_id] = (ids, time.perf_counter())
        return Task(task_id=chunk_id, payload=tuple(graph.task(task_id).payload for task_id in ids))

    def save() -> None:
        nonlocal saved
        checkpoint_sink(
            SchedulerCheckpoint(
                results={
                    task_id: encode_outcome(solved[task_id])
                    for task_id in graph.task_ids
                    if task_id in solved
                },
                metadata={"completed": len(solved) == len(graph), "tasks": len(graph)},
            )
        )
        saved = fresh

    def on_chunk(chunk_id: str, values: list[SubproblemOutcome]) -> None:
        nonlocal fresh, fits
        ids, cut_at = members[chunk_id]
        fits = int(len(ids) * _CHUNK_SECONDS / max(time.perf_counter() - cut_at, 1e-9))
        solved.update(zip(ids, values))
        fresh += len(ids)
        if checkpoint_sink is not None and (
            fresh // checkpoint_every > saved // checkpoint_every
        ):
            save()
        for _ in ids:
            advance()

    run = Scheduler(
        TaskGraph(next_chunk(1) for _ in range(len(pending) if one_row else 0)),
        executor,
        retry=retry,
        on_result=on_chunk,
        stop_on=(
            (lambda chunk_id, values: any(v.status is SolverStatus.SAT for v in values))
            if stop_on_sat
            else None
        ),
        trace=trace,
        source=next_chunk,
    ).run()
    if checkpoint_sink is not None and fresh != saved:
        save()
    if run.failed:
        chunk_id, error = next(iter(run.failed.items()))
        raise RuntimeError(
            f"{sum(len(members[failed][0]) for failed in run.failed)} sub-problems failed "
            f"after retries (first: {members[chunk_id][0][0]}: {error})"
        )
    run.metadata["from_checkpoint"] = len(graph) - len(pending)
    return solved, run


#: What every backend reports of its scheduler run alongside its own keys:
#: five counters and, when a process pool degraded to threads, the reason.
_SCHEDULER_KEYS = (
    "dispatches", "retries", "crashes", "duplicates_discarded", "from_checkpoint",
    "executor_fallback",
)


def _scheduler_metadata(run: SchedulerRun) -> dict[str, Any]:
    """What every backend reports of its scheduler run alongside its own keys."""
    return {key: run.metadata[key] for key in _SCHEDULER_KEYS if key in run.metadata}


@register_backend("serial", description="one in-process solver loop")
class SerialBackend:
    """Solve every sub-problem sequentially in the calling process.

    The family travels in chunks, each solved by one ``solve_batch`` call on
    a solver loaded once per run (row by row, fresh, for a solver without
    ``solve_batch`` or with ``simplify`` on): the first chunk holds one row,
    and each next one twice as many as the last, up to 64 — fewer when the
    last one took more than an eighth of a second, so that progress events
    (where a caller can stop the run) stay about a quarter of a second
    apart.  The scheduler's ``dispatches`` (and trace task events) count
    chunks; progress events, checkpoint records and ``checkpoint_every``
    stay per sub-problem, and every status, cost and model equals a fresh
    solve of that row.  ``stop_on_sat`` solves no chunk after the first one
    that holds a satisfiable row, and reports the outcomes up to that row.
    """

    name = "serial"

    def run(
        self,
        cnf: CNF,
        assumption_vectors: Sequence[Sequence[int]],
        solver: SolverSpec | None = None,
        cost_measure: str = "propagations",
        budget: SolverBudget | None = None,
        stop_on_sat: bool = False,
        progress: ProgressFn | None = None,
        checkpoint: SchedulerCheckpoint | None = None,
        checkpoint_sink: Callable[[SchedulerCheckpoint], None] | None = None,
        checkpoint_every: int = 1,
        trace=None,
    ) -> BackendRun:
        """Run the family through the inline (serial) executor."""
        started = time.perf_counter()
        outcomes, run = _run_family_scheduler(
            "serial", cnf, assumption_vectors, solver, cost_measure, budget,
            stop_on_sat, progress, checkpoint, checkpoint_sink, checkpoint_every,
            trace,
        )
        return BackendRun(
            backend=self.name,
            outcomes=outcomes,
            wall_time=time.perf_counter() - started,
            metadata=_scheduler_metadata(run),
        )


@register_backend("process-pool", description="multiprocessing pool on the local machine")
class ProcessPoolBackend:
    """Solve sub-problems in real worker processes with crash retry.

    ``processes=None`` uses every core; ``processes=1`` degrades to an
    in-process loop (handy in tests).  Each worker process receives the run's
    worker state once, through the pool initializer; a pool that cannot start
    falls back to threads on the same per-run state, with identical results.
    The rows travel in chunks cut as workers go idle, by the serial
    backend's rule, so each chunk is sized from the pace of the last one to
    finish and progress events stay about a quarter of a second apart; each
    chunk is one ``solve_batch`` call on a solver loaded once per worker
    (row by row, fresh, for a solver without ``solve_batch`` or with
    ``simplify`` on).  The scheduler's ``dispatches`` (and trace task
    events) count chunks, and depend on the measured pace; progress events,
    checkpoint records and ``checkpoint_every`` stay per sub-problem, and
    every status, cost and model equals a fresh solve of that row.
    ``stop_on_sat`` is emulated by truncating the outcome list at the first
    satisfiable sub-problem, which reproduces exactly what the serial
    backend would have reported.

    :meth:`pool` opens the worker processes ahead of the family, so that one
    facade call runs both PDSAT modes on one pool: the estimating mode's
    samples, then the family, which closes the pool when it is done.
    """

    name = "process-pool"

    def __init__(self, processes: int | None = None):
        if processes is not None and processes < 1:
            raise ValueError("processes must be at least 1")
        self.processes = processes
        self._pool: ProcessExecutor | None = None

    @contextmanager
    def pool(
        self,
        cnf: CNF,
        solver: SolverSpec | None = None,
        cost_measure: str = "propagations",
        budget: SolverBudget | None = None,
    ) -> Iterator[ProcessExecutor | None]:
        """This backend's worker processes for one call, open until it ends.

        Yields the executor of the pool, or ``None`` when there is none to
        open: with ``processes=1``, or for a solver that cannot solve a task's
        rows in one ``solve_batch`` call.  While it is open, a :meth:`run`
        with the same formula and settings solves its family on it, and the
        family's scheduler closes it when the family is done; otherwise it
        closes when the block ends.
        """
        spec = solver or SolverSpec()
        state = None
        if self.processes != 1:
            state = WorkerState(cnf, spec.name, spec.options, cost_measure, budget)
        if state is None or not state.solves_in_batches:
            yield None
            return
        self._pool = process_executor(state, self.processes)
        try:
            yield self._pool
        finally:
            self._pool.close()
            self._pool = None

    def run(
        self,
        cnf: CNF,
        assumption_vectors: Sequence[Sequence[int]],
        solver: SolverSpec | None = None,
        cost_measure: str = "propagations",
        budget: SolverBudget | None = None,
        stop_on_sat: bool = False,
        progress: ProgressFn | None = None,
        checkpoint: SchedulerCheckpoint | None = None,
        checkpoint_sink: Callable[[SchedulerCheckpoint], None] | None = None,
        checkpoint_every: int = 1,
        trace=None,
    ) -> BackendRun:
        """Run the family on the process scheduler (budgets apply in workers)."""
        started = time.perf_counter()
        pending = sum(
            1
            for index in range(len(assumption_vectors))
            if checkpoint is None or family_task_id(index) not in checkpoint
        )
        pooled = self.processes != 1 and pending > 1
        outcomes, run = _run_family_scheduler(
            "process-pool" if pooled else "serial",
            cnf, assumption_vectors, solver, cost_measure, budget, stop_on_sat,
            progress, checkpoint, checkpoint_sink, checkpoint_every, trace,
            workers=self.processes, pool=self._pool if pooled else None,
        )
        metadata = {"processes": self.processes}
        metadata.update(_scheduler_metadata(run))
        return BackendRun(
            backend=self.name,
            outcomes=outcomes,
            wall_time=time.perf_counter() - started,
            metadata=metadata,
        )


@register_backend(
    "simulated-cluster", description="scheduler-driven solving + makespan simulation on M cores"
)
class SimulatedClusterBackend:
    """The paper's cluster numbers: solve on the virtual-clock executor.

    ``cores``/``scheduler`` reproduce the classical makespan metadata
    (``scheduler="lpt"`` reports the near-optimal reference schedule of the
    measured costs).  ``dispatch_latency``, ``crash_rate``, ``straggler_rate``
    and ``failures_seed`` configure the simulated executor's latency/failure
    models: injected faults change the *virtual* makespan
    (``metadata["virtual_makespan"]``) and retry counters but never the
    outcomes, which stay bit-identical to the serial backend.  Every chunk
    holds one row and all of them are queued at the start, so the virtual
    clock charges each sub-problem to a core of its own.
    """

    name = "simulated-cluster"

    def __init__(
        self,
        cores: int = 8,
        scheduler: str = "dynamic",
        dispatch_latency: float = 0.0,
        crash_rate: float = 0.0,
        straggler_rate: float = 0.0,
        straggler_factor: float = 4.0,
        failures_seed: int = 0,
        max_attempts: int | None = 10,
        timeout: float | None = None,
    ):
        if cores < 1:
            raise ValueError("cores must be at least 1")
        if scheduler not in ("dynamic", "lpt"):
            raise ValueError("scheduler must be 'dynamic' or 'lpt'")
        self.cores = cores
        self.scheduler = scheduler
        self.dispatch_latency = dispatch_latency
        self.failures = FailureModel(
            crash_rate=crash_rate,
            straggler_rate=straggler_rate,
            straggler_factor=straggler_factor,
            seed=failures_seed,
        )
        self.retry = RetryPolicy(max_attempts=max_attempts, timeout=timeout)

    def run(
        self,
        cnf: CNF,
        assumption_vectors: Sequence[Sequence[int]],
        solver: SolverSpec | None = None,
        cost_measure: str = "propagations",
        budget: SolverBudget | None = None,
        stop_on_sat: bool = False,
        progress: ProgressFn | None = None,
        checkpoint: SchedulerCheckpoint | None = None,
        checkpoint_sink: Callable[[SchedulerCheckpoint], None] | None = None,
        checkpoint_every: int = 1,
        trace=None,
    ) -> BackendRun:
        """Run the family on the virtual cluster and attach makespan metadata."""
        from repro.runner.cluster import simulate_makespan

        started = time.perf_counter()
        outcomes, run = _run_family_scheduler(
            "simulated-cluster", cnf, assumption_vectors, solver, cost_measure,
            budget, stop_on_sat, progress, checkpoint, checkpoint_sink,
            checkpoint_every, trace, workers=self.cores,
            dispatch_latency=self.dispatch_latency, failures=self.failures,
            retry=self.retry,
        )
        # The classical (fault-free) schedule of the measured costs keeps the
        # historical metadata stable and supports the LPT reference; the live
        # virtual clock (latency and faults included) is reported alongside.
        simulation = simulate_makespan(
            [o.cost for o in outcomes], self.cores, scheduler=self.scheduler
        )
        metadata = {
            "cores": self.cores,
            "scheduler": self.scheduler,
            "makespan": simulation.makespan,
            "efficiency": simulation.efficiency,
            "ideal_makespan": simulation.ideal_makespan,
            "virtual_makespan": run.makespan,
        }
        metadata.update(_scheduler_metadata(run))
        return BackendRun(
            backend=self.name,
            outcomes=outcomes,
            wall_time=time.perf_counter() - started,
            metadata=metadata,
        )


@register_backend(
    "volunteer-grid", description="scheduler-driven solving + BOINC-style grid simulation"
)
class VolunteerGridBackend:
    """The SAT@home numbers: solve the family, replay it on a volunteer grid."""

    name = "volunteer-grid"

    def __init__(self, **grid_options: Any):
        from repro.runner.volunteer import VolunteerGridConfig

        self.grid_config = VolunteerGridConfig(**grid_options)

    def run(
        self,
        cnf: CNF,
        assumption_vectors: Sequence[Sequence[int]],
        solver: SolverSpec | None = None,
        cost_measure: str = "propagations",
        budget: SolverBudget | None = None,
        stop_on_sat: bool = False,
        progress: ProgressFn | None = None,
        checkpoint: SchedulerCheckpoint | None = None,
        checkpoint_sink: Callable[[SchedulerCheckpoint], None] | None = None,
        checkpoint_every: int = 1,
        trace=None,
    ) -> BackendRun:
        """Run the family and attach the volunteer-campaign metadata."""
        from repro.runner.volunteer import simulate_volunteer_grid

        started = time.perf_counter()
        outcomes, run = _run_family_scheduler(
            "serial", cnf, assumption_vectors, solver, cost_measure, budget,
            stop_on_sat, progress, checkpoint, checkpoint_sink, checkpoint_every,
            trace,
        )
        simulation = simulate_volunteer_grid([o.cost for o in outcomes], self.grid_config)
        metadata = {
            "hosts": simulation.host_count,
            "campaign_duration": simulation.campaign_duration,
            "effective_throughput": simulation.effective_throughput,
            "replication_overhead": simulation.replication_overhead,
            "reissued_work_units": simulation.reissued_work_units,
        }
        metadata.update(_scheduler_metadata(run))
        return BackendRun(
            backend=self.name,
            outcomes=outcomes,
            wall_time=time.perf_counter() - started,
            metadata=metadata,
        )
