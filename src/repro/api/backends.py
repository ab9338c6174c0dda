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
order-independent result folding.  On the inline (serial) executor and the
process pool, with a solver that has ``solve_batch`` and no per-call
``simplify``, each task carries a chunk of rows solved by one
``solve_batch`` call — bit-identical to fresh solves — while progress
events and checkpoint records stay one per sub-problem; inline chunks are
sized from the pace of the last one, so progress events stay about a
quarter of a second apart however slow the rows are.  Every other task
carries one row, solved fresh: on the simulated cluster, whose virtual
clock charges each sub-problem to a core, and for every other solver.
:class:`SubproblemOutcome` — with :func:`encode_outcome` /
:func:`decode_outcome`, its checkpoint format — is the one outcome type of
that path, defined in :mod:`repro.runner.pool` and re-exported here.

Because the bundled solvers are deterministic, every backend returns the exact
same statuses and costs for the same inputs — the backends differ only in how
the work is executed and what scheduling metadata they report.

Built-in backends (registered under :mod:`repro.api.registry`):

* ``serial`` — one solver, one loop, in-process;
* ``process-pool`` — a real ``multiprocessing`` pool (``processes`` option)
  with crash retry;
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

import math
import time
from collections.abc import Callable, Sequence
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
    worker_executor,
)
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


#: Most rows one chunk task carries (one ``solve_batch`` call).
_MAX_CHUNK_ROWS = 64

#: About how long one chunk on the inline executor may run.  The progress
#: callback — where the service daemon checks cancellation, resource budgets
#: and shutdown — runs only between chunks, so inline chunks are sized from
#: the pace of the last one to keep its calls about this far apart, however
#: slow the rows are.
_INLINE_CHUNK_SECONDS = 0.25


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
) -> tuple[list[SubproblemOutcome], SchedulerRun]:
    """The shared path behind every built-in backend.

    One :class:`~repro.runner.pool.WorkerState` for this run, the
    ``executor`` built around it by :func:`~repro.runner.pool.worker_executor`,
    and one scheduler pass over the family's task graph — or, on the inline
    executor and the process pool with a solver that can batch, over chunks
    of it (:func:`_solve_in_chunks`; inline, one pass per chunk).
    """
    graph = family_tasks(assumption_vectors)
    if checkpoint is not None:
        _validate_family_checkpoint(graph, checkpoint)
    spec = solver or SolverSpec()
    # solve_batch is bit-identical to fresh solves, but not with per-call
    # preprocessing, whose result depends on each row's frozen variables.
    # The simulated cluster keeps one row per task: its virtual clock
    # charges every sub-problem to a core of its own.
    chunked = (
        executor in ("serial", "process-pool")
        and not spec.options.get("simplify")
        and hasattr(spec.build(), "solve_batch")
    )
    state = WorkerState(cnf, spec.name, spec.options, cost_measure, budget, batched=chunked)
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
    inline_stop = stop_on_sat and executor == "serial"
    retry = retry or RetryPolicy(max_attempts=3)
    with worker_executor(
        executor, state, workers=workers, dispatch_latency=dispatch_latency,
        failures=failures,
    ) as resolved:
        if chunked:
            solved, run = _solve_in_chunks(
                graph, resolved, executor == "serial", retry, checkpoint, checkpoint_sink,
                checkpoint_every, advance, trace, inline_stop,
            )
        else:
            run = Scheduler(
                graph,
                resolved,
                retry=retry,
                checkpoint=checkpoint,
                result_decoder=decode_outcome,
                checkpoint_sink=checkpoint_sink,
                result_encoder=encode_outcome,
                checkpoint_every=checkpoint_every,
                stop_on=(
                    (lambda task_id, value: value.status is SolverStatus.SAT)
                    if inline_stop
                    else None
                ),
                on_result=lambda task_id, value: advance(),
                trace=trace,
            ).run()
            solved = {task_id: record.value for task_id, record in run.results.items()}
    if run.failed:
        task_id, error = next(iter(run.failed.items()))
        raise RuntimeError(
            f"{len(run.failed)} sub-problems failed after retries "
            f"(first: {task_id}: {error})"
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
    inline: bool,
    retry: RetryPolicy,
    checkpoint: SchedulerCheckpoint | None,
    checkpoint_sink: Callable[[SchedulerCheckpoint], None] | None,
    checkpoint_every: int,
    advance: Callable[[], None],
    trace,
    stop_on_sat: bool,
) -> tuple[dict[str, SubproblemOutcome], SchedulerRun]:
    """Solve the family's unsolved rows in chunks, one ``solve_batch`` call each.

    The scheduler dispatches, retries and traces the chunks.  On the process
    pool the rows missing from ``checkpoint`` are split up front into chunks
    of ``min(64, ceil(pending / (4 × workers)))`` rows — enough chunks for
    every worker to take several, few enough that each solver load serves
    many rows.  On the ``inline`` executor the chunks are solved one at a
    time and sized as they go: the first holds one row, and each next one
    twice as many as the last, up to 64 — or, when the last took more than
    half of :data:`_INLINE_CHUNK_SECONDS`, as many as its pace fits into
    that time, at least one.
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
    members: dict[str, list[str]] = {}
    fresh = saved = 0

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
        nonlocal fresh
        ids = members[chunk_id]
        solved.update(zip(ids, values))
        fresh += len(ids)
        if checkpoint_sink is not None and (
            fresh // checkpoint_every > saved // checkpoint_every
        ):
            save()
        for _ in ids:
            advance()

    def solve(plan: list[list[str]]) -> SchedulerRun:
        """One scheduler pass over the chunks ``plan`` lists (sub-problem ids each)."""
        chunks = []
        for ids in plan:
            chunk_id = f"chunk-{len(members):06d}"
            members[chunk_id] = ids
            chunks.append(
                Task(task_id=chunk_id, payload=tuple(graph.task(task_id).payload for task_id in ids))
            )
        return Scheduler(
            TaskGraph(chunks),
            executor,
            retry=retry,
            on_result=on_chunk,
            stop_on=(
                (lambda chunk_id, values: any(v.status is SolverStatus.SAT for v in values))
                if stop_on_sat
                else None
            ),
            trace=trace,
        ).run()

    if inline:
        passes: list[SchedulerRun] = []
        begin, size = 0, 1
        while begin < len(pending):
            ids = pending[begin : begin + size]
            started = time.perf_counter()
            passes.append(solve([ids]))
            if passes[-1].stopped_early or passes[-1].failed:
                break
            elapsed = max(time.perf_counter() - started, 1e-9)
            fits = int(len(ids) * _INLINE_CHUNK_SECONDS / elapsed)
            begin += len(ids)
            size = max(1, min(_MAX_CHUNK_ROWS, 2 * len(ids), fits))
        run = _joined(passes)
    else:
        size = min(_MAX_CHUNK_ROWS, max(1, math.ceil(len(pending) / (4 * executor.num_workers))))
        run = solve([pending[begin : begin + size] for begin in range(0, len(pending), size)])
    if checkpoint_sink is not None and fresh != saved:
        save()
    run.metadata["from_checkpoint"] = len(graph) - len(pending)
    return solved, run


#: The scheduler counters every backend reports alongside its own keys.
_SCHEDULER_COUNTERS = (
    "dispatches", "retries", "crashes", "duplicates_discarded", "from_checkpoint",
)


def _joined(passes: list[SchedulerRun]) -> SchedulerRun:
    """The scheduler passes of one inline chunked run, reported as one run."""
    run = SchedulerRun(graph_order=[task_id for part in passes for task_id in part.graph_order])
    for part in passes:
        run.results.update(part.results)
        run.failed.update(part.failed)
        run.stopped_early = run.stopped_early or part.stopped_early
        run.wall_time += part.wall_time
    run.completed = len(run.results) == len(run.graph_order)
    run.metadata = {
        key: sum(part.metadata.get(key, 0) for part in passes) for key in _SCHEDULER_COUNTERS
    }
    return run


def _scheduler_metadata(run: SchedulerRun) -> dict[str, Any]:
    """The scheduler counters every backend reports alongside its own keys."""
    return {key: run.metadata[key] for key in _SCHEDULER_COUNTERS if key in run.metadata}


@register_backend("serial", description="one in-process solver loop")
class SerialBackend:
    """Solve every sub-problem sequentially in the calling process.

    The family travels in chunks, each solved by one ``solve_batch`` call on
    a solver loaded once per run: the first chunk holds one row, and each
    next one twice as many as the last, up to 64 — fewer when the last one
    took more than an eighth of a second, so that progress events (where a
    caller can stop the run) stay about a quarter of a second apart.  The
    scheduler's ``dispatches`` (and trace task events) count chunks;
    progress events, checkpoint records and ``checkpoint_every`` stay per
    sub-problem, and every status, cost and model equals a fresh solve of
    that row.  ``stop_on_sat`` solves no chunk after the first one that
    holds a satisfiable row, and reports the outcomes up to that row.
    Solvers without ``solve_batch``, or with ``simplify`` on, get one fresh
    solve per row.
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
    The rows still to solve travel in chunks of
    ``min(64, ceil(pending / (4 × processes)))``, each solved by one
    ``solve_batch`` call on a solver loaded once per worker, so the
    scheduler's ``dispatches`` (and trace task events) count chunks; progress
    events, checkpoint records and ``checkpoint_every`` stay per sub-problem,
    and every status, cost and model equals a fresh solve of that row.
    Solvers without ``solve_batch``, or with ``simplify`` on, get one fresh
    solve per row.  ``stop_on_sat`` is emulated by truncating the outcome
    list at the first satisfiable sub-problem, which reproduces exactly what
    the serial backend would have reported.

    Limitation: the chunks are fixed before the first one runs, and progress
    events arrive only as whole chunks complete, so a caller that stops the
    run from its progress callback (the service daemon's cancel, budget and
    shutdown checks) is reached once per chunk of up to 64 rows per worker,
    not once per row or about every quarter second as on the serial backend.
    """

    name = "process-pool"

    def __init__(self, processes: int | None = None):
        if processes is not None and processes < 1:
            raise ValueError("processes must be at least 1")
        self.processes = processes

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
        outcomes, run = _run_family_scheduler(
            "serial" if self.processes == 1 or pending <= 1 else "process-pool",
            cnf, assumption_vectors, solver, cost_measure, budget, stop_on_sat,
            progress, checkpoint, checkpoint_sink, checkpoint_every, trace,
            workers=self.processes,
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
    outcomes, which stay bit-identical to the serial backend.
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
