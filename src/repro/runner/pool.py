"""The row-solving kernel, its per-run worker state and the executor factory.

PDSAT's leader hands sub-problems to computing processes that each run one
solver on assumption rows — a sample of them in estimating mode, the whole
decomposition family in solving mode.  That one job is written once here:

* :class:`WorkerState` is the state of one run — the formula, the solver
  spec, the cost measure and the per-call budget — with one solver per
  thread.  Calling it with a task payload is the row-solving kernel: it
  solves the task's rows against the run's formula and returns
  :class:`SubproblemOutcome` records.  Every task carries a tuple of rows —
  a chunk of a family on any backend, or a worker's share of a sample —
  solved together by ``solve_batch`` on a solver loaded once per thread
  when the solver has it and ``simplify`` is off, and otherwise row by row,
  each by a fresh ``solve(cnf, row)``.
* :func:`worker_executor` is the one executor factory: serial (inline),
  real process pool (:func:`process_executor`) or simulated virtual-clock
  cluster, each running the same kernel.  Every execution backend
  (:mod:`repro.api.backends`) builds its executor through it.
* :func:`solve_beside` is the estimating mode's dispatch onto a run's
  process pool: the workers solve their shares of a sample, as
  :class:`SampleRows` tasks answered with :data:`SampledRow` records, while
  the leader solves its own share.

Because the state belongs to one run, concurrent runs in one process — two
daemon workers, or a process pool that degraded to threads — never share a
solver.  Worker processes receive the state once, through the pool
initializer; each task then pickles only a reference to it, so a task ships
nothing but its assumption rows.
"""

from __future__ import annotations

import os
import threading
import uuid
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.api.registry import get_cost_measure, get_solver
from repro.runner.scheduler import (
    OUTCOME_SUCCESS,
    Executor,
    FailureModel,
    InlineExecutor,
    ProcessExecutor,
    SimulatedGridExecutor,
    Task,
    TaskGraph,
)
from repro.sat.cdcl.image import ArenaImage
from repro.sat.formula import CNF
from repro.sat.solver import SolveResult, SolverBudget, SolverStats, SolverStatus

T = TypeVar("T")


@dataclass(frozen=True)
class SubproblemOutcome:
    """Outcome of one sub-problem: an assumption row solved against the formula."""

    assumptions: tuple[int, ...]
    status: SolverStatus
    cost: float
    wall_time: float
    model: dict[int, bool] | None = None


#: What the estimating mode keeps of a sampled row's solve: its status, cost,
#: wall time and nonzero conflict activity.
SampledRow = tuple[SolverStatus, float, float, dict[int, float]]


def sampled_row(result: SolveResult, measure: Callable[[SolverStats], float]) -> SampledRow:
    """The :data:`SampledRow` of one solve result, its cost taken by ``measure``.

    ``measure`` is a resolved cost measure
    (:func:`~repro.api.registry.get_cost_measure`), looked up once per batch
    of rows rather than once per row.
    """
    return (
        result.status,
        measure(result.stats),
        result.stats.wall_time,
        # Only nonzero bumps: a dense per-variable dict would dominate the
        # memory of the evaluator's sample cache.
        {var: act for var, act in result.conflict_activity.items() if act > 0.0},
    )


class SampleRows(tuple):
    """A task's rows drawn by the estimating mode's sample.

    The kernel answers them with :data:`SampledRow` records instead of
    :class:`SubproblemOutcome` ones: the tabu search's restart heuristic
    reads each row's conflict activity, and no sample needs a model.
    """

    __slots__ = ()


def encode_outcome(outcome: SubproblemOutcome) -> dict[str, Any]:
    """JSON-plain representation of an outcome (the family checkpoint format)."""
    return {
        "assumptions": list(outcome.assumptions),
        "status": outcome.status.value,
        "cost": outcome.cost,
        "wall_time": outcome.wall_time,
        "model": (
            {str(var): value for var, value in outcome.model.items()}
            if outcome.model is not None
            else None
        ),
    }


def decode_outcome(data: dict[str, Any]) -> SubproblemOutcome:
    """Inverse of :func:`encode_outcome` (a record without ``model`` decodes to none)."""
    model = data.get("model")
    return SubproblemOutcome(
        assumptions=tuple(int(lit) for lit in data["assumptions"]),
        status=SolverStatus(data["status"]),
        cost=float(data["cost"]),
        wall_time=float(data["wall_time"]),
        model=(
            {int(var): bool(value) for var, value in model.items()}
            if model is not None
            else None
        ),
    )


class WorkerState:
    """The worker state of one run, with one solver per thread.

    ``formula`` is a CNF, or — inside pool workers of a run that solves with
    ``solve_batch`` on the arena engine — the frozen
    :class:`~repro.sat.cdcl.image.ArenaImage` of one, which each thread's
    solver rebuilds from with ``load_image`` instead of re-normalising the
    clauses.  The solver is built from the ``solver`` registry name and
    ``solver_options`` here, so an unknown name or option fails in the
    caller, not in a worker.  Every task is a tuple of rows, and
    :attr:`solves_in_batches` tells whether one ``solve_batch`` call solves
    each tuple: it needs a solver that has ``solve_batch`` and no per-call
    ``simplify``, whose preprocessed database would depend on each row's
    frozen variables.

    Pickling a state yields a reference to the copy
    :func:`worker_executor`'s pool initializer installed in the worker
    process, never the formula itself.
    """

    def __init__(
        self,
        formula: CNF | ArenaImage,
        solver: str = "cdcl",
        solver_options: Mapping[str, object] | None = None,
        cost_measure: str = "propagations",
        budget: SolverBudget | None = None,
    ):
        self.formula = formula
        self.solver = solver
        self.options = dict(solver_options or {})
        self.cost_measure = cost_measure
        self.budget = budget
        self.token = uuid.uuid4().hex
        self._factory = get_solver(solver)
        probe = self._factory(**self.options)
        #: Whether a task's tuple of rows is solved by one ``solve_batch`` call.
        self.solves_in_batches = (
            hasattr(probe, "solve_batch") and not self.options.get("simplify")
        )
        self._local = threading.local()

    def __call__(self, payload):
        """The row-solving kernel: solve one task's rows against the formula.

        A task's payload is a tuple of rows and its value the list of their
        outcomes in row order — :data:`SampledRow` records for
        :class:`SampleRows`.  Models are kept for SAT rows.
        """
        solver = self._thread_solver()
        rows = [tuple(int(lit) for lit in row) for row in payload]
        if self.solves_in_batches:
            results = solver.solve_batch(rows, budget=self.budget)
        else:
            results = [
                solver.solve(self.formula, assumptions=list(row), budget=self.budget)
                for row in rows
            ]
        if isinstance(payload, SampleRows):
            measure = get_cost_measure(self.cost_measure)
            return [sampled_row(result, measure) for result in results]
        return [
            SubproblemOutcome(
                assumptions=row,
                status=result.status,
                cost=result.stats.cost(self.cost_measure),
                wall_time=result.stats.wall_time,
                model=result.model if result.is_sat else None,
            )
            for row, result in zip(rows, results)
        ]

    def serves(
        self, formula: CNF, solver: str, solver_options: Mapping[str, object],
        cost_measure: str, budget: SolverBudget | None,
    ) -> bool:
        """Whether this state solves rows of ``formula`` exactly as these settings would."""
        return (
            self.formula is formula
            and self.solver == solver
            and self.options == dict(solver_options)
            and self.cost_measure == cost_measure
            and self.budget == budget
        )

    def _thread_solver(self):
        """This thread's solver, loaded with the formula once if it solves in batches.

        A fresh ``solve(cnf, row)`` re-initialises the solver, so one solver
        per thread behaves exactly like a fresh solver per row — and a retried
        attempt reproduces its original result bit for bit.
        """
        solver = getattr(self._local, "solver", None)
        if solver is None:
            solver = self._factory(**self.options)
            if self.solves_in_batches and isinstance(self.formula, ArenaImage):
                solver.load_image(self.formula)
            elif self.solves_in_batches:
                solver.load(self.formula)
            self._local.solver = solver
        return solver

    def __reduce__(self):
        return (_installed_state, (self.token,))


#: Worker states installed in this worker process by the pool initializer.
_INSTALLED: dict[str, WorkerState] = {}


def _install_state(owner_pid: int, token: str, *ingredients) -> None:
    """Pool initializer: rebuild a run's worker state inside a worker process.

    The process that built the state holds it already — a degraded pool's
    threads call it directly — so there the initializer installs nothing.
    """
    if os.getpid() != owner_pid:
        state = WorkerState(*ingredients)
        state.token = token
        _INSTALLED[token] = state


def _installed_state(token: str) -> WorkerState:
    return _INSTALLED[token]


@contextmanager
def worker_executor(
    name: str,
    state: WorkerState,
    workers: int | None = None,
    dispatch_latency: float = 0.0,
    failures: FailureModel | None = None,
) -> Iterator[Executor]:
    """The executor ``name`` running ``state``'s kernel — the one executor factory.

    * ``"serial"`` — attempts run inline, in the calling thread;
    * ``"process-pool"`` — on ``workers`` worker processes (default: every
      core), built by :func:`process_executor`;
    * ``"simulated-cluster"`` — on ``workers`` virtual cores (default 8) of a
      :class:`~repro.runner.scheduler.SimulatedGridExecutor`, where a task
      occupies its core for its rows' summed cost, plus ``dispatch_latency``
      and whatever ``failures`` injects.

    The scheduler closes the executor.
    """
    if name == "serial":
        yield InlineExecutor(task_fn=state)
    elif name == "simulated-cluster":
        yield SimulatedGridExecutor(
            task_fn=state,
            workers=workers or 8,
            duration_of=lambda outcomes: sum(outcome.cost for outcome in outcomes),
            dispatch_latency=dispatch_latency,
            failures=failures,
        )
    elif name == "process-pool":
        yield process_executor(state, workers)
    else:
        raise ValueError(f"unknown executor {name!r}")


def process_executor(state: WorkerState, workers: int | None = None) -> ProcessExecutor:
    """``workers`` worker processes (default: every core) running ``state``'s kernel.

    The state travels once per worker through the initializer.  A state
    that solves in batches on the arena engine ships its formula as the words
    of a frozen :class:`~repro.sat.cdcl.image.ArenaImage` instead of the
    CNF: forked workers inherit the initializer's arguments without pickling
    them, and each thread's solver rebuilds its clause database from the
    image without re-normalising a clause.
    """
    import multiprocessing

    formula = state.formula
    if state.solves_in_batches and state.solver == "cdcl":
        from repro.sat.cdcl.config import CDCLConfig

        formula = ArenaImage.freeze(formula, CDCLConfig(**state.options))
    return ProcessExecutor(
        task_fn=state,
        num_workers=workers or multiprocessing.cpu_count(),
        initializer=_install_state,
        initargs=(
            os.getpid(), state.token, formula, state.solver, state.options,
            state.cost_measure, state.budget,
        ),
    )


#: Attempts one worker's share of a sample gets before the evaluation fails.
_SHARE_ATTEMPTS = 3


def solve_beside(
    executor: Executor, shares: Sequence[Sequence[tuple[int, ...]]], leader: Callable[[], T]
) -> tuple[T, list[list[SampledRow]]]:
    """Solve ``shares[i]`` on worker ``i`` of ``executor`` while ``leader()`` runs here.

    The estimating mode's dispatch: every share goes out as one
    :class:`SampleRows` task before ``leader()`` solves the leader's own
    share, and then the replies are read.  A share whose worker died or
    failed is sent again, up to three attempts; a fatal error, or a share
    out of attempts, fails the evaluation with a :class:`RuntimeError`.
    Whatever raises closes ``executor``, so no attempt is left in flight.
    Returns ``leader()``'s value and each share's :data:`SampledRow` records,
    in order.
    """
    tasks = [
        Task(task_id=f"share-{worker}", payload=SampleRows(rows))
        for worker, rows in enumerate(shares)
    ]
    attempts = [1] * len(tasks)
    values: dict[int, list[SampledRow]] = {}
    try:
        for worker, task in enumerate(tasks):
            executor.start(task, worker)
        mine = leader()
        while len(values) < len(tasks):
            for event in executor.wait():
                worker = event.worker
                if event.outcome == OUTCOME_SUCCESS:
                    values[worker] = event.value
                elif event.fatal or attempts[worker] == _SHARE_ATTEMPTS:
                    raise RuntimeError(
                        f"a share of the sample failed after {attempts[worker]} "
                        f"attempts: {event.error}"
                    )
                else:
                    attempts[worker] += 1
                    executor.start(tasks[worker], worker)
    except BaseException:
        executor.close()
        raise
    return mine, [values[worker] for worker in range(len(tasks))]


def family_task_id(index: int) -> str:
    """The scheduler task id of the ``index``-th sub-problem of a family.

    The single source of the id format: checkpoints key results by these ids,
    so every site that builds or looks up family tasks must go through here.
    """
    return f"sub-{index:06d}"


def family_tasks(assumption_vectors: Sequence[Sequence[int]]) -> TaskGraph:
    """One scheduler task per assumption vector (payload: the literal tuple)."""
    return TaskGraph(
        Task(task_id=family_task_id(index), payload=tuple(int(lit) for lit in vector))
        for index, vector in enumerate(assumption_vectors)
    )

