"""Unified fault-tolerant scheduler for decomposition-family workloads.

PDSAT's leader process, the SAT@home server and the library's own
``multiprocessing`` pool are all instances of one scheduling problem: a set of
independent (or dependency-ordered) tasks — estimation samples, partition
sub-problems — must be dispatched to unreliable workers, retried on failure,
deduplicated on replication, and folded into results that do not depend on the
execution interleaving.  This module is that one scheduler; the
row-solving kernel and executor factory of :mod:`repro.runner.pool`, and the
simulations of :mod:`repro.runner.cluster` and :mod:`repro.runner.volunteer`,
are thin policies over it.

Architecture
------------

* :class:`Task` / :class:`TaskGraph` — the unit of work (an opaque picklable
  payload plus optional dependency edges) and the validated DAG of them.
* :class:`Executor` implementations — where attempts actually run:
  :class:`InlineExecutor` (calling thread), :class:`ThreadExecutor`,
  :class:`ProcessExecutor` (real processes), and
  :class:`SimulatedGridExecutor` — a deterministic virtual-clock cluster
  with configurable worker speeds, dispatch latency and a seeded
  :class:`FailureModel` injecting worker crashes, stragglers and duplicated
  results.
* :class:`Scheduler` — the leader loop: one shared pull queue (PDSAT's
  dynamic work queue), per-task retry/timeout budgets (:class:`RetryPolicy`),
  replication/quorum (the BOINC substrate) and early stop.
* :class:`SchedulerCheckpoint` — the JSON document of accepted results that
  the family path of :mod:`repro.api.backends` writes as its chunks finish
  and resumes from.

Determinism contract
--------------------

Task payloads are static and task functions are pure (for the bundled solvers:
deterministic), so an attempt's value depends only on its task — never on the
worker, the attempt number or the virtual time.  The scheduler records exactly
one result per task (duplicates are discarded, retries re-run the same pure
function) and :meth:`SchedulerRun.values_in_order` reports them in task-graph
order.  Any parallel run is therefore reproduced bit-for-bit by
:func:`replay_serial`, and statistics folded from ``values_in_order`` are
identical across the inline, thread, process and simulated executors — the
invariant the deterministic simulation tests assert under ≥20% injected
crashes.
"""

from __future__ import annotations

import heapq
import json
import random
import time
from collections import defaultdict, deque
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol, runtime_checkable


# --------------------------------------------------------------------- tasks
@dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    ``payload`` is opaque to the scheduler; the executor's task function
    receives it verbatim (it must be picklable for the process executor).
    ``dependencies`` are ordering edges only: a task becomes dispatchable when
    every dependency has completed, but no values flow along the edges.
    """

    task_id: str
    payload: Any = None
    dependencies: tuple[str, ...] = ()


class TaskGraph:
    """A validated DAG of tasks, iterated in insertion order."""

    def __init__(self, tasks: Iterable[Task]):
        self._tasks: dict[str, Task] = {}
        for task in tasks:
            if task.task_id in self._tasks:
                raise ValueError(f"duplicate task id {task.task_id!r}")
            self._tasks[task.task_id] = task
        for task in self._tasks.values():
            for dep in task.dependencies:
                if dep not in self._tasks:
                    raise ValueError(
                        f"task {task.task_id!r} depends on unknown task {dep!r}"
                    )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Kahn's algorithm; stable in insertion order so the topological order
        # of an edge-free graph is exactly the insertion order.
        indegree = {tid: len(task.dependencies) for tid, task in self._tasks.items()}
        dependants: dict[str, list[str]] = {tid: [] for tid in self._tasks}
        for tid, task in self._tasks.items():
            for dep in task.dependencies:
                dependants[dep].append(tid)
        ready = deque(tid for tid, degree in indegree.items() if degree == 0)
        seen = 0
        order: list[str] = []
        while ready:
            tid = ready.popleft()
            order.append(tid)
            seen += 1
            for nxt in dependants[tid]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        if seen != len(self._tasks):
            raise ValueError("task graph contains a dependency cycle")
        self._topological = order

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self):
        return iter(self._tasks.values())

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def task(self, task_id: str) -> Task:
        """Look up one task by id."""
        return self._tasks[task_id]

    @property
    def task_ids(self) -> list[str]:
        """Task ids in insertion (result-reporting) order."""
        return list(self._tasks)

    def topological_order(self) -> list[str]:
        """A dependency-respecting order (insertion-stable)."""
        return list(self._topological)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task retry/timeout budget.

    ``max_attempts`` bounds the total dispatches of one task (replicated
    copies included); ``None`` means retry forever — the volunteer-grid
    policy, where the server re-issues until a quorum is reached.  ``timeout``
    is a *virtual-time* deadline per attempt, interpreted by the simulated
    executor (crashed attempts are only noticed at the deadline, exactly like
    a BOINC work unit); real executors bound their attempts with solver
    budgets instead, so they ignore it.
    """

    max_attempts: int | None = 3
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1 (or None for unlimited)")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")


# ---------------------------------------------------------------- completions
#: Attempt outcomes an executor can report.
OUTCOME_SUCCESS = "success"
OUTCOME_CRASH = "crash"  # worker died / result never returned
OUTCOME_TIMEOUT = "timeout"  # attempt exceeded its virtual deadline
OUTCOME_ERROR = "error"  # the task function raised


@dataclass
class Completion:
    """One attempt's terminal event, as reported by an executor."""

    task_id: str
    worker: int
    outcome: str
    value: Any = None
    error: str | None = None
    #: Event time: virtual seconds for the simulated executor, wall-clock
    #: seconds since run start otherwise.
    time: float = 0.0
    #: Busy time the attempt occupied its worker.
    duration: float = 0.0
    #: False for injected duplicate deliveries, which do not free a worker.
    frees_worker: bool = True
    #: True for deterministic task errors (``ValueError``/``TypeError``):
    #: re-running a pure function on bad input cannot succeed, so the
    #: scheduler fails the task immediately instead of burning retries.
    fatal: bool = False


@runtime_checkable
class Executor(Protocol):
    """Where task attempts physically (or virtually) run.

    The scheduler calls :meth:`start` only for workers it believes idle and
    then blocks in :meth:`wait` for at least one :class:`Completion`.  An
    executor owns the mapping from payloads to values (its task function) and
    the clock its completions are stamped with.
    """

    name: str
    num_workers: int

    def start(self, task: Task, worker: int, timeout: float | None = None) -> None:
        """Begin one attempt of ``task`` on ``worker``."""
        ...  # pragma: no cover

    def wait(self) -> list[Completion]:
        """Block until at least one attempt finishes; return its completion(s)."""
        ...  # pragma: no cover

    def close(self) -> None:
        """Release executor resources (pools, threads)."""
        ...  # pragma: no cover


class InlineExecutor:
    """Run every attempt immediately in the calling thread (the serial policy)."""

    name = "inline"
    num_workers = 1

    def __init__(self, task_fn: Callable[[Any], Any]):
        self.task_fn = task_fn
        self._pending: deque[Completion] = deque()
        self._started = time.perf_counter()
        self._busy_time = 0.0

    def start(self, task: Task, worker: int, timeout: float | None = None) -> None:
        """Execute the attempt synchronously and queue its completion."""
        begun = time.perf_counter()
        fatal = False
        try:
            value = self.task_fn(task.payload)
            outcome, error = OUTCOME_SUCCESS, None
        except Exception as exc:  # noqa: BLE001 - converted into a retryable event
            value, outcome, error = None, OUTCOME_ERROR, f"{type(exc).__name__}: {exc}"
            fatal = isinstance(exc, (ValueError, TypeError))
        duration = time.perf_counter() - begun
        self._busy_time += duration
        self._pending.append(
            Completion(
                task_id=task.task_id,
                worker=worker,
                outcome=outcome,
                value=value,
                error=error,
                time=time.perf_counter() - self._started,
                duration=duration,
                fatal=fatal,
            )
        )

    def wait(self) -> list[Completion]:
        """Return the completions produced by the preceding :meth:`start` calls."""
        if not self._pending:
            raise RuntimeError("wait() called with no attempt in flight")
        events = list(self._pending)
        self._pending.clear()
        return events

    def close(self) -> None:
        """Nothing to release."""


class ThreadExecutor:
    """Attempts run on a thread pool (useful for I/O-bound task functions)."""

    name = "thread"

    def __init__(self, task_fn: Callable[[Any], Any], num_workers: int = 4):
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        from concurrent.futures import ThreadPoolExecutor

        self.task_fn = task_fn
        self.num_workers = num_workers
        self._pool = ThreadPoolExecutor(max_workers=num_workers)
        self._futures: dict[Any, tuple[str, int, float]] = {}
        self._started = time.perf_counter()

    def start(self, task: Task, worker: int, timeout: float | None = None) -> None:
        """Submit the attempt to the thread pool."""
        future = self._pool.submit(self.task_fn, task.payload)
        self._futures[future] = (task.task_id, worker, time.perf_counter())

    def wait(self) -> list[Completion]:
        """Block for the first finished future(s)."""
        from concurrent.futures import FIRST_COMPLETED, wait

        if not self._futures:
            raise RuntimeError("wait() called with no attempt in flight")
        done, _ = wait(list(self._futures), return_when=FIRST_COMPLETED)
        events = []
        now = time.perf_counter()
        for future in done:
            task_id, worker, begun = self._futures.pop(future)
            error = future.exception()
            events.append(
                Completion(
                    task_id=task_id,
                    worker=worker,
                    outcome=OUTCOME_SUCCESS if error is None else OUTCOME_ERROR,
                    value=future.result() if error is None else None,
                    error=None if error is None else f"{type(error).__name__}: {error}",
                    time=now - self._started,
                    duration=now - begun,
                    fatal=isinstance(error, (ValueError, TypeError)),
                )
            )
        return events

    def close(self) -> None:
        """Shut the thread pool down."""
        self._pool.shutdown(wait=True)


def _serve(connection, leader_ends, task_fn_blob: bytes, initializer, initargs) -> None:
    """The loop of one :class:`ProcessExecutor` worker process.

    Closes the leader's pipe ends it inherited, runs the initializer, then
    answers each task blob on ``connection`` with one pickled
    ``(outcome, value, error, fatal)`` reply until the leader sends the empty
    stop message, closes the pipe or exits.  Interrupts are the leader's to
    handle: it stops its workers when it stops.
    """
    import os
    import pickle
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in leader_ends:
        end.close()
    leader = os.getppid()
    if initializer is not None:
        initializer(*initargs)
    task_fn = pickle.loads(task_fn_blob)
    while True:
        try:
            while not connection.poll(1.0):
                if os.getppid() != leader:
                    return
            blob = connection.recv_bytes()
        except (EOFError, OSError):
            return
        if not blob:
            return
        try:
            reply = pickle.dumps(
                (OUTCOME_SUCCESS, task_fn(pickle.loads(blob)), None, False),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception as exc:  # noqa: BLE001 - reported to the leader
            reply = pickle.dumps(
                (OUTCOME_ERROR, None, f"{type(exc).__name__}: {exc}",
                 isinstance(exc, (ValueError, TypeError))),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        try:
            connection.send_bytes(reply)
        except OSError:
            return


class ProcessExecutor:
    """Attempts run in real worker processes (the PDSAT computing processes).

    Each worker slot is one process with one duplex pipe to the leader.  The
    leader's own thread writes a task's pickled payload to its worker's pipe
    in :meth:`start` and reads the replies in :meth:`wait`, which blocks on
    the pipes and process sentinels of the busy workers
    (:func:`multiprocessing.connection.wait`), so no helper thread sits
    between a dispatch and a worker.  A slot's process starts at its first
    attempt and runs ``initializer(*initargs)`` once.  ``task_fn`` is
    pickled once per process, so it should pickle small: a module-level
    function, or — like :class:`repro.runner.pool.WorkerState` — an object
    that pickles as a reference to the copy the initializer installed.

    Payloads are pickled once per task (not per attempt): the blob cache is
    dropped as soon as a task completes for good (success or fatal error), so
    memory tracks the in-flight set, not the whole graph.  A worker process
    dying mid-attempt surfaces as a ``crash`` completion; the slot starts a
    new process at its next attempt, so the scheduler's retry budget covers
    real worker loss, not only exceptions.  :meth:`close` stops and joins
    every worker (a busy one is terminated), and a closed executor takes no
    more attempts.

    **Degradation:** when a worker process cannot be started (no
    ``fork``/pipes in the environment) or ``MAX_POOL_BREAKS`` worker
    processes have died, the executor stops its processes, fails their
    attempts as crashes and falls back to an in-process thread pool: slower
    (the GIL) but it keeps serving.  The threads call ``task_fn`` itself,
    after running the initializer once in this process.  For the runner's
    :class:`~repro.runner.pool.WorkerState` that means this run's own
    state, with one solver per thread, so the results are identical to the
    processes' — and to any other run sharing the process.  The fallback
    emits a ``RuntimeWarning`` and is recorded in ``degraded_reason``, which
    :meth:`Scheduler.run` copies into ``run.metadata["executor_fallback"]``
    so callers can see the run did not get real process isolation.
    """

    name = "process-pool"
    #: Worker deaths tolerated before degrading to the thread fallback.
    MAX_POOL_BREAKS = 3

    def __init__(
        self,
        task_fn: Callable[[Any], Any],
        num_workers: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.task_fn = task_fn
        self.num_workers = num_workers
        self._initializer = initializer
        self._initargs = initargs
        self._workers: dict[int, tuple[Any, Any]] = {}  # slot -> (process, pipe)
        self._in_flight: dict[int, tuple[str, float]] = {}  # slot -> (task, started)
        self._payload_blobs: dict[str, bytes] = {}
        self._pending: list[Completion] = []
        self._threads: ThreadExecutor | None = None
        self._started = time.perf_counter()
        self._pool_breaks = 0
        #: Why the executor degraded to threads (``None``: real processes).
        self.degraded_reason: str | None = None
        #: Set by :meth:`close`; a closed executor takes no more attempts.
        self.closed = False

    def _spawn(self, worker: int):
        """Start the process of slot ``worker``; returns the leader's pipe end to it."""
        import multiprocessing
        import pickle

        context = multiprocessing.get_context()
        leader_end, worker_end = context.Pipe()
        process = context.Process(
            target=_serve,
            args=(
                worker_end,
                [pipe for _, pipe in self._workers.values()] + [leader_end],
                pickle.dumps(self.task_fn, protocol=pickle.HIGHEST_PROTOCOL),
                self._initializer,
                self._initargs,
            ),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            leader_end.close()
            raise
        finally:
            worker_end.close()
        self._workers[worker] = (process, leader_end)
        return leader_end

    def _degrade(self, reason: str) -> None:
        """Stop every worker process and serve the rest of the run on threads."""
        import warnings

        self.degraded_reason = reason
        warnings.warn(
            f"process pool unusable ({reason}); degrading to a thread executor "
            "— results are identical but run without process isolation",
            RuntimeWarning,
            stacklevel=3,
        )
        now = time.perf_counter()
        for worker, (task_id, begun) in self._in_flight.items():
            self._pending.append(
                Completion(
                    task_id=task_id, worker=worker, outcome=OUTCOME_CRASH,
                    error=f"worker process stopped: {reason}",
                    time=now - self._started, duration=now - begun,
                )
            )
        self._stop_workers()
        self._payload_blobs.clear()
        if self._initializer is not None:
            # Thread workers share this process: install the per-worker
            # state (CNF, solver) exactly once, in-process.
            self._initializer(*self._initargs)
        self._threads = ThreadExecutor(self.task_fn, self.num_workers)

    def start(self, task: Task, worker: int, timeout: float | None = None) -> None:
        """Write the attempt to ``worker``'s pipe (payload pickled at most once)."""
        import pickle

        if self.closed:
            raise RuntimeError("the executor is closed")
        pipe = None
        if self._threads is None:
            entry = self._workers.get(worker)
            try:
                pipe = entry[1] if entry is not None else self._spawn(worker)
            except (OSError, ValueError, ImportError, NotImplementedError) as exc:
                self._degrade(f"cannot create process pool: {exc}")
        if pipe is None:
            self._threads.start(task, worker, timeout)
            return
        blob = self._payload_blobs.get(task.task_id)
        if blob is None:
            blob = pickle.dumps(task.payload, protocol=pickle.HIGHEST_PROTOCOL)
            self._payload_blobs[task.task_id] = blob
        self._in_flight[worker] = (task.task_id, time.perf_counter())
        try:
            pipe.send_bytes(blob)
        except OSError:
            pass  # the worker died: wait() reports the crash from its sentinel

    def wait(self) -> list[Completion]:
        """Block for the first reply or worker death; deaths become crashes."""
        import pickle
        from multiprocessing.connection import wait as wait_for

        if self._pending:
            events, self._pending = self._pending, []
            return events
        if not self._in_flight:
            if self._threads is not None:
                return self._threads.wait()
            raise RuntimeError("wait() called with no attempt in flight")
        slots = {}
        for worker in self._in_flight:
            process, pipe = self._workers[worker]
            slots[pipe] = slots[process.sentinel] = worker
        ready = sorted({slots[handle] for handle in wait_for(list(slots))})
        events = []
        now = time.perf_counter()
        for worker in ready:
            task_id, begun = self._in_flight.pop(worker)
            process, pipe = self._workers[worker]
            try:
                # Only the sentinel fired when nothing is readable: the process is gone.
                reply = pipe.recv_bytes() if pipe.poll() else None
            except (EOFError, OSError):
                reply = None
            if reply is None:
                outcome, value, fatal = OUTCOME_CRASH, None, False
                error = f"worker process died (exit code {process.exitcode})"
                self._bury(worker)
            else:
                try:
                    outcome, value, error, fatal = pickle.loads(reply)
                except Exception as exc:  # noqa: BLE001 - a reply the leader cannot read
                    outcome, value, fatal = OUTCOME_ERROR, None, False
                    error = f"{type(exc).__name__}: {exc}"
            if outcome == OUTCOME_SUCCESS or fatal:
                # The task will never be resubmitted: drop its cached payload.
                self._payload_blobs.pop(task_id, None)
            events.append(
                Completion(
                    task_id=task_id,
                    worker=worker,
                    outcome=outcome,
                    value=value,
                    error=error,
                    time=now - self._started,
                    duration=now - begun,
                    fatal=fatal,
                )
            )
        if self._pool_breaks >= self.MAX_POOL_BREAKS and self._threads is None:
            # Workers keep dying (fork bombs out, memory runs short...):
            # stop starting processes and finish the run on threads.
            self._degrade(f"{self._pool_breaks} worker processes died, last: {events[-1].error}")
            events += self._pending
            self._pending = []
        return events

    def _bury(self, worker: int) -> None:
        """Reap slot ``worker``'s dead process; its next attempt starts a new one."""
        process, pipe = self._workers.pop(worker)
        process.join(1.0)
        if process.is_alive():
            process.kill()
            process.join()
        pipe.close()
        self._pool_breaks += 1

    def _stop_workers(self) -> None:
        """Stop and join every worker process: idle ones by message, busy ones by signal."""
        for worker, (process, pipe) in self._workers.items():
            if worker in self._in_flight:
                process.terminate()
            else:
                try:
                    pipe.send_bytes(b"")
                except OSError:
                    pass
        for process, pipe in self._workers.values():
            process.join(5.0)
            if process.is_alive():
                process.kill()
                process.join()
            pipe.close()
        self._workers.clear()
        self._in_flight.clear()

    def close(self) -> None:
        """Stop and join every worker; the executor takes no more attempts."""
        self.closed = True
        self._payload_blobs.clear()
        self._pending.clear()
        self._stop_workers()
        if self._threads is not None:
            self._threads.close()


# ------------------------------------------------------- simulated execution
@dataclass(frozen=True)
class WorkerProfile:
    """Speed/availability of one simulated worker (a cluster core or a host)."""

    speed: float = 1.0
    availability: float = 1.0

    def effective_rate(self) -> float:
        """Work per unit of virtual time this worker delivers."""
        return self.speed * self.availability


@dataclass(frozen=True)
class FailureModel:
    """Seeded fault injection of the deterministic simulation harness.

    Faults are drawn per *attempt* from one ``random.Random(seed)`` stream in
    dispatch order, so a simulated run is a pure function of (task graph,
    worker profiles, failure model) — reruns reproduce the exact same crash,
    straggler and duplicate pattern.
    """

    #: Probability an attempt crashes: the result is never returned and the
    #: loss is only noticed at the retry deadline (BOINC semantics).
    crash_rate: float = 0.0
    #: Probability an attempt runs ``straggler_factor`` times slower.
    straggler_rate: float = 0.0
    straggler_factor: float = 4.0
    #: Probability a successful result is delivered twice (duplicated result).
    duplicate_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "straggler_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be at least 1")


class SimulatedGridExecutor:
    """A deterministic virtual-clock cluster/grid.

    Attempts *execute* the task function eagerly (the bundled solvers are
    deterministic, so re-execution on retry reproduces the same value) but
    *complete* on a virtual clock: the attempt occupies its worker for
    ``duration_of(value) / worker.effective_rate() + dispatch_latency``
    virtual seconds, stretched for injected stragglers.  Crashed attempts
    return no value and are noticed at the retry deadline (or at the would-be
    finish time when no deadline is set); duplicated results deliver the same
    success twice.  With no failure model and unit-speed workers this executor
    *is* the greedy list scheduling of the paper's cluster makespan model.
    """

    name = "simulated-grid"

    def __init__(
        self,
        task_fn: Callable[[Any], Any],
        workers: int | Sequence[WorkerProfile] = 1,
        duration_of: Callable[[Any], float] | None = None,
        dispatch_latency: float = 0.0,
        failures: FailureModel | None = None,
        preempt_on_timeout: bool = False,
    ):
        if isinstance(workers, int):
            if workers < 1:
                raise ValueError("workers must be at least 1")
            profiles = [WorkerProfile() for _ in range(workers)]
        else:
            profiles = list(workers)
            if not profiles:
                raise ValueError("at least one worker profile is required")
        if dispatch_latency < 0:
            raise ValueError("dispatch_latency must be non-negative")
        self.task_fn = task_fn
        self.profiles = profiles
        self.num_workers = len(profiles)
        #: Virtual duration of a finished attempt; defaults to the value
        #: itself (which must then be numeric, e.g. a per-job cost).
        self.duration_of = duration_of or (lambda value: float(value))
        self.dispatch_latency = dispatch_latency
        self.failures = failures or FailureModel()
        self.preempt_on_timeout = preempt_on_timeout
        self._rng = random.Random(self.failures.seed)
        self.now = 0.0
        self._events: list[tuple[float, int, Completion]] = []
        self._sequence = 0
        self.worker_loads = [0.0] * self.num_workers
        self.injected_crashes = 0
        self.injected_stragglers = 0
        self.injected_duplicates = 0

    def _push(self, at: float, completion: Completion) -> None:
        self._sequence += 1
        heapq.heappush(self._events, (at, self._sequence, completion))

    def start(self, task: Task, worker: int, timeout: float | None = None) -> None:
        """Run the attempt eagerly; schedule its completion on the virtual clock."""
        rng = self._rng
        crashed = self.failures.crash_rate > 0 and rng.random() < self.failures.crash_rate
        straggles = (
            self.failures.straggler_rate > 0
            and rng.random() < self.failures.straggler_rate
        )
        duplicated = (
            self.failures.duplicate_rate > 0
            and rng.random() < self.failures.duplicate_rate
        )

        fatal = False
        try:
            value = self.task_fn(task.payload)
            failure_free = OUTCOME_SUCCESS
            error = None
            duration = self.duration_of(value)
        except Exception as exc:  # noqa: BLE001 - converted into a retryable event
            value, error = None, f"{type(exc).__name__}: {exc}"
            failure_free = OUTCOME_ERROR
            duration = 0.0
            fatal = isinstance(exc, (ValueError, TypeError))
        rate = max(self.profiles[worker].effective_rate(), 1e-12)
        duration = self.dispatch_latency + duration / rate
        if straggles:
            self.injected_stragglers += 1
            duration *= self.failures.straggler_factor

        outcome = failure_free
        if crashed and failure_free is OUTCOME_SUCCESS:
            self.injected_crashes += 1
            outcome, value, error = OUTCOME_CRASH, None, "injected worker crash"
            # The loss is only noticed at the deadline (the server's view).
            duration = timeout if timeout is not None else duration
        elif (
            self.preempt_on_timeout
            and timeout is not None
            and duration > timeout
            and failure_free is OUTCOME_SUCCESS
        ):
            outcome, value, error = OUTCOME_TIMEOUT, None, "attempt exceeded its deadline"
            duration = timeout

        finish = self.now + duration
        self.worker_loads[worker] += duration
        self._push(
            finish,
            Completion(
                task_id=task.task_id,
                worker=worker,
                outcome=outcome,
                value=value,
                error=error,
                time=finish,
                duration=duration,
                fatal=fatal,
            ),
        )
        if duplicated and outcome is OUTCOME_SUCCESS:
            self.injected_duplicates += 1
            self._push(
                finish + 1e-9,
                Completion(
                    task_id=task.task_id,
                    worker=worker,
                    outcome=OUTCOME_SUCCESS,
                    value=value,
                    time=finish + 1e-9,
                    duration=0.0,
                    frees_worker=False,
                ),
            )

    def wait(self) -> list[Completion]:
        """Advance the virtual clock to the earliest event time; return its events."""
        if not self._events:
            raise RuntimeError("wait() called with no attempt in flight")
        at = self._events[0][0]
        self.now = at
        events = []
        while self._events and self._events[0][0] == at:
            events.append(heapq.heappop(self._events)[2])
        return events

    def close(self) -> None:
        """Nothing to release."""


# ------------------------------------------------------------- checkpointing
@dataclass
class SchedulerCheckpoint:
    """A JSON-serialisable snapshot of completed task results.

    ``results`` maps task id to the *encoded* task value — JSON-plain by
    contract; the family path stores one
    :func:`~repro.runner.pool.encode_outcome` record per sub-problem.  A
    checkpoint knows nothing about queues or in-flight attempts: resuming
    solves exactly the tasks that are missing, which is safe because task
    functions are pure.
    """

    results: dict[str, Any] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self.results

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict representation."""
        return {"kind": "scheduler-checkpoint", "results": dict(self.results),
                "metadata": dict(self.metadata)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SchedulerCheckpoint":
        """Inverse of :meth:`to_dict`."""
        if data.get("kind") != "scheduler-checkpoint":
            raise ValueError("not a scheduler checkpoint document")
        return cls(results=dict(data.get("results", {})),
                   metadata=dict(data.get("metadata", {})))

    def save(self, path: str | Path) -> None:
        """Write the checkpoint as a JSON document (atomically via a temp file)."""
        target = Path(path)
        scratch = target.with_suffix(target.suffix + ".tmp")
        scratch.write_text(json.dumps(self.to_dict(), separators=(",", ":")))
        scratch.replace(target)

    @classmethod
    def load(cls, path: str | Path) -> "SchedulerCheckpoint":
        """Read a checkpoint written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def load_or_quarantine(
        cls, path: str | Path, decode: Callable[[Any], Any] = lambda record: record
    ) -> "SchedulerCheckpoint | None":
        """Like :meth:`load`, but a bad file reads as "no checkpoint".

        ``None`` means the file is missing, truncated, garbled, not a
        checkpoint document at all, or holds a record that ``decode``
        rejects — in the latter cases it is renamed to ``<name>.corrupt``
        (see :mod:`repro.resilience`) and a warning logged, so the caller
        starts fresh instead of crashing on state a killed process left
        half-written.
        """
        from repro.resilience import load_json_or_quarantine, logger, quarantine

        target = Path(path)
        data = load_json_or_quarantine(target, kind="scheduler checkpoint")
        if data is None:
            return None
        try:
            checkpoint = cls.from_dict(data)
            for record in checkpoint.results.values():
                decode(record)
            return checkpoint
        except (ValueError, TypeError, AttributeError, KeyError) as error:
            moved = quarantine(target)
            logger.warning(
                "invalid scheduler checkpoint at %s (%s); quarantined to %s",
                target,
                error,
                moved,
            )
            return None


# ------------------------------------------------------------------- results
@dataclass
class TaskRecord:
    """The accepted result of one task."""

    task_id: str
    value: Any
    attempts: int
    worker: int | None
    finished_at: float


@dataclass
class SchedulerRun:
    """Everything one :meth:`Scheduler.run` reports."""

    graph_order: list[str]
    results: dict[str, TaskRecord] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)
    #: True when every task of the graph has an accepted result.
    completed: bool = False
    #: True when a ``stop_on`` predicate ended dispatch early.
    stopped_early: bool = False
    #: Virtual makespan for simulated executors, wall-clock seconds otherwise.
    makespan: float = 0.0
    wall_time: float = 0.0
    worker_loads: list[float] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def completed_ids(self) -> list[str]:
        """Ids with an accepted result, in task-graph order."""
        return [tid for tid in self.graph_order if tid in self.results]

    def values_in_order(self) -> list[Any]:
        """Accepted values in task-graph order — the deterministic fold order."""
        return [self.results[tid].value for tid in self.graph_order if tid in self.results]

    def assert_invariants(self) -> None:
        """Scheduler safety net: no lost tasks, no double-counted results.

        * every graph task is accounted for: accepted, failed, or explicitly
          left behind by an early stop;
        * no task is both accepted and failed;
        * results carry no ids outside the graph (nothing invented).
        """
        ids = set(self.graph_order)
        accepted = set(self.results)
        failures = set(self.failed)
        if not accepted <= ids or not failures <= ids:
            raise AssertionError("scheduler reported results for unknown tasks")
        if accepted & failures:
            raise AssertionError("a task is both accepted and failed")
        unaccounted = ids - accepted - failures
        if unaccounted and not self.stopped_early:
            raise AssertionError(f"lost tasks: {sorted(unaccounted)[:5]}...")
        if self.completed and (failures or unaccounted):
            raise AssertionError("run marked completed with missing tasks")


# ----------------------------------------------------------------- scheduler
class Scheduler:
    """The leader loop: dispatch, retry, dedupe.

    Parameters
    ----------
    graph:
        The tasks (a :class:`TaskGraph` or any iterable of :class:`Task`).
    source:
        More tasks, taken while the run goes on: ``source()`` returns the
        next dependency-free :class:`Task`, or ``None`` when it has none to
        give.  The scheduler asks it only when a worker is idle and nothing
        is queued, and no task has failed, so a source can size each task
        from what finished before it — the family path of
        :mod:`repro.api.backends` cuts its chunks this way.  Sourced tasks
        are reported like the graph's, after them.
    executor:
        Where attempts run.  Defaults are wired by the policy layers; the
        scheduler itself only needs the :class:`Executor` protocol.
    retry:
        The per-task retry/timeout budget (:class:`RetryPolicy`).  Ready
        tasks wait in one first-in-first-out queue that idle workers pull
        from in index order, which with a simulated executor reproduces
        PDSAT's dynamic work queue (greedy list scheduling) exactly.
    replication / quorum:
        Dispatch every task ``replication`` times and accept it once
        ``quorum`` successful results arrived (BOINC validation).  Surplus
        deliveries are discarded — never double-counted.
    stop_on:
        Early-stop predicate ``fn(task_id, value) -> bool`` evaluated on each
        accepted result; on True, dispatch stops and in-flight work drains.
    on_result:
        Called as ``fn(task_id, value)`` with each accepted result — the
        family path saves its checkpoints and reports progress here.
    """

    def __init__(
        self,
        graph: TaskGraph | Iterable[Task],
        executor: Executor,
        retry: RetryPolicy | None = None,
        replication: int = 1,
        quorum: int = 1,
        stop_on: Callable[[str, Any], bool] | None = None,
        on_result: Callable[[str, Any], None] | None = None,
        trace=None,
        source: Callable[[], Task | None] | None = None,
    ):
        self.graph = graph if isinstance(graph, TaskGraph) else TaskGraph(graph)
        self.source = source
        self.executor = executor
        self.retry = retry or RetryPolicy()
        if replication < 1:
            raise ValueError("replication must be at least 1")
        if quorum < 1:
            raise ValueError("quorum must be at least 1")
        if quorum > replication and self.retry.max_attempts is not None:
            # With unlimited retries the scheduler keeps re-issuing until the
            # quorum is met, so quorum > replication is then satisfiable.
            raise ValueError("quorum must not exceed replication unless retries are unlimited")
        self.replication = replication
        self.quorum = quorum
        self.stop_on = stop_on
        self.on_result = on_result
        #: Optional :class:`repro.trace.format.TraceWriter` receiving the task
        #: lifecycle (``TASK_DISPATCH`` / ``TASK_COMPLETE`` / ``TASK_RETRY``).
        self.trace = trace

    def _reissue_if_short(
        self, tid, accepted_count, in_flight, queued, attempts, enqueue, stats, run,
        failure_reason: str,
    ) -> None:
        """Re-issue a task whose surviving copies cannot reach the quorum.

        Called after any non-completing event (failure, or a success still
        below quorum): if accepted + in-flight + queued copies fall short of
        the quorum and the retry budget allows, a fresh copy is enqueued;
        with copies exhausted and no budget left the task is failed.
        """
        shortfall = accepted_count[tid] + in_flight[tid] + queued[tid] < self.quorum
        budget_left = (
            self.retry.max_attempts is None
            or attempts[tid] + queued[tid] < self.retry.max_attempts
        )
        if shortfall and budget_left:
            enqueue(tid)
            stats["retries"] += 1
            if self.trace is not None:
                self.trace.task_retry(tid, attempts[tid] + queued[tid])
        elif shortfall and in_flight[tid] == 0 and queued[tid] == 0:
            run.failed[tid] = failure_reason

    # ------------------------------------------------------------------- run
    def run(self) -> SchedulerRun:
        """Process the task graph to completion (or early stop)."""
        graph = self.graph
        executor = self.executor
        run = SchedulerRun(graph_order=graph.task_ids)
        started = time.perf_counter()

        tasks: dict[str, Task] = {task.task_id: task for task in graph}
        waiting: dict[str, set[str]] = {}  # task -> unmet dependencies
        dependants: defaultdict[str, list[str]] = defaultdict(list)
        attempts: defaultdict[str, int] = defaultdict(int)
        accepted_count: defaultdict[str, int] = defaultdict(int)
        in_flight: defaultdict[str, int] = defaultdict(int)
        queued: defaultdict[str, int] = defaultdict(int)
        busy: dict[int, str] = {}
        stats = {
            "dispatches": 0, "crashes": 0, "timeouts": 0, "errors": 0,
            "retries": 0, "duplicates_discarded": 0,
        }
        stop_requested = False

        queue: deque[str] = deque()

        def enqueue(task_id: str) -> None:
            queue.append(task_id)
            queued[task_id] += 1

        def pop() -> str | None:
            """The next task to dispatch: from the queue, else from the source."""
            while True:
                if not queue:
                    # A run that failed a task takes no more from its source.
                    task = self.source() if self.source is not None and not run.failed else None
                    if task is None:
                        return None
                    if task.task_id in tasks or task.dependencies:
                        raise ValueError(
                            f"source task {task.task_id!r} is not new and dependency-free"
                        )
                    tasks[task.task_id] = task
                    run.graph_order.append(task.task_id)
                    for _ in range(self.replication):
                        enqueue(task.task_id)
                task_id = queue.popleft()
                queued[task_id] -= 1
                # Skip stale queue entries: replicated copies of a task
                # that completed (or fatally failed) meanwhile.
                if task_id not in run.results and task_id not in run.failed:
                    return task_id

        def complete(task_id: str, value: Any, worker: int | None, at: float) -> None:
            nonlocal stop_requested
            run.results[task_id] = TaskRecord(
                task_id=task_id,
                value=value,
                attempts=attempts[task_id],
                worker=worker,
                finished_at=at,
            )
            for nxt in dependants[task_id]:
                pending = waiting.get(nxt)
                if pending is not None:
                    pending.discard(task_id)
                    if not pending:
                        del waiting[nxt]
                        for _ in range(self.replication):
                            enqueue(nxt)
            if self.on_result is not None:
                self.on_result(task_id, value)
            if self.stop_on is not None and self.stop_on(task_id, value):
                stop_requested = True
                run.stopped_early = True

        # Seed dependency bookkeeping and fill the queues.
        for task in graph:
            for dep in task.dependencies:
                dependants[dep].append(task.task_id)
        for task in graph:
            if task.dependencies:
                waiting[task.task_id] = set(task.dependencies)
            else:
                for _ in range(self.replication):
                    enqueue(task.task_id)

        # ------------------------------------------------------- leader loop
        try:
            while True:
                # Dispatch to idle workers in index order (matches the min-heap
                # tie-break of classical greedy list scheduling).
                if not stop_requested:
                    for worker in range(executor.num_workers):
                        if worker in busy:
                            continue
                        task_id = pop()
                        if task_id is None:
                            continue
                        attempts[task_id] += 1
                        in_flight[task_id] += 1
                        stats["dispatches"] += 1
                        if self.trace is not None:
                            self.trace.task_dispatch(task_id, stats["dispatches"])
                        busy[worker] = task_id
                        executor.start(tasks[task_id], worker, timeout=self.retry.timeout)
                if not busy:
                    break

                for event in executor.wait():
                    if event.frees_worker:
                        busy.pop(event.worker, None)
                    tid = event.task_id
                    if self.trace is not None:
                        self.trace.task_complete(
                            tid, event.outcome, event.time, event.duration
                        )
                    if event.frees_worker:
                        in_flight[tid] = max(0, in_flight[tid] - 1)
                    if tid in run.results:
                        stats["duplicates_discarded"] += 1
                        continue
                    if event.outcome == OUTCOME_SUCCESS:
                        accepted_count[tid] += 1
                        if accepted_count[tid] >= self.quorum:
                            complete(tid, event.value, event.worker, event.time)
                        elif not stop_requested and tid not in run.failed:
                            # Below quorum with too few copies still in the
                            # field (e.g. quorum > replication): re-issue, or
                            # the task would silently never complete.
                            self._reissue_if_short(
                                tid, accepted_count, in_flight, queued, attempts,
                                enqueue, stats, run, "quorum not reached within the retry budget",
                            )
                        continue
                    # Failed attempt: crash / timeout / error.
                    key = {
                        OUTCOME_CRASH: "crashes",
                        OUTCOME_TIMEOUT: "timeouts",
                        OUTCOME_ERROR: "errors",
                    }.get(event.outcome, "errors")
                    stats[key] += 1
                    if event.fatal and tid not in run.failed:
                        # Deterministic error on a pure task function: retrying
                        # the same input cannot succeed, fail the task now.
                        run.failed[tid] = event.error or event.outcome
                        continue
                    if stop_requested or tid in run.failed:
                        continue
                    self._reissue_if_short(
                        tid, accepted_count, in_flight, queued, attempts,
                        enqueue, stats, run, event.error or event.outcome,
                    )
        finally:
            executor.close()
        run.wall_time = time.perf_counter() - started
        run.makespan = getattr(executor, "now", run.wall_time)
        run.worker_loads = list(getattr(executor, "worker_loads", []))
        run.completed = len(run.results) == len(tasks)
        stats["injected_crashes"] = getattr(executor, "injected_crashes", 0)
        stats["injected_stragglers"] = getattr(executor, "injected_stragglers", 0)
        stats["injected_duplicates"] = getattr(executor, "injected_duplicates", 0)
        degraded = getattr(executor, "degraded_reason", None)
        if degraded:
            stats["executor_fallback"] = degraded
        run.metadata = stats
        run.assert_invariants()
        return run


def replay_serial(
    graph: TaskGraph | Iterable[Task], task_fn: Callable[[Any], Any]
) -> SchedulerRun:
    """Reproduce any parallel run serially, bit for bit.

    Runs every task of ``graph`` inline, in topological (insertion-stable)
    order, with no retries and no failure injection.  Because task functions
    are pure, ``replay_serial(graph, fn).values_in_order()`` equals the
    ``values_in_order()`` of every fault-injected parallel run of the same
    graph — the property the simulation harness tests pin down.
    """
    graph = graph if isinstance(graph, TaskGraph) else TaskGraph(graph)
    ordered = TaskGraph(graph.task(tid) for tid in graph.topological_order())
    return Scheduler(ordered, InlineExecutor(task_fn), retry=RetryPolicy(max_attempts=1)).run()
