"""The job daemon behind ``repro-sat serve``.

One :class:`ServiceDaemon` owns five things:

* a **priority queue** of :class:`~repro.service.jobs.JobRecord` drained by a
  small worker pool (each worker runs one job at a time through the ordinary
  :class:`~repro.api.Experiment` facade, so every execution backend and the
  whole checkpoint/trace machinery work unchanged);
* the **journal** (``state_dir/jobs.json``): every state transition is
  rewritten atomically, so a killed daemon restarts knowing exactly which
  jobs were in flight — those are re-queued and resume from their scheduler
  checkpoints (``state_dir/checkpoints/<content-key>.ckpt``, forced into
  solve/run configs that did not bring their own).  The file is always one
  complete compact JSON document.  A corrupt/truncated journal is
  quarantined to ``jobs.json.corrupt`` and the daemon starts empty instead
  of refusing to come up;
* the **content-addressed store** (``state_dir/results/``): a submission
  whose key is already archived completes instantly as a cache hit, and a
  submission whose key is already queued/running coalesces onto that job;
* a **watchdog thread** enforcing per-job
  :class:`~repro.service.budget.ResourceBudget` limits: an over-budget job
  is flagged, interrupted at its next progress event and moved to the
  terminal ``TIMED_OUT`` state with the verdict recorded; a job that keeps
  ignoring the flag past ``hang_grace`` seconds is force-abandoned (its
  worker thread is written off and replaced, so a single hung job can never
  pin the pool);
* a **socket server** speaking newline-delimited JSON (one request line, one
  response line; ``watch`` streams) over a unix socket — or TCP when the
  config names a host/port — serving submit/status/result/cancel/watch/
  jobs/stats/shutdown.  A connection stays open and is served request after
  request until the client closes it; a line that is not a JSON request,
  or that runs past :data:`MAX_REQUEST_BYTES`, gets the ``protocol`` error
  and closes it.  Stopping the daemon shuts down every open connection, so
  a client holding one sees end-of-file and reconnects to whichever daemon
  serves the address next.

Quotas are per tenant and count *active* (queued + running) jobs; queue
depth is bounded by ``max_queue_depth`` — a full queue rejects with a
**retriable** error code so well-behaved clients back off and retry instead
of growing the queue without bound.  Transient infrastructure faults
(:class:`TransientJobError`, e.g. an injected worker crash) re-queue the
job up to ``max_requeues`` times before failing it.  Graceful shutdown
interrupts running jobs (their checkpoints are already on disk), re-queues
them in the journal and stops the pool, so restart resumes rather than
recomputes.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import os
import socket
import socketserver
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.api.experiment import Experiment, ProgressEvent
from repro.api.specs import ExperimentConfig
from repro.resilience import load_json_or_quarantine, logger, sweep_scratch
from repro.service.budget import ResourceBudget, current_rss_mb
from repro.service.jobs import JobRecord, JobState, new_job_id
from repro.service.store import ResultStore, content_key

#: Experiment modes a job may run (the facade methods the worker dispatches to).
MODES = ("estimate", "solve", "run")

#: Longest request line the daemon reads, newline included.  Configs name
#: instances by cipher and seed, so no request carries a formula: a submit
#: of a few kilobytes is large, and a line past this limit is refused unread.
MAX_REQUEST_BYTES = 1 << 20


class _JobCancelled(Exception):
    """Raised inside a worker when the job's cancel flag is set."""


class _JobInterrupted(Exception):
    """Raised inside a worker during graceful shutdown (job is re-queued)."""


class _JobTimedOut(Exception):
    """Raised inside a worker when the job's resource budget is exceeded."""


class TransientJobError(Exception):
    """An infrastructure fault, not a property of the job.

    A worker raising this (a crashed subprocess pool that could not be
    rebuilt, an injected chaos crash, a vanished scratch volume) sends the
    job back to the queue — up to ``ServiceConfig.max_requeues`` times, so
    a deterministically-faulting job still terminates as FAILED.
    """


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon configuration: where state lives and how much runs at once."""

    #: Journal, checkpoints, traces and the result store live under here.
    state_dir: str = "repro-service"
    #: Unix socket path (``None``: ``<state_dir>/daemon.sock``).  Ignored
    #: when ``host`` is set.
    socket_path: str | None = None
    #: Bind a TCP socket instead of the unix socket (e.g. ``"127.0.0.1"``).
    host: str | None = None
    port: int = 0
    #: Worker threads — concurrently running jobs.
    workers: int = 2
    #: Max queued+running jobs per tenant (``None``: unlimited).
    max_active_per_tenant: int | None = None
    #: Max QUEUED jobs daemon-wide (``None``: unbounded).  A full queue
    #: rejects with the retriable ``backpressure`` error code.
    max_queue_depth: int | None = None
    #: Times a job is re-queued after a :class:`TransientJobError` before
    #: it is failed for good.
    max_requeues: int = 3
    #: Watchdog tick: how often running jobs are checked against their
    #: budgets (budget trips are also detected inline at progress events,
    #: so this only bounds detection latency for jobs between events).
    watchdog_interval: float = 0.25
    #: Seconds a flagged over-budget job may keep running before its worker
    #: thread is written off and replaced.
    hang_grace: float = 5.0
    #: Budget applied to jobs submitted without one (``None``: unlimited).
    default_budget: ResourceBudget | None = None


class ServiceError(Exception):
    """A request the daemon refused (bad job id, quota, malformed config...).

    ``code`` is a stable machine-readable category; ``retriable`` tells the
    client whether backing off and retrying can succeed (``backpressure``)
    or never will (``quota``, a malformed config, an unknown job id).
    """

    def __init__(self, message: str, code: str = "error", retriable: bool = False):
        super().__init__(message)
        self.code = code
        self.retriable = retriable


class ServiceDaemon:
    """The long-running job service (in-process API; ``serve`` wraps it)."""

    def __init__(self, config: ServiceConfig | None = None, chaos: Any | None = None):
        self.config = config or ServiceConfig()
        #: Optional :class:`~repro.service.chaos.ChaosPolicy`; its
        #: ``progress_event`` hook fires outside the daemon lock at every
        #: job progress event.  Production daemons run with ``None``.
        self.chaos = chaos
        self.state_dir = Path(self.config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.store = ResultStore(self.state_dir / "results")
        self._journal_path = self.state_dir / "jobs.json"
        self._jobs: dict[str, JobRecord] = {}
        self._heap: list[tuple[int, int, str]] = []  # (-priority, seq, job_id)
        self._heap_seq = 0
        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        self._stopping = False
        self._hard_stopped = False
        self._workers: list[threading.Thread] = []
        self._worker_seq = 0
        #: job_id -> worker thread name, for the RUNNING jobs.
        self._active: dict[str, str] = {}
        #: Worker thread names the watchdog wrote off; they exit on wake-up.
        self._abandoned: set[str] = set()
        self._watchdog: threading.Thread | None = None
        self._server: socketserver.BaseServer | None = None
        self._server_thread: threading.Thread | None = None
        self.started = False

    # ----------------------------------------------------------------- lifecycle
    @property
    def socket_path(self) -> str:
        return self.config.socket_path or str(self.state_dir / "daemon.sock")

    @property
    def address(self) -> tuple[str, int] | str:
        """Where clients connect: ``(host, port)`` for TCP, else the socket path."""
        if self.config.host is not None:
            assert self._server is not None, "TCP port is assigned by start()"
            return self._server.server_address[:2]
        return self.socket_path

    def start(self) -> "ServiceDaemon":
        """Recover the journal, start the worker pool and the socket server."""
        if self.started:
            raise RuntimeError("daemon already started")
        sweep_scratch(self.state_dir)  # half-written atomic-replace staging files
        self._load_journal()
        self._stopping = False
        self.started = True
        for _ in range(max(1, self.config.workers)):
            self._spawn_worker()
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="repro-service-watchdog", daemon=True
        )
        self._watchdog.start()
        self._start_server()
        return self

    def _spawn_worker(self) -> threading.Thread:
        self._worker_seq += 1
        worker = threading.Thread(
            target=self._worker_loop,
            name=f"repro-service-worker-{self._worker_seq}",
            daemon=True,
        )
        worker.start()
        self._workers.append(worker)
        return worker

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful stop: interrupt running jobs, re-queue them, stop serving.

        Running jobs already streamed their checkpoints, so interrupting
        loses at most the sub-problems since the last checkpoint write; the
        journal re-marks them ``QUEUED`` and the next :meth:`start` on this
        ``state_dir`` resumes them.
        """
        with self._lock:
            if not self.started:
                return
            self._stopping = True
            for job in self._jobs.values():
                if job.state is JobState.RUNNING:
                    job.interrupt_requested = True
            self._wakeup.notify_all()
        self._stop_server()
        deadline = time.time() + timeout
        for worker in self._workers:
            if worker.name in self._abandoned:
                continue  # written off by the watchdog; may be hung forever
            worker.join(max(0.0, deadline - time.time()))
        self._workers.clear()
        if self._watchdog is not None:
            self._watchdog.join(max(0.0, deadline - time.time()))
            self._watchdog = None
        with self._lock:
            self._save_journal()
            self.started = False

    def stop_hard_for_tests(self) -> None:
        """Simulate ``kill -9`` mid-job: stop everything WITHOUT journaling.

        Running jobs stay ``RUNNING`` in the on-disk journal — exactly the
        state a crashed daemon leaves behind — so tests can assert that a
        fresh daemon on the same ``state_dir`` resumes them from their
        checkpoints.  (Threads cannot be killed, so in-flight jobs are
        interrupted through the progress callback; their terminal journal
        write is suppressed via ``_hard_stopped``.)
        """
        with self._lock:
            self._stopping = True
            self._hard_stopped = True
            for job in self._jobs.values():
                if job.state is JobState.RUNNING:
                    job.interrupt_requested = True
            self._wakeup.notify_all()
        self._stop_server()
        for worker in self._workers:
            if worker.name in self._abandoned:
                continue
            worker.join(30.0)
        self._workers.clear()
        if self._watchdog is not None:
            self._watchdog.join(10.0)
            self._watchdog = None
        self.started = False

    # ------------------------------------------------------------------- journal
    def _load_journal(self) -> None:
        data = load_json_or_quarantine(self._journal_path, kind="job journal")
        if data is None:
            return
        with self._lock:
            for record in data.get("jobs", []) if isinstance(data, dict) else []:
                try:
                    job = JobRecord.from_dict(record)
                except (KeyError, TypeError, ValueError) as error:
                    logger.warning(
                        "skipping undecodable journal record %r: %s", record, error
                    )
                    continue
                if job.state is JobState.RUNNING:
                    # In flight when the previous daemon died: resume it.
                    job.state = JobState.QUEUED
                self._jobs[job.job_id] = job
                if job.state is JobState.QUEUED:
                    self._push(job)
            self._save_journal()

    def _save_journal(self) -> None:
        payload = {"jobs": [job.to_dict() for job in self._jobs.values()]}
        scratch = self._journal_path.with_suffix(f".{os.getpid():x}.tmp")
        scratch.write_text(json.dumps(payload, separators=(",", ":")))
        scratch.replace(self._journal_path)

    def _push(self, job: JobRecord) -> None:
        self._heap_seq += 1
        heapq.heappush(self._heap, (-job.priority, self._heap_seq, job.job_id))
        self._wakeup.notify_all()

    # -------------------------------------------------------------------- submit
    def submit(
        self,
        mode: str,
        config: dict[str, Any] | ExperimentConfig,
        tenant: str = "default",
        priority: int = 0,
        attach_trace: bool = False,
        budget: ResourceBudget | dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Queue an experiment; returns ``{"job_id", "state", "cached", ...}``.

        Deduplication happens here, in key order: a key already archived in
        the store completes instantly (``cached`` true, no solve); a key
        already queued/running coalesces onto the existing job
        (``deduplicated`` true); otherwise the job is queued — unless the
        tenant is at its active-job quota or the daemon-wide queue is full,
        which raise :class:`ServiceError` (the latter with the retriable
        ``backpressure`` code).

        ``budget`` bounds the job (see :class:`ResourceBudget`); jobs
        submitted without one inherit ``ServiceConfig.default_budget``.
        """
        if mode not in MODES:
            raise ServiceError(
                f"unknown mode {mode!r} (expected one of {MODES})", code="bad-request"
            )
        try:
            cfg = (
                config
                if isinstance(config, ExperimentConfig)
                else ExperimentConfig.from_dict(dict(config))
            )
        except (ValueError, KeyError, TypeError) as error:
            raise ServiceError(
                f"invalid experiment config: {error}", code="bad-request"
            ) from None
        try:
            if isinstance(budget, dict):
                budget = ResourceBudget.from_dict(budget)
        except (ValueError, TypeError) as error:
            raise ServiceError(
                f"invalid resource budget: {error}", code="bad-request"
            ) from None
        if budget is None:
            budget = self.config.default_budget
        if budget is not None and budget.is_empty():
            budget = None
        key = content_key(mode, cfg, budget)
        with self._lock:
            if self._stopping:
                raise ServiceError(
                    "daemon is shutting down", code="unavailable", retriable=True
                )
            cached = self.store.get(key)
            if cached is not None:
                job = JobRecord(
                    job_id=new_job_id(),
                    mode=mode,
                    config=cfg.to_dict(),
                    key=key,
                    tenant=tenant,
                    priority=priority,
                    state=JobState.DONE,
                    cached=True,
                    budget=budget.to_dict() if budget is not None else None,
                )
                job.finished_at = job.submitted_at
                self._jobs[job.job_id] = job
                self._save_journal()
                return {
                    "job_id": job.job_id,
                    "state": job.state.value,
                    "cached": True,
                    "deduplicated": False,
                    "key": key,
                }
            for existing in self._jobs.values():
                if existing.key == key and not existing.state.terminal:
                    return {
                        "job_id": existing.job_id,
                        "state": existing.state.value,
                        "cached": False,
                        "deduplicated": True,
                        "key": key,
                    }
            quota = self.config.max_active_per_tenant
            if quota is not None:
                active = sum(
                    1
                    for job in self._jobs.values()
                    if job.tenant == tenant and not job.state.terminal
                )
                if active >= quota:
                    raise ServiceError(
                        f"tenant {tenant!r} is at its quota "
                        f"({active} active jobs, limit {quota})",
                        code="quota",
                    )
            depth = self.config.max_queue_depth
            if depth is not None:
                queued = sum(
                    1 for job in self._jobs.values() if job.state is JobState.QUEUED
                )
                if queued >= depth:
                    raise ServiceError(
                        f"queue is full ({queued} jobs queued, limit {depth}); "
                        "back off and retry",
                        code="backpressure",
                        retriable=True,
                    )
            job = JobRecord(
                job_id=new_job_id(),
                mode=mode,
                config=cfg.to_dict(),
                key=key,
                tenant=tenant,
                priority=priority,
                budget=budget.to_dict() if budget is not None else None,
            )
            if attach_trace and not job.config.get("trace"):
                traces = self.state_dir / "traces"
                traces.mkdir(exist_ok=True)
                job.config["trace"] = str(traces / f"{job.job_id}.trc")
            self._jobs[job.job_id] = job
            self._push(job)
            self._save_journal()
            return {
                "job_id": job.job_id,
                "state": job.state.value,
                "cached": False,
                "deduplicated": False,
                "key": key,
            }

    # ----------------------------------------------------------------- inspection
    def _job(self, job_id: str) -> JobRecord:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job id {job_id!r}", code="not-found") from None

    def status(self, job_id: str) -> dict[str, Any]:
        with self._lock:
            return self._job(job_id).to_dict(with_events=True)

    def result(self, job_id: str) -> dict[str, Any]:
        """The archived result of a DONE job (raises for every other state)."""
        with self._lock:
            job = self._job(job_id)
            if job.state is not JobState.DONE:
                raise ServiceError(
                    f"job {job_id} is {job.state.value}, not done"
                    + (f": {job.error}" if job.error else ""),
                    code="not-done",
                )
            result = self.store.get(job.key)
        if result is None:
            raise ServiceError(
                f"result for job {job_id} missing from the store", code="not-found"
            )
        return result

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a queued job immediately, or flag a running one to stop."""
        with self._lock:
            job = self._job(job_id)
            if job.state is JobState.QUEUED:
                job.state = JobState.CANCELLED
                job.finished_at = time.time()
                self._save_journal()
            elif job.state is JobState.RUNNING:
                job.cancel_requested = True
            return {"job_id": job_id, "state": job.state.value}

    def jobs(self, tenant: str | None = None) -> list[dict[str, Any]]:
        with self._lock:
            records = [
                job.to_dict()
                for job in self._jobs.values()
                if tenant is None or job.tenant == tenant
            ]
        return sorted(records, key=lambda r: r["submitted_at"])

    def stats(self) -> dict[str, Any]:
        with self._lock:
            counts: dict[str, int] = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                counts[job.state.value] += 1
            queue_depth = counts[JobState.QUEUED.value]
        return {
            "jobs": counts,
            "queue_depth": queue_depth,
            "store_entries": len(self.store),
            "workers": len(self._workers),
            "abandoned_workers": len(self._abandoned),
            "pid": os.getpid(),
        }

    def wait(self, job_id: str, timeout: float = 60.0) -> dict[str, Any]:
        """Block until ``job_id`` reaches a terminal state (in-process helper)."""
        deadline = time.time() + timeout
        poll = 0.01
        while True:
            with self._lock:
                job = self._job(job_id)
                if job.state.terminal:
                    return job.to_dict(with_events=True)
            if time.time() >= deadline:
                raise TimeoutError(f"job {job_id} still {job.state.value} after {timeout}s")
            time.sleep(poll)
            poll = min(poll * 2, 0.25)

    # ------------------------------------------------------------------ watchdog
    def _watchdog_loop(self) -> None:
        """Flag over-budget RUNNING jobs; write off workers that ignore it.

        Budget trips are detected twice: inline at every progress event
        (cheap, catches the common case within one event) and here on a
        timer (catches jobs stuck *between* events — a hung solver produces
        no events, so only the watchdog sees it age past its deadline).
        """
        interval = max(0.05, self.config.watchdog_interval)
        while True:
            with self._lock:
                if self._stopping:
                    return
                rss = None
                now = time.time()
                for job in list(self._jobs.values()):
                    if job.state is not JobState.RUNNING:
                        continue
                    budget = job.resource_budget()
                    if budget is None:
                        continue
                    if not job.timeout_requested:
                        if budget.rss_mb is not None and rss is None:
                            rss = current_rss_mb()
                        elapsed = now - (job.started_at or now)
                        verdict = budget.verdict(elapsed, rss)
                        if verdict is not None:
                            job.timeout_requested = True
                            job.budget_verdict = verdict
                            job.flagged_at = now
                    elif (
                        job.flagged_at is not None
                        and now - job.flagged_at >= self.config.hang_grace
                    ):
                        self._force_abandon(job)
                self._wakeup.wait(interval)

    def _force_abandon(self, job: JobRecord) -> None:
        """Write off a worker stuck past the hang grace (lock held).

        The thread cannot be killed; it is marked abandoned (it exits its
        loop if it ever wakes up), the job goes terminal so clients stop
        waiting, and a replacement worker keeps the pool at full strength.
        Anything the zombie thread eventually computes is discarded by the
        ``state is RUNNING`` guards in :meth:`_execute`.
        """
        worker_name = self._active.pop(job.job_id, None)
        job.state = JobState.TIMED_OUT
        job.finished_at = time.time()
        job.error = f"budget exceeded and job unresponsive: {job.budget_verdict}"
        job.add_event(
            "timeout", 0, None, job.error if job.error else "force-abandoned"
        )
        if not self._hard_stopped:
            self._save_journal()
        if worker_name is not None:
            self._abandoned.add(worker_name)
            logger.warning(
                "worker %s abandoned on hung job %s (%s); spawning a replacement",
                worker_name,
                job.job_id,
                job.budget_verdict,
            )
            self._spawn_worker()

    # ------------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        me = threading.current_thread().name
        while True:
            with self._lock:
                while (
                    not self._stopping
                    and not self._heap
                    and me not in self._abandoned
                ):
                    self._wakeup.wait(0.5)
                if self._stopping or me in self._abandoned:
                    return
                _, _, job_id = heapq.heappop(self._heap)
                job = self._jobs.get(job_id)
                if job is None or job.state is not JobState.QUEUED:
                    continue  # cancelled while queued, or re-queued duplicate
                job.state = JobState.RUNNING
                job.started_at = time.time()
                job.attempts += 1
                job.cancel_requested = False
                job.interrupt_requested = False
                job.timeout_requested = False
                job.flagged_at = None
                job.budget_verdict = None  # a stale verdict is a dead attempt's
                self._active[job.job_id] = me
                self._save_journal()
            try:
                self._execute(job)
            finally:
                with self._lock:
                    # Guarded: after a force-abandon this job_id may belong
                    # to a replacement worker's bookkeeping.
                    if self._active.get(job.job_id) == me:
                        self._active.pop(job.job_id, None)

    def _job_config(self, job: JobRecord) -> ExperimentConfig:
        cfg = ExperimentConfig.from_dict(dict(job.config))
        budget = job.resource_budget()
        if budget is not None and budget.max_conflicts is not None:
            # Wire the conflict cap into the existing per-call solver-budget
            # machinery: every sample (estimate) and every sub-problem
            # (solve/run) is individually capped.
            estimator = dataclasses.replace(
                cfg.effective_estimator(), max_conflicts_per_sample=budget.max_conflicts
            )
            cfg = cfg.replace(estimator=estimator)
        if job.mode in ("solve", "run") and cfg.checkpoint_path is None:
            # Content-keyed, not job-keyed: a re-submission after a crash (a
            # fresh job with the same key) resumes the same file.
            checkpoints = self.state_dir / "checkpoints"
            checkpoints.mkdir(exist_ok=True)
            cfg = cfg.replace(checkpoint_path=str(checkpoints / f"{job.key}.ckpt"))
        return cfg

    def _execute(self, job: JobRecord) -> None:
        budget = job.resource_budget()

        def on_progress(event: ProgressEvent) -> None:
            # The chaos hook runs OUTSIDE the daemon lock: an injected hang
            # must not deadlock the watchdog that is supposed to catch it.
            if self.chaos is not None:
                self.chaos.progress_event(job)
            with self._lock:
                job.add_event(
                    event.phase, event.completed, event.total, event.message
                )
                if job.state is not JobState.TIMED_OUT and budget is not None:
                    # Inline budget check: trips within one progress interval
                    # even between watchdog ticks.
                    elapsed = time.time() - (job.started_at or time.time())
                    rss = current_rss_mb() if budget.rss_mb is not None else None
                    verdict = budget.verdict(elapsed, rss)
                    if verdict is not None and job.budget_verdict is None:
                        job.budget_verdict = verdict
                if job.state is JobState.TIMED_OUT or job.timeout_requested:
                    raise _JobTimedOut()
                if job.budget_verdict is not None:
                    raise _JobTimedOut()
                if job.cancel_requested:
                    raise _JobCancelled()
                if job.interrupt_requested:
                    raise _JobInterrupted()

        try:
            cfg = self._job_config(job)
            experiment = Experiment.from_config(cfg, progress=on_progress)
            result = getattr(experiment, job.mode)()
            with self._lock:
                if job.state is not JobState.RUNNING:
                    return  # force-abandoned zombie: the result is discarded
                job.state = JobState.DONE
                job.finished_at = time.time()
                self.store.put(job.key, result.to_dict())
                if not self._hard_stopped:
                    self._save_journal()
        except _JobCancelled:
            with self._lock:
                if job.state is not JobState.RUNNING:
                    return
                job.state = JobState.CANCELLED
                job.finished_at = time.time()
                self._save_journal()
        except _JobTimedOut:
            with self._lock:
                if job.state is not JobState.RUNNING:
                    return
                job.state = JobState.TIMED_OUT
                job.finished_at = time.time()
                job.error = f"resource budget exceeded: {job.budget_verdict}"
                job.add_event("timeout", 0, None, job.budget_verdict or "budget exceeded")
                if not self._hard_stopped:
                    self._save_journal()
        except _JobInterrupted:
            with self._lock:
                if job.state is not JobState.RUNNING:
                    return
                # Graceful shutdown: back to the queue so restart resumes it.
                # After a hard stop the journal is left untouched — it still
                # says RUNNING, which is what a real kill leaves behind.
                job.state = JobState.QUEUED
                if not self._hard_stopped:
                    self._save_journal()
        except TransientJobError as error:
            with self._lock:
                if job.state is not JobState.RUNNING:
                    return
                if job.requeues < self.config.max_requeues and not self._stopping:
                    job.requeues += 1
                    job.state = JobState.QUEUED
                    job.add_event(
                        "requeue",
                        job.requeues,
                        self.config.max_requeues,
                        f"transient fault, requeued: {error}",
                    )
                    self._push(job)
                else:
                    job.state = JobState.FAILED
                    job.finished_at = time.time()
                    job.error = (
                        f"transient fault persisted through {job.requeues} requeues: "
                        f"{error}"
                    )
                if not self._hard_stopped:
                    self._save_journal()
        except Exception as error:  # noqa: BLE001 — a job must not kill its worker
            with self._lock:
                if job.state is not JobState.RUNNING:
                    return
                job.state = JobState.FAILED
                job.finished_at = time.time()
                job.error = f"{type(error).__name__}: {error}"
                job.events.append(
                    {
                        "seq": job.last_seq + 1,
                        "phase": "error",
                        "completed": 0,
                        "total": None,
                        "message": traceback.format_exc(limit=8),
                    }
                )
                job.last_seq += 1
                if not self._hard_stopped:
                    self._save_journal()

    # -------------------------------------------------------------------- server
    def _start_server(self) -> None:
        if self.config.host is not None:
            self._server = _TCPServer((self.config.host, self.config.port), self)
        else:
            path = Path(self.socket_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.unlink()  # stale socket from a killed daemon
            self._server = _UnixServer(str(path), self)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-service-server",
            daemon=True,
            kwargs={"poll_interval": 0.05},
        )
        self._server_thread.start()

    def _stop_server(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            # Handler threads outlive serve_forever: without this, a client's
            # open connection would go on being answered by a stopped daemon.
            self._server.close_connections()
            self._server.server_close()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(10.0)
            self._server_thread = None
        if self.config.host is None:
            try:
                Path(self.socket_path).unlink()
            except OSError:
                pass

    def _handle_request(self, request: dict[str, Any], wfile) -> None:
        op = request.get("op")
        try:
            if op == "ping":
                _write_line(wfile, {"ok": True, "pid": os.getpid()})
            elif op == "submit":
                outcome = self.submit(
                    request.get("mode", "run"),
                    request.get("config") or {},
                    tenant=request.get("tenant", "default"),
                    priority=int(request.get("priority", 0)),
                    attach_trace=bool(request.get("attach_trace", False)),
                    budget=request.get("budget"),
                )
                _write_line(wfile, {"ok": True, **outcome})
            elif op == "status":
                _write_line(wfile, {"ok": True, "job": self.status(request["job_id"])})
            elif op == "result":
                _write_line(wfile, {"ok": True, "result": self.result(request["job_id"])})
            elif op == "cancel":
                _write_line(wfile, {"ok": True, **self.cancel(request["job_id"])})
            elif op == "jobs":
                _write_line(wfile, {"ok": True, "jobs": self.jobs(request.get("tenant"))})
            elif op == "stats":
                _write_line(wfile, {"ok": True, **self.stats()})
            elif op == "watch":
                self._stream_watch(
                    request["job_id"], int(request.get("from_seq", 0)), wfile
                )
            elif op == "shutdown":
                _write_line(wfile, {"ok": True, "message": "shutting down"})
                # From a thread: shutdown() joins the server thread, which
                # must not be this handler's own serve_forever loop.
                threading.Thread(target=self.shutdown, daemon=True).start()
            else:
                _write_line(
                    wfile,
                    {
                        "ok": False,
                        "error": f"unknown op {op!r}",
                        "code": "bad-request",
                        "retriable": False,
                    },
                )
        except ServiceError as error:
            _write_line(
                wfile,
                {
                    "ok": False,
                    "error": str(error),
                    "code": error.code,
                    "retriable": error.retriable,
                },
            )

    def _stream_watch(self, job_id: str, from_seq: int, wfile) -> None:
        """Stream progress events (one JSON line each) until the job ends.

        Stops early when the client has gone (a write fails).
        """
        last = from_seq
        while True:
            with self._lock:
                job = self._job(job_id)
                fresh = [event for event in job.events if event["seq"] > last]
                state = job.state
            for event in fresh:
                if not _write_line(wfile, {"ok": True, "event": event}):
                    return
                last = event["seq"]
            if state.terminal or self._stopping:
                _write_line(
                    wfile,
                    {"ok": True, "done": True, "state": state.value, "last_seq": last},
                )
                return
            time.sleep(0.02)


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: request after request until the client closes it."""

    def handle(self) -> None:
        while True:
            try:
                line = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            except OSError:
                return  # reset by the client, or shut down by the daemon
            if not line:
                return
            try:
                if len(line) > MAX_REQUEST_BYTES:
                    raise ValueError(
                        f"request line longer than {MAX_REQUEST_BYTES} bytes"
                    )
                request = json.loads(line)
                self.server.daemon._handle_request(request, self.wfile)
            except Exception as error:  # noqa: BLE001 — protocol errors -> client
                _write_line(
                    self.wfile,
                    {
                        "ok": False,
                        "error": str(error),
                        "code": "protocol",
                        "retriable": False,
                    },
                )
                return  # the stream may be out of step: close the connection


class _KeepAliveServer(socketserver.ThreadingMixIn):
    """A threading server that tracks its open connections.

    Each accepted connection gets a handler thread that serves it until the
    client closes it; :meth:`close_connections` shuts every one down, so no
    handler goes on answering for a stopped daemon.
    """

    daemon_threads = True

    def __init__(self, address, daemon: ServiceDaemon):
        self.daemon = daemon
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _Handler)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by the client


class _TCPServer(_KeepAliveServer, socketserver.TCPServer):
    allow_reuse_address = True


class _UnixServer(_KeepAliveServer, socketserver.UnixStreamServer):
    pass


def _write_line(wfile, payload: dict[str, Any]) -> bool:
    """Write one response line; false when the client has gone."""
    try:
        wfile.write((json.dumps(payload) + "\n").encode())
        wfile.flush()
    except OSError:
        return False  # client went away mid-stream; nothing to salvage
    return True


__all__ = [
    "MODES",
    "ServiceConfig",
    "ServiceDaemon",
    "ServiceError",
    "TransientJobError",
]
