"""Seeded fault injection and the chaos scenario harness.

The paper's pipeline targeted a volunteer grid where node failure and
corrupted state are the norm; the scheduler already proves itself under a
seeded :class:`~repro.runner.scheduler.FailureModel` *below* the facade.
This module extends that discipline up through the service layer:

* :class:`ChaosPolicy` — a seeded in-daemon fault injector.  The daemon
  calls its :meth:`ChaosPolicy.progress_event` hook at every job progress
  event (outside the daemon lock); the policy decides, reproducibly from
  its seed, whether to crash the worker (a
  :class:`~repro.service.daemon.TransientJobError`, exercising the requeue
  path) or hang the job (exercising the budget watchdog);
* the **scenario harness** — :func:`run_scenario` stands up real daemons
  on a throwaway state dir, injects one class of fault (worker crash, hung
  job, corrupt journal, truncated checkpoint, dropped client connections,
  kill -9 + restart) and then verifies the service *converged*: every job
  terminal, every completed result bit-identical to a fault-free reference
  run, no stuck service threads, and a journal that loads cleanly.

``repro-sat chaos`` drives :func:`run_all`; ``tests/test_chaos.py`` runs
the same scenarios under pytest.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api import Experiment
from repro.api.specs import ExperimentConfig, InstanceSpec, MinimizerSpec
from repro.service.budget import ResourceBudget
from repro.service.daemon import (
    ServiceConfig,
    ServiceDaemon,
    TransientJobError,
)
from repro.service.jobs import JobRecord

#: The scenario names ``repro-sat chaos`` accepts (insertion order = run order).
SCENARIOS = (
    "worker-crash",
    "hung-job",
    "corrupt-journal",
    "truncated-checkpoint",
    "client-disconnect",
    "kill-restart",
)


class InjectedWorkerCrash(TransientJobError):
    """A chaos-injected worker crash (transient: the daemon requeues)."""


@dataclass
class ChaosPolicy:
    """Seeded fault injection inside the daemon's progress path.

    Each job draws (reproducibly, from ``seed``) a target progress-event
    index in ``[min_event, max_event]``; when a job reaches its target the
    policy fires the next configured fault: ``crash_workers`` injected
    crashes first, then ``hang_jobs`` hangs.  A hang is *cooperative* by
    default — it polls the job's control flags and unblocks as soon as the
    daemon asks it to stop, which is how a real stuck-but-interruptible job
    behaves; ``hang_ignores_flags`` simulates a truly wedged job that only
    the watchdog's force-abandon can get rid of.
    """

    seed: int = 0
    #: Injected worker crashes remaining (each fires once, on one job).
    crash_workers: int = 0
    #: Injected hangs remaining.
    hang_jobs: int = 0
    #: A hung job that ignores cancel/interrupt/timeout flags (watchdog bait).
    hang_ignores_flags: bool = False
    #: Hard ceiling on any injected hang (a harness safety net, not policy).
    hang_timeout: float = 30.0
    #: Progress-event window the per-job injection point is drawn from.
    min_event: int = 1
    max_event: int = 4
    #: Injection log: ``(job_id, fault)`` tuples, in firing order.
    injected: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._targets: dict[str, int] = {}
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def progress_event(self, job: JobRecord) -> None:
        """The daemon's hook: maybe crash or hang the calling worker.

        Runs OUTSIDE the daemon lock (a hang in here must not deadlock the
        watchdog), so all policy state is guarded by its own lock.
        """
        with self._lock:
            target = self._targets.setdefault(
                job.job_id, self._rng.randint(self.min_event, self.max_event)
            )
            self._counts[job.job_id] = self._counts.get(job.job_id, 0) + 1
            if self._counts[job.job_id] != target:
                return
            if self.crash_workers > 0:
                self.crash_workers -= 1
                self.injected.append((job.job_id, "crash"))
                fault = "crash"
            elif self.hang_jobs > 0:
                self.hang_jobs -= 1
                self.injected.append((job.job_id, "hang"))
                fault = "hang"
            else:
                return
        if fault == "crash":
            raise InjectedWorkerCrash(
                f"chaos: injected worker crash on job {job.job_id}"
            )
        self._hang(job)

    def _hang(self, job: JobRecord) -> None:
        deadline = time.time() + self.hang_timeout
        while time.time() < deadline:
            if job.state.terminal:
                return  # force-abandoned by the watchdog: the zombie unwinds
            if not self.hang_ignores_flags and (
                job.cancel_requested or job.interrupt_requested or job.timeout_requested
            ):
                return
            time.sleep(0.01)


def truncate_at(path: Path, rng: random.Random) -> int:
    """Truncate ``path`` at a random byte (< its size); returns the cut point.

    Models a writer killed mid-write on a filesystem without atomic replace,
    or plain disk corruption: the leading bytes are intact, the tail is gone.
    """
    size = path.stat().st_size
    cut = rng.randrange(0, max(1, size))
    with path.open("rb+") as handle:
        handle.truncate(cut)
    return cut


# ------------------------------------------------------------------ harness
@dataclass
class ScenarioReport:
    """What one chaos scenario did and whether it converged."""

    name: str
    seed: int
    passed: bool = True
    failures: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.passed = False
            self.failures.append(message)


def _estimate_config(seed: int = 1) -> dict[str, Any]:
    return ExperimentConfig(
        instance=InstanceSpec(cipher="bivium-tiny", seed=1),
        minimizer=MinimizerSpec(max_evaluations=3),
        sample_size=5,
        seed=seed,
    ).to_dict()


def _solve_config(bits: int = 6, seed: int = 1) -> dict[str, Any]:
    return ExperimentConfig(
        instance=InstanceSpec(cipher="geffe-tiny", seed=1),
        decomposition=tuple(range(1, bits + 1)),
        seed=seed,
    ).to_dict()


def _reference(mode: str, config: dict[str, Any]) -> dict[str, Any]:
    """The fault-free result every scenario's completed jobs must match."""
    result = getattr(
        Experiment.from_config(ExperimentConfig.from_dict(config)), mode
    )()
    return result.to_dict()


def _assert_solve_identical(
    report: ScenarioReport, served: dict[str, Any], reference: dict[str, Any]
) -> None:
    """Bit-identical solve outcome (fields independent of wall clock/resume)."""
    report.check(
        served["data"]["statuses"] == reference["data"]["statuses"],
        "solve statuses diverged from the fault-free run",
    )
    report.check(
        served["data"]["costs"] == reference["data"]["costs"],
        "solve costs diverged from the fault-free run",
    )
    report.check(
        served["status"] == reference["status"],
        f"status {served['status']} != fault-free {reference['status']}",
    )


#: The progress event the kill scenarios hold their job at (the event of its
#: 15th sub-problem, past the 8 they wait for): the cooperative hang keeps the
#: job running there until the kill interrupts it, however fast its rows are.
_HOLD_EVENT = 16


def _wait_mid_progress(
    daemon: ServiceDaemon, job_id: str, min_completed: int = 4, timeout: float = 60.0
) -> None:
    """Block until the job, still in flight, completed some (not all) sub-problems.

    The state is checked before the events: a finished job has mid-run
    events too, and a kill that lands after the job finished tests nothing.
    """
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = daemon.status(job_id)
        if job["state"] not in ("queued", "running"):
            raise AssertionError(
                f"job went terminal ({job['state']}) before it could be interrupted"
            )
        for event in job.get("events", []):
            if (
                event["phase"] == "solve"
                and event["total"]
                and min_completed <= event["completed"] < event["total"]
            ):
                return
        time.sleep(0.005)
    raise AssertionError("job never reported mid-run progress")


def _converged(report: ScenarioReport, daemon: ServiceDaemon, before_threads: set[str]) -> None:
    """The teardown contract every scenario must satisfy."""
    jobs = daemon.jobs()
    report.details["final_states"] = {job["job_id"]: job["state"] for job in jobs}
    report.check(
        all(
            job["state"] in ("done", "failed", "cancelled", "timed-out")
            for job in jobs
        ),
        f"non-terminal jobs after convergence: {report.details['final_states']}",
    )
    journal_path = daemon.state_dir / "jobs.json"
    try:
        json.loads(journal_path.read_text())
    except (OSError, ValueError) as error:
        report.check(False, f"journal does not load cleanly: {error}")
    after = {
        thread.name
        for thread in threading.enumerate()
        if not thread.daemon and thread.is_alive()
    }
    report.check(
        after <= before_threads,
        f"non-daemon threads leaked: {sorted(after - before_threads)}",
    )


def run_scenario(name: str, state_root: Path, seed: int = 1) -> ScenarioReport:
    """Run one named chaos scenario on a fresh state dir under ``state_root``."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown chaos scenario {name!r} (expected one of {SCENARIOS})")
    report = ScenarioReport(name=name, seed=seed)
    state_dir = Path(state_root) / f"{name}-{seed}"
    before_threads = {
        thread.name
        for thread in threading.enumerate()
        if not thread.daemon and thread.is_alive()
    }
    runner = {
        "worker-crash": _scenario_worker_crash,
        "hung-job": _scenario_hung_job,
        "corrupt-journal": _scenario_corrupt_journal,
        "truncated-checkpoint": _scenario_truncated_checkpoint,
        "client-disconnect": _scenario_client_disconnect,
        "kill-restart": _scenario_kill_restart,
    }[name]
    daemons: list[ServiceDaemon] = []

    def daemon_factory(**kwargs: Any) -> ServiceDaemon:
        daemon = ServiceDaemon(ServiceConfig(state_dir=str(state_dir), **kwargs))
        daemons.append(daemon)
        return daemon.start()

    try:
        runner(report, daemon_factory, random.Random(seed))
        live = next((d for d in reversed(daemons) if d.started), None)
        if live is not None:
            _converged(report, live, before_threads)
    except Exception as error:  # noqa: BLE001 — a scenario crash is a failure
        report.check(False, f"scenario raised {type(error).__name__}: {error}")
    finally:
        for daemon in daemons:
            if daemon.started:
                daemon.shutdown()
    return report


def run_all(state_root: Path, seed: int = 1) -> list[ScenarioReport]:
    """Run every scenario; one report each."""
    return [run_scenario(name, state_root, seed) for name in SCENARIOS]


# ---------------------------------------------------------------- scenarios
def _scenario_worker_crash(report, daemon_factory, rng) -> None:
    """A worker crashes mid-job: the job is requeued and still converges."""
    config = _solve_config(bits=6)
    reference = _reference("solve", config)
    chaos = ChaosPolicy(seed=rng.randrange(2**31), crash_workers=1)
    daemon = daemon_factory(workers=1)
    daemon.chaos = chaos
    submitted = daemon.submit("solve", config)
    job = daemon.wait(submitted["job_id"], timeout=120.0)
    report.details["injected"] = list(chaos.injected)
    report.check(job["state"] == "done", f"job ended {job['state']}, expected done")
    report.check(
        any(fault == "crash" for _, fault in chaos.injected),
        "the crash was never injected",
    )
    report.check(job["requeues"] >= 1, "the crash did not requeue the job")
    _assert_solve_identical(report, daemon.result(submitted["job_id"]), reference)


def _scenario_hung_job(report, daemon_factory, rng) -> None:
    """A hung job trips its wall budget and times out; the pool keeps serving."""
    clean_config = _estimate_config(seed=2)
    clean_reference = _reference("estimate", clean_config)
    chaos = ChaosPolicy(seed=rng.randrange(2**31), hang_jobs=1)
    daemon = daemon_factory(workers=1, watchdog_interval=0.1)
    daemon.chaos = chaos
    hung = daemon.submit(
        "solve", _solve_config(bits=6), budget=ResourceBudget(wall_seconds=0.5)
    )
    job = daemon.wait(hung["job_id"], timeout=60.0)
    report.details["injected"] = list(chaos.injected)
    report.check(
        job["state"] == "timed-out", f"hung job ended {job['state']}, expected timed-out"
    )
    report.check(
        bool(job["budget_verdict"]) and "wall-clock" in job["budget_verdict"],
        f"missing/unexpected budget verdict: {job['budget_verdict']}",
    )
    # The same worker thread survives to run the next job.
    clean = daemon.submit("estimate", clean_config)
    clean_job = daemon.wait(clean["job_id"], timeout=60.0)
    report.check(clean_job["state"] == "done", "worker did not survive the hung job")
    served = daemon.result(clean["job_id"])
    report.check(
        served["data"] == clean_reference["data"],
        "estimate after the hang diverged from the fault-free run",
    )
    report.check(
        daemon.stats()["abandoned_workers"] == 0,
        "cooperative hang should not need a force-abandon",
    )


def _scenario_corrupt_journal(report, daemon_factory, rng) -> None:
    """A truncated journal is quarantined; the store still serves the result."""
    config = _estimate_config(seed=3)
    reference = _reference("estimate", config)
    daemon = daemon_factory(workers=1)
    submitted = daemon.submit("estimate", config)
    daemon.wait(submitted["job_id"], timeout=60.0)
    daemon.shutdown()

    journal = daemon.state_dir / "jobs.json"
    report.details["journal_cut"] = truncate_at(journal, rng)

    revived = daemon_factory(workers=1)
    report.check(
        (revived.state_dir / "jobs.json.corrupt").exists(),
        "corrupt journal was not quarantined",
    )
    resubmitted = revived.submit("estimate", config)
    report.check(
        resubmitted["cached"] is True,
        "result store should have survived the journal corruption",
    )
    served = revived.result(resubmitted["job_id"])
    report.check(
        served["data"] == reference["data"],
        "served result diverged from the fault-free run",
    )


def _scenario_truncated_checkpoint(report, daemon_factory, rng) -> None:
    """A truncated checkpoint reads as no-checkpoint: fresh solve, same bits."""
    config = _solve_config(bits=8)  # 256 sub-problems -> checkpoint_every = 1
    reference = _reference("solve", config)
    daemon = daemon_factory(workers=1)
    daemon.chaos = ChaosPolicy(hang_jobs=1, min_event=_HOLD_EVENT, max_event=_HOLD_EVENT)
    submitted = daemon.submit("solve", config)
    _wait_mid_progress(daemon, submitted["job_id"], min_completed=8)
    daemon.stop_hard_for_tests()

    checkpoint = daemon.state_dir / "checkpoints" / f"{submitted['key']}.ckpt"
    report.check(checkpoint.exists(), "no checkpoint was written before the kill")
    if checkpoint.exists():
        report.details["checkpoint_cut"] = truncate_at(checkpoint, rng)

    revived = daemon_factory(workers=1)
    job = revived.wait(submitted["job_id"], timeout=120.0)
    report.check(job["state"] == "done", f"job ended {job['state']}, expected done")
    served = revived.result(submitted["job_id"])
    report.check(
        served["data"]["resumed_subproblems"] == 0,
        "a truncated checkpoint must not be resumed from",
    )
    report.check(
        any(c.name.startswith(checkpoint.name) and ".corrupt" in c.name
            for c in checkpoint.parent.glob("*.corrupt*")),
        "corrupt checkpoint was not quarantined",
    )
    _assert_solve_identical(report, served, reference)


def _scenario_client_disconnect(report, daemon_factory, rng) -> None:
    """Clients dropping mid-request/mid-stream never wedge the daemon."""
    config = _solve_config(bits=6)
    reference = _reference("solve", config)
    daemon = daemon_factory(workers=1)
    submitted = daemon.submit("solve", config)

    def drop_connection(payload: bytes | None, read_lines: int) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5.0)
        try:
            sock.connect(daemon.socket_path)
            if payload is not None:
                sock.sendall(payload)
            reader = sock.makefile("rb")
            for _ in range(read_lines):
                if not reader.readline():
                    break
        finally:
            sock.close()  # abrupt: no shutdown handshake

    watch = json.dumps({"op": "watch", "job_id": submitted["job_id"]}) + "\n"
    drop_connection(watch.encode(), read_lines=1)  # drop mid-stream
    drop_connection(b"this is not json\n", read_lines=1)  # garbage request
    drop_connection(None, read_lines=0)  # connect and vanish
    report.details["drops"] = 3

    job = daemon.wait(submitted["job_id"], timeout=120.0)
    report.check(job["state"] == "done", f"job ended {job['state']}, expected done")
    _assert_solve_identical(report, daemon.result(submitted["job_id"]), reference)


def _scenario_kill_restart(report, daemon_factory, rng) -> None:
    """kill -9 mid-job: restart resumes from the checkpoint, bit-identically."""
    config = _solve_config(bits=8)
    reference = _reference("solve", config)
    daemon = daemon_factory(workers=1)
    daemon.chaos = ChaosPolicy(hang_jobs=1, min_event=_HOLD_EVENT, max_event=_HOLD_EVENT)
    submitted = daemon.submit("solve", config)
    _wait_mid_progress(daemon, submitted["job_id"], min_completed=8)
    daemon.stop_hard_for_tests()

    # The on-disk journal still says RUNNING — what a real kill leaves behind.
    states = {
        job["job_id"]: job["state"]
        for job in json.loads((daemon.state_dir / "jobs.json").read_text())["jobs"]
    }
    report.check(
        states.get(submitted["job_id"]) == "running",
        f"journal after kill says {states.get(submitted['job_id'])}, expected running",
    )

    revived = daemon_factory(workers=1)
    job = revived.wait(submitted["job_id"], timeout=120.0)
    report.check(job["state"] == "done", f"job ended {job['state']}, expected done")
    report.check(job["attempts"] >= 2, "restart should re-enter RUNNING")
    served = revived.result(submitted["job_id"])
    report.check(
        served["data"]["resumed_subproblems"] > 0,
        "restart did not resume from the checkpoint",
    )
    _assert_solve_identical(report, served, reference)


__all__ = [
    "ChaosPolicy",
    "InjectedWorkerCrash",
    "SCENARIOS",
    "ScenarioReport",
    "run_all",
    "run_scenario",
    "truncate_at",
]
