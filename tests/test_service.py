"""Tests for the estimation-as-a-service layer (:mod:`repro.service`).

The suite drives real daemons over real unix sockets — the same code path as
``repro-sat serve`` — and covers the contracts the service makes:

* submit/status/result/cancel lifecycle, with progress streaming (``watch``);
* content-addressed caching: identical configs cost one solve, concurrent
  identical submissions coalesce onto one job;
* per-tenant quotas reject, priorities reorder;
* concurrent clients hammering one daemon stay consistent;
* keep-alive: a client thread reuses one connection, a stopping daemon shuts
  every connection down, and a client reconnects to the next daemon;
* the journal is one complete document after every transition;
* a daemon killed mid-job (``stop_hard_for_tests``: the journal is left
  exactly as ``kill -9`` would leave it) restarts, resumes from the
  scheduler checkpoint and produces results bit-identical to an
  uninterrupted run.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import (
    BackendSpec,
    Experiment,
    ExperimentConfig,
    InstanceSpec,
    MinimizerSpec,
    SolverSpec,
)
from repro.service import (
    JobState,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    ServiceError,
    content_key,
)
from repro.runner.scheduler import SchedulerCheckpoint
from repro.service.chaos import ChaosPolicy
from repro.service.client import TERMINAL_STATES
from repro.service.daemon import MAX_REQUEST_BYTES


def _estimate_config(seed: int = 1, evaluations: int = 3) -> dict:
    return ExperimentConfig(
        instance=InstanceSpec(cipher="bivium-tiny", seed=1),
        minimizer=MinimizerSpec(max_evaluations=evaluations),
        sample_size=5,
        seed=seed,
    ).to_dict()


def _solve_config(decomposition_bits: int = 8, seed: int = 1) -> dict:
    return ExperimentConfig(
        instance=InstanceSpec(cipher="geffe-tiny", seed=1),
        decomposition=tuple(range(1, decomposition_bits + 1)),
        seed=seed,
    ).to_dict()


def _slow_solve_config(decomposition_bits: int = 6, backend: BackendSpec | None = None) -> dict:
    """A solve job on the ``slow-rows`` solver: every sub-problem takes 0.15 s."""
    return ExperimentConfig(
        instance=InstanceSpec(cipher="geffe-tiny", seed=1),
        decomposition=tuple(range(1, decomposition_bits + 1)),
        solver=SolverSpec(name="slow-rows"),
        backend=backend or BackendSpec(),
    ).to_dict()


def _hold_at_event(daemon: ServiceDaemon, event: int) -> None:
    """Hold the daemon's next job at its ``event``-th progress event.

    The job stays in flight there, however fast its rows are, until it is
    cancelled, interrupted or timed out (the chaos hook's cooperative hang).
    """
    daemon.chaos = ChaosPolicy(hang_jobs=1, min_event=event, max_event=event)


@pytest.fixture()
def daemon_factory(tmp_path):
    """Build daemons on throwaway state dirs; always shut them down."""
    daemons: list[ServiceDaemon] = []

    def factory(state_dir="state", **config_kwargs) -> ServiceDaemon:
        config = ServiceConfig(state_dir=str(tmp_path / state_dir), **config_kwargs)
        daemon = ServiceDaemon(config).start()
        daemons.append(daemon)
        return daemon

    yield factory
    for daemon in daemons:
        if daemon.started:
            daemon.shutdown()


class TestSubmitLifecycle:
    def test_submit_runs_and_result_matches_direct_facade_run(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        assert client.ping()["ok"]

        outcome = client.submit("estimate", _estimate_config())
        assert outcome["state"] == "queued"
        assert not outcome["cached"] and not outcome["deduplicated"]

        job = client.wait(outcome["job_id"])
        assert job["state"] == "done"
        assert job["attempts"] == 1
        served = client.result(outcome["job_id"])

        direct = Experiment.from_config(
            ExperimentConfig.from_dict(_estimate_config())
        ).estimate()
        assert served["data"] == direct.to_dict()["data"]
        assert served["kind"] == "estimate"

    def test_watch_streams_progress_then_done(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        outcome = client.submit("estimate", _estimate_config())
        messages = list(client.watch(outcome["job_id"]))
        assert messages[-1]["done"] and messages[-1]["state"] == "done"
        phases = [m["event"]["phase"] for m in messages if "event" in m]
        assert "estimate" in phases

    def test_result_of_unfinished_job_is_a_clean_error(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        # Occupy the single worker so the probe job stays queued.
        client.submit("solve", _solve_config())
        probe = client.submit("estimate", _estimate_config(seed=99))
        with pytest.raises(ServiceError, match="not done"):
            client.result(probe["job_id"])
        with pytest.raises(ServiceError, match="unknown job id"):
            client.status("no-such-job")

    def test_failed_job_reports_its_error(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        bad = dict(_estimate_config())
        bad["decomposition"] = [10_000]  # outside the formula -> ValueError
        outcome = client.submit("solve", bad)
        job = client.wait(outcome["job_id"])
        assert job["state"] == "failed"
        assert "outside" in job["error"]
        with pytest.raises(ServiceError, match="failed"):
            client.result(outcome["job_id"])


class TestContentAddressedCache:
    def test_identical_configs_cost_one_solve(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        first = client.submit("estimate", _estimate_config())
        client.wait(first["job_id"])

        second = client.submit("estimate", _estimate_config())
        assert second["cached"] is True
        assert second["state"] == "done"
        assert second["key"] == first["key"]
        # The cached job never entered RUNNING: nothing was recomputed.
        assert client.status(second["job_id"])["attempts"] == 0
        assert client.result(second["job_id"]) == client.result(first["job_id"])
        assert daemon.stats()["store_entries"] == 1

    def test_active_duplicate_coalesces_onto_the_running_job(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        first = client.submit("solve", _solve_config())
        duplicate = client.submit("solve", _solve_config())
        assert duplicate["deduplicated"] is True
        assert duplicate["job_id"] == first["job_id"]
        assert client.wait(first["job_id"])["state"] == "done"

    def test_key_ignores_journal_fields_but_not_semantics(self):
        base = ExperimentConfig.from_dict(_estimate_config())
        assert content_key("estimate", base) == content_key(
            "estimate", base.replace(checkpoint_path="x.ckpt", trace="x.trc")
        )
        assert content_key("estimate", base) != content_key("run", base)
        assert content_key("estimate", base) != content_key(
            "estimate", base.replace(seed=base.seed + 1)
        )


class TestQuotasAndPriorities:
    def test_tenant_quota_rejects_and_is_per_tenant(self, daemon_factory):
        daemon = daemon_factory(workers=1, max_active_per_tenant=2)
        client = ServiceClient(daemon.socket_path)
        # A long solve pins the single worker, so alice's two jobs stay
        # *active* (running + queued) no matter how fast the machine is.
        client.submit("solve", _solve_config(decomposition_bits=10), tenant="alice")
        client.submit("estimate", _estimate_config(seed=2), tenant="alice")
        with pytest.raises(ServiceError, match="quota"):
            client.submit("estimate", _estimate_config(seed=3), tenant="alice")
        # Another tenant is unaffected; terminal jobs free the quota.
        bob = client.submit("estimate", _estimate_config(seed=3), tenant="bob")
        client.wait(bob["job_id"])
        for job in client.jobs(tenant="alice"):
            client.wait(job["job_id"])
        assert client.submit("estimate", _estimate_config(seed=4), tenant="alice")

    def test_higher_priority_jobs_run_first(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        blocker = client.submit("solve", _solve_config())  # occupies the worker
        low = client.submit("estimate", _estimate_config(seed=10), priority=0)
        high = client.submit("estimate", _estimate_config(seed=11), priority=5)
        for job_id in (blocker["job_id"], low["job_id"], high["job_id"]):
            client.wait(job_id)
        assert (
            client.status(high["job_id"])["started_at"]
            < client.status(low["job_id"])["started_at"]
        )


class TestCancellation:
    def test_cancel_queued_job_is_immediate(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        client.submit("solve", _solve_config())  # occupies the worker
        queued = client.submit("estimate", _estimate_config(seed=7))
        outcome = client.cancel(queued["job_id"])
        assert outcome["state"] == "cancelled"
        assert client.status(queued["job_id"])["state"] == "cancelled"

    def test_cancel_running_job_stops_it_mid_family(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        _hold_at_event(daemon, 3)  # in flight until cancelled
        client = ServiceClient(daemon.socket_path)
        running = client.submit("solve", _solve_config(decomposition_bits=10))
        _wait_for_progress(client, running["job_id"])
        client.cancel(running["job_id"])
        job = client.wait(running["job_id"])
        assert job["state"] == "cancelled"
        assert daemon.stats()["store_entries"] == 0

    def test_cancel_lands_within_a_row_of_slow_rows(self, daemon_factory, slow_rows):
        # 64 sub-problems of 0.15 s each: the serial backend keeps its chunks
        # to one row, so the job sees the cancel at the next row's event.
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        running = client.submit("solve", _slow_solve_config())
        _wait_for_progress(client, running["job_id"])
        client.cancel(running["job_id"])
        at_cancel = len(slow_rows)
        job = client.wait(running["job_id"])
        assert job["state"] == "cancelled"
        assert at_cancel <= len(slow_rows) <= at_cancel + 1

    def test_cancel_lands_within_a_row_per_worker_on_the_pool(self, daemon_factory, slow_rows):
        # The same 64 rows on a 2-process pool: every chunk holds one row, so
        # the cancel lands at the next row a worker finishes.  Forked workers
        # cannot append to ``slow_rows``; the job's checkpoint, written
        # before each chunk's progress events, tells how far it got.
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        pool = BackendSpec(name="process-pool", options={"processes": 2})
        running = client.submit("solve", _slow_solve_config(backend=pool))
        _wait_for_progress(client, running["job_id"])
        path = daemon.state_dir / "checkpoints" / f"{running['key']}.ckpt"
        at_cancel = len(SchedulerCheckpoint.load(path))
        client.cancel(running["job_id"])
        job = client.wait(running["job_id"])
        assert job["state"] == "cancelled"
        assert at_cancel <= len(SchedulerCheckpoint.load(path)) <= at_cancel + 3


class TestConcurrentClients:
    def test_many_clients_one_daemon(self, daemon_factory):
        daemon = daemon_factory(workers=2)
        outcomes: list[dict] = []
        errors: list[Exception] = []

        def one_client(seed: int) -> None:
            try:
                client = ServiceClient(daemon.socket_path)
                submitted = client.submit("estimate", _estimate_config(seed=seed % 3))
                outcomes.append(client.wait(submitted["job_id"], timeout=120.0))
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        threads = [threading.Thread(target=one_client, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(150.0)
        assert not errors
        assert len(outcomes) == 8
        assert all(job["state"] == "done" for job in outcomes)
        # 8 submissions over 3 distinct configs -> exactly 3 solves archived.
        assert daemon.stats()["store_entries"] == 3


def _wait_for_progress(
    client: ServiceClient, job_id: str, timeout: float = 60.0, min_completed: int = 1
) -> None:
    """Block until the job completed ``min_completed`` sub-problems (not all).

    The state is checked before the events: a finished job's events also
    hold mid-family progress, but it can no longer be interrupted.
    """
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = client.status(job_id)
        if job["state"] in TERMINAL_STATES:
            raise AssertionError(f"job finished ({job['state']}) before it could be interrupted")
        events = job.get("events", [])
        solve_events = [
            e
            for e in events
            if e["phase"] == "solve"
            and e["total"]
            and min_completed <= e["completed"] < e["total"]
        ]
        if solve_events:
            return
        time.sleep(0.005)
    raise AssertionError("job never reported mid-family progress")


class TestKillAndResume:
    def test_killed_daemon_resumes_job_from_checkpoint(self, daemon_factory, tmp_path):
        config = _solve_config(decomposition_bits=10)  # 1024 sub-problems
        reference = Experiment.from_config(ExperimentConfig.from_dict(config)).solve()

        daemon = daemon_factory(workers=1)
        # Held at the event of its 39th sub-problem, so the kill finds it in
        # flight.  The facade checkpoints every len(vectors)//256 = 4
        # sub-problems, each chunk's checkpoint before its progress events:
        # waiting for 32 guarantees a checkpoint is on disk before the kill.
        _hold_at_event(daemon, 40)
        client = ServiceClient(daemon.socket_path)
        submitted = client.submit("solve", config)
        _wait_for_progress(client, submitted["job_id"], min_completed=32)
        daemon.stop_hard_for_tests()

        # The on-disk journal still says RUNNING — what a kill leaves behind.
        journal = json.loads((daemon.state_dir / "jobs.json").read_text())
        states = {job["job_id"]: job["state"] for job in journal["jobs"]}
        assert states[submitted["job_id"]] == "running"

        revived = daemon_factory(workers=1)  # same tmp_path -> same state dir
        client = ServiceClient(revived.socket_path)
        job = client.wait(submitted["job_id"], timeout=120.0)
        assert job["state"] == "done"
        assert job["attempts"] >= 2  # once before the kill, once after

        resumed = client.result(submitted["job_id"])
        assert resumed["data"]["resumed_subproblems"] > 0
        # Bit-identical to the uninterrupted reference run.
        assert resumed["data"]["statuses"] == reference.data["statuses"]
        assert resumed["data"]["costs"] == reference.data["costs"]
        assert resumed["status"] == reference.status

    def test_graceful_shutdown_requeues_in_flight_jobs(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        _hold_at_event(daemon, 40)  # in flight until the shutdown interrupts it
        client = ServiceClient(daemon.socket_path)
        submitted = client.submit("solve", _solve_config(decomposition_bits=10))
        _wait_for_progress(client, submitted["job_id"], min_completed=32)
        daemon.shutdown()

        journal = json.loads((daemon.state_dir / "jobs.json").read_text())
        states = {job["job_id"]: job["state"] for job in journal["jobs"]}
        assert states[submitted["job_id"]] == "queued"

        revived = daemon_factory(workers=1)
        client = ServiceClient(revived.socket_path)
        job = client.wait(submitted["job_id"], timeout=120.0)
        assert job["state"] == "done"
        assert client.result(submitted["job_id"])["data"]["resumed_subproblems"] > 0


class TestTraceAttachment:
    def test_attach_trace_records_a_readable_trace(self, daemon_factory):
        from repro.trace import read_trace

        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        submitted = client.submit("solve", _solve_config(), attach_trace=True)
        job = client.wait(submitted["job_id"])
        assert job["state"] == "done"
        trace_path = job["config"]["trace"]
        assert trace_path is not None
        header, events = read_trace(trace_path)
        assert header.kind == "experiment-solve"
        assert events

    def test_cached_hit_does_not_retrace(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        first = client.submit("solve", _solve_config(seed=5))
        client.wait(first["job_id"])
        # Trace attachment does not change the content key: the re-submission
        # is a cache hit and honestly reports no fresh trace was recorded.
        second = client.submit("solve", _solve_config(seed=5), attach_trace=True)
        assert second["cached"] is True
        assert client.status(second["job_id"])["config"]["trace"] is None


class TestServeCLI:
    def test_serve_submit_status_result_cancel_round_trip(self, tmp_path):
        """The daemon the CLI starts is the daemon the CLI clients talk to."""
        from repro.cli import main

        state = tmp_path / "state"
        daemon = ServiceDaemon(ServiceConfig(state_dir=str(state), workers=1)).start()
        try:
            config_path = tmp_path / "exp.json"
            config_path.write_text(json.dumps(_estimate_config()))
            socket = ["--socket", daemon.socket_path]
            assert main(["submit", "--config", str(config_path), "--mode", "estimate", *socket]) == 0
            job_id = daemon.jobs()[0]["job_id"]
            daemon.wait(job_id)
            assert main(["status", job_id, *socket]) == 0
            out = tmp_path / "result.json"
            assert main(["result", job_id, "--output", str(out), *socket]) == 0
            assert json.loads(out.read_text())["kind"] == "estimate"
            assert main(["cancel", job_id, *socket]) == 0  # terminal: no-op
            # Cached resubmission through the CLI.
            assert main(["submit", "--config", str(config_path), "--mode", "estimate", *socket]) == 0
            cached = [job for job in daemon.jobs() if job["cached"]]
            assert len(cached) == 1
        finally:
            daemon.shutdown()

    def test_journal_round_trips_job_records(self, tmp_path):
        from repro.service.jobs import JobRecord

        record = JobRecord(
            job_id="abc123", mode="estimate", config=_estimate_config(), key="00ff",
            tenant="alice", priority=3, state=JobState.QUEUED, attempts=1,
        )
        assert JobRecord.from_dict(record.to_dict()) == record

    def test_journal_round_trips_budget_and_requeue_fields(self):
        from repro.service.jobs import JobRecord

        record = JobRecord(
            job_id="def456", mode="solve", config=_solve_config(), key="ab01",
            tenant="alice", priority=0, state=JobState.TIMED_OUT, attempts=2,
            budget={"wall_seconds": 1.5, "max_conflicts": 100},
            budget_verdict="wall-clock budget exceeded: 2.0s elapsed > 1.5s",
            requeues=1,
        )
        revived = JobRecord.from_dict(record.to_dict())
        assert revived == record
        typed = revived.resource_budget()
        assert typed is not None
        assert typed.wall_seconds == 1.5 and typed.max_conflicts == 100


class TestCorruptStateRecovery:
    def test_corrupt_journal_quarantined_daemon_starts_empty(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "jobs.json").write_text('{"jobs": [{"job_id": "trunca')  # kill -9 artifact
        daemon = ServiceDaemon(ServiceConfig(state_dir=str(state), workers=1)).start()
        try:
            assert daemon.jobs() == []
            assert (state / "jobs.json.corrupt").exists()
            # The daemon degraded to the no-state path but is fully functional.
            client = ServiceClient(daemon.socket_path)
            outcome = client.submit("estimate", _estimate_config())
            assert client.wait(outcome["job_id"])["state"] == "done"
        finally:
            daemon.shutdown()

    def test_undecodable_journal_record_is_skipped_valid_ones_kept(self, tmp_path):
        from repro.service.jobs import JobRecord

        keep = JobRecord(
            job_id="keepme", mode="estimate", config=_estimate_config(), key="00ff",
            tenant="t", priority=0, state=JobState.DONE,
        )
        state = tmp_path / "state"
        state.mkdir()
        (state / "jobs.json").write_text(
            json.dumps({"jobs": [keep.to_dict(), {"job_id": "no-mode-field"}]})
        )
        daemon = ServiceDaemon(ServiceConfig(state_dir=str(state), workers=1)).start()
        try:
            ids = [job["job_id"] for job in daemon.jobs()]
            assert ids == ["keepme"]
        finally:
            daemon.shutdown()

    def test_corrupt_store_entry_reads_as_cache_miss(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        first = client.submit("estimate", _estimate_config())
        client.wait(first["job_id"])
        reference = client.result(first["job_id"])

        entry = daemon.store._path(first["key"])
        entry.write_text(entry.read_text()[:40])  # torn write
        assert daemon.store.get(first["key"]) is None
        assert entry.with_name(entry.name + ".corrupt").exists()

        # The next identical submission recomputes instead of crashing, and
        # lands on the same bits.
        second = client.submit("estimate", _estimate_config())
        assert second["cached"] is False
        job = client.wait(second["job_id"])
        assert job["state"] == "done"
        assert client.result(second["job_id"])["data"] == reference["data"]

    def test_startup_sweeps_atomic_write_scratch_files(self, tmp_path):
        state = tmp_path / "state"
        (state / "results").mkdir(parents=True)
        residue = [
            state / "jobs.abc1.tmp",  # journal writer killed mid-replace
            state / "results" / f"{'0' * 64}.json.abc1.tmp",
        ]
        for path in residue:
            path.write_text("{half a json object")
        daemon = ServiceDaemon(ServiceConfig(state_dir=str(state), workers=1)).start()
        try:
            assert not any(path.exists() for path in residue)
        finally:
            daemon.shutdown()


class TestResourceBudgets:
    def test_wall_budget_lands_in_timed_out_and_worker_survives(self, daemon_factory):
        daemon = daemon_factory(workers=1, watchdog_interval=0.05)
        client = ServiceClient(daemon.socket_path)
        doomed = client.submit(
            "solve",
            _solve_config(decomposition_bits=14),  # 16,384 sub-problems: slow
            budget={"wall_seconds": 0.2},
        )
        job = client.wait(doomed["job_id"], timeout=60.0)
        assert job["state"] == "timed-out"
        assert "wall-clock" in job["budget_verdict"]
        assert "resource budget exceeded" in job["error"]
        # Nothing half-finished was archived under the job's key.
        assert daemon.store.get(doomed["key"]) is None

        # The worker survived the interrupt: a clean job still completes, and
        # no worker was written off.
        clean = client.submit("estimate", _estimate_config())
        assert client.wait(clean["job_id"])["state"] == "done"
        assert daemon.stats()["abandoned_workers"] == 0

    def test_wall_budget_lands_within_a_row_of_slow_rows(self, daemon_factory, slow_rows):
        # 64 sub-problems of 0.15 s each, with one-row chunks: the fourth row
        # ends past the 0.5 s budget at the latest, and its progress event
        # stops the job.
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        doomed = client.submit("solve", _slow_solve_config(), budget={"wall_seconds": 0.5})
        job = client.wait(doomed["job_id"], timeout=60.0)
        assert job["state"] == "timed-out"
        assert "wall-clock" in job["budget_verdict"]
        assert 1 <= len(slow_rows) <= 4
        assert daemon.stats()["abandoned_workers"] == 0

    def test_invalid_budget_is_a_bad_request(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        with pytest.raises(ServiceError, match="budget"):
            client.submit("estimate", _estimate_config(), budget={"wall_seconds": -1})
        with pytest.raises(ServiceError, match="budget"):
            client.submit("estimate", _estimate_config(), budget={"wall_years": 1})

    def test_conflict_budget_changes_the_content_key(self):
        from repro.service import ResourceBudget

        base = ExperimentConfig.from_dict(_estimate_config())
        unbudgeted = content_key("estimate", base)
        # Wall/RSS budgets never archive -> same key as unbudgeted.
        assert content_key("estimate", base, ResourceBudget(wall_seconds=5)) == unbudgeted
        # A conflict cap changes what the solver computes -> distinct key.
        assert content_key("estimate", base, ResourceBudget(max_conflicts=50)) != unbudgeted

    def test_default_budget_applies_to_unbudgeted_submissions(self, daemon_factory):
        from repro.service import ResourceBudget

        daemon = daemon_factory(
            workers=1,
            watchdog_interval=0.05,
            default_budget=ResourceBudget(wall_seconds=0.2),
        )
        client = ServiceClient(daemon.socket_path)
        outcome = client.submit("solve", _solve_config(decomposition_bits=14))
        job = client.wait(outcome["job_id"], timeout=60.0)
        assert job["state"] == "timed-out"
        assert job["budget"] == {"wall_seconds": 0.2}


class TestBackpressure:
    def test_full_queue_rejects_with_retriable_backpressure(self, daemon_factory):
        daemon = daemon_factory(workers=1, max_queue_depth=1)
        _hold_at_event(daemon, 3)  # the blocker occupies the worker until cancelled
        client = ServiceClient(daemon.socket_path)
        blocker = client.submit("solve", _solve_config(decomposition_bits=10))
        _wait_for_progress(client, blocker["job_id"])
        queued = client.submit("estimate", _estimate_config(seed=21))
        with pytest.raises(ServiceError) as excinfo:
            client.submit("estimate", _estimate_config(seed=22))
        assert excinfo.value.code == "backpressure"
        assert excinfo.value.retriable is True
        # Queued work was not lost.
        assert client.status(queued["job_id"])["state"] == "queued"
        client.cancel(blocker["job_id"])
        assert client.wait(blocker["job_id"], timeout=120.0)["state"] == "cancelled"
        assert client.wait(queued["job_id"], timeout=120.0)["state"] == "done"

    def test_client_submit_retries_through_backpressure(self, daemon_factory):
        daemon = daemon_factory(workers=1, max_queue_depth=1)
        _hold_at_event(daemon, 3)  # the blocker occupies the worker until cancelled
        client = ServiceClient(
            daemon.socket_path, backoff_base=0.05, backoff_cap=0.5
        )
        blocker = client.submit("solve", _solve_config(decomposition_bits=10))
        _wait_for_progress(client, blocker["job_id"])
        filler = client.submit("estimate", _estimate_config(seed=31))  # fills the queue
        # Count the rejections the retrying submit meets, in its own thread.
        rejections: list[str] = []
        request = client._request

        def recording_request(op, **fields):
            try:
                return request(op, **fields)
            except ServiceError as error:
                rejections.append(error.code)
                raise

        client._request = recording_request
        landed: list[dict] = []
        retrying = threading.Thread(
            target=lambda: landed.append(
                client.submit("estimate", _estimate_config(seed=32), retries=100)
            ),
            daemon=True,
        )
        retrying.start()
        deadline = time.time() + 60.0
        while not rejections and time.time() < deadline:
            time.sleep(0.01)
        assert "backpressure" in rejections, rejections
        # Retries with jittered backoff until the queue drains, then lands.
        client.cancel(blocker["job_id"])
        retrying.join(120.0)
        assert landed, "the retrying submit never landed"
        assert set(rejections) == {"backpressure"}
        assert client.wait(blocker["job_id"], timeout=120.0)["state"] == "cancelled"
        assert client.wait(filler["job_id"], timeout=120.0)["state"] == "done"
        assert client.wait(landed[0]["job_id"], timeout=120.0)["state"] == "done"

    def test_error_codes_round_trip_the_socket(self, daemon_factory):
        daemon = daemon_factory(workers=1, max_active_per_tenant=1)
        client = ServiceClient(daemon.socket_path)
        client.submit("solve", _solve_config(), tenant="carol")
        with pytest.raises(ServiceError) as excinfo:
            client.submit("estimate", _estimate_config(seed=41), tenant="carol")
        assert excinfo.value.code == "quota"
        assert excinfo.value.retriable is False
        with pytest.raises(ServiceError) as excinfo:
            client.submit("transmogrify", _estimate_config())
        assert excinfo.value.code == "bad-request"


def _count_connections(daemon: ServiceDaemon) -> list[int]:
    """Count the connections ``daemon`` accepts from now on (one entry each)."""
    accepted: list[int] = []
    process_request = daemon._server.process_request

    def counting(request, client_address):
        accepted.append(1)
        process_request(request, client_address)

    daemon._server.process_request = counting
    return accepted


def _shutdown_within(daemon: ServiceDaemon, seconds: float) -> bool:
    """Shut ``daemon`` down from a thread; true when that took under ``seconds``."""
    stopper = threading.Thread(target=daemon.shutdown, daemon=True)
    stopper.start()
    stopper.join(seconds)
    return not stopper.is_alive()


class TestKeepAlive:
    """A client keeps one connection per thread; the daemon serves it until EOF."""

    def test_submit_watch_result_share_one_connection(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        accepted = _count_connections(daemon)
        client = ServiceClient(daemon.socket_path)
        outcome = client.submit("solve", _solve_config(decomposition_bits=6))
        messages = list(client.watch(outcome["job_id"]))
        assert messages[-1]["done"] and messages[-1]["state"] == "done"
        assert client.result(outcome["job_id"])["kind"] == "solve"
        assert len(accepted) == 1

    def test_a_client_of_a_stopped_daemon_gets_the_next_daemons_answer(self, tmp_path):
        socket_path = str(tmp_path / "shared.sock")

        def start(state: str) -> ServiceDaemon:
            return ServiceDaemon(
                ServiceConfig(state_dir=str(tmp_path / state), socket_path=socket_path,
                              workers=1)
            ).start()

        first = start("a")
        client = ServiceClient(socket_path)
        try:
            submitted = client.submit("estimate", _estimate_config())
            assert client.wait(submitted["job_id"])["state"] == "done"
            assert [job["job_id"] for job in client.jobs()] == [submitted["job_id"]]
        finally:
            assert _shutdown_within(first, 10.0)  # the client's connection is still open
        second = start("b")
        try:
            accepted = _count_connections(second)
            # The connection to the first daemon is dead: replaced once.
            assert client.jobs() == []
            with pytest.raises(ServiceError, match="unknown job id"):
                client.status(submitted["job_id"])
            assert len(accepted) == 1
        finally:
            second.shutdown()

    def test_a_closed_watch_drops_its_connection(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        accepted = _count_connections(daemon)
        client = ServiceClient(daemon.socket_path)
        running = client.submit("solve", _solve_config(decomposition_bits=14))
        stream = client.watch(running["job_id"])
        first = next(stream)
        assert "event" in first
        stream.close()  # events are still being streamed on that connection
        job = client.status(running["job_id"])
        assert job["job_id"] == running["job_id"]
        assert job["state"] in ("queued", "running")
        assert client.cancel(running["job_id"])["job_id"] == running["job_id"]
        assert client.wait(running["job_id"])["state"] == "cancelled"
        assert len(accepted) == 2  # the watch's connection, then a fresh one

    def test_threads_sharing_a_client_get_their_own_answers(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        setup = ServiceClient(daemon.socket_path)
        job_ids = [setup.submit("estimate", _estimate_config(seed=seed))["job_id"]
                   for seed in (51, 52)]
        for job_id in job_ids:
            setup.wait(job_id)
        accepted = _count_connections(daemon)
        shared = ServiceClient(daemon.socket_path)
        barrier = threading.Barrier(len(job_ids))
        answers: dict[str, list[str]] = {job_id: [] for job_id in job_ids}
        errors: list[Exception] = []

        def ask(job_id: str) -> None:
            try:
                for _ in range(20):
                    barrier.wait(30.0)  # both threads have a request in flight at once
                    answers[job_id].append(shared.status(job_id)["job_id"])
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        threads = [threading.Thread(target=ask, args=(job_id,)) for job_id in job_ids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not errors
        assert answers == {job_id: [job_id] * 20 for job_id in job_ids}
        assert len(accepted) == 2

    def test_shutdown_is_prompt_while_a_client_holds_an_idle_connection(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        assert client.ping()["ok"]  # the connection stays open, idle
        assert _shutdown_within(daemon, 5.0)

    def test_non_json_line_gets_protocol_error_then_the_connection_closes(
        self, daemon_factory
    ):
        import socket

        daemon = daemon_factory(workers=1)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(daemon.socket_path)
            reader = sock.makefile("rb")
            for _ in range(2):  # the connection serves request after request
                sock.sendall(b'{"op": "ping"}\n')
                assert json.loads(reader.readline())["ok"] is True
            sock.sendall(b"this is not json\n")
            error = json.loads(reader.readline())
            assert error["ok"] is False and error["code"] == "protocol"
            assert reader.readline() == b""
            reader.close()

    def test_overlong_line_gets_protocol_error_and_the_daemon_carries_on(
        self, daemon_factory
    ):
        import socket

        daemon = daemon_factory(workers=1)
        client = ServiceClient(daemon.socket_path)
        job_id = client.submit("estimate", _estimate_config())["job_id"]
        assert client.wait(job_id)["state"] == "done"
        line = b'{"op": "ping", "pad": "' + b"x" * (2 * MAX_REQUEST_BYTES) + b'"}\n'
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(daemon.socket_path)

            def send() -> None:
                try:
                    sock.sendall(line)
                except OSError:
                    pass  # the daemon closes the connection without reading the rest

            sender = threading.Thread(target=send)
            sender.start()
            reader = sock.makefile("rb")
            error = json.loads(reader.readline())
            assert error["ok"] is False and error["code"] == "protocol"
            assert str(MAX_REQUEST_BYTES) in error["error"]
            try:
                rest = reader.readline()
            except ConnectionResetError:
                rest = b""  # closed with the unread rest of the line still queued
            assert rest == b""
            sender.join(10.0)
            reader.close()
        assert ServiceClient(daemon.socket_path).ping()["ok"]
        daemon.shutdown()
        restarted = daemon_factory(workers=1)
        assert ServiceClient(restarted.socket_path).status(job_id)["state"] == "done"


class TestJournal:
    """Every save leaves one complete document."""

    def test_every_transition_leaves_a_complete_journal(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        seen: list[tuple[list[dict], list[dict]]] = []
        save = daemon._save_journal

        def checked_save() -> None:
            save()  # called with the daemon lock held
            on_disk = json.loads((daemon.state_dir / "jobs.json").read_text())["jobs"]
            seen.append((on_disk, [job.to_dict() for job in daemon._jobs.values()]))

        daemon._save_journal = checked_save
        client = ServiceClient(daemon.socket_path)
        first = client.submit("estimate", _estimate_config())
        assert client.wait(first["job_id"])["state"] == "done"
        hit = client.submit("estimate", _estimate_config())
        assert hit["cached"] is True
        for on_disk, records in seen:
            assert on_disk == records
        states = [[record["state"] for record in on_disk] for on_disk, _ in seen]
        assert states == [["queued"], ["running"], ["done"], ["done", "done"]]
