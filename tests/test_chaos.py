"""The cross-layer chaos suite (:mod:`repro.service.chaos`).

Every scenario stands up real daemons on a throwaway state dir, injects one
class of fault — worker crash, hung job, corrupt journal, truncated
checkpoint, dropped client connections, kill -9 + restart — and asserts the
service *converged*: all jobs terminal, completed results bit-identical to a
fault-free run, no stuck threads, a journal that loads cleanly.
``repro-sat chaos`` runs the same scenarios from the command line (the CI
``chaos-smoke`` job).
"""

from __future__ import annotations

import pytest

from repro.service import ResourceBudget, ServiceConfig, ServiceDaemon
from repro.service.chaos import (
    SCENARIOS,
    ChaosPolicy,
    InjectedWorkerCrash,
    run_scenario,
)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_converges(scenario, tmp_path):
    report = run_scenario(scenario, tmp_path, seed=1)
    assert report.passed, f"{scenario} failed: {report.failures}"


def test_cli_scenario_choices_match_the_harness():
    from repro.cli import _CHAOS_SCENARIOS

    assert _CHAOS_SCENARIOS == SCENARIOS


def test_chaos_cli_runs_one_scenario(tmp_path):
    from repro.cli import main

    assert main([
        "chaos", "--scenario", "corrupt-journal", "--seed", "3",
        "--state-dir", str(tmp_path),
    ]) == 0
    # --state-dir keeps the artifacts for inspection.
    assert (tmp_path / "corrupt-journal-3" / "jobs.json.corrupt").exists()


def test_wait_mid_progress_rejects_a_finished_job(tmp_path):
    """A finished job has mid-family events too; a kill scenario must not
    mistake it for one still in flight."""
    from repro.service.chaos import _solve_config, _wait_mid_progress

    daemon = ServiceDaemon(ServiceConfig(state_dir=str(tmp_path / "state"), workers=1)).start()
    try:
        submitted = daemon.submit("solve", _solve_config(bits=8))
        assert daemon.wait(submitted["job_id"], timeout=60.0)["state"] == "done"
        with pytest.raises(AssertionError, match="terminal"):
            _wait_mid_progress(daemon, submitted["job_id"], min_completed=8)
    finally:
        daemon.shutdown()


def test_policy_is_deterministic_per_seed():
    """Same seed, same job order -> same injection points (reproducible runs)."""
    from repro.service.jobs import JobRecord

    def drive(policy: ChaosPolicy) -> list[tuple[str, str]]:
        for job_id in ("job-a", "job-b"):
            job = JobRecord(
                job_id=job_id, mode="solve", config={}, key="00", tenant="t",
                priority=0,
            )
            for _ in range(10):
                try:
                    policy.progress_event(job)
                except InjectedWorkerCrash:
                    pass
        return list(policy.injected)

    first = drive(ChaosPolicy(seed=42, crash_workers=1))
    second = drive(ChaosPolicy(seed=42, crash_workers=1))
    assert first == second and first
    assert drive(ChaosPolicy(seed=43, crash_workers=1))  # other seeds fire too


class TestWatchdogForceAbandon:
    def test_wedged_job_is_abandoned_and_pool_keeps_serving(self, tmp_path):
        """A job that ignores every control flag cannot pin the worker pool.

        ``hang_ignores_flags`` wedges the job so hard that only the
        watchdog's force-abandon path can reclaim capacity: the job lands in
        TIMED_OUT, its worker thread is written off and replaced, and the
        next job runs on the replacement.
        """
        from repro.api import Experiment, ExperimentConfig
        from repro.service.chaos import _estimate_config, _solve_config

        daemon = ServiceDaemon(
            ServiceConfig(
                state_dir=str(tmp_path / "state"),
                workers=1,
                watchdog_interval=0.1,
                hang_grace=0.5,
            )
        ).start()
        daemon.chaos = ChaosPolicy(
            seed=5, hang_jobs=1, hang_ignores_flags=True, hang_timeout=30.0
        )
        try:
            wedged = daemon.submit(
                "solve", _solve_config(bits=6), budget=ResourceBudget(wall_seconds=0.3)
            )
            job = daemon.wait(wedged["job_id"], timeout=60.0)
            assert job["state"] == "timed-out"
            assert "unresponsive" in job["error"]
            assert daemon.stats()["abandoned_workers"] == 1

            clean_config = _estimate_config(seed=9)
            clean = daemon.submit("estimate", clean_config)
            assert daemon.wait(clean["job_id"], timeout=60.0)["state"] == "done"
            reference = Experiment.from_config(
                ExperimentConfig.from_dict(clean_config)
            ).estimate()
            served = daemon.result(clean["job_id"])
            assert served["data"] == reference.to_dict()["data"]
        finally:
            daemon.shutdown()
