"""Tests for the unified fault-tolerant scheduler and its simulation harness.

The deterministic simulation harness is the point of this suite: a
virtual-clock executor injects worker crashes, stragglers and duplicated
results from a seeded failure model, and the scheduler invariants — no lost
tasks, no double-counted results, statistics bit-identical to a serial run —
are asserted in fast unit tests, with no real concurrency involved.
"""

from __future__ import annotations

import pytest

from repro.runner.scheduler import (
    FailureModel,
    InlineExecutor,
    RetryPolicy,
    Scheduler,
    SchedulerCheckpoint,
    SimulatedGridExecutor,
    Task,
    TaskGraph,
    WorkerProfile,
    replay_serial,
)


def _jobs(durations):
    return [Task(task_id=f"t{i}", payload=float(d)) for i, d in enumerate(durations)]


def _identity_executor(**kwargs):
    return SimulatedGridExecutor(task_fn=lambda cost: cost, **kwargs)


class TestTaskGraph:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate task id"):
            TaskGraph([Task("a"), Task("a")])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            TaskGraph([Task("a", dependencies=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            TaskGraph([Task("a", dependencies=("b",)), Task("b", dependencies=("a",))])

    def test_topological_order_respects_dependencies(self):
        graph = TaskGraph(
            [Task("late", dependencies=("early",)), Task("early"), Task("free")]
        )
        order = graph.topological_order()
        assert order.index("early") < order.index("late")
        assert set(order) == {"early", "late", "free"}


class TestValidation:
    def test_retry_policy_bounds(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)

    def test_failure_model_bounds(self):
        with pytest.raises(ValueError):
            FailureModel(crash_rate=1.0)
        with pytest.raises(ValueError):
            FailureModel(straggler_factor=0.5)

    def test_scheduler_argument_validation(self):
        graph = TaskGraph(_jobs([1.0]))
        executor = _identity_executor(workers=1)
        with pytest.raises(ValueError):
            Scheduler(graph, executor, replication=0)
        with pytest.raises(ValueError):
            Scheduler(graph, executor, quorum=0)
        with pytest.raises(ValueError):
            # quorum beyond replication needs unlimited retries
            Scheduler(graph, executor, replication=1, quorum=2)

    def test_simulated_executor_validation(self):
        with pytest.raises(ValueError):
            _identity_executor(workers=0)
        with pytest.raises(ValueError):
            _identity_executor(workers=2, dispatch_latency=-1.0)


class TestInlineScheduling:
    def test_results_in_task_order(self):
        graph = TaskGraph(Task(f"t{i}", payload=i) for i in range(10))
        run = Scheduler(graph, InlineExecutor(lambda x: x * x)).run()
        assert run.completed
        assert run.values_in_order() == [i * i for i in range(10)]
        run.assert_invariants()

    def test_task_error_is_retried_then_failed(self):
        def explode(payload):
            raise RuntimeError(f"boom {payload}")

        graph = TaskGraph([Task("bad", payload=1), ])
        run = Scheduler(graph, InlineExecutor(explode), retry=RetryPolicy(max_attempts=3)).run()
        assert not run.completed
        assert "bad" in run.failed
        assert "boom" in run.failed["bad"]
        assert run.metadata["dispatches"] == 3
        run.assert_invariants()

    def test_dependencies_run_before_dependants(self):
        seen = []
        graph = TaskGraph(
            [
                Task("consume", payload="consume", dependencies=("produce",)),
                Task("produce", payload="produce"),
            ]
        )
        run = Scheduler(graph, InlineExecutor(lambda p: seen.append(p) or p)).run()
        assert run.completed
        assert seen.index("produce") < seen.index("consume")


class TestVirtualCluster:
    def test_fifo_reproduces_greedy_list_scheduling(self):
        # Classic hand example: [1, 1, 1, 9] on 2 cores, FIFO makespan is 10.
        graph = TaskGraph(_jobs([1.0, 1.0, 1.0, 9.0]))
        run = Scheduler(
            graph, _identity_executor(workers=2), retry=RetryPolicy(max_attempts=1)
        ).run()
        assert run.makespan == 10.0
        assert sorted(run.worker_loads) == [2.0, 10.0]

    def test_heterogeneous_workers_finish_proportionally(self):
        profiles = [WorkerProfile(speed=1.0), WorkerProfile(speed=2.0)]
        graph = TaskGraph(_jobs([4.0, 4.0]))
        run = Scheduler(
            graph, _identity_executor(workers=profiles), retry=RetryPolicy(max_attempts=1)
        ).run()
        # The fast worker finishes its job in half the virtual time.
        assert run.makespan == 4.0
        assert sorted(run.worker_loads) == [2.0, 4.0]

    def test_dispatch_latency_extends_makespan(self):
        graph = TaskGraph(_jobs([1.0] * 4))
        plain = Scheduler(graph, _identity_executor(workers=2)).run()
        slow = Scheduler(
            TaskGraph(_jobs([1.0] * 4)),
            _identity_executor(workers=2, dispatch_latency=0.5),
        ).run()
        assert slow.makespan == plain.makespan + 2 * 0.5


class TestFailureInjection:
    def _run_with(self, failures, retry=None, tasks=40, workers=4, **scheduler_kwargs):
        durations = [float(1 + (i % 7)) for i in range(tasks)]
        graph = TaskGraph(_jobs(durations))
        executor = _identity_executor(workers=workers, failures=failures)
        run = Scheduler(
            graph,
            executor,
            retry=retry or RetryPolicy(max_attempts=None, timeout=100.0),
            **scheduler_kwargs,
        ).run()
        return durations, run

    def test_crashes_are_retried_until_complete(self):
        durations, run = self._run_with(FailureModel(crash_rate=0.3, seed=5))
        assert run.completed
        assert run.metadata["injected_crashes"] > 0
        assert run.metadata["retries"] >= run.metadata["injected_crashes"]
        assert run.metadata["dispatches"] > len(durations)
        assert run.values_in_order() == durations
        run.assert_invariants()

    def test_crashes_do_not_change_results_vs_serial_replay(self):
        durations, run = self._run_with(FailureModel(crash_rate=0.25, seed=11))
        serial = replay_serial(TaskGraph(_jobs(durations)), lambda c: c)
        assert run.values_in_order() == serial.values_in_order()

    def test_duplicated_results_are_discarded_not_double_counted(self):
        durations, run = self._run_with(FailureModel(duplicate_rate=0.5, seed=3))
        assert run.completed
        assert run.metadata["injected_duplicates"] > 0
        assert run.metadata["duplicates_discarded"] > 0
        # Exactly one accepted result per task, whatever was delivered twice.
        assert len(run.results) == len(durations)
        assert run.values_in_order() == durations

    def test_stragglers_preempted_at_deadline_and_retried(self):
        durations = [1.0] * 30
        graph = TaskGraph(_jobs(durations))
        executor = SimulatedGridExecutor(
            task_fn=lambda cost: cost,
            workers=3,
            failures=FailureModel(straggler_rate=0.4, straggler_factor=50.0, seed=9),
            preempt_on_timeout=True,
        )
        run = Scheduler(
            graph, executor, retry=RetryPolicy(max_attempts=None, timeout=10.0)
        ).run()
        assert run.completed
        assert executor.injected_stragglers > 0
        assert run.metadata["timeouts"] > 0
        assert run.values_in_order() == durations
        run.assert_invariants()

    def test_everything_at_once_still_completes_identically(self):
        chaos = FailureModel(
            crash_rate=0.25, straggler_rate=0.2, straggler_factor=3.0,
            duplicate_rate=0.2, seed=42,
        )
        durations, run = self._run_with(chaos, workers=5)
        assert run.completed
        assert run.values_in_order() == durations
        run.assert_invariants()

    def test_simulation_is_deterministic_given_seed(self):
        model = FailureModel(crash_rate=0.3, duplicate_rate=0.2, seed=7)
        _, first = self._run_with(model)
        _, second = self._run_with(model)
        assert first.makespan == second.makespan
        assert first.metadata == second.metadata
        assert first.values_in_order() == second.values_in_order()


class TestReplicationQuorum:
    def test_replicated_tasks_reach_quorum_despite_crashes(self):
        durations = [2.0] * 20
        graph = TaskGraph(_jobs(durations))
        executor = _identity_executor(
            workers=6, failures=FailureModel(crash_rate=0.3, seed=1)
        )
        run = Scheduler(
            graph,
            executor,
            retry=RetryPolicy(max_attempts=None, timeout=50.0),
            replication=2,
            quorum=2,
        ).run()
        assert run.completed
        assert run.metadata["dispatches"] >= 2 * len(durations)
        assert len(run.results) == len(durations)
        run.assert_invariants()


class TestStopAndInterrupt:
    def test_stop_on_predicate_reports_prefix(self):
        graph = TaskGraph(Task(f"t{i}", payload=i) for i in range(20))
        run = Scheduler(
            graph, InlineExecutor(lambda x: x), stop_on=lambda tid, value: value == 5
        ).run()
        assert run.stopped_early
        assert not run.completed
        assert run.values_in_order() == list(range(6))
        run.assert_invariants()


class TestTaskSource:
    def test_source_refills_an_idle_worker_only_once_the_queue_is_empty(self):
        finished: list[str] = []
        sourced = iter([Task("s0", payload=5.0), Task("s1", payload=6.0)])
        asked_after: list[int] = []

        def source():
            asked_after.append(len(finished))
            return next(sourced, None)

        run = Scheduler(
            _jobs([1, 2, 3]), _identity_executor(workers=2), source=source,
            on_result=lambda task_id, value: finished.append(task_id),
        ).run()
        # t2 was still queued when t0 finished; the source is first asked
        # when t1 frees its worker with nothing queued.
        assert asked_after[0] == 2
        assert finished == ["t0", "t1", "t2", "s0", "s1"]
        assert run.graph_order == finished
        assert run.values_in_order() == [1.0, 2.0, 3.0, 5.0, 6.0]
        assert run.completed and run.metadata["dispatches"] == 5
        run.assert_invariants()

    def test_a_run_with_a_source_leaves_no_reference_cycle(self):
        # A finished run must be freed as soon as its caller drops it: a
        # cycle would keep every result and the executor alive until the
        # cyclic collector ran, raising a long-lived process's peak memory.
        import gc
        import weakref

        sourced = iter([Task("s0", payload=5.0)])
        executor = _identity_executor(workers=2)
        freed = weakref.ref(executor)
        gc.disable()
        try:
            Scheduler(_jobs([1, 2]), executor, source=lambda: next(sourced, None)).run()
            del executor
            assert freed() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "task", [Task("t0", payload=1.0), Task("new", payload=1.0, dependencies=("t0",))],
        ids=["known-id", "with-dependencies"],
    )
    def test_source_task_must_be_new_and_dependency_free(self, task):
        sourced = iter([task])
        with pytest.raises(ValueError, match="not new and dependency-free"):
            Scheduler(
                _jobs([1]), InlineExecutor(lambda x: x), source=lambda: next(sourced, None)
            ).run()


class TestCheckpointResume:
    def test_checkpoint_save_load_round_trip(self, tmp_path):
        checkpoint = SchedulerCheckpoint(results={"a": 1, "b": [2, 3]})
        path = tmp_path / "chk.json"
        checkpoint.save(path)
        loaded = SchedulerCheckpoint.load(path)
        assert loaded.results == {"a": 1, "b": [2, 3]}

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError):
            SchedulerCheckpoint.load(path)


class TestPDSATBackendRouting:
    def test_solve_family_through_backend_matches_inline_loop(self):
        from repro.api.backends import SimulatedClusterBackend
        from repro.ciphers import Geffe
        from repro.core.pdsat import PDSAT
        from repro.problems import make_inversion_instance

        instance = make_inversion_instance(Geffe.tiny(), keystream_length=24, seed=5)
        pdsat = PDSAT(instance, sample_size=10, seed=1)
        decomposition = instance.start_set[:5]
        inline = pdsat.solve_family(decomposition)
        routed = pdsat.solve_family(
            decomposition, backend=SimulatedClusterBackend(cores=4)
        )
        assert inline.statuses == routed.statuses
        assert inline.costs == routed.costs
        assert inline.num_sat == routed.num_sat


class TestReviewHardening:
    """Regressions for the code-review findings on the first cut."""

    def test_fatal_errors_fail_fast_without_retries(self):
        def picky(payload):
            raise ValueError(f"bad input {payload}")

        graph = TaskGraph([Task("bad", payload=1), Task("good", payload=2)])
        run = Scheduler(
            graph,
            InlineExecutor(lambda p: picky(p) if p == 1 else p),
            retry=RetryPolicy(max_attempts=5),
        ).run()
        assert "bad" in run.failed and "bad input 1" in run.failed["bad"]
        # One dispatch for the fatal task, one for the good one: no retries.
        assert run.metadata["dispatches"] == 2
        assert run.metadata["retries"] == 0
        assert run.results["good"].value == 2
        run.assert_invariants()

    def test_executor_closed_when_a_callback_raises(self):
        class ClosableExecutor(InlineExecutor):
            closed = False

            def close(self):
                ClosableExecutor.closed = True

        def bad_callback(_task_id, _value):
            raise OSError("disk full")

        graph = TaskGraph([Task("t0", payload=0)])
        with pytest.raises(OSError):
            Scheduler(
                graph, ClosableExecutor(lambda p: p), on_result=bad_callback
            ).run()
        assert ClosableExecutor.closed

    def test_checkpoint_of_other_family_is_rejected(self, tmp_path):
        from repro.api.backends import SerialBackend
        from repro.ciphers import Geffe
        from repro.problems import make_inversion_instance
        from repro.runner.scheduler import SchedulerCheckpoint as Checkpoint

        instance = make_inversion_instance(Geffe.tiny(), keystream_length=24, seed=5)
        path = tmp_path / "family.ckpt"
        vectors_a = [[v] for v in instance.start_set[:2]]
        vectors_b = [[-v] for v in instance.start_set[:2]]
        SerialBackend().run(
            instance.cnf, vectors_a, checkpoint_sink=lambda chk: chk.save(path)
        )
        with pytest.raises(ValueError, match="different experiment"):
            SerialBackend().run(
                instance.cnf, vectors_b, checkpoint=Checkpoint.load(path)
            )

    def test_quorum_beyond_replication_completes_with_unlimited_retries(self):
        # Successful-but-below-quorum tasks must re-issue themselves: with
        # replication=1 and quorum=3 every acceptance needs three successes.
        graph = TaskGraph(_jobs([1.0] * 6))
        run = Scheduler(
            graph,
            _identity_executor(workers=2),
            retry=RetryPolicy(max_attempts=None),
            replication=1,
            quorum=3,
        ).run()
        assert run.completed
        assert run.metadata["dispatches"] >= 3 * 6
        run.assert_invariants()

    def test_stop_on_sat_prefix_is_contiguous_under_crashes(self):
        from repro.api.backends import SerialBackend, SimulatedClusterBackend
        from repro.ciphers import Geffe
        from repro.problems import make_inversion_instance

        instance = make_inversion_instance(Geffe.tiny(), keystream_length=24, seed=5)
        dec = instance.start_set[:4]
        from repro.core.decomposition import DecompositionSet

        vectors = [
            a.to_literals() for a in DecompositionSet.of(dec).all_assignments()
        ]
        serial = SerialBackend().run(instance.cnf, vectors, stop_on_sat=True)
        for seed in range(3):
            crashy = SimulatedClusterBackend(
                cores=2, crash_rate=0.5, failures_seed=seed, max_attempts=None,
                timeout=1e6,
            ).run(instance.cnf, vectors, stop_on_sat=True)
            assert [o.status for o in crashy.outcomes] == [
                o.status for o in serial.outcomes
            ]
            assert [o.cost for o in crashy.outcomes] == [o.cost for o in serial.outcomes]


# --------------------------------------------------------------------------
# PR 7: the process executor pickles each payload once, not once per attempt.

class _CountingPayload:
    """A payload that counts how many times the *leader* serialises it."""

    pickles = 0

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        type(self).pickles += 1
        return (_CountingPayload, (self.value,))


def _flaky_first_attempt(payload):
    """Fail the first attempt per sentinel file, succeed afterwards."""
    import os

    value, sentinel = payload.value
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("injected first-attempt failure")
    return value


def _fatal_on_negative(payload):
    if payload.value < 0:
        raise ValueError(f"fatal payload {payload.value}")
    return payload.value


class TestProcessExecutorSerialization:
    """Task payloads ship as cached byte blobs: one pickle per task, ever.

    The frozen-image batching path ships the formula once per worker and
    shrinks payloads to assumption rows precisely so that per-task
    serialisation is cheap — but only if the executor does not quietly
    re-pickle on every retry attempt.
    These tests pin the blob-cache contract of ``ProcessExecutor``: pickle on
    first dispatch, reuse across retries, evict on success or fatal error,
    clear on close.
    """

    def test_payload_pickled_once_despite_retries(self, tmp_path):
        from repro.runner.scheduler import ProcessExecutor

        _CountingPayload.pickles = 0
        tasks = [
            Task(
                task_id=f"flaky-{i}",
                payload=_CountingPayload((i, str(tmp_path / f"sentinel-{i}"))),
            )
            for i in range(4)
        ]
        executor = ProcessExecutor(task_fn=_flaky_first_attempt, num_workers=2)
        run = Scheduler(
            TaskGraph(tasks), executor, retry=RetryPolicy(max_attempts=4)
        ).run()
        assert not run.failed
        assert run.values_in_order() == [0, 1, 2, 3]
        # Every task failed its first attempt, so dispatches > tasks ...
        assert run.metadata["retries"] >= len(tasks)
        # ... yet the leader serialised each payload exactly once.
        assert _CountingPayload.pickles == len(tasks)
        # Completed tasks evict their cached blobs (memory tracks in-flight).
        assert executor._payload_blobs == {}

    def test_blob_evicted_on_success_fatal_error_and_close(self):
        from repro.runner.scheduler import ProcessExecutor

        _CountingPayload.pickles = 0
        tasks = [
            Task(task_id="ok", payload=_CountingPayload(7)),
            Task(task_id="fatal", payload=_CountingPayload(-1)),
        ]
        executor = ProcessExecutor(task_fn=_fatal_on_negative, num_workers=1)
        try:
            run = Scheduler(
                TaskGraph(tasks), executor, retry=RetryPolicy(max_attempts=5)
            ).run()
        finally:
            executor.close()
        assert run.results["ok"].value == 7
        assert "fatal" in run.failed and "fatal payload -1" in run.failed["fatal"]
        # A fatal error never retries, so the one pickle per task stands and
        # both blobs — the successful and the fatally failed one — are gone.
        assert run.metadata["retries"] == 0
        assert _CountingPayload.pickles == len(tasks)
        assert executor._payload_blobs == {}


# --------------------------------------------------------------------------
# PR 9: corrupt-state recovery and executor degradation.

class TestCheckpointQuarantine:
    """``load_or_quarantine``: bad checkpoint files read as "no checkpoint"."""

    def test_missing_file_is_none_and_nothing_is_quarantined(self, tmp_path):
        assert SchedulerCheckpoint.load_or_quarantine(tmp_path / "none.ckpt") is None
        assert list(tmp_path.iterdir()) == []

    def test_truncated_json_is_quarantined(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text('{"kind": "scheduler-checkpoint", "results": {"t0"')
        assert SchedulerCheckpoint.load_or_quarantine(path) is None
        assert not path.exists()
        assert (tmp_path / "run.ckpt.corrupt").exists()

    def test_valid_json_wrong_document_kind_is_quarantined(self, tmp_path):
        import json

        path = tmp_path / "run.ckpt"
        path.write_text(json.dumps({"kind": "not-a-checkpoint"}))
        assert SchedulerCheckpoint.load_or_quarantine(path) is None
        assert (tmp_path / "run.ckpt.corrupt").exists()

    def test_valid_checkpoint_round_trips(self, tmp_path):
        path = tmp_path / "run.ckpt"
        checkpoint = SchedulerCheckpoint(
            results={"t0": 1.0}, metadata={"fingerprint": "abc"}
        )
        checkpoint.save(path)
        loaded = SchedulerCheckpoint.load_or_quarantine(path)
        assert loaded is not None
        assert loaded.to_dict() == checkpoint.to_dict()
        assert path.exists()  # a good file is never quarantined

    def test_quarantine_keeps_distinct_corpses(self, tmp_path):
        """Repeated corruption never overwrites earlier quarantined evidence."""
        from repro.resilience import quarantine

        path = tmp_path / "run.ckpt"
        corpses = []
        for _ in range(3):
            path.write_text("garbage")
            corpses.append(quarantine(path))
        assert len({c.name for c in corpses}) == 3
        assert not path.exists()


def _double(payload):
    return payload * 2


class TestExecutorDegradation:
    """The process executor falls back to threads instead of failing the run."""

    def test_unbuildable_pool_degrades_to_threads(self, monkeypatch):
        from repro.runner.scheduler import ProcessExecutor

        def no_pool(*args, **kwargs):
            raise OSError("fork unavailable in this environment")

        monkeypatch.setattr(ProcessExecutor, "_spawn", no_pool)
        tasks = [Task(task_id=f"t{i}", payload=i) for i in range(4)]
        executor = ProcessExecutor(task_fn=_double, num_workers=2)
        try:
            with pytest.warns(RuntimeWarning, match="degrading to a thread executor"):
                run = Scheduler(TaskGraph(tasks), executor).run()
        finally:
            executor.close()
        assert not run.failed
        assert run.values_in_order() == [0, 2, 4, 6]
        assert "cannot create process pool" in executor.degraded_reason
        # The run advertises that it did not get real process isolation.
        assert run.metadata["executor_fallback"] == executor.degraded_reason

    def test_degradation_runs_the_initializer_once_in_process(self, monkeypatch):
        from repro.runner.scheduler import ProcessExecutor

        monkeypatch.setattr(
            ProcessExecutor,
            "_spawn",
            lambda *a, **k: (_ for _ in ()).throw(OSError("no fork")),
        )
        calls = []
        executor = ProcessExecutor(
            task_fn=_double,
            num_workers=2,
            initializer=calls.append,
            initargs=("worker-state",),
        )
        try:
            with pytest.warns(RuntimeWarning):
                run = Scheduler(
                    TaskGraph([Task(task_id="t", payload=21)]), executor
                ).run()
        finally:
            executor.close()
        assert run.results["t"].value == 42
        # Thread workers share the process: the per-worker setup ran exactly
        # once, not once per worker.
        assert calls == ["worker-state"]

    def test_metadata_untouched_when_pool_is_healthy(self):
        from repro.runner.scheduler import ProcessExecutor

        tasks = [Task(task_id=f"t{i}", payload=i) for i in range(2)]
        executor = ProcessExecutor(task_fn=_double, num_workers=2)
        try:
            run = Scheduler(TaskGraph(tasks), executor).run()
        finally:
            executor.close()
        assert executor.degraded_reason is None
        assert "executor_fallback" not in run.metadata
