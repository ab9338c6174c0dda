"""Tests for the run's process pool: both PDSAT modes on one pool per facade call.

A facade call that estimates on the ``process-pool`` backend opens one pool
inside the call.  Each evaluation's cache misses are cut into one share per
process: the leader solves one share with ``solve_batch`` and the workers
solve the rest, and the family then runs on the same pool.  The tests below
pin that such a run returns exactly what the serial backend returns, on two
and three processes and on a pool that degraded to threads; that the leader
solves a share itself; that a worker dying mid-estimation costs nothing but a
retry; that a progress callback raising mid-estimation closes the pool; and
the rebuilt executor's own contracts: a dead worker's task is retried on a
new process, repeated deaths degrade to threads, and ``close()`` joins every
worker.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.api import Experiment, ExperimentConfig
from repro.api.specs import (
    BackendSpec,
    EstimatorSpec,
    InstanceSpec,
    MinimizerSpec,
    PreprocessorSpec,
    SolverSpec,
)
from repro.runner.scheduler import ProcessExecutor, RetryPolicy, Scheduler, Task, TaskGraph
from repro.sat.cdcl import CDCLSolver


def _config(backend: BackendSpec, solver: SolverSpec | None = None) -> ExperimentConfig:
    """Bivium16 (bivium-tiny, K=8), SatELite, batched fresh F, tabu over 12 points."""
    return ExperimentConfig(
        instance=InstanceSpec(cipher="bivium-tiny", seed=3, known_bits=8),
        minimizer=MinimizerSpec(name="tabu", max_evaluations=12),
        estimator=EstimatorSpec(batch_size=8),
        preprocessor=PreprocessorSpec(name="satelite"),
        solver=solver or SolverSpec(),
        backend=backend,
        seed=3,
    )


def _pool(processes: int) -> BackendSpec:
    return BackendSpec(name="process-pool", options={"processes": processes})


def _outputs(experiment: Experiment, result) -> dict:
    """Everything a run reports that must not depend on where its rows were solved."""
    evaluator = experiment.pdsat.evaluator
    estimate, solve = result.data["estimate"], result.data["solve"]
    return {
        "best": (estimate["best_value"], estimate["best_decomposition"]),
        "points": [
            (
                sorted(point.decomposition.variables),
                [(o.status, o.cost, o.cached) for o in point.observations],
            )
            for point in evaluator.cached_results()
        ],
        "counters": (
            evaluator.num_solver_calls,
            evaluator.num_subproblem_solves,
            evaluator.sample_cache_hits,
        ),
        "activity": sorted(evaluator.accumulated_activity.items()),
        "family": (solve["statuses"], solve["costs"], solve["recovered_state"]),
    }


@pytest.fixture(scope="module")
def serial():
    experiment = Experiment(_config(BackendSpec()))
    return _outputs(experiment, experiment.run())


@pytest.fixture(autouse=True)
def no_leftover_children():
    """Every test starts and ends without a live child process."""
    assert multiprocessing.active_children() == []
    yield
    assert multiprocessing.active_children() == []


class TestPoolRunEqualsSerial:
    @pytest.mark.parametrize("processes", [2, 3])
    def test_run_on_the_pool_equals_the_serial_run(self, serial, processes, monkeypatch):
        spawned: list[int] = []
        spawn = ProcessExecutor._spawn

        def counted(executor, worker):
            spawned.append(worker)
            return spawn(executor, worker)

        monkeypatch.setattr(ProcessExecutor, "_spawn", counted)
        experiment = Experiment(_config(_pool(processes)))
        result = experiment.run()
        # One pool for the call: the estimation starts all workers but one,
        # and the family the last one.
        assert sorted(spawned) == list(range(processes))
        assert _outputs(experiment, result) == serial
        self._still_answers(experiment, serial)

    def test_run_on_a_pool_that_cannot_start_equals_the_serial_run(
        self, serial, no_process_pool
    ):
        experiment = Experiment(_config(_pool(2)))
        with pytest.warns(RuntimeWarning, match="cannot create process pool") as warned:
            result = experiment.run()
        assert len(warned) == 1  # the estimation's pool is the family's
        assert "cannot create process pool" in (
            result.data["solve"]["backend_metadata"]["executor_fallback"]
        )
        assert _outputs(experiment, result) == serial
        self._still_answers(experiment, serial)

    @staticmethod
    def _still_answers(experiment: Experiment, serial: dict) -> None:
        """After the call the pool is closed, and the evaluator answers in the leader."""
        evaluator = experiment.pdsat.evaluator
        assert evaluator.pool is None
        best = serial["best"][1]
        assert experiment.pdsat.evaluate_decomposition(best).value == serial["best"][0]
        calls = evaluator.num_solver_calls
        fresh = list(experiment.pdsat.search_space.base_variables[:5])
        assert not evaluator.is_cached(fresh)
        assert experiment.pdsat.evaluate_decomposition(fresh).value > 0
        assert evaluator.num_solver_calls > calls

    def test_the_leader_solves_one_share_of_each_sample(self):
        from repro.api.registry import SOLVERS, register_solver

        leader_rows: list[tuple[int, ...]] = []

        @register_solver("leader-rows", description="CDCL recording its batched rows (tests)")
        class LeaderRows(CDCLSolver):
            def solve_batch(self, assumption_rows, cnf=None, budget=None, trace=None):
                leader_rows.extend(tuple(row) for row in assumption_rows)
                return super().solve_batch(assumption_rows, cnf=cnf, budget=budget, trace=trace)

        try:
            experiment = Experiment(_config(_pool(2), SolverSpec(name="leader-rows")))
            experiment.estimate()
        finally:
            SOLVERS.unregister("leader-rows")
        # Forked workers cannot append to the list: what it holds is what
        # the leader solved, about half of every sample's misses.
        solved = experiment.pdsat.evaluator.num_solver_calls
        assert 0.3 * solved < len(leader_rows) < 0.7 * solved


class TestPoolFailures:
    def test_a_worker_that_dies_mid_estimation_is_replaced(self, serial, tmp_path):
        from repro.api.registry import SOLVERS, register_solver

        leader = os.getpid()
        died = tmp_path / "died"

        @register_solver("dies-once", description="CDCL whose first worker dies (tests)")
        class DiesOnce(CDCLSolver):
            def solve_batch(self, assumption_rows, cnf=None, budget=None, trace=None):
                if os.getpid() != leader and not died.exists():
                    died.write_text(str(os.getpid()))
                    os.kill(os.getpid(), signal.SIGKILL)
                return super().solve_batch(assumption_rows, cnf=cnf, budget=budget, trace=trace)

        seen_before_family: list[bool] = []

        def progress(event):
            if event.phase == "solve" and not seen_before_family:
                seen_before_family.append(died.exists())

        try:
            experiment = Experiment(
                _config(_pool(2), SolverSpec(name="dies-once")), progress=progress
            )
            result = experiment.run()
        finally:
            SOLVERS.unregister("dies-once")
        assert seen_before_family == [True]
        assert _outputs(experiment, result) == serial

    def test_a_progress_callback_that_raises_mid_estimation_closes_the_pool(self):
        class Cancelled(Exception):
            pass

        children_at_cancel: list[int] = []

        def progress(event):
            if event.phase == "estimate" and event.completed == 3:
                children_at_cancel.append(len(multiprocessing.active_children()))
                raise Cancelled()

        experiment = Experiment(_config(_pool(2)), progress=progress)
        with pytest.raises(Cancelled):
            experiment.run()
        assert children_at_cancel == [1]  # one worker beside the leader
        assert multiprocessing.active_children() == []
        assert experiment.pdsat.evaluator.pool is None


# ------------------------------------------------------------ the executor
def _dies_on_first_attempt(payload):
    """Kill this worker process on the first attempt per sentinel file."""
    value, sentinel = payload
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


#: The process that imported this module: forked workers inherit the value.
_LEADER = os.getpid()


def _dies_outside_the_leader(payload):
    """Kill any worker process; answer in the leader's own threads."""
    if os.getpid() != _LEADER:
        os.kill(os.getpid(), signal.SIGKILL)
    return payload


class TestPipeExecutor:
    def test_a_dead_workers_task_is_retried_on_a_new_process(self, tmp_path):
        tasks = [
            Task(task_id=f"t{i}", payload=(i, str(tmp_path / f"sentinel-{i}"))) for i in range(2)
        ]
        executor = ProcessExecutor(task_fn=_dies_on_first_attempt, num_workers=2)
        run = Scheduler(TaskGraph(tasks), executor, retry=RetryPolicy(max_attempts=2)).run()
        assert run.values_in_order() == [0, 2]
        assert run.metadata["crashes"] == 2
        assert "executor_fallback" not in run.metadata
        assert executor.closed

    def test_repeated_deaths_degrade_to_threads(self):
        tasks = [Task(task_id=f"t{i}", payload=i) for i in range(4)]
        executor = ProcessExecutor(task_fn=_dies_outside_the_leader, num_workers=2)
        with pytest.warns(RuntimeWarning, match="degrading to a thread executor"):
            run = Scheduler(TaskGraph(tasks), executor, retry=RetryPolicy(max_attempts=3)).run()
        assert run.values_in_order() == [0, 1, 2, 3]
        assert f"{ProcessExecutor.MAX_POOL_BREAKS} worker processes died" in (
            run.metadata["executor_fallback"]
        )

    def test_close_joins_every_worker_and_refuses_more_attempts(self):
        executor = ProcessExecutor(task_fn=abs, num_workers=3)
        for worker in range(3):
            executor.start(Task(task_id=f"t{worker}", payload=-worker), worker)
        replies = []
        while len(replies) < 3:
            replies += executor.wait()
        assert sorted(event.value for event in replies) == [0, 1, 2]
        assert len(multiprocessing.active_children()) == 3
        executor.close()
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError, match="closed"):
            executor.start(Task(task_id="late", payload=1), 0)
