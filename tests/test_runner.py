"""Tests for the simulated cluster, the process pool and the row-solving kernel.

Every runner path — the four execution backends, and the estimating mode's
shares of a sample on a run's pool — runs one kernel on per-run worker state.
The race tests below pin what that buys: a process pool that degraded to
threads, and two runs sharing one process, each return exactly the serial
results.  Every backend
solves a family in chunks, one ``solve_batch`` call each where the solver
can batch; the tests below pin every backend to a fresh solve of every row,
check that each saves a chunk's rows before it reports them, that either
backend resumes the other's checkpoints, that slow rows keep the serial
backend's and the pool's chunks to one row, and that no pool run leaves a
process behind.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.api import Experiment, ExperimentConfig
from repro.api.backends import (
    ProcessPoolBackend,
    SerialBackend,
    SimulatedClusterBackend,
    VolunteerGridBackend,
)
from repro.api.specs import BackendSpec, InstanceSpec, SolverSpec
from repro.ciphers import Geffe
from repro.core.decomposition import DecompositionSet
from repro.problems import make_inversion_instance
from repro.runner.cluster import simulate_makespan
from repro.runner.scheduler import SchedulerCheckpoint
from repro.sat.cdcl import CDCLSolver
from repro.sat.solver import SolverBudget, SolverStatus

#: A family checkpoint written by the code before the row-solving kernel existed.
DATA = Path(__file__).parent / "data"


class TestMakespanSimulation:
    def test_single_core_is_total_work(self):
        sim = simulate_makespan([3.0, 1.0, 2.0], 1)
        assert sim.makespan == 6.0
        assert sim.total_work == 6.0
        assert sim.efficiency == pytest.approx(1.0)

    def test_many_cores_bounded_by_longest_job(self):
        sim = simulate_makespan([5.0, 1.0, 1.0], 10)
        assert sim.makespan == 5.0

    def test_perfectly_divisible_work(self):
        sim = simulate_makespan([1.0] * 8, 4)
        assert sim.makespan == 2.0
        assert sim.efficiency == pytest.approx(1.0)

    def test_dynamic_scheduling_order_matters(self):
        # A long job arriving last forces a worse makespan than LPT.
        costs = [1.0, 1.0, 1.0, 9.0]
        dynamic = simulate_makespan(costs, 2, scheduler="dynamic")
        lpt = simulate_makespan(costs, 2, scheduler="lpt")
        assert dynamic.makespan >= lpt.makespan
        assert lpt.makespan == 9.0

    def test_empty_job_list(self):
        sim = simulate_makespan([], 4)
        assert sim.makespan == 0.0
        assert sim.total_work == 0.0

    def test_makespan_bounds(self):
        costs = [float(i % 7 + 1) for i in range(100)]
        for cores in (1, 3, 16):
            sim = simulate_makespan(costs, cores)
            assert sim.makespan >= sim.ideal_makespan
            assert sim.makespan >= max(costs)
            assert sim.makespan <= sum(costs)

    def test_core_loads_sum_to_total(self):
        costs = [2.0, 3.0, 4.0, 5.0]
        sim = simulate_makespan(costs, 3)
        assert sum(sim.core_loads) == pytest.approx(sum(costs))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate_makespan([1.0], 0)
        with pytest.raises(ValueError):
            simulate_makespan([-1.0], 2)
        with pytest.raises(ValueError):
            simulate_makespan([1.0], 2, scheduler="magic")


class TestParallelPool:
    """``ProcessPoolBackend``: the real-process policy of the shared family path."""

    @pytest.fixture(scope="class")
    def instance(self):
        return make_inversion_instance(Geffe.tiny(), keystream_length=24, seed=2)

    def test_sequential_fallback(self, instance):
        vectors = [[v] for v in instance.start_set[:4]]
        outcomes = ProcessPoolBackend(processes=1).run(instance.cnf, vectors).outcomes
        assert len(outcomes) == 4
        assert all(o.status in (SolverStatus.SAT, SolverStatus.UNSAT) for o in outcomes)

    def test_results_in_input_order(self, instance):
        vectors = [[instance.start_set[0]], [-instance.start_set[0]]]
        outcomes = ProcessPoolBackend(processes=1).run(instance.cnf, vectors).outcomes
        assert outcomes[0].assumptions == (instance.start_set[0],)
        assert outcomes[1].assumptions == (-instance.start_set[0],)

    def test_models_kept_for_sat(self, instance):
        outcomes = ProcessPoolBackend(processes=1).run(instance.cnf, [[]]).outcomes
        assert outcomes[0].status is SolverStatus.SAT
        assert outcomes[0].model is not None

    def test_invalid_process_count(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(processes=0)

    def test_two_worker_processes(self, instance):
        # Keep this small: spawning processes is slow but exercises the real pool.
        vectors = [[v] for v in instance.start_set[:4]]
        parallel = ProcessPoolBackend(processes=2).run(instance.cnf, vectors)
        sequential = SerialBackend().run(instance.cnf, vectors)
        assert parallel.statuses == sequential.statuses
        assert parallel.costs == sequential.costs
        assert parallel.satisfying_models == sequential.satisfying_models


def _family(cipher: str, seed: int, width: int, known_bits: int = 0):
    """An instance and the family of its first ``width`` start-set variables."""
    instance = InstanceSpec(cipher=cipher, seed=seed, known_bits=known_bits).build()
    decomposition = DecompositionSet.of(instance.start_set[:width])
    return instance, [a.to_literals() for a in decomposition.all_assignments()]


def _answers(run) -> list[tuple]:
    return [(o.status, o.cost, o.model) for o in run.outcomes]


@pytest.fixture
def untimed_chunks(monkeypatch):
    """Let no chunk overrun its time, so chunks hold 1, 2, 4, …, 64 rows as cut."""
    import repro.api.backends as backends

    monkeypatch.setattr(backends, "_CHUNK_SECONDS", 1e9)


def _fresh_answers(
    instance, vectors, budget=None, stop_on_sat=False, solver: SolverSpec | None = None
) -> list[tuple]:
    """The oracle: one fresh ``solve(cnf, row)`` per row, on a new solver each."""
    answers = []
    for row in vectors:
        fresh = (solver or SolverSpec()).build()
        result = fresh.solve(instance.cnf, assumptions=list(row), budget=budget)
        answers.append(
            (result.status, result.stats.cost("propagations"),
             result.model if result.is_sat else None)
        )
        if stop_on_sat and result.status is SolverStatus.SAT:
            break
    return answers


class TestChunkedFamily:
    """Serial and pool solve a family in chunks; every answer is a fresh solve's."""

    @pytest.fixture(scope="class")
    def family(self):
        # 128 rows: untimed serial chunks of 1, 2, 4, ..., 64 rows and then
        # the last row; on 2 processes each worker first takes one row, and
        # then chunks of 2, 4, ..., 64 rows, so each worker takes several.
        return _family("bivium-tiny", seed=5, width=7, known_bits=8)

    @pytest.mark.parametrize(
        "options",
        [{}, {"stop_on_sat": True}, {"budget": SolverBudget(max_conflicts=1)}],
        ids=["plain", "stop-on-sat", "one-conflict-budget"],
    )
    def test_pool_equals_serial_row_for_row(self, family, options, untimed_chunks):
        instance, vectors = family
        expected = _fresh_answers(instance, vectors, **options)
        serial = SerialBackend().run(instance.cnf, vectors, **options)
        pooled = ProcessPoolBackend(processes=2).run(instance.cnf, vectors, **options)
        for run in (serial, pooled):
            assert _answers(run) == expected
            assert [o.assumptions for o in run.outcomes] == [
                tuple(row) for row in vectors[: len(expected)]
            ]
        # Under stop_on_sat the 105th row, the first SAT one, is in the 7th
        # chunk (rows 64-127), and no chunk comes after it.
        assert serial.metadata["dispatches"] == (7 if "stop_on_sat" in options else 8)
        assert pooled.metadata["dispatches"] == 8
        if "budget" in options:
            assert sum(status is SolverStatus.UNKNOWN for status, _, _ in expected) == 120
        if "stop_on_sat" in options:
            assert expected[-1][0] is SolverStatus.SAT
            assert len(expected) < len(vectors)

    def test_serial_resume_past_a_sat_row_dispatches_nothing(self, family):
        instance, vectors = family
        snapshots: list[SchedulerCheckpoint] = []
        stopped = SerialBackend().run(
            instance.cnf, vectors, stop_on_sat=True, checkpoint_sink=snapshots.append
        )
        # Keep the records up to the first SAT row: the rows after it are missing.
        prefix = {f"sub-{index:06d}" for index in range(len(stopped.outcomes))}
        partial = SchedulerCheckpoint(
            results={k: v for k, v in snapshots[-1].results.items() if k in prefix},
            metadata=snapshots[-1].metadata,
        )
        assert len(partial) == len(stopped.outcomes) < len(vectors)
        resumed = SerialBackend().run(instance.cnf, vectors, stop_on_sat=True, checkpoint=partial)
        assert resumed.metadata["dispatches"] == 0
        assert _answers(resumed) == _answers(stopped)

    def test_slow_rows_keep_serial_chunks_to_one_row(self, slow_rows):
        # Every row takes 0.15 s, more than half of the 0.25 s an inline
        # chunk may run: each chunk holds one row, so a progress callback
        # that stops the run at its 3rd event leaves no 4th row solved.
        instance, vectors = _family("geffe-tiny", seed=1, width=4)
        events: list[int] = []

        def progress(done, total):
            events.append(done)
            if done == 3:
                raise _Stop

        with pytest.raises(_Stop):
            SerialBackend().run(
                instance.cnf, vectors, solver=SolverSpec(name="slow-rows"), progress=progress
            )
        assert events == [1, 2, 3]
        assert len(slow_rows) == 3
        run = SerialBackend().run(instance.cnf, vectors[:4], solver=SolverSpec(name="slow-rows"))
        assert run.metadata["dispatches"] == 4
        assert _answers(run) == _fresh_answers(instance, vectors[:4])

    def test_slow_rows_keep_pool_chunks_to_one_row(self, slow_rows):
        # Each of the 2 workers first takes one row, and no chunk's pace
        # fits a second 0.15 s row into 0.25 s, so every chunk holds one
        # row: stopped at its 3rd progress event, the run has saved at most
        # 3 rows.  (Forked workers cannot append to ``slow_rows``, so the
        # snapshots tell how far the run got.)
        instance, vectors = _family("geffe-tiny", seed=1, width=6)
        snapshots: list[SchedulerCheckpoint] = []

        def progress(done, total):
            if done == 3:
                raise _Stop

        with pytest.raises(_Stop):
            ProcessPoolBackend(processes=2).run(
                instance.cnf, vectors, solver=SolverSpec(name="slow-rows"),
                progress=progress, checkpoint_sink=snapshots.append,
            )
        assert 1 <= len(snapshots[-1]) <= 3


class _Stop(Exception):
    """Raised by a progress callback to stop a run part-way."""


def _stopped_at(backend, instance, vectors, events: int) -> SchedulerCheckpoint:
    """The last checkpoint ``backend`` wrote before its ``events``-th progress event."""
    snapshots: list[SchedulerCheckpoint] = []

    def progress(done, total):
        if done == events:
            raise _Stop

    with pytest.raises(_Stop):
        backend.run(instance.cnf, vectors, progress=progress, checkpoint_sink=snapshots.append)
    return snapshots[-1]


class TestCheckpointsAcrossBackends:
    """A family checkpoint is per sub-problem, so either backend resumes the other's."""

    @pytest.fixture(scope="class")
    def family(self):
        instance, vectors = _family("bivium-tiny", seed=5, width=7, known_bits=8)
        return instance, vectors, _answers(SerialBackend().run(instance.cnf, vectors))

    def test_serial_resumes_a_stopped_pool_run(self, family):
        instance, vectors, expected = family
        partial = _stopped_at(ProcessPoolBackend(processes=2), instance, vectors, events=20)
        assert 0 < len(partial) < len(vectors)
        resumed = SerialBackend().run(instance.cnf, vectors, checkpoint=partial)
        assert resumed.metadata["from_checkpoint"] == len(partial)
        assert _answers(resumed) == expected

    def test_pool_resumes_a_stopped_serial_run(self, family, untimed_chunks):
        instance, vectors, expected = family
        # Serial chunks hold 1, 2, 4, 8, 16 and then 32 rows (rows 32-63), and
        # each chunk's checkpoint is taken before its progress events: the
        # 40th event comes after the sixth chunk's checkpoint.
        partial = _stopped_at(SerialBackend(), instance, vectors, events=40)
        assert len(partial) == 63
        events: list[int] = []
        resumed = ProcessPoolBackend(processes=2).run(
            instance.cnf, vectors, checkpoint=partial,
            progress=lambda done, total: events.append(done),
        )
        assert resumed.metadata["from_checkpoint"] == 63
        assert events == list(range(1, len(vectors) + 1))
        assert _answers(resumed) == expected

    @pytest.mark.parametrize("every", [1, 40, 50])
    def test_pool_sink_fires_per_crossed_multiple_of_checkpoint_every(self, family, every):
        # The pool's chunks follow the measured pace, so their sizes vary
        # from run to run; the rule does not.  The sink fires on each chunk
        # that crosses a multiple of ``every``, before that chunk's progress
        # events, and at the end unless that already happened.
        instance, vectors, _ = family
        snapshots: list[SchedulerCheckpoint] = []
        saved_at_event: list[tuple[int, int]] = []
        ProcessPoolBackend(processes=2).run(
            instance.cnf, vectors, checkpoint_sink=snapshots.append, checkpoint_every=every,
            progress=lambda done, total: saved_at_event.append(
                (done, len(snapshots[-1]) if snapshots else 0)
            ),
        )
        sizes = [len(snapshot) for snapshot in snapshots]
        assert sizes == sorted(set(sizes))
        assert all(after // every > before // every for before, after in zip([0] + sizes, sizes[:-1]))
        assert all(saved // every >= done // every for done, saved in saved_at_event)
        assert list(snapshots[-1].results) == [f"sub-{index:06d}" for index in range(128)]
        assert snapshots[-1].metadata["completed"] is True


#: Every built-in backend, built fresh for each run.
BACKENDS = {
    "serial": SerialBackend,
    "process-pool": lambda: ProcessPoolBackend(processes=2),
    "simulated-cluster": lambda: SimulatedClusterBackend(cores=4),
    "volunteer-grid": VolunteerGridBackend,
}

#: A solver that batches, one that cannot, and one whose preprocessing forbids it.
SOLVER_SPECS = {
    "cdcl": SolverSpec(),
    "dpll": SolverSpec(name="dpll"),
    "cdcl-simplify": SolverSpec(options={"simplify": True}),
}


class TestOneFamilyPath:
    """Every backend and solver goes through one chunked path with one checkpoint order."""

    @pytest.fixture(scope="class")
    def family(self):
        return _family("geffe-tiny", seed=1, width=6)

    @pytest.mark.parametrize("solver", sorted(SOLVER_SPECS))
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_rows_are_saved_before_they_are_reported(self, family, backend, solver):
        instance, vectors = family
        snapshots: list[SchedulerCheckpoint] = []
        early: list[int] = []

        def progress(done, total):
            if not snapshots or len(snapshots[-1]) < done:
                early.append(done)

        run = BACKENDS[backend]().run(
            instance.cnf, vectors, solver=SOLVER_SPECS[solver], progress=progress,
            checkpoint_sink=snapshots.append, checkpoint_every=1,
        )
        assert early == []
        assert list(snapshots[-1].results) == [f"sub-{index:06d}" for index in range(64)]
        assert snapshots[-1].metadata == {"completed": True, "tasks": 64}
        assert _answers(run) == _fresh_answers(instance, vectors, solver=SOLVER_SPECS[solver])

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_checkpoint_every_below_one_is_refused(self, family, backend):
        instance, vectors = family
        with pytest.raises(ValueError, match="checkpoint_every must be at least 1"):
            BACKENDS[backend]().run(
                instance.cnf, vectors, checkpoint_sink=lambda snapshot: None, checkpoint_every=0,
            )

    def test_a_failed_chunk_stops_the_serial_family(self):
        # A chunk that fails after its retries fails the run, so no chunk is
        # cut after it: the first one-row chunk is tried three times, and the
        # other rows are never solved.
        from repro.api.registry import SOLVERS, register_solver

        attempts: list[int] = []

        @register_solver("broken-batches", description="fails every batch (tests)")
        class BrokenBatches(CDCLSolver):
            def solve_batch(self, assumption_rows, cnf=None, budget=None, trace=None):
                attempts.append(len(assumption_rows))
                raise RuntimeError("broken")

        try:
            instance, vectors = _family("geffe-tiny", seed=1, width=4)
            with pytest.raises(RuntimeError, match=r"1 sub-problems failed .*sub-000000"):
                SerialBackend().run(instance.cnf, vectors, solver=SolverSpec(name="broken-batches"))
        finally:
            SOLVERS.unregister("broken-batches")
        assert attempts == [1, 1, 1]


class TestDegradedPool:
    """A pool that degraded to threads runs each thread on its own solver."""

    def test_family_equals_serial(self, no_process_pool):
        instance, vectors = _family("bivium-tiny", seed=5, width=7, known_bits=8)
        serial = SerialBackend().run(instance.cnf, vectors)
        with pytest.warns(RuntimeWarning, match="degrading to a thread executor"):
            pooled = ProcessPoolBackend(processes=4).run(instance.cnf, vectors)
        assert serial.num_sat == 1
        assert pooled.num_sat == 1
        assert _answers(pooled) == _answers(serial)
        assert "cannot create process pool" in pooled.metadata["executor_fallback"]



def _in_threads(*jobs, timeout: float = 300.0):
    """Run each job on its own thread, all released at once; return their results.

    A short interpreter switch interval makes the threads interleave often,
    so state shared between the runs would be hit, not just possible.
    """
    barrier = threading.Barrier(len(jobs), timeout=timeout)
    results: list = [None] * len(jobs)
    errors: list[BaseException] = []

    def work(index, job):
        try:
            barrier.wait()
            results[index] = job()
        except BaseException as error:  # noqa: BLE001 - re-raised in the caller
            errors.append(error)

    threads = [threading.Thread(target=work, args=pair) for pair in enumerate(jobs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results


class TestConcurrentRuns:
    """Two runs in one process, on two threads, never share a solver."""

    @pytest.fixture(scope="class")
    def families(self):
        return [
            _family("geffe-tiny", seed=11, width=6),
            _family("bivium-tiny", seed=12, width=6),
        ]

    def test_two_in_process_pool_runs(self, families):
        expected = [_answers(SerialBackend().run(i.cnf, v)) for i, v in families]
        runs = _in_threads(*(
            lambda i=i, v=v: ProcessPoolBackend(processes=1).run(i.cnf, v)
            for i, v in families
        ))
        assert [_answers(run) for run in runs] == expected


class TestProgress:
    @pytest.mark.parametrize(
        "backend",
        [
            SerialBackend(),
            ProcessPoolBackend(processes=2),
            SimulatedClusterBackend(cores=3),
            VolunteerGridBackend(),
        ],
        ids=lambda backend: backend.name,
    )
    def test_one_event_per_subproblem(self, backend):
        instance, vectors = _family("geffe-tiny", seed=1, width=3)
        events: list[tuple[int, int]] = []
        backend.run(instance.cnf, vectors, progress=lambda done, total: events.append((done, total)))
        assert events == [(done, 8) for done in range(1, 9)]


def _without_wall_time(record):
    """A checkpoint record with its machine-dependent ``wall_time`` blanked."""
    return {key: (None if key == "wall_time" else value) for key, value in record.items()}


class TestParentWrittenCheckpoints:
    """A checkpoint written before the row-solving kernel resumes and keeps its format.

    The file under ``tests/data`` was written by the earlier runner:
    geffe-tiny seed 1, family (1, 2, 3) on the serial backend.
    """

    FAMILY = DATA / "family_geffe_tiny_seed1_d123.ckpt"

    BACKENDS = {
        "serial": BackendSpec(name="serial"),
        "process-pool": BackendSpec(name="process-pool", options={"processes": 2}),
    }

    @classmethod
    def _config(cls, backend: str = "serial", **changes) -> ExperimentConfig:
        return ExperimentConfig(
            instance=InstanceSpec(cipher="geffe-tiny", seed=1),
            backend=cls.BACKENDS[backend],
            **changes,
        )

    def _resume_the_family_checkpoint(self, tmp_path, backend: str) -> None:
        path = tmp_path / "family.ckpt"
        shutil.copyfile(self.FAMILY, path)
        fresh = Experiment(self._config()).solve(decomposition=(1, 2, 3))
        resumed = Experiment(self._config(backend, checkpoint_path=str(path))).solve(
            decomposition=(1, 2, 3)
        )
        assert resumed.data["resumed_subproblems"] == 8
        assert resumed.data["statuses"] == fresh.data["statuses"]
        assert resumed.data["costs"] == fresh.data["costs"]
        assert resumed.data["recovered_state"] == fresh.data["recovered_state"]

    def test_family_checkpoint_resumes(self, tmp_path):
        self._resume_the_family_checkpoint(tmp_path, "serial")

    def test_family_checkpoint_resumes_on_the_pool(self, tmp_path):
        self._resume_the_family_checkpoint(tmp_path, "process-pool")

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_family_checkpoint_is_written_in_the_same_format(self, tmp_path, backend):
        path = tmp_path / "family.ckpt"
        Experiment(self._config(backend, checkpoint_path=str(path))).solve(
            decomposition=(1, 2, 3)
        )
        written = json.loads(path.read_text())
        parent = json.loads(self.FAMILY.read_text())
        assert written["metadata"]["experiment"] == parent["metadata"]["experiment"]
        assert list(written["results"]) == [f"sub-{index:06d}" for index in range(8)]
        for task_id, record in parent["results"].items():
            assert list(written["results"][task_id]) == list(record)
            assert _without_wall_time(written["results"][task_id]) == _without_wall_time(record)


def _session_processes(session: int, exclude: int = 0) -> list[str]:
    """Command lines of the live (non-zombie) processes of ``session``, bar ``exclude``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == exclude:
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue  # exited while we looked
        state, _ppid, _group, sid = stat.rsplit(")", 1)[1].split()[:4]
        if int(sid) == session and state != "Z":
            found.append(cmdline.replace(b"\0", b" ").decode(errors="replace").strip())
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_pool_runs_leave_no_process_behind():
    """Pool runs leave nothing running.

    A family, a batched evaluation on a pool the caller opened, an
    ``Experiment.run()`` that estimates on its pool, and one stopped
    mid-estimation by its progress callback.  The runs happen in a fresh
    interpreter leading its own session.  It lists the other live processes
    of its session just before it exits, and the test scans the session
    again as soon as it has exited: a process in either list outlived the
    runs.  The first list catches what exits only with the
    interpreter (``multiprocessing``'s resource tracker) without racing its
    exit.  This is also the guard against shared-memory segments: a pool run
    that made one would start the resource tracker and fail here.
    """
    import repro

    script = inspect.getsource(_session_processes) + textwrap.dedent(
        """
        from repro.api.backends import ProcessPoolBackend
        from repro.api.specs import InstanceSpec
        from repro.core.decomposition import DecompositionSet
        from repro.core.predictive import PredictiveFunction

        instance = InstanceSpec(cipher="bivium-tiny", seed=5, known_bits=8).build()
        variables = instance.start_set[:6]
        family = [a.to_literals() for a in DecompositionSet.of(variables).all_assignments()]
        ProcessPoolBackend(processes=2).run(instance.cnf, family)
        evaluator = PredictiveFunction(instance.cnf, sample_size=16, seed=3, batch_size=4)
        with ProcessPoolBackend(processes=2).pool(instance.cnf) as pool:
            evaluator.pool = pool
            evaluator.evaluate(variables)

        from repro.api import Experiment, ExperimentConfig
        from repro.api.specs import (
            BackendSpec, EstimatorSpec, MinimizerSpec, PreprocessorSpec,
        )

        config = ExperimentConfig(
            instance=InstanceSpec(cipher="bivium-tiny", seed=5, known_bits=8),
            minimizer=MinimizerSpec(max_evaluations=6),
            estimator=EstimatorSpec(sample_size=16, batch_size=4),
            preprocessor=PreprocessorSpec(name="satelite"),
            backend=BackendSpec(name="process-pool", options={"processes": 2}),
            decomposition_size=6,
        )
        Experiment(config).run()

        class Stop(Exception):
            pass

        def stop(event):
            if event.phase == "estimate" and event.completed == 2:
                raise Stop()

        try:
            Experiment(config, progress=stop).run()
        except Stop:
            pass
        else:
            raise AssertionError("the run was not stopped mid-estimation")
        print(json.dumps(_session_processes(os.getsid(0), exclude=os.getpid())))
        """
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", "import json, os\nfrom pathlib import Path\n" + script],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    before_exit, _ = child.communicate(timeout=300)
    after_exit = _session_processes(child.pid)
    assert child.returncode == 0
    assert json.loads(before_exit) == []
    assert after_exit == []
