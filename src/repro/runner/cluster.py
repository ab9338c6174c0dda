"""Simulated cluster: makespan of a set of independent jobs on ``M`` cores.

Processing a decomposition family is embarrassingly parallel: each sub-problem
is an independent job.  Given the per-job costs (measured on one core), the
wall-clock time on an ``M``-core cluster is the *makespan* of a scheduling of
the jobs onto the cores.  PDSAT used a dynamic work queue (the leader hands the
next sub-problem to whichever worker becomes idle), which corresponds to greedy
list scheduling in job order; the classical LPT (longest processing time first)
rule is also provided as the near-optimal reference.

This module is a thin policy over the unified scheduler
(:mod:`repro.runner.scheduler`): jobs become tasks whose payload is their
cost, and a :class:`~repro.runner.scheduler.SimulatedGridExecutor` with ``M``
unit-speed workers, a FIFO pull queue and no failure injection *is* greedy
list scheduling — the virtual makespan it reports reproduces the classical
min-heap computation bit for bit (ties broken by core index).

The simulation reproduces the structure of the paper's Table 3: the predicted
time on 480 cores is ``F / 480`` and the "real" time is the makespan of the
actual per-sub-problem costs on 480 simulated cores.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.runner.scheduler import (
    RetryPolicy,
    Scheduler,
    SimulatedGridExecutor,
    Task,
    TaskGraph,
)


@dataclass
class ClusterSimulation:
    """Result of scheduling a job list onto ``num_cores`` virtual cores."""

    num_cores: int
    makespan: float
    total_work: float
    core_loads: list[float]
    scheduler: str

    @property
    def ideal_makespan(self) -> float:
        """The perfect-speed-up lower bound ``total_work / num_cores``."""
        return self.total_work / self.num_cores

    @property
    def efficiency(self) -> float:
        """Parallel efficiency: ideal makespan divided by the achieved makespan."""
        if self.makespan == 0:
            return 1.0
        return self.ideal_makespan / self.makespan


def simulate_makespan(
    costs: Sequence[float],
    num_cores: int,
    scheduler: str = "dynamic",
) -> ClusterSimulation:
    """Schedule jobs with the given costs onto ``num_cores`` cores.

    ``scheduler`` is ``"dynamic"`` (greedy list scheduling in the given job
    order — PDSAT's work queue) or ``"lpt"`` (longest processing time first).
    """
    if num_cores < 1:
        raise ValueError("num_cores must be at least 1")
    if scheduler not in ("dynamic", "lpt"):
        raise ValueError("scheduler must be 'dynamic' or 'lpt'")
    jobs = [float(c) for c in costs]
    if any(cost < 0 for cost in jobs):
        raise ValueError("job costs must be non-negative")
    if scheduler == "lpt":
        jobs = sorted(jobs, reverse=True)

    graph = TaskGraph(
        Task(task_id=f"job-{index:06d}", payload=cost) for index, cost in enumerate(jobs)
    )
    executor = SimulatedGridExecutor(task_fn=lambda cost: cost, workers=num_cores)
    run = Scheduler(graph, executor, retry=RetryPolicy(max_attempts=1)).run()

    # With no failure injection the virtual clock stops at the last completion,
    # which is exactly the makespan; worker loads are the per-core cost sums.
    return ClusterSimulation(
        num_cores=num_cores,
        makespan=run.makespan if jobs else 0.0,
        total_work=sum(jobs),
        core_loads=run.worker_loads or [0.0] * num_cores,
        scheduler=scheduler,
    )
