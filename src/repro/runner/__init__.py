"""Parallel processing of decomposition families.

The paper processed decomposition families on an MPI cluster (PDSAT) and in the
SAT@home volunteer project.  This subpackage provides one unified scheduler and
the thin policies that reproduce both substrates (plus a real local pool):

* :mod:`repro.runner.scheduler` — the fault-tolerant core: task graphs,
  pluggable executors (inline / thread / process / simulated virtual-clock
  grid with latency and failure models), a shared pull queue, retry/timeout
  budgets, replication with quorum, the JSON checkpoint document, and
  deterministic serial replay of any parallel run.
* :mod:`repro.runner.cluster` — the *simulated* cluster policy: greedy list
  scheduling of measured per-sub-problem costs on ``M`` virtual cores (how the
  "480 cores" columns of Table 3 are reproduced without 480 physical cores).
* :mod:`repro.runner.volunteer` — the *simulated* BOINC-style volunteer-grid
  policy (heterogeneous, intermittently available, replicated hosts), the
  analogue of SAT@home used to reproduce the Section 4.2 experiments.
* :mod:`repro.runner.pool` — the one row-solving kernel every path runs:
  per-run worker state (``WorkerState``, one solver per thread) that solves a
  task's assumption rows and returns ``SubproblemOutcome`` records, the one
  executor factory (``worker_executor``: inline, real process pool,
  simulated cluster) behind every execution backend, and the estimating
  mode's dispatch of a sample's rows onto a run's pool (``solve_beside``).
"""

from repro.runner.cluster import ClusterSimulation, simulate_makespan
from repro.runner.scheduler import (
    Completion,
    Executor,
    FailureModel,
    InlineExecutor,
    ProcessExecutor,
    RetryPolicy,
    Scheduler,
    SchedulerCheckpoint,
    SchedulerRun,
    SimulatedGridExecutor,
    Task,
    TaskGraph,
    TaskRecord,
    ThreadExecutor,
    WorkerProfile,
    replay_serial,
)
from repro.runner.volunteer import (
    VolunteerGridConfig,
    VolunteerHost,
    VolunteerSimulation,
    simulate_volunteer_grid,
)

__all__ = [
    "ClusterSimulation",
    "simulate_makespan",
    "Completion",
    "Executor",
    "FailureModel",
    "InlineExecutor",
    "ProcessExecutor",
    "RetryPolicy",
    "Scheduler",
    "SchedulerCheckpoint",
    "SchedulerRun",
    "SimulatedGridExecutor",
    "Task",
    "TaskGraph",
    "TaskRecord",
    "ThreadExecutor",
    "WorkerProfile",
    "replay_serial",
    "VolunteerGridConfig",
    "VolunteerHost",
    "VolunteerSimulation",
    "simulate_volunteer_grid",
]
