"""A BOINC-style volunteer-computing grid simulation (the SAT@home substrate).

Section 4.2 of the paper solves ten A5/1 cryptanalysis instances in the
volunteer computing project SAT@home over about five months at an average
throughput of roughly two teraflops.  A volunteer grid differs from a dedicated
cluster in three ways that matter for processing a decomposition family:

* hosts are **heterogeneous** — their speeds span an order of magnitude;
* hosts are **unreliable** — they are only intermittently available and some
  work units are never returned, so the server re-issues them after a deadline;
* work units are **replicated** — each is sent to several hosts and accepted
  once a quorum of results agrees (BOINC's standard validation).

All three are native features of the unified scheduler
(:mod:`repro.runner.scheduler`), so this module is a thin policy over it:
hosts become :class:`~repro.runner.scheduler.WorkerProfile` entries
(log-uniform speeds, the configured duty cycle), unreliability is the
:class:`~repro.runner.scheduler.FailureModel` crash injection with the BOINC
deadline as the crash-detection delay (an unlimited retry budget reproduces
the server's re-issue policy), and replication/quorum map one-to-one onto the
scheduler's replication and quorum parameters.

:func:`simulate_volunteer_grid` produces campaign duration, effective
throughput and overhead factors that can be compared against the
dedicated-cluster makespan of :func:`repro.runner.cluster.simulate_makespan` —
the reproduction of the paper's "cluster vs. SAT@home" experiment pair.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.runner.scheduler import (
    FailureModel,
    RetryPolicy,
    Scheduler,
    SimulatedGridExecutor,
    Task,
    TaskGraph,
    WorkerProfile,
)


@dataclass
class VolunteerGridConfig:
    """Parameters of the simulated volunteer grid."""

    #: Number of volunteer hosts attached to the project.
    num_hosts: int = 100
    #: Mean host speed relative to the reference core that measured the costs.
    mean_speed: float = 1.0
    #: Spread of host speeds (log-uniform in [mean/spread, mean*spread]).
    speed_spread: float = 3.0
    #: Fraction of wall-clock time a host is actually crunching (duty cycle).
    availability: float = 0.4
    #: Probability that a dispatched work unit is never returned by the host.
    failure_rate: float = 0.1
    #: How many copies of each work unit are dispatched (BOINC replication).
    redundancy: int = 2
    #: How many returned results are needed to accept a work unit.
    quorum: int = 1
    #: Work-unit deadline, as a multiple of the mean work-unit cost; lost
    #: results are only noticed (and the work unit re-issued) at the deadline.
    deadline_factor: float = 20.0
    #: Seed of the grid's randomness (host speeds, failures).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_hosts < 1:
            raise ValueError("num_hosts must be at least 1")
        if self.mean_speed <= 0:
            raise ValueError("mean_speed must be positive")
        if self.speed_spread < 1.0:
            raise ValueError("speed_spread must be at least 1")
        if not 0.0 < self.availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        if self.redundancy < 1:
            raise ValueError("redundancy must be at least 1")
        if not 1 <= self.quorum <= self.redundancy:
            raise ValueError("quorum must be between 1 and redundancy")
        if self.deadline_factor <= 0:
            raise ValueError("deadline_factor must be positive")


@dataclass
class VolunteerHost:
    """One volunteer machine."""

    host_id: int
    speed: float
    availability: float

    def effective_rate(self) -> float:
        """Work units of cost per unit of wall-clock time this host delivers."""
        return self.speed * self.availability


@dataclass
class VolunteerSimulation:
    """Outcome of a volunteer-grid campaign over one decomposition family."""

    campaign_duration: float
    total_work: float
    dispatched_results: int
    lost_results: int
    reissued_work_units: int
    host_count: int
    config: VolunteerGridConfig
    completed_at: list[float] = field(default_factory=list)

    @property
    def effective_throughput(self) -> float:
        """Average useful work per unit of wall-clock time over the campaign."""
        if self.campaign_duration == 0:
            return float("inf")
        return self.total_work / self.campaign_duration

    @property
    def replication_overhead(self) -> float:
        """Dispatched results per work unit (≥ redundancy; grows with re-issues)."""
        work_units = len(self.completed_at) or 1
        return self.dispatched_results / work_units

    def summary(self) -> str:
        """One-line report used by the benchmark and examples."""
        return (
            f"volunteer grid: {self.host_count} hosts, campaign {self.campaign_duration:.3g}, "
            f"throughput {self.effective_throughput:.3g}, "
            f"overhead ×{self.replication_overhead:.2f}, {self.reissued_work_units} re-issues"
        )


def _build_hosts(config: VolunteerGridConfig, rng: random.Random) -> list[VolunteerHost]:
    """Draw the host population (log-uniform speeds, configured duty cycle)."""
    hosts = []
    for host_id in range(config.num_hosts):
        exponent = rng.uniform(-1.0, 1.0)
        speed = config.mean_speed * (config.speed_spread**exponent)
        hosts.append(VolunteerHost(host_id=host_id, speed=speed, availability=config.availability))
    return hosts


def simulate_volunteer_grid(
    costs: Sequence[float],
    config: VolunteerGridConfig | None = None,
) -> VolunteerSimulation:
    """Simulate processing one work unit per cost value on a volunteer grid.

    ``costs`` are per-sub-problem costs measured on the reference core (the
    same inputs :func:`repro.runner.cluster.simulate_makespan` takes).  Each
    cost becomes one scheduler task dispatched ``redundancy`` times; idle
    hosts pull the next pending copy (BOINC's pull model is the scheduler's
    FIFO queue), results arrive after ``cost / (speed · availability)`` on the
    virtual clock, and lost results are noticed — and the work unit re-issued —
    at the deadline.  The campaign ends when every work unit reaches quorum.
    """
    config = config or VolunteerGridConfig()
    jobs = [float(c) for c in costs]
    if not jobs:
        raise ValueError("costs must not be empty")
    if any(cost < 0 for cost in jobs):
        raise ValueError("job costs must be non-negative")

    rng = random.Random(config.seed)
    hosts = _build_hosts(config, rng)
    mean_cost = sum(jobs) / len(jobs)
    deadline = config.deadline_factor * max(mean_cost, 1e-12)

    graph = TaskGraph(
        Task(task_id=f"wu-{index:06d}", payload=cost) for index, cost in enumerate(jobs)
    )
    executor = SimulatedGridExecutor(
        task_fn=lambda cost: cost,
        workers=[WorkerProfile(host.speed, host.availability) for host in hosts],
        failures=FailureModel(crash_rate=config.failure_rate, seed=rng.getrandbits(64)),
    )
    run = Scheduler(
        graph,
        executor,
        # The BOINC server re-issues forever; the deadline is the per-attempt
        # budget after which a lost result is noticed.
        retry=RetryPolicy(max_attempts=None, timeout=deadline),
        replication=config.redundancy,
        quorum=config.quorum,
    ).run()

    completed_at = sorted(record.finished_at for record in run.results.values())
    return VolunteerSimulation(
        campaign_duration=max(completed_at, default=0.0),
        total_work=sum(jobs),
        dispatched_results=run.metadata["dispatches"],
        lost_results=run.metadata["crashes"],
        reissued_work_units=run.metadata["retries"],
        host_count=config.num_hosts,
        config=config,
        completed_at=completed_at,
    )
