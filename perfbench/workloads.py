"""The three workloads: ``estimate``, ``run`` and ``service``.

Every workload turns ``--seed`` into experiment configs, hands only those
configs to the program, checks the program's answers, and reports every
end-to-end metric (untraced mode) or every per-layer metric (traced mode).
See ``README.md`` next to this file for why each workload exists and what
each metric means on it.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import hostspeed
import spans as spanlib
from tally import Tally, median, percentile, tail_percentile

import repro.cli  # noqa: F401  (fills every registry, so no job pays for lazy imports)
from repro.api import Experiment, ExperimentConfig
from repro.api.specs import (
    BackendSpec,
    EstimatorSpec,
    InstanceSpec,
    MinimizerSpec,
    PreprocessorSpec,
)
from repro.core.decomposition import DecompositionSet
from repro.sat.cdcl import CDCLSolver
from repro.sat.solver import SolverStatus
from repro.service import ServiceClient, ServiceError

LAUNCHER = Path(__file__).resolve().parent / "daemon_launcher.py"

#: Work sizes.  ``tiny`` keeps every code path but finishes in seconds; it is
#: what the benchmark's own smoke tests run.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "estimate": {"cipher": "a51-tiny", "instances": 8, "evaluations": 24,
                     "sample_size": 100, "setups": 3, "hits": 50, "traced_pairs": 2},
        "run": {"instances": 4, "evaluations": 30, "sample_size": 100, "batch_size": 64,
                "processes": 2, "decomposition_size": None, "setups": 3, "hits": 50,
                "traced_pairs": 2},
        "service": {"round_seconds": 6.0, "clients": 2, "submissions": 24, "workers": 2,
                    "evaluations": 32, "sample_size": 100, "solve_bits": 6, "extra_starts": 4},
    },
    "tiny": {
        "estimate": {"cipher": "geffe-tiny", "instances": 1, "evaluations": 2,
                     "sample_size": 8, "setups": 2, "hits": 5, "traced_pairs": 1},
        "run": {"instances": 1, "evaluations": 2, "sample_size": 8, "batch_size": 4,
                "processes": 2, "decomposition_size": 4, "setups": 2, "hits": 5,
                "traced_pairs": 1},
        "service": {"round_seconds": 1000.0, "clients": 2, "submissions": 3, "workers": 2,
                    "evaluations": 2, "sample_size": 4, "solve_bits": 3, "extra_starts": 1},
    },
}

#: End-to-end metrics (untraced runs) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solves_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "hit_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs) and their units.
PER_LAYER = {
    "problems.busy_s": "s",
    "simplify.busy_s": "s",
    "simplify.clauses_removed": "count",
    "cdcl.calls": "count",
    "cdcl.busy_s": "s",
    "cdcl.propagations": "count",
    "cdcl.props_per_s": "1/s",
    "batch.calls": "count",
    "batch.rows": "count",
    "batch.busy_s": "s",
    "batch.rows_per_s": "1/s",
    "predictive.evaluations": "count",
    "predictive.self_s": "s",
    "predictive.cache_hit_ratio": "ratio",
    "tabu.self_s": "s",
    "runner.busy_s": "s",
    "runner.dispatches": "count",
    "runner.retries": "count",
    "runner.crashes": "count",
    "runner.worker_solve_s": "s",
    "runner.utilisation": "ratio",
    "experiment.self_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.exec_s": "s",
    "service.notify_lag_s": "s",
    "service.result_s": "s",
    "service.journal_bytes": "bytes",
    "service.checkpoint_bytes": "bytes",
    "service.hit_ratio": "ratio",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
    "prediction_error": "ratio",
}


@dataclass
class Report:
    """What one benchmark run prints."""

    metrics: dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    notes: list[str] = field(default_factory=list)


def sub_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` instance seeds derived from the benchmark seed."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return [rng.randrange(1, 1 << 30) for _ in range(count)]


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set size of this process, or of its largest reaped child."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def exhaustive_error(instance: dict[str, Any], decomposition: list[int], predicted: float) -> float:
    """|F - t| / t, with t the fresh-solve cost of the whole family (eq. 2).

    The family is solved with ``solve_batch``, whose per-row costs equal
    those of fresh scalar solves and which is several times faster.
    """
    solver = CDCLSolver().load(InstanceSpec.from_dict(instance).build().cnf)
    rows = [
        tuple(assignment.to_literals())
        for assignment in DecompositionSet.of(decomposition).all_assignments()
    ]
    truth = sum(
        result.stats.cost("propagations")
        for begin in range(0, len(rows), 256)
        for result in solver.solve_batch(rows[begin:begin + 256])
    )
    return abs(predicted - truth) / truth


def layer_metrics(totals: dict[str, spanlib.LayerTotals], root: str) -> dict[str, float]:
    """The per-layer metrics of :data:`PER_LAYER` from summarised spans."""
    def layer(name: str) -> spanlib.LayerTotals:
        return totals.get(name, spanlib.LayerTotals())

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    cdcl, batch, predictive, runner = (
        layer("cdcl"), layer("batch"), layer("predictive"), layer("runner")
    )
    propagations = cdcl.counts.get("propagations", 0)
    rows = batch.counts.get("rows", 0)
    sample_solves = predictive.counts.get("sample_solves", 0)
    worker_solve_s = runner.counts.get("worker_solve_s", 0.0)
    slots = runner.counts.get("worker_slots", 0) / runner.calls if runner.calls else 0
    return {
        "problems.busy_s": layer("problems").busy_s,
        "simplify.busy_s": layer("simplify").busy_s,
        "simplify.clauses_removed": layer("simplify").counts.get("clauses_removed", 0),
        "cdcl.calls": cdcl.calls,
        "cdcl.busy_s": cdcl.busy_s,
        "cdcl.propagations": propagations,
        "cdcl.props_per_s": rate(propagations, cdcl.busy_s),
        "batch.calls": batch.calls,
        "batch.rows": rows,
        "batch.busy_s": batch.busy_s,
        "batch.rows_per_s": rate(rows, batch.busy_s),
        "predictive.evaluations": predictive.counts.get("evaluations", 0),
        "predictive.self_s": predictive.self_s,
        "predictive.cache_hit_ratio": (
            predictive.counts.get("sample_hits", 0) / sample_solves if sample_solves else 0.0
        ),
        "tabu.self_s": layer("tabu").self_s,
        "runner.busy_s": runner.busy_s,
        "runner.dispatches": runner.counts.get("dispatches", 0),
        "runner.retries": runner.counts.get("retries", 0),
        "runner.crashes": runner.counts.get("crashes", 0),
        "runner.worker_solve_s": worker_solve_s,
        "runner.utilisation": (
            worker_solve_s / (runner.busy_s * slots) if runner.busy_s and slots else 0.0
        ),
        "experiment.self_s": layer("experiment").self_s,
        "unattributed_s": layer(root).self_s,
    }


def merge_totals(*summaries: dict[str, spanlib.LayerTotals]) -> dict[str, spanlib.LayerTotals]:
    merged: dict[str, spanlib.LayerTotals] = {}
    for summary in summaries:
        for name, totals in summary.items():
            merged.setdefault(name, spanlib.LayerTotals()).merge(totals)
    return merged


# ------------------------------------------------------------ one-shot workloads
class JobProbes:
    """Host-speed probes (:mod:`hostspeed`) for one job, grouped by phase.

    Probes bracket every set-up and the memo hits.  During the call, the
    program's progress callback takes them: one per event while it
    estimates (about one per minimiser iteration), then, once the family is
    dispatched, one per :attr:`POOL_EVERY` solved sub-problems.  The
    estimating phase waits while a probe runs, so that time is taken out of
    it; the pool's workers keep solving meanwhile, so nothing is taken out of
    the pool phase.  A disabled instance takes no probes and corrects by 1.
    """

    POOL_EVERY = 32

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.probes: dict[str, list[float]] = {}
        self.paused_s = 0.0
        self.dispatched_at: float | None = None
        self._pool_events = 0

    def take(self, phase: str) -> None:
        if not self.enabled:
            return
        started = time.perf_counter()
        probe = hostspeed.probe_seconds(beside_workers=phase == "pool")
        self.probes.setdefault(phase, []).append(probe)
        if phase == "call":
            self.paused_s += time.perf_counter() - started

    def scale(self, *phases: str) -> float:
        """The correction of the first of ``phases`` that has probes."""
        if not self.enabled:
            return 1.0
        for phase in phases:
            if self.probes.get(phase):
                return hostspeed.scale(self.probes[phase])
        raise ValueError(f"no host-speed probes in {phases}")

    def __call__(self, event) -> None:
        """The :class:`Experiment` progress callback."""
        if event.phase != "solve":
            self.take("call")
        elif self.dispatched_at is None:
            self.take("call")
            self.dispatched_at = time.perf_counter()
        else:
            self._pool_events += 1
            if self._pool_events % self.POOL_EVERY == 0:
                self.take("pool")


@dataclass
class Job:
    """One timed facade call on a freshly set-up :class:`Experiment`.

    ``setup_s``, ``wall_s`` and ``hit_s`` are corrected for the host's speed
    (see :class:`JobProbes`); ``measured_*`` are the seconds as measured.
    """

    config_index: int
    data: dict[str, Any]
    setup_s: list[float]
    wall_s: float
    measured_setup_s: list[float]
    measured_wall_s: float
    scale: float
    solves: int = 0
    ok: bool = True
    hit_s: list[float] = field(default_factory=list)

    @property
    def latency_s(self) -> float:
        """Config in hand to answer in hand; a failed job never answers."""
        return self.setup_s[-1] + self.wall_s if self.ok else math.inf


class OneShotWorkload:
    """A closed loop of ``Experiment.<call>()`` jobs in this process.

    Subclasses say which configs to build, how to read the work done from a
    result and how to check it.  Each config is revisited so that answers
    can be compared across repeats of one seed.
    """

    name = ""
    call = ""
    with_children = False

    def __init__(self, seed: int, size: dict[str, Any]):
        self.size = size
        self.seeds = sub_seeds(self.name, seed, size["instances"])
        self.configs = [self.config(s) for s in self.seeds]
        self.report = Report()
        self.answers: dict[int, Any] = {}

    # -- subclass hooks
    def config(self, instance_seed: int) -> ExperimentConfig:
        raise NotImplementedError

    def examine(self, job: Job, experiment: Experiment, problems: list[str]) -> tuple[int, Any]:
        """Count one job's operations and check its output.

        Appends what is wrong to ``problems``; returns (solves, answer).
        """
        raise NotImplementedError

    def hit_decomposition(self, job: Job) -> list[int]:
        raise NotImplementedError

    def prediction_error(self, job: Job) -> float:
        raise NotImplementedError

    # -- the loop
    def job(self, index: int, recorder: spanlib.Recorder | None = None,
            corrected: bool = True) -> Job | None:
        """Set up and call config ``index``, then check the answer.

        Traced jobs (``recorder``) set up once and skip the memo hits.
        Uncorrected jobs take no host-speed probes.
        """
        tally = self.report.tally
        setups = 1 if recorder is not None else self.size["setups"]
        probes = JobProbes(enabled=corrected)
        try:
            with recorder.span("job") if recorder is not None else nullcontext():
                experiment, job = self._timed(index, setups, probes)
        except Exception as error:  # noqa: BLE001 - a failed job is counted, not fatal
            tally.record("jobs", [f"{type(error).__name__}: {error}"])
            return None
        problems: list[str] = []
        job.solves, answer = self.examine(job, experiment, problems)
        previous = self.answers.setdefault(index, answer)
        if previous != answer:
            problems.append(f"config {index}: answer {answer} differs from {previous}")
        if recorder is None and not problems:
            job.hit_s = self._memo_hits(job, experiment.pdsat, probes, problems)
        job.ok = tally.record("jobs", problems)
        return job

    def _timed(self, index: int, setups: int, probes: JobProbes) -> tuple[Experiment, Job]:
        setup_s: list[float] = []
        for _ in range(setups):
            probes.take("setup")
            started = time.perf_counter()
            experiment = Experiment.from_config(
                self.configs[index], progress=probes if probes.enabled else None
            )
            experiment.pdsat  # encoding (+ preprocessing) and the evaluator
            setup_s.append(time.perf_counter() - started)
        probes.take("setup")
        started = time.perf_counter()
        result = getattr(experiment, self.call)()
        ended = time.perf_counter()
        dispatched = probes.dispatched_at or ended
        call_s = dispatched - started - probes.paused_s
        pool_s = ended - dispatched
        setup_scale, call_scale = probes.scale("setup"), probes.scale("call")
        job = Job(
            index,
            result.data,
            setup_s=[s * setup_scale for s in setup_s],
            wall_s=call_s * call_scale + pool_s * probes.scale("pool", "call"),
            measured_setup_s=setup_s,
            measured_wall_s=call_s + pool_s,
            scale=call_scale,
        )
        return experiment, job

    def _memo_hits(self, job: Job, pdsat, probes: JobProbes, problems: list[str]) -> list[float]:
        """Latencies of repeated F queries the evaluator answers from its memo."""
        decomposition = self.hit_decomposition(job)
        if not pdsat.evaluator.is_cached(decomposition):
            problems.append("best decomposition missing from the F memo")
            return []
        latencies = []
        probes.take("hits")
        for _ in range(self.size["hits"]):
            started = time.perf_counter()
            pdsat.evaluate_decomposition(decomposition)
            latencies.append(time.perf_counter() - started)
        probes.take("hits")
        return [s * probes.scale("hits") for s in latencies]

    def measure(self, seconds: float) -> Report:
        """Untraced closed loop over the configs for ``seconds``.

        The first config runs twice, so that there is always a repeat to
        compare answers with; then the loop cycles through the configs.  A
        job that starts before ``seconds`` are up finishes.
        """
        jobs: list[Job | None] = []
        started = time.perf_counter()
        while len(jobs) < 2 or time.perf_counter() - started < seconds:
            jobs.append(self.job(max(0, len(jobs) - 1) % len(self.configs)))
        done = [job for job in jobs if job is not None and job.ok]
        latencies = [job.latency_s if job is not None else math.inf for job in jobs]
        hits = [s for job in done for s in job.hit_s]
        metrics = self.report.metrics
        metrics["setup_s"] = median([s for job in done for s in job.setup_s])
        metrics["wall_s"] = median([job.wall_s for job in done])
        metrics["solves_per_s"] = median([job.solves / job.wall_s for job in done])
        busy = sum(job.setup_s[-1] + job.wall_s for job in jobs if job is not None)
        metrics["jobs_per_s"] = len(done) / busy if busy else math.nan
        metrics["job_p50_s"] = median(latencies)
        metrics["job_p90_s"] = percentile(latencies, 90.0)
        metrics["hit_p50_s"] = median(hits)
        metrics["peak_rss_mb"] = peak_rss_mb(self.with_children)
        self.report.notes.append(
            f"measured: wall_s {median([job.measured_wall_s for job in done]):.4g} s, "
            f"setup_s {median([s for job in done for s in job.measured_setup_s]):.4g} s; "
            f"host speed correction {median([job.scale for job in done]):.3f}"
        )
        tail = tail_percentile(hits)
        self.report.notes += [
            f"{len(jobs)} jobs over {len(self.configs)} configs, "
            f"{sum(len(job.setup_s) for job in done)} set-ups, {len(hits)} memo hits",
            f"job p90 rests on {len(latencies)} jobs "
            f"({len(latencies) * 0.1:.1f} beyond it); hits: "
            + (f"p{tail[0]:g} = {tail[1]:.3g} s" if tail else "too few for a tail"),
        ]
        return self.report

    def trace(self) -> Report:
        """Alternate untraced and traced jobs; report the per-layer metrics.

        Neither takes host-speed probes, so ``trace_overhead`` compares the
        measured seconds of the same configs.
        """
        recorder = spanlib.Recorder()
        untraced_wall = traced_wall = 0.0
        traced_jobs: list[Job] = []
        for index in range(self.size["traced_pairs"]):
            plain = self.job(index, corrected=False)
            uninstall = spanlib.install(recorder)
            try:
                traced = self.job(index, recorder, corrected=False)
            finally:
                uninstall()
            if plain is None or traced is None:
                continue
            untraced_wall += plain.wall_s
            traced_wall += traced.wall_s
            traced_jobs.append(traced)
        metrics = self.report.metrics
        metrics.update({name: 0.0 for name in PER_LAYER})
        metrics.update(layer_metrics(spanlib.summarize(recorder.spans), root="job"))
        if traced_jobs:
            metrics["trace_overhead"] = traced_wall / untraced_wall
            metrics["prediction_error"] = self.prediction_error(traced_jobs[0])
        self.report.notes.append(
            f"{len(traced_jobs)} traced jobs, {len(recorder.spans)} spans"
        )
        return self.report


class EstimateWorkload(OneShotWorkload):
    """Algorithm 2 (tabu) on un-weakened a51-tiny with the API-default estimator."""

    name = "estimate"
    call = "estimate"

    def config(self, instance_seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            instance=InstanceSpec(cipher=self.size["cipher"], seed=instance_seed),
            minimizer=MinimizerSpec(name="tabu", max_evaluations=self.size["evaluations"]),
            sample_size=self.size["sample_size"],
            seed=instance_seed,
        )

    def examine(self, job: Job, experiment: Experiment, problems: list[str]) -> tuple[int, Any]:
        data = job.data
        solves = data["num_subproblem_solves"]
        unknown = sum(
            1
            for prediction in experiment.pdsat.evaluator.cached_results()
            for observation in prediction.observations
            if observation.status is SolverStatus.UNKNOWN
        )
        self.report.tally.add("sampled_solves", solves, unknown)
        expected = data["num_evaluations"] * self.size["sample_size"]
        if solves != expected:
            problems.append(f"{solves} sampled solves, expected {expected}")
        if not data["best_value"] > 0:
            problems.append("F_best is not positive")
        return solves, (data["best_value"], tuple(data["best_decomposition"]))

    def hit_decomposition(self, job: Job) -> list[int]:
        return job.data["best_decomposition"]

    def prediction_error(self, job: Job) -> float:
        return exhaustive_error(
            self.configs[job.config_index].instance.to_dict(),
            job.data["best_decomposition"],
            job.data["best_value"],
        )


class RunWorkload(OneShotWorkload):
    """``repro-sat run``: Bivium16 (bivium-tiny, K=8), SatELite, fresh ξ, 2-process pool."""

    name = "run"
    call = "run"
    with_children = True

    def config(self, instance_seed: int) -> ExperimentConfig:
        size = self.size
        return ExperimentConfig(
            instance=InstanceSpec(cipher="bivium-tiny", seed=instance_seed, known_bits=8),
            minimizer=MinimizerSpec(name="tabu", max_evaluations=size["evaluations"]),
            estimator=EstimatorSpec(sample_size=size["sample_size"],
                                    batch_size=size["batch_size"]),
            preprocessor=PreprocessorSpec(name="satelite"),
            backend=BackendSpec(name="process-pool", options={"processes": size["processes"]}),
            decomposition_size=size["decomposition_size"],
            seed=instance_seed,
        )

    def examine(self, job: Job, experiment: Experiment, problems: list[str]) -> tuple[int, Any]:
        tally = self.report.tally
        estimate, solve = job.data["estimate"], job.data["solve"]
        sampled = estimate["num_subproblem_solves"]
        tally.add("sampled_solves", sampled)
        family = 2 ** len(solve["decomposition"])
        decided = sum(1 for status in solve["statuses"] if status in ("SAT", "UNSAT"))
        tally.add("subproblems", family, family - decided)
        if not decided == family == solve["num_subproblems"]:
            problems.append(f"{decided} of {family} sub-problems decided")
        recovered = solve["recovered_state"]
        if recovered is None or not experiment.instance.verify_state(
            [int(bit) for bit in recovered]
        ):
            problems.append("no verified key recovered")
        if experiment.pdsat.evaluator.batch_size != self.size["batch_size"]:
            problems.append("the estimator did not batch")
        return sampled + solve["num_processed"], (estimate["best_value"], solve["total_cost"])

    def hit_decomposition(self, job: Job) -> list[int]:
        return job.data["estimate"]["best_decomposition"]

    def prediction_error(self, job: Job) -> float:
        predicted = job.data["estimate"]["best_value"]
        total = job.data["solve"]["total_cost"]
        return abs(predicted - total) / total


# ------------------------------------------------------------------ the service
WALL_CLOCK_FIELDS = {"wall_time"}


def strip_wall_clock(value: Any) -> Any:
    """``value`` without its wall-clock fields (which differ between runs)."""
    if isinstance(value, dict):
        return {k: strip_wall_clock(v) for k, v in value.items() if k not in WALL_CLOCK_FIELDS}
    if isinstance(value, list):
        return [strip_wall_clock(v) for v in value]
    return value


def ping_until_up(address: str, timeout: float) -> None:
    """Return as soon as the daemon at ``address`` answers ``ping``.

    The client is told not to retry, so it fails at once while the socket is
    missing, and the loop retries every 0.5 ms without the client's jitter.
    """
    client = ServiceClient(address, timeout=timeout, connect_retries=0)
    deadline = time.perf_counter() + timeout
    while True:
        try:
            client.ping()
            return
        except ServiceError:
            if time.perf_counter() > deadline:
                raise TimeoutError(f"daemon at {address} did not answer ping in {timeout} s")
        time.sleep(0.0005)


class Daemon:
    """One ``repro-sat serve --workers N`` process on a fresh state directory."""

    def __init__(self, directory: Path, traced: bool, workers: int):
        directory.mkdir(parents=True)
        self.directory = directory
        self.state_dir = directory / "state"
        self.out = directory / "launcher.json"
        self.address = os.path.relpath(directory / "d.sock")
        self.log = open(directory / "launcher.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, str(LAUNCHER), str(self.out), "1" if traced else "0", "--",
             "--state-dir", os.path.relpath(self.state_dir), "--socket", self.address,
             "--workers", str(workers)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
        )

    def wait_ready(self) -> None:
        line = self.process.stdout.readline()
        if line.strip() != b"ready":
            raise RuntimeError(f"daemon launcher failed; see {self.directory / 'launcher.log'}")

    def _command(self, command: str) -> None:
        self.process.stdin.write(f"{command}\n".encode())
        self.process.stdin.flush()

    def _probe(self) -> float:
        self._command("probe")
        return float(self.process.stdout.readline())

    def start(self) -> tuple[float, float]:
        """Start the daemon.

        Returns the seconds until it answered ``ping`` and the correction
        for the host's speed, from probes the launcher takes just before the
        start and the idle daemon takes just after it.
        """
        before = self._probe()
        started = time.perf_counter()
        self._command("go")
        ping_until_up(self.address, timeout=60.0)
        elapsed = time.perf_counter() - started
        return elapsed, hostspeed.scale([before, self._probe()])

    def sample(self) -> None:
        """Start probing the host's speed from a thread in the daemon."""
        self._command("sample")

    def stop(self) -> dict[str, Any]:
        """Graceful shutdown; returns the launcher's report (peak RSS, probes, spans)."""
        self.process.stdin.close()  # a sampler still waiting to start gives up
        ServiceClient(self.address).shutdown()
        self.process.wait(timeout=60)
        return json.loads(self.out.read_text())

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()
        self.log.close()


@dataclass
class Submission:
    kind: str  # "estimate" | "solve"
    config: dict[str, Any]
    twin: int | None = None  # index of the earlier submission this one repeats
    record: dict[str, Any] = field(default_factory=dict)


class ServiceWorkload:
    """A closed loop of client threads against ``repro-sat serve``.

    A run is a few *rounds*.  Each round starts a daemon on a fresh state
    directory, lets every client run the same number of submissions and
    shuts the daemon down, so every round sees the same journal and store
    growth and the rounds can be pooled.
    """

    name = "service"

    def __init__(self, seed: int, size: dict[str, Any], scratch: Path):
        self.seed = seed
        self.size = size
        self.scratch = scratch
        self.report = Report()
        self.start_set = InstanceSpec(cipher="geffe-tiny").build().start_set

    def plan(self, round_index: int, client: int) -> list[Submission]:
        """Alternate fresh estimate and solve jobs; every third repeats one."""
        size = self.size
        rng = random.Random(f"perfbench:service:{self.seed}:{round_index}:{client}")
        plan: list[Submission] = []
        fresh: list[int] = []
        for index in range(size["submissions"]):
            if index % 3 == 2:
                twin = rng.choice(fresh)
                plan.append(Submission(plan[twin].kind, plan[twin].config, twin))
                continue
            instance = InstanceSpec(cipher="geffe-tiny", seed=rng.randrange(1, 1 << 30))
            if index % 3 == 0:
                config = ExperimentConfig(
                    instance=instance,
                    minimizer=MinimizerSpec(name="tabu", max_evaluations=size["evaluations"]),
                    sample_size=size["sample_size"],
                    seed=instance.seed,
                )
                plan.append(Submission("estimate", config.to_dict()))
            else:
                decomposition = sorted(rng.sample(self.start_set, size["solve_bits"]))
                config = ExperimentConfig(instance=instance, decomposition=decomposition)
                plan.append(Submission("solve", config.to_dict()))
            fresh.append(len(plan) - 1)
        return plan

    def _client(self, address: str, plan: list[Submission], traced: bool,
                recorder: spanlib.Recorder | None, round_span: int | None) -> None:
        client = ServiceClient(address, timeout=120.0)
        for submission in plan:
            record = submission.record
            span = recorder.span("submission", parent=round_span) if recorder else nullcontext()
            with span:
                self._submit(client, submission, record)
            if traced and "job_id" in record and "error" not in record:
                try:
                    job = client.status(record["job_id"])
                except (ServiceError, OSError, ValueError) as error:
                    record["error"] = f"status: {error}"
                    continue
                for key in ("submitted_at", "started_at", "finished_at"):
                    record[key] = job[key]

    @staticmethod
    def _submit(client: ServiceClient, submission: Submission, record: dict[str, Any]) -> None:
        started = time.perf_counter()
        try:
            outcome = client.submit(submission.kind, submission.config)
            submitted = time.perf_counter()
            record["job_id"] = outcome["job_id"]
            record["cached"] = outcome["cached"]
            state = None
            for message in client.watch(outcome["job_id"]):
                state = message.get("state", state)
            notified = time.perf_counter()
            record["notified_at"] = time.time()
            record["state"] = state
            record["result"] = client.result(outcome["job_id"])
            finished = time.perf_counter()
        except (ServiceError, OSError, ValueError) as error:
            record["error"] = f"{type(error).__name__}: {error}"
            return
        record["submit_s"] = submitted - started
        record["result_s"] = finished - notified
        record["latency_s"] = finished - started

    def round(self, plan_index: int, daemon: Daemon, traced: bool) -> dict[str, Any]:
        """One daemon lifetime: start, the clients' submissions, shutdown.

        An untraced round is corrected for the host's speed by the probes
        that a thread in the daemon takes while the clients run, and by the
        share of vCPU time the hypervisor took away meanwhile.  The daemon's
        threads share one interpreter lock: when the vCPU of the thread that
        holds it is taken away, every thread waits, so steal time slows the
        daemon more than it slows a probe.
        """
        setup_s, setup_scale = daemon.start()
        if not traced:
            daemon.sample()
        plans = [self.plan(plan_index, c) for c in range(self.size["clients"])]
        recorder = spanlib.Recorder() if traced else None
        steal_before = hostspeed.steal_ticks()
        started = time.monotonic()
        with recorder.span("round") if recorder is not None else nullcontext() as root:
            threads = [
                threading.Thread(
                    target=self._client,
                    args=(daemon.address, plan, traced, recorder, root.id if root else None),
                )
                for plan in plans
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        ended = time.monotonic()
        steal = hostspeed.steal_share(steal_before, hostspeed.steal_ticks())
        launcher = daemon.stop()
        probes = [cpu for at, cpu in launcher["probes"] if started <= at <= ended]

        solves = 0
        for plan in plans:
            for submission in plan:
                solves += self._check_submission(submission, plan)
        submissions = [s for plan in plans for s in plan]
        self._check_journal(daemon, submissions)
        state = daemon.state_dir
        checkpoints = state / "checkpoints"
        return {
            "setup_s": setup_s,
            "setup_scale": setup_scale,
            "wall_s": ended - started,
            "scale": 1.0 if traced else hostspeed.scale(probes) * (1.0 - steal),
            "steal": steal,
            "probes": len(probes),
            "submissions": submissions,
            "solves": solves,
            "peak_rss_mb": launcher["peak_rss_mb"],
            "spans": spanlib.spans_from_list(launcher["spans"]),
            "client_spans": recorder.spans if recorder is not None else [],
            "journal_bytes": (state / "jobs.json").stat().st_size,
            "checkpoint_bytes": sum(p.stat().st_size for p in checkpoints.iterdir())
            if checkpoints.exists() else 0,
        }

    def _check_submission(self, submission: Submission, plan: list[Submission]) -> int:
        """Count and check one submission; returns the solver work it reported."""
        record, problems, solves = submission.record, [], 0
        if "error" in record or record.get("state") != "done":
            problems.append(record.get("error", f"job ended {record.get('state')}"))
        elif submission.twin is None:
            solves = self._count_work(record["result"])
            if record["cached"]:
                problems.append("a fresh config was answered from the store")
        else:
            twin = plan[submission.twin].record
            if not record["cached"]:
                problems.append("a repeated config was not answered from the store")
            if "result" not in twin or strip_wall_clock(record["result"]["data"]) != (
                strip_wall_clock(twin["result"]["data"])
            ):
                problems.append("a cache hit differs from its fresh twin")
        record["failed"] = not self.report.tally.record("jobs", problems)
        return solves

    def _count_work(self, result: dict[str, Any]) -> int:
        tally, data = self.report.tally, result["data"]
        if result["kind"] == "estimate":
            tally.add("sampled_solves", data["num_subproblem_solves"])
            return data["num_subproblem_solves"]
        undecided = sum(1 for status in data["statuses"] if status not in ("SAT", "UNSAT"))
        tally.add("subproblems", data["num_subproblems"], undecided)
        return data["num_processed"]

    def _check_journal(self, daemon: Daemon, submissions: list[Submission]) -> None:
        """The journal must parse at exit and hold every job as done."""
        try:
            journal = json.loads((daemon.state_dir / "jobs.json").read_text())
            states = {job["job_id"]: job["state"] for job in journal["jobs"]}
        except (OSError, ValueError, KeyError, TypeError) as error:
            self.report.tally.record("journal", [f"does not parse at exit: {error}"])
            return
        missing = [
            s.record["job_id"] for s in submissions
            if "job_id" in s.record and states.get(s.record["job_id"]) != "done"
        ]
        self.report.tally.record(
            "journal", [f"jobs not journaled as done: {missing[:3]}"] if missing else []
        )

    def _run_rounds(self, rounds: list[tuple[int, bool]],
                    extra_starts: int = 0) -> tuple[list[float], list[dict[str, Any]]]:
        """Run one round per ``(plan index, traced)`` pair, each on its own daemon.

        A round starts one daemon, too few to time start-up steadily, so
        ``extra_starts`` more daemons are started and stopped at once before
        the rounds.  Every launcher is spawned first, so that no timed start
        or round shares the machine with another's interpreter start-up.
        Returns the corrected start-up times of the extra daemons, and the
        rounds.
        """
        plan = [(None, False)] * extra_starts + rounds
        daemons: list[Daemon] = []
        try:
            for index, (_, traced) in enumerate(plan):
                daemons.append(Daemon(self.scratch / f"daemon{index}", traced,
                                      self.size["workers"]))
            for daemon in daemons:
                daemon.wait_ready()
            setups = []
            for daemon in daemons[:extra_starts]:
                setup_s, scale = daemon.start()
                daemon.stop()
                setups.append(setup_s * scale)
            return setups, [
                self.round(plan_index, daemon, traced)
                for daemon, (plan_index, traced) in zip(daemons[extra_starts:], rounds)
            ]
        finally:
            for daemon in daemons:
                daemon.close()

    def measure(self, seconds: float) -> Report:
        count = max(2, round(seconds / self.size["round_seconds"]))
        setups, rounds = self._run_rounds([(index, False) for index in range(count)],
                                          self.size["extra_starts"])
        setups += [entry["setup_s"] * entry["setup_scale"] for entry in rounds]
        fresh, hits, measured_hits = [], [], []
        for entry in rounds:
            for submission in entry["submissions"]:
                record = submission.record
                latency = math.inf if record.get("failed") else record["latency_s"]
                if submission.twin is None:
                    fresh.append(latency * entry["scale"])
                else:
                    hits.append(latency * entry["scale"])
                    measured_hits.append(latency)
        metrics = self.report.metrics
        metrics["setup_s"] = median(setups)
        metrics["wall_s"] = median([entry["wall_s"] * entry["scale"] for entry in rounds])
        metrics["solves_per_s"] = median(
            [entry["solves"] / (entry["wall_s"] * entry["scale"]) for entry in rounds]
        )
        metrics["jobs_per_s"] = median(
            [len(entry["submissions"]) / (entry["wall_s"] * entry["scale"]) for entry in rounds]
        )
        metrics["job_p50_s"] = median(fresh)
        metrics["job_p90_s"] = percentile(fresh, 90.0)
        metrics["hit_p50_s"] = median(hits)
        metrics["peak_rss_mb"] = median([entry["peak_rss_mb"] for entry in rounds])
        self.report.notes.append(
            f"measured: wall_s {median([entry['wall_s'] for entry in rounds]):.4g} s, "
            f"setup_s {median([entry['setup_s'] for entry in rounds]):.4g} s, "
            f"hit_p50_s {median(measured_hits):.4g} s; host speed correction per round "
            + " ".join(f"{entry['scale']:.3f}" for entry in rounds)
            + f" ({sum(entry['probes'] for entry in rounds)} probes; steal share "
            + " ".join(f"{entry['steal']:.3f}" for entry in rounds) + ")"
        )
        tail = tail_percentile(fresh)
        self.report.notes += [
            f"{count} rounds, {len(fresh)} fresh jobs, {len(hits)} cache hits, "
            f"{len(setups)} daemon starts",
            "fresh-job tail: "
            + (f"p{tail[0]:g} = {tail[1]:.3g} s over {len(fresh)} jobs" if tail
               else f"too few jobs ({len(fresh)}) for a tail"),
        ]
        return self.report

    def trace(self) -> Report:
        """One untraced and one traced round of the same submissions.

        Each round has a fresh state directory, so the traced round's
        configs are fresh jobs again and ``trace_overhead`` compares like
        with like.
        """
        _, (plain, traced) = self._run_rounds([(0, False), (0, True)])
        totals = merge_totals(
            spanlib.summarize(traced["spans"]), spanlib.summarize(traced["client_spans"])
        )
        metrics = self.report.metrics
        metrics.update({name: 0.0 for name in PER_LAYER})
        metrics.update(layer_metrics(totals, root="round"))
        records = [s.record for s in traced["submissions"] if not s.record.get("failed")]
        fresh = [r for r in records if not r["cached"]]

        def med(values: list[float]) -> float:
            return median(values) if values else 0.0

        metrics["service.submit_s"] = med([r["submit_s"] for r in records])
        metrics["service.queue_wait_s"] = med([r["started_at"] - r["submitted_at"] for r in fresh])
        metrics["service.exec_s"] = med([r["finished_at"] - r["started_at"] for r in fresh])
        metrics["service.notify_lag_s"] = med([r["notified_at"] - r["finished_at"] for r in fresh])
        metrics["service.result_s"] = med([r["result_s"] for r in records])
        metrics["service.journal_bytes"] = traced["journal_bytes"]
        metrics["service.checkpoint_bytes"] = traced["checkpoint_bytes"]
        metrics["service.hit_ratio"] = (
            sum(1 for r in records if r["cached"]) / len(traced["submissions"])
        )
        metrics["trace_overhead"] = traced["wall_s"] / plain["wall_s"]
        estimates = [r for r in fresh if r["result"]["kind"] == "estimate"]
        if estimates:
            data = estimates[0]["result"]["data"]
            metrics["prediction_error"] = exhaustive_error(
                estimates[0]["result"]["config"]["instance"],
                data["best_decomposition"], data["best_value"],
            )
        self.report.notes.append(
            f"traced round: {len(records)} submissions, {len(traced['spans'])} daemon spans"
        )
        return self.report


def run_workload(name: str, seed: int, seconds: float, traced: bool, size: str,
                 scratch: Path) -> Report:
    sizes = SIZES[size][name]
    if name == "estimate":
        workload = EstimateWorkload(seed, sizes)
    elif name == "run":
        workload = RunWorkload(seed, sizes)
    else:
        workload = ServiceWorkload(seed, sizes, scratch)
    return workload.trace() if traced else workload.measure(seconds)

