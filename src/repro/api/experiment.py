"""The :class:`Experiment` facade — one front door for every mode of the library.

An :class:`Experiment` wraps an :class:`~repro.api.specs.ExperimentConfig` and
exposes PDSAT's modes plus the baselines the paper compares against:

* :meth:`Experiment.estimate`  — estimating mode (predictive-function search);
* :meth:`Experiment.solve`     — solving mode (process a decomposition family
  through the configured execution backend);
* :meth:`Experiment.run`       — estimate-then-solve end to end;
* :meth:`Experiment.partition` — a classical partitioning baseline;
* :meth:`Experiment.portfolio` — the diversified-portfolio baseline.

Every method returns a JSON-serialisable :class:`ExperimentResult` so runs can
be archived next to their configuration.  Progress callbacks receive
:class:`ProgressEvent` records as phases start, advance and finish::

    from repro.api import Experiment, ExperimentConfig

    cfg = ExperimentConfig.from_json(open("exp.json").read())
    result = Experiment.from_config(cfg, progress=print).run()
    print(result.to_json())
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api.backends import ProcessPoolBackend
from repro.api.registry import get_partitioner
from repro.api.specs import ExperimentConfig, SolverSpec
from repro.core.decomposition import DecompositionSet
from repro.core.optimizer import StoppingCriteria
from repro.core.pdsat import PDSAT, EstimationReport
from repro.sat.solver import SolverStatus


def experiment_fingerprint(
    config: ExperimentConfig, decomposition: Sequence[int] | None = None
) -> dict[str, Any]:
    """The identity of an experiment's solve, as stamped into checkpoints.

    A checkpoint (and, via the service layer, a cached result) may only be
    reused by a run that would recompute the exact same per-sub-problem
    outcomes.  The fingerprint therefore records everything that shapes those
    outcomes: the instance encoding, the decomposition set, the cost measure,
    and — conditionally, mirroring the ``preprocessor`` pattern so historical
    checkpoints stay resumable — the preprocessor and solver specs.

    The ``solver`` key is written only for non-default solver specs: solvers
    with different names or options report incomparable per-sub-problem
    costs, so a checkpoint written under one spec must not silently resume
    under another.  Default-spec checkpoints from before this key existed
    keep resuming under the default spec unchanged.
    """
    fingerprint: dict[str, Any] = {
        "instance": config.instance.to_dict(),
        "decomposition": sorted(decomposition) if decomposition is not None else None,
        "cost_measure": config.cost_measure,
    }
    if config.preprocessor is not None:
        # Preprocessing changes per-sub-problem costs, so a checkpoint
        # written by a preprocessed run must not resume a raw run (or
        # vice versa).  The key is added conditionally to keep
        # checkpoints from pre-preprocessor runs resumable.
        fingerprint["preprocessor"] = config.preprocessor.to_dict()
    if config.solver.to_dict() != SolverSpec().to_dict():
        # Same conditional pattern: the engines' cost scales differ, so a
        # non-default solver spec is part of the experiment's identity.
        fingerprint["solver"] = config.solver.to_dict()
    estimator = config.effective_estimator()
    if estimator.budget() is not None:
        # A per-sub-problem solver budget changes outcomes (capped solves
        # may return UNKNOWN), so a capped run's checkpoint must never
        # resume an uncapped one or vice versa.  Conditional like the keys
        # above, so historical unbudgeted checkpoints stay resumable.
        fingerprint["subproblem_budget"] = {
            "max_conflicts": estimator.max_conflicts_per_sample,
            "max_seconds": estimator.max_seconds_per_sample,
        }
    return fingerprint


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification: a phase started, advanced or finished."""

    phase: str
    completed: int = 0
    total: int | None = None
    message: str = ""

    def __str__(self) -> str:
        suffix = f" [{self.completed}/{self.total}]" if self.total else ""
        return f"{self.phase}{suffix} {self.message}".rstrip()


#: Progress callback signature used across the facade.
ProgressCallback = Callable[[ProgressEvent], None]


@dataclass
class ExperimentResult:
    """A JSON-serialisable record of one facade call."""

    kind: str
    config: dict[str, Any]
    status: str
    summary: str
    data: dict[str, Any] = field(default_factory=dict)
    wall_time: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict representation (JSON-serialisable by construction)."""
        return {
            "kind": self.kind,
            "config": self.config,
            "status": self.status,
            "summary": self.summary,
            "data": self.data,
            "wall_time": self.wall_time,
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialise the result to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)


class Experiment:
    """Facade over the registries, the PDSAT orchestrator and the backends.

    Parameters
    ----------
    config:
        The complete experiment description.
    progress:
        Optional callback receiving :class:`ProgressEvent` records.
    """

    def __init__(self, config: ExperimentConfig | None = None, progress: ProgressCallback | None = None):
        self.config = config or ExperimentConfig()
        self.progress = progress
        self._instance = None
        self._pdsat: PDSAT | None = None

    # ------------------------------------------------------------- constructors
    @classmethod
    def from_config(
        cls, config: ExperimentConfig, progress: ProgressCallback | None = None
    ) -> "Experiment":
        """Build an experiment from a typed config (the canonical entry point)."""
        return cls(config, progress=progress)

    @classmethod
    def from_dict(
        cls, data: dict[str, Any], progress: ProgressCallback | None = None
    ) -> "Experiment":
        """Build an experiment from a plain config dict."""
        return cls(ExperimentConfig.from_dict(data), progress=progress)

    @classmethod
    def from_file(
        cls, path: str | Path, progress: ProgressCallback | None = None
    ) -> "Experiment":
        """Build an experiment from a JSON config file."""
        return cls(ExperimentConfig.from_json(Path(path).read_text()), progress=progress)

    # ------------------------------------------------------------------ helpers
    @property
    def instance(self):
        """The materialised inversion instance (built once, cached)."""
        if self._instance is None:
            self._instance = self.config.instance.build()
        return self._instance

    @property
    def pdsat(self) -> PDSAT:
        """The PDSAT orchestrator configured from the specs (built once, cached)."""
        if self._pdsat is None:
            self._pdsat = PDSAT(
                self.instance,
                solver=self.config.solver,
                seed=self.config.seed,
                estimator=self.config.effective_estimator(),
                preprocessor=(
                    self.config.preprocessor.build()
                    if self.config.preprocessor is not None
                    else None
                ),
                # An explicitly configured decomposition may name variables
                # outside the start set; preprocessing must not touch them.
                frozen_variables=self.config.decomposition,
            )
        return self._pdsat

    def _emit(self, phase: str, completed: int = 0, total: int | None = None, message: str = "") -> None:
        if self.progress is not None:
            self.progress(ProgressEvent(phase=phase, completed=completed, total=total, message=message))

    @contextmanager
    def _backend(self, estimates: bool) -> Iterator[Any]:
        """This call's execution backend, holding the call's process pool when it estimates.

        A call that estimates on a ``process-pool`` backend with a batched
        evaluator opens the backend's pool (:meth:`ProcessPoolBackend.pool`)
        here, inside the call, and lends it to the evaluator: each
        evaluation's cache misses are then solved in one share per process,
        the leader's included.  The family runs on the same pool and closes
        it when it is done; on any other exit the pool closes here, and the
        evaluator solves in this process again.
        """
        backend = self.config.backend.build()
        evaluator = self.pdsat.evaluator if estimates else None
        if evaluator is None or evaluator.batch_size == 1 or not isinstance(
            backend, ProcessPoolBackend
        ):
            yield backend
            return
        pdsat = self.pdsat
        with backend.pool(
            pdsat.cnf, pdsat.solver, pdsat.cost_measure, pdsat.subproblem_budget
        ) as pool:
            evaluator.pool = pool
            try:
                yield backend
            finally:
                evaluator.pool = None

    # ----------------------------------------------------------- estimating mode
    def estimate(self) -> ExperimentResult:
        """Run the estimating mode with the configured minimiser."""
        cfg = self.config
        self._emit("estimate", message=f"minimizing F with {cfg.minimizer.name}")
        started = time.perf_counter()
        with self._backend(estimates=True):
            report = self._estimate_report()
        self._emit(
            "estimate",
            completed=report.minimization.num_evaluations,
            total=cfg.minimizer.max_evaluations,
            message="done",
        )
        return ExperimentResult(
            kind="estimate",
            config=cfg.to_dict(),
            status="OK",
            summary=report.summary(),
            data=self._estimation_data(report),
            wall_time=time.perf_counter() - started,
        )

    def _estimate_report(self) -> EstimationReport:
        cfg = self.config
        probe = None
        if self.progress is not None:
            total = cfg.minimizer.max_evaluations

            def probe(evaluations: int, subproblem_solves: int) -> None:
                # One event per minimiser iteration: this is what makes a
                # long estimate cancellable/interruptible mid-run (the
                # service daemon's control flags are raised from here).
                self._emit(
                    "estimate",
                    completed=evaluations,
                    total=total,
                    message=f"{subproblem_solves} sub-problem solves",
                )

        stopping = StoppingCriteria(
            max_evaluations=cfg.minimizer.max_evaluations,
            max_seconds=cfg.minimizer.max_seconds,
            probe=probe,
        )
        return self.pdsat.estimate(
            method=cfg.minimizer.name, stopping=stopping, **cfg.minimizer.options
        )

    def _estimation_data(self, report: EstimationReport) -> dict[str, Any]:
        data = {
            "method": report.method,
            "best_decomposition": list(report.best_decomposition),
            "best_value": report.best_value,
            "cost_measure": report.cost_measure,
            "sample_size": report.sample_size,
            "num_evaluations": report.minimization.num_evaluations,
            "num_subproblem_solves": report.minimization.num_subproblem_solves,
            "stop_reason": report.minimization.stop_reason,
        }
        evaluator = self.pdsat.evaluator
        requested = getattr(evaluator, "requested_batch_size", None)
        if requested is not None and requested != evaluator.batch_size:
            # EstimatorSpec.build downgraded batching (solver lacks
            # solve_batch); record it so service clients and archived results
            # show what actually ran, not just what was asked for.
            data["batch_size"] = evaluator.batch_size
            data["requested_batch_size"] = requested
            data["batching_downgraded"] = True
        return data

    # -------------------------------------------------------------- solving mode
    def solve(self, decomposition: Sequence[int] | None = None) -> ExperimentResult:
        """Run the solving mode, dispatching the family through the backend.

        ``decomposition`` overrides the configured one; when neither is given
        the estimating mode is run first (see :meth:`run` for the combined
        record of that flow).
        """
        started = time.perf_counter()
        estimation: EstimationReport | None = None
        if decomposition is None:
            decomposition = self.config.decomposition
        with self._backend(estimates=decomposition is None) as backend:
            if decomposition is None:
                estimation = self._estimate_report()
                decomposition = self._truncated(estimation.best_decomposition)
            solve_data, status, summary = self._solve_family(list(decomposition), backend)
        if estimation is not None:
            solve_data["estimate"] = self._estimation_data(estimation)
        return ExperimentResult(
            kind="solve",
            config=self.config.to_dict(),
            status=status,
            summary=summary,
            data=solve_data,
            wall_time=time.perf_counter() - started,
        )

    def run(self) -> ExperimentResult:
        """Estimate-then-solve end to end (the ``repro-sat run`` flow)."""
        cfg = self.config
        started = time.perf_counter()
        with self._backend(estimates=cfg.decomposition is None) as backend:
            if cfg.decomposition is not None:
                estimation = None
                decomposition = list(cfg.decomposition)
            else:
                estimation = self._estimate_report()
                self._emit("estimate", message=estimation.summary())
                decomposition = self._truncated(estimation.best_decomposition)
            solve_data, status, summary = self._solve_family(decomposition, backend)
        data: dict[str, Any] = {
            "estimate": self._estimation_data(estimation) if estimation is not None else None,
            "solve": solve_data,
        }
        return ExperimentResult(
            kind="run",
            config=cfg.to_dict(),
            status=status,
            summary=summary,
            data=data,
            wall_time=time.perf_counter() - started,
        )

    def _truncated(self, decomposition: list[int]) -> list[int]:
        size = self.config.decomposition_size
        if size is not None and len(decomposition) > size:
            return decomposition[:size]
        return decomposition

    def _solve_family(
        self, decomposition: list[int], backend
    ) -> tuple[dict[str, Any], str, str]:
        """Solve the family through :meth:`PDSAT.solve_family` on this call's backend,
        adding the config's family-size guard, checkpoint and trace files and events."""
        cfg = self.config
        if len(decomposition) > cfg.max_family_bits:
            raise ValueError(
                f"decomposition of size {len(decomposition)} would create "
                f"2^{len(decomposition)} sub-problems; raise max_family_bits to allow it"
            )
        dec = DecompositionSet.of(decomposition)
        total = dec.num_subproblems
        pdsat = self.pdsat  # the encoding (and preprocessing) precede the first event
        self._emit("solve", total=total, message=f"backend {cfg.backend.name}")
        options: dict[str, Any] = {}
        resumed = 0
        if cfg.checkpoint_path is not None:
            from repro.runner.scheduler import SchedulerCheckpoint

            # The fingerprint ties a checkpoint file to this exact experiment:
            # resuming another experiment's file would silently report its
            # results as ours (task ids are merely positional).
            fingerprint = experiment_fingerprint(cfg, dec.variables)
            path = Path(cfg.checkpoint_path)
            if path.exists():
                # A truncated/garbled file (the writer was killed mid-write)
                # reads as "no checkpoint": it is quarantined to
                # <name>.corrupt and the solve starts fresh.  A *valid* file
                # from a different experiment still fails loudly below.
                checkpoint = SchedulerCheckpoint.load_or_quarantine(path)
                if checkpoint is None:
                    self._emit(
                        "solve",
                        total=total,
                        message=f"checkpoint {path} was corrupt; quarantined, starting fresh",
                    )
                else:
                    stored = checkpoint.metadata.get("experiment")
                    if stored is not None and stored != fingerprint:
                        raise ValueError(
                            f"checkpoint {path} belongs to a different experiment "
                            f"({stored}); delete it or point --resume elsewhere"
                        )
                    resumed = len(checkpoint)
                    options["checkpoint"] = checkpoint
                    self._emit(
                        "solve",
                        completed=resumed,
                        total=total,
                        message=f"resumed {resumed} sub-problems from {path}",
                    )

            def save_checkpoint(chk, _path=path, _stamp=fingerprint):
                chk.metadata["experiment"] = _stamp
                chk.save(_path)

            options["checkpoint_sink"] = save_checkpoint
            # Bound checkpoint I/O on huge families: a full snapshot is
            # rewritten at most ~256 times per run (and once at the end).
            options["checkpoint_every"] = max(1, total // 256)
        if cfg.trace is not None:
            from repro.trace import TraceWriter, cnf_fingerprint

            options["trace"] = TraceWriter(
                cfg.trace,
                kind="experiment-solve",
                fingerprint=cnf_fingerprint(pdsat.cnf),
                config={
                    "instance": cfg.instance.to_dict(),
                    "decomposition": sorted(dec.variables),
                    "cost_measure": cfg.cost_measure,
                    "backend": cfg.backend.name,
                },
            )
        try:
            report = pdsat.solve_family(
                dec,
                stop_on_sat=cfg.stop_on_sat,
                max_subproblems=1 << cfg.max_family_bits,
                backend=backend,
                progress=lambda completed, total: self._emit("solve", completed, total),
                **options,
            )
        finally:
            # Close also on failure, so a crashed run leaves a readable trace.
            if "trace" in options:
                options["trace"].close()
        if report.num_sat > 0:
            status = "SAT"
        elif len(report.statuses) == total and all(
            each is SolverStatus.UNSAT for each in report.statuses
        ):
            status = "UNSAT"
        else:
            status = "UNKNOWN"
        summary = (
            f"[{self.instance.name}] {cfg.backend.name}: solved {len(report.costs)} "
            f"sub-problems, {report.num_sat} SAT, total cost {report.total_cost:.4g} "
            f"({report.cost_measure})"
        )
        data = {
            "decomposition": sorted(dec.variables),
            "num_subproblems": total,
            "num_processed": len(report.costs),
            "statuses": [each.value for each in report.statuses],
            "costs": report.costs,
            "total_cost": report.total_cost,
            "num_sat": report.num_sat,
            "backend": cfg.backend.name,
            "backend_metadata": report.metadata,
            "recovered_state": self._recover_state(report.satisfying_models),
            "wall_time": report.wall_time,
            "checkpoint_path": cfg.checkpoint_path,
            "resumed_subproblems": resumed,
            "trace_path": cfg.trace,
        }
        return data, status, summary

    def _recover_state(self, models: list[dict[int, bool]]) -> str | None:
        """The first state a SAT model (over the original variables) yields that verifies."""
        for model in models:
            state = self.instance.state_from_model(model)
            if self.instance.verify_state(state):
                return "".join(str(bit) for bit in state)
        return None

    # ----------------------------------------------------------------- baselines
    def partition(self, solve_parts: bool = False) -> ExperimentResult:
        """Build a classical partitioning of the instance (optionally solve it)."""
        cfg = self.config
        started = time.perf_counter()
        factory = get_partitioner(cfg.technique)
        partitioning = factory(self.instance.cnf, cfg.parts)
        self._emit("partition", total=len(partitioning), message=cfg.technique)
        part_sizes = (
            partitioning.cube_lengths
            if hasattr(partitioning, "cube_lengths")
            else partitioning.slice_sizes  # scattering reports slice sizes instead
        )
        data: dict[str, Any] = {
            "technique": cfg.technique,
            "num_cubes": len(partitioning),
            "part_sizes": part_sizes,
        }
        status = "OK"
        if solve_parts:
            report = partitioning.solve_all(
                cfg.solver.build(), cost_measure=cfg.cost_measure
            )
            data.update(
                {
                    "costs": report.costs,
                    "total_cost": report.total_cost,
                    "num_sat": report.num_sat,
                    "imbalance": report.imbalance,
                    "statuses": [s.value for s in report.statuses],
                }
            )
            status = "SAT" if report.num_sat > 0 else "UNSAT"
        return ExperimentResult(
            kind="partition",
            config=cfg.to_dict(),
            status=status,
            summary=partitioning.summary(),
            data=data,
            wall_time=time.perf_counter() - started,
        )

    def portfolio(self) -> ExperimentResult:
        """Race the diversified CDCL portfolio on the instance.

        With ``config.sharing`` set, the race runs the deterministic
        clause-sharing portfolio (:mod:`repro.portfolio.sharing`) instead of
        isolated members: the result metadata then carries the per-member
        export/import counters, the decision round and the exchange log size,
        and ``config.trace`` records the driver's TASK-level events (virtual
        times, counter-encoded outcomes) for byte-identical replay.
        """
        from repro.portfolio import PortfolioSolver, default_portfolio

        cfg = self.config
        started = time.perf_counter()
        if cfg.sharing is not None:
            solver = cfg.sharing.build(cost_measure=cfg.cost_measure, members=cfg.members)
            self._emit("portfolio", total=len(solver.configurations))
            trace_writer = None
            if cfg.trace is not None:
                from repro.trace import TraceWriter, cnf_fingerprint

                trace_writer = TraceWriter(
                    cfg.trace,
                    kind="portfolio-sharing",
                    fingerprint=cnf_fingerprint(self.instance.cnf),
                    config=cfg.sharing.to_dict(),
                )
            try:
                result = solver.solve(
                    self.instance.cnf, replay=cfg.sharing.replay, trace=trace_writer
                )
            finally:
                if trace_writer is not None:
                    trace_writer.close()
            data = {
                "members": [
                    {
                        "name": run.configuration.name,
                        "status": run.result.status.value,
                        "cost": run.cost,
                        "rounds": run.rounds,
                        "decided_round": run.decided_round,
                        "exported": run.exported,
                        "imported": run.imported,
                        "imported_added": run.imported_added,
                        "inprocessings": run.inprocessings,
                    }
                    for run in result.runs
                ],
                "virtual_parallel_cost": result.virtual_parallel_cost,
                "total_work": result.total_work,
                "winner": result.winner.configuration.name if result.winner else None,
                "rounds_executed": result.rounds_executed,
                "decided_round": result.decided_round,
                "exported": result.total_exported,
                "imported": result.total_imported,
                "exchange_log_entries": len(result.exchange_log),
                "executor": result.executor,
                "trace_path": cfg.trace,
            }
            return ExperimentResult(
                kind="portfolio-sharing",
                config=cfg.to_dict(),
                status=result.status.value,
                summary=result.summary(),
                data=data,
                wall_time=time.perf_counter() - started,
            )
        members = default_portfolio()[: cfg.members]
        self._emit("portfolio", total=len(members))
        result = PortfolioSolver(members, cost_measure=cfg.cost_measure).solve(
            self.instance.cnf
        )
        data = {
            "members": [
                {
                    "name": run.configuration.name,
                    "status": run.result.status.value,
                    "cost": run.cost,
                }
                for run in result.runs
            ],
            "virtual_parallel_cost": result.virtual_parallel_cost,
            "total_work": result.total_work,
            "winner": result.winner.configuration.name if result.winner else None,
        }
        return ExperimentResult(
            kind="portfolio",
            config=cfg.to_dict(),
            status=result.status.value,
            summary=result.summary(),
            data=data,
            wall_time=time.perf_counter() - started,
        )
