"""Typed experiment configuration: frozen dataclasses with JSON round-tripping.

An :class:`ExperimentConfig` names every interchangeable part of a PDSAT-style
experiment by its registry name — the cipher preset, the sub-problem solver,
the predictive-function minimiser and the execution backend — plus the shared
numeric knobs.  Configurations are immutable, compare by value, and round-trip
losslessly through ``to_dict()`` / ``from_dict()`` (and JSON), so an experiment
can be stored next to its results and replayed bit for bit::

    cfg = ExperimentConfig(
        instance=InstanceSpec(cipher="geffe-tiny", seed=1),
        minimizer=MinimizerSpec(name="tabu", max_evaluations=60),
        backend=BackendSpec(name="simulated-cluster", options={"cores": 8}),
    )
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.api.registry import get_cipher

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.predictive import PredictiveFunction
    from repro.problems.inversion import InversionInstance
    from repro.sat.formula import CNF
    from repro.sat.solver import Solver, SolverBudget


def _check_known_keys(cls: type, data: dict[str, Any]) -> None:
    """Reject keys that no field of ``cls`` accepts (catches config typos)."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys: {sorted(unknown)}; valid keys: {sorted(known)}"
        )


@dataclass(frozen=True)
class InstanceSpec:
    """Which keystream-inversion instance to build (by cipher-registry name)."""

    cipher: str = "geffe-tiny"
    seed: int = 0
    keystream_length: int | None = None
    known_bits: int = 0

    def build(self) -> "InversionInstance":
        """Materialise the instance through the cipher registry."""
        from repro.problems import make_inversion_instance

        generator = get_cipher(self.cipher)()
        return make_inversion_instance(
            generator,
            keystream_length=self.keystream_length,
            seed=self.seed,
            known_bits=self.known_bits,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "InstanceSpec":
        """Inverse of :meth:`to_dict` (unknown keys raise ``ValueError``)."""
        _check_known_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class SolverSpec:
    """Which sub-problem solver to use (by solver-registry name) and its options."""

    name: str = "cdcl"
    options: dict[str, Any] = field(default_factory=dict)

    def build(self) -> "Solver":
        """Instantiate a fresh solver through the solver registry."""
        from repro.api.registry import get_solver

        return get_solver(self.name)(**self.options)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SolverSpec":
        """Inverse of :meth:`to_dict`."""
        _check_known_keys(cls, data)
        return cls(name=data.get("name", "cdcl"), options=dict(data.get("options", {})))


@dataclass(frozen=True)
class MinimizerSpec:
    """Which metaheuristic minimises the predictive function, and its budget."""

    name: str = "tabu"
    max_evaluations: int | None = 60
    max_seconds: float | None = None
    options: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return {
            "name": self.name,
            "max_evaluations": self.max_evaluations,
            "max_seconds": self.max_seconds,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MinimizerSpec":
        """Inverse of :meth:`to_dict`."""
        _check_known_keys(cls, data)
        return cls(
            name=data.get("name", "tabu"),
            max_evaluations=data.get("max_evaluations", 60),
            max_seconds=data.get("max_seconds"),
            options=dict(data.get("options", {})),
        )


@dataclass(frozen=True)
class EstimatorSpec:
    """How the Monte Carlo predictive function evaluates decomposition sets.

    This is the typed front door of the batched estimation engine
    (:mod:`repro.core.predictive`): sample size, cost measure, the
    incremental-assumption solver engine, the sample-result LRU cache and the
    per-sample budget, all JSON-round-trippable.  ``incremental`` defaults to
    **on** at this layer — experiment runs care about relative ordering of
    decomposition sets, where the incremental engine's history-dependent (and
    much cheaper) cost counters are sufficient; construct
    :class:`~repro.core.predictive.PredictiveFunction` directly when the
    paper's fresh-solve cost semantics are required.
    """

    sample_size: int = 50
    cost_measure: str = "propagations"
    substitution_mode: str = "assumptions"
    #: Use the persistent incremental-assumption engine when the solver
    #: supports it (solvers without the contract fall back to fresh solves).
    incremental: bool = True
    #: Capacity of the (decomposition set, assignment) sample cache; 0/None off.
    sample_cache_size: int | None = 4096
    confidence_level: float = 0.95
    #: Per-sample solver budget; ``None`` means run every sample to completion.
    max_conflicts_per_sample: int | None = None
    max_seconds_per_sample: float | None = None
    #: Samples per ``solve_batch`` call, which loads the formula once and
    #: solves each row from a restored root snapshot.  ``1`` keeps the scalar
    #: loop.  Values > 1 force fresh-solve semantics (``incremental`` is
    #: ignored — ``solve_batch``'s contract *is* the paper's fresh ξ) and
    #: require a solver exposing ``solve_batch``; results are bit-identical
    #: to the scalar fresh path either way.
    batch_size: int = 1

    def budget(self) -> "SolverBudget | None":
        """The per-sample :class:`~repro.sat.solver.SolverBudget` (or ``None``)."""
        if self.max_conflicts_per_sample is None and self.max_seconds_per_sample is None:
            return None
        from repro.sat.solver import SolverBudget

        return SolverBudget(
            max_conflicts=self.max_conflicts_per_sample,
            max_seconds=self.max_seconds_per_sample,
        )

    def build(
        self,
        cnf: "CNF",
        solver: "Solver | None" = None,
        seed: int = 0,
    ) -> "PredictiveFunction":
        """Materialise the evaluator for ``cnf``.

        ``incremental=True`` silently downgrades to fresh solves when
        ``solver`` does not implement the incremental contract (or when
        ``substitution_mode`` is ``"units"``), so one spec works across every
        registered solver.  ``batch_size > 1`` likewise implies fresh solves
        (``solve_batch``'s contract) and downgrades to the scalar loop for
        solvers without ``solve_batch`` — that downgrade emits a
        ``RuntimeWarning`` and is recorded on the returned evaluator
        (``requested_batch_size`` vs ``batch_size``), so callers asking for
        batching learn they did not get it.
        """
        from repro.core.predictive import PredictiveFunction, supports_incremental_solving
        from repro.sat.cdcl import CDCLSolver

        solver = solver if solver is not None else CDCLSolver()
        batch_size = self.batch_size if hasattr(solver, "solve_batch") else 1
        if batch_size != self.batch_size:
            import warnings

            warnings.warn(
                f"batch_size={self.batch_size} requested but solver "
                f"{type(solver).__name__} has no solve_batch; falling back to "
                f"the scalar loop (batch_size=1)",
                RuntimeWarning,
                stacklevel=2,
            )
        evaluator = PredictiveFunction(
            cnf,
            solver=solver,
            sample_size=self.sample_size,
            cost_measure=self.cost_measure,
            seed=seed,
            substitution_mode=self.substitution_mode,
            subproblem_budget=self.budget(),
            confidence_level=self.confidence_level,
            incremental=(
                batch_size == 1
                and self.incremental
                and supports_incremental_solving(solver, self.substitution_mode)
            ),
            sample_cache_size=self.sample_cache_size,
            batch_size=batch_size,
        )
        evaluator.requested_batch_size = self.batch_size
        return evaluator

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EstimatorSpec":
        """Inverse of :meth:`to_dict` (unknown keys raise ``ValueError``)."""
        _check_known_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class PreprocessorSpec:
    """Which CNF preprocessor simplifies the instance, and its options.

    ``name`` is a preprocessor-registry name (``"satelite"``, ``"units-only"``
    or anything registered with
    :func:`repro.api.registry.register_preprocessor`); ``options`` are the
    factory's keyword arguments (for the built-ins:
    :class:`~repro.sat.simplify.PreprocessConfig` fields).  When an
    :class:`ExperimentConfig` carries a ``preprocessor`` spec, the orchestrator
    simplifies the instance CNF **once** — with the instance's start set
    frozen, so decomposition variables stay assumable — and runs both the
    estimating and the solving mode against the simplified formula; satisfying
    models are reconstructed over the original variables before state
    recovery.  Per-sample solver costs are then measured on the simplified
    formula (a different, cheaper ξ than the raw formula's — SAT/UNSAT
    outcomes are provably identical, see ``docs/preprocessing.md``).
    """

    name: str = "satelite"
    options: dict[str, Any] = field(default_factory=dict)

    def build(self):
        """Instantiate the preprocessor through the preprocessor registry."""
        from repro.api.registry import get_preprocessor

        return get_preprocessor(self.name)(**self.options)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PreprocessorSpec":
        """Inverse of :meth:`to_dict`."""
        _check_known_keys(cls, data)
        return cls(name=data.get("name", "satelite"), options=dict(data.get("options", {})))


@dataclass(frozen=True)
class SharingSpec:
    """Clause-sharing knobs for :meth:`repro.api.Experiment.portfolio`.

    When an :class:`ExperimentConfig` carries a ``sharing`` spec, the
    portfolio mode runs the deterministic clause-sharing race
    (:class:`~repro.portfolio.sharing.SharingPortfolioSolver`) instead of the
    isolated one: members are drawn from the ``portfolio`` registry preset,
    sliced in ``slice_budget`` cost-measure units per virtual round, and
    exchange learned clauses through the seeded bus under the
    ``max_lbd``/``max_size``/``per_round`` quality filters.  Every knob is
    JSON-round-trippable, so a sharing run replays bit for bit from its
    archived config.
    """

    #: Portfolio-registry preset naming the member configurations.
    portfolio: str = "default-8"
    #: Cost-measure units per member per virtual round.
    slice_budget: int = 4096
    #: Hard virtual-round cap (undecided races report UNKNOWN).
    max_rounds: int = 32
    #: Exchange quality filters (see :class:`~repro.portfolio.exchange.SharingPolicy`).
    max_lbd: int = 4
    max_size: int = 8
    per_round: int = 32
    #: Inprocess every member's database after this many rounds (0: never).
    inprocess_every: int = 0
    #: Seed of the exchange's deterministic import-order rotation.
    seed: int = 0
    #: Scheduler executor: ``"inline"``, ``"threads"`` or ``"simulated-grid"``.
    executor: str = "inline"
    #: Run through :func:`~repro.runner.scheduler.replay_serial` instead.
    replay: bool = False

    def build(self, cost_measure: str = "propagations", members: int | None = None):
        """Materialise the :class:`~repro.portfolio.sharing.SharingPortfolioSolver`.

        ``members`` truncates the registry preset's configuration list (the
        ``ExperimentConfig.members`` knob); ``cost_measure`` comes from the
        surrounding config so slices charge the experiment's measure.
        """
        from repro.api.registry import get_portfolio
        from repro.portfolio.exchange import SharingPolicy
        from repro.portfolio.sharing import SharingPortfolioSolver

        configurations = get_portfolio(self.portfolio)()
        if members is not None:
            configurations = configurations[:members] or configurations
        return SharingPortfolioSolver(
            configurations,
            cost_measure=cost_measure,
            slice_budget=self.slice_budget,
            max_rounds=self.max_rounds,
            policy=SharingPolicy(
                max_lbd=self.max_lbd, max_size=self.max_size, per_round=self.per_round
            ),
            inprocess_every=self.inprocess_every,
            seed=self.seed,
            executor=self.executor,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SharingSpec":
        """Inverse of :meth:`to_dict` (unknown keys raise ``ValueError``)."""
        _check_known_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class BackendSpec:
    """Which execution backend processes sub-problem families, and its options."""

    name: str = "serial"
    options: dict[str, Any] = field(default_factory=dict)

    def build(self):
        """Instantiate the backend through the backend registry."""
        from repro.api.registry import get_backend

        return get_backend(self.name)(**self.options)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BackendSpec":
        """Inverse of :meth:`to_dict`."""
        _check_known_keys(cls, data)
        return cls(name=data.get("name", "serial"), options=dict(data.get("options", {})))


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete, replayable description of one PDSAT-style experiment.

    The four specs name the interchangeable parts; the remaining fields are the
    orchestration knobs shared by the estimating and solving modes plus the
    parameters of the ``partition`` and ``portfolio`` baselines.
    """

    instance: InstanceSpec = field(default_factory=InstanceSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    minimizer: MinimizerSpec = field(default_factory=MinimizerSpec)
    backend: BackendSpec = field(default_factory=BackendSpec)
    #: Full estimation-engine configuration; ``None`` derives one from the
    #: legacy ``sample_size`` / ``cost_measure`` fields (incremental engine on).
    estimator: EstimatorSpec | None = None
    #: Optional CNF preprocessing applied once to the instance before the
    #: estimating/solving modes (``None``: solve the raw encoding).
    preprocessor: PreprocessorSpec | None = None
    #: ``N``, the random-sample size per predictive-function evaluation.
    #: When ``estimator`` is given this is normalised to its ``sample_size``
    #: so serialised configs never carry contradictory values.
    sample_size: int = 50
    #: Cost measure (cost-measure registry name); normalised from
    #: ``estimator`` the same way.
    cost_measure: str = "propagations"
    #: Seed of the sampling RNG and the metaheuristics.
    seed: int = 0
    #: Explicit decomposition set for the solving mode (``None``: estimate one).
    decomposition: tuple[int, ...] | None = None
    #: Truncate an estimated decomposition to this many variables.
    decomposition_size: int | None = None
    #: Stop the solving mode at the first satisfiable sub-problem.
    stop_on_sat: bool = False
    #: Refuse decomposition families larger than ``2^max_family_bits``.
    max_family_bits: int = 16
    #: Scheduler checkpoint file for the solving mode: progress is streamed to
    #: this JSON file and an existing file is resumed from (sub-problems it
    #: already contains are not re-solved).  ``None`` disables checkpointing.
    checkpoint_path: str | None = None
    #: Binary event-trace file for the solving mode (:mod:`repro.trace`): the
    #: scheduler's task lifecycle is recorded here, next to the checkpoint.
    #: ``None`` disables tracing (the zero-overhead default).
    trace: str | None = None
    #: Partitioning technique for :meth:`repro.api.Experiment.partition`.
    technique: str = "guiding-path"
    #: Target part count for the partitioning baseline.
    parts: int = 8
    #: Member count for :meth:`repro.api.Experiment.portfolio`.
    members: int = 8
    #: Clause-sharing knobs for the portfolio mode (``None``: race isolated
    #: members, the historical behaviour).
    sharing: SharingSpec | None = None

    def __post_init__(self) -> None:
        if self.decomposition is not None and not isinstance(self.decomposition, tuple):
            # Normalise lists/iterables so value equality matches round-trips.
            object.__setattr__(self, "decomposition", tuple(int(v) for v in self.decomposition))
        if self.estimator is not None:
            # The estimator spec is authoritative; mirror its values into the
            # legacy fields so archived configs never disagree with the run.
            object.__setattr__(self, "sample_size", self.estimator.sample_size)
            object.__setattr__(self, "cost_measure", self.estimator.cost_measure)

    def effective_estimator(self) -> EstimatorSpec:
        """The estimator spec actually used: ``estimator`` or a legacy-derived one.

        When ``estimator`` is ``None`` the spec is derived from the top-level
        ``sample_size`` / ``cost_measure`` knobs (every other estimator field
        at its default); an explicit ``estimator`` takes precedence over both.
        """
        if self.estimator is not None:
            return self.estimator
        return EstimatorSpec(sample_size=self.sample_size, cost_measure=self.cost_measure)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        return {
            "instance": self.instance.to_dict(),
            "solver": self.solver.to_dict(),
            "minimizer": self.minimizer.to_dict(),
            "backend": self.backend.to_dict(),
            "estimator": self.estimator.to_dict() if self.estimator is not None else None,
            "preprocessor": (
                self.preprocessor.to_dict() if self.preprocessor is not None else None
            ),
            "sample_size": self.sample_size,
            "cost_measure": self.cost_measure,
            "seed": self.seed,
            "decomposition": list(self.decomposition) if self.decomposition is not None else None,
            "decomposition_size": self.decomposition_size,
            "stop_on_sat": self.stop_on_sat,
            "max_family_bits": self.max_family_bits,
            "checkpoint_path": self.checkpoint_path,
            "trace": self.trace,
            "technique": self.technique,
            "parts": self.parts,
            "members": self.members,
            "sharing": self.sharing.to_dict() if self.sharing is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        """Build a config from a plain dict (unknown keys raise ``ValueError``)."""
        _check_known_keys(cls, data)
        decomposition = data.get("decomposition")
        estimator = data.get("estimator")
        preprocessor = data.get("preprocessor")
        sharing = data.get("sharing")
        return cls(
            instance=InstanceSpec.from_dict(dict(data.get("instance", {}))),
            solver=SolverSpec.from_dict(dict(data.get("solver", {}))),
            minimizer=MinimizerSpec.from_dict(dict(data.get("minimizer", {}))),
            backend=BackendSpec.from_dict(dict(data.get("backend", {}))),
            estimator=(
                EstimatorSpec.from_dict(dict(estimator)) if estimator is not None else None
            ),
            preprocessor=(
                PreprocessorSpec.from_dict(dict(preprocessor))
                if preprocessor is not None
                else None
            ),
            sample_size=data.get("sample_size", 50),
            cost_measure=data.get("cost_measure", "propagations"),
            seed=data.get("seed", 0),
            decomposition=(
                tuple(int(v) for v in decomposition) if decomposition is not None else None
            ),
            decomposition_size=data.get("decomposition_size"),
            stop_on_sat=data.get("stop_on_sat", False),
            max_family_bits=data.get("max_family_bits", 16),
            checkpoint_path=data.get("checkpoint_path"),
            trace=data.get("trace"),
            technique=data.get("technique", "guiding-path"),
            parts=data.get("parts", 8),
            members=data.get("members", 8),
            sharing=SharingSpec.from_dict(dict(sharing)) if sharing is not None else None,
        )

    def to_json(self, indent: int = 2) -> str:
        """Serialise to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a JSON document produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "ExperimentConfig":
        """A copy with the given fields replaced (convenience for sweeps)."""
        return dataclasses.replace(self, **changes)
