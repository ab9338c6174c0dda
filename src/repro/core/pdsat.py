"""PDSAT-style orchestration: estimating mode and solving mode.

The original PDSAT is an MPI program with one leader process and many computing
processes.  It has two modes:

* **estimating mode** — the leader walks the search space (simulated annealing
  or tabu search), builds a random sample for every visited point and farms the
  sampled sub-problems out to the computing processes; the result is a
  decomposition set ``X̃_best`` and its predicted total solving time ``F_best``;
* **solving mode** — for a chosen ``X̃_best`` all ``2^d`` assignments are
  generated and all corresponding sub-problems are solved (optionally stopping
  early when a satisfying assignment is found; the paper kept going to collect
  statistics).

The :class:`PDSAT` facade reproduces both modes on top of the library's
machinery, each through one loop: the estimating mode's samples through the
sample loop of :class:`~repro.core.predictive.PredictiveFunction`, the
solving mode's family through an :class:`~repro.api.backends.ExecutionBackend`
(in-process by default, or a real process pool), and cluster-scale
wall-clock numbers are produced by the makespan simulation of
:mod:`repro.runner.cluster`.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.api.backends import SerialBackend
from repro.api.registry import get_minimizer
from repro.api.specs import SolverSpec
from repro.core.annealing import AnnealingConfig
from repro.core.decomposition import DecompositionSet
from repro.core.genetic import GeneticConfig
from repro.core.hillclimb import HillClimbConfig
from repro.core.optimizer import MinimizationResult, StoppingCriteria
from repro.core.predictive import PredictiveFunction
from repro.core.search_space import SearchSpace
from repro.core.tabu import TabuConfig
from repro.problems.inversion import InversionInstance
from repro.runner.cluster import ClusterSimulation, simulate_makespan
from repro.sat.solver import SolverBudget, SolverStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.specs import EstimatorSpec


@dataclass
class EstimationReport:
    """Result of the estimating mode."""

    instance_name: str
    method: str
    best_decomposition: list[int]
    best_value: float
    cost_measure: str
    sample_size: int
    minimization: MinimizationResult

    def predicted_on_cores(self, cores: int) -> float:
        """Idealised prediction for a ``cores``-worker cluster."""
        return self.best_value / cores

    def summary(self) -> str:
        """Human-readable report."""
        return (
            f"[{self.instance_name}] {self.method}: F_best = {self.best_value:.4g} "
            f"({self.cost_measure}), |X̃_best| = {len(self.best_decomposition)}, "
            f"{self.minimization.num_evaluations} points evaluated"
        )


@dataclass
class SolvingReport:
    """Result of the solving mode (processing a whole decomposition family)."""

    instance_name: str
    decomposition: list[int]
    statuses: list[SolverStatus] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    cost_measure: str = "propagations"
    satisfying_models: list[dict[int, bool]] = field(default_factory=list)
    first_sat_index: int | None = None
    stopped_early: bool = False
    wall_time: float = 0.0
    #: What the execution backend reported about the run (its scheduler
    #: counters and backend-specific keys).
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        """Total sequential cost of the processed sub-problems (1 core)."""
        return sum(self.costs)

    @property
    def cost_to_first_solution(self) -> float:
        """Sequential cost spent up to and including the first SAT sub-problem."""
        if self.first_sat_index is None:
            return self.total_cost
        return sum(self.costs[: self.first_sat_index + 1])

    @property
    def num_sat(self) -> int:
        """Number of satisfiable sub-problems found."""
        return sum(1 for status in self.statuses if status is SolverStatus.SAT)

    def makespan_on_cores(self, cores: int, scheduler: str = "dynamic") -> ClusterSimulation:
        """Makespan of the processed family on a simulated ``cores``-worker cluster."""
        return simulate_makespan(self.costs, cores, scheduler=scheduler)

    def summary(self) -> str:
        """Human-readable report."""
        return (
            f"[{self.instance_name}] solved {len(self.costs)} sub-problems, "
            f"{self.num_sat} SAT, total cost {self.total_cost:.4g} ({self.cost_measure})"
        )


def _check_run_keywords(backend, keywords: dict[str, Any]) -> None:
    """Refuse a backend whose ``run`` would have to drop a keyword it is given."""
    parameters = inspect.signature(backend.run).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return
    missing = ", ".join(key for key in keywords if key not in parameters)
    if missing:
        name = getattr(backend, "name", type(backend).__name__)
        raise ValueError(
            f"backend {name!r} does not accept the keyword(s) {missing}; "
            f"drop those options or use a built-in backend"
        )


class PDSAT:
    """Single-machine reproduction of the PDSAT leader/worker program.

    Parameters
    ----------
    instance:
        The inversion instance (or any CNF wrapped in one) to work on.
    solver:
        :class:`~repro.api.specs.SolverSpec` of the complete deterministic
        solver used for every sub-problem (default ``SolverSpec()``).  The
        evaluator gets an instance built from it; the solving mode hands the
        spec to the execution backend, which builds its own.
    sample_size:
        ``N``, the random-sample size per predictive-function evaluation.
    cost_measure:
        Cost measure of the predictive function (see
        :class:`~repro.core.predictive.PredictiveFunction`).
    seed:
        Seed for sampling and the metaheuristics.
    estimator:
        Optional :class:`~repro.api.specs.EstimatorSpec` configuring the full
        batched estimation engine (incremental solving, sample cache,
        per-sample budgets).  When given it overrides ``sample_size``,
        ``cost_measure`` and ``subproblem_budget``.
    preprocessor:
        Optional :class:`~repro.sat.simplify.Preprocessor` applied **once** to
        the instance CNF before anything else runs, with the whole start set
        (plus ``frozen_variables``) frozen, so every decomposition candidate
        stays assumable.  Both modes then work on the simplified formula
        (``self.cnf``); satisfying models are reconstructed over the original
        variables before they are reported or used for state recovery.
        ``self.presolve`` holds the
        :class:`~repro.sat.simplify.PreprocessResult`.
    frozen_variables:
        Extra variables (beyond the start set) that later calls will use as
        decomposition/assumption candidates — anything preprocessing must not
        touch.  Decomposition variables outside the frozen set that
        preprocessing eliminated or fixed raise a clean :class:`ValueError`
        instead of silently flipping sub-problem answers.
    """

    def __init__(
        self,
        instance: InversionInstance,
        solver: SolverSpec | None = None,
        sample_size: int = 100,
        cost_measure: str = "propagations",
        seed: int = 0,
        subproblem_budget: SolverBudget | None = None,
        estimator: "EstimatorSpec | None" = None,
        preprocessor=None,
        frozen_variables=None,
    ):
        self.instance = instance
        self.solver = solver if solver is not None else SolverSpec()
        self.seed = seed
        self.preprocessor = preprocessor
        self.presolve = None
        frozen = frozenset(instance.start_set) | frozenset(frozen_variables or ())
        cnf = instance.cnf
        if preprocessor is not None:
            self.presolve = preprocessor.preprocess(cnf, frozen=frozen)
            cnf = self.presolve.cnf
        #: The working formula of both modes: the instance CNF, simplified
        #: when a preprocessor was given (same variable numbering either way).
        self.cnf = cnf
        frozen_variables = sorted(frozen)
        if estimator is not None:
            self.sample_size = estimator.sample_size
            self.cost_measure = estimator.cost_measure
            self.subproblem_budget = estimator.budget()
            self.evaluator = estimator.build(
                self.cnf, solver=self.solver.build(), seed=seed, frozen_variables=frozen_variables
            )
        else:
            self.sample_size = sample_size
            self.cost_measure = cost_measure
            self.subproblem_budget = subproblem_budget
            self.evaluator = PredictiveFunction(
                cnf=self.cnf,
                solver=self.solver.build(),
                sample_size=sample_size,
                cost_measure=cost_measure,
                seed=seed,
                subproblem_budget=subproblem_budget,
                frozen_variables=frozen_variables,
            )
        base_vars = instance.free_start_variables or instance.start_set
        self.search_space = SearchSpace(base_vars)

    def _reconstructed(self, model: dict[int, bool]) -> dict[int, bool]:
        """Map a model of the working CNF back over the original variables."""
        if self.presolve is not None:
            return self.presolve.reconstruct(model)
        return model

    def ensure_assumable(self, variables) -> None:
        """Guard: preprocessing must not have touched assumption candidates.

        Assumptions are sound on every variable still present in the
        simplified formula, but a variable *eliminated* by preprocessing (its
        clauses were resolved away) or *fixed* outside the frozen set (its
        clauses were dropped) would make sub-problems trivially satisfiable —
        a silent wrong answer.  Raise the one clean error instead.
        """
        if self.presolve is None:
            return
        bad = sorted(set(variables) & self.presolve.unassumable_variables)
        if bad:
            raise ValueError(
                f"decomposition variables {bad} were eliminated or fixed by "
                f"preprocessing; pass them via frozen_variables (or the "
                f"config's decomposition) when constructing PDSAT"
            )

    # ------------------------------------------------------------ estimating mode
    def estimate(
        self,
        method: str = "tabu",
        stopping: StoppingCriteria | None = None,
        annealing_config: AnnealingConfig | None = None,
        tabu_config: TabuConfig | None = None,
        start_variables: list[int] | None = None,
        hillclimb_config: HillClimbConfig | None = None,
        genetic_config: GeneticConfig | None = None,
        **minimizer_options,
    ) -> EstimationReport:
        """Run the estimating mode with the chosen metaheuristic.

        ``method`` is any name in the minimizer registry — ``"tabu"`` /
        ``"annealing"`` (the paper's two algorithms), ``"hillclimb"`` (ablation
        baseline), ``"genetic"`` (extension), or anything registered with
        :func:`repro.api.registry.register_minimizer`.  Extra keyword arguments
        are forwarded to the minimiser factory (they become config fields); the
        legacy ``*_config`` keyword arguments take precedence for their method.
        """
        factory = get_minimizer(method)
        explicit_config = {
            "annealing": annealing_config,
            "tabu": tabu_config,
            "hillclimb": hillclimb_config,
            "genetic": genetic_config,
        }.get(method)
        start_point = (
            self.search_space.point(start_variables)
            if start_variables is not None
            else self.search_space.start_point()
        )
        minimizer = factory(
            self.evaluator,
            self.search_space,
            stopping=stopping,
            seed=self.seed,
            config=explicit_config,
            **minimizer_options,
        )
        result = minimizer.minimize(start_point)
        return EstimationReport(
            instance_name=self.instance.name,
            method=method,
            best_decomposition=result.best_decomposition,
            best_value=result.best_value,
            cost_measure=self.cost_measure,
            sample_size=self.sample_size,
            minimization=result,
        )

    def evaluate_decomposition(self, variables: list[int]):
        """Evaluate the predictive function at an explicitly given decomposition set."""
        self.ensure_assumable(variables)
        return self.evaluator.evaluate(DecompositionSet.of(variables))

    # -------------------------------------------------------------- solving mode
    def solve_family(
        self,
        decomposition: list[int] | DecompositionSet,
        stop_on_sat: bool = False,
        max_subproblems: int = 1 << 20,
        backend=None,
        **run_options,
    ) -> SolvingReport:
        """Process the whole decomposition family (the paper's solving mode).

        With ``stop_on_sat`` the enumeration stops at the first satisfiable
        sub-problem; the paper's experiments processed the entire family to
        obtain more statistical data, which is also the default here.

        The family runs through ``backend``, an
        :class:`~repro.api.backends.ExecutionBackend` (the serial one by
        default), with this orchestrator's solver spec, cost measure and
        budget, and with ``run_options``: the protocol's ``progress``,
        ``checkpoint``, ``checkpoint_sink``, ``checkpoint_every`` and
        ``trace``.  A backend whose ``run`` lacks a keyword this call passes
        is refused with a :class:`ValueError`.  Models are reported over the
        original variables, and ``metadata`` is the backend's.
        """
        dec = DecompositionSet.coerce(decomposition)
        self.ensure_assumable(dec.variables)
        num_vars = self.instance.cnf.num_vars
        out_of_range = sorted(v for v in dec.variables if v > num_vars)
        if out_of_range:
            # Fail fast with one clean error instead of letting every
            # sub-problem raise (and be pointlessly dispatched) in the backend.
            raise ValueError(
                f"decomposition variables {out_of_range} are outside the "
                f"instance's formula (variables 1..{num_vars})"
            )
        if dec.num_subproblems > max_subproblems:
            raise ValueError(
                f"decomposition family has 2^{dec.d} sub-problems, "
                f"raise max_subproblems to allow this"
            )
        backend = backend if backend is not None else SerialBackend()
        keywords = dict(
            solver=self.solver, cost_measure=self.cost_measure, stop_on_sat=stop_on_sat,
            **run_options,
        )
        if self.subproblem_budget is not None:
            keywords["budget"] = self.subproblem_budget
        _check_run_keywords(backend, keywords)
        started = time.perf_counter()
        run = backend.run(
            self.cnf,
            [assignment.to_literals() for assignment in dec.all_assignments()],
            **keywords,
        )
        first_sat = next(
            (index for index, status in enumerate(run.statuses) if status is SolverStatus.SAT),
            None,
        )
        return SolvingReport(
            instance_name=self.instance.name,
            decomposition=sorted(dec.variables),
            statuses=run.statuses,
            costs=run.costs,
            cost_measure=self.cost_measure,
            satisfying_models=[self._reconstructed(model) for model in run.satisfying_models],
            first_sat_index=first_sat,
            stopped_early=stop_on_sat and first_sat is not None,
            wall_time=time.perf_counter() - started,
            metadata=run.metadata,
        )

    # --------------------------------------------------------------- end to end
    def estimate_then_solve(
        self,
        method: str = "tabu",
        stopping: StoppingCriteria | None = None,
        stop_on_sat: bool = False,
    ) -> tuple[EstimationReport, SolvingReport]:
        """Estimating mode followed by solving mode on the found decomposition set."""
        estimation = self.estimate(method=method, stopping=stopping)
        solving = self.solve_family(estimation.best_decomposition, stop_on_sat=stop_on_sat)
        return estimation, solving
