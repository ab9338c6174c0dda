"""The Monte Carlo predictive function ``F_{C,A}(X̃)``.

Given a CNF ``C``, a complete deterministic solver ``A`` and a decomposition
set ``X̃`` of size ``d``, the total sequential time to process the whole
decomposition family is ``t_{C,A}(X̃) = 2^d · E[ξ_{C,A}(X̃)]`` (equation (2) of
the paper), where ``ξ`` is the cost of a uniformly random sub-instance.  The
predictive function estimates the expectation from a random sample of ``N``
assignments:

    F_{C,A}(X̃) = 2^d · (1/N) · Σ_{j=1..N} ζ_j                     (5)

``ζ_j`` being the measured cost of sub-instance ``C[X̃/α_j]``.  The evaluator
below implements exactly that, with three practical extensions:

* the *cost measure* is pluggable — wall-clock seconds (the paper's choice) or
  deterministic solver counters (conflicts / propagations / a weighted mix),
  the latter giving machine-independent, exactly reproducible estimates;
* every evaluation also returns the CLT confidence interval of ``F`` via
  :mod:`repro.stats.montecarlo`;
* evaluations are memoised per decomposition set, and per-variable conflict
  activity is accumulated across evaluations (the tabu search restart heuristic
  consumes it).

Batched estimation engine
-------------------------

This module is the hot path of the whole reproduction: a single estimating-mode
run performs ``max_evaluations × N`` sub-instance solves.  They all go through
one sample loop, which :meth:`PredictiveFunction.evaluate` and
:meth:`PredictiveFunction.exhaustive_value` share (except on an incremental
evaluator, whose exhaustive value solves every row fresh): it walks the
sample in order, replays cache hits (below), and takes every other row's
result from one of four row engines.  The sample's rows are drawn once, by
:meth:`DecompositionSet.random_sample
<repro.core.decomposition.DecompositionSet.random_sample>` through
:func:`repro.stats.sampling.random_bits` (which consumes the generator
exactly as ``randint(0, 1)`` per bit does), each as its bits and its
assumption literals, so a row costs little more than its solve:

* *fresh* (the default): ``solve(cnf, assumptions=row)``, the paper's ξ;
* *incremental*: ``solve(assumptions=row)`` on the loaded solver (below);
* *batched* (``batch_size > 1``): the sample's cache misses are solved ahead
  of the walk through ``solve_batch``, ``batch_size`` rows per call, which is
  bit-identical to fresh scalar solves, so every status, cost, ``cached``
  flag and counter equals the fresh engine's.  While a facade call lends
  the evaluator its run's process pool (:attr:`PredictiveFunction.pool`),
  the misses are cut into one share per process: the leader solves one
  share and the pool's workers the others, each returning every row's
  status, cost, wall time and nonzero conflict activity;
* *units* (``substitution_mode="units"``): a fresh solve of ``C ∧ units``.

Three mechanisms keep that loop from re-doing work, all on by default:

**Incremental solving** (``incremental=True``; off by default here, on by
default in the :class:`repro.api.EstimatorSpec` layer).  Requires
``substitution_mode == "assumptions"`` and a solver exposing the incremental
contract of :class:`~repro.sat.cdcl.CDCLSolver` (``load()`` +
``solve(assumptions=...)``).  The CNF is loaded into the solver **once** and
every sampled sub-instance is solved as an assumption vector against that
persistent state: no re-encoding, no watch-list reconstruction, and learned
clauses accumulate across samples (sound, because assumption-derived learned
clauses are implied by the formula alone — decided statuses never contradict
fresh solves, though under a per-sample budget retained clauses can shift
which samples finish in time and hence which come back UNKNOWN).  The
trade-off is a *history-dependent* cost measure: the same
sub-instance solved later in the run is cheaper, so incremental ``F`` values
systematically undershoot fresh-solver ``F`` values and are meaningful for
*comparing* decomposition sets (which is all the metaheuristics need), not as
absolute predictions of fresh solving time.  That is why the default at this
level stays ``False``, preserving the paper's definition of ``ξ``.

**Sample-result LRU cache** (on by default).  Solved samples are cached under
the key *(decomposition set, assignment)* — concretely the tuple of assumption
literals, which encodes both.  For small ``d`` a uniform sample of ``N``
assignments collides often (``N = 100`` draws over ``2^6`` cells repeat more
than half the time), and neighbouring search-space points re-visit
sub-instances; hits replay the recorded observation (flagged ``cached=True``)
instead of re-solving.  Because the bundled solvers are deterministic, a
replayed fresh-mode cost is bit-identical to what re-solving would have
produced, so with ``incremental=False`` the cache is a pure speedup with
unchanged results.  The cache holds ``sample_cache_size`` entries (LRU
eviction; ``None`` disables caching).

**Per-sample budgets.**  ``subproblem_budget`` bounds each solver call
individually — with the incremental engine the budget applies per call, not to
the accumulated run — so one pathological sub-instance cannot stall an
evaluation; over-budget samples count with the cost accumulated so far and are
flagged UNKNOWN, making the estimate a lower bound.

The default solver behind all of this is the flat-array arena engine of
:mod:`repro.sat.cdcl.solver`: the per-sample assumption solves run through a
clause arena with static binary/ternary watcher tuples.  Decided statuses do
not depend on the solver or its configuration; per-sample *costs* do, because
differently configured solvers learn different clauses.
"""

from __future__ import annotations

import copy
import itertools
import random
import time
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.api.measures import CostMeasure
from repro.api.registry import get_cost_measure
from repro.core.decomposition import DecompositionFamily, DecompositionSet, SampleRow
from repro.runner.pool import SampledRow, sampled_row, solve_beside
from repro.sat.cdcl import CDCLSolver
from repro.sat.formula import CNF
from repro.sat.solver import SolveResult, Solver, SolverBudget, SolverStatus
from repro.stats.montecarlo import MonteCarloEstimate, OnlineStatistics


def supports_incremental_solving(solver: "Solver", substitution_mode: str = "assumptions") -> bool:
    """True when ``solver`` can drive the batched incremental-assumption engine.

    The contract is duck-typed: a ``load(cnf)`` method plus a ``loaded_cnf``
    attribute (see :class:`repro.sat.cdcl.CDCLSolver`), and assumption-based
    substitution (the ``"units"`` mode rebuilds a CNF per sample by design).
    """
    return (
        substitution_mode == "assumptions"
        and hasattr(solver, "load")
        and hasattr(solver, "loaded_cnf")
    )


@dataclass
class SampleObservation:
    """Cost and outcome of one sampled sub-instance."""

    assignment_bits: tuple[int, ...]
    cost: float
    status: SolverStatus
    wall_time: float
    #: True when the observation was replayed from the sample-result cache
    #: instead of being solved again.
    cached: bool = False


@dataclass
class PredictionResult:
    """The value of the predictive function at one point of the search space."""

    decomposition: DecompositionSet
    sample_size: int
    cost_measure: str
    observations: list[SampleObservation] = field(default_factory=list)
    estimate: MonteCarloEstimate | None = None
    wall_time: float = 0.0
    conflict_activity: dict[int, float] = field(default_factory=dict)

    @property
    def d(self) -> int:
        """Number of decomposition variables."""
        return self.decomposition.d

    @property
    def mean_cost(self) -> float:
        """Sample mean of the per-sub-instance cost (the estimate of ``E[ξ]``)."""
        assert self.estimate is not None
        return self.estimate.mean

    @property
    def value(self) -> float:
        """``F_{C,A}(X̃) = 2^d · mean`` — the predicted total sequential cost."""
        return float(self.decomposition.num_subproblems) * self.mean_cost

    @property
    def confidence_interval(self) -> tuple[float, float]:
        """CLT confidence interval of ``F`` (scaled from the interval of the mean)."""
        assert self.estimate is not None
        scaled = self.estimate.scaled(float(self.decomposition.num_subproblems))
        return scaled.interval

    def value_on_cores(self, cores: int) -> float:
        """Idealised prediction for ``cores`` parallel workers (perfect speed-up).

        The paper computes ``F`` for one CPU core and divides by the core count
        when extrapolating to the cluster (Table 3, "480 cores" column); the
        makespan simulation in :mod:`repro.runner.cluster` refines this.
        """
        if cores <= 0:
            raise ValueError("cores must be positive")
        return self.value / cores

    def activity_of(self, variables: Iterable[int]) -> float:
        """Total conflict activity of ``variables`` accumulated in this evaluation."""
        return sum(self.conflict_activity.get(v, 0.0) for v in variables)

    def summary(self) -> str:
        """One-line report used by the CLI and benchmarks."""
        low, high = self.confidence_interval
        return (
            f"F = {self.value:.4g} ({self.cost_measure}, d = {self.d}, N = {self.sample_size}, "
            f"95% CI [{low:.4g}, {high:.4g}])"
        )


class PredictiveFunction:
    """Evaluator of the predictive function for a fixed CNF and solver.

    Parameters
    ----------
    cnf:
        The SAT instance being partitioned.
    solver:
        A complete, deterministic solver implementing the
        :class:`repro.sat.solver.Solver` protocol (defaults to
        :class:`~repro.sat.cdcl.CDCLSolver`).
    sample_size:
        ``N``, the number of sampled sub-instances per evaluation.
    cost_measure:
        ``"wall_time"`` (the paper) or one of the deterministic measures
        ``"conflicts"`` / ``"propagations"`` / ``"decisions"`` / ``"weighted"``.
    seed:
        Seed of the sampling RNG.  The per-point sample is derived
        deterministically from this seed and the decomposition set, so repeated
        evaluations of the same point are identical and memoisable.
    substitution_mode:
        ``"assumptions"`` passes the sampled assignment to the solver as
        assumption literals (cheap); ``"units"`` builds ``C ∧ units`` explicitly
        (closer to how PDSAT shipped sub-instances to worker processes).
    subproblem_budget:
        Optional per-sub-instance :class:`~repro.sat.solver.SolverBudget`.
        Sub-instances that exceed it count with the cost accumulated so far and
        are flagged UNKNOWN; estimates are then lower bounds.  With the
        incremental engine the budget bounds each solver call individually.
    incremental:
        Use the persistent incremental-assumption engine (see the module
        docstring).  Off by default at this level (preserves the paper's
        fresh-solve cost semantics); :class:`repro.api.EstimatorSpec` turns it
        on by default.  Passing ``True`` requires
        ``substitution_mode == "assumptions"`` and a solver with the
        ``load``/``loaded_cnf`` incremental contract (``ValueError`` otherwise).
    sample_cache_size:
        Capacity of the sample-result LRU cache keyed by (decomposition set,
        assignment); ``None`` or 0 disables it.
    batch_size:
        Rows per ``solve_batch`` call of the batched engine (1: the scalar
        engines).  A batched evaluator solves on :attr:`pool` while one is
        lent to it; the walk, the sample cache, the fold and the counters
        stay in this process either way, so every result is the same.
    """

    def __init__(
        self,
        cnf: CNF,
        solver: Solver | None = None,
        sample_size: int = 100,
        cost_measure: str = "propagations",
        seed: int = 0,
        substitution_mode: str = "assumptions",
        subproblem_budget: SolverBudget | None = None,
        confidence_level: float = 0.95,
        incremental: bool = False,
        sample_cache_size: int | None = 4096,
        batch_size: int = 1,
    ):
        if substitution_mode not in ("assumptions", "units"):
            raise ValueError("substitution_mode must be 'assumptions' or 'units'")
        if sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        # Fail fast on a bad measure with the registry's consistent error
        # instead of deep inside the first sub-problem solve.
        get_cost_measure(cost_measure)
        self.cnf = cnf
        self.solver: Solver = solver if solver is not None else CDCLSolver()
        self.sample_size = sample_size
        self.cost_measure = cost_measure
        self.seed = seed
        self.substitution_mode = substitution_mode
        self.subproblem_budget = subproblem_budget
        self.confidence_level = confidence_level
        if incremental and not supports_incremental_solving(
            self.solver, substitution_mode
        ):
            raise ValueError(
                "incremental=True requires substitution_mode='assumptions' and a "
                "solver with the load()/loaded_cnf incremental contract"
            )
        self.incremental = bool(incremental)
        if batch_size > 1:
            if substitution_mode != "assumptions":
                raise ValueError(
                    "batch_size > 1 requires substitution_mode='assumptions'"
                )
            if incremental:
                raise ValueError(
                    "batch_size > 1 requires incremental=False: the batched "
                    "engine's contract is fresh-solve (the paper's ξ), while "
                    "incremental costs are history-dependent"
                )
            if not hasattr(self.solver, "solve_batch"):
                raise ValueError(
                    "batch_size > 1 requires a solver exposing solve_batch "
                    "(the arena 'cdcl' engine)"
                )
        #: Samples solved per ``solve_batch`` call when > 1 (each row a fresh
        #: solve from the restored root snapshot); results stay bit-identical
        #: to the scalar fresh loop.
        self.batch_size = int(batch_size)
        #: What the caller *asked* for.  :meth:`repro.api.specs.EstimatorSpec.build`
        #: downgrades ``batch_size`` to 1 for solvers without ``solve_batch``
        #: and records the request here, so run metadata can report the
        #: downgrade instead of hiding it.
        self.requested_batch_size = self.batch_size

        self._cache: dict[frozenset[int], PredictionResult] = {}
        #: Sample-result LRU cache: assumption-literal tuple -> (observation,
        #: per-variable conflict activity of the original solve).
        self._sample_cache: OrderedDict[
            tuple[int, ...], tuple[SampleObservation, dict[int, float]]
        ] = OrderedDict()
        # None/0 and negative values all mean "cache off".
        self.sample_cache_size = max(0, int(sample_cache_size)) if sample_cache_size else 0
        #: Sample-cache hits replayed instead of re-solving.
        self.sample_cache_hits = 0
        #: Conflict activity accumulated over every sub-instance ever solved;
        #: the tabu search getNewCenter heuristic reads this.
        self.accumulated_activity: dict[int, float] = {}
        #: Logical sub-instance solves (cache replays included), the quantity
        #: :class:`~repro.core.optimizer.StoppingCriteria` budgets against.
        self.num_subproblem_solves = 0
        #: Actual solver invocations (sample-cache misses only).
        self.num_solver_calls = 0
        #: The run's process pool (a :class:`~repro.runner.scheduler.ProcessExecutor`
        #: running a batched :class:`~repro.runner.pool.WorkerState` of this
        #: formula, solver, cost measure and budget) while a facade call holds
        #: it open.  The batched engine then solves one share of each
        #: sample's misses here and the others on the pool's workers.
        self.pool = None

    # ------------------------------------------------------------------ evaluate
    def evaluate(self, decomposition: DecompositionSet | Iterable[int]) -> PredictionResult:
        """Evaluate ``F`` at a decomposition set (memoised)."""
        dec = DecompositionSet.coerce(decomposition)
        key = dec.as_frozenset()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        start = time.perf_counter()
        observations: list[SampleObservation] = []
        activity: dict[int, float] = {}
        for observation, sub_activity in self._solve_sample(self.sample(dec), dec):
            observations.append(observation)
            for var, act in sub_activity.items():
                activity[var] = activity.get(var, 0.0) + act
                self.accumulated_activity[var] = self.accumulated_activity.get(var, 0.0) + act
        result = self.fold(dec, observations, activity)
        result.wall_time = time.perf_counter() - start
        self._cache[key] = result
        return result

    def sample(self, decomposition: DecompositionSet) -> list[SampleRow]:
        """The random sample (4) an evaluation at ``decomposition`` solves, in order.

        ``N`` rows drawn by :meth:`DecompositionSet.random_sample` from this
        evaluator's seed and the set's variables, so every evaluation of one
        point draws the same sample.  Each row holds its bits and its
        assumption literals, which are also its key in the sample cache.
        """
        if decomposition.d == 0:
            raise ValueError("cannot evaluate the empty decomposition set")
        rng = random.Random((self.seed, tuple(decomposition.variables)).__hash__())
        return decomposition.random_sample(self.sample_size, rng)

    def fold(
        self,
        decomposition: DecompositionSet,
        observations: list[SampleObservation],
        activity: dict[int, float] | None = None,
    ) -> PredictionResult:
        """``F`` (5) and its confidence interval from the sample's observations.

        The costs are folded in sample order, so the same observations give
        bit-identical statistics wherever their rows were solved.
        """
        return PredictionResult(
            decomposition=decomposition,
            sample_size=self.sample_size,
            cost_measure=self.cost_measure,
            observations=observations,
            estimate=OnlineStatistics.from_observations(
                [observation.cost for observation in observations]
            ).estimate(self.confidence_level),
            conflict_activity=activity or {},
        )

    def __call__(self, decomposition: DecompositionSet | Iterable[int]) -> float:
        """Shorthand returning just the value of ``F``."""
        return self.evaluate(decomposition).value

    def is_cached(self, decomposition: DecompositionSet | Iterable[int]) -> bool:
        """True when the point has already been evaluated."""
        dec = DecompositionSet.coerce(decomposition)
        return dec.as_frozenset() in self._cache

    @property
    def num_evaluations(self) -> int:
        """Number of distinct points evaluated so far."""
        return len(self._cache)

    def cached_results(self) -> list[PredictionResult]:
        """All memoised evaluations (the optimizers' search history)."""
        return list(self._cache.values())

    # ------------------------------------------------------------------ internals
    def _solve_sample(
        self, sample: list[SampleRow], dec: DecompositionSet
    ) -> list[tuple[SampleObservation, dict[int, float]]]:
        """The one sample loop: each row's observation and activity, in order.

        A cached row replays its observation (``cached=True``) and moves to
        the LRU's end; every other row is solved, counted and cached.  The
        scalar engines solve a row at its turn, so an entry evicted
        mid-sample is re-solved exactly when it is reached.  The cost
        measure is looked up once per call, not once per row.
        """
        measure = get_cost_measure(self.cost_measure)
        ahead = (
            self._solve_ahead([row.literals for row in sample], measure)
            if self.batch_size > 1
            else {}
        )
        cache = self._sample_cache if self.sample_cache_size else None
        solved: list[tuple[SampleObservation, dict[int, float]]] = []
        for index, (bits, key) in enumerate(sample):
            self.num_subproblem_solves += 1
            hit = cache.get(key) if cache is not None else None
            if hit is not None:
                cache.move_to_end(key)
                self.sample_cache_hits += 1
                observation, sub_activity = hit
                replayed = SampleObservation(
                    observation.assignment_bits,
                    observation.cost,
                    observation.status,
                    observation.wall_time,
                    True,
                )
                solved.append((replayed, sub_activity))
                continue
            self.num_solver_calls += 1
            record = ahead.pop(index, None)
            if record is None:
                record = sampled_row(self._solve_row(bits, key, dec), measure)
            status, cost, wall_time, sub_activity = record
            observation = SampleObservation(bits, cost, status, wall_time)
            if cache is not None:
                cache[key] = (observation, sub_activity)
                if len(cache) > self.sample_cache_size:
                    cache.popitem(last=False)
            solved.append((observation, sub_activity))
        return solved

    def _solve_ahead(
        self, keys: list[tuple[int, ...]], measure: CostMeasure
    ) -> dict[int, SampledRow]:
        """The batched engine: solve the sample's cache misses up front.

        Each row's status, cost, wall time and activity, by sample position.
        A row cached before the sample or repeated in it is left to the loop;
        no other row can be cached when the loop reaches it, so hits and
        counters match the scalar loop's.  With the cache off every row is
        solved, repeats included.  The rows
        are cut into one share per solver: without an open :attr:`pool` the
        leader alone, with one the leader and all but one of the pool's
        workers, so that no more processes solve at once than the pool has.
        The leader solves its share with ``solve_batch`` calls of
        ``batch_size`` rows, and each worker its share with one call;
        ``solve_batch`` is bit-identical to fresh solves however the rows
        are cut, so every row's record is the same.
        """
        planned: list[int] = []
        seen: set[tuple[int, ...]] = set()
        for index, key in enumerate(keys):
            if self.sample_cache_size:
                if key in self._sample_cache or key in seen:
                    continue
                seen.add(key)
            planned.append(index)
        rows = [keys[index] for index in planned]
        pool = self.pool if self.pool is not None and not self.pool.closed else None
        solvers = min(len(rows), pool.num_workers) if pool is not None else 1
        if solvers < 2:
            return dict(zip(planned, self._solve_batches(rows, measure)))
        size, extra = divmod(len(rows), solvers)
        cuts = [index * size + min(index, extra) for index in range(solvers + 1)]
        shares = [rows[begin:end] for begin, end in zip(cuts, cuts[1:])]
        mine, theirs = solve_beside(
            pool, shares[1:], lambda: self._solve_batches(shares[0], measure)
        )
        return dict(zip(planned, mine + [record for share in theirs for record in share]))

    def _solve_batches(
        self, rows: list[tuple[int, ...]], measure: CostMeasure
    ) -> list[SampledRow]:
        """``rows`` solved here by ``solve_batch`` calls of ``batch_size`` rows each."""
        if self.solver.loaded_cnf is not self.cnf:
            self.solver.load(self.cnf)
        records: list[SampledRow] = []
        for begin in range(0, len(rows), self.batch_size):
            results = self.solver.solve_batch(
                rows[begin : begin + self.batch_size], budget=self.subproblem_budget
            )
            records.extend(sampled_row(result, measure) for result in results)
        return records

    def _solve_row(
        self, bits: tuple[int, ...], literals: tuple[int, ...], dec: DecompositionSet
    ) -> SolveResult:
        """Solve one sampled sub-instance with the evaluator's row engine."""
        budget = self.subproblem_budget
        if self.batch_size > 1:
            # A planned replay whose cache entry was evicted mid-sample.
            return self.solver.solve_batch([literals], budget=budget)[0]
        if self.substitution_mode == "units":
            assignment = dec.assignment_from_bits(bits)
            sub = DecompositionFamily(self.cnf, dec).subproblem(assignment, as_units=True)
            return self.solver.solve(sub, budget=budget)
        if self.incremental:
            if self.solver.loaded_cnf is not self.cnf:
                self.solver.load(self.cnf)
            return self.solver.solve(assumptions=literals, budget=budget)
        return self.solver.solve(self.cnf, assumptions=literals, budget=budget)

    # ----------------------------------------------------------------- exhaustive
    def exhaustive_value(
        self, decomposition: DecompositionSet | Iterable[int], max_subproblems: int = 1 << 14
    ) -> tuple[float, list[float]]:
        """The true ``t_{C,A}(X̃)``: solve all ``2^d`` sub-instances and sum their costs.

        Only feasible for small ``d``; used by the Monte Carlo convergence
        benchmark and by the solving mode's ground truth in tests.  Returns the
        total cost and the per-sub-instance cost list.  Every cost is a fresh
        solve's: an incremental evaluator solves each row fresh on a copy of
        its solver, bypassing the sample cache, so a later evaluation returns
        what it would have returned without this call.
        """
        dec = DecompositionSet.coerce(decomposition)
        if dec.num_subproblems > max_subproblems:
            raise ValueError(
                f"2^{dec.d} sub-problems exceed the max_subproblems={max_subproblems} safety limit"
            )
        rows = dec.rows(itertools.product((0, 1), repeat=dec.d))
        if not self.incremental:
            costs = [observation.cost for observation, _ in self._solve_sample(rows, dec)]
            return sum(costs), costs
        # Incremental costs depend on what the solver learned before, and t is
        # defined by fresh solves: solve every row fresh on a copy of the
        # solver, so that neither its state nor the sample cache sees the call.
        solver = copy.deepcopy(self.solver)
        costs = []
        for _, literals in rows:
            self.num_subproblem_solves += 1
            self.num_solver_calls += 1
            result = solver.solve(self.cnf, assumptions=literals, budget=self.subproblem_budget)
            costs.append(result.stats.cost(self.cost_measure))
        return sum(costs), costs
