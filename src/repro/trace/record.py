"""One-call recording helpers: wrap solve / simplify / estimate with a trace.

These are the engine behind ``repro-sat trace record``: each helper builds
the subsystem through the registry/spec layer, opens a
:class:`~repro.trace.format.TraceWriter` whose header fingerprints the
instance and snapshots the configuration, runs the operation with the trace
attached, and closes the writer (also on failure, so a crashed run leaves a
readable partial trace).

Headers carry no timestamps and solver events carry no wall-clock fields, so
two identically-seeded deterministic runs produce **byte-identical** trace
files — the property ``repro-sat trace diff`` checks in CI.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.sat.formula import CNF
from repro.trace.format import TraceWriter, cnf_fingerprint


def _open_writer(trace_out, *, kind: str, cnf: CNF, config: dict) -> TraceWriter:
    return TraceWriter(
        trace_out,
        kind=kind,
        fingerprint=cnf_fingerprint(cnf),
        config=config,
        meta={"num_vars": cnf.num_vars, "num_clauses": cnf.num_clauses},
    )


def record_solve(
    cnf: CNF,
    trace_out,
    assumptions: Sequence[int] = (),
    solver: str = "cdcl",
    solver_options: Mapping[str, Any] | None = None,
    budget=None,
):
    """Solve ``cnf`` with the named solver, streaming events to ``trace_out``.

    Returns the :class:`~repro.sat.solver.SolveResult`.  Solvers without
    trace instrumentation (DPLL, WalkSAT) still run — their trace holds just
    the header.
    """
    from repro.api.specs import SolverSpec

    spec = SolverSpec(name=solver, options=dict(solver_options or {}))
    instance = spec.build()
    config = {
        "solver": solver,
        "options": dict(solver_options or {}),
        "assumptions": [int(lit) for lit in assumptions],
    }
    with _open_writer(trace_out, kind="solve", cnf=cnf, config=config) as writer:
        try:
            return instance.solve(
                cnf, assumptions=list(assumptions), budget=budget, trace=writer
            )
        except TypeError:
            # Solver without a trace= parameter: run untraced.
            return instance.solve(cnf, assumptions=list(assumptions), budget=budget)


def record_simplify(
    cnf: CNF,
    trace_out,
    preprocessor_options: Mapping[str, Any] | None = None,
    frozen: Sequence[int] = (),
):
    """Preprocess ``cnf``, streaming per-round events to ``trace_out``.

    Returns the :class:`~repro.sat.simplify.PreprocessResult`.
    """
    from repro.sat.simplify import Preprocessor

    options = dict(preprocessor_options or {})
    config = {
        "preprocessor": options,
        "frozen": sorted(int(v) for v in frozen),
    }
    with _open_writer(trace_out, kind="simplify", cnf=cnf, config=config) as writer:
        return Preprocessor(**options).preprocess(cnf, frozen=frozen, trace=writer)


def record_estimate(
    cnf: CNF,
    variables: Sequence[int],
    trace_out,
    sample_size: int = 100,
    seed: int = 0,
    cost_measure: str = "propagations",
    solver: str = "cdcl",
    solver_options: Mapping[str, Any] | None = None,
    budget=None,
    cores: int = 8,
):
    """Solve an evaluation's sample on the simulated cluster, streaming its task events.

    The sample is the one :meth:`PredictiveFunction.evaluate
    <repro.core.predictive.PredictiveFunction.evaluate>` draws at
    ``variables`` with ``sample_size`` and ``seed``; its rows travel the
    family path of :class:`~repro.api.backends.SimulatedClusterBackend` on
    ``cores`` virtual cores, one row per task, and are folded in sample
    order.  Returns the evaluator's
    :class:`~repro.core.predictive.PredictionResult`, whose ``F`` and
    interval equal what ``evaluate`` returns for the same settings.  The
    completion times are virtual, so the trace is a pure function of the
    inputs — identically-seeded runs are byte-identical.
    """
    from repro.api.backends import SimulatedClusterBackend
    from repro.api.specs import SolverSpec
    from repro.core.decomposition import DecompositionSet
    from repro.core.predictive import PredictiveFunction, SampleObservation

    dec = DecompositionSet.coerce(variables)
    evaluator = PredictiveFunction(
        cnf, sample_size=sample_size, cost_measure=cost_measure, seed=seed
    )
    sample = evaluator.sample(dec)
    # Built before the writer opens, so refused settings leave no trace file.
    backend = SimulatedClusterBackend(cores)
    options = dict(solver_options or {})
    config = {
        "variables": sorted(int(v) for v in variables),
        "sample_size": sample_size,
        "seed": seed,
        "cost_measure": cost_measure,
        "solver": solver,
        "options": options,
        "cores": cores,
    }
    with _open_writer(trace_out, kind="estimate", cnf=cnf, config=config) as writer:
        run = backend.run(
            cnf,
            [row.literals for row in sample],
            solver=SolverSpec(name=solver, options=options),
            cost_measure=cost_measure,
            budget=budget,
            trace=writer,
        )
    return evaluator.fold(
        dec,
        [
            SampleObservation(
                assignment_bits=row.bits,
                cost=outcome.cost,
                status=outcome.status,
                wall_time=outcome.wall_time,
            )
            for row, outcome in zip(sample, run.outcomes)
        ],
    )
