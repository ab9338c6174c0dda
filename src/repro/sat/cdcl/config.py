"""Tunable parameters of the CDCL solver.

The defaults mirror MiniSat 2.2.  They are exposed mainly for the ablation
benchmarks and the diversified portfolio; the partitioning experiments use the
defaults throughout.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CDCLConfig:
    """Tunable parameters of the CDCL solver."""

    var_decay: float = 0.95
    clause_decay: float = 0.999
    restart_base: int = 100
    use_luby_restarts: bool = True
    learntsize_factor: float = 1.0 / 3.0
    learntsize_inc: float = 1.1
    default_phase: bool = False
    phase_saving: bool = True
    clause_minimization: bool = True
    #: Learned clauses with an LBD (literal block distance — number of distinct
    #: decision levels among the clause's literals at learning time) at or
    #: below this value are "glue" clauses: the arena engine's database
    #: reduction never deletes them.
    glue_lbd: int = 2
    #: Run the SatELite-style preprocessor (:class:`repro.sat.simplify.Preprocessor`)
    #: inside :meth:`~repro.sat.cdcl.solver.CDCLSolver.load`: the internal
    #: clause database is built from the simplified formula, SAT models are
    #: reconstructed back over the original variables, and variables passed via
    #: ``load(..., frozen=...)`` are never eliminated (so they stay legal
    #: assumption candidates — the incremental contract).  Off by default: the
    #: simplified formula's solver counters define a *different* ξ random
    #: variable than the paper's, and on some instances eliminating
    #: propagation-relay variables slows the incremental engine down (see
    #: ``docs/preprocessing.md``).
    simplify: bool = False
    #: Use the word-parallel lockstep root-propagation engine inside
    #: :meth:`~repro.sat.cdcl.solver.CDCLSolver.solve_batch`: assumption
    #: columns of a whole batch propagate together, one big-int bit per
    #: sample, and only samples that hit a conflict fall back to an exact
    #: scalar solve from the restored root snapshot.  Results are bit-identical
    #: either way (the differential-fuzz lane proves it); turning this off
    #: routes every row through the scalar fallback, which is the reference
    #: semantics and a useful A/B lever when debugging the lockstep engine.
    batch_lockstep: bool = True
