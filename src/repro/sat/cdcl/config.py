"""Tunable parameters of the CDCL solver.

The defaults mirror MiniSat 2.2.  They are exposed mainly for the ablation
benchmarks and the diversified portfolio; the partitioning experiments use the
defaults throughout.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CDCLConfig:
    """Tunable parameters of the CDCL solver.

    Preprocessing is not among them: PDSAT simplifies the instance once,
    before either mode runs (``ExperimentConfig.preprocessor``), and
    :meth:`~repro.sat.cdcl.solver.CDCLSolver.inprocess` re-simplifies a
    loaded database on request.
    """

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
    #: Use the word-parallel lockstep root-propagation engine inside
    #: :meth:`~repro.sat.cdcl.solver.CDCLSolver.solve_batch`: assumption
    #: columns of a whole batch propagate together, one big-int bit per
    #: sample, and only samples that hit a conflict fall back to an exact
    #: scalar solve from the restored root snapshot.  Results are bit-identical
    #: either way (the differential-fuzz lane proves it); turning this off
    #: routes every row through the scalar fallback, which is the reference
    #: semantics and a useful A/B lever when debugging the lockstep engine.
    batch_lockstep: bool = True
