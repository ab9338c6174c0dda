"""SAT substrate: CNF formulas, DIMACS I/O, solvers and preprocessing.

This subpackage plays the role of MiniSat in the original paper: it provides a
complete, deterministic solver (:class:`repro.sat.cdcl.CDCLSolver`) whose
per-instance cost can be measured either in wall-clock seconds or in
deterministic counters (conflicts, decisions, propagations), together with a
DPLL reference solver, a lookahead solver (also used to build cube-and-conquer
partitionings), the WalkSAT local search, and SatELite-style preprocessing
(:mod:`repro.sat.simplify`).  The Monte Carlo machinery in :mod:`repro.core`
is solver-agnostic and talks to solvers through the small interface defined in
:mod:`repro.sat.solver`.
"""

from repro.sat.assignment import Assignment
from repro.sat.dimacs import parse_dimacs, parse_dimacs_file, write_dimacs, write_dimacs_file
from repro.sat.formula import CNF, Clause, lit_to_var, neg, var_to_lit
from repro.sat.lookahead import LookaheadSolver, lookahead_scores, rank_variables_by_lookahead
from repro.sat.simplify import (
    PreprocessConfig,
    Preprocessor,
    PreprocessResult,
    PreprocessStats,
)
from repro.sat.solver import SolveResult, SolverBudget, SolverStats, SolverStatus

__all__ = [
    "CNF",
    "Clause",
    "Assignment",
    "SolveResult",
    "SolverBudget",
    "SolverStats",
    "SolverStatus",
    "LookaheadSolver",
    "lookahead_scores",
    "rank_variables_by_lookahead",
    "PreprocessConfig",
    "Preprocessor",
    "PreprocessResult",
    "PreprocessStats",
    "lit_to_var",
    "neg",
    "var_to_lit",
    "parse_dimacs",
    "parse_dimacs_file",
    "write_dimacs",
    "write_dimacs_file",
]
