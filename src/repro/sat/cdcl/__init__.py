"""Conflict-Driven Clause Learning solver.

This is the library's stand-in for MiniSat: a complete, deterministic CDCL
solver with two-watched-literal propagation, first-UIP clause learning, VSIDS
branching, phase saving, Luby restarts and LBD-aware learned-clause deletion.
It reports per-run work counters and per-variable conflict activity, both of
which the partitioning search in :mod:`repro.core` relies on.

:class:`CDCLSolver` (``"cdcl"`` in the solver registry) is the flat-array
engine of :mod:`repro.sat.cdcl.solver`: a single flat-int clause arena
addressed by int32 offsets (a plain list, deliberately not ``array('i')`` —
see the solver module docstring), array-indexed watcher lists with
MiniSat-style blocker literals, and flat trail/reason/level stores.  The
reference DPLL solver (:mod:`repro.sat.dpll`) is its differential oracle.
"""

from repro.sat.cdcl.config import CDCLConfig
from repro.sat.cdcl.luby import luby
from repro.sat.cdcl.solver import CDCLSolver

__all__ = ["CDCLSolver", "CDCLConfig", "luby"]
