"""The portfolio approach to parallel SAT solving (the paper's counterpart).

The introduction of the paper contrasts two families of parallel SAT solving:
the *portfolio* approach — "one SAT instance is solved using different SAT
solvers or by the same SAT solver with different settings", optionally sharing
conflict clauses — and the *partitioning* approach the paper develops.  This
subpackage implements the portfolio side so the two can be compared on the same
instances:

* :class:`repro.portfolio.portfolio.SolverConfiguration` — a named, diversified
  solver configuration (restart policy, decision phase, decay, branching
  order);
* :class:`repro.portfolio.portfolio.PortfolioSolver` — runs every configuration
  on the whole instance and reports which configuration finishes first;
* :class:`repro.portfolio.sharing.SharingPortfolioSolver` — the clause-sharing
  half of the paper's contrast (HordeSat-style): members run round-robin
  slices charged in deterministic cost-measure units, export/import learned
  clauses through the seeded, virtual-round-stamped
  :class:`repro.portfolio.exchange.ClauseExchange` bus and periodically
  inprocess their databases, all bit-for-bit replayable; with
  ``SharingPolicy(per_round=0)`` nothing is exchanged and it is the isolated
  sliced race;
* :func:`repro.portfolio.portfolio.compare_with_partitioning` — the head-to-head
  experiment used by ``bench_portfolio_vs_partitioning.py``: wall-clock of the
  virtual portfolio versus the makespan of a decomposition family on the same
  number of cores.
"""

from repro.portfolio.exchange import ClauseExchange, SharingPolicy
from repro.portfolio.portfolio import (
    PortfolioResult,
    PortfolioSolver,
    SolverConfiguration,
    compare_with_partitioning,
    default_portfolio,
    slice_budget_for,
)
from repro.portfolio.sharing import (
    SharingMemberRun,
    SharingPortfolioResult,
    SharingPortfolioSolver,
)

__all__ = [
    "SolverConfiguration",
    "PortfolioSolver",
    "PortfolioResult",
    "default_portfolio",
    "compare_with_partitioning",
    "slice_budget_for",
    "ClauseExchange",
    "SharingPolicy",
    "SharingPortfolioSolver",
    "SharingPortfolioResult",
    "SharingMemberRun",
]
