"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import DecompositionSet
from repro.core.search_space import SearchSpace
from repro.encoder.bitvec import bits_to_int, int_to_bits
from repro.runner.cluster import simulate_makespan
from repro.sat.assignment import Assignment
from repro.sat.cdcl import CDCLSolver
from repro.sat.cdcl.luby import luby
from repro.sat.dimacs import parse_dimacs, write_dimacs
from repro.sat.dpll import DPLLSolver
from repro.sat.formula import CNF, normalize_clause
from repro.sat.preprocessing import unit_propagate
from repro.sat.random_cnf import random_ksat
from repro.sat.solver import check_model
from repro.stats.montecarlo import sample_statistics

# Keep hypothesis fast and deterministic for CI-style runs.
FAST = settings(max_examples=30, deadline=None)


# --------------------------------------------------------------------------- CNF
clauses_strategy = st.lists(
    st.lists(
        st.integers(min_value=-12, max_value=12).filter(lambda v: v != 0),
        min_size=1,
        max_size=5,
    ),
    min_size=0,
    max_size=40,
)


@FAST
@given(clauses=clauses_strategy)
def test_dimacs_round_trip(clauses):
    """Writing then parsing a CNF preserves clauses and variable count."""
    cnf = CNF([tuple(clause) for clause in clauses])
    parsed = parse_dimacs(write_dimacs(cnf), strict=True)
    assert parsed.clauses == cnf.clauses
    assert parsed.num_vars == cnf.num_vars


@FAST
@given(clauses=clauses_strategy, seed=st.integers(min_value=0, max_value=2**20))
def test_assign_preserves_models(clauses, seed):
    """If a total assignment satisfies C, it satisfies C restricted by any part of itself."""
    cnf = CNF([tuple(clause) for clause in clauses])
    if cnf.num_vars == 0:
        return
    rng = random.Random(seed)
    model = {v: rng.random() < 0.5 for v in range(1, cnf.num_vars + 1)}
    if not cnf.is_satisfied_by(model):
        return
    partial_vars = [v for v in model if rng.random() < 0.5]
    partial = {v: model[v] for v in partial_vars}
    assert cnf.assign(partial).is_satisfied_by(model)


@FAST
@given(
    lits=st.lists(
        st.integers(min_value=-9, max_value=9).filter(lambda v: v != 0), max_size=10
    )
)
def test_normalize_clause_idempotent(lits):
    """Normalisation is idempotent and never contains complementary literals."""
    normalized = normalize_clause(lits)
    if normalized is None:
        assert any(-l in lits for l in lits)
        return
    assert normalize_clause(normalized) == normalized
    assert not any(-l in normalized for l in normalized)


# ------------------------------------------------------------------------ solver
@FAST
@given(
    num_vars=st.integers(min_value=5, max_value=18),
    ratio=st.floats(min_value=1.0, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_cdcl_agrees_with_dpll(num_vars, ratio, seed):
    """CDCL and DPLL always agree on satisfiability of random instances."""
    cnf = random_ksat(num_vars, max(1, round(ratio * num_vars)), k=3, seed=seed)
    cdcl_result = CDCLSolver().solve(cnf)
    dpll_result = DPLLSolver().solve(cnf)
    assert cdcl_result.status == dpll_result.status
    if cdcl_result.is_sat:
        assert check_model(cnf, cdcl_result.model)


@FAST
@given(
    num_vars=st.integers(min_value=5, max_value=15),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_unit_propagation_closure_is_consistent(num_vars, seed):
    """The UP closure never assigns a variable both ways and only shrinks the formula."""
    cnf = random_ksat(num_vars, 3 * num_vars, seed=seed)
    result = unit_propagate(cnf)
    if result.conflict:
        return
    assert result.simplified.num_clauses <= cnf.num_clauses
    for clause in result.simplified.clauses:
        for lit in clause:
            assert abs(lit) not in result.assignment


# --------------------------------------------------------------- decompositions
@FAST
@given(
    variables=st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_decomposition_sampling_stays_in_set(variables, seed):
    """Random samples only assign decomposition variables, with full coverage of the set."""
    dec = DecompositionSet.of(variables)
    rng = random.Random(seed)
    for row in dec.random_sample(5, rng):
        assert len(row.bits) == dec.d
        assert sorted(abs(lit) for lit in row.literals) == sorted(dec.variables)
        assert row.literals == tuple(dec.assignment_from_bits(row.bits).to_literals())
    assert dec.num_subproblems == 2 ** len(variables)


@FAST
@given(variables=st.sets(st.integers(min_value=1, max_value=25), min_size=1, max_size=6))
def test_decomposition_family_enumeration_is_exhaustive(variables):
    """all_assignments enumerates 2^d distinct assignments."""
    dec = DecompositionSet.of(variables)
    seen = {a.bits_for(list(dec.variables)) for a in dec.all_assignments()}
    assert len(seen) == dec.num_subproblems


@FAST
@given(
    base=st.sets(st.integers(min_value=1, max_value=40), min_size=2, max_size=10),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_neighborhood_is_symmetric(base, seed):
    """χ' ∈ N_1(χ) iff χ ∈ N_1(χ') (for non-empty points)."""
    space = SearchSpace(sorted(base))
    rng = random.Random(seed)
    point = frozenset(v for v in base if rng.random() < 0.5) or frozenset([next(iter(base))])
    for neighbor in space.neighborhood(point, 1):
        back = set(space.neighborhood(neighbor, 1))
        assert point in back


@FAST
@given(
    base=st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
)
def test_chi_vector_round_trip(base):
    """χ-vector encoding and decoding are mutually inverse."""
    space = SearchSpace(sorted(base))
    for point in [space.start_point(), frozenset([min(base)])]:
        assert space.from_chi_vector(space.to_chi_vector(point)) == point


# -------------------------------------------------------------------- assignment
@FAST
@given(
    data=st.dictionaries(
        st.integers(min_value=1, max_value=50), st.booleans(), min_size=0, max_size=12
    )
)
def test_assignment_literal_round_trip(data):
    """Assignment -> literals -> Assignment is the identity."""
    assignment = Assignment(dict(data))
    assert Assignment.from_literals(assignment.to_literals()).values == assignment.values


# ------------------------------------------------------------------------ bitvec
@FAST
@given(value=st.integers(min_value=0, max_value=2**16 - 1))
def test_bits_round_trip(value):
    """int -> bits -> int is the identity for values that fit the width."""
    assert bits_to_int(int_to_bits(value, 16)) == value


# ------------------------------------------------------------------------- stats
@FAST
@given(
    sample=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=50),
    factor=st.floats(min_value=0.1, max_value=100.0),
)
def test_estimate_scaling_is_linear(sample, factor):
    """Scaling the observations scales the mean estimate linearly."""
    base = sample_statistics(sample)
    scaled = sample_statistics([x * factor for x in sample])
    assert abs(scaled.mean - base.mean * factor) <= 1e-6 * max(1.0, abs(base.mean * factor))


@FAST
@given(
    costs=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=0, max_size=60),
    cores=st.integers(min_value=1, max_value=32),
)
def test_makespan_bounds(costs, cores):
    """Makespan is between total/cores (and the largest job) and the total work."""
    sim = simulate_makespan(costs, cores)
    total = sum(costs)
    longest = max(costs) if costs else 0.0
    assert sim.makespan <= total + 1e-9
    assert sim.makespan + 1e-9 >= total / cores
    assert sim.makespan + 1e-9 >= longest


# -------------------------------------------------------------------------- luby
@FAST
@given(i=st.integers(min_value=1, max_value=10_000))
def test_luby_values_are_powers_of_two(i):
    """Every Luby element is a power of two no larger than i."""
    value = luby(i)
    assert value & (value - 1) == 0
    assert 1 <= value <= i
