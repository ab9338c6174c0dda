"""``Preprocessor`` against the plain candidate walks it replaced.

The reference is :class:`simplify_reference.ReferencePreprocessor`; every
test here asserts that both return an equal ``PreprocessResult`` (clauses in
order, reconstruction stack, ``fixed`` in order, ``unsat``, every counter but
``wall_time``, trace events) under five configurations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from simplify_reference import assert_same_as_reference, reference_normalize_clause

from repro.api.registry import get_cipher
from repro.problems import make_inversion_instance
from repro.sat.formula import CNF, normalize_clause
from repro.sat.simplify import PreprocessConfig

#: The configurations every comparison runs under.
CONFIGS = {
    "default": PreprocessConfig(),
    "probing-and-bce": PreprocessConfig(
        failed_literal_probing=True, blocked_clause_elimination=True
    ),
    "growth-4-occurrences-40": PreprocessConfig(max_growth=4, max_occurrences=40),
    "no-elimination": PreprocessConfig(variable_elimination=False),
    "no-subsumption": PreprocessConfig(subsumption=False),
}


#: (cipher, known bits): the tiny encodings, bivium-tiny weakened as perfbench's Bivium16.
CIPHERS = [("geffe-tiny", 0), ("a51-tiny", 0), ("bivium-tiny", 8), ("grain-tiny", 0), ("trivium-tiny", 0)]


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("cipher,known_bits", CIPHERS)
def test_cipher_encodings_match_the_reference(cipher, known_bits, config_name):
    for seed in (1, 3):
        instance = make_inversion_instance(get_cipher(cipher)(), seed=seed, known_bits=known_bits)
        for frozen in ((), frozenset(instance.start_set)):
            assert_same_as_reference(instance.cnf, CONFIGS[config_name], frozen)


@st.composite
def formulas(draw):
    """A CNF and a frozen set, built so that every rule has something to do.

    Clauses may repeat a literal or hold both polarities of a variable.
    AND-gate definitions (what variable elimination removes), supersets and
    near-copies with one literal negated (what subsumption and
    self-subsumption act on), exact duplicates and a unit clause are added
    on purpose.  In most formulas every clause the drawn assignment falsifies
    then has its first literal negated; one in ten also holds an empty clause.
    """
    num_vars = draw(st.integers(min_value=4, max_value=14))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda variable: st.sampled_from((variable, -variable))
    )
    clauses = draw(st.lists(st.lists(literal, min_size=2, max_size=4), min_size=1, max_size=24))
    for out, first, second in draw(st.lists(st.tuples(literal, literal, literal), max_size=4)):
        clauses += [[-out, first], [-out, second], [out, -first, -second]]
    for base, extra in draw(
        st.lists(st.tuples(st.sampled_from(clauses), st.lists(literal, max_size=2)), max_size=6)
    ):
        clauses.append(base + extra)  # a superset (or a copy) of ``base``
    for base, index, extra in draw(
        st.lists(
            st.tuples(st.sampled_from(clauses), st.integers(0, 3), st.lists(literal, max_size=2)),
            max_size=6,
        )
    ):
        flipped = list(base)
        flipped[index % len(flipped)] *= -1  # strengthened by ``base``
        clauses.append(flipped + extra)
    clauses += draw(st.lists(literal.map(lambda lit: [lit]), max_size=1))
    # A middle value: hypothesis draws the ends of a range more often.
    if draw(st.integers(min_value=0, max_value=4)) != 2:
        values = draw(st.lists(st.booleans(), min_size=num_vars, max_size=num_vars))
        clauses = [
            clause if any(values[abs(lit) - 1] == (lit > 0) for lit in clause)
            else [-clause[0], *clause[1:]]
            for clause in clauses
        ]
    clauses = draw(st.permutations(clauses))
    if draw(st.integers(min_value=0, max_value=9)) == 5:
        clauses.insert(draw(st.integers(min_value=0, max_value=len(clauses))), [])
    frozen = draw(st.sets(st.integers(min_value=1, max_value=num_vars)))
    return CNF(clauses, num_vars), frozen


@settings(max_examples=150, deadline=None)
@given(case=formulas())
def test_random_formulas_match_the_reference(case):
    cnf, frozen = case
    for config in CONFIGS.values():
        assert_same_as_reference(cnf, config, frozen)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-12, max_value=12), max_size=8))
def test_normalize_clause_matches_the_reference(literals):
    try:
        expected = reference_normalize_clause(literals)
    except ValueError:
        with pytest.raises(ValueError):
            normalize_clause(literals)
    else:
        assert normalize_clause(literals) == expected
