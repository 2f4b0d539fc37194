"""Property tests on random inputs, drawn by hypothesis when it is
installed; without it they skip."""

import pytest

from relalg import (AtomStructure, build_group, check_action_represents,
                    decide_z2, extract_atom_structure, find_isomorphism,
                    format_atom_structure, format_concrete_algebra,
                    format_group_action, pair_orbits, parse_atom_structure,
                    parse_concrete_algebra, parse_group_action, rel_algebra)
from relalg.atoms import _associativity_witness
from relalg.decision import _power_runs

from conftest import (associativity_witness_oracle, conjugate,
                      emitted_cycle_lines, involution_action,
                      orbit_minimum_cycle_lines, random_prime_cyclic_action,
                      rel_algebra_oracle, shuffled)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def cycle_tables(draw):
    """Any table on at most 5 atoms: any converse map, any identity atoms,
    any cycles, not closed under the Peircean transforms."""
    n = draw(st.integers(1, 5))
    atom = st.integers(0, n - 1)
    converse = draw(st.lists(atom, min_size=n, max_size=n))
    identity = draw(st.frozensets(atom))
    present = draw(st.lists(st.booleans(), min_size=n ** 3, max_size=n ** 3))
    cycles = {(k // n // n, k // n % n, k % n)
              for k, keep in enumerate(present) if keep}
    return AtomStructure(tuple(f"a{i}" for i in range(n)), converse,
                         identity, cycles)


@hypothesis.settings(max_examples=400)
@hypothesis.given(cycle_tables())
def test_associativity_kernel_matches_the_dense_scan(s):
    # on invalid tables too, where a row's left side can reach columns off
    # the support of b and rows with a;b = 0 can fail
    assert _associativity_witness(s) == associativity_witness_oracle(s)


@hypothesis.settings(max_examples=400)
@hypothesis.given(st.data())
def test_power_runs_are_invariant_under_relabelling(data):
    # the runs read only composition and the identity atoms, so they need
    # no valid structure
    s = data.draw(cycle_tables())
    ids = data.draw(st.permutations(range(s.n_atoms)))
    assert _power_runs(conjugate(s, ids)) == _power_runs(s)


@st.composite
def actions(draw):
    """Any action on at most 7 points, generated by 1 to 3 permutations."""
    n = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return build_group(n, gens)


@hypothesis.settings(max_examples=150)
@hypothesis.given(actions())
def test_orbit_kernel_matches_the_group_element_oracle(act):
    # same atoms in the same order under the same names, the partition
    # seeded from the orbit search equal to the one rebuilt from the rows,
    # and an extraction that passes validation: the structure of a proper
    # algebra
    oracle = rel_algebra_oracle(act)
    assert pair_orbits(act) == oracle.atom_relations
    c = rel_algebra(act)
    assert c == oracle
    assert c._partition == oracle._partition
    assert extract_atom_structure(c).validation.ok


def round_trips(parse, format_, x):
    text = format_(x)
    assert parse(text) == x
    assert format_(parse(text)) == text


@hypothesis.settings(max_examples=100)
@hypothesis.given(actions())
def test_action_and_algebra_formats_round_trip(act):
    round_trips(parse_group_action, format_group_action, act)
    round_trips(parse_concrete_algebra, format_concrete_algebra,
                rel_algebra(act))


@hypothesis.settings(max_examples=100)
@hypothesis.given(st.data())
def test_structure_format_round_trips(data):
    s = extract_atom_structure(rel_algebra(data.draw(actions())))
    s = conjugate(s, data.draw(st.permutations(range(s.n_atoms))))
    round_trips(parse_atom_structure, format_atom_structure, s)
    # each Peircean orbit is written as its least member
    assert emitted_cycle_lines(format_atom_structure(s)) == \
        orbit_minimum_cycle_lines(s)


@st.composite
def small_cyclic_actions(draw):
    """An involution with at most 3 points and 3 twins, or a random action
    of a cyclic group of order 2, 3 or 5 on at most 10 points."""
    if draw(st.booleans()):
        points = draw(st.integers(0, 3))
        twins = draw(st.integers(1 if points == 0 else 0, 3))
        return involution_action(points, twins)
    return random_prime_cyclic_action(draw(st.randoms()))[1]


@hypothesis.settings(max_examples=60)
@hypothesis.given(small_cyclic_actions(), small_cyclic_actions(),
                  st.randoms())
def test_answers_do_not_depend_on_atom_names_or_order(action, other, rng):
    # the involutions take the proof's path, the other actions the search
    s = extract_atom_structure(rel_algebra(action))
    t = shuffled(s, rng)
    d, e = decide_z2(s), decide_z2(t)
    assert d.accepted == e.accepted
    assert [f.axiom for f in d.failures] == [f.axiom for f in e.failures]
    w = find_isomorphism(s, t)
    assert w is not None and w.problems() == ()
    for act in (action, other):
        assert (check_action_represents(s, act) is None) == \
            (check_action_represents(t, act) is None)
