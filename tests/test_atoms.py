"""Atom structures: orbits, validation, element algebra, axioms."""

import sys

import pytest

from relalg import (AtomStructure, apply_converse, atoms_functional,
                    build_group, check_functional_density, check_z2_axioms,
                    classify_element, close_cycles, compose,
                    extract_atom_structure, is_function, is_pair,
                    is_pair_dense, is_point, is_simple, is_twin, peirce_orbit,
                    rel_algebra, validate_structure)
from relalg.atoms import usable_atom_name

from conftest import (compose_masks_oracle, converse_mask_oracle,
                      load_structure, usable_atom_name_oracle)


# --- Peircean transforms --------------------------------------------------


def test_peirce_orbit_asymmetric_atoms():
    # converse swaps 1 and 2; all six transforms of (1, 1, 2) written out
    conv = (0, 2, 1)
    assert peirce_orbit((1, 1, 2), conv) == {
        (1, 1, 2), (2, 2, 1), (2, 2, 1), (1, 1, 2), (1, 1, 2), (2, 2, 1),
    }
    assert peirce_orbit((0, 1, 1), conv) == {(0, 1, 1), (1, 2, 0), (2, 0, 2)}


def test_peirce_orbit_symmetric_atoms():
    conv = (0, 1, 2)
    assert peirce_orbit((1, 1, 2), conv) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
    assert peirce_orbit((1, 1, 1), conv) == {(1, 1, 1)}


def test_peirce_orbit_is_closed():
    conv = (0, 2, 1, 3)
    orbit = peirce_orbit((1, 3, 2), conv)
    for t in orbit:
        assert peirce_orbit(t, conv) == orbit


def test_close_cycles_is_union_of_orbits(s23):
    reps = [(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 1, 2)]
    closed = close_cycles(reps, s23.converse_map)
    expect = set()
    for t in reps:
        expect |= peirce_orbit(t, s23.converse_map)
    assert closed == expect
    assert closed == s23.cycles


# --- frozen catalog facts -------------------------------------------------


def test_23_cycle_set_frozen(s23):
    assert s23.atom_names == ("1'", "r", "r~")
    assert s23.converse_map == (0, 2, 1)
    assert s23.identity_atoms == {0}
    assert s23.cycles == {
        (0, 0, 0),
        (0, 1, 1), (1, 2, 0), (2, 0, 2),
        (0, 2, 2), (2, 1, 0), (1, 0, 1),
        (1, 1, 2), (2, 2, 1),
    }


def test_57_cycle_count_and_compositions(s57):
    assert len(s57.cycles) == 13
    a = s57.element_from_names(["a"])
    b = s57.element_from_names(["b"])
    assert compose(a, a).atom_names() == ("1'", "b")
    assert compose(b, b).atom_names() == ("1'", "a")
    assert compose(a, b).atom_names() == ("a", "b")


def test_validation_accepts_catalog():
    for name in ("23.ra", "57.ra", "swap.ra", "23_relabeled.ra"):
        assert validate_structure(load_structure(name)).ok, name


# --- corrupted structures -------------------------------------------------


def test_broken_involution_detected(s23):
    bad = AtomStructure(s23.atom_names, (0, 1, 1), s23.identity_atoms,
                        s23.cycles)
    report = validate_structure(bad)
    assert not report.ok
    assert "converse-not-involution" in report.codes()


def test_broken_cycle_law_detected(s23):
    cycles = set(s23.cycles)
    cycles.discard((1, 1, 2))
    bad = AtomStructure(s23.atom_names, s23.converse_map, s23.identity_atoms,
                        frozenset(cycles))
    report = validate_structure(bad)
    assert "cycle-law" in report.codes()
    # the witness names the surviving triple and the missing transform
    msg = next(x.message for x in report.violations if x.code == "cycle-law")
    assert "(r~, r~, r)" in msg and "(r, r, r~)" in msg


def test_missing_domain_atom_detected(s23):
    cycles = set(s23.cycles) - peirce_orbit((0, 1, 1), s23.converse_map)
    bad = AtomStructure(s23.atom_names, s23.converse_map, s23.identity_atoms,
                        frozenset(cycles))
    report = validate_structure(bad)
    assert "missing-domain-atom" in report.codes()
    msg = next(x.message for x in report.violations
               if x.code == "missing-domain-atom")
    assert "(e, r, r)" in msg


def test_identity_atom_with_nontrivial_converse_detected():
    bad = AtomStructure(("e", "f"), (1, 0), frozenset({0}), frozenset())
    assert "identity-not-self-converse" in validate_structure(bad).codes()


def test_identity_law_violation_detected(s23):
    cycles = set(s23.cycles) | peirce_orbit((0, 1, 2), s23.converse_map)
    bad = AtomStructure(s23.atom_names, s23.converse_map, s23.identity_atoms,
                        frozenset(cycles))
    assert "identity-law" in validate_structure(bad).codes()


def test_duplicate_and_unusable_names_detected(s23):
    bad = AtomStructure(("1'", "r", "r"), s23.converse_map,
                        s23.identity_atoms, s23.cycles)
    assert "duplicate-atom-name" in validate_structure(bad).codes()
    bad2 = AtomStructure(("1'", "r", "a:b"), s23.converse_map,
                         s23.identity_atoms, s23.cycles)
    assert "bad-atom-name" in validate_structure(bad2).codes()


def test_atom_name_rule_matches_the_per_character_oracle():
    # one character at a time over every code point, then a few longer
    # names with the character first, inside and last
    for c in range(sys.maxunicode + 1):
        ch = chr(c)
        assert usable_atom_name(ch) == usable_atom_name_oracle(ch), hex(c)
    for name in ("", "a", "1'", "x~", "e:0", "e#0", "e 0", "e\u00a00",
                 "e\u20280", "\u3000e", "e\x1c", "e\u200b0", "e\n"):
        assert usable_atom_name(name) == usable_atom_name_oracle(name), name


def test_empty_structure_detected():
    empty = AtomStructure((), (), frozenset(), frozenset())
    assert validate_structure(empty).codes() == ("empty-structure",)


def test_multiple_domain_atoms_detected():
    # two identity atoms both acting as domain for the same atom
    conv = (0, 1, 3, 2)
    cycles = close_cycles(
        [(0, 0, 0), (1, 1, 1), (0, 2, 2), (1, 2, 2), (0, 3, 3)], conv)
    bad = AtomStructure(("e", "f", "a", "a~"), conv, frozenset({0, 1}),
                        cycles)
    assert "multiple-domain-atoms" in validate_structure(bad).codes()


def test_associativity_violation_detected():
    # one atom, no identity composition at all: (a;a);a = 0 vs a;(a;a) = 0
    # needs a genuinely non-associative table, so use two atoms where
    # e;(e;a) covers a but (e;e);a is empty
    conv = (0, 1)
    cycles = frozenset({(0, 1, 1), (1, 1, 0), (1, 0, 1)})  # no (0,0,0)
    bad = AtomStructure(("e", "a"), conv, frozenset({0}), cycles)
    report = validate_structure(bad)
    assert not report.ok
    assert "associativity" in report.codes()


def test_out_of_range_inputs_rejected_at_construction():
    with pytest.raises(ValueError):
        AtomStructure(("a",), (1,), frozenset(), frozenset())
    with pytest.raises(ValueError):
        AtomStructure(("a",), (0,), frozenset({3}), frozenset())
    with pytest.raises(ValueError):
        AtomStructure(("a",), (0,), frozenset(), frozenset({(0, 0, 5)}))


def test_require_valid_raises_with_report(s23):
    bad = AtomStructure(s23.atom_names, (0, 1, 1), s23.identity_atoms,
                        s23.cycles)
    from relalg import InvalidStructureError
    with pytest.raises(InvalidStructureError):
        bad.require_valid()
    s23.require_valid()  # no error on the valid one


# --- element algebra ------------------------------------------------------


def test_compose_matches_oracle_exhaustively():
    for name in ("23.ra", "57.ra"):
        s = load_structure(name)
        for xm in range(1 << s.n_atoms):
            for ym in range(1 << s.n_atoms):
                got = compose(s.element(xm), s.element(ym)).mask
                assert got == compose_masks_oracle(s, xm, ym), (name, xm, ym)


def test_converse_matches_oracle_exhaustively(s23):
    for m in range(1 << s23.n_atoms):
        got = apply_converse(s23.element(m)).mask
        assert got == converse_mask_oracle(s23, m)


def test_converse_is_involution_on_elements(s57, s23):
    for s in (s57, s23):
        for m in range(1 << s.n_atoms):
            x = s.element(m)
            assert apply_converse(apply_converse(x)) == x


def test_identity_is_neutral(s23):
    e = s23.identity
    for m in range(1, 1 << s23.n_atoms):
        x = s23.element(m)
        assert compose(e, x) == x
        assert compose(x, e) == x


def test_composition_is_monotone(s23):
    small = s23.element_from_names(["r"])
    big = s23.element_from_names(["r", "1'"])
    other = s23.diversity
    assert compose(small, other) <= compose(big, other)


def test_boolean_operations(s23):
    r = s23.element_from_names(["r"])
    assert (r | r.complement()) == s23.one
    assert (r & r.complement()) == s23.zero
    assert r <= s23.one and s23.zero <= r


def test_elements_of_different_structures_do_not_mix(s23, s57):
    with pytest.raises(ValueError):
        compose(s23.one, s57.one)


# --- element classification ----------------------------------------------


def test_element_classes_in_23(s23):
    one_prime = s23.identity
    r = s23.element_from_names(["r"])
    assert not is_point(one_prime) and not is_pair(one_prime)
    assert not is_twin(one_prime) and is_function(one_prime)
    assert is_function(r) and not is_point(r) and not is_pair(r)
    c = classify_element(r)
    assert (c.is_point, c.is_pair, c.is_twin, c.is_function) == (
        False, False, False, True)


def test_element_classes_in_swap(swap_structure):
    s = swap_structure
    e = s.identity
    d = s.element_from_names(["d"])
    assert is_pair(e) and is_twin(e) and not is_point(e)
    assert is_function(e) and is_function(d)


def test_element_classes_in_57(s57):
    a = s57.element_from_names(["a"])
    assert not is_function(a)
    assert not is_function(apply_converse(a))
    assert not is_pair(s57.identity)


def test_point_in_trivial_two_point_structure():
    # two points, no twins: identity atoms of the trivial action on 2
    from relalg import build_group, extract_atom_structure, rel_algebra
    s = extract_atom_structure(rel_algebra(build_group(2, [(0, 1)])))
    e0 = s.element_from_names(["e0"])
    assert is_point(e0) and is_pair(e0) and not is_twin(e0)


def test_classification_undefined_on_zero(s23):
    with pytest.raises(ValueError):
        is_point(s23.zero)
    with pytest.raises(ValueError):
        classify_element(s23.zero)


# --- structure-level axioms ----------------------------------------------


def test_axioms_frozen_for_catalog(s23, s57, swap_structure):
    assert check_z2_axioms(s23).as_triple() == (True, False, True)
    assert check_z2_axioms(s57).as_triple() == (True, False, False)
    assert check_z2_axioms(swap_structure).as_triple() == (True, True, True)


def test_axiom_witnesses(s23, s57):
    r23 = check_z2_axioms(s23)
    assert [(f.axiom, f.witness) for f in r23.failures()] == [(2, "1'")]
    r57 = check_z2_axioms(s57)
    assert [(f.axiom, f.witness) for f in r57.failures()] == [
        (2, "1'"), (3, "a")]
    assert r57.failures()[1].condition == "functionality"


def test_simplicity(s23, s57, swap_structure):
    assert is_simple(s23) and is_simple(s57) and is_simple(swap_structure)
    # two identity atoms with no atoms between the blocks: 1;e;1 = e != 1
    product = AtomStructure(("e", "f"), (0, 1), frozenset({0, 1}),
                            frozenset({(0, 0, 0), (1, 1, 1)}))
    assert validate_structure(product).ok
    assert not is_simple(product)


def test_pair_density(s23, swap_structure):
    assert is_pair_dense(s23) == (False, "1'")
    assert is_pair_dense(swap_structure) == (True, None)


def test_atoms_functional(s23, s57, swap_structure):
    assert atoms_functional(s23) == (True, None)
    assert atoms_functional(s57) == (False, "a")
    assert atoms_functional(swap_structure) == (True, None)


def test_functional_density(s23, s57, swap_structure):
    assert check_functional_density(s23)
    assert check_functional_density(swap_structure)
    # only the identity of 5-7 is functional, so the union stops at 1'
    assert not check_functional_density(s57)


def test_element_laws_brute_force(s23):
    """Associativity, converse antidistribution, and monotonicity hold for
    every combination of elements, not just the atoms the validator checks."""
    elems = [s23.element(m) for m in range(1 << s23.n_atoms)]
    for x in elems:
        for y in elems:
            xy = compose(x, y)
            assert apply_converse(xy) == \
                compose(apply_converse(y), apply_converse(x))
            for z in elems:
                assert compose(xy, z) == compose(x, compose(y, z))
                if x <= y:
                    assert compose(x, z) <= compose(y, z)


def test_identity_of_one_atom_structure_is_a_point():
    s = AtomStructure(("1'",), (0,), frozenset({0}),
                      frozenset({(0, 0, 0)}))
    assert validate_structure(s).ok
    cls = classify_element(s.identity)
    assert cls.is_point and cls.is_pair and cls.is_function
    assert not cls.is_twin


def test_pair_density_matches_element_level_definition(s23, s57,
                                                       swap_structure):
    structures = [s23, s57, swap_structure,
                  extract_atom_structure(rel_algebra(
                      build_group(3, [(0, 2, 1)])))]
    for s in structures:
        ident = s.identity.mask
        dense = all(
            any(is_pair(s.element(ym))
                for ym in range(1, xm + 1) if ym & xm == ym)
            for xm in range(1, 1 << s.n_atoms) if xm & ~ident == 0)
        assert dense == is_pair_dense(s)[0]
