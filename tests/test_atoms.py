"""Atom structures: orbits, validation, composition on masks, axioms."""

import sys

import pytest

from relalg import (AtomStructure, build_group, check_z2_axioms,
                    extract_atom_structure, peirce_orbit, rel_algebra)
from relalg.atoms import _close_columns, usable_atom_name

from conftest import (atom_flags_oracle, close_cycles_oracle,
                      compose_masks_oracle, converse_mask_oracle,
                      load_structure, usable_atom_name_oracle)
from conftest import axiom_triple, element_flags, report_codes


def mask_of(s, *names):
    return sum(1 << s.atom_names.index(nm) for nm in names)


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
    closed = frozenset(_close_columns(*zip(*reps), s23.converse_map))
    assert closed == close_cycles_oracle(reps, s23.converse_map)
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
    a, b = mask_of(s57, "a"), mask_of(s57, "b")
    assert s57.compose_mask(a, a) == mask_of(s57, "1'", "b")
    assert s57.compose_mask(b, b) == mask_of(s57, "1'", "a")
    assert s57.compose_mask(a, b) == mask_of(s57, "a", "b")


def test_validation_accepts_catalog():
    for name in ("23.ra", "57.ra", "swap.ra", "23_relabeled.ra"):
        assert load_structure(name).validation.ok, name


# --- corrupted structures -------------------------------------------------


def test_broken_involution_detected(s23):
    bad = AtomStructure(s23.atom_names, (0, 1, 1), s23.identity_atoms,
                        s23.cycles)
    report = bad.validation
    assert not report.ok
    assert "converse-not-involution" in report_codes(report)


def test_broken_cycle_law_detected(s23):
    cycles = set(s23.cycles)
    cycles.discard((1, 1, 2))
    bad = AtomStructure(s23.atom_names, s23.converse_map, s23.identity_atoms,
                        frozenset(cycles))
    report = bad.validation
    assert "cycle-law" in report_codes(report)
    # the witness names the surviving triple and the missing transform
    msg = next(x.message for x in report.violations if x.code == "cycle-law")
    assert "(r~, r~, r)" in msg and "(r, r, r~)" in msg


def test_missing_domain_atom_detected(s23):
    cycles = set(s23.cycles) - peirce_orbit((0, 1, 1), s23.converse_map)
    bad = AtomStructure(s23.atom_names, s23.converse_map, s23.identity_atoms,
                        frozenset(cycles))
    report = bad.validation
    assert "missing-domain-atom" in report_codes(report)
    msg = next(x.message for x in report.violations
               if x.code == "missing-domain-atom")
    assert "(e, r, r)" in msg


def test_identity_atom_with_nontrivial_converse_detected():
    bad = AtomStructure(("e", "f"), (1, 0), frozenset({0}), frozenset())
    assert "identity-not-self-converse" in report_codes(bad.validation)


def test_identity_law_violation_detected(s23):
    cycles = set(s23.cycles) | peirce_orbit((0, 1, 2), s23.converse_map)
    bad = AtomStructure(s23.atom_names, s23.converse_map, s23.identity_atoms,
                        frozenset(cycles))
    assert "identity-law" in report_codes(bad.validation)


def test_identity_law_on_a_converse_that_is_no_involution():
    # the cycle law holds and x;f is 0 or {x} for the identity atom f, but
    # the converse maps both atoms to a, so f;a = {a, f} breaks the clause
    # on the left: without an involution the clauses do not follow from
    # one another
    cycles = {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)}
    bad = AtomStructure(("a", "f"), (0, 0), frozenset({1}), cycles)
    assert "cycle-law" not in report_codes(bad.validation)
    assert [v.message for v in bad.validation.violations
            if v.code == "identity-law"] == [
        "cycle (f, a, f) composes an identity atom on the left but a != f"]


def test_duplicate_and_unusable_names_detected(s23):
    bad = AtomStructure(("1'", "r", "r"), s23.converse_map,
                        s23.identity_atoms, s23.cycles)
    assert "duplicate-atom-name" in report_codes(bad.validation)
    bad2 = AtomStructure(("1'", "r", "a:b"), s23.converse_map,
                         s23.identity_atoms, s23.cycles)
    assert "bad-atom-name" in report_codes(bad2.validation)


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
    assert report_codes(empty.validation) == ("empty-structure",)


def test_multiple_domain_atoms_detected():
    # two identity atoms both acting as domain for the same atom
    conv = (0, 1, 3, 2)
    cycles = close_cycles_oracle(
        [(0, 0, 0), (1, 1, 1), (0, 2, 2), (1, 2, 2), (0, 3, 3)], conv)
    bad = AtomStructure(("e", "f", "a", "a~"), conv, frozenset({0, 1}),
                        cycles)
    assert "multiple-domain-atoms" in report_codes(bad.validation)


def test_associativity_violation_detected():
    # one atom, no identity composition at all: (a;a);a = 0 vs a;(a;a) = 0
    # needs a genuinely non-associative table, so use two atoms where
    # e;(e;a) covers a but (e;e);a is empty
    conv = (0, 1)
    cycles = frozenset({(0, 1, 1), (1, 1, 0), (1, 0, 1)})  # no (0,0,0)
    bad = AtomStructure(("e", "a"), conv, frozenset({0}), cycles)
    report = bad.validation
    assert not report.ok
    assert "associativity" in report_codes(report)


def test_out_of_range_inputs_rejected_at_construction():
    with pytest.raises(ValueError):
        AtomStructure(("a",), (1,), frozenset(), frozenset())
    with pytest.raises(ValueError):
        AtomStructure(("a",), (0,), frozenset({3}), frozenset())
    with pytest.raises(ValueError):
        AtomStructure(("a",), (0,), frozenset(), frozenset({(0, 0, 5)}))


def test_bool_and_float_ids_rejected_at_construction():
    # ids are ints, as in ConcreteAlgebra and GroupAction: False and True
    # equal 0 and 1 but are refused, in every field, as 1.0 is
    names, cycles = ("e", "a"), {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert AtomStructure(names, (0, 1), {0}, cycles).validation.ok
    for conv, ident, cyc, culprit in (
            ((False, True), {False}, cycles, "converse image False"),
            ((0, True), {0}, cycles, "converse image True"),
            ((0, 1), {False}, cycles, "identity atom False"),
            ((0, 1), {0}, cycles - {(1, 1, 0)} | {(1, 1, False)}, "cycle"),
            ((0, 1), {0}, cycles - {(1, 1, 0)} | {(True, 1, 0)}, "cycle"),
            ((0, 1), {0}, cycles - {(1, 1, 0)} | {(1, 1, 0.0)}, "cycle")):
        with pytest.raises(ValueError, match=culprit):
            AtomStructure(names, conv, ident, cyc)


def test_require_valid_raises_with_report(s23):
    bad = AtomStructure(s23.atom_names, (0, 1, 1), s23.identity_atoms,
                        s23.cycles)
    from relalg import InvalidStructureError
    with pytest.raises(InvalidStructureError):
        bad.require_valid()
    s23.require_valid()  # no error on the valid one


# --- composition and converse on masks -----------------------------------


def test_compose_matches_oracle_exhaustively():
    for name in ("23.ra", "57.ra"):
        s = load_structure(name)
        for xm in range(1 << s.n_atoms):
            for ym in range(1 << s.n_atoms):
                got = s.compose_mask(xm, ym)
                assert got == compose_masks_oracle(s, xm, ym), (name, xm, ym)


def test_converse_matches_oracle_exhaustively(s23):
    for m in range(1 << s23.n_atoms):
        assert s23.converse_mask(m) == converse_mask_oracle(s23, m)


def test_converse_is_involution_on_elements(s57, s23):
    for s in (s57, s23):
        for m in range(1 << s.n_atoms):
            assert s.converse_mask(s.converse_mask(m)) == m


def test_identity_is_neutral(s23):
    e = s23.identity_mask
    for m in range(1, 1 << s23.n_atoms):
        assert s23.compose_mask(e, m) == m
        assert s23.compose_mask(m, e) == m


def test_composition_is_monotone(s23):
    small = mask_of(s23, "r")
    big = mask_of(s23, "r", "1'")
    other = s23.full_mask & ~s23.identity_mask
    assert s23.compose_mask(small, other) & ~s23.compose_mask(big, other) == 0


# --- element classification ----------------------------------------------
# element_flags(s, mask) is (point, pair, function); an atom is a twin when
# it is a pair and not a point


def test_element_classes_in_23(s23):
    point, pair, fn = element_flags(s23, s23.identity_mask)
    assert not point and not pair and fn
    assert element_flags(s23, mask_of(s23, "r")) == (False, False, True)


def test_element_classes_in_swap(swap_structure):
    s = swap_structure
    point, pair, fn = element_flags(s, s.identity_mask)
    assert pair and not point and fn
    assert element_flags(s, mask_of(s, "d"))[2]


def test_element_classes_in_57(s57):
    a = mask_of(s57, "a")
    assert not element_flags(s57, a)[2]
    assert not element_flags(s57, s57.converse_mask(a))[2]
    assert not element_flags(s57, s57.identity_mask)[1]


def test_point_in_trivial_two_point_structure():
    # two points, no twins: identity atoms of the trivial action on 2
    s = extract_atom_structure(rel_algebra(build_group(2, [(0, 1)])))
    point, pair, _ = element_flags(s, mask_of(s, "e0"))
    assert point and pair


# --- structure-level axioms ----------------------------------------------


def test_axioms_frozen_for_catalog(s23, s57, swap_structure):
    assert axiom_triple(check_z2_axioms(s23)) == (True, False, True)
    assert axiom_triple(check_z2_axioms(s57)) == (True, False, False)
    assert axiom_triple(check_z2_axioms(swap_structure)) == (True, True, True)


def test_axiom_witnesses(s23, s57):
    r23 = check_z2_axioms(s23)
    assert [(f.axiom, f.witness) for f in r23.failures()] == [(2, "1'")]
    r57 = check_z2_axioms(s57)
    assert [(f.axiom, f.witness) for f in r57.failures()] == [
        (2, "1'"), (3, "a")]
    assert r57.failures()[1].condition == "functionality"


def test_simplicity(s23, s57, swap_structure):
    for s in (s23, s57, swap_structure):
        assert check_z2_axioms(s).simple
    # two identity atoms with no atoms between the blocks: 1;e;1 = e != 1
    product = AtomStructure(("e", "f"), (0, 1), frozenset({0, 1}),
                            frozenset({(0, 0, 0), (1, 1, 1)}))
    assert product.validation.ok
    assert not check_z2_axioms(product).simple


def test_pair_density(s23, swap_structure):
    for s, want in ((s23, (False, "1'")), (swap_structure, (True, None))):
        r = check_z2_axioms(s)
        assert (r.pair_dense, r.pair_dense_witness) == want


def test_atoms_functional(s23, s57, swap_structure):
    for s, want in ((s23, (True, None)), (s57, (False, "a")),
                    (swap_structure, (True, None))):
        r = check_z2_axioms(s)
        assert (r.functional, r.functional_witness) == want


def test_functional_density(s23, s57, swap_structure):
    # the union of x~;y over functional atoms x, y is f~;f for f their
    # join; only the identity of 5-7 is functional, so there it stops at 1'
    for s, dense in ((s23, True), (swap_structure, True), (s57, False)):
        fn = sum(1 << a for a, f in enumerate(atom_flags_oracle(s)) if f[2])
        assert (s.compose_mask(s.converse_mask(fn), fn)
                == s.full_mask) == dense


def test_element_laws_brute_force(s23):
    """Associativity, converse antidistribution, and monotonicity hold for
    every combination of elements, not just the atoms the validator checks."""
    comp, conv = s23.compose_mask, s23.converse_mask
    elems = range(1 << s23.n_atoms)
    for x in elems:
        for y in elems:
            xy = comp(x, y)
            assert conv(xy) == comp(conv(y), conv(x))
            for z in elems:
                assert comp(xy, z) == comp(x, comp(y, z))
                if x & ~y == 0:
                    assert comp(x, z) & ~comp(y, z) == 0


def test_identity_of_one_atom_structure_is_a_point():
    s = AtomStructure(("1'",), (0,), frozenset({0}),
                      frozenset({(0, 0, 0)}))
    assert s.validation.ok
    assert element_flags(s, s.identity_mask) == (True, True, True)


def test_pair_density_matches_element_level_definition(s23, s57,
                                                       swap_structure):
    structures = [s23, s57, swap_structure,
                  extract_atom_structure(rel_algebra(
                      build_group(3, [(0, 2, 1)])))]
    for s in structures:
        ident = s.identity_mask
        dense = all(
            any(element_flags(s, ym)[1]
                for ym in range(1, xm + 1) if ym & xm == ym)
            for xm in range(1, 1 << s.n_atoms) if xm & ~ident == 0)
        assert dense == check_z2_axioms(s).pair_dense
