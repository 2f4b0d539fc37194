"""The oracles' binary relations, algebra invariants, structure extraction."""

import pickle
import random

import pytest

from relalg import (AtomStructure, ConcreteAlgebra, ConcreteAlgebraError,
                    build_group, concrete, extract_atom_structure,
                    rel_algebra)
from relalg.atoms import usable_atom_name

from conftest import (ConcreteRelation, atom_relations,
                      relation_compose_oracle, relation_converse_oracle)
from conftest import report_codes


def random_relation(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.4]
    return ConcreteRelation.from_pairs(n, pairs)


def test_constructors_and_views():
    r = ConcreteRelation.from_pairs(3, [(0, 1), (2, 2), (0, 1)])
    assert r.pairs() == ((0, 1), (2, 2))
    assert r.contains(0, 1) and not r.contains(1, 0)
    assert ConcreteRelation.empty(2).pairs() == ()
    assert ConcreteRelation.identity(3).pairs() == ((0, 0), (1, 1), (2, 2))
    assert len(ConcreteRelation.universal(2).pairs()) == 4


def test_out_of_range_pairs_rejected():
    with pytest.raises(ValueError):
        ConcreteRelation.from_pairs(2, [(0, 2)])
    with pytest.raises(ValueError):
        ConcreteRelation.from_pairs(2, [(-1, 0)])


def test_compose_and_converse_match_oracle():
    rng = random.Random(7)
    for n in (1, 2, 3, 5):
        for _ in range(40):
            r, t = random_relation(rng, n), random_relation(rng, n)
            assert r.compose(t) == relation_compose_oracle(r, t)
            assert r.converse() == relation_converse_oracle(r)


def test_complement_and_lattice_ops():
    r = ConcreteRelation.from_pairs(2, [(0, 0), (1, 0)])
    c = r.complement()
    assert (r | c) == ConcreteRelation.universal(2)
    assert (r & c) == ConcreteRelation.empty(2)
    assert r <= ConcreteRelation.universal(2)
    assert r.intersects(ConcreteRelation.from_pairs(2, [(1, 0)]))


def test_composition_associative_on_random_relations():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 5)
        a, b, c = (random_relation(rng, n) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_converse_antidistributes_over_composition():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 5)
        a, b = random_relation(rng, n), random_relation(rng, n)
        assert a.compose(b).converse() == b.converse().compose(a.converse())


def test_permuted():
    r = ConcreteRelation.from_pairs(3, [(0, 1), (1, 2)])
    assert r.permuted((2, 0, 1)).pairs() == ((0, 1), (2, 0))


def test_size_mismatch_rejected():
    a = ConcreteRelation.universal(2)
    b = ConcreteRelation.universal(3)
    with pytest.raises(ValueError):
        a.compose(b)


# --- algebra invariants ---------------------------------------------------


def test_type6_algebra_invariants(type6_algebra):
    assert type6_algebra.invariant_violations() == ()
    type6_algebra.require_invariants()


def test_overlapping_atoms_reported():
    with pytest.raises(ConcreteAlgebraError) as exc:
        ConcreteAlgebra.from_pairs(2, ("x", "y"), (
            [(0, 0), (0, 1)], [(0, 1), (1, 0), (1, 1)]))
    assert exc.value.violations == (
        "not a partition: atoms x and y overlap at pair (0,1)",)


def test_uncovered_pair_reported():
    with pytest.raises(ConcreteAlgebraError) as exc:
        ConcreteAlgebra.from_pairs(2, ("x",), ([(0, 0), (1, 1), (0, 1)],))
    assert exc.value.violations == (
        "not a partition: pair (1,0) is in no atom",)


def test_from_pairs_takes_each_atom_as_a_set():
    # a pair listed twice in one atom is no overlap, and the order of an
    # atom's pairs does not matter
    c = ConcreteAlgebra.from_pairs(2, ("e0", "a0"), (
        [(1, 1), (0, 0), (1, 1)], [(1, 0), (0, 1), (0, 1)]))
    assert c.owner == (0, 1, 1, 0)
    assert c == rel_algebra(build_group(2, [(1, 0)]))


@pytest.mark.parametrize("size", [2.0, "2"])
def test_from_pairs_refuses_a_size_that_is_no_int(size):
    # the constructor's size check runs before the owner table is built
    with pytest.raises(ValueError) as exc:
        ConcreteAlgebra.from_pairs(size, ("a",),
                                   [[(0, 0), (0, 1), (1, 0), (1, 1)]])
    assert str(exc.value) == f"base set size {size!r} is not an int"


def test_converse_closure_violation_reported():
    # rows partition the square but the converse of a straddles both atoms
    c = ConcreteAlgebra.from_pairs(2, ("a", "b"), (
        [(0, 0), (0, 1)], [(1, 0), (1, 1)]))
    msgs = c.invariant_violations()
    assert any("not closed under converse" in m for m in msgs)


def test_identity_straddling_atom_reported():
    c = ConcreteAlgebra.from_pairs(2, ("x", "y"), (
        [(0, 0), (0, 1)], [(1, 0), (1, 1)]))
    msgs = c.invariant_violations()
    assert any("meets the identity without lying inside it" in m for m in msgs)


def test_composition_closure_violation_reported():
    # {(0,1)} ; {(1,2)} = {(0,2)} which straddles the big diversity atom
    c = ConcreteAlgebra.from_pairs(3, ("e", "a", "b", "rest"), (
        [(0, 0), (1, 1), (2, 2)], [(0, 1)], [(1, 2)],
        [(1, 0), (2, 1), (0, 2), (2, 0)]))
    msgs = c.invariant_violations()
    assert any("not closed under composition" in m for m in msgs)


def test_extract_rejects_an_algebra_not_closed_under_composition():
    # partition, converse and identity checks pass; s;s covers (0,0) and
    # (1,1) but not (2,2), so the cycle table cannot be read off one pair
    c = ConcreteAlgebra.from_pairs(3, ("e", "s", "rest"), (
        [(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 0)],
        [(0, 2), (2, 0), (1, 2), (2, 1)]))
    with pytest.raises(ConcreteAlgebraError,
                       match="s;s meets atom e without covering it"):
        extract_atom_structure(c)


@pytest.mark.parametrize("base_size, owner", [
    (2.0, (0, 0, 0, 0)), (True, (0,))])
def test_algebra_refuses_a_size_that_is_no_int(base_size, owner):
    # as the owner entries: 2.0 would fail in format_concrete_algebra with
    # a TypeError, and True would be written as `set True`
    with pytest.raises(ValueError, match="is not an int"):
        ConcreteAlgebra(base_size, ("a",), owner)


def test_algebra_constructor_rejects_malformed_input():
    with pytest.raises(ValueError, match="at least one atom"):
        ConcreteAlgebra(2, (), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="duplicate atom name"):
        ConcreteAlgebra(2, ("x", "x"), (0, 1, 1, 0))
    with pytest.raises(ValueError, match="base set must be nonempty"):
        ConcreteAlgebra(0, ("x",), ())
    with pytest.raises(ValueError, match="owner table of 4 entries"):
        ConcreteAlgebra(2, ("x",), (0,) * 9)
    # an atom that owns no pair, and a pair owned by no named atom
    with pytest.raises(ValueError, match="every atom a pair"):
        ConcreteAlgebra(2, ("x", "y"), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="every atom a pair"):
        ConcreteAlgebra(2, ("x",), (0, 1, 1, 0))
    with pytest.raises(ValueError, match="every atom a pair"):
        ConcreteAlgebra(2, ("x", "y"), (0, -1, 1, 0))
    # ids equal to 0 and 1 that are no ints: extraction reads its ids off
    # the table unchecked
    for bad in ((0.0, 1, 1, 0), (0, True, True, 0), (0, 1, 1.0, 0)):
        with pytest.raises(ValueError, match="every atom a pair"):
            ConcreteAlgebra(2, ("x", "y"), bad)
    with pytest.raises(ValueError, match="outside base set"):
        ConcreteAlgebra.from_pairs(2, ("x",), ([(0, 2)],))


@pytest.mark.parametrize("build,message", [
    (lambda: ConcreteAlgebra(1, ("a",), 0), concrete._OWNER_RULE),
    (lambda: ConcreteAlgebra.from_pairs(1, ("a",), None),
     "atom_pairs must list the pairs of each atom"),
    (lambda: ConcreteAlgebra.from_pairs(1, ("a",), [[0]]),
     "each pair must be a tuple of two coordinates"),
    (lambda: ConcreteAlgebra.from_pairs(1, ("a",), [[(0,)]]),
     "each pair must be a tuple of two coordinates"),
], ids=["owner-int", "pairs-none", "pair-int", "pair-one-coordinate"])
def test_arguments_of_the_wrong_type_or_shape_are_refused(build, message):
    # each ended in TypeError, or in Python's own "not enough values to
    # unpack"
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_from_pairs_checks_names_before_the_partition():
    with pytest.raises(ValueError, match="unusable atom name"):
        ConcreteAlgebra.from_pairs(2, ("x y",), ([(0, 0)],))


def test_a_name_that_is_no_str_is_refused():
    # both paths refuse an int or bytes name as unusable, where the name
    # test raised TypeError
    with pytest.raises(ValueError, match="^unusable atom name 5$"):
        ConcreteAlgebra(1, (5,), (0,))
    with pytest.raises(ValueError, match="^unusable atom name b'a'$"):
        ConcreteAlgebra.from_pairs(1, [b"a"], [[(0, 0)]])


def test_from_pairs_checks_each_name_once(monkeypatch):
    # the record is set once from_pairs' own checks pass, without the
    # constructor's second pass; an atom with no pairs is still refused
    calls = []
    monkeypatch.setattr(concrete, "usable_atom_name",
                        lambda name: calls.append(name) or True)
    c = ConcreteAlgebra.from_pairs(2, ("e0", "a0"), (
        [(0, 0), (1, 1)], [(0, 1), (1, 0)]))
    assert calls == ["e0", "a0"]
    assert c == ConcreteAlgebra(2, ("e0", "a0"), (0, 1, 1, 0))
    with pytest.raises(ValueError, match="every atom a pair"):
        ConcreteAlgebra.from_pairs(1, ("x", "y"), ([(0, 0)], []))


def test_from_pairs_keeps_the_constructors_id_rule():
    # more pair lists than names get the owner rule, overlapping or not,
    # and a coordinate that is no int is refused, where 1.0 raised
    # TypeError and (True, 1) was read as (1, 1)
    for lists in ([[(0, 0)], [(0, 0)]], [[(0, 0)], [(0, 0)], []],
                  [[(0, 0)], []]):
        with pytest.raises(ValueError) as exc:
            ConcreteAlgebra.from_pairs(1, ["a"], lists)
        assert str(exc.value) == concrete._OWNER_RULE
    good = [[(0, 0), (1, 1)], [(0, 1), (1, 0)]]
    assert ConcreteAlgebra.from_pairs(2, ["e", "a"], good).owner == (0, 1, 1, 0)
    for bad in ([(0, 0), (1.0, 1)], [(0, 0), (True, 1), (1, 1)],
                [(0, 0), (1, 1), (False, 0)], [(0, 0), (1, 1), ("1", 1)]):
        with pytest.raises(ValueError, match="pair coordinates must be ints"):
            ConcreteAlgebra.from_pairs(2, ["e", "a"], [bad, good[1]])
    # pairs given as iterators are read once, as before
    c = ConcreteAlgebra.from_pairs(2, ["e", "a"], (iter(p) for p in good))
    assert c.owner == (0, 1, 1, 0)


def test_algebra_and_structure_share_the_atom_name_rule():
    # ConcreteAlgebra rejects exactly the names validation flags, so every
    # algebra that builds extracts to a structure with usable names
    swap = rel_algebra(build_group(2, [(1, 0)]))
    cycles = extract_atom_structure(swap).cycles
    for name in ("e0", "1'", "x~", "e:0", ":", "e#0", "e 0", "e\t0", ""):
        s = AtomStructure((name, "a0"), (0, 1), {0}, cycles)
        assert ("bad-atom-name" in report_codes(s.validation)) != usable_atom_name(name)
        if usable_atom_name(name):
            c = ConcreteAlgebra(2, (name, "a0"), swap.owner)
            assert extract_atom_structure(c).validation.ok, name
        else:
            with pytest.raises(ValueError, match="unusable atom name"):
                ConcreteAlgebra(2, (name, "a0"), swap.owner)


# --- extraction -----------------------------------------------------------


def test_extract_swap_structure():
    s = extract_atom_structure(rel_algebra(build_group(2, [(1, 0)])))
    assert s.atom_names == ("e0", "a0")
    assert s.converse_map == (0, 1)
    assert s.identity_atoms == {0}
    assert s.cycles == {(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1)}
    assert s.validation.ok


def test_extraction_builds_its_cycle_set_when_read():
    # the cycles are a field like the others: equality, hash, repr and
    # pickle read them, and give what a constructor-built copy gives
    c = rel_algebra(build_group(3, [(1, 2, 0)]))
    s, t = extract_atom_structure(c), extract_atom_structure(c)
    assert "cycles" not in s.__dict__
    copy = AtomStructure(t.atom_names, t.converse_map, t.identity_atoms,
                         t.cycles)
    assert (s, hash(s), repr(s)) == (copy, hash(copy), repr(copy))
    assert pickle.loads(pickle.dumps(extract_atom_structure(c))) == copy


def test_extract_z3_structure():
    s = extract_atom_structure(rel_algebra(build_group(3, [(1, 2, 0)])))
    assert s.atom_names == ("e0", "a0", "a1")
    assert s.converse_map == (0, 2, 1)
    assert len(s.cycles) == 9
    assert (1, 1, 2) in s.cycles and (1, 1, 1) not in s.cycles


def test_extract_type6_structure(type6_algebra):
    s = extract_atom_structure(type6_algebra)
    assert s.atom_names == ("e0", "d0", "e1", "d1", "x0", "x1")
    assert s.identity_atoms == {0, 2}
    assert s.converse_map == (0, 1, 2, 3, 5, 4)
    # the cross atoms compose to a full block: x0;x1 covers e0 and d0
    assert (4, 5, 0) in s.cycles and (4, 5, 1) in s.cycles
    assert s.validation.ok


def test_extraction_validates_for_every_small_involution():
    from conftest import involutions
    for n in range(1, 6):
        for g in involutions(n):
            s = extract_atom_structure(rel_algebra(build_group(n, [g])))
            assert s.validation.ok, (n, g)


def test_full_algebra_of_singletons_extracts_valid_structure():
    # every pair its own atom: the largest proper algebra on the base
    for n in (2, 3):
        names = tuple(f"s{i}{j}" for i in range(n) for j in range(n))
        c = ConcreteAlgebra.from_pairs(n, names, ([(i, j)] for i in range(n)
                                                  for j in range(n)))
        assert c.invariant_violations() == ()
        s = extract_atom_structure(c)
        assert s.validation.ok
        assert len(s.identity_atoms) == n


def test_abstract_ops_agree_with_concrete_ops_on_all_elements():
    """Composition and converse computed from the extracted cycle list match
    the direct pair computations, across every pair of elements."""
    for gens in ((1, 2, 0), (0, 2, 1)):
        c = rel_algebra(build_group(3, [gens]))
        s = extract_atom_structure(c)
        rels = atom_relations(c)

        def interp(mask):
            r = ConcreteRelation.empty(c.base_size)
            for a in range(c.n_atoms):
                if mask >> a & 1:
                    r = r | rels[a]
            return r

        for xm in range(1 << c.n_atoms):
            assert interp(s.converse_mask(xm)) == interp(xm).converse()
            for ym in range(1 << c.n_atoms):
                assert interp(s.compose_mask(xm, ym)) == \
                    interp(xm).compose(interp(ym))
