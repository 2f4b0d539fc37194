"""Permutation groups, orbit partitions, compatible-relation algebras."""

import random

import pytest

import relalg.actions
from relalg import (ActionError, ConcreteAlgebra, GroupAction, InternalError,
                    build_group, pair_orbits, rel_algebra)

from conftest import (DATA, ConcreteRelation, atom_pairs_oracle,
                      atom_relations, compatible_masks_bruteforce,
                      generated_groups, group_closure_oracle,
                      involution_action, involutions, is_compatible,
                      load_action, owner_relations, owner_table_oracle,
                      pair_orbits_oracle, random_prime_cyclic_action,
                      regular_action, union_of_orbits_masks)


def fresh(c):
    """A copy of the algebra with nothing cached, so its invariant check
    runs in full, composition closure included."""
    return ConcreteAlgebra(c.base_size, c.atom_names, c.owner)


def test_build_group_orders():
    # the action keeps its generators; the oracle closes them
    assert build_group(2, [(1, 0)]).generators == ((1, 0),)
    assert len(group_closure_oracle(build_group(3, [(1, 2, 0)]))) == 3
    assert len(group_closure_oracle(build_group(2, [(1, 0)]))) == 2
    assert len(group_closure_oracle(build_group(4, []))) == 1
    assert len(group_closure_oracle(build_group(3, []))) == 1
    assert len(group_closure_oracle(load_action("z3.act"))) == 3
    d5 = load_action("d5.act")
    assert len(group_closure_oracle(d5)) == 10
    s3 = build_group(3, [(1, 0, 2), (0, 2, 1)])
    assert len(group_closure_oracle(s3)) == 6


def test_group_flags():
    # trivial, Z2 and prime-cyclic (every group of prime order is cyclic),
    # read off the oracle's closure since GroupAction keeps no flags
    def order(action):
        return len(group_closure_oracle(action))

    def prime(k):
        return k > 1 and all(k % d for d in range(2, k))

    assert order(build_group(3, [])) == 1
    swap = build_group(2, [(1, 0)])
    assert order(swap) == 2 and prime(order(swap))
    z3 = load_action("z3.act")
    assert prime(order(z3)) and order(z3) != 2
    assert not prime(order(load_action("d5.act")))


def test_build_group_is_closed_and_deterministic():
    elements = group_closure_oracle(build_group(3, [(1, 2, 0)]))
    assert elements == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for p in elements:
        for q in elements:
            assert tuple(p[q[i]] for i in range(3)) in elements


def test_build_group_input_errors():
    with pytest.raises(ActionError, match="nonempty"):
        build_group(0, [])
    with pytest.raises(ActionError, match="expected 3"):
        build_group(3, [(0, 1)])
    with pytest.raises(ActionError, match="repeated"):
        build_group(2, [(0, 0)])
    with pytest.raises(ActionError, match="outside the base set"):
        build_group(2, [(0, 2)])


@pytest.mark.parametrize("base_size, generators, message", [
    (2.0, [(1, 0)], "size 2.0 is not an int"),
    (True, [(0,)], "size True is not an int"),
    (2, [(True, False)], "image True is outside the base set")])
def test_group_action_refuses_a_size_or_image_that_is_no_int(
        base_size, generators, message):
    # as the text format reads them: a size of 2.0 would fail in
    # rel_algebra with a TypeError, and True would be written as
    # `set True` or `gen True False`, which the parser rejects
    with pytest.raises(ActionError, match=message):
        GroupAction(base_size, generators)


def test_group_action_blames_the_caller_for_a_bad_generator():
    # the constructor checks the generators as build_group does, so a
    # generator that is no bijection is an ActionError, not a failed
    # self-check of the orbit algebra
    with pytest.raises(ActionError, match="repeated"):
        rel_algebra(GroupAction(3, ((0, 0, 0),)))


def test_group_action_keeps_its_generators_as_tuples():
    # generators given as lists are stored as tuples, so the record hashes
    a = GroupAction(2, [[1, 0]])
    assert a.generators == ((1, 0),)
    assert hash(a) == hash(build_group(2, [(1, 0)]))
    assert a == build_group(2, [(1, 0)])


def test_pair_orbits_z3():
    owner = pair_orbits(load_action("z3.act"))
    assert owner == (0, 1, 2, 2, 0, 1, 1, 2, 0)
    assert [sorted(o.pairs()) for o in owner_relations(3, owner)] == [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 1), (1, 2), (2, 0)],
        [(0, 2), (1, 0), (2, 1)],
    ]


def test_pair_orbits_partition_the_square():
    for n in range(1, 6):
        for g in involutions(n):
            orbits = owner_relations(n, pair_orbits(build_group(n, [g])))
            seen = set()
            for o in orbits:
                for pr in o.pairs():
                    assert pr not in seen
                    seen.add(pr)
            assert len(seen) == n * n


def test_is_compatible():
    act = load_action("z3.act")
    orbits = owner_relations(3, pair_orbits(act))
    for o in orbits:
        assert is_compatible(o, act)
    assert is_compatible(orbits[0] | orbits[2], act)
    # a strict subset of an orbit is moved off itself
    assert not is_compatible(ConcreteRelation.from_pairs(3, [(0, 1)]), act)
    with pytest.raises(ValueError):
        is_compatible(ConcreteRelation.universal(2), act)


def test_rel_algebra_z3_frozen():
    c = rel_algebra(load_action("z3.act"))
    assert c.atom_names == ("e0", "a0", "a1")
    assert [sorted(r.pairs()) for r in atom_relations(c)] == [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 1), (1, 2), (2, 0)],
        [(0, 2), (1, 0), (2, 1)],
    ]
    assert fresh(c).invariant_violations() == ()


def test_rel_algebra_d5_frozen():
    c = rel_algebra(load_action("d5.act"))
    assert c.atom_names == ("e0", "a0", "a1")
    diag = [(i, i) for i in range(5)]
    near = sorted((i, (i + d) % 5) for i in range(5) for d in (1, 4))
    far = sorted((i, (i + d) % 5) for i in range(5) for d in (2, 3))
    assert [sorted(r.pairs()) for r in atom_relations(c)] == [diag, near, far]


def test_rel_algebra_names_split_identity_from_diversity():
    c = rel_algebra(build_group(3, [(0, 2, 1)]))
    assert c.atom_names == ("e0", "a0", "a1", "e1", "a2")
    for name, rel in zip(c.atom_names, atom_relations(c)):
        inside = all(i == j for i, j in rel.pairs())
        assert inside == name.startswith("e")


def test_rel_algebra_atoms_are_exactly_the_orbits():
    for n in range(1, 6):
        for g in involutions(n):
            act = build_group(n, [g])
            assert rel_algebra(act).owner == pair_orbits(act)


def test_rel_algebra_of_symmetric_group_is_two_atoms():
    c = rel_algebra(build_group(3, [(1, 0, 2), (0, 2, 1)]))
    assert c.atom_names == ("e0", "a0")
    assert len(atom_relations(c)[1].pairs()) == 6


def test_compatible_iff_union_of_orbits_exhaustively():
    """All 512 relations on a 3-point base, for two groups that are not
    generated by involutions."""
    z3 = build_group(3, [(1, 2, 0)])
    s3 = build_group(3, [(1, 0, 2), (0, 2, 1)])
    for act in (z3, s3):
        unions = union_of_orbits_masks(act)
        assert unions == compatible_masks_bruteforce(act)
        for m in range(1 << 9):
            rel = ConcreteRelation(3, tuple((m >> (3 * i)) & 7
                                            for i in range(3)))
            assert is_compatible(rel, act) == (rel.rows in unions)


def test_orbit_sizes_divide_group_order():
    actions = [build_group(3, [(1, 2, 0)]),
               build_group(3, [(1, 0, 2), (0, 2, 1)]),
               load_action("d5.act")]
    for act in actions:
        for orb in owner_relations(act.base_size, pair_orbits(act)):
            assert len(group_closure_oracle(act)) % len(orb.pairs()) == 0


def test_rel_algebra_satisfies_all_algebra_invariants():
    for act in (build_group(3, [(1, 2, 0)]),
                build_group(3, [(1, 0, 2), (0, 2, 1)]),
                load_action("d5.act")):
        assert fresh(rel_algebra(act)).invariant_violations() == ()


def test_pair_orbits_match_the_orbits_under_every_group_element():
    groups = generated_groups(5)
    assert len(groups) == 195
    for act in groups.values():
        assert pair_orbits(act) == \
            owner_table_oracle(pair_orbits_oracle(act)), act.generators


def test_orbit_pairs_are_the_owner_table_grouped():
    # rel_algebra keeps each orbit's pairs as its search found them,
    # sorted; they must be the owner table grouped atom by atom, in row
    # order, as the algebra of any other source reads them
    rng = random.Random(76)
    actions = [*generated_groups(5).values(),
               *(load_action(p.name) for p in sorted(DATA.glob("*.act"))),
               *(involution_action(f, t) for f in range(5) for t in range(4)
                 if f + t),
               regular_action([2, 4]), regular_action([3, 3]),
               *(random_prime_cyclic_action(rng)[1] for _ in range(40))]
    assert len(actions) == 195 + 4 + 19 + 2 + 40
    for act in actions:
        alg = rel_algebra(act)
        assert "_atom_pairs" in alg.__dict__
        assert list(alg._atom_pairs) == atom_pairs_oracle(alg.owner)


def test_rel_algebra_trips_on_broken_pair_orbits(monkeypatch):
    real = relalg.actions._pair_owners
    # dropping D5's reflection leaves Z5's orbits: a closed algebra, but
    # not invariant under the reflection
    monkeypatch.setattr(relalg.actions, "_pair_owners",
                        lambda n, images: real(n, images[:1]))
    with pytest.raises(InternalError, match="generator 1 moves pair"):
        rel_algebra(load_action("d5.act"))

    # merging Z5's orbits of i -> i+1 and i -> i+2: the converse of the
    # merged atom is not an atom
    def merged(n, images):
        owner, orbits = real(n, images)
        return ([k - (k >= 2) for k in owner],
                [*orbits[:1], orbits[1] + orbits[2], *orbits[3:]])
    monkeypatch.setattr(relalg.actions, "_pair_owners", merged)
    with pytest.raises(InternalError, match="not closed under converse"):
        rel_algebra(build_group(5, [(1, 2, 3, 4, 0)]))


def test_d5_adjacent_orbit_composes_to_identity_and_far():
    diag, near, far = atom_relations(rel_algebra(load_action("d5.act")))
    assert near.compose(near) == diag | far
