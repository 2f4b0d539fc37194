"""Permutation groups, orbit partitions, compatible-relation algebras."""

import pytest

from relalg import (ActionError, ConcreteRelation, build_group, compose_perm,
                    identity_perm, is_compatible, pair_orbits, rel_algebra,
                    relation_compose)

from conftest import (compatible_masks_bruteforce, involutions, load_action,
                      union_of_orbits_masks)


def test_identity_and_composition_convention():
    assert identity_perm(3) == (0, 1, 2)
    p = (1, 2, 0)
    q = (0, 2, 1)
    # compose_perm(p, q) applies q first: x -> p[q[x]]
    assert compose_perm(p, q) == (1, 0, 2)
    assert compose_perm(p, identity_perm(3)) == p
    assert compose_perm(identity_perm(3), q) == q


def test_build_group_orders():
    assert build_group(3, [(1, 2, 0)]).order == 3
    assert build_group(2, [(1, 0)]).order == 2
    assert build_group(4, []).order == 1
    d5 = load_action("d5.act")
    assert d5.order == 10
    s3 = build_group(3, [(1, 0, 2), (0, 2, 1)])
    assert s3.order == 6


def test_group_flags():
    assert build_group(3, []).is_trivial
    swap = build_group(2, [(1, 0)])
    assert swap.is_z2 and swap.is_cyclic_of_prime_order
    z3 = load_action("z3.act")
    assert z3.is_cyclic_of_prime_order and not z3.is_z2
    assert not load_action("d5.act").is_cyclic_of_prime_order


def test_build_group_is_closed_and_deterministic():
    g = build_group(3, [(1, 2, 0)])
    assert g.elements == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for p in g.elements:
        for q in g.elements:
            assert compose_perm(p, q) in g.elements


def test_build_group_input_errors():
    with pytest.raises(ActionError, match="nonempty"):
        build_group(0, [])
    with pytest.raises(ActionError, match="expected 3"):
        build_group(3, [(0, 1)])
    with pytest.raises(ActionError, match="repeated"):
        build_group(2, [(0, 0)])
    with pytest.raises(ActionError, match="outside the base set"):
        build_group(2, [(0, 2)])
    with pytest.raises(ActionError, match="exceeds the cap"):
        build_group(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)], max_order=100)


def test_pair_orbits_z3():
    orbits = pair_orbits(load_action("z3.act"))
    assert all(o.base_size == 3 for o in orbits)
    assert [sorted(o.pairs()) for o in orbits] == [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 1), (1, 2), (2, 0)],
        [(0, 2), (1, 0), (2, 1)],
    ]


def test_pair_orbits_partition_the_square():
    for n in range(1, 6):
        for g in involutions(n):
            orbits = pair_orbits(build_group(n, [g]))
            seen = set()
            for o in orbits:
                for pr in o.pairs():
                    assert pr not in seen
                    seen.add(pr)
            assert len(seen) == n * n


def test_is_compatible():
    act = load_action("z3.act")
    orbits = pair_orbits(act)
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
    assert [sorted(r.pairs()) for r in c.atom_relations] == [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 1), (1, 2), (2, 0)],
        [(0, 2), (1, 0), (2, 1)],
    ]
    assert c.invariant_violations() == ()


def test_rel_algebra_d5_frozen():
    c = rel_algebra(load_action("d5.act"))
    assert c.atom_names == ("e0", "a0", "a1")
    diag = [(i, i) for i in range(5)]
    near = sorted((i, (i + d) % 5) for i in range(5) for d in (1, 4))
    far = sorted((i, (i + d) % 5) for i in range(5) for d in (2, 3))
    assert [sorted(r.pairs()) for r in c.atom_relations] == [diag, near, far]


def test_rel_algebra_names_split_identity_from_diversity():
    c = rel_algebra(build_group(3, [(0, 2, 1)]))
    assert c.atom_names == ("e0", "a0", "a1", "e1", "a2")
    for name, rel in zip(c.atom_names, c.atom_relations):
        inside = all(i == j for i, j in rel.pairs())
        assert inside == name.startswith("e")


def test_rel_algebra_atoms_are_exactly_the_orbits():
    for n in range(1, 6):
        for g in involutions(n):
            act = build_group(n, [g])
            assert tuple(rel_algebra(act).atom_relations) == \
                pair_orbits(act)


def test_rel_algebra_of_symmetric_group_is_two_atoms():
    c = rel_algebra(build_group(3, [(1, 0, 2), (0, 2, 1)]))
    assert c.atom_names == ("e0", "a0")
    assert c.atom_relations[1].n_pairs == 6


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
        for orb in pair_orbits(act):
            assert act.order % orb.n_pairs == 0


def test_rel_algebra_satisfies_all_algebra_invariants():
    for act in (build_group(3, [(1, 2, 0)]),
                build_group(3, [(1, 0, 2), (0, 2, 1)]),
                load_action("d5.act")):
        assert rel_algebra(act).invariant_violations() == ()


def test_d5_adjacent_orbit_composes_to_identity_and_far():
    diag, near, far = rel_algebra(load_action("d5.act")).atom_relations
    assert relation_compose(near, near) == diag | far
