"""Points, twins, and the six atom shapes of pair-dense algebras."""

import random

import pytest

from relalg import (BasePartition, ClassificationError, ConcreteAlgebra,
                    ConcreteAlgebraError, build_group, classify_atoms,
                    derive_points_twins, rel_algebra)

from conftest import (algebra_of_relations, atom_relations, involutions,
                      load_concrete, points_twins_oracle, shape_oracle)
from conftest import type_tags


def algebra_of(gen):
    return rel_algebra(build_group(len(gen), [gen]))


def test_derive_swap():
    bp = derive_points_twins(algebra_of((1, 0)))
    points_twins_oracle(bp)
    assert bp.points == ()
    assert bp.twins == ((0, 1),)


def test_derive_trivial_two_points():
    bp = derive_points_twins(algebra_of((0, 1)))
    points_twins_oracle(bp)
    assert bp.points == (0, 1)
    assert bp.twins == ()


def test_derive_mixed():
    bp = derive_points_twins(algebra_of((0, 2, 1)))
    points_twins_oracle(bp)
    assert bp.points == (0,)
    assert bp.twins == ((1, 2),)


def test_derive_rejects_wide_identity_atoms():
    c = rel_algebra(build_group(3, [(1, 0, 2), (0, 2, 1)]))
    with pytest.raises(ClassificationError, match="covers 3 base elements"):
        derive_points_twins(c)
    with pytest.raises(ClassificationError, match="covers 3 base elements"):
        classify_atoms(c)


def test_classify_mixed_action():
    c = algebra_of((0, 2, 1))
    cls = classify_atoms(c)
    assert type_tags(cls) == (1, 4, 4, 2, 2)
    assert cls.tilde == ()
    lines = cls.report_lines()
    assert lines[0] == "points: {0}"
    assert lines[1] == "twins: {1,2}"
    assert "atom e0 type 1 [0]" in lines
    assert "atom a0 type 4 [1 2 0]" in lines


def test_classify_trivial_action_all_points():
    c = algebra_of((0, 1))
    cls = classify_atoms(c)
    assert type_tags(cls) == (1, 3, 3, 1)


def test_classify_double_swap_gives_type5_and_tilde():
    c = algebra_of((1, 0, 3, 2))
    cls = classify_atoms(c)
    assert type_tags(cls) == (2, 2, 5, 5, 5, 5, 2, 2)
    assert cls.tilde == (((0, 1), (2, 3)),)
    assert "tilde: {0,1} ~ {2,3}" in cls.report_lines()


def test_classify_type6(type6_algebra):
    cls = classify_atoms(type6_algebra)
    assert type_tags(cls) == (2, 2, 2, 2, 6, 6)
    assert cls.tilde == ()
    assert 6 in type_tags(cls)


def test_classify_every_small_involution_action_avoids_type6():
    for n in range(1, 6):
        for g in involutions(n):
            c = rel_algebra(build_group(n, [g]))
            cls = classify_atoms(c)
            points_twins_oracle(cls.base)
            assert set(type_tags(cls)) <= {1, 2, 3, 4, 5}, (n, g)


def twin_algebra(n_twins, cross):
    """Twins {0,1}, {2,3}, ..., each with its diagonal and its swap, plus
    the given cross relations: a partition closed under converse when the
    cross relations are."""
    rels = []
    for a in range(0, 2 * n_twins, 2):
        rels += [[(a, a), (a + 1, a + 1)], [(a, a + 1), (a + 1, a)]]
    rels += cross
    return ConcreteAlgebra.from_pairs(
        2 * n_twins, tuple(f"t{i}" for i in range(len(rels))), rels)


def matchings(a, b):
    return [[(a, b), (a + 1, b + 1)], [(a, b + 1), (a + 1, b)]]


def block(a, b):
    return [[(x, y) for x in (a, a + 1) for y in (b, b + 1)]]


# Hand-built algebras with an atom of no shape, split and block atoms
# between the same twins, or an intransitive twin relation fail the
# closure check in derive_points_twins before any shape is read.


def test_unmatched_shape_raises():
    # three of the four cross pairs each way, and the fourth alone
    c = twin_algebra(2, [[(0, 2), (0, 3), (1, 2)], [(1, 3)],
                         [(2, 0), (3, 0), (2, 1)], [(3, 1)]])
    with pytest.raises(ConcreteAlgebraError,
                       match="not closed under composition"):
        classify_atoms(c)


def test_tilde_conflict_raises():
    # matchings one way, a block the other: their converses are no atoms
    c = twin_algebra(2, matchings(0, 2) + block(2, 0))
    with pytest.raises(ConcreteAlgebraError,
                       match="not closed under converse"):
        classify_atoms(c)


def test_tilde_transitivity_enforced():
    # A ~ B ~ C by matchings, A and C joined by blocks: (A;B);(B;C) meets
    # the block A;C without covering it
    cross = []
    for a, b in ((0, 2), (2, 0), (2, 4), (4, 2)):
        cross += matchings(a, b)
    c = twin_algebra(3, cross + block(0, 4) + block(4, 0))
    assert c.invariant_violations()[0].startswith(
        "not closed under composition")
    with pytest.raises(ConcreteAlgebraError,
                       match="not closed under composition"):
        classify_atoms(c)


def test_base_partition_is_sorted():
    bp = BasePartition(4, (3, 1), ((2, 0),))
    assert bp.points == (1, 3)
    assert bp.twins == ((0, 2),)


def test_classification_is_invariant_under_relabeling():
    perms = [(2, 0, 3, 1), (3, 1, 0, 2), (1, 3, 2, 0)]
    for c in (algebra_of((1, 0, 3, 2)), load_concrete("type6.ca")):
        tags = sorted(type_tags(classify_atoms(c)))
        for p in perms:
            moved = algebra_of_relations(
                c.base_size, c.atom_names,
                [r.permuted(p) for r in atom_relations(c)])
            assert sorted(type_tags(classify_atoms(moved))) == tags


def test_points_and_twins_are_fixed_points_and_two_cycles():
    for n in range(1, 5):
        for g in involutions(n):
            bp = derive_points_twins(rel_algebra(build_group(n, [g])))
            points_twins_oracle(bp)
            assert bp.points == tuple(i for i in range(n) if g[i] == i)
            assert bp.twins == tuple((i, g[i]) for i in range(n) if g[i] > i)


def random_pair_dense_algebra(rng):
    """The orbit algebra of a random group whose orbits have at most two
    points: a shuffled base of points and twins, and one to three
    generators that each swap a random set of the twins."""
    n = rng.randint(1, 8)
    base = rng.sample(range(n), n)
    twins = [base[k:k + 2] for k in range(0, rng.randint(0, n // 2) * 2, 2)]
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = list(range(n))
        for a, b in twins:
            if rng.random() < 0.5:
                g[a], g[b] = b, a
        gens.append(tuple(g))
    return rel_algebra(build_group(n, gens))


def joined_twins(c, cls, shape):
    """The unordered pairs of twins joined by an atom of the given shape."""
    out = set()
    for rel, tag in zip(atom_relations(c), type_tags(cls)):
        if tag == shape:
            pairs = rel.pairs()
            out.add(frozenset((tuple(sorted({i for i, _ in pairs})),
                               tuple(sorted({j for _, j in pairs})))))
    return out


def test_classification_matches_the_pair_pattern_oracle():
    # closed algebras only: on them every atom has a shape and the twin
    # relation is an equivalence, lemmas the classifier no longer checks
    rng = random.Random(11)
    cases = ([rel_algebra(build_group(n, [g]))
              for n in range(1, 7) for g in involutions(n)]
             + [load_concrete("type6.ca")]
             + [random_pair_dense_algebra(rng) for _ in range(1000)])
    shapes, nonempty_tilde = set(), 0
    for c in cases:
        cls = classify_atoms(c)
        assert cls.report_lines() == \
            shape_oracle(c, derive_points_twins(c)).report_lines()
        assert set(type_tags(cls)) <= {1, 2, 3, 4, 5, 6}
        tilde = {frozenset(pair) for pair in cls.tilde}
        assert tilde == joined_twins(c, cls, 5)
        assert not tilde & joined_twins(c, cls, 6)
        related = set(cls.tilde) | {(t2, t1) for t1, t2 in cls.tilde}
        for t1, t2 in related:
            for u, t3 in related:
                if u == t2 and t3 != t1:
                    assert (t1, t3) in related, (t1, t2, t3)
        shapes |= set(type_tags(cls))
        nonempty_tilde += bool(cls.tilde)
    assert shapes == {1, 2, 3, 4, 5, 6}
    assert nonempty_tilde > 0
