"""Points, twins, and the six atom shapes of pair-dense algebras."""

import random

import pytest

from relalg import (BasePartition, ClassificationError, ConcreteAlgebra,
                    ConcreteRelation, build_group, classify_atoms,
                    derive_points_twins, rel_algebra)

from conftest import (involutions, load_concrete, points_twins_oracle,
                      shape_oracle)


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


def test_classify_mixed_action():
    c = algebra_of((0, 2, 1))
    cls = classify_atoms(c, derive_points_twins(c))
    assert cls.type_tags() == (1, 4, 4, 2, 2)
    assert cls.tilde == ()
    lines = cls.report_lines()
    assert lines[0] == "points: {0}"
    assert lines[1] == "twins: {1,2}"
    assert "atom e0 type 1 [0]" in lines
    assert "atom a0 type 4 [1 2 0]" in lines


def test_classify_trivial_action_all_points():
    c = algebra_of((0, 1))
    cls = classify_atoms(c, derive_points_twins(c))
    assert cls.type_tags() == (1, 3, 3, 1)


def test_classify_double_swap_gives_type5_and_tilde():
    c = algebra_of((1, 0, 3, 2))
    cls = classify_atoms(c, derive_points_twins(c))
    assert cls.type_tags() == (2, 2, 5, 5, 5, 5, 2, 2)
    assert cls.tilde == (((0, 1), (2, 3)),)
    assert "tilde: {0,1} ~ {2,3}" in cls.report_lines()


def test_classify_type6(type6_algebra):
    cls = classify_atoms(type6_algebra, derive_points_twins(type6_algebra))
    assert cls.type_tags() == (2, 2, 2, 2, 6, 6)
    assert cls.tilde == ()
    assert 6 in cls.type_tags()


def test_classify_every_small_involution_action_avoids_type6():
    for n in range(1, 6):
        for g in involutions(n):
            c = rel_algebra(build_group(n, [g]))
            bp = derive_points_twins(c)
            points_twins_oracle(bp)
            cls = classify_atoms(c, bp)
            assert set(cls.type_tags()) <= {1, 2, 3, 4, 5}, (n, g)


def classify_atoms_raw(rels, base):
    """Classify bare relations; the classifier reads only names and rows,
    so a partition-incomplete algebra is fine here."""
    names = tuple(f"t{i}" for i in range(len(rels)))
    return classify_atoms(ConcreteAlgebra(base.base_size, names, tuple(rels)),
                          base)


def test_unmatched_shape_raises():
    # three of the four cross pairs between two twins is no shape at all
    base = BasePartition(4, (), ((0, 1), (2, 3)))
    rels = (ConcreteRelation.from_pairs(4, [(0, 2), (0, 3), (1, 2)]),)
    with pytest.raises(ClassificationError, match="matches none"):
        classify_atoms_raw(rels, base)


def test_tilde_conflict_raises():
    # the same two twins joined by a type-5 atom and a type-6 atom
    base = BasePartition(4, (), ((0, 1), (2, 3)))
    rels = (
        ConcreteRelation.from_pairs(4, [(0, 2), (1, 3)]),
        ConcreteRelation.from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
    )
    with pytest.raises(ClassificationError):
        classify_atoms_raw(rels, base)


def test_tilde_transitivity_enforced():
    # A ~ B and B ~ C via type-5 atoms but A and C unrelated via type-6:
    # no concrete algebra does this (the relations are not composition
    # closed), so the classifier gets the bare relations directly
    base = BasePartition(6, (), ((0, 1), (2, 3), (4, 5)))
    t5 = lambda a, c: ConcreteRelation.from_pairs(6, [(a, c), (a + 1, c + 1)])
    t6 = lambda a, c: ConcreteRelation.from_pairs(
        6, [(a, c), (a, c + 1), (a + 1, c), (a + 1, c + 1)])
    rels = (t5(0, 2), t5(2, 0), t5(2, 4), t5(4, 2), t6(0, 4), t6(4, 0))
    with pytest.raises(ClassificationError, match="transitivity"):
        classify_atoms_raw(rels, base)


def test_base_partition_is_sorted():
    bp = BasePartition(4, (3, 1), ((2, 0),))
    assert bp.points == (1, 3)
    assert bp.twins == ((0, 2),)


def test_classification_is_invariant_under_relabeling():
    perms = [(2, 0, 3, 1), (3, 1, 0, 2), (1, 3, 2, 0)]
    for c in (algebra_of((1, 0, 3, 2)), load_concrete("type6.ca")):
        tags = sorted(classify_atoms(c, derive_points_twins(c)).type_tags())
        for p in perms:
            moved = ConcreteAlgebra(
                c.base_size, c.atom_names,
                tuple(r.permuted(p) for r in c.atom_relations))
            bp = derive_points_twins(moved)
            assert sorted(classify_atoms(moved, bp).type_tags()) == tags


def test_points_and_twins_are_fixed_points_and_two_cycles():
    for n in range(1, 5):
        for g in involutions(n):
            bp = derive_points_twins(rel_algebra(build_group(n, [g])))
            points_twins_oracle(bp)
            assert bp.points == tuple(i for i in range(n) if g[i] == i)
            assert bp.twins == tuple((i, g[i]) for i in range(n) if g[i] > i)


def classify_outcome(classify, c, bp):
    try:
        return classify(c, bp).report_lines()
    except ClassificationError as exc:
        return str(exc)


def random_blocks(rng, n):
    """Disjoint points and twins over a shuffled base; some elements are in
    no block."""
    rest = rng.sample(range(n), n)
    points, twins = [], []
    while rest:
        x, roll = rest.pop(), rng.random()
        if roll < 0.3 or not rest:
            points.append(x)
        elif roll < 0.9:
            twins.append((x, rest.pop()))
    return BasePartition(n, points, twins)


def random_relations(rng, bp):
    """A few relations, each a block product, a matching or a random part
    of one, some with a stray pair."""
    n, blocks = bp.base_size, [(p,) for p in bp.points] + list(bp.twins)
    rels = []
    for _ in range(rng.randint(1, 4)):
        pairs = []
        if blocks:
            d, r = rng.choice(blocks), rng.choice(blocks)
            prod = [(x, y) for x in d for y in r]
            pairs = rng.choice((prod, list(zip(d, r)), list(zip(d, r[::-1])),
                                rng.sample(prod, rng.randint(1, len(prod)))))
        if not pairs or rng.random() < 0.1:
            pairs.append((rng.randrange(n), rng.randrange(n)))
        rels.append(ConcreteRelation.from_pairs(n, pairs))
    return rels


def test_classification_matches_the_pair_pattern_oracle():
    cases = [(c, derive_points_twins(c)) for c in
             [rel_algebra(build_group(n, [g]))
              for n in range(1, 7) for g in involutions(n)]
             + [load_concrete("type6.ca")]]
    rng = random.Random(11)
    for _ in range(3000):
        bp = random_blocks(rng, rng.randint(1, 8))
        rels = random_relations(rng, bp)
        names = tuple(f"t{i}" for i in range(len(rels)))
        cases.append((ConcreteAlgebra(bp.base_size, names, tuple(rels)), bp))
    seen = set()  # shape tags, and the last word of each error
    for c, bp in cases:
        got = classify_outcome(classify_atoms, c, bp)
        assert got == classify_outcome(shape_oracle, c, bp), (bp, got)
        seen |= ({got.split()[-1]} if isinstance(got, str) else
                 {ln.split()[3] for ln in got if ln.startswith("atom ")})
    assert seen >= {"1", "2", "3", "4", "5", "6",
                    "shapes", "them", "unrelated"}


def test_overlapping_blocks_raise():
    c = algebra_of((0, 2, 1))
    with pytest.raises(ClassificationError, match="base element 1 lies in two"):
        classify_atoms(c, BasePartition(3, (0, 1), ((1, 2),)))


def test_twin_of_other_than_two_elements_raises():
    # three elements, a repeated one, and a single one are no twin
    for twin in ((0, 1, 2), (1, 1), (2,)):
        with pytest.raises(ClassificationError,
                           match=r"twin \{.*\} does not have exactly two"):
            BasePartition(3, (), (twin,))


def test_element_outside_the_base_raises():
    with pytest.raises(ClassificationError,
                       match=r"block \{7\} has element 7 outside the base 0..2"):
        BasePartition(3, (7,), ((0, 1),))
    with pytest.raises(ClassificationError, match=r"block \{-1,2\}"):
        BasePartition(3, (), ((2, -1),))
