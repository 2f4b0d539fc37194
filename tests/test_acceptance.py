"""Acceptance suite: one test per criterion, one printed line each.

Every expected value here was computed by an independent oracle (pair
scans, exhaustive enumeration, hand calculation on the cycle lists)
before being frozen into assertions.
"""

import functools
import random
import time

import pytest

from relalg import (AtomStructure, build_group, check_z2_axioms,
                    classify_atoms, decide_z2, extract_atom_structure,
                    peirce_orbit, rel_algebra, verify_decision)
from relalg.cli import main

from conftest import (DATA, atom_flags_oracle, atom_relations,
                      compatible_masks_bruteforce, group_closure_oracle,
                      involutions, load_concrete, load_structure,
                      points_twins_oracle, random_prime_cyclic_action,
                      union_of_orbits_masks)
from conftest import element_flags, report_codes, type_tags


def report(capsys, n, text, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    with capsys.disabled():
        print(f"criterion {n} PASS: {text}{suffix}")


@functools.lru_cache(maxsize=1)
def involution_cases():
    """Every order-two action on 1..6 points with its algebra and structure."""
    cases = []
    for n in range(1, 7):
        for g in involutions(n):
            algebra = rel_algebra(build_group(n, [g]))
            cases.append((n, g, algebra, extract_atom_structure(algebra)))
    return tuple(cases)


def test_criterion_1_z3_example(tmp_path, capsys):
    t0 = time.perf_counter()
    c = rel_algebra(build_group(3, [(1, 2, 0)]))
    assert c.atom_names == ("e0", "a0", "a1")
    assert [sorted(r.pairs()) for r in atom_relations(c)] == [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 1), (1, 2), (2, 0)],
        [(0, 2), (1, 0), (2, 1)],
    ]
    out = tmp_path / "rel.txt"
    assert main(["rel", str(DATA / "z3.act"), "--output", str(out)]) == 0
    assert "atom a0 = (0,1) (1,2) (2,0)" in out.read_text().splitlines()
    iso_out = tmp_path / "iso.txt"
    structure = tmp_path / "z3.ra"
    structure.write_text(out.read_text().split("\n\n")[1])
    assert main(["iso", str(structure), str(DATA / "23.ra"),
                 "--output", str(iso_out)]) == 0
    assert iso_out.read_text().splitlines() == [
        "map e0 -> 1'", "map a0 -> r", "map a1 -> r~"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(capsys, 1, "cyclic-3 self-action algebra matches the catalog "
           "entry and maps onto the bundled three-atom structure", elapsed)


def test_criterion_2_d5_example(tmp_path, capsys):
    t0 = time.perf_counter()
    c = rel_algebra(build_group(5, [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)]))
    assert c.atom_names == ("e0", "a0", "a1")
    diag = [(i, i) for i in range(5)]
    near = sorted((i, (i + d) % 5) for i in range(5) for d in (1, 4))
    far = sorted((i, (i + d) % 5) for i in range(5) for d in (2, 3))
    assert [sorted(r.pairs()) for r in atom_relations(c)] == [diag, near, far]
    iso_out = tmp_path / "iso.txt"
    structure = tmp_path / "d5.ra"
    from relalg import format_atom_structure
    structure.write_text(format_atom_structure(extract_atom_structure(c)))
    assert main(["iso", str(structure), str(DATA / "57.ra"),
                 "--output", str(iso_out)]) == 0
    assert iso_out.read_text().splitlines() == [
        "map e0 -> 1'", "map a0 -> a", "map a1 -> b"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(capsys, 2, "dihedral-10 action yields the distance-0/1/2 "
           "relations and maps onto the bundled symmetric structure", elapsed)


def test_criterion_3_involution_round_trip(capsys):
    t0 = time.perf_counter()
    cases = involution_cases()
    assert len(cases) == 1 + 2 + 4 + 10 + 26 + 76 == 119
    for n, g, algebra, structure in cases:
        d = decide_z2(structure)
        assert d.accepted, (n, g)
        assert verify_decision(d).ok, (n, g)
        rebuilt = d.action.generators[0]
        assert sum(1 for i, x in enumerate(rebuilt) if x == i) == \
            sum(1 for i in range(n) if g[i] == i), (n, g)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(capsys, 3, "all 119 order-two actions on 1..6 points round-trip "
           "through decide/verify with fixed-point counts preserved", elapsed)


def test_criterion_4_rejection_soundness(capsys):
    s23 = load_structure("23.ra")
    d23 = decide_z2(s23)
    assert not d23.accepted
    assert (2, "pair-density", "1'") in [
        (f.axiom, f.condition, f.witness) for f in d23.failures]
    assert not element_flags(s23, 1 << s23.atom_names.index("1'"))[1]

    s57 = load_structure("57.ra")
    d57 = decide_z2(s57)
    assert not d57.accepted
    assert (3, "functionality", "a") in [
        (f.axiom, f.condition, f.witness) for f in d57.failures]
    a = 1 << s57.atom_names.index("a")
    assert not element_flags(s57, a)[2]
    assert not element_flags(s57, s57.converse_mask(a))[2]
    report(capsys, 4, "both catalog structures are rejected with witnesses "
           "that re-check from the element inequalities alone")


def test_criterion_5_prime_cyclic_functionality(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260817)
    checked = 0
    while checked < 120:
        p, action = random_prime_cyclic_action(rng)
        assert len(group_closure_oracle(action)) == p  # p is prime
        s = extract_atom_structure(rel_algebra(action))
        r = check_z2_axioms(s)
        assert r.functional, (p, action.generators, r.functional_witness)
        # functional density: f~;f = 1 for f the join of the functional
        # atoms
        fn = sum(1 << a for a, f in enumerate(atom_flags_oracle(s)) if f[2])
        assert s.compose_mask(s.converse_mask(fn), fn) == s.full_mask, \
            (p, action.generators)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(capsys, 5, f"{checked} random prime-cyclic actions: every atom "
           "or its converse is a function, and functional density follows",
           elapsed)


def test_criterion_6_compatibility_oracle(capsys):
    t0 = time.perf_counter()
    total = 0
    # one brute force over every relation; tests/test_actions.py checks
    # the conftest helper is_compatible against the unions on its own
    for n in range(1, 5):
        for g in involutions(n):
            action = build_group(n, [g])
            assert (compatible_masks_bruteforce(action)
                    == union_of_orbits_masks(action)), (n, g)
            total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(capsys, 6, f"brute-force over every relation on up to 4 points "
           f"({total} actions): compatible sets equal unions of pair orbits",
           elapsed)


def test_criterion_7_structure_theory(capsys):
    for n, g, algebra, structure in involution_cases():
        cls = classify_atoms(algebra)
        points_twins_oracle(cls.base)
        tags = type_tags(cls)
        assert set(tags) <= {1, 2, 3, 4, 5}, (n, g, tags)

    c6 = load_concrete("type6.ca")
    cls = classify_atoms(c6)
    assert type_tags(cls) == (2, 2, 2, 2, 6, 6)
    assert cls.tilde == ()
    d = decide_z2(extract_atom_structure(c6))
    assert not d.accepted
    assert [(f.axiom, f.witness) for f in d.failures] == [(3, "x0")]
    report(capsys, 7, "order-two actions classify into shapes 1-5 only; "
           "the unrelated-twins algebra shows shape 6 and is rejected")


def test_criterion_8_axiom_validator(capsys):
    assert load_structure("23.ra").validation.ok
    assert load_structure("57.ra").validation.ok
    for n, g, algebra, structure in involution_cases():
        assert structure.validation.ok, (n, g)

    s23 = load_structure("23.ra")
    corrupted = [
        ("converse-not-involution",
         AtomStructure(s23.atom_names, (0, 1, 1), s23.identity_atoms,
                       s23.cycles)),
        ("cycle-law",
         AtomStructure(s23.atom_names, s23.converse_map, s23.identity_atoms,
                       s23.cycles - {(1, 1, 2)})),
        ("missing-domain-atom",
         AtomStructure(s23.atom_names, s23.converse_map, s23.identity_atoms,
                       s23.cycles - peirce_orbit((0, 1, 1),
                                                 s23.converse_map))),
        ("identity-not-self-converse",
         AtomStructure(("e", "f"), (1, 0), frozenset({0}), frozenset())),
        ("identity-law",
         AtomStructure(s23.atom_names, s23.converse_map, s23.identity_atoms,
                       s23.cycles | peirce_orbit((0, 1, 2),
                                                 s23.converse_map))),
        ("duplicate-atom-name",
         AtomStructure(("1'", "r", "r"), s23.converse_map,
                       s23.identity_atoms, s23.cycles)),
        ("empty-structure", AtomStructure((), (), frozenset(), frozenset())),
    ]
    assert len(corrupted) >= 5
    for expected_code, bad in corrupted:
        result = bad.validation
        assert not result.ok
        assert expected_code in report_codes(result), expected_code
    report(capsys, 8, "validator accepts the catalog and every extraction, "
           f"and rejects {len(corrupted)} corrupted structures with the "
           "expected violation codes")
