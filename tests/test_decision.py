"""Isomorphism search, the representability decision, and verification."""

import dataclasses
import random
import time

import pytest

from relalg import (AtomStructure, InternalError, IsoWitness,
                    SearchBudgetExceeded, build_group,
                    check_action_represents, check_z2_axioms, classify_atoms,
                    decide_z2, extract_atom_structure,
                    find_isomorphism, is_function, is_pair, rel_algebra,
                    verify_decision)
from relalg.decision import _construct_witness, _refined_colours

from conftest import (DATA, atom_flags_oracle, conjugate, generated_groups,
                      group_closure_oracle, involution_structure,
                      involutions, load_concrete, load_structure,
                      refined_colours_oracle, regular_action, shuffled,
                      signature_oracle)


# --- find_isomorphism -----------------------------------------------------


def test_identity_isomorphism(s23):
    w = find_isomorphism(s23, s23)
    assert w is not None and w.is_valid()
    assert w.atom_map == (0, 1, 2)


def test_relabeled_isomorphism(s23):
    other = load_structure("23_relabeled.ra")
    w = find_isomorphism(s23, other)
    assert w is not None and w.is_valid()
    # candidates are tried in target id order, so r lands on s~ (id 0)
    assert w.map_lines() == ["map 1' -> 1'", "map r -> s~", "map r~ -> s"]


def test_non_isomorphic_rejected(s23, s57):
    assert find_isomorphism(s23, s57) is None
    assert find_isomorphism(s57, s23) is None


def test_atom_count_mismatch(s23, swap_structure):
    assert find_isomorphism(s23, swap_structure) is None


def test_random_conjugates_are_found(s57, s23):
    rng = random.Random(3)
    for s in (s57, s23):
        ids = list(range(s.n_atoms))
        for _ in range(10):
            rng.shuffle(ids)
            other = conjugate(s, tuple(ids))
            w = find_isomorphism(s, other)
            assert w is not None and w.is_valid()
            assert find_isomorphism(other, s) is not None


def test_cycle_difference_rejected(s23):
    # same atoms, converse and identity, but the diversity orbit allows
    # (r,r,r) instead of (r,r,r~); r stops being functional, so the two
    # structures cannot be isomorphic
    from relalg import peirce_orbit, validate_structure
    identity_part = frozenset(t for t in s23.cycles
                              if t not in {(1, 1, 2), (2, 2, 1)})
    other = AtomStructure(s23.atom_names, s23.converse_map,
                          s23.identity_atoms,
                          identity_part | peirce_orbit((1, 1, 1),
                                                       s23.converse_map))
    assert validate_structure(other).ok
    assert find_isomorphism(s23, other) is None
    assert find_isomorphism(other, s23) is None


def catalog_structures() -> list[AtomStructure]:
    """The structures of the 195 actions on up to 5 points, of every
    data/*.ra file, and of the type6.ca algebra."""
    structures = [extract_atom_structure(rel_algebra(a))
                  for a in generated_groups(5).values()]
    structures += [load_structure(p.name) for p in sorted(DATA.glob("*.ra"))]
    structures.append(extract_atom_structure(load_concrete("type6.ca")))
    assert len(structures) == 195 + 4 + 1
    return structures


def test_refined_colours_agree_with_the_signature_oracle():
    # refinement starts from identity and self-converse alone; atoms it
    # leaves in one class still agree on the point, pair and function flags
    # and the per-position cycle counts of the oracle
    for s in catalog_structures():
        colours, same = _refined_colours(s, s)
        assert colours == same
        sig = signature_oracle(s)
        first: dict[int, int] = {}
        for a, c in enumerate(colours):
            assert sig[first.setdefault(c, a)] == sig[a], (s.atom_names, a)


def test_refined_colours_match_the_all_places_oracle():
    # first places alone give the colours of keying on all three places and
    # the converse's colour: on each catalog structure against every one of
    # its atom count, on shuffled copies, and on regular actions that only
    # the search tells apart
    by_atoms: dict[int, list[AtomStructure]] = {}
    for s in catalog_structures():
        by_atoms.setdefault(s.n_atoms, []).append(s)
    pairs = [(x, y) for group in by_atoms.values()
             for x in group for y in group]
    rng = random.Random(11)
    for s in ([involution_structure(p, t) for p, t in ((3, 1), (0, 4),
                                                        (2, 4), (4, 2))]
              + [extract_atom_structure(rel_algebra(regular_action(orders)))
                 for orders in ([12], [48], [2, 8], [3, 9], [4, 4])]):
        x = shuffled(s, rng)
        pairs += [(s, x), (x, shuffled(s, rng))]
    for left, right in (([25], [5, 5]), ([4, 8], [2, 16])):
        a = extract_atom_structure(rel_algebra(regular_action(left)))
        b = extract_atom_structure(rel_algebra(regular_action(right)))
        rng = random.Random(a.n_atoms)
        for _ in range(10):
            x, y = shuffled(a, rng), shuffled(b, rng)
            pairs += [(x, y), (y, x)]
    answers = [refined_colours_oracle(x, y) for x, y in pairs]
    assert None in answers and answers.count(None) < len(answers)
    for (x, y), expected in zip(pairs, answers):
        assert _refined_colours(x, y) == expected, (x.atom_names, y.atom_names)


def test_budget_exhaustion(s23):
    with pytest.raises(SearchBudgetExceeded):
        find_isomorphism(s23, s23, budget=1)


def test_witness_tampering_is_detected(s23):
    w = find_isomorphism(s23, s23)
    assert IsoWitness(s23, s23, (0, 2, 1)).is_valid()  # converse automorphism
    assert not IsoWitness(s23, s23, (0, 1, 1)).is_valid()
    problems = IsoWitness(s23, s23, (1, 0, 2)).problems()
    assert any("identity" in p for p in problems)
    assert w.inverted().is_valid()


def test_witness_on_mismatched_structures(s23, s57, swap_structure):
    w = IsoWitness(s23, s57, (0, 1, 2))
    assert not w.is_valid()
    assert any("cycle" in p or "identity" in p for p in w.problems())
    w = IsoWitness(s23, swap_structure, (0, 1, 1))
    assert w.problems() == ("structures have different atom counts",)


# --- decide_z2 ------------------------------------------------------------


def test_accepts_swap_structure(swap_structure):
    d = decide_z2(swap_structure)
    assert d.accepted and d.failures == ()
    assert d.action.base_size == 2
    assert d.action.generators == ((1, 0),)
    assert d.witness.is_valid()
    assert verify_decision(d).ok


def test_accepts_single_point_structure():
    s = AtomStructure(("1'",), (0,), frozenset({0}), frozenset({(0, 0, 0)}))
    d = decide_z2(s)
    assert d.accepted
    assert d.action.base_size == 1
    assert group_closure_oracle(d.action) == ((0,),)
    assert verify_decision(d).ok


def test_rejects_23_with_pair_density_witness(s23):
    d = decide_z2(s23)
    assert not d.accepted
    assert [(f.axiom, f.witness) for f in d.failures] == [(2, "1'")]
    assert d.action is None and d.witness is None
    # the reported witness re-checks from the element inequality alone
    e = s23.element_from_names(["1'"])
    assert not is_pair(e)


def test_rejects_57_with_both_failed_axioms(s57):
    d = decide_z2(s57)
    assert not d.accepted
    assert [(f.axiom, f.witness) for f in d.failures] == [(2, "1'"), (3, "a")]
    a = s57.element_from_names(["a"])
    assert not is_function(a) and not is_function(a.converse())


def test_rejects_type6_extraction(type6_algebra):
    s = extract_atom_structure(type6_algebra)
    d = decide_z2(s)
    assert not d.accepted
    assert [(f.axiom, f.witness) for f in d.failures] == [(3, "x0")]
    x0 = s.element_from_names(["x0"])
    assert not is_function(x0) and not is_function(x0.converse())


def test_round_trip_small_involutions():
    for n in range(1, 5):
        for g in involutions(n):
            ext = extract_atom_structure(rel_algebra(build_group(n, [g])))
            d = decide_z2(ext)
            assert d.accepted, (n, g)
            assert verify_decision(d).ok, (n, g)
            rebuilt = d.action.generators[0] if d.action.generators else \
                tuple(range(d.action.base_size))
            assert sum(1 for i, x in enumerate(rebuilt) if x == i) == \
                sum(1 for i in range(n) if g[i] == i), (n, g)
            # the constructed algebra never needs the cross-twin shape
            cls = classify_atoms(d.algebra)
            assert set(cls.type_tags()) <= {1, 2, 3, 4, 5}, (n, g)


@pytest.mark.parametrize("points,twins,atoms", [(8, 0, 64), (0, 6, 72),
                                                (3, 5, 89), (4, 11, 346)])
def test_shuffled_ids_are_accepted(points, twins, atoms):
    # each relabeling sends the generic search past two million nodes
    s = involution_structure(points, twins)
    ids = list(range(s.n_atoms))
    random.Random(100 * points + twins).shuffle(ids)
    shuffled = conjugate(s, ids)
    assert shuffled.n_atoms == atoms
    start = time.perf_counter()
    d = decide_z2(shuffled)
    assert d.accepted and verify_decision(d).ok
    assert time.perf_counter() - start < 5.0


def test_constructed_witness_mismatch_is_internal_error():
    # one point, then one twin; an algebra whose twin comes first, and
    # blocks that swap the kinds, both fail as internal errors
    s = involution_structure(1, 1)
    flags = atom_flags_oracle(s)
    point, twin = sorted(s.identity_atoms, key=lambda e: not flags[e][0])
    blocks = {point: (0,), twin: (1, 2)}
    good = rel_algebra(build_group(3, [(0, 2, 1)]))
    assert _construct_witness(s, blocks, good).is_valid()
    mismatched = rel_algebra(build_group(3, [(1, 0, 2)]))
    with pytest.raises(InternalError, match="--- constructed ---"):
        _construct_witness(s, blocks, mismatched)
    with pytest.raises(InternalError, match="1 atoms from"):
        _construct_witness(s, {point: (0, 1), twin: (2,)}, mismatched)


def test_axioms_decide_representability_on_five_points():
    # every action generated by one or two permutations on up to 5 points
    # (the 156 groups on 5 points are all generated by two): accepted and
    # verified when the axioms hold, otherwise isomorphic to no involution
    # algebra with as many atoms
    start = time.perf_counter()
    actions = generated_groups(5)
    by_atoms = {}
    for points in range(6):
        for twins in range(4):
            if points + twins and points ** 2 + 2 * points * twins \
                    + 2 * twins ** 2 <= 25:
                t = involution_structure(points, twins)
                by_atoms.setdefault(t.n_atoms, []).append(t)
    accepted = compared = 0
    for a in actions.values():
        s = extract_atom_structure(rel_algebra(a))
        if check_z2_axioms(s).all_hold:
            d = decide_z2(s)
            assert d.accepted and verify_decision(d).ok, a.generators
            accepted += 1
        else:
            for t in by_atoms.get(s.n_atoms, ()):
                assert find_isomorphism(s, t, budget=50_000) is None, \
                    a.generators
                compared += 1
    assert len(actions) == 195 and accepted > 0 and compared > 0
    assert sum(1 for n, _ in actions if n <= 4) == 39
    assert time.perf_counter() - start < 10.0


def test_decision_is_deterministic(swap_structure):
    d1 = decide_z2(swap_structure)
    d2 = decide_z2(swap_structure)
    assert d1 == d2


def test_decide_requires_valid_structure(s23):
    from relalg import InvalidStructureError
    bad = AtomStructure(s23.atom_names, (0, 1, 1), s23.identity_atoms,
                        s23.cycles)
    with pytest.raises(InvalidStructureError):
        decide_z2(bad)


# --- check_action_represents ----------------------------------------------


def test_check_action_positive(swap_structure, s23):
    w = check_action_represents(swap_structure, build_group(2, [(1, 0)]))
    assert w is not None and w.is_valid()
    w2 = check_action_represents(s23, build_group(3, [(1, 2, 0)]))
    assert w2 is not None


def test_check_action_negative(s23):
    assert check_action_represents(s23, build_group(2, [(1, 0)])) is None
    # D5's algebra realizes 5-7, not 2-3
    d5 = build_group(5, [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)])
    assert check_action_represents(s23, d5) is None


# --- search on relabeled inputs -------------------------------------------


def triangles_action(k):
    """Z3 rotating k disjoint triangles at once, on 3k points."""
    return build_group(3 * k, [tuple(3 * (i // 3) + (i + 1) % 3
                                     for i in range(3 * k))])


@pytest.mark.parametrize("action,atoms", [
    (build_group(8, [tuple(range(8))]), 64),
    (regular_action([48]), 48),
    (triangles_action(5), 75)], ids=["trivial-8", "z48", "z3-triangles-5"])
def test_shuffled_copies_are_found_within_budget(action, atoms):
    # with both sides relabeled, the id-order search of earlier versions
    # ran out of 50,000 nodes on most of these
    s = extract_atom_structure(rel_algebra(action))
    assert s.n_atoms == atoms
    rng = random.Random(atoms)
    start = time.perf_counter()
    for _ in range(10):
        source = shuffled(s, rng)
        w = find_isomorphism(source, shuffled(s, rng), budget=50_000)
        assert w is not None and w.is_valid()
        w = check_action_represents(source, action, budget=50_000)
        assert w is not None and w.is_valid()
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("left,right", [([25], [5, 5]), ([4, 8], [2, 16])])
def test_regular_actions_of_distinct_groups_are_not_isomorphic(left, right):
    # every atom of both structures gets the same colour, so only the
    # search tells them apart
    a = extract_atom_structure(rel_algebra(regular_action(left)))
    b = extract_atom_structure(rel_algebra(regular_action(right)))
    assert a.n_atoms == b.n_atoms
    rng = random.Random(a.n_atoms)
    start = time.perf_counter()
    for _ in range(10):
        x, y = shuffled(a, rng), shuffled(b, rng)
        assert find_isomorphism(x, y, budget=50_000) is None
        assert find_isomorphism(y, x, budget=50_000) is None
    assert time.perf_counter() - start < 5.0


def pinned_searches() -> dict:
    s23, r23 = load_structure("23.ra"), load_structure("23_relabeled.ra")
    z48 = extract_atom_structure(rel_algebra(regular_action([48])))
    rng = random.Random(48)
    x, y = shuffled(z48, rng), shuffled(z48, rng)
    inv = shuffled(involution_structure(2, 4), random.Random(24))
    action = build_group(10, [(0, 1, 3, 2, 5, 4, 7, 6, 9, 8)])
    return {
        "23-relabeled": lambda b: find_isomorphism(s23, r23, budget=b),
        "z48-shuffles": lambda b: find_isomorphism(x, y, budget=b),
        "involution-check-action":
            lambda b: check_action_represents(inv, action, budget=b)}


@pytest.mark.parametrize("case,nodes", [("23-relabeled", 3),
                                        ("z48-shuffles", 65),
                                        ("involution-check-action", 61)])
def test_budget_counts_every_tried_or_forced_assignment(case, nodes):
    # the node counts of fixed searches: `nodes` is the least budget that
    # succeeds, so a search that tries or forces other assignments, or
    # counts them otherwise, changes what --budget N allows and fails here
    search = pinned_searches()[case]
    assert search(nodes).is_valid()
    with pytest.raises(SearchBudgetExceeded):
        search(nodes - 1)


# --- verify_decision ------------------------------------------------------


def test_verify_rejects_unaccepted(s23):
    with pytest.raises(ValueError):
        verify_decision(decide_z2(s23))


def test_verify_catches_wrong_action(swap_structure):
    # a 3-cycle, the Klein four-group (two distinct involutions, each of
    # which alone would pass) and a 4-cycle all generate groups of order
    # above two
    d = decide_z2(swap_structure)
    for action in (build_group(3, [(1, 2, 0)]),
                   build_group(4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
                   build_group(4, [(1, 2, 3, 0)])):
        report = verify_decision(dataclasses.replace(d, action=action))
        assert not report.ok
        assert any("order" in p for p in report.problems), action


def test_verify_accepts_identity_among_generators(swap_structure):
    d = decide_z2(swap_structure)
    forged = dataclasses.replace(d, action=build_group(2, [(0, 1), (1, 0)]))
    assert verify_decision(forged).ok


def test_verify_catches_swapped_algebra(swap_structure):
    d = decide_z2(swap_structure)
    other = rel_algebra(build_group(2, [(0, 1)]))
    forged = dataclasses.replace(d, algebra=other)
    report = verify_decision(forged)
    assert not report.ok


def test_verify_catches_tampered_witness(swap_structure):
    d = decide_z2(swap_structure)
    bad = IsoWitness(d.witness.source, d.witness.target, (1, 0))
    forged = dataclasses.replace(d, witness=bad)
    assert not verify_decision(forged).ok


def test_verify_catches_witness_of_another_structure(swap_structure):
    # a renamed copy is isomorphic to the decided structure, so the witness
    # itself checks out and only its source gives it away
    d = decide_z2(swap_structure)
    other = dataclasses.replace(swap_structure, atom_names=("x", "y"))
    w = dataclasses.replace(d.witness, source=other)
    assert w.problems() == ()
    report = verify_decision(dataclasses.replace(d, witness=w))
    assert report.problems == ("witness source is not the decided structure",)


def test_tampered_witness_reports_cycle_mismatch():
    # swapping one converse pair keeps the bijection, identity and converse
    # checks happy, so the failure surfaces as an unpreserved cycle
    ext = extract_atom_structure(rel_algebra(build_group(3, [(0, 2, 1)])))
    d = decide_z2(ext)
    m = list(d.witness.atom_map)
    a0, a1 = ext.atom_id("a0"), ext.atom_id("a1")
    m[a0], m[a1] = m[a1], m[a0]
    forged = dataclasses.replace(d, witness=IsoWitness(
        d.witness.source, d.witness.target, tuple(m)))
    report = verify_decision(forged)
    assert not report.ok
    assert any("cycle" in p for p in report.problems)


def test_witness_problems_list_cycles_in_sorted_order():
    # every unpreserved cycle, then every target cycle without a source,
    # each list in sorted order, as a scan of all cycles reports them
    ext = involution_structure(1, 2)
    w = decide_z2(ext).witness
    m = list(w.atom_map)
    x, y = sorted(a for a in range(ext.n_atoms)
                  if a not in ext.identity_atoms
                  and ext.converse_map[a] == a)[:2]
    m[x], m[y] = m[y], m[x]
    forged = IsoWitness(w.source, w.target, tuple(m))
    inv = {b: a for a, b in enumerate(m)}
    s, t = w.source, w.target
    expected = [f"cycle {s._fmt_triple(c)} is not preserved"
                for c in sorted(s.cycles)
                if tuple(m[a] for a in c) not in t.cycles]
    expected += [f"target cycle {t._fmt_triple(c)} has no source cycle"
                 for c in sorted(t.cycles)
                 if tuple(inv[a] for a in c) not in s.cycles]
    assert len(expected) > 2
    assert forged.problems() == tuple(expected)


def test_verify_catches_forged_target(swap_structure):
    # the target must be the structure of the rebuilt algebra, field by
    # field, and valid
    d = decide_z2(swap_structure)
    t = d.witness.target
    renamed = dataclasses.replace(t, atom_names=("x", "y"))
    broken = dataclasses.replace(t, cycles=t.cycles - {(1, 1, 0)})
    for forged in (renamed, broken):
        w = dataclasses.replace(d.witness, target=forged)
        report = verify_decision(dataclasses.replace(d, witness=w))
        assert not report.ok
        assert any("witness target" in p for p in report.problems)
