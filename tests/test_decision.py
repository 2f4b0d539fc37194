"""Isomorphism search, the representability decision, and verification."""

import contextlib
import functools
import inspect
import itertools
import math
import random
import sys
import time
from collections import Counter

import pytest

from relalg import (ActionError, AtomStructure, ConcreteAlgebra, GroupAction,
                    InternalError, InvalidStructureError, IsoWitness,
                    SearchBudgetExceeded, build_group,
                    check_action_represents, check_z2_axioms, classify_atoms,
                    decide_z2, extract_atom_structure, find_isomorphism,
                    peirce_orbit, rel_algebra, verify_decision)
from relalg import actions, concrete, decision, join, proof, search
from relalg.actions import _orbit_names
from relalg.cli import main
from relalg.decision import _power_runs
from relalg.formats import (format_atom_structure, format_group_action,
                            parse_atom_structure, parse_group_action)
from relalg.proof import _proof_witness
from relalg.search import _refined_colours

from conftest import (DATA, atom_flags_oracle, catalog_structures,
                      close_cycles_oracle, conjugate, generated_groups,
                      group_closure_oracle, involution_action,
                      involution_structure, involutions, iso_problems_oracle,
                      larger_structures, load_action, load_structure,
                      one_orbit_corruptions, refined_colours_oracle,
                      regular_action, replaced, shuffled, signature_oracle)
from conftest import element_flags, report_codes, type_tags


# --- find_isomorphism -----------------------------------------------------


def test_identity_isomorphism(s23):
    w = find_isomorphism(s23, s23)
    assert w is not None and not w.problems()
    assert w.atom_map == (0, 1, 2)


def test_relabeled_isomorphism(s23):
    other = load_structure("23_relabeled.ra")
    w = find_isomorphism(s23, other)
    assert w is not None and not w.problems()
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
            assert w is not None and not w.problems()
            assert find_isomorphism(other, s) is not None


def test_cycle_difference_rejected(s23):
    # same atoms, converse and identity, but the diversity orbit allows
    # (r,r,r) instead of (r,r,r~); r stops being functional, so the two
    # structures cannot be isomorphic
    from relalg import peirce_orbit
    identity_part = frozenset(t for t in s23.cycles
                              if t not in {(1, 1, 2), (2, 2, 1)})
    other = AtomStructure(s23.atom_names, s23.converse_map,
                          s23.identity_atoms,
                          identity_part | peirce_orbit((1, 1, 1),
                                                       s23.converse_map))
    assert other.validation.ok
    assert find_isomorphism(s23, other) is None
    assert find_isomorphism(other, s23) is None


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


def random_cycle_law_tables(rng, count):
    """Tables on 1 to 6 atoms under the cycle law, with any involution as
    converse, self-converse identity atoms, and up to 24 random cycles
    closed under the Peircean transforms.  About one in fifteen, paired
    with a shuffled copy, gets other colours when refinement keys a pair
    of colours (c[y], c[z]) by c[y] * (k - 1) + c[z] in place of
    c[y] * k + c[z], k the class count."""
    out = []
    for _ in range(count):
        n = rng.randint(1, 6)
        ids = rng.sample(range(n), n)
        conv = list(range(n))
        for a, b in zip(ids[::2], ids[1::2]):
            if rng.random() < 0.5:
                conv[a], conv[b] = b, a
        identity = {a for a in range(n) if conv[a] == a and rng.random() < 0.3}
        reps = [tuple(rng.randrange(n) for _ in range(3))
                for _ in range(rng.randint(0, 24))]
        out.append(AtomStructure(tuple(f"a{i}" for i in range(n)), conv,
                                 identity, close_cycles_oracle(reps, conv)))
    return out


def test_refined_colours_match_the_all_places_oracle():
    # first places alone give the colours of keying on all three places and
    # the converse's colour: on each catalog structure against every one of
    # its atom count, on shuffled copies, on regular actions that
    # refinement does not tell apart, and on small random tables under the
    # cycle law, whose colours the integer pair keys must keep apart
    by_atoms: dict[int, list[AtomStructure]] = {}
    for s in catalog_structures():
        by_atoms.setdefault(s.n_atoms, []).append(s)
    pairs = [(x, y) for group in by_atoms.values()
             for x in group for y in group]
    rng = random.Random(11)
    for s in larger_structures():
        x = shuffled(s, rng)
        pairs += [(s, x), (x, shuffled(s, rng))]
    for left, right in (([25], [5, 5]), ([4, 8], [2, 16])):
        a = extract_atom_structure(rel_algebra(regular_action(left)))
        b = extract_atom_structure(rel_algebra(regular_action(right)))
        rng = random.Random(a.n_atoms)
        for _ in range(10):
            x, y = shuffled(a, rng), shuffled(b, rng)
            pairs += [(x, y), (y, x)]
    rng = random.Random(3)
    pairs += [(s, shuffled(s, rng)) for s in random_cycle_law_tables(rng, 300)]
    answers = [refined_colours_oracle(x, y) for x, y in pairs]
    assert None in answers and answers.count(None) < len(answers)
    for (x, y), expected in zip(pairs, answers):
        assert _refined_colours(x, y) == expected, (x.atom_names, y.atom_names)


def test_budget_exhaustion(s23):
    with pytest.raises(SearchBudgetExceeded):
        find_isomorphism(s23, s23, budget=1)


@pytest.mark.parametrize("budget", [None, 2.5, True, "5", 0, -5])
def test_a_budget_that_is_no_int_is_refused_before_any_work(budget):
    # as the CLI refuses such values: 23.ra is outside the class, so it is
    # searched, where None raised TypeError inside the search and 0 or -5
    # ran out at the first node; swap.ra is in the class, where 0 gave the
    # proof's map, as no search runs.  The check comes before the local
    # laws, the axioms and any search
    for name, call in (
            ("23.ra", lambda s: find_isomorphism(s, s, budget=budget)),
            ("23.ra", lambda s: check_action_represents(
                s, regular_action([3]), budget=budget)),
            ("swap.ra", lambda s: check_action_represents(
                s, load_action("swap.act"), budget=budget))):
        s = load_structure(name)
        with pytest.raises(ValueError, match="search budget .* not an int"):
            call(s)
        assert not {"_places", "_table", "validation"} & {*s.__dict__}


def five_point_structures():
    """The structures of two actions on 5 points, outside the class, with
    6 atoms each and equal power-run multisets, that colour refinement
    tells apart: its classes differ in size."""
    texts = ("set 5\ngen 0 1 2 4 3\ngen 0 3 4 1 2\n",
             "set 5\ngen 0 1 2 4 3\ngen 1 0 3 2 4\n")
    actions = [parse_group_action(t) for t in texts]
    return actions, [extract_atom_structure(rel_algebra(a)) for a in actions]


def test_refinement_answers_none_before_the_first_node(tmp_path, capsys):
    # the power runs agree, so only refinement's answer ends these
    # requests within a budget of one node
    actions, (a, b) = five_point_structures()
    assert a.n_atoms == b.n_atoms == 6
    assert Counter(_power_runs(a)) == Counter(_power_runs(b))
    assert _refined_colours(a, b) is None
    paths = {}
    for name, text in (("a.ra", format_atom_structure(a)),
                       ("b.ra", format_atom_structure(b)),
                       ("b.act", format_group_action(actions[1]))):
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    for argv in (["iso", paths["a.ra"], paths["b.ra"]],
                 ["iso", paths["b.ra"], paths["a.ra"]],
                 ["check-action", paths["a.ra"], paths["b.act"]]):
        assert main([*map(str, argv), "--budget", "1"]) == 2, argv
        assert capsys.readouterr() == ("none\n", ""), argv


def test_a_forced_assignment_onto_a_taken_target_backtracks(capsys):
    # both tables are the one with a;a = b, b;b = b, so the isomorphism
    # swaps a and b.  The search tries a -> a first, which forces b onto
    # a as well: assign refuses a target already taken, and the search
    # backtracks to a -> b
    x, y = (parse_atom_structure(
        "atoms e a b\nidentity e\n"
        f"cycle e e e\ncycle e a a\ncycle e b b\n{extra}")
        for extra in ("cycle a a b\ncycle b b b\n",
                      "cycle a a a\ncycle a b b\n"))
    source, start = inspect.getsourcelines(search)
    refusal = start + next(k for k, line in enumerate(source)
                           if "p.taken >> b & 1" in line) + 1
    assert source[refusal - start].strip() == "return False"
    lines = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_name != "assign":
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    sys.settrace(tracer)
    try:
        w = find_isomorphism(x, y)
    finally:
        sys.settrace(None)
    assert refusal in lines
    assert w.map_lines() == ["map e -> e", "map a -> b", "map b -> a"]
    assert least_budget(x, y) == (w.atom_map, 5)


# two shuffles of the structure of D9 on the nine vertices of a polygon:
# the identity and the four distances between vertices, all self-converse
NINE_GON = tuple(
    "atoms q0 q1 q2 q3 q4\nidentity q2\n"
    "converse q0:q0 q1:q1 q2:q2 q3:q3 q4:q4\n" + "".join(
        f"cycle {line}\n" for line in lines.split(", "))
    for lines in (
        "q0 q0 q2, q0 q0 q4, q0 q1 q3, q0 q1 q4, q0 q3 q3, q1 q1 q1, "
        "q1 q1 q2, q1 q3 q4, q2 q2 q2, q2 q3 q3, q2 q4 q4, q3 q4 q4",
        "q0 q0 q0, q0 q0 q2, q0 q1 q3, q0 q1 q4, q0 q3 q4, q1 q1 q2, "
        "q1 q1 q3, q1 q4 q4, q2 q2 q2, q2 q3 q3, q2 q4 q4, q3 q3 q4"))


def test_assign_refuses_a_target_already_taken_on_the_nine_gon():
    # the search reaches a state where an atom's forced image is already
    # the image of another atom, with the candidate masks still allowing
    # it; only assign's taken test refuses it there.  Without that test
    # the search returns a map that is no bijection, and the tripwire
    # raises InternalError (as on the benchmark's shuffled copies of the
    # 30-gon)
    x, y = map(parse_atom_structure, NINE_GON)
    assert not check_z2_axioms(x).all_hold
    for source, target in ((x, y), (y, x)):
        w = find_isomorphism(source, target)
        assert w is not None and not w.problems()
        assert w.map_lines() == ["map q0 -> q1", "map q1 -> q0",
                                 "map q2 -> q2", "map q3 -> q4",
                                 "map q4 -> q3"]
    assert least_budget(x, y) == ((1, 0, 2, 4, 3), 7)


def test_a_searched_map_that_fails_its_check_is_an_internal_error(
        monkeypatch, s23, capsys):
    # 23.ra is outside the class, so its iso with itself reaches the
    # search, whose map decision._searched checks as an IsoWitness: a map
    # that swaps the identity atom with r fails that check, which raises
    # InternalError, and the CLI prints its message and exits 1
    monkeypatch.setattr(search, "_search_isomorphism",
                        lambda *args: (1, 0, 2))
    message = ("search produced an invalid witness: identity atoms are not "
               "mapped onto identity atoms")
    with pytest.raises(InternalError) as e:
        find_isomorphism(s23, s23)
    assert str(e.value) == message
    assert main(["iso", str(DATA / "23.ra"), str(DATA / "23.ra")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_witness_tampering_is_detected(s23):
    w = find_isomorphism(s23, s23)
    # the converse is an automorphism
    assert not IsoWitness(s23, s23, (0, 2, 1)).problems()
    assert IsoWitness(s23, s23, (0, 1, 1)).problems()
    problems = IsoWitness(s23, s23, (1, 0, 2)).problems()
    assert any("identity" in p for p in problems)
    assert not w.inverted().problems()


def test_witness_on_mismatched_structures(s23, s57, swap_structure):
    w = IsoWitness(s23, s57, (0, 1, 2))
    assert w.problems()
    assert any("cycle" in p or "identity" in p for p in w.problems())
    w = IsoWitness(s23, swap_structure, (0, 1, 1))
    assert w.problems() == ("structures have different atom counts",)


# --- decide_z2 ------------------------------------------------------------


def test_accepts_swap_structure(swap_structure):
    d = decide_z2(swap_structure)
    assert d.accepted and d.failures == ()
    assert d.action.base_size == 2
    assert d.action.generators == ((1, 0),)
    assert not d.witness.problems()
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
    assert not element_flags(s23, 1 << s23.atom_names.index("1'"))[1]


def test_rejects_57_with_both_failed_axioms(s57):
    d = decide_z2(s57)
    assert not d.accepted
    assert [(f.axiom, f.witness) for f in d.failures] == [(2, "1'"), (3, "a")]
    a = 1 << s57.atom_names.index("a")
    assert not element_flags(s57, a)[2]
    assert not element_flags(s57, s57.converse_mask(a))[2]


def test_rejects_type6_extraction(type6_algebra):
    s = extract_atom_structure(type6_algebra)
    d = decide_z2(s)
    assert not d.accepted
    assert [(f.axiom, f.witness) for f in d.failures] == [(3, "x0")]
    x0 = 1 << s.atom_names.index("x0")
    assert not element_flags(s, x0)[2]
    assert not element_flags(s, s.converse_mask(x0))[2]


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
            assert set(type_tags(cls)) <= {1, 2, 3, 4, 5}, (n, g)


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


@contextlib.contextmanager
def proof_only():
    """A context in which reaching the isomorphism search fails; it yields
    the lists of the structures the associativity join runs on and of
    those whose composition table (AtomStructure._table, behind _comp) is
    computed, the table still cached as before."""
    joins, tables = [], []
    witness = join._associativity_witness
    table = AtomStructure._table

    def unreachable(*args):
        raise AssertionError("the search ran on a Z2-representable input")

    def counting(s):
        joins.append(s)
        return witness(s)

    def counting_table(s):
        tables.append(s)
        return table.func(s)

    counted = functools.cached_property(counting_table)
    counted.__set_name__(AtomStructure, "_table")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_search_isomorphism", unreachable)
        patch.setattr(join, "_associativity_witness", counting)
        patch.setattr(AtomStructure, "_table", counted)
        yield joins, tables


def test_class_inputs_of_1152_atoms_need_no_search():
    # 24 twins, shuffled: check-action and iso are answered by the proof,
    # never by the search, and a found map runs no join
    s = involution_structure(0, 24)
    rng = random.Random(24)
    source, target = shuffled(s, rng), shuffled(s, rng)
    action = involution_action(0, 24)
    assert s.n_atoms == 1152
    with proof_only() as (joins, tables):
        start = time.perf_counter()
        w = check_action_represents(source, action)
        assert w is not None and not w.problems()
        w = find_isomorphism(source, target)
        assert w is not None and not w.problems()
        assert time.perf_counter() - start < 3.0
    assert joins == [] and tables == []


def test_an_accepted_decision_computes_no_composition_table():
    # the axioms, the proof's map and the re-check read per-atom facts and
    # the cycles only
    s = shuffled(involution_structure(2, 3), random.Random(23))
    with proof_only() as (joins, tables):
        d = decide_z2(s)
        assert d.accepted and verify_decision(d).ok
    assert joins == [] and tables == []


def test_class_verdicts_need_no_search(monkeypatch):
    # unequal (points, twins) counts answer none at once, and that none
    # joins every input it does not certify; the action's fixed points and
    # 2-cycles are counted before any algebra is built
    built = []
    for module in (actions, proof):
        monkeypatch.setattr(module, "rel_algebra",
                            lambda a: built.append(a) or rel_algebra(a))
    # f points and t twins make (f + t)^2 + t^2 atoms: 25 for both
    points, mixed = involution_structure(5, 0), involution_structure(1, 3)
    assert points.n_atoms == mixed.n_atoms == 25
    trivial = involution_action(5, 0)
    assert trivial.generators == ((0, 1, 2, 3, 4),)
    with proof_only() as (joins, _):
        assert find_isomorphism(points, mixed) is None
        assert joins == [points, mixed]
        fresh = involution_structure(1, 3)  # validation is cached
        assert check_action_represents(fresh, trivial) is None
        assert joins[2:] == [fresh] and built == []
        w = check_action_represents(points, trivial)
        assert w is not None and not w.problems() and len(built) == 1
    # a 3-cycle is no involution: the search answers, as before
    assert check_action_represents(involution_structure(0, 1),
                                   build_group(3, [(1, 2, 0)])) is None


def test_the_class_answers_whenever_one_side_is_in_it(monkeypatch):
    # first-order axioms are kept by isomorphism, so an iso pair with one
    # side in the class, and a structure outside it against an action of
    # order at most two, answer none: no search, so no budget to exhaust,
    # and no algebra.  The join runs on exactly the inputs that none
    # leaves unproven: both sides of an iso, the structure of a
    # check-action
    def unreachable(*args):
        raise AssertionError("the search ran on an input of the class")

    built, joins = [], []
    witness = join._associativity_witness
    monkeypatch.setattr(search, "_search_isomorphism", unreachable)
    for module in (actions, proof):
        monkeypatch.setattr(module, "rel_algebra",
                            lambda a: built.append(a) or rel_algebra(a))
    monkeypatch.setattr(join, "_associativity_witness",
                        lambda s: joins.append(s) or witness(s))
    rng = random.Random(25)
    regular = [extract_atom_structure(rel_algebra(regular_action(orders)))
               for orders in ([25], [5, 5])]
    assert not check_z2_axioms(load_structure("23.ra")).all_hold
    for budget in (1, decision.DEFAULT_BUDGET):
        for r, flip in itertools.product(regular, (False, True)):
            # fresh objects each time: validation is cached per structure
            pair = [involution_structure(5, 0), shuffled(r, rng)]
            assert pair[0].n_atoms == pair[1].n_atoms == 25
            if flip:
                pair.reverse()
            joins.clear()
            assert find_isomorphism(*pair, budget=budget) is None
            assert joins == pair
        for action in (load_action("swap.act"), involution_action(3, 0),
                       build_group(2, [])):
            s23 = load_structure("23.ra")
            joins.clear()
            assert check_action_represents(s23, action, budget=budget) is None
            assert joins == [s23]
    assert built == []


def test_a_failed_proof_map_reports_the_invalid_input_without_a_search(
        monkeypatch):
    # each table passes the local laws and the axioms, so the proof builds
    # its map, which fails on the missing orbit; by the theorem only an
    # invalid input fails it, so the table's report ends the request there
    reached = []
    monkeypatch.setattr(search, "_search_isomorphism",
                        lambda *args: reached.append(args))
    tables = one_orbit_corruptions()
    assert len(tables) == 39
    for bad, action in tables:
        good = extract_atom_structure(rel_algebra(action))
        for call in (lambda: check_action_represents(bad, action),
                     lambda: find_isomorphism(bad, good),
                     lambda: find_isomorphism(good, bad)):
            with pytest.raises(InvalidStructureError) as err:
                call()
            assert err.value.report == bad.validation
    assert reached == []


def test_a_failed_proof_map_on_valid_inputs_is_an_internal_error(
        monkeypatch, tmp_path, capsys):
    # blocks that give the point a 2-cycle and the twin a fixed point break
    # the proof's map on valid inputs of the class; every command reports
    # that as an internal error (exit 1), and none falls back to a search
    reached = []
    monkeypatch.setattr(search, "_search_isomorphism",
                        lambda *args: reached.append(args))
    blocks = proof._blocks

    def swapped(s, g):
        (point, one), (twin, two) = sorted(blocks(s, g).items(),
                                           key=lambda kv: len(kv[1]))
        return {point: two, twin: one}

    monkeypatch.setattr(proof, "_blocks", swapped)
    rng = random.Random(11)
    source = shuffled(involution_structure(1, 1), rng)
    target = shuffled(involution_structure(1, 1), rng)
    assert source.validation.ok and target.validation.ok
    for call in (lambda: find_isomorphism(source, target),
                 lambda: check_action_represents(source,
                                                 involution_action(1, 1)),
                 lambda: decide_z2(source)):
        with pytest.raises(InternalError, match="constructed isomorphism"):
            call()
    a, b = tmp_path / "a.ra", tmp_path / "b.ra"
    a.write_text(format_atom_structure(source), encoding="utf-8")
    b.write_text(format_atom_structure(target), encoding="utf-8")
    assert main(["iso", str(a), str(b)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: accepted axioms")
    assert err.count("error:") == 1 and "Traceback" not in err
    assert reached == []


def test_constructed_witness_mismatch_is_internal_error():
    # one point, then one twin; an algebra whose twin comes first, and
    # blocks that swap the kinds, both fail as internal errors
    s = involution_structure(1, 1)
    flags = atom_flags_oracle(s)
    point, twin = sorted(s.identity_atoms, key=lambda e: not flags[e][0])
    blocks = {point: (0,), twin: (1, 2)}
    good = rel_algebra(build_group(3, [(0, 2, 1)]))
    assert not _proof_witness(s, blocks, good,
                              extract_atom_structure(good)).problems()
    mismatched = rel_algebra(build_group(3, [(1, 0, 2)]))
    target = extract_atom_structure(mismatched)
    with pytest.raises(InternalError, match="--- constructed ---"):
        _proof_witness(s, blocks, mismatched, target)
    with pytest.raises(InternalError, match="1 atoms from"):
        _proof_witness(s, {point: (0, 1), twin: (2,)}, mismatched, target)


def test_axioms_decide_representability_on_five_points():
    # every action generated by one or two permutations on up to 5 points
    # (the 156 groups on 5 points are all generated by two): accepted and
    # verified when the axioms hold, otherwise isomorphic to no involution
    # algebra with as many atoms.  Each involution (the trivial group
    # included) realizes a shuffle of its structure, and two shuffles are
    # isomorphic, both found by the proof: no search and no join
    start = time.perf_counter()
    rng = random.Random(5)
    involution_actions = 0
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
        if len(group_closure_oracle(a)) <= 2:
            involution_actions += 1
            with proof_only() as (joins, tables):
                w = check_action_represents(shuffled(s, rng), a)
                assert w is not None and not w.problems(), a.generators
                w = find_isomorphism(shuffled(s, rng), shuffled(s, rng))
                assert w is not None and not w.problems(), a.generators
            assert joins == [] and tables == [], a.generators
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
    assert involution_actions == 5 + 38  # trivial, and 38 involutions
    assert sum(1 for n, _ in actions if n <= 4) == 39
    assert time.perf_counter() - start < 10.0


def test_an_actions_algebra_is_in_the_class_iff_its_group_has_order_two():
    # the lemma behind check-action's one rule: pair-density allows no
    # orbit of three or more points, and functionality makes any two
    # 2-point orbits swap together.  So the class counts of an action's
    # structure exist exactly when _involution finds an involution, and
    # they are its fixed points and 2-cycles, which check-action reads off
    # the involution before any algebra is built
    actions = generated_groups(5)
    assert len(actions) == 195
    for a in actions.values():
        g = decision._involution(a)
        counts = decision._class_counts(
            extract_atom_structure(rel_algebra(a)))
        assert (counts is None) == (g is None), a.generators
        if g is not None:
            fixed = sum(i == j for i, j in enumerate(g))
            assert counts == (fixed, (len(g) - fixed) // 2), a.generators


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


def test_a_broken_local_law_stops_every_answer(swap_structure):
    # duplicate names break a local law that neither the axioms nor the
    # search read: each would answer if the gate did not stop it first
    from relalg import InvalidStructureError
    s = swap_structure
    dup = replaced(s, atom_names=(s.atom_names[1],) + s.atom_names[1:])
    action = build_group(2, [(1, 0)])
    for call in (lambda: decide_z2(dup), lambda: find_isomorphism(s, dup),
                 lambda: find_isomorphism(dup, s),
                 lambda: check_action_represents(dup, action)):
        with pytest.raises(InvalidStructureError) as caught:
            call()
        assert report_codes(caught.value.report) == ("duplicate-atom-name",)


# --- check_action_represents ----------------------------------------------


def test_check_action_positive(swap_structure, s23):
    w = check_action_represents(swap_structure, build_group(2, [(1, 0)]))
    assert w is not None and not w.problems()
    w2 = check_action_represents(s23, build_group(3, [(1, 2, 0)]))
    assert w2 is not None


def test_check_action_negative(s23):
    assert check_action_represents(s23, build_group(2, [(1, 0)])) is None
    # D5's algebra realizes 5-7, not 2-3
    d5 = build_group(5, [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)])
    assert check_action_represents(s23, d5) is None


def test_check_action_of_a_larger_group_asks_the_class_first(monkeypatch,
                                                            capsys):
    # swap.ra is in the class and the algebra of Z3 is not, so the class
    # answers none: the search never runs
    def unreachable(*args):
        raise AssertionError("the search ran beside a structure of the class")

    monkeypatch.setattr(decision, "_searched", unreachable)
    assert main(["check-action", str(DATA / "swap.ra"),
                 str(DATA / "z3.act")]) == 2
    assert capsys.readouterr() == ("none\n", "")


def test_check_action_of_z3_triangles_still_searches(monkeypatch):
    # neither side is in the class, so the rule of find_isomorphism hands
    # the pair to the search, once; its node count is pinned in
    # test_budget_counts_every_tried_or_forced_assignment
    calls = []
    searched = decision._searched
    monkeypatch.setattr(decision, "_searched",
                        lambda *args: calls.append(args) or searched(*args))
    w = pinned_searches()["z3-triangles-check-action"](132)
    assert w is not None and not w.problems() and len(calls) == 1


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
        assert w is not None and not w.problems()
        w = check_action_represents(source, action, budget=50_000)
        assert w is not None and not w.problems()
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("left,right", [([25], [5, 5]), ([4, 8], [2, 16])])
def test_regular_actions_of_distinct_groups_are_not_isomorphic(left, right):
    # every atom of both structures gets the same colour, so refinement
    # does not tell them apart; the power runs do
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


ABELIAN_PAIRS = [([16], [4, 4]), ([2, 8], [4, 4]), ([9], [3, 3]),
                 ([2, 2, 4], [2, 8]), ([27], [3, 9]), ([25], [5, 5]),
                 ([4, 8], [2, 16])]


@pytest.mark.parametrize("left,right", ABELIAN_PAIRS)
def test_distinct_abelian_groups_are_told_apart_without_a_search(left, right):
    # refinement tells apart only the two pairs whose involution counts
    # differ, Z16/Z4^2 and Z2^2xZ4/Z2xZ8; the element orders in the power
    # runs answer the other five before the first node
    a = extract_atom_structure(rel_algebra(regular_action(left)))
    b = extract_atom_structure(rel_algebra(regular_action(right)))
    rng = random.Random(a.n_atoms)
    for _ in range(10):
        x, y = shuffled(a, rng), shuffled(b, rng)
        assert find_isomorphism(x, y, budget=1) is None
        assert find_isomorphism(y, x, budget=1) is None


@pytest.mark.parametrize("orders", sorted({tuple(o) for pair in ABELIAN_PAIRS
                                           for o in pair}))
def test_a_power_run_reads_the_element_order(orders):
    # in a group every power is one atom; an element of order k meets the
    # identity first at its k-th power and repeats itself at the next.  A
    # power of one atom reads 2, one that meets the identity 2 + 1
    s = shuffled(extract_atom_structure(rel_algebra(regular_action(orders))),
                 random.Random(len(orders)))
    expected: Counter = Counter()
    for g in itertools.product(*(range(q) for q in orders)):
        k = math.lcm(*(q // math.gcd(x, q) for x, q in zip(g, orders)))
        expected[tuple(2 + (i % k == 0) for i in range(1, k + 2))] += 1
    assert Counter(_power_runs(s)) == expected


def test_power_runs_are_invariant_under_relabelling():
    # every structure of the catalog and beyond it, up to 52 atoms that
    # share runs, once relabelled: each atom's run moves with it
    rng = random.Random(15)
    for s in catalog_structures() + larger_structures():
        ids = rng.sample(range(s.n_atoms), s.n_atoms)
        runs = _power_runs(conjugate(s, ids))
        assert [runs[b] for b in ids] == _power_runs(s), s.atom_names


def regular_action_of(elements, mul, generators):
    """A group acting on its elements by right multiplication."""
    index = {e: i for i, e in enumerate(elements)}
    return build_group(len(elements), [
        tuple(index[mul(h, g)] for h in elements) for g in generators])


def searched_map(source, target, budget):
    """The search's atom map, or None: decision._searched, which compares
    the power runs before it imports the search."""
    witness = decision._searched(source, target, budget)
    return witness and witness.atom_map


def least_budget(source, target):
    """The search's answer and the least budget it succeeds within."""
    lo, hi = -1, 1
    while True:
        try:
            answer = searched_map(source, target, hi)
            break
        except SearchBudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            searched_map(source, target, mid)
            hi = mid
        except SearchBudgetExceeded:
            lo = mid
    return answer, hi


def test_trying_only_the_branched_atoms_run_cuts_no_map(monkeypatch):
    # an isomorphism keeps each atom's power run, so each branch tries only
    # the candidates of the branched atom's run.  With every atom given one
    # run, each branch tries all live candidates: the search returns the
    # same map, or None, and needs at least as many nodes.  Z3^3 and the
    # Heisenberg group He3, like Z9xZ3 and Z9 x| Z3, have as many elements
    # of each order, so their runs agree and the search answers None
    structures = {name: extract_atom_structure(rel_algebra(action))
                  for name, action in (
        ("Z9", regular_action([9])), ("Z3^2", regular_action([3, 3])),
        ("Z2xZ8", regular_action([2, 8])), ("Z4^2", regular_action([4, 4])),
        ("Z27", regular_action([27])), ("Z9xZ3", regular_action([9, 3])),
        ("Z9x|Z3", regular_action_of(
            [*itertools.product(range(9), range(3))],
            lambda p, q: ((p[0] + q[0] * 4 ** p[1]) % 9, (p[1] + q[1]) % 3),
            [(1, 0), (0, 1)])),
        ("Z3^3", regular_action([3, 3, 3])),
        ("He3", regular_action_of(
            [*itertools.product(range(3), repeat=3)],
            lambda p, q: ((p[0] + q[0]) % 3, (p[1] + q[1]) % 3,
                          (p[2] + q[2] + p[0] * q[1]) % 3),
            [(1, 0, 0), (0, 1, 0)])),
        ("Z3 on 2 triangles", triangles_action(2)),
        ("Z3 on 3 triangles", triangles_action(3)))}
    pairs = [(a, a) for a in structures] + [
        ("Z9", "Z3^2"), ("Z2xZ8", "Z4^2"), ("Z27", "Z9xZ3"),
        ("Z9xZ3", "Z9x|Z3"), ("Z3^3", "He3")]
    rng = random.Random(27)
    cut = []
    for a, b in pairs:
        x, y = shuffled(structures[a], rng), shuffled(structures[b], rng)
        answer, least = least_budget(x, y)
        assert (answer is None) == (a != b), (a, b)
        with monkeypatch.context() as patched:
            patched.setattr(decision, "_power_runs",
                            lambda s: [()] * s.n_atoms)
            one_run, one_run_least = least_budget(x, y)
        assert one_run == answer, (a, b)
        assert least <= one_run_least, (a, b)
        if least < one_run_least:
            cut.append((a, b))
    # a found map and an exhausted search with equal runs both gain
    assert {("Z9xZ3", "Z9xZ3"), ("Z9xZ3", "Z9x|Z3")} <= {*cut}, cut


def pinned_searches() -> dict:
    s23, r23 = load_structure("23.ra"), load_structure("23_relabeled.ra")
    z48 = extract_atom_structure(rel_algebra(regular_action([48])))
    rng = random.Random(48)
    x, y = shuffled(z48, rng), shuffled(z48, rng)
    # a check-action outside the class: involutions are answered by the
    # proof, with no search node
    action = triangles_action(4)
    tri = shuffled(extract_atom_structure(rel_algebra(action)),
                   random.Random(12))
    return {
        "23-relabeled": lambda b: find_isomorphism(s23, r23, budget=b),
        "z48-shuffles": lambda b: find_isomorphism(x, y, budget=b),
        "z3-triangles-check-action":
            lambda b: check_action_represents(tri, action, budget=b)}


@pytest.mark.parametrize("case,nodes", [("23-relabeled", 3),
                                        ("z48-shuffles", 50),
                                        ("z3-triangles-check-action", 132)])
def test_budget_counts_every_tried_or_forced_assignment(case, nodes):
    # the node counts of fixed searches: `nodes` is the least budget that
    # succeeds, so a search that tries or forces other assignments, or
    # counts them otherwise, changes what --budget N allows and fails here
    search = pinned_searches()[case]
    assert not search(nodes).problems()
    with pytest.raises(SearchBudgetExceeded):
        search(nodes - 1)


def test_the_map_check_reads_the_table_as_it_reads_the_set():
    # problems() tests the line images through the table _comp where a
    # structure holds it and no set, as the search leaves them, and counts
    # the table's set bits, and through the set and its size otherwise:
    # the same tuple either way, for the found map, for two atoms of one
    # colour swapped with their converses, and for the two swapped alone,
    # which breaks converse
    for action in (regular_action([48]), triangles_action(5)):
        s = extract_atom_structure(rel_algebra(action))
        rng = random.Random(s.n_atoms)
        texts = [format_atom_structure(shuffled(s, rng)) for _ in range(2)]
        source, target = map(parse_atom_structure, texts)
        found = find_isomorphism(source, target).atom_map
        assert not any("cycles" in x.__dict__ for x in (source, target))
        colours = _refined_colours(source, target)[0]
        conv = source.converse_map
        pairs = itertools.combinations(range(len(conv)), 2)
        a, b = next((a, b) for a, b in pairs if colours[a] == colours[b]
                    and len({a, b, conv[a], conv[b]}) == 4)
        maps = [found]
        for swaps in (((a, b), (conv[a], conv[b])), ((a, b),)):
            m = list(found)
            for x, y in swaps:
                m[x], m[y] = m[y], m[x]
            maps.append(tuple(m))
        for k, m in enumerate(maps):
            sides = [[*map(parse_atom_structure, texts)] for _ in range(2)]
            for x in sides[1]:
                x._table
            with_set, with_table = (IsoWitness(x, y, m).problems()
                                    for x, y in sides)
            assert with_table == with_set
            assert bool(with_set) == (k > 0), k
            assert any("converse" in line for line in with_set) == (k == 2), k
            if k == 0:
                assert not any("cycles" in x.__dict__ for x in sides[1])
    # and a target with the orbit of (r, r, r) added to 23.ra's: every
    # line of 23.ra lands in it, so only the two cycle counts find the
    # cycles that have no source, whichever store each side holds: both
    # their sets, both their tables, or one of each
    text = (DATA / "23.ra").read_text()
    runs = []
    for stores in (("cycles", "cycles"), ("_table", "_table"),
                   ("cycles", "_table"), ("_table", "cycles")):
        sides = [parse_atom_structure(t)
                 for t in (text, text + "cycle r r r\n")]
        for x, store in zip(sides, stores):
            getattr(x, store)
        runs.append(IsoWitness(*sides, (0, 1, 2)).problems())
        assert [x._table_only() for x in sides] == [
            store == "_table" for store in stores], stores
    assert runs == [runs[0]] * 4, runs
    assert len(runs[0]) == 6 and all(
        line.startswith("target cycle") for line in runs[0]), runs[0]


# --- verify_decision ------------------------------------------------------


def test_verify_rejects_unaccepted(s23):
    with pytest.raises(ValueError):
        verify_decision(decide_z2(s23))


def test_verify_names_each_missing_part_of_a_certificate(swap_structure):
    # an accepted decision without its action, algebra or witness has a
    # broken certificate: a report naming each missing part, no crash
    d = decide_z2(swap_structure)
    parts = ("action", "algebra", "witness")
    for k in range(1, len(parts) + 1):
        for gone in itertools.combinations(parts, k):
            report = verify_decision(replaced(d, **dict.fromkeys(gone)))
            assert report.problems == tuple(
                f"accepted decision has no {part}" for part in gone), gone


def test_verify_catches_wrong_action(swap_structure):
    # a 3-cycle, the Klein four-group (two distinct involutions, each of
    # which alone would pass) and a 4-cycle all generate groups of order
    # above two
    d = decide_z2(swap_structure)
    for action in (build_group(3, [(1, 2, 0)]),
                   build_group(4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
                   build_group(4, [(1, 2, 3, 0)])):
        report = verify_decision(replaced(d, action=action))
        assert not report.ok
        assert any("order" in p for p in report.problems), action


def test_verify_reads_no_image_outside_the_base_set(swap_structure):
    # GroupAction checks its generators, so a decision cannot carry an
    # image off the base set, which verify_decision would index past the
    # end of its image lists
    d = decide_z2(swap_structure)
    with pytest.raises(ActionError, match="outside the base set"):
        verify_decision(replaced(d, action=GroupAction(2, ((1, 5),))))


def test_verify_accepts_identity_among_generators(swap_structure):
    d = decide_z2(swap_structure)
    forged = replaced(d, action=build_group(2, [(0, 1), (1, 0)]))
    assert verify_decision(forged).ok


def test_verify_catches_swapped_algebra(swap_structure):
    d = decide_z2(swap_structure)
    other = rel_algebra(build_group(2, [(0, 1)]))
    forged = replaced(d, algebra=other)
    report = verify_decision(forged)
    assert not report.ok


def test_verify_catches_tampered_witness(swap_structure):
    d = decide_z2(swap_structure)
    bad = IsoWitness(d.witness.source, d.witness.target, (1, 0))
    forged = replaced(d, witness=bad)
    assert not verify_decision(forged).ok


def test_verify_catches_witness_of_another_structure(swap_structure):
    # a renamed copy is isomorphic to the decided structure, so the witness
    # itself checks out and only its source gives it away
    d = decide_z2(swap_structure)
    other = replaced(swap_structure, atom_names=("x", "y"))
    w = replaced(d.witness, source=other)
    assert w.problems() == ()
    report = verify_decision(replaced(d, witness=w))
    assert report.problems == ("witness source is not the decided structure",)


def test_tampered_witness_reports_cycle_mismatch():
    # swapping one converse pair keeps the bijection, identity and converse
    # checks happy, so the failure surfaces as an unpreserved cycle
    ext = extract_atom_structure(rel_algebra(build_group(3, [(0, 2, 1)])))
    d = decide_z2(ext)
    m = list(d.witness.atom_map)
    a0, a1 = map(ext.atom_names.index, ("a0", "a1"))
    m[a0], m[a1] = m[a1], m[a0]
    forged = replaced(d, witness=IsoWitness(
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
    # the target must be the structure of the owner table, field by field:
    # renamed, one cycle short, one Peircean orbit short (whole orbits, one
    # fewer cycle count), or with another identity atom
    d = decide_z2(swap_structure)
    t = d.witness.target
    renamed = replaced(t, atom_names=("x", "y"))
    broken = replaced(t, cycles=t.cycles - {(1, 1, 0)})
    short = replaced(t, cycles=t.cycles - peirce_orbit((1, 1, 0),
                                                       t.converse_map))
    moved = replaced(t, identity_atoms={1})
    for forged in (renamed, broken, short, moved):
        w = replaced(d.witness, target=forged)
        report = verify_decision(replaced(d, witness=w))
        assert report.problems == ("witness target is not the extraction of "
                                   "the action's algebra",)


def test_verify_catches_a_target_that_holds_only_the_lines():
    # a parsed structure: the target holds the image of every cycle line
    # and has as many cycles, but one cycle off the lines is swapped for a
    # triple outside the algebra, which breaks the cycle law
    s = parse_atom_structure(format_atom_structure(involution_structure(1, 1)))
    d = decide_z2(s)
    t, m = d.witness.target, d.witness.atom_map
    images = {tuple(m[a] for a in c) for c in zip(*s._lines)}
    off = min(t.cycles - images)
    outside = min(c for c in itertools.product(range(t.n_atoms), repeat=3)
                  if c not in t.cycles)
    forged = replaced(t, cycles=t.cycles - {off} | {outside})
    report = verify_decision(replaced(d, witness=replaced(d.witness,
                                                          target=forged)))
    assert report.problems == ("witness target is not the extraction of the "
                               "action's algebra",)


def test_verify_catches_a_structure_one_orbit_short():
    # the decided structure and the witness's source both lack one Peircean
    # orbit: every cycle still maps into the algebra, so only the count of
    # the algebra's cycles, read off the fixed points, tells them apart
    d = decide_z2(involution_structure(1, 1))
    s = d.structure
    c = min(c for c in s.cycles if s.identity_atoms.isdisjoint(c))
    short = replaced(s, cycles=s.cycles - peirce_orbit(c, s.converse_map))
    forged = replaced(d, structure=short,
                      witness=replaced(d.witness, source=short))
    n = len(s.cycles)
    assert verify_decision(forged).problems == (
        f"structure has {len(short.cycles)} cycles and the action's "
        f"algebra {n}",)


def accepted_decisions() -> list:
    """The accepted decisions on the catalog structures and on the
    structure of each involution with f points and t twins, f + 2t <= 8,
    and on a shuffle of each, each as built and as parsed from its text,
    whose cycle lines the checker maps."""
    rng = random.Random(8)
    structures = catalog_structures() + [
        involution_structure(f, t) for f in range(9) for t in range(5)
        if 0 < f + 2 * t <= 8]
    out = []
    for s in structures:
        for x in (s, shuffled(s, rng)):
            for y in (x, parse_atom_structure(format_atom_structure(x))):
                d = decide_z2(y)
                if d.accepted:
                    out.append(d)
    return out


def test_verify_runs_none_of_the_decisions_code(monkeypatch):
    # the checker reads the action, the owner table, the map and the
    # structures: it builds no algebra, extracts no structure and runs no
    # IsoWitness.problems(), so a fault there cannot pass twice
    decisions = accepted_decisions()
    assert len(decisions) == 272  # 137 with cycle lines: half, and swap.ra
    assert sum(d.structure._lines is not None for d in decisions) == 137

    def unreachable(*args):
        raise AssertionError("verify_decision ran the decision's code")

    for module, name in ((actions, "rel_algebra"), (proof, "rel_algebra"),
                         (concrete, "extract_atom_structure"),
                         (proof, "extract_atom_structure")):
        monkeypatch.setattr(module, name, unreachable)
    monkeypatch.setattr(IsoWitness, "problems", unreachable)
    for d in decisions:
        assert verify_decision(d).ok, d.structure.atom_names


def test_verify_reports_certificates_of_the_wrong_shape():
    # an action on another base set than the algebra's, and maps of the
    # wrong length, with a repeated atom or an id past the atoms, each end
    # in a reported problem, not in an IndexError or KeyError from the
    # owner table; the identity among the generators changes nothing
    d = decide_z2(involution_structure(1, 1))
    m = d.witness.atom_map
    assert len(m) == 5 and d.algebra.base_size == 3
    table = "stored algebra is not the compatible-relation algebra of the " \
        "action"
    for action in (involution_action(1, 2), involution_action(0, 1),
                   involution_action(3, 0), build_group(1, [])):
        report = verify_decision(replaced(d, action=action))
        assert report.problems == (table,), action
    for bad in (m[:-1], m + (0,), (m[1],) + m[1:], m[:-1] + (5,)):
        w = replaced(d.witness, atom_map=bad)
        report = verify_decision(replaced(d, witness=w))
        assert report.problems == ("atom map is not a bijection",), bad
    g = d.action.generators[0]
    action = build_group(3, [(0, 1, 2), g, g])
    assert verify_decision(replaced(d, action=action)).ok


def test_both_checkers_refuse_a_map_of_floats_or_bools():
    # 0.0 == 0 and True == 1, so such a map sorts like the atom ids; both
    # checkers refuse it, as the ConcreteAlgebra and GroupAction
    # constructors refuse such ids, before they index with it
    s = load_structure("swap.ra")
    d = decide_z2(s)
    m = d.witness.atom_map
    assert not IsoWitness(s, s, (0, 1)).problems() and verify_decision(d).ok
    for kind in (float, bool):
        bad = tuple(map(kind, range(2)))
        assert IsoWitness(s, s, bad).problems() == (
            "atom map is not a bijection",), kind
        w = replaced(d.witness, atom_map=tuple(map(kind, m)))
        assert verify_decision(replaced(d, witness=w)).problems == (
            "atom map is not a bijection",), kind


def test_a_map_that_is_no_sequence_is_no_bijection():
    # len(None) raised TypeError
    s = load_structure("swap.ra")
    assert IsoWitness(s, s, None).problems() == ("atom map is not a bijection",)


def test_a_witness_refuses_sides_that_are_no_atom_structures():
    # problems() read None's n_atoms and raised AttributeError
    s = load_structure("swap.ra")
    for source, target in ((s, None), (None, s), (s, s.atom_names)):
        with pytest.raises(ValueError, match="^source and target must be "
                                             "atom structures$"):
            IsoWitness(source, target, (0, 1))


@pytest.mark.parametrize("problems,truth", [((), True), (("p",), False)])
def test_a_verification_report_is_true_when_it_lists_no_problem(problems,
                                                                 truth):
    report = decision.VerificationReport(problems)
    assert bool(report) is truth and report.ok is truth


def test_verify_catches_tables_that_are_not_the_actions_orbits():
    # each table is named as rel_algebra names orbits: two atoms of the
    # involution's algebra merged into one and numbered by least pair, a
    # union of orbits still invariant under the involution and closed under
    # converse; the same atoms numbered out of order; and the algebra of
    # another involution with as many fixed points, so as many atoms
    d = decide_z2(involution_structure(1, 1))
    n, owner = d.algebra.base_size, d.algebra.owner
    tables = []
    for a, b in itertools.combinations(range(d.algebra.n_atoms), 2):
        ids: dict[int, int] = {}
        tables.append([ids.setdefault(a if k == b else k, len(ids))
                       for k in owner])
    tables.append([k ^ 1 if k < 2 else k for k in owner])
    tables.append(rel_algebra(build_group(3, [(1, 0, 2)])).owner)
    for table in tables:
        forged = ConcreteAlgebra(n, _orbit_names(n, table), table)
        report = verify_decision(replaced(d, algebra=forged))
        assert report.problems == ("stored algebra is not the "
                                   "compatible-relation algebra of the "
                                   "action",), table


def test_verify_catches_a_wrong_identity_atom():
    # the map sends the point's identity atom to a diversity atom
    d = decide_z2(involution_structure(1, 1))
    s, m = d.structure, list(d.witness.atom_map)
    e, x = min(s.identity_atoms), min(set(range(s.n_atoms))
                                      - s.identity_atoms)
    m[e], m[x] = m[x], m[e]
    w = replaced(d.witness, atom_map=tuple(m))
    report = verify_decision(replaced(d, witness=w))
    assert report.problems[0] == \
        "identity atoms are not mapped onto identity atoms"


def test_verify_agrees_with_the_oracle_on_every_transposed_map():
    # the proof's map with two atoms swapped, on a parsed structure whose
    # cycle lines the checker maps: verified exactly when the oracle's
    # full comparison finds an isomorphism
    s = shuffled(involution_structure(2, 2), random.Random(22))
    s = parse_atom_structure(format_atom_structure(s))
    d = decide_z2(s)
    failed = 0
    for a, b in itertools.combinations(range(s.n_atoms), 2):
        m = list(d.witness.atom_map)
        m[a], m[b] = m[b], m[a]
        w = replaced(d.witness, atom_map=tuple(m))
        report = verify_decision(replaced(d, witness=w))
        assert report.ok == (iso_problems_oracle(w) == ()), (a, b)
        failed += not report.ok
    assert failed > 100


def test_verify_at_3200_atoms_takes_at_most_half_the_decision():
    # the shuffled 80-point fixed-point-free involution, parsed from its
    # text as the CLI reads it: the checker maps 44280 cycle lines against
    # the owner table, where the decision builds the algebra, extracts its
    # 256000 cycles and checks the proof's map
    text = format_atom_structure(shuffled(involution_structure(0, 40),
                                          random.Random(40)))
    s = parse_atom_structure(text)
    decide = verify = math.inf
    for _ in range(3):
        start = time.perf_counter()
        d = decide_z2(s)
        mid = time.perf_counter()
        assert verify_decision(d).ok
        decide = min(decide, mid - start)
        verify = min(verify, time.perf_counter() - mid)
    assert verify <= decide / 2, (verify, decide)
