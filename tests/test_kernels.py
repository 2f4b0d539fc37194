"""The triple scan, the associativity join and the axiom kernel against the
dense computations they replace, kept here as oracles; and the validity of
extracted structures, which the library no longer checks at run time."""

import functools
import random
import time

from relalg import (AtomStructure, ConcreteAlgebra, ConcreteRelation,
                    atoms_functional, build_group, check_functional_density,
                    check_z2_axioms, extract_atom_structure, is_pair_dense,
                    is_simple, parse_atom_structure, parse_concrete_algebra,
                    peirce_orbit, rel_algebra, validate_structure)
from relalg import atoms
from relalg.atoms import _validate
from relalg.atoms import _associativity_witness
from relalg.cli import main

from conftest import (DATA, associativity_witness_oracle, atom_flags_oracle,
                      axioms_oracle, compose_masks_oracle,
                      composition_scan_oracle, converse_mask_oracle,
                      generated_groups, invariant_violations_oracle,
                      involution_structure, involutions, regular_action,
                      shuffled)


def random_algebras(rng, count, max_n):
    """Orbit algebras of random actions by one or two permutations."""
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        gens = [tuple(rng.sample(range(n), n))
                for _ in range(rng.randint(1, 2))]
        out.append(rel_algebra(build_group(n, gens)))
    return out


def catalog_structures():
    return [parse_atom_structure(p.read_text(), source=str(p))
            for p in sorted(DATA.glob("*.ra"))]


def extracted_structures():
    rng = random.Random(7)
    return [extract_atom_structure(c) for c in random_algebras(rng, 25, 7)]


def regular_structures():
    """Shuffled structures of regular actions, where every product of two
    atoms is one atom, so that Light's generating set is small: Z_n
    (n <= 12), Z2^k (k <= 4) and Z4 x Z2; and of the dihedral actions on 3
    to 12 points, where most products have two atoms."""
    actions = ([regular_action([n]) for n in range(1, 13)]
               + [regular_action([2] * k) for k in range(1, 5)]
               + [regular_action([4, 2])]
               + [build_group(n, [tuple((i + 1) % n for i in range(n)),
                                  tuple(-i % n for i in range(n))])
                  for n in range(3, 13)])
    rng = random.Random(13)
    return [shuffled(extract_atom_structure(rel_algebra(a)), rng)
            for a in actions]


def without_one_orbit(s, rng):
    """The structure with one Peircean orbit of cycles dropped."""
    t = rng.choice(sorted(s.cycles))
    cycles = s.cycles - peirce_orbit(t, s.converse_map)
    return AtomStructure(s.atom_names, s.converse_map, s.identity_atoms,
                         cycles)


# --- extracted structures are valid ---------------------------------------------


def test_every_extracted_structure_in_the_corpus_is_valid():
    # extract_atom_structure does not validate its result; the laws hold
    # for the structure of every proper algebra, checked here instead
    algebras = random_algebras(random.Random(7), 25, 7)
    algebras += [parse_concrete_algebra(p.read_text(), source=str(p))
                 for p in sorted(DATA.glob("*.ca"))]
    algebras += [rel_algebra(build_group(n, [g]))
                 for n in range(1, 6) for g in involutions(n)]
    assert len(algebras) >= 25 + 1 + 43  # 43 involutions on 1 to 5 points
    for c in algebras:
        s = extract_atom_structure(c)
        assert s.validation.ok, (c.base_size, s.validation.lines())


def test_validation_runs_at_most_once_per_structure(monkeypatch, capsys):
    # structures built by the pipeline are not validated: rel validates
    # nothing, and no subcommand validates a structure object twice; an
    # accepted decide-z2 and a matching check-action validate nothing, and
    # a found iso the source alone: the witness certifies the rest
    calls = []

    def counting(self):
        calls.append(self)
        return _validate(self)

    prop = functools.cached_property(counting)
    prop.__set_name__(AtomStructure, "validation")
    monkeypatch.setattr(AtomStructure, "validation", prop)
    swap_ra, swap_act = DATA / "swap.ra", DATA / "swap.act"
    for argv, status, objects in (
            (["rel", DATA / "d5.act"], 0, 0),
            (["classify", DATA / "type6.ca"], 0, 0),
            (["validate", swap_ra], 0, 1),
            (["axioms", DATA / "57.ra"], 2, 1),
            (["decide-z2", swap_ra], 0, 0),
            (["decide-z2", swap_ra, "--verify"], 0, 0),
            (["decide-z2", DATA / "23.ra", "--verify"], 2, 1),
            (["iso", swap_ra, swap_ra], 0, 1),
            (["iso", swap_ra, DATA / "23.ra"], 2, 2),
            (["check-action", swap_ra, swap_act], 0, 0),
            (["check-action", DATA / "23.ra", swap_act], 2, 1)):
        calls.clear()
        assert main([str(a) for a in argv]) == status, argv
        capsys.readouterr()
        assert len(calls) == objects, argv
        assert len({id(s) for s in calls}) == objects, argv


def test_the_join_runs_only_before_uncertified_verdicts(monkeypatch, capsys):
    # a witness onto an associative structure proves the other side
    # associative: an accepted decision and a matching check-action run no
    # join, a found iso joins the source alone, and the rest validate every
    # input they were given
    calls = []

    def counting(s):
        calls.append(s)
        return witness(s)

    witness = atoms._associativity_witness
    monkeypatch.setattr(atoms, "_associativity_witness", counting)
    swap_ra, swap_act = DATA / "swap.ra", DATA / "swap.act"
    for argv, status, joins in (
            (["decide-z2", swap_ra, "--verify"], 0, 0),
            (["decide-z2", DATA / "23.ra", "--verify"], 2, 1),
            (["decide-z2", DATA / "57.ra"], 2, 1),
            (["check-action", swap_ra, swap_act], 0, 0),
            (["check-action", DATA / "23.ra", swap_act], 2, 1),
            (["iso", DATA / "23.ra", DATA / "23_relabeled.ra"], 0, 1),
            (["iso", DATA / "23.ra", DATA / "57.ra"], 2, 2),
            (["iso", DATA / "23.ra", swap_ra], 2, 2),
            (["axioms", swap_ra], 0, 1),
            (["validate", swap_ra], 0, 1)):
        calls.clear()
        assert main([str(a) for a in argv]) == status, argv
        capsys.readouterr()
        assert len(calls) == joins, argv
        assert len({id(s) for s in calls}) == joins, argv


# --- associativity join -----------------------------------------------------


def test_join_matches_dense_scan_on_catalog_and_extracted():
    structures = (catalog_structures() + extracted_structures()
                  + regular_structures())
    for s in structures:
        assert _associativity_witness(s) == associativity_witness_oracle(s)
        assert _associativity_witness(s) is None


def test_join_matches_dense_scan_on_corrupted_tables(monkeypatch):
    # the columns of each kernel pass, to see which witnesses the pass over
    # the generating set found first and the pass over all columns settled
    columns_seen = []

    def recording(comp, columns):
        columns_seen.append(len(columns))
        return first_mismatch(comp, columns)

    first_mismatch = atoms._first_mismatch
    monkeypatch.setattr(atoms, "_first_mismatch", recording)
    rng = random.Random(11)
    failing = rerun = 0
    structures = (catalog_structures() + extracted_structures()
                  + regular_structures())
    for s in structures:
        for _ in range(4):
            bad = without_one_orbit(s, rng)
            columns_seen.clear()
            wit = _associativity_witness(bad)
            assert wit == associativity_witness_oracle(bad)
            if wit is not None:
                failing += 1
                if columns_seen[0] < bad.n_atoms:
                    assert columns_seen == [columns_seen[0], bad.n_atoms]
                    rerun += 1
                assert "associativity" in validate_structure(bad).codes()
            else:
                assert len(columns_seen) == 1
    assert failing > 10  # the corruptions do break associativity
    assert rerun > 10  # and often fail on the generating set first


def test_only_one_atom_products_reach_new_columns():
    # x;x = {x, y}, x;y = {y}, y;x = {x, y}, y;y = {x}.  Column x passes,
    # and y is the only failing column: (x;x);y = {x, y} but x;(x;y) = {y}.
    # y lies in x;x but no one-atom product of x reaches it, so y joins the
    # generating set; reaching it through x;x would check column x alone
    # and pass the table.
    s = AtomStructure(("x", "y"), (0, 1), frozenset(),
                      {(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1),
                       (1, 1, 0)})
    assert associativity_witness_oracle(s) == (0, 0, 1)
    assert _associativity_witness(s) == (0, 0, 1)


def test_rows_off_the_support_fail_on_invalid_tables():
    # x;y = {z} and z;x = {x} but y;x = 0: in row (x, y) the left side
    # reaches column x, off the support of y, where the right side is 0
    escape = AtomStructure(("x", "y", "z"), (0, 1, 2), frozenset(),
                           {(0, 1, 2), (2, 0, 0)})
    # x;y = 0 but y;x = {z} and x;z = {x}: row (x, y) is 0 on the left and
    # x;(y;x) = {x} on the right
    zero_row = AtomStructure(("x", "y", "z"), (0, 1, 2), frozenset(),
                             {(1, 0, 2), (0, 2, 0)})
    for s in (escape, zero_row):
        assert associativity_witness_oracle(s) == (0, 1, 0)
        assert _associativity_witness(s) == (0, 1, 0)


def test_validating_the_structure_of_z2_to_the_8_takes_under_a_second():
    # 256 atoms, each product one atom: the generating set has 9 atoms,
    # where a pass over every column costs 2.5 s
    s = extract_atom_structure(rel_algebra(regular_action([2] * 8)))
    assert (s.n_atoms, len(s.cycles)) == (256, 65536)
    start = time.perf_counter()
    report = validate_structure(s)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert elapsed < 1.0


# --- triple scan --------------------------------------------------------------


def test_scan_cycles_match_pairwise_composition():
    rng = random.Random(3)
    algebras = random_algebras(rng, 40, 8)
    for path in sorted(DATA.glob("*.ca")):
        algebras.append(parse_concrete_algebra(path.read_text()))
    for c in algebras:
        cycles, messages = composition_scan_oracle(c)
        assert messages == []
        assert c.invariant_violations() == ()
        assert extract_atom_structure(c).cycles == cycles


def random_partition(rng, n, gap=0.0, overlap=0.0):
    """A random partition of the square into a few blocks, usually not
    closed under converse or composition; with gap and overlap, that share
    of the pairs is left out of every block or put in a second block."""
    k = rng.randint(1, 6)
    pairs = [[] for _ in range(k)]
    for i in range(n):
        for j in range(n):
            if gap and rng.random() < gap:
                continue
            pairs[rng.randrange(k)].append((i, j))
            if overlap and rng.random() < overlap:
                pairs[rng.randrange(k)].append((i, j))
    pairs = [p for p in pairs if p]
    return ConcreteAlgebra(
        n, tuple(f"r{b}" for b in range(len(pairs))),
        tuple(ConcreteRelation.from_pairs(n, p) for p in pairs))


def test_broken_algebras_report_the_same_closure_messages_in_order():
    # the whole message tuple against the oracle: on partitions (150), and
    # on covers of the square with overlaps, gaps or both
    rng = random.Random(5)
    broken = 0
    for _ in range(150):
        c = random_partition(rng, rng.randint(1, 5))
        want = invariant_violations_oracle(c)
        assert c.invariant_violations() == want
        broken += any(m.startswith("not closed under composition")
                      for m in want)
    assert broken > 50
    rng = random.Random(6)
    firsts = []
    for gap, overlap in ((0.1, 0.0), (0.0, 0.1), (0.05, 0.05)) * 100:
        c = random_partition(rng, rng.randint(2, 5), gap, overlap)
        want = invariant_violations_oracle(c)
        assert c.invariant_violations() == want
        firsts.append(want[0] if want else "")
    assert sum("overlap at pair" in m for m in firsts) > 50
    assert sum("is in no atom" in m for m in firsts) > 50


def test_closure_scan_runs_once_per_algebra_object(monkeypatch, capsys):
    # the O(n^3) closure scan runs only on algebras from outside, once per
    # object; the whole check behind invariant_violations, which
    # rel_algebra and extract_atom_structure each ask for, runs once per
    # algebra object
    counted = {"_uncovered": [], "_violations": []}
    for name, calls in counted.items():
        def counting(self, calls=calls, func=ConcreteAlgebra.__dict__[name].func):
            calls.append(self)
            return func(self)

        prop = functools.cached_property(counting)
        prop.__set_name__(ConcreteAlgebra, name)
        monkeypatch.setattr(ConcreteAlgebra, name, prop)
    for argv, scans, objects in (
            (["rel", DATA / "d5.act"], 0, 1),
            (["classify", DATA / "type6.ca"], 1, 1),
            (["decide-z2", DATA / "swap.ra", "--verify"], 0, 2),
            (["check-action", DATA / "swap.ra", DATA / "swap.act"], 0, 1)):
        for calls in counted.values():
            calls.clear()
        assert main([str(a) for a in argv]) == 0
        capsys.readouterr()
        for name, want in (("_uncovered", scans), ("_violations", objects)):
            calls = counted[name]
            assert len(calls) == want, (argv, name)
            assert len({id(c) for c in calls}) == want, (argv, name)


def test_no_atom_converse_relation_is_built(monkeypatch, capsys):
    # converses are read off the transposed owner table, not built per atom
    calls = []
    real = ConcreteRelation.converse

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ConcreteRelation, "converse", counting)
    for argv in (["rel", DATA / "d5.act"],
                 ["classify", DATA / "type6.ca"],
                 ["decide-z2", DATA / "swap.ra", "--verify"]):
        assert main([str(a) for a in argv]) == 0
        capsys.readouterr()
        assert calls == [], argv


# --- point, pair and function flags, and the axioms --------------------------


def direct_product(s, t):
    """The atom structure of the direct product of s and t: the atoms of t
    follow those of s and no cycle joins the two.  Valid when s and t are,
    and not simple."""
    n = s.n_atoms
    return AtomStructure(
        tuple(f"l{x}" for x in s.atom_names)
        + tuple(f"r{x}" for x in t.atom_names),
        s.converse_map + tuple(n + c for c in t.converse_map),
        s.identity_atoms | {n + e for e in t.identity_atoms},
        s.cycles | {(n + x, n + y, n + z) for x, y, z in t.cycles})


def test_atom_flags_and_simplicity_match_element_level_oracle():
    # the element-level definitions check the oracle's atom flags and
    # simplicity; the axiom kernel, read off domains, ranges and the
    # diversity atoms from e to e, must give the oracle's three answers
    # and three witnesses
    rng = random.Random(17)
    involution_structures = [
        shuffled(involution_structure(points, twins), rng)
        for points in range(7) for twins in range((6 - points) // 2 + 1)
        if points + twins]
    products = [shuffled(direct_product(s, t), rng)
                for s in catalog_structures() for t in catalog_structures()]
    # every group generated by one or two permutations of 4 points: some
    # have functional atoms whose converses are not functions
    small_groups = [extract_atom_structure(rel_algebra(a))
                    for a in generated_groups(4).values()]
    structures = (catalog_structures() + extracted_structures()
                  + regular_structures() + involution_structures + products
                  + small_groups)
    assert len(involution_structures) == 15
    assert all(s.validation.ok for s in products)
    failed = [0, 0, 0]
    for s in structures:
        full = s.full_mask
        div = full & ~s.identity_mask

        def below_identity(m):
            return m & div == 0

        def comp(*masks):
            acc = masks[0]
            for m in masks[1:]:
                acc = compose_masks_oracle(s, acc, m)
            return acc

        flags = atom_flags_oracle(s)
        for a in range(s.n_atoms):
            m = 1 << a
            assert flags[a] == (
                below_identity(comp(m, full, m)),
                below_identity(comp(m, div, m, div, m)),
                below_identity(comp(converse_mask_oracle(s, m), m)))
        want = axioms_oracle(s)
        simple = all(comp(full, 1 << a, full) == full
                     for a in range(s.n_atoms))
        assert want[0] == simple
        r = check_z2_axioms(s)
        assert (*r.as_triple(), r.simple_witness, r.pair_dense_witness,
                r.functional_witness) == want, s.atom_names
        assert (is_simple(s), is_pair_dense(s), atoms_functional(s)) == (
            want[0], (want[1], want[4]), (want[2], want[5]))
        fn = sum(1 << a for a in range(s.n_atoms) if flags[a][2])
        assert check_functional_density(s) == (
            comp(converse_mask_oracle(s, fn), fn) == full)
        failed = [f + (not w) for f, w in zip(failed, want)]
    assert min(failed) >= 16  # each axiom fails on some inputs


# --- error paths ----------------------------------------------------------------


def test_recursion_and_memory_errors_exit_1_without_traceback(monkeypatch,
                                                              capsys):
    import relalg.cli as cli
    for exc, message in ((RecursionError("maximum recursion depth exceeded"),
                          "maximum recursion depth exceeded"),
                         (MemoryError(), "MemoryError")):
        # the parser is built once and keeps the handlers it was built
        # with, so the error comes from the file read every handler makes
        def read(path, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "_read", read)
        assert main(["validate", str(DATA / "23.ra")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert "Traceback" not in captured.err
