"""The triple scan, the associativity join and the flag kernel against the
dense computations they replace, kept here as oracles; and the validity of
extracted structures, which the library no longer checks at run time."""

import functools
import random

from relalg import (AtomStructure, ConcreteAlgebra, ConcreteRelation,
                    build_group, check_z2_axioms, extract_atom_structure,
                    parse_atom_structure, parse_concrete_algebra,
                    peirce_orbit, rel_algebra, validate_structure)
from relalg.atoms import _validate
from relalg.atoms import _associativity_witness
from relalg.cli import main

from conftest import (DATA, associativity_witness_oracle,
                      compose_masks_oracle, composition_scan_oracle,
                      converse_mask_oracle, invariant_violations_oracle,
                      involutions)


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
    # nothing, and no subcommand validates a structure object twice
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
            (["decide-z2", swap_ra], 0, 1),
            (["decide-z2", swap_ra, "--verify"], 0, 1),
            (["decide-z2", DATA / "23.ra", "--verify"], 2, 1),
            (["iso", swap_ra, swap_ra], 0, 2),
            (["check-action", swap_ra, swap_act], 0, 1),
            (["check-action", DATA / "23.ra", swap_act], 2, 1)):
        calls.clear()
        assert main([str(a) for a in argv]) == status, argv
        capsys.readouterr()
        assert len(calls) == objects, argv
        assert len({id(s) for s in calls}) == objects, argv


# --- associativity join -----------------------------------------------------


def test_join_matches_dense_scan_on_catalog_and_extracted():
    for s in catalog_structures() + extracted_structures():
        assert _associativity_witness(s) == associativity_witness_oracle(s)
        assert _associativity_witness(s) is None


def test_join_matches_dense_scan_on_corrupted_tables():
    rng = random.Random(11)
    failing = 0
    for s in catalog_structures() + extracted_structures():
        for _ in range(4):
            bad = without_one_orbit(s, rng)
            wit = _associativity_witness(bad)
            assert wit == associativity_witness_oracle(bad)
            if wit is not None:
                failing += 1
                assert "associativity" in validate_structure(bad).codes()
    assert failing > 10  # the corruptions do break associativity


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


# --- point, pair and function flags ---------------------------------------------


def test_atom_flags_and_simplicity_match_element_level_oracle():
    for s in catalog_structures() + extracted_structures():
        full = s.full_mask
        div = full & ~s.identity_mask

        def below_identity(m):
            return m & div == 0

        def comp(*masks):
            acc = masks[0]
            for m in masks[1:]:
                acc = compose_masks_oracle(s, acc, m)
            return acc

        for a in range(s.n_atoms):
            m = 1 << a
            assert s.atom_flags[a] == (
                below_identity(comp(m, full, m)),
                below_identity(comp(m, div, m, div, m)),
                below_identity(comp(converse_mask_oracle(s, m), m)))
        simple = all(comp(full, 1 << a, full) == full
                     for a in range(s.n_atoms))
        assert check_z2_axioms(s).simple == simple


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
