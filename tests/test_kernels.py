"""The triple scan, the associativity join and the axiom kernel against the
dense computations they replace, kept here as oracles; and the validity of
extracted structures, which the library no longer checks at run time."""

import functools
import random
import time

import pytest

from relalg import (AtomStructure, ConcreteAlgebra, ConcreteAlgebraError,
                    build_group, check_z2_axioms, extract_atom_structure,
                    format_atom_structure, parse_atom_structure,
                    parse_concrete_algebra, parse_group_action, peirce_orbit,
                    rel_algebra)
from relalg import cli, join, laws
from relalg.laws import _local_laws, _validate
from relalg.join import _associativity_witness, _generating_set
from relalg.cli import main

from conftest import (DATA, ConcreteRelation, associativity_witness_oracle,
                      atom_flags_oracle, atom_relations, axioms_oracle,
                      close_cycles_oracle, compose_masks_oracle,
                      composition_scan_oracle, converse_mask_oracle,
                      generated_groups, invariant_violations_oracle,
                      involution_action, involution_structure, involutions,
                      load_action, load_structure, local_laws_oracle,
                      regular_action, shuffled)
from conftest import axiom_triple, element_flags, report_codes


def random_algebras(rng, count, max_n):
    """Orbit algebras of random actions by one or two permutations."""
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        gens = [tuple(rng.sample(range(n), n))
                for _ in range(rng.randint(1, 2))]
        out.append(rel_algebra(build_group(n, gens)))
    return out


def dihedral_action(n):
    """The dihedral group of order 2n on n points: a rotation and a flip."""
    return build_group(n, [tuple((i + 1) % n for i in range(n)),
                           tuple(-i % n for i in range(n))])


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


def test_extraction_equals_the_checked_constructor():
    # extraction sets the fields without the constructor's checks, trusting
    # the ids of the owner table; the constructor, given the same fields,
    # checks them and builds an equal structure with ids of type int only
    algebras = random_algebras(random.Random(7), 40, 7)
    algebras += [parse_concrete_algebra(p.read_text(), source=str(p))
                 for p in sorted(DATA.glob("*.ca"))]
    for c in algebras:
        s = extract_atom_structure(c)
        checked = AtomStructure(c.atom_names, c._converse_ids,
                                c._identity_ids, list(s.cycles))
        assert s == checked
        for field in ("atom_names", "converse_map", "identity_atoms",
                      "cycles"):
            assert type(getattr(s, field)) is type(getattr(checked, field))
        ids = {*s.converse_map, *s.identity_atoms,
               *(a for t in s.cycles for a in t)}
        assert {type(a) for a in ids} == {int}
        assert {type(t) for t in s.cycles} <= {tuple}


def constructor_fields(text):
    """The constructor's four arguments for a well-formed .ra text, read
    without the parser: the first of two equal names wins, and the cycle
    lines are closed by the oracle."""
    names, conv, ident, reps, index = [], [], [], [], {}
    for kw, *args in filter(None, (raw.split("#", 1)[0].split()
                                   for raw in text.splitlines())):
        if kw == "atoms":
            names, conv = args, list(range(len(args)))
            for a, name in reversed([*enumerate(args)]):
                index[name] = a
        elif kw == "identity":
            ident = [index[a] for a in args]
        elif kw == "converse":
            for pair in args:
                a, b = (index[name] for name in pair.split(":"))
                conv[a], conv[b] = b, a
        elif kw == "cycle":
            reps.append(tuple(index[a] for a in args))
    return names, conv, ident, close_cycles_oracle(reps, conv)


def shuffled_texts():
    """The `.ra` texts of shuffled extractions: an involution, Z4 x Z2, Z7,
    Z3 on four triangles and D7."""
    rng = random.Random(11)
    z3_triangles = build_group(12, [tuple(3 * (i // 3) + (i + 1) % 3
                                          for i in range(12))])
    return [format_atom_structure(shuffled(extract_atom_structure(
        rel_algebra(a)), rng)) for a in (
            involution_action(2, 3), regular_action([4, 2]),
            regular_action([7]), z3_triangles, dihedral_action(7))]


def test_parsing_equals_the_checked_constructor():
    # the parser sets the fields without the constructor's checks, trusting
    # the ids of its name index; the constructor, given the same names,
    # converse, identity atoms and closed cycle lines, checks them and
    # builds an equal structure with ids of type int only
    texts = [p.read_text() for p in sorted(DATA.glob("*.ra"))]
    texts += shuffled_texts()
    texts += [
        # a duplicated name: the second a keeps its own id and converse
        "atoms e a a\nidentity e\nconverse a:a\ncycle e a a\n",
        # a repeated cycle line, and a transform of it
        "atoms e a\nidentity e\ncycle e a a\ncycle e a a\ncycle a a e\n",
        # no cycle lines
        "atoms e\nidentity e\n",
    ]
    for text in texts:
        s = parse_atom_structure(text)
        checked = AtomStructure(*constructor_fields(text))
        assert s == checked, text
        for field in ("atom_names", "converse_map", "identity_atoms",
                      "cycles"):
            assert type(getattr(s, field)) is type(getattr(checked, field))
        ids = {*s.converse_map, *s.identity_atoms,
               *(a for t in s.cycles for a in t)}
        assert {type(a) for a in ids} == {int}
        assert {type(t) for t in s.cycles} <= {tuple}
    assert parse_atom_structure(texts[-3]).converse_map == (0, 1, 2)
    assert parse_atom_structure(texts[-1]).cycles == frozenset()


def test_the_trusted_callers_keep_the_cycle_law():
    # _of_checked_ids presets the cycle law's scan to find nothing; its two
    # callers, the parser and extraction, must build structures on which
    # the scan, run directly, finds nothing indeed
    structures = [parse_atom_structure(p.read_text(), source=str(p))
                  for p in sorted(DATA.glob("*.ra"))]
    structures += [parse_atom_structure(t) for t in shuffled_texts()]
    algebras = [rel_algebra(load_action(p.name))
                for p in sorted(DATA.glob("*.act"))]
    algebras += random_algebras(random.Random(7), 40, 7)
    structures += [extract_atom_structure(c) for c in algebras]
    assert len(structures) == 4 + 5 + 4 + 40
    for s in structures:
        assert laws._broken_cycles(s) == [], s.atom_names


def test_validation_runs_at_most_once_per_structure(monkeypatch, capsys):
    # structures built by the pipeline are not validated: rel validates
    # nothing, and no subcommand validates a structure object twice; an
    # accepted decide-z2, a matching check-action and an iso map built by
    # the proof validate nothing, and an iso map found by search the
    # source alone: the witness certifies the rest
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
            (["iso", swap_ra, swap_ra], 0, 0),
            (["iso", DATA / "23.ra", DATA / "23_relabeled.ra"], 0, 1),
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

    witness = join._associativity_witness
    monkeypatch.setattr(join, "_associativity_witness", counting)
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


def other_member_lines(text, rng):
    """The .ra text with each cycle line replaced by two lines, each naming
    a member of its Peircean orbit other than itself where it has one, in
    shuffled order."""
    s = parse_atom_structure(text)
    names, head, lines = s.atom_names, [], []
    for line in text.splitlines():
        if not line.startswith("cycle "):
            head.append(line)
            continue
        c = tuple(map(names.index, line.split()[1:]))
        others = sorted(peirce_orbit(c, s.converse_map) - {c}) or [c]
        lines += [" ".join(["cycle", *map(names.__getitem__,
                                          rng.choice(others))])
                  for _ in range(2)]
    rng.shuffle(lines)
    return "\n".join(head + lines) + "\n"


def test_the_cycle_set_is_built_only_where_a_reader_needs_it(
        monkeypatch, capsys, tmp_path):
    # the local laws and the join read a parsed structure's cycle lines,
    # so validate, axioms, a decide-z2 rejection and an iso `none` of the
    # class or of the power runs never build its cycle set; an accepted
    # decision, whose certificate counts the set, and the search's colour
    # refinement build it when they first read it
    parsed = []

    def recording(text, source="<string>"):
        parsed.append(parse(text, source))
        return parsed[-1]

    parse = cli.parse_atom_structure
    monkeypatch.setattr(cli, "parse_atom_structure", recording)
    rng = random.Random(39)
    texts = [p.read_text() for p in sorted(DATA.glob("*.ra"))]
    texts += shuffled_texts()
    texts += [format_atom_structure(extract_atom_structure(rel_algebra(
        load_action(p.name)))) for p in sorted(DATA.glob("*.act"))]
    texts += [other_member_lines(t, rng) for t in texts]
    paths = []
    for k, text in enumerate(texts):
        paths.append(tmp_path / f"{k}.ra")
        paths[-1].write_text(text, encoding="utf-8")
    z9, z3z3 = tmp_path / "z9.ra", tmp_path / "z3z3.ra"
    for path, orders in ((z9, [9]), (z3z3, [3, 3])):
        path.write_text(format_atom_structure(extract_atom_structure(
            rel_algebra(regular_action(orders)))), encoding="utf-8")
    runs = [(["validate", p], 0) for p in paths]
    runs += [(["axioms", p], None) for p in paths]
    runs += [(["decide-z2", p], 2) for p in paths
             if main(["axioms", str(p)]) == 2]
    runs += [(["iso", z9, z3z3], 2), (["iso", z3z3, DATA / "23.ra"], 2),
             (["iso", DATA / "swap.ra", DATA / "23.ra"], 2)]
    assert (len(paths), len(runs)) == (26, 2 * 26 + 20 + 3)
    capsys.readouterr()
    for argv, status in runs:
        parsed.clear()
        code = main([str(a) for a in argv])
        capsys.readouterr()
        assert status in (None, code), argv
        assert parsed and all(s.validation.ok for s in parsed), argv
        assert not any("cycles" in s.__dict__ for s in parsed), argv
    for argv in (["decide-z2", DATA / "swap.ra", "--verify"],
                 ["iso", DATA / "23.ra", DATA / "23_relabeled.ra"]):
        parsed.clear()
        assert main([str(a) for a in argv]) == 0
        assert all("cycles" in s.__dict__ for s in parsed), argv
    capsys.readouterr()


def test_cycle_law_scan_runs_only_where_it_can_fail(monkeypatch):
    # the parser's closure under an involutive converse and the structure
    # of a proper algebra obey the cycle law, so its scan never runs on
    # parsed or extracted input, and runs once on the same structure
    # rebuilt by the constructor
    calls = []

    def counting(s):
        calls.append(s)
        return broken_cycles(s)

    broken_cycles = laws._broken_cycles
    monkeypatch.setattr(laws, "_broken_cycles", counting)

    def scans(s):
        calls.clear()
        violations = s._local_violations
        return len(calls), violations

    parsed = [parse_atom_structure((DATA / name).read_text())
              for name in ("23.ra", "57.ra", "swap.ra", "23_relabeled.ra")]
    extracted = [extract_atom_structure(rel_algebra(load_action(name)))
                 for name in ("d5.act", "swap.act", "z3.act")]
    for s in parsed + extracted:
        assert scans(s) == (0, ()), s.atom_names
        rebuilt = AtomStructure(s.atom_names, s.converse_map,
                                s.identity_atoms, s.cycles)
        assert scans(rebuilt) == (1, ()), s.atom_names


# --- associativity join -----------------------------------------------------


def test_join_matches_dense_scan_on_catalog_and_extracted():
    structures = (catalog_structures() + extracted_structures()
                  + regular_structures())
    for s in structures:
        assert _associativity_witness(s) == associativity_witness_oracle(s)
        assert _associativity_witness(s) is None


def test_join_matches_dense_scan_on_corrupted_tables(monkeypatch):
    # the blocks and the answers of each kernel pass, to see which
    # witnesses the pass over the generating set found first and the
    # passes after it settled
    passes = []

    def recording(comp, col_supp, blocks, symmetric=False):
        answers = []
        passes.append(answers)
        for wit in mismatches(comp, col_supp, blocks, symmetric):
            answers.append(wit)
            yield wit

    mismatches = join._mismatches
    monkeypatch.setattr(join, "_mismatches", recording)
    rng = random.Random(11)
    failing = rerun = 0
    structures = (catalog_structures() + extracted_structures()
                  + regular_structures())
    for s in structures:
        for _ in range(4):
            bad = without_one_orbit(s, rng)
            passes.clear()
            wit = _associativity_witness(bad)
            assert wit == associativity_witness_oracle(bad)
            if wit is not None:
                failing += 1
                # the first pass fails, and stops there, before the passes
                # that find the least witness
                first = passes[0]
                assert len(passes) > 1 and first[-1] is not None
                assert not any(first[:-1])
                assert wit in passes[-1]
                # the witness pass stops at the first single-row block, in
                # b order, that fails in row a
                assert len(passes[-1]) == wit[1] + 1
                if len(first) < bad.n_atoms:
                    rerun += 1
                assert "associativity" in report_codes(bad.validation)
            else:
                assert len(passes) == 1 and not any(passes[0])
    assert failing > 10  # the corruptions do break associativity
    assert rerun > 10  # and often fail on the generating set first


def test_the_joins_generating_set_does_not_depend_on_atom_names(monkeypatch):
    # the join grows G from the functions, then the identity atoms, then
    # the rest: one size of G over 12 shuffles of each dihedral table,
    # where growing it in id order gives two or more
    sizes = []

    def recording(comp, conv, order):
        gens, rank = generating_set(comp, conv, order)
        sizes.append(len(gens))
        return gens, rank

    generating_set = join._generating_set
    monkeypatch.setattr(join, "_generating_set", recording)
    for points, size in ((24, 7), (40, 11), (60, 16)):
        s = extract_atom_structure(rel_algebra(dihedral_action(points)))
        in_id_order = set()
        for seed in range(12):
            t = shuffled(s, random.Random(seed))
            sizes.clear()
            assert _associativity_witness(t) is None
            assert sizes == [size], (points, seed)
            ids = range(t.n_atoms)
            in_id_order.add(len(generating_set(t._comp, t.converse_map,
                                               ids)[0]))
        assert len(in_id_order) >= 2, points


def test_the_first_pass_is_one_sided_where_every_atom_is_self_converse(
        monkeypatch):
    # a table whose atoms are all their own converses is commutative, so
    # each block of the first pass computes its left side only
    flags = []

    def recording(comp, col_supp, blocks, symmetric=False):
        flags.append(symmetric)
        return mismatches(comp, col_supp, blocks, symmetric)

    mismatches = join._mismatches
    monkeypatch.setattr(join, "_mismatches", recording)
    rng = random.Random(5)
    dihedral = shuffled(extract_atom_structure(rel_algebra(
        dihedral_action(12))), rng)
    z3 = shuffled(extract_atom_structure(rel_algebra(
        parse_group_action((DATA / "z3.act").read_text()))), rng)
    assert dihedral.converse_map == tuple(range(dihedral.n_atoms))
    assert z3.converse_map != tuple(range(3))
    for s, symmetric in ((dihedral, True), (z3, False)):
        flags.clear()
        assert _associativity_witness(s) is None
        assert flags == [symmetric]


def test_converse_closure_shrinks_the_generating_set():
    # under the cycle law a good column's converse is good, so the set
    # closed under converse is no larger than plain Light's; the shuffled
    # 24-twin involution has 1152 atoms, and plain Light's set 47 of them
    for s in (catalog_structures() + extracted_structures()
              + regular_structures()):
        ids = range(s.n_atoms)
        gens, _ = _generating_set(s._comp, s.converse_map, ids)
        plain, _ = _generating_set(s._comp, ids, ids)
        assert len(gens) <= len(plain)
    s = shuffled(involution_structure(0, 24), random.Random(24))
    ids = range(s.n_atoms)
    gens, _ = _generating_set(s._comp, s.converse_map, ids)
    plain, _ = _generating_set(s._comp, ids, ids)
    assert len(gens) <= 24 < len(plain)


def test_only_one_atom_products_reach_new_columns():
    # Three atoms, each its own converse, under the cycle law: x;x = {y, z},
    # y;y = {z}, z;z = {y}, y;z = z;y = {y, z}, and x;y, y;x, x;z, z;x are
    # {x}.  x is good, and y is the least atom that is not:
    # (y;y);z = {y} but y;(y;z) = {y, z}.  y lies in x;x but no one-atom
    # product of x reaches it, so y joins the generating set; reaching it
    # through x;x would check x's block alone and pass the table.
    conv = (0, 1, 2)
    s = AtomStructure(("x", "y", "z"), conv, frozenset(), close_cycles_oracle(
        [(0, 0, 1), (0, 0, 2), (1, 1, 2), (1, 2, 2)], conv))
    assert not s._cycle_law_broken
    assert associativity_witness_oracle(s) == (1, 1, 2)
    assert _associativity_witness(s) == (1, 1, 2)
    assert _generating_set(s._comp, conv, range(3))[0] == [0, 1]
    # x;x = {x, y}, x;y = {y}, y;x = {x, y}, y;y = {x}: (x;x);y = {x, y}
    # but x;(x;y) = {y}.  The table breaks the cycle law, so it takes the
    # exact scan.
    s = AtomStructure(("x", "y"), (0, 1), frozenset(),
                      {(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1),
                       (1, 1, 0)})
    assert s._cycle_law_broken
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
    # 256 atoms, each product one atom: the generating set has 8 atoms,
    # where a pass over every column costs 2.5 s
    s = extract_atom_structure(rel_algebra(regular_action([2] * 8)))
    assert (s.n_atoms, len(s.cycles)) == (256, 65536)
    start = time.perf_counter()
    report = s.validation
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
        cycles, messages = composition_scan_oracle(c.atom_names,
                                                   atom_relations(c))
        assert messages == []
        assert c.invariant_violations() == ()
        assert extract_atom_structure(c).cycles == cycles


def random_partition(rng, n, gap=0.0, overlap=0.0):
    """A random partition of the square into a few blocks, usually not
    closed under converse or composition, as (names, pairs of each block);
    with gap and overlap, that share of the pairs is left out of every
    block or put in a second block."""
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
    return tuple(f"r{b}" for b in range(len(pairs))), pairs


def concrete_text(rng, n, names, pairs):
    """The `.ca` text of the blocks, each line's pairs shuffled and some
    of them listed twice."""
    lines = [f"set {n}"]
    for name, block in zip(names, pairs):
        block = block + rng.sample(block, rng.randint(0, len(block)))
        rng.shuffle(block)
        lines.append(f"atom {name} = "
                     + " ".join(f"({i},{j})" for i, j in block))
    return "\n".join(lines) + "\n"


def oracle_messages(n, names, pairs):
    return invariant_violations_oracle(
        n, names, [ConcreteRelation.from_pairs(n, p) for p in pairs])


def test_broken_algebras_report_the_same_closure_messages_in_order():
    # the whole message tuple against the oracle, on `.ca` text: on
    # partitions (150), and on covers of the square with overlaps, gaps or
    # both, which the parser rejects with the oracle's first message
    rng, text_rng = random.Random(5), random.Random(105)
    broken = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        names, pairs = random_partition(rng, n)
        want = oracle_messages(n, names, pairs)
        c = parse_concrete_algebra(concrete_text(text_rng, n, names, pairs))
        assert c.invariant_violations() == want
        broken += any(m.startswith("not closed under composition")
                      for m in want)
    assert broken > 50
    rng, text_rng = random.Random(6), random.Random(106)
    firsts = []
    for gap, overlap in ((0.1, 0.0), (0.0, 0.1), (0.05, 0.05)) * 100:
        n = rng.randint(2, 5)
        names, pairs = random_partition(rng, n, gap, overlap)
        want = oracle_messages(n, names, pairs)
        text = concrete_text(text_rng, n, names, pairs)
        if want and want[0].startswith("not a partition"):
            with pytest.raises(ConcreteAlgebraError) as exc:
                parse_concrete_algebra(text)
            assert exc.value.violations == want[:1]
        else:
            assert parse_concrete_algebra(text).invariant_violations() == want
        firsts.append(want[0] if want else "")
    assert sum("overlap at pair" in m for m in firsts) > 50
    assert sum("is in no atom" in m for m in firsts) > 50


def test_closure_scan_runs_once_per_algebra_object(monkeypatch, capsys):
    # the O(n^3) closure scan runs only on algebras from outside, once per
    # object; the whole check behind invariant_violations, which
    # rel_algebra and extract_atom_structure each ask for, runs once per
    # algebra object, and verify_decision builds no algebra of its own
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
            (["decide-z2", DATA / "swap.ra", "--verify"], 0, 1),
            (["check-action", DATA / "swap.ra", DATA / "swap.act"], 0, 1)):
        for calls in counted.values():
            calls.clear()
        assert main([str(a) for a in argv]) == 0
        capsys.readouterr()
        for name, want in (("_uncovered", scans), ("_violations", objects)):
            calls = counted[name]
            assert len(calls) == want, (argv, name)
            assert len({id(c) for c in calls}) == want, (argv, name)


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


def axiom_sweep():
    """Valid structures on which every axiom fails somewhere: the catalog,
    extractions, regular actions, shuffled involution structures, direct
    products, and the algebras of small groups."""
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
    assert len(involution_structures) == 15
    assert all(s.validation.ok for s in products)
    return (catalog_structures() + extracted_structures()
            + regular_structures() + involution_structures + products
            + small_groups)


def test_atom_flags_and_simplicity_match_element_level_oracle():
    # the element-level definitions check the oracle's atom flags and
    # simplicity; the axiom kernel, read off domains, ranges and the
    # diversity atoms from e to e, must give the oracle's three answers
    # and three witnesses
    structures = axiom_sweep()
    failed = [0, 0, 0]
    # identity atoms with no loop (a diversity atom from e to e), two or
    # more, one that is not a function, and one that is: each branch of
    # the pair-density witness
    loop_shapes = [0, 0, 0, 0]
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
        for e in s.identity_atoms:
            loops = [x for x in range(s.n_atoms)
                     if comp(1 << e, 1 << x, 1 << e) & div == 1 << x]
            loop_shapes[0 if not loops else 1 if len(loops) > 1
                        else 2 if not flags[loops[0]][2] else 3] += 1
        want = axioms_oracle(s)
        simple = all(comp(full, 1 << a, full) == full
                     for a in range(s.n_atoms))
        assert want[0] == simple
        r = check_z2_axioms(s)
        assert (*axiom_triple(r), r.simple_witness, r.pair_dense_witness,
                r.functional_witness) == want, s.atom_names
        fn = sum(1 << a for a in range(s.n_atoms) if flags[a][2])
        assert (s.compose_mask(s.converse_mask(fn), fn) == full) == (
            comp(converse_mask_oracle(s, fn), fn) == full)
        failed = [f + (not w) for f, w in zip(failed, want)]
    assert min(failed) >= 16  # each axiom fails on some inputs
    assert loop_shapes == [85, 69, 12, 63]


def test_places_are_the_rectangles_e_1_and_1_e():
    # out[e] is e;1 and into[e] is 1;e, composed from the dense table; the
    # pass's non-functions are the atoms whose element flag says so
    for s in axiom_sweep():
        assert s.validation.ok
        out, into, not_fn, broken = s._places
        assert broken == []
        full = s.full_mask
        assert sorted(out) == sorted(into) == sorted(s.identity_atoms)
        for e in s.identity_atoms:
            assert out[e] == s.compose_mask(1 << e, full), s.atom_names
            assert into[e] == s.compose_mask(full, 1 << e), s.atom_names
        assert not_fn == sum(1 << a for a in range(s.n_atoms)
                             if not element_flags(s, 1 << a)[2])


def test_every_end_atom_branch_matches_the_oracle():
    # tables built by the constructor, unclosed, on which each atom has no,
    # one or two domain and range atoms; the popcounts of out (into) alone
    # pass the table where one atom has two domain (range) atoms and
    # another none, so only the union test finds it
    def table(names, identity, cycles):
        ids = {name: a for a, name in enumerate(names.split())}
        return AtomStructure(
            names.split(), range(len(ids)), {ids[e] for e in identity.split()},
            {tuple(ids[a] for a in c.split()) for c in cycles.split(",")})

    swap = load_structure("swap.ra")
    # one atom with two domain atoms and one with none; the same for
    # ranges; both
    union_only = [
        table("e f a b", "e f", "e e e, f f f, e a a, f a a, a e a, b f b"),
        table("e f a b", "e f", "e e e, f f f, a e a, a f a, e b b, f a a"),
        table("e f a b", "e f", "e e e, f f f, e a a, f a a, a e a, a f a"),
    ]
    tables = [
        swap,
        AtomStructure(swap.atom_names, swap.converse_map, swap.identity_atoms,
                      swap.cycles - {(1, 0, 1)}),
        table("e f a", "e f", "e e e, f f f, e a a, f a a, a e a"),
        table("e f a", "e f", "e e e, f f f, e a a, a e a, a f a"),
        table("e a", "e", "a a a"),
    ] + union_only
    codes = set()
    for s in tables:
        want = local_laws_oracle(s)
        assert _local_laws(s) == want, s.cycles
        codes.update(v.code for v in want)
    assert {"missing-domain-atom", "multiple-domain-atoms",
            "missing-range-atom", "multiple-range-atoms"} <= codes
    for s, sides in zip(union_only, ("domain", "range", "domain range")):
        for side, masks in zip(("domain", "range"), s._places):
            if side in sides:
                assert sum(m.bit_count() for m in masks.values()) == 4
                assert {f"missing-{side}-atom", f"multiple-{side}-atoms"} \
                    <= {v.code for v in _local_laws(s)}


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
