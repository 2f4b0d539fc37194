"""Property tests on random inputs, drawn by hypothesis when it is
installed; without it they skip."""

from itertools import combinations_with_replacement, compress, product

import pytest

from relalg import (AtomStructure, InvalidStructureError, IsoWitness,
                    ParseError, build_group, check_action_represents,
                    decide_z2,
                    extract_atom_structure, find_isomorphism,
                    format_atom_structure, format_concrete_algebra,
                    format_group_action, pair_orbits, parse_atom_structure,
                    parse_concrete_algebra, parse_group_action, peirce_orbit,
                    rel_algebra)
from relalg.atoms import _close_columns
from relalg.laws import _local_laws
from relalg.join import _associativity_witness
from relalg.search import _power_runs

from conftest import (associativity_witness_oracle, close_cycles_oracle,
                      concrete_algebra_text_oracle, conjugate,
                      emitted_cycle_lines, involution_action,
                      iso_problems_oracle, local_laws_oracle,
                      orbit_minimum_cycle_lines,
                      owner_table_oracle, pair_orbits_oracle,
                      random_prime_cyclic_action, rel_algebra_oracle, shuffled)
from conftest import report_codes

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def cycle_tables(draw):
    """Any table on at most 5 atoms: any converse map, any identity atoms,
    any cycles, not closed under the Peircean transforms."""
    n = draw(st.integers(1, 5))
    atom = st.integers(0, n - 1)
    converse = draw(st.lists(atom, min_size=n, max_size=n))
    identity = draw(st.frozensets(atom))
    present = draw(st.lists(st.booleans(), min_size=n ** 3, max_size=n ** 3))
    cycles = {(k // n // n, k // n % n, k % n)
              for k, keep in enumerate(present) if keep}
    return AtomStructure(tuple(f"a{i}" for i in range(n)), converse,
                         identity, cycles)


@hypothesis.settings(max_examples=400)
@hypothesis.given(cycle_tables())
def test_associativity_kernel_matches_the_dense_scan(s):
    # on invalid tables too, where a row's left side can reach columns off
    # the support of b and rows with a;b = 0 can fail; and on the table's
    # closure under the cycle law, where a converse that is no involution
    # takes the exact scan
    assert _associativity_witness(s) == associativity_witness_oracle(s)
    closed = AtomStructure(s.atom_names, s.converse_map, s.identity_atoms,
                           transform_closure(s.cycles, s.converse_map))
    assert _associativity_witness(closed) == \
        associativity_witness_oracle(closed)


@st.composite
def involution_maps(draw, n):
    """Any involution of n atom ids."""
    ids = draw(st.permutations(range(n)))
    swapped = draw(st.integers(0, n // 2))
    conv = list(range(n))
    for a, b in zip(ids[:swapped], ids[swapped:2 * swapped]):
        conv[a], conv[b] = b, a
    return conv


@st.composite
def cycle_law_tables(draw):
    """A table on at most 6 atoms under the cycle law: any involution as
    converse, any identity atoms, and a union of Peircean orbits.  Half of
    the draws are commutative tables on 3 to 5 atoms, each atom its own
    converse and none an identity atom, the tables whose blocks the join
    checks on one side.  There an orbit is a multiset of three atoms, and
    each is kept with odds 3:1: such dense tables often break
    associativity at an atom that a generating set reaching atoms through
    products of two or more atoms would skip."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 5))
        orbits = [*combinations_with_replacement(range(n), 3)]
        keep = draw(st.lists(st.integers(0, 3), min_size=len(orbits),
                             max_size=len(orbits)))
        cycles = close_cycles_oracle(compress(orbits, keep), range(n))
        return AtomStructure(tuple(f"a{i}" for i in range(n)), range(n),
                             frozenset(), cycles)
    n = draw(st.integers(1, 6))
    atom = st.integers(0, n - 1)
    conv = draw(involution_maps(n))
    identity = draw(st.frozensets(atom))
    reps = draw(st.lists(st.tuples(atom, atom, atom), max_size=24))
    return AtomStructure(tuple(f"a{i}" for i in range(n)), conv, identity,
                         close_cycles_oracle(reps, conv))


@hypothesis.settings(max_examples=400)
@hypothesis.given(cycle_law_tables())
def test_associativity_kernel_matches_the_dense_scan_under_the_cycle_law(s):
    # the tables on which the generating set is closed under converse and
    # each of its members is checked as the middle atom
    assert not s._cycle_law_broken
    assert _associativity_witness(s) == associativity_witness_oracle(s)


def converse_maps(n):
    """Any map of n atom ids into themselves, or an involution."""
    return st.one_of(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                     involution_maps(n))


@hypothesis.settings(max_examples=300)
@hypothesis.given(st.data())
def test_close_cycles_matches_the_orbit_union(data):
    # under any converse map, where the union need not be closed
    n = data.draw(st.integers(1, 6))
    atom = st.integers(0, n - 1)
    conv = data.draw(converse_maps(n))
    reps = data.draw(st.lists(st.tuples(atom, atom, atom), max_size=20))
    columns = [[t[k] for t in reps] for k in range(3)]
    assert frozenset(_close_columns(*columns, conv)) == \
        close_cycles_oracle(reps, conv)
    assert frozenset(_close_columns(*map(tuple, columns), tuple(conv))) == \
        close_cycles_oracle(map(list, reps), conv)


def transform_closure(cycles, conv):
    """The least superset of the cycles closed under (x~, z, y) and
    (z, y~, x): the cycle law, for any converse map."""
    closed = set(cycles)
    while True:
        more = {(conv[x], z, y) for x, y, z in closed} | \
            {(z, conv[y], x) for x, y, z in closed}
        if more <= closed:
            return closed
        closed |= more


@hypothesis.settings(max_examples=300)
@hypothesis.given(cycle_tables())
def test_local_laws_match_the_oracle(s):
    # the same violations in the same order, on the table as drawn and on
    # its closure under the cycle law
    assert _local_laws(s) == local_laws_oracle(s)
    closed = AtomStructure(s.atom_names, s.converse_map, s.identity_atoms,
                           transform_closure(s.cycles, s.converse_map))
    assert _local_laws(closed) == local_laws_oracle(closed)


# atom names: six usable ones, then four that the text formats cannot read
ATOM_NAMES = ("a", "b", "c", "d", "e", "f", "a b", "x:y", "#", "")


def renamed(s, names):
    return AtomStructure(tuple(names), s.converse_map, s.identity_atoms,
                         s.cycles)


@st.composite
def named_tables(draw):
    """A table of cycle_tables or cycle_law_tables, its atoms named from
    ATOM_NAMES: half of the draws usable and distinct, the others any,
    unusable and repeated names included."""
    s = draw(st.one_of(cycle_tables(), cycle_law_tables()))
    n = s.n_atoms
    names = draw(st.one_of(
        st.lists(st.sampled_from(ATOM_NAMES[:6]), min_size=n, max_size=n,
                 unique=True),
        st.lists(st.sampled_from(ATOM_NAMES), min_size=n, max_size=n)))
    return renamed(s, names)


# the structure of the swap of two points, which the examples below name
# as no text can read back
SWAP = extract_atom_structure(rel_algebra(build_group(2, [(1, 0)])))


@hypothesis.settings(max_examples=400)
@hypothesis.given(named_tables())
@hypothesis.example(renamed(SWAP, ("a b", "c")))
@hypothesis.example(renamed(SWAP, ("a", "a")))
@hypothesis.example(renamed(SWAP, ("a:b", "c")))
@hypothesis.example(renamed(SWAP, ("a#", "c")))
@hypothesis.example(renamed(SWAP, ("", "c")))
def test_written_tables_parse_back_to_themselves(s):
    # the writer's contract: whenever format_atom_structure returns, its
    # text parses to the table it was given.  It refuses a table without
    # identity atoms, with an unusable or repeated name, or whose orbits
    # are not whole, with its whole local-law report
    try:
        text = format_atom_structure(s)
    except InvalidStructureError as e:
        assert e.report.violations == local_laws_oracle(s) != ()
        return
    assert parse_atom_structure(text) == s


@st.composite
def structure_texts(draw):
    """The text of a structure on at most 5 atoms with any identity atoms,
    any involution as converse and any cycle lines, many of the form
    (x, e, x) for an identity atom e; and its cycle lines as id triples."""
    n = draw(st.integers(1, 5))
    atom = st.integers(0, n - 1)
    identity = draw(st.lists(atom, min_size=1, max_size=n, unique=True))
    conv = draw(involution_maps(n))
    right_identity = st.tuples(atom, st.sampled_from(identity)).map(
        lambda t: (t[0], t[1], t[0]))
    reps = draw(st.lists(st.one_of(st.tuples(atom, atom, atom),
                                   right_identity), max_size=12))
    name = "a{}".format
    lines = ["atoms " + " ".join(map(name, range(n))),
             "identity " + " ".join(map(name, identity)),
             "converse " + " ".join(f"a{a}:a{c}" for a, c in enumerate(conv)
                                    if a <= c)]
    lines += [f"cycle a{x} a{y} a{z}" for x, y, z in reps]
    return "\n".join(lines) + "\n", reps


@hypothesis.settings(max_examples=300)
@hypothesis.given(structure_texts())
def test_parsed_local_laws_hide_nothing(drawn):
    # the parser presets the cycle law's scan; the same tables built by the
    # constructor, which scans, give the oracle's violations
    text, reps = drawn
    s = parse_atom_structure(text)
    assert s.cycles == close_cycles_oracle(reps, s.converse_map)
    assert s._local_violations == local_laws_oracle(AtomStructure(
        s.atom_names, s.converse_map, s.identity_atoms, s.cycles))


@st.composite
def converse_texts(draw):
    """The text of a structure on at most 5 atoms whose converse line
    pairs any atoms, repeats and self pairs included, and any cycle lines;
    structure_texts draws involutions only."""
    n = draw(st.integers(1, 5))
    atom = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(atom, atom), max_size=6))
    reps = draw(st.lists(st.tuples(atom, atom, atom), max_size=12))
    name = "a{}".format
    lines = ["atoms " + " ".join(map(name, range(n))), "identity a0",
             "converse " + " ".join(f"a{a}:a{b}" for a, b in pairs)]
    lines += [f"cycle a{x} a{y} a{z}" for x, y, z in reps]
    return "\n".join(lines) + "\n"


@hypothesis.settings(max_examples=300)
@hypothesis.given(converse_texts())
def test_parsed_structures_have_peircean_symmetry(text):
    # a parsed converse is an involution and its cycles are closed under
    # it, so only a table built by hand takes the associativity join's
    # exact scan
    try:
        s = parse_atom_structure(text)
    except ParseError as e:
        assert e.message == "atom appears in two converse pairs"
        return
    conv = s.converse_map
    assert [*map(conv.__getitem__, conv)] == [*range(s.n_atoms)]
    assert s.cycles == close_cycles_oracle(s.cycles, conv)


@hypothesis.settings(max_examples=400)
@hypothesis.given(st.data())
def test_power_runs_are_invariant_under_relabelling(data):
    # the runs read only composition and the identity atoms, so they need
    # no valid structure; a relabelling moves each atom's run with it,
    # which the search relies on when it tries only candidates of the
    # branched atom's run
    s = data.draw(cycle_tables())
    ids = data.draw(st.permutations(range(s.n_atoms)))
    runs = _power_runs(conjugate(s, ids))
    assert [runs[b] for b in ids] == _power_runs(s)


@st.composite
def actions(draw):
    """Any action on at most 7 points, generated by 1 to 3 permutations."""
    n = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return build_group(n, gens)


@hypothesis.settings(max_examples=150)
@hypothesis.given(actions())
def test_orbit_kernel_matches_the_group_element_oracle(act):
    # the owner table of the orbit search equal to the one read pair by
    # pair off the oracle's orbits, the same atoms in the same order under
    # the same names, and an extraction that passes validation: the
    # structure of a proper algebra
    assert pair_orbits(act) == owner_table_oracle(pair_orbits_oracle(act))
    c = rel_algebra(act)
    assert c == rel_algebra_oracle(act)
    assert extract_atom_structure(c).validation.ok


@hypothesis.settings(max_examples=60)
@hypothesis.given(actions(), st.data())
def test_single_cycle_corruptions_break_the_cycle_law(act, data):
    # one cycle removed from a Peircean orbit of two or more members, or
    # one cycle added from such an orbit that is absent; an orbit of one
    # member is left out, since removing (a, a, a) from K3's structure
    # leaves K2's, which is valid
    s = extract_atom_structure(rel_algebra(act))
    conv, cycles = s.converse_map, s.cycles

    def broken(table):
        return "cycle-law" in report_codes(AtomStructure(
            s.atom_names, conv, s.identity_atoms, table).validation)

    removable = sorted(t for t in cycles if len(peirce_orbit(t, conv)) > 1)
    if removable:
        assert broken(cycles - {data.draw(st.sampled_from(removable))})
    rng = data.draw(st.randoms())
    n = s.n_atoms
    drawn = {tuple(rng.randrange(n) for _ in range(3)) for _ in range(200)}
    addable = sorted(t for t in drawn if len(peirce_orbit(t, conv)) > 1
                     and cycles.isdisjoint(peirce_orbit(t, conv)))
    if addable:
        assert broken(cycles | {data.draw(st.sampled_from(addable))})


def round_trips(parse, format_, x):
    text = format_(x)
    assert parse(text) == x
    assert format_(parse(text)) == text


@hypothesis.settings(max_examples=100)
@hypothesis.given(actions())
def test_action_and_algebra_formats_round_trip(act):
    round_trips(parse_group_action, format_group_action, act)
    round_trips(parse_concrete_algebra, format_concrete_algebra,
                rel_algebra(act))


@hypothesis.settings(max_examples=100)
@hypothesis.given(st.data())
def test_structure_format_round_trips(data):
    s = extract_atom_structure(rel_algebra(data.draw(actions())))
    s = conjugate(s, data.draw(st.permutations(range(s.n_atoms))))
    round_trips(parse_atom_structure, format_atom_structure, s)
    # each Peircean orbit is written as its least member
    assert emitted_cycle_lines(format_atom_structure(s)) == \
        orbit_minimum_cycle_lines(s)


@st.composite
def orbit_line_texts(draw, s):
    """The text of s, whose orbits must be whole, with cycle lines that
    name any members of each Peircean orbit, least or not, one to three
    lines per orbit, repeats included, in any order."""
    names, conv = s.atom_names, s.converse_map
    orbits = {frozenset(peirce_orbit(c, conv)) for c in s.cycles}
    lines = []
    for orbit in sorted(map(sorted, orbits)):
        lines += draw(st.lists(st.sampled_from(orbit), min_size=1,
                               max_size=3))
    head = [line for line in format_atom_structure(s).splitlines()
            if not line.startswith("cycle ")]
    body = [f"cycle {names[x]} {names[y]} {names[z]}"
            for x, y, z in draw(st.permutations(lines))]
    return "\n".join(head + body) + "\n"


@st.composite
def claimed_isomorphisms(draw):
    """An IsoWitness of the structure of an action onto a shuffle of it,
    by the shuffle, or by the shuffle after one transposition.  The
    source is the extracted structure, or that structure parsed from
    orbit_line_texts; the target is the shuffle, the shuffle with one
    cycle swapped for a triple it lacks, which breaks the cycle law with
    the count kept, or the shuffle with the Peircean orbit of such a triple
    added, which keeps the orbits whole.  A quarter of the draws are
    instead a table of cycle_tables, most of which break the cycle law,
    with a shuffle."""
    if draw(st.integers(0, 3)) == 0:
        s = draw(cycle_tables())
        ids = draw(st.permutations(range(s.n_atoms)))
        return IsoWitness(s, conjugate(s, ids), tuple(ids))
    s = extract_atom_structure(rel_algebra(draw(actions())))
    n = s.n_atoms
    ids = draw(st.permutations(range(n)))
    t, m = conjugate(s, ids), list(ids)
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        m[a], m[b] = m[b], m[a]
    if draw(st.booleans()):
        parsed = parse_atom_structure(draw(orbit_line_texts(s)))
        assert parsed.cycles == s.cycles and parsed._lines is not None
        s = parsed
    lacking = st.tuples(*[st.integers(0, n - 1)] * 3).filter(
        lambda c: c not in t.cycles)
    change = draw(st.integers(0, 5)) if n > 1 else 0
    if change == 1:
        c = draw(st.sampled_from(sorted(t.cycles)))
        t = AtomStructure(t.atom_names, t.converse_map, t.identity_atoms,
                          t.cycles - {c} | {draw(lacking)})
    elif change == 2:
        t = AtomStructure(t.atom_names, t.converse_map, t.identity_atoms,
                          t.cycles | peirce_orbit(draw(lacking),
                                                  t.converse_map))
    return IsoWitness(s, t, tuple(m))


# swap.ra written with its one diversity line, and its table with the
# cycle (d, 1', d), off the lines, swapped for (d, d, d): the lines land
SWAP_LINES = parse_atom_structure(
    "atoms e d\nidentity e\ncycle e e e\ncycle e d d\n")
OFF_LINES = AtomStructure(SWAP_LINES.atom_names, (0, 1), {0},
                          SWAP_LINES.cycles - {(1, 0, 1)} | {(1, 1, 1)})
# every triple of three atoms is a cycle under any converse, so the lines
# land though the identity map does not commute with converse
ALL_TRIPLES = [*combinations_with_replacement(range(3), 3)]
EVERY = AtomStructure(("e", "a", "b"), (0, 1, 2), {0},
                      product(range(3), repeat=3))
EVERY_LINES = parse_atom_structure(
    "atoms e a b\nidentity e\nconverse a:b\n" + "".join(
        f"cycle {' '.join('eab'[a] for a in c)}\n" for c in ALL_TRIPLES))


@hypothesis.settings(max_examples=300)
@hypothesis.given(claimed_isomorphisms())
@hypothesis.example(IsoWitness(SWAP_LINES, OFF_LINES, (0, 1)))
@hypothesis.example(IsoWitness(EVERY_LINES, EVERY, (0, 1, 2)))
def test_witness_problems_match_the_full_comparison(w):
    # one cycle line per orbit is mapped where the source was parsed and
    # both sides have whole orbits; otherwise, or when a line misses, the
    # whole sets are compared: the same messages in the same order as the
    # oracle's comparison of the whole cycle sets
    assert w.problems() == iso_problems_oracle(w)


@st.composite
def small_cyclic_actions(draw):
    """An involution with at most 3 points and 3 twins, or a random action
    of a cyclic group of order 2, 3 or 5 on at most 10 points."""
    if draw(st.booleans()):
        points = draw(st.integers(0, 3))
        twins = draw(st.integers(1 if points == 0 else 0, 3))
        return involution_action(points, twins)
    return random_prime_cyclic_action(draw(st.randoms()))[1]


@hypothesis.settings(max_examples=60)
@hypothesis.given(small_cyclic_actions(), small_cyclic_actions(),
                  st.randoms())
def test_answers_do_not_depend_on_atom_names_or_order(action, other, rng):
    # the involutions take the proof's path, the other actions the search
    s = extract_atom_structure(rel_algebra(action))
    t = shuffled(s, rng)
    d, e = decide_z2(s), decide_z2(t)
    assert d.accepted == e.accepted
    assert [f.axiom for f in d.failures] == [f.axiom for f in e.failures]
    w = find_isomorphism(s, t)
    assert w is not None and w.problems() == ()
    for act in (action, other):
        assert (check_action_represents(s, act) is None) == \
            (check_action_represents(t, act) is None)


@hypothesis.settings(max_examples=150)
@hypothesis.given(st.one_of(actions(), small_cyclic_actions()))
# an involution that fixes a point and swaps a twin, and the symmetric
# group on four points: the profile of (0, 0), and of (0, 1), repeats a pair
@hypothesis.example(involution_action(1, 1))
@hypothesis.example(build_group(4, [(1, 0, 2, 3), (1, 2, 3, 0)]))
def test_extraction_writes_its_text_without_building_its_cycle_set(act):
    # the cycles of an extraction are the triples of each atom's first-pair
    # profile; its text is that of a constructor-built copy, whether or not
    # its cycle set was read first, and writing it builds no set
    c = rel_algebra(act)
    n, owner = c.base_size, c.owner
    profiles = set()
    for z in range(c.n_atoms):
        i, k = divmod(owner.index(z), n)
        profiles.update((owner[i * n + j], owner[j * n + k], z)
                        for j in range(n))
    unread, read = extract_atom_structure(c), extract_atom_structure(c)
    assert read.cycles == profiles
    built = AtomStructure(read.atom_names, read.converse_map,
                          read.identity_atoms, read.cycles)
    text = format_atom_structure(unread)
    assert "cycles" not in unread.__dict__
    assert text == format_atom_structure(read) == format_atom_structure(built)
    assert unread == built and hash(unread) == hash(built)
    assert format_concrete_algebra(c) == concrete_algebra_text_oracle(c)


@st.composite
def identity_line_texts(draw):
    """The text of a structure on at most 5 atoms, named a0, a1, ... or
    with names from three letters, repeats included: any identity atoms,
    any involution as converse, identity atoms swapped with others too, and
    cycle lines of any triple or of one of the three shapes (e, a, a),
    (a, a~, e) and (a~, e, a~) that an orbit meeting an identity atom e
    must have, a an identity atom or not."""
    n = draw(st.integers(1, 5))
    atom = st.integers(0, n - 1)
    names = draw(st.one_of(
        st.just([f"a{i}" for i in range(n)]),
        st.lists(st.sampled_from("abc"), min_size=n, max_size=n)))
    identity = draw(st.lists(atom, min_size=1, max_size=n, unique=True))
    conv = draw(involution_maps(n))
    pairs = st.tuples(st.sampled_from(identity), atom)
    lines = draw(st.lists(st.one_of(
        st.tuples(atom, atom, atom),
        pairs.map(lambda t: (t[0], t[1], t[1])),
        pairs.map(lambda t: (t[1], conv[t[1]], t[0])),
        pairs.map(lambda t: (conv[t[1]], t[0], conv[t[1]]))), max_size=12))
    text = ["atoms " + " ".join(names),
            "identity " + " ".join(names[e] for e in identity),
            "converse " + " ".join(f"{names[a]}:{names[c]}"
                                   for a, c in enumerate(conv) if a <= c)]
    text += [f"cycle {names[x]} {names[y]} {names[z]}" for x, y, z in lines]
    return "\n".join(text) + "\n"


@st.composite
def action_line_texts(draw):
    """The text of a shuffled structure of an action, its cycle lines
    naming any members of their orbits, repeated and shuffled
    (orbit_line_texts)."""
    s = extract_atom_structure(rel_algebra(draw(actions())))
    s = conjugate(s, draw(st.permutations(range(s.n_atoms))))
    return draw(orbit_line_texts(s))


@hypothesis.settings(max_examples=300)
@hypothesis.given(st.one_of(identity_line_texts(), action_line_texts()))
# identity atoms that are not their own converses, which take the scan
@hypothesis.example("atoms e f\nidentity e f\nconverse e:f\ncycle e e e\n")
@hypothesis.example("atoms e a\nidentity e\nconverse e:a\ncycle e a a\n")
def test_line_reads_match_the_set_scans(text):
    # _places and _table read a parsed structure's cycle lines, the local
    # laws word what _places records: all as the set scans of a copy built
    # by the constructor give them.  Where an identity atom is not its own
    # converse or a line breaks the identity law, _places scans the stream
    # of the lines' closure; neither builds the cycle set
    try:
        s = parse_atom_structure(text)
    except ParseError as e:  # a repeated name paired twice
        assert e.message == "atom appears in two converse pairs"
        hypothesis.reject()
    places, table = s._places, s._table
    assert "cycles" not in s.__dict__
    copy = AtomStructure(s.atom_names, s.converse_map, s.identity_atoms,
                         s.cycles)
    assert places == copy._places
    assert table == copy._table
    assert s._local_violations == _local_laws(copy) == local_laws_oracle(copy)
