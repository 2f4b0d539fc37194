"""Text formats: round trips and parse diagnostics."""

import contextlib
import io
import random
import re

import pytest

from relalg import (AtomStructure, ConcreteAlgebraError,
                    InvalidStructureError, ParseError, build_group,
                    extract_atom_structure, format_atom_structure,
                    format_concrete_algebra, format_group_action,
                    parse_atom_structure, parse_concrete_algebra,
                    parse_group_action, peirce_orbit, rel_algebra)
from relalg.cli import main
from relalg.formats import MAX_ATOMS, MAX_BASE_SIZE

from conftest import DATA, atom_structure_text_oracle, emitted_cycle_lines, \
    involutions, load_action, load_concrete, load_structure, \
    local_laws_oracle, orbit_minimum_cycle_lines, shuffled
from conftest import report_codes


# --- round trips ----------------------------------------------------------


def test_structure_round_trip_catalog():
    names = sorted(p.name for p in DATA.glob("*.ra"))
    assert names == ["23.ra", "23_relabeled.ra", "57.ra", "swap.ra"]
    for name in names:
        s = load_structure(name)
        text = format_atom_structure(s)
        assert emitted_cycle_lines(text) == orbit_minimum_cycle_lines(s)
        again = parse_atom_structure(text)
        assert again == s, name
        assert format_atom_structure(again) == text


def test_structure_round_trip_extractions():
    for n in range(1, 6):
        for g in involutions(n):
            s = extract_atom_structure(rel_algebra(build_group(n, [g])))
            text = format_atom_structure(s)
            assert emitted_cycle_lines(text) == orbit_minimum_cycle_lines(s)
            again = parse_atom_structure(text)
            assert again == s
            assert again.validation.ok


def test_concrete_round_trip(type6_algebra):
    text = format_concrete_algebra(type6_algebra)
    again = parse_concrete_algebra(text)
    assert again == type6_algebra
    assert format_concrete_algebra(again) == text


def test_concrete_parse_rejects_atoms_that_are_no_partition():
    # overlapping at (0,1) and missing (1,0): the first overlap is reported
    # when the file is read
    text = "set 2\natom x = (0,0) (0,1)\natom y = (0,1) (1,1)\n"
    with pytest.raises(ConcreteAlgebraError) as exc:
        parse_concrete_algebra(text)
    assert exc.value.violations == (
        "not a partition: atoms x and y overlap at pair (0,1)",)


def test_action_round_trip():
    for name in ("z3.act", "d5.act", "swap.act"):
        a = load_action(name)
        again = parse_group_action(format_group_action(a))
        assert again == a


def test_emitted_cycles_are_orbit_representatives(s23):
    text = format_atom_structure(s23)
    # nine cycles compress to four orbit representatives
    assert sum(1 for ln in text.splitlines() if ln.startswith("cycle ")) == 4


def closed_under_transforms(cycles, conv):
    """The least cycle set holding `cycles` and closed under the two maps
    (x, y, z) -> (x~, z, y) and (z, y~, x), which is the cycle law for any
    converse, involution or not."""
    out, todo = set(), list(cycles)
    while todo:
        t = todo.pop()
        if t not in out:
            out.add(t)
            x, y, z = t
            todo += [(conv[x], z, y), (z, conv[y], x)]
    return frozenset(out)


def test_format_matches_the_marking_pass_and_refuses_broken_tables():
    # byte for byte against the sorted marking pass on shuffled
    # extractions of random actions and their parsed copies, whose orbits
    # are whole.  No text parses back to the same tables with one
    # transform of a cycle dropped, which break the cycle law, or to
    # tables closed under a converse that is no involution: the writer
    # refuses them with their whole local-law report
    rng = random.Random(29)
    whole = []
    for _ in range(60):
        n = rng.randint(1, 6)
        gens = [tuple(rng.sample(range(n), n))
                for _ in range(rng.randint(1, 2))]
        s = shuffled(extract_atom_structure(rel_algebra(build_group(n, gens))),
                     rng)
        whole += [s, parse_atom_structure(format_atom_structure(s))]
    for s in whole:
        assert format_atom_structure(s) == atom_structure_text_oracle(s)
    dropped = 0
    for s in whole[::2]:
        for t in rng.sample(sorted(s.cycles), min(4, len(s.cycles))):
            orbit = sorted(peirce_orbit(t, s.converse_map))
            if len(orbit) == 1:
                continue
            # the least member of the orbit, or another, each in turn
            drop = orbit[0] if dropped % 2 else rng.choice(orbit[1:])
            broken = AtomStructure(s.atom_names, s.converse_map,
                                   s.identity_atoms, s.cycles - {drop})
            assert broken._cycle_law_broken
            with pytest.raises(InvalidStructureError) as e:
                format_atom_structure(broken)
            assert e.value.report.violations == local_laws_oracle(broken)
            assert "cycle-law" in report_codes(e.value.report)
            dropped += 1
    assert dropped > 100
    for conv in ((0, 2, 3, 1), (1, 2, 0, 3), (0, 2, 3, 4, 1)):
        names = tuple(f"a{k}" for k in range(len(conv)))
        for _ in range(20):
            seeds = [tuple(rng.randrange(len(conv)) for _ in range(3))
                     for _ in range(rng.randint(1, 3))]
            s = AtomStructure(names, conv, {0},
                              closed_under_transforms(seeds, conv))
            assert not s._cycle_law_broken
            with pytest.raises(InvalidStructureError) as e:
                format_atom_structure(s)
            assert "converse-not-involution" in report_codes(e.value.report)


def test_format_refuses_tables_without_identity_atoms():
    # the parser reads no atoms or identity line without an atom, so the
    # writer refuses such tables with their local violations
    for s in (AtomStructure(("a",), (0,), (), {(0, 0, 0)}),
              AtomStructure((), (), (), ())):
        with pytest.raises(InvalidStructureError) as e:
            format_atom_structure(s)
        assert e.value.report.violations == s._local_violations != ()
    assert report_codes(e.value.report) == ("empty-structure",)


def test_the_writer_gate_runs_no_scan_of_the_cycles():
    # the gate tests the identity atoms, the orbits and the names, and
    # reads _places or _local_violations, O(cycles) each, only to report a
    # refusal: rel at the base-size cap would scan 2,097,152 cycles
    extracted = extract_atom_structure(rel_algebra(load_action("d5.act")))
    for s in (extracted, load_structure("23.ra")):
        format_atom_structure(s)
        assert not {"_places", "_local_violations"} & s.__dict__.keys()


# --- parsing conveniences -------------------------------------------------


def test_comments_and_blank_lines_ignored():
    s = parse_atom_structure(
        "# header\n\natoms a  # trailing\nidentity a\n\ncycle a a a\n")
    assert s.atom_names == ("a",)
    assert s.cycles == {(0, 0, 0)}


def test_converse_line_optional_defaults_to_symmetric():
    s = parse_atom_structure("atoms e d\nidentity e\ncycle e e e\ncycle e d d\n")
    assert s.converse_map == (0, 1)


def test_parser_closes_cycle_orbits():
    s = load_structure("23.ra")
    assert (2, 2, 1) in s.cycles  # never written in the file


# --- parse errors ---------------------------------------------------------


def err(fn, text, source="t"):
    with pytest.raises(ParseError) as info:
        fn(text, source)
    return info.value


def test_unknown_atom_reported_with_token():
    e = err(parse_atom_structure, "atoms a\nidentity a\ncycle a a zz\n")
    assert (e.source, e.line, e.token) == ("t", 3, "zz")
    assert "unknown atom" in str(e)


def test_cycle_line_errors_pinned():
    # the first unknown name of a cycle line is reported, in any place; a
    # cycle line before the atoms line, a comment cut from a name, an
    # indented comment line and CRLF line ends keep their line numbers
    head = "atoms a b\nidentity a\n"
    for text, want in (
            (head + "cycle a zz yy\n", ("unknown atom", 3, "zz")),
            (head + "cycle a b zz\n", ("unknown atom", 3, "zz")),
            (head + "cycle zz b yy\n", ("unknown atom", 3, "zz")),
            ("cycle a a a\natoms a\n", ("atoms must be declared first", 1,
                                        None)),
            (head + "cycle a b c#x\n", ("unknown atom", 3, "c")),
            ("atoms a\n   # a note\nidentity a\nfrobnicate\n",
             ("unknown directive", 4, "frobnicate")),
            ("atoms a b\r\nidentity a\r\ncycle a a zz\r\n",
             ("unknown atom", 3, "zz"))):
        e = err(parse_atom_structure, text)
        assert (e.message, e.line, e.token) == want, text
    s = parse_atom_structure("atoms a\r\n  # note\r\nidentity a\r\n"
                             "cycle a a a#x\r\n")
    assert s.cycles == {(0, 0, 0)}


def test_atoms_must_come_first():
    e = err(parse_atom_structure, "identity a\natoms a\n")
    assert e.line == 1
    e = err(parse_atom_structure, "converse a:a\natoms a\n")
    assert (e.message, e.line) == ("atoms must be declared first", 1)


def test_duplicate_sections_rejected():
    e = err(parse_atom_structure, "atoms a\natoms b\n")
    assert "duplicate atoms" in e.message
    e = err(parse_atom_structure,
            "atoms a\nidentity a\nidentity a\n")
    assert "duplicate identity" in e.message
    e = err(parse_atom_structure,
            "atoms a b\nidentity a\nconverse b:b\nconverse a:a\n")
    assert (e.message, e.line) == ("duplicate converse line", 4)
    for fn, body in ((parse_concrete_algebra, "atom x = (0,0)"),
                     (parse_group_action, "gen 0")):
        e = err(fn, f"set 1\n{body}\n# again\nset 1\n")
        assert (e.message, e.line, e.token) == ("duplicate set line", 4, None)


def test_missing_sections_rejected():
    assert "missing atoms" in err(parse_atom_structure, "# nothing\n").message
    assert "missing identity" in err(parse_atom_structure, "atoms a\n").message
    e = err(parse_concrete_algebra, "# no set\n\n")
    assert (e.message, e.line) == ("missing set line", 0)
    e = err(parse_atom_structure, "atoms\n")
    assert (e.message, e.line) == ("atoms line lists no atoms", 1)
    e = err(parse_atom_structure, "atoms a\nidentity  # none\n")
    assert (e.message, e.line) == ("identity line lists no atoms", 2)


def test_atom_count_above_the_cap_fails_at_the_atoms_line():
    # the n^2 atoms of the trivial action at the base-size cap, the most
    # that rel writes, still parse; one more fails at the atoms line, so
    # the unknown directive after it is never read
    assert MAX_ATOMS == MAX_BASE_SIZE ** 2 == 16384
    names = [f"a{i}" for i in range(MAX_ATOMS + 1)]
    e = err(parse_atom_structure, f"# many\natoms {' '.join(names)}\n"
                                  "frobnicate\n")
    assert (e.message, e.line, e.token) == (
        "atoms line lists 16385 atoms, above the cap of 16384 atoms", 2, None)
    s = parse_atom_structure(f"atoms {' '.join(names[:-1])}\nidentity a0\n")
    assert s.n_atoms == MAX_ATOMS and s.atom_names[-1] == "a16383"


def test_converse_pair_conflicts_rejected():
    e = err(parse_atom_structure,
            "atoms a b c\nidentity a\nconverse b:c b:b\n")
    assert "two converse pairs" in e.message
    e = err(parse_atom_structure, "atoms a b\nidentity a\nconverse b\n")
    assert "a:b" in e.message


def test_cycle_arity_enforced():
    e = err(parse_atom_structure, "atoms a\nidentity a\ncycle a a\n")
    assert "exactly three" in e.message


def test_unknown_directive_rejected():
    e = err(parse_atom_structure, "atoms a\nidentity a\nfrobnicate\n")
    assert e.token == "frobnicate"
    # each set-size format rejects the other's body lines, also before set
    for fn, text, line, token in (
            (parse_concrete_algebra, "set 1\ngen 0\n", 2, "gen"),
            (parse_concrete_algebra, "frobnicate 1\nset 1\n", 1, "frobnicate"),
            (parse_group_action, "set 1\natom x = (0,0)\n", 2, "atom"),
            (parse_group_action, "\natoms a\n", 2, "atoms")):
        e = err(fn, text)
        assert (e.message, e.line, e.token) == ("unknown directive", line,
                                                token), text


def test_concrete_parse_errors():
    e = err(parse_concrete_algebra, "atom x = (0,0)\n")
    assert "set size must come first" in e.message
    e = err(parse_concrete_algebra, "set 2\natom x (0,0)\n")
    assert "atom lines look like" in e.message
    e = err(parse_concrete_algebra, "set 2\natom x = (0,2)\n")
    assert "outside the base set" in e.message and e.token == "(0,2)"
    e = err(parse_concrete_algebra, "set 2\natom x = 0,1\n")
    assert "malformed pair" in e.message
    e = err(parse_concrete_algebra, "set 0\n")
    assert "positive" in e.message
    e = err(parse_concrete_algebra, "set 2 3\natom x = (0,0)\n")
    assert (e.message, e.line, e.token) == ("set line takes one number", 1,
                                            None)
    # the first bad line is reported, also when a later one is bad too
    e = err(parse_concrete_algebra, "set 2\natom x = 0,1\nfrobnicate\n")
    assert (e.message, e.line, e.token) == ("malformed pair", 2, "0,1")
    e = err(parse_concrete_algebra, "set 2\n")
    assert "no atom lines" in e.message
    assert_base_size_capped(parse_concrete_algebra)
    # numbers are ASCII digits, as the emitters write them
    e = err(parse_concrete_algebra, "set 2\natom e = (\u0660,\u0660) (1,1)\n")
    assert (e.message, e.line, e.token) == ("malformed pair", 2,
                                            "(\u0660,\u0660)")
    # a number past int()'s 4300 digits is out of range, not malformed;
    # leading zeros do not count
    big, zeros = "9" * 5000, "0" * 5000
    e = err(parse_concrete_algebra, f"set 2\natom x = ({big},0)\n")
    assert (e.message, e.line, e.token) == ("pair outside the base set", 2,
                                            f"({big},0)")
    c = parse_concrete_algebra(f"set 2\natom e = ({zeros}1,{zeros}1) (0,0)\n"
                               f"atom x = (0,{zeros}1) (1,0)\n")
    assert c == parse_concrete_algebra("set 2\natom e = (0,0) (1,1)\n"
                                       "atom x = (0,1) (1,0)\n")


def test_concrete_constructor_errors_become_parse_errors():
    e = err(parse_concrete_algebra, "set 2\natom x = (0,0)\natom x = (1,1)\n")
    assert e.line == 0


def test_action_parse_errors():
    e = err(parse_group_action, "set 3\ngen 0 1\n")
    assert "exactly 3 images" in e.message
    e = err(parse_group_action, "gen 0 1\n")
    assert "set size must come first" in e.message
    e = err(parse_group_action, "set 2\ngen a b\n")
    assert e.token == "a"
    e = err(parse_group_action, "set 2\ngen 0 1 2\nset 2\n")
    assert (e.message, e.line) == ("gen lines take exactly 2 images", 2)
    e = err(parse_group_action, "set two\n")
    assert e.token == "two"
    # numbers are ASCII digits, as the emitters write them; a sign still
    # parses, so a negative size is reported as such
    e = err(parse_group_action, "set 1_0\n")
    assert (e.message, e.line, e.token) == ("set size must be an integer", 1,
                                            "1_0")
    e = err(parse_group_action, "set 2\ngen \u0661 0\n")
    assert (e.message, e.line, e.token) == ("images must be integers", 2,
                                            "\u0661")
    e = err(parse_group_action, "set -1\n")
    assert (e.message, e.line, e.token) == ("set size must be positive", 1,
                                            "-1")
    # an image out of range is refused by name, with its line and token,
    # also one past int()'s 4300 digits; so is a set size that long
    big, zeros = "9" * 5000, "0" * 5000
    for text, message, line, token in (
            ("set 2\ngen 0 2\n", "image outside the base set", 2, "2"),
            ("set 2\ngen -1 0\n", "image outside the base set", 2, "-1"),
            (f"set 2\ngen {big} 0\n", "image outside the base set", 2, big),
            (f"set 2\ngen 1 -{big}\n", "image outside the base set", 2,
             f"-{big}"),
            (f"set {big}\n", "set size is above the cap of 128 points", 1,
             big),
            (f"set -{big}\n", "set size must be positive", 1, f"-{big}")):
        e = err(parse_group_action, text)
        assert (e.message, e.line, e.token) == (message, line, token), message
    a = parse_group_action(f"set {zeros}2\ngen 1 {zeros}\n")
    assert (a.base_size, a.generators) == (2, ((1, 0),))
    assert "missing set" in err(parse_group_action, "\n").message
    assert_base_size_capped(parse_group_action)
    assert parse_group_action("set 128\n").base_size == MAX_BASE_SIZE


def assert_base_size_capped(parse):
    # a size above the cap fails at its set line; with no line after it,
    # no table of the n^2 pairs is built even if the cap were missing
    assert MAX_BASE_SIZE == 128
    for size in (MAX_BASE_SIZE + 1, 999999999999):
        e = err(parse, f"set {size}\n")
        assert (e.message, e.line, e.token) == (
            "set size is above the cap of 128 points", 1, str(size))


def test_action_builder_errors_pass_through():
    from relalg import ActionError
    with pytest.raises(ActionError):
        parse_group_action("set 2\ngen 0 0\n", "t")


def test_data_files_all_parse():
    for p in sorted(DATA.iterdir()):
        if p.suffix == ".ra":
            assert load_structure(p.name).validation.ok, p.name
        elif p.suffix == ".act":
            load_action(p.name)
        elif p.suffix == ".ca":
            assert load_concrete(p.name).invariant_violations() == (), p.name


# --- mutated files through the command line --------------------------------


def test_mutated_data_files_end_in_an_exit_code_through_every_subcommand(
        tmp_path):
    # the texts of data/, mutated at the token level: a number written in
    # other digits, signed, with an underscore or past int()'s digit
    # limit, a token dropped, repeated or moved, a line dropped or
    # repeated, a stray comment, a byte-order mark, CRLF or lone-CR line
    # ends. Every subcommand that reads the file, with the data file it
    # pairs with, ends cli.main with 0, 1 or 2 and writes no traceback
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    texts = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(DATA.iterdir())}
    swap_ra, swap_act = str(DATA / "swap.ra"), str(DATA / "swap.act")

    def runs(name, path):
        original = str(DATA / name)
        if name.endswith(".ra"):
            return [["validate", path], ["axioms", path],
                    ["decide-z2", path, "--verify"],
                    ["iso", path, original, "--budget", "200"],
                    ["iso", original, path, "--budget", "200"],
                    ["check-action", path, swap_act, "--budget", "200"]]
        if name.endswith(".act"):
            return [["rel", path],
                    ["check-action", swap_ra, path, "--budget", "200"]]
        return [["classify", path]]

    numbers = ["\u0661", "\uff11", "\u00b2", "+1", "-1", "1_0", "9" * 5000,
               str(10 ** 30), "0" * 40 + "1"]

    def mutate(text, op, k, j):
        lines = text.split("\n")
        i = k % len(lines)
        if op == "number":
            found = [*re.finditer(r"\d+", text)]
            if found:
                m = found[k % len(found)]
                return text[:m.start()] + numbers[j % len(numbers)] + \
                    text[m.end():]
            return text
        if op in ("drop token", "repeat token", "move token"):
            words = lines[i].split(" ")
            w = j % len(words)
            if op == "drop token":
                del words[w]
            elif op == "repeat token":
                words.insert(w, words[w])
            else:
                words.append(words.pop(w))
            lines[i] = " ".join(words)
        elif op == "drop line":
            del lines[i]
        elif op == "repeat line":
            lines.insert(i, lines[i])
        elif op == "comment":
            lines[i] += [" # stray", "#", " #x y"][j % 3]
        elif op == "mark":
            return "\ufeff" + text
        elif op == "crlf":
            return text.replace("\n", ["\r\n", "\r"][j % 2])
        return "\n".join(lines)

    ops = ["number", "drop token", "repeat token", "move token", "drop line",
           "repeat line", "comment", "mark", "crlf"]
    seen = set()

    @hypothesis.settings(max_examples=300, derandomize=True, database=None,
                         deadline=None)
    @hypothesis.given(st.sampled_from(sorted(texts)),
                      st.lists(st.tuples(st.sampled_from(ops),
                                         st.integers(0, 999),
                                         st.integers(0, 999)),
                               min_size=1, max_size=3))
    def check(name, mutations):
        text = texts[name]
        for op, k, j in mutations:
            text = mutate(text, op, k, j)
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        for argv in runs(name, str(path)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, text)
            assert "Traceback" not in err.getvalue(), (argv, text)
            seen.add((argv[0], code))

    check()
    assert {code for _, code in seen} == {0, 1, 2}
    assert {command for command, _ in seen} == {
        "validate", "axioms", "decide-z2", "iso", "check-action", "rel",
        "classify"}
