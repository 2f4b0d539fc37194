"""Command-line interface: exit codes, report text, determinism."""

import argparse
import contextlib
import hashlib
import io
import random
import re
import resource
import shlex
import subprocess
import sys
import time

import pytest

from relalg import (AtomStructure, InvalidStructureError, VerificationReport,
                    build_group, decision, extract_atom_structure, format_atom_structure,
                    format_group_action, parse_atom_structure,
                    parse_concrete_algebra, parse_group_action, peirce_orbit,
                    rel_algebra)
from relalg import cli, concrete
from relalg.axioms import _z2_axioms
from relalg.cli import main
from relalg.formats import MAX_ATOMS

from conftest import (DATA, group_closure_oracle, involution_action,
                      involution_structure, one_orbit_corruptions,
                      regular_action, shuffled)
from conftest import element_flags, report_codes
import code_lines


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", DATA / "23.ra")
    assert (code, out, err) == (0, "valid\n", "")


def test_validate_invalid_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.ra"
    bad.write_text("atoms 1' r r~\nidentity 1'\nconverse r:r~\n"
                   "cycle 1' 1' 1'\ncycle 1' r r\ncycle r r r~\n")
    code, out, err = run(capsys, "validate", bad)
    assert code == 2
    assert out.startswith("invalid\n")
    assert "missing-range-atom" in out or "missing-domain-atom" in out
    # the structures of the involution on 48 points (1152 atoms) and of the
    # dihedral group on 128 points (65 atoms, each its own converse, so the
    # join's blocks compute one side only), each less the Peircean orbit of
    # its least cycle of diversity atoms: the local laws still hold, so
    # validate runs the join, then the search for the least witness
    n = 128
    for name, group, atoms in (
            ("inv48", build_group(48, [tuple(i ^ 1 for i in range(48))]),
             1152),
            ("d128", build_group(n, [tuple((i + 1) % n for i in range(n)),
                                     tuple(-i % n for i in range(n))]), 65)):
        s = extract_atom_structure(rel_algebra(group))
        assert s.n_atoms == atoms, name
        assert (s.converse_map == tuple(range(atoms))) == (name == "d128")
        whole, dropped = tmp_path / f"{name}.ra", tmp_path / f"{name}-drop.ra"
        whole.write_text(format_atom_structure(s))
        t = min(c for c in s.cycles if s.identity_atoms.isdisjoint(c))
        dropped.write_text(format_atom_structure(AtomStructure(
            s.atom_names, s.converse_map, s.identity_atoms,
            s.cycles - peirce_orbit(t, s.converse_map))))
        assert run(capsys, "validate", whole) == (0, "valid\n", ""), name
        assert run(capsys, "validate", dropped) == (
            2, "invalid\nassociativity: (a0;a0);a1 != a0;(a0;a1)\n", ""), name


def test_rel_emits_algebra_and_structure(tmp_path, capsys):
    code, out, err = run(capsys, "rel", DATA / "z3.act")
    assert code == 0
    concrete_text, structure_text = out.split("\n\n")
    c = parse_concrete_algebra(concrete_text)
    assert c.atom_names == ("e0", "a0", "a1")
    s = parse_atom_structure(structure_text)
    assert s.atom_names == ("e0", "a0", "a1")
    assert s.validation.ok
    # the structure half of rel's output on each action of data/ is built
    # by the trusted constructor, which skips the cycle law's scan; read
    # back, it passes the full laws, and swap's is accepted and verified
    for act in sorted(DATA.glob("*.act")):
        code, out, err = run(capsys, "rel", act)
        saved = tmp_path / f"{act.stem}.ra"
        saved.write_text(out[out.index("\natoms ") + 1:])
        assert run(capsys, "validate", saved) == (0, "valid\n", ""), act
    code, out, err = run(capsys, "decide-z2", tmp_path / "swap.ra", "--verify")
    assert (code, err) == (0, "") and out.startswith("accepted\nverified\n")


def test_rel_on_symmetric_groups(tmp_path, capsys):
    # S8 has 40320 elements and S40 about 8e47; the algebra of each has two
    # atoms, read off the generators without enumerating the group
    code, out, err = run(capsys, "rel", DATA / "s8.act")
    assert (code, err) == (0, "")
    assert "atoms e0 a0" in out.splitlines()
    n = 40
    cycle = " ".join(str((i + 1) % n) for i in range(n))
    swap = " ".join(str(i) for i in (1, 0, *range(2, n)))
    f = tmp_path / "s40.act"
    f.write_text(f"set {n}\ngen {cycle}\ngen {swap}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "rel", f)
    assert time.perf_counter() - start < 5.0
    assert (code, err) == (0, "")
    assert "atoms e0 a0" in out.splitlines()


def test_decide_z2_accept_with_verify(capsys):
    code, out, err = run(capsys, "decide-z2", DATA / "swap.ra", "--verify")
    assert code == 0
    head, action_text, algebra_text, map_text = out.split("\n\n")
    assert head == "accepted\nverified"
    assert len(group_closure_oracle(parse_group_action(action_text))) == 2
    assert parse_concrete_algebra(algebra_text).base_size == 2
    assert map_text.splitlines() == ["map 1' -> e0", "map d -> a0"]


def test_decide_z2_failed_verification_is_an_error(monkeypatch, capsys):
    # the handler imports verify_decision from relalg.decision when it runs
    monkeypatch.setattr(decision, "verify_decision",
                        lambda d: VerificationReport(
                            ("stored algebra is wrong", "witness is wrong")))
    code, out, err = run(capsys, "decide-z2", DATA / "swap.ra", "--verify")
    assert (code, out) == (1, "")
    assert err == ("error: verification failed: stored algebra is wrong; "
                   "witness is wrong\n")


def test_decide_z2_reject(capsys):
    code, out, err = run(capsys, "decide-z2", DATA / "57.ra")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "rejected"
    assert "axiom 2 fails at atom 1' (pair-density)" in lines
    assert "axiom 3 fails at atom a (functionality)" in lines


def test_iso_found(capsys):
    code, out, err = run(capsys, "iso", DATA / "23.ra",
                         DATA / "23_relabeled.ra")
    assert code == 0
    assert out.splitlines() == ["map 1' -> 1'", "map r -> s~", "map r~ -> s"]


def test_iso_none(capsys):
    code, out, err = run(capsys, "iso", DATA / "23.ra", DATA / "57.ra")
    assert (code, out) == (2, "none\n")


def test_classify_type6(capsys):
    code, out, err = run(capsys, "classify", DATA / "type6.ca")
    assert code == 0
    assert out.splitlines()[:2] == ["points: (none)", "twins: {0,1} {2,3}"]
    assert "atom x0 type 6 [0 1 2 3]" in out.splitlines()


def test_check_action(capsys):
    code, out, err = run(capsys, "check-action", DATA / "swap.ra",
                         DATA / "swap.act")
    assert code == 0 and out.splitlines()[0] == "map 1' -> e0"
    # 23.ra is outside the class and the action has order two, so the
    # axioms answer and no search node is spent, whatever the budget
    for budget in ([], ["--budget", "1"]):
        assert run(capsys, "check-action", DATA / "23.ra", DATA / "swap.act",
                   *budget) == (2, "none\n", ""), budget


def test_axioms_report(capsys):
    code, out, err = run(capsys, "axioms", DATA / "57.ra")
    assert code == 2
    assert out.splitlines() == [
        "axiom 1 holds (simplicity)",
        "axiom 2 fails at atom 1' (pair-density)",
        "axiom 3 fails at atom a (functionality)",
    ]
    code, out, err = run(capsys, "axioms", DATA / "swap.ra")
    assert code == 0
    assert all(ln.startswith("axiom") and "holds" in ln
               for ln in out.splitlines())


def test_classify_rejects_atom_name_with_colon(tmp_path, capsys):
    # a name the atom-structure format cannot carry fails to parse as a
    # concrete algebra too, instead of reaching extraction
    f = tmp_path / "colon.ca"
    f.write_text((DATA / "type6.ca").read_text().replace("atom e0 ", "atom e:0 "))
    code, out, err = run(capsys, "classify", f)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "unusable atom name 'e:0'" in err


def test_missing_file_is_an_error(capsys):
    code, out, err = run(capsys, "validate", DATA / "does-not-exist.ra")
    assert code == 1
    assert err.startswith("error: ") and out == ""


def test_undecodable_file_is_an_error(tmp_path, capsys):
    # the offset counts from the start of the file, byte-order mark included
    f = tmp_path / "binary.ra"
    for mark, offset in ((b"", 9), (b"\xef\xbb\xbf", 12)):
        f.write_bytes(mark + b"atoms 1'\n" + bytes(range(128, 256)))
        code, out, err = run(capsys, "validate", f)
        assert (code, out) == (1, "")
        assert err == (f"error: {f}: not UTF-8 text "
                       f"(invalid start byte at byte {offset})\n")


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    # every input of data/, saved with a UTF-8 byte-order mark, with CRLF
    # or lone-CR line ends, or with both a mark and CRLF, gives the same
    # exit code and report as the original; check-action reads both
    # formats, here both saved the same way
    commands = {".ra": ["decide-z2", "--verify"], ".act": ["rel"],
                ".ca": ["classify"]}
    paths = sorted(DATA.iterdir())
    assert {p.suffix for p in paths} == set(commands)
    runs = [[*commands[p.suffix], p] for p in paths]
    runs.append(["check-action", DATA / "swap.ra", DATA / "swap.act"])
    variants = (lambda raw: b"\xef\xbb\xbf" + raw,
                lambda raw: raw.replace(b"\n", b"\r\n"),
                lambda raw: raw.replace(b"\n", b"\r"),
                lambda raw: b"\xef\xbb\xbf" + raw.replace(b"\n", b"\r\n"))
    for path in paths:
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.count(b"\n") > 1, path
    for argv in runs:
        expected = run(capsys, *argv)[:2]
        for k, variant in enumerate(variants):
            saved = [tmp_path / a.name if a in paths else a for a in argv]
            for a, b in zip(argv, saved):
                if a in paths:
                    b.write_bytes(variant(a.read_bytes()))
            code, out, err = run(capsys, *saved)
            assert (code, out) == expected, (argv, k)
            assert out and not err, (argv, k)


def test_unwritable_output_is_an_error(tmp_path, capsys):
    # a missing directory, and a directory where the file should go
    for target in (tmp_path / "missing" / "report.txt", tmp_path):
        code, out, err = run(capsys, "validate", DATA / "23.ra",
                             "--output", target)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err


def test_parse_error_is_an_error(tmp_path, capsys):
    f = tmp_path / "broken.ra"
    f.write_text("atoms a\nidentity a\ncycle a a zz\n")
    code, out, err = run(capsys, "validate", f)
    assert code == 1
    assert "zz" in err and str(f) in err
    # a concrete algebra whose atoms do not partition the pairs is refused
    # when the file is read
    gap = tmp_path / "gap.ca"
    gap.write_text("set 2\natom x = (0,0) (1,1) (0,1)\n")
    code, out, err = run(capsys, "classify", gap)
    assert (code, out) == (1, "")
    assert "pair (1,0) is in no atom" in err and "Traceback" not in err


def test_number_past_int_digit_limit_is_a_parse_error(tmp_path, capsys):
    # int() refuses more than 4300 digits; such a number is out of range,
    # which each command reports as one error line, without a traceback
    big = "9" * 5000
    for name, text, command, message in (
            ("pair.ca", f"set 2\natom x = ({big},0)\n", "classify",
             "pair outside the base set"),
            ("size.ca", f"set {big}\n", "classify", "above the cap"),
            ("image.act", f"set 2\ngen {big} 0\n", "rel",
             "image outside the base set")):
        f = tmp_path / name
        f.write_text(text)
        code, out, err = run(capsys, command, f)
        assert (code, out) == (1, ""), name
        assert err.startswith("error: ") and err.count("\n") == 1, name
        assert message in err and "Traceback" not in err, name


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, err = run(capsys, "validate", DATA / "23.ra",
                         "--output", target)
    assert code == 0 and out == ""
    assert target.read_text() == "valid\n"


def test_reports_are_deterministic(capsys):
    outs = set()
    for _ in range(2):
        code, out, err = run(capsys, "rel", DATA / "d5.act")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_budget_flag_errors_when_exhausted(capsys):
    code, out, err = run(capsys, "iso", DATA / "23.ra", DATA / "23.ra",
                         "--budget", "1")
    assert code == 1
    assert "budget" in err


def test_decide_z2_ignores_budget(capsys):
    # the accepting witness is constructed, so no budget can run out
    code, out, err = run(capsys, "decide-z2", DATA / "swap.ra", "--verify",
                         "--budget", "1")
    assert (code, err) == (0, "")
    assert out.startswith("accepted\nverified\n")


def test_console_script_installed():
    # run from src/, so a checkout works without installing the package
    proc = subprocess.run([sys.executable, "-m", "relalg.cli", "validate",
                           str(DATA / "23.ra")], capture_output=True,
                          text=True, cwd=DATA.parent / "src")
    assert proc.returncode == 0
    assert proc.stdout == "valid\n"


# cli.main on the child's arguments in a fresh interpreter, which prints
# its own peak RSS in KB as VmHWM: exec resets VmHWM, while ru_maxrss
# keeps the peak of the process that spawned the child, here the test run's
PEAK_RSS_CHILD = ("import re, sys\nfrom relalg import cli\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "with open('/proc/self/status') as f:\n"
                  "    print(re.search(r'VmHWM:\\s*(\\d+) kB', f.read())[1],"
                  " file=sys.stderr)\nsys.exit(code)\n")


def run_measured(*argv, status=0, preexec_fn=None):
    """(completed process, seconds, peak RSS in KB) of one CLI run in a
    fresh interpreter started from src/, with preexec_fn run in the child
    before it starts; the run must exit with status."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD,
                           *map(str, argv)], capture_output=True, text=True,
                          cwd=DATA.parent / "src", preexec_fn=preexec_fn)
    elapsed = time.perf_counter() - start
    assert proc.returncode == status, (argv, proc.stderr)
    return proc, elapsed, int(proc.stderr.split()[-1])


@pytest.fixture(scope="session")
def large_inputs(tmp_path_factory):
    """The inputs of the size-bound rows, each written once, by name: two
    shuffles of the 80-point fixed-point-free involution's structure (3200
    atoms, 256000 cycles), the structure as rel writes it, the involution
    itself and a copy with its points relabelled, and the trivial action and
    the fixed-point-free involution of 128 points, at the base-size cap;
    and two shuffles of the structure of
    Z3 rotating 20 triangles (1200 atoms, 72000 cycles, outside the class)
    and that action, which the search answers."""
    s = involution_structure(0, 40)
    assert (s.n_atoms, len(s.cycles)) == (3200, 256000)
    rng = random.Random(40)
    texts = {"a.ra": format_atom_structure(shuffled(s, rng)),
             "b.ra": format_atom_structure(shuffled(s, rng)),
             "inv80.ra": format_atom_structure(s),
             "inv80.act": format_group_action(involution_action(0, 40)),
             "triv128.act": format_group_action(involution_action(128, 0)),
             "inv128.act": format_group_action(involution_action(0, 64))}
    # the involution i -> i xor 1 with point i renamed points[i]
    points = list(range(80))
    rng.shuffle(points)
    image = [0] * 80
    for i in range(80):
        image[points[i]] = points[i ^ 1]
    texts["inv80-shuffled.act"] = format_group_action(
        build_group(80, [tuple(image)]))
    z3 = build_group(60, [tuple(3 * (i // 3) + (i + 1) % 3
                                for i in range(60))])
    t = extract_atom_structure(rel_algebra(z3))
    assert (t.n_atoms, len(t.cycles)) == (1200, 72000)
    texts["z3t20.act"] = format_group_action(z3)
    texts["z3t20-a.ra"] = format_atom_structure(shuffled(t, rng))
    texts["z3t20-b.ra"] = format_atom_structure(shuffled(t, rng))
    root = tmp_path_factory.mktemp("large")
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")
    return {name: root / name for name in texts}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# One row per fresh-interpreter run on a large input: its id, its command
# line by the input names of large_inputs, its peak RSS bound in MB, its
# seconds bound, and a test of its stdout
SIZE_BOUNDS = [
    # the class path at 3200 atoms, on shuffled ids: neither builds a
    # composition table of 3200 x 3200 masks
    ("decide-z2-3200-shuffled", ["decide-z2", "a.ra", "--verify"], 150, 3.0,
     None),
    ("iso-3200-shuffled", ["iso", "a.ra", "b.ra"], 150, 3.0, None),
    # the structure against its involution: the axioms give its points
    # and twins, then the proof's map is built, with no search and no join
    ("check-action-3200-shuffled", ["check-action", "a.ra", "inv80.act"], 90,
     1.5, lambda out: out.count("map ") == 3200),
    # 256000 cycles, written as 44280 cycle lines chosen by a local test
    # per cycle, with no marking set of the cycles
    ("rel-3200", ["rel", "inv80.act"], 40, 1.0,
     lambda out: out.count("\ncycle ") == 44280),
    # the same on relabelled points, where the pairs' orbits and the
    # atoms' profiles come in another order
    ("rel-3200-shuffled", ["rel", "inv80-shuffled.act"], 40, 1.0,
     lambda out: out.count("\ncycle ") == 44280),
    # the 44280 cycle lines as rel writes them, which the local laws and
    # the join's table read, with no set of the 256000 cycles
    ("validate-3200", ["validate", "inv80.ra"], 170, 0.85,
     lambda out: out == "valid\n"),
    # the same on shuffled ids, where the table and the join read the
    # lines out of order, the slower case
    ("validate-3200-shuffled", ["validate", "a.ra"], 170, 2.0,
     lambda out: out == "valid\n"),
    # full validation, then the three axioms, which all hold
    ("axioms-3200-shuffled", ["axioms", "a.ra"], 170, 2.5,
     lambda out: out.count(" holds (") == 3),
    # the search and the check of its map read the composition table,
    # with no set of the 72000 cycles on either side
    ("iso-1200-searched", ["iso", "z3t20-a.ra", "z3t20-b.ra"], 62, 3.0,
     lambda out: out.count("map ") == 1200),
    ("check-action-1200-searched", ["check-action", "z3t20-a.ra",
                                    "z3t20.act"], 62, 3.0,
     lambda out: out.count("map ") == 1200),
    # 16384 atoms and 2,097,152 cycles, written as 357,760 cycle lines
    # chosen from the profile triples as extraction streams them, with no
    # set of the cycles; each Peircean orbit of the pair algebra is a
    # multiset of three base points, C(130, 3) of them. The text is pinned
    # byte for byte by its sha256, as is that of the involution i -> i xor 1
    ("rel-cap", ["rel", "triv128.act"], 100, 1.5,
     lambda out: out.count("\ncycle ") == 357760 and sha256(out) == (
         "b58fdc4133b6fc660b993d6ec3599daa2772d9902e4e37ef8892fefe3454cf54")),
    ("rel-cap-involution", ["rel", "inv128.act"], 60, 1.0,
     lambda out: out.count("\ncycle ") == 178880 and sha256(out) == (
         "9064b7c03c409c11d240a00131b71512923b595d71113c18d8c095ee3066cf38")),
]


@pytest.mark.parametrize("argv, mb, seconds, check",
                         [row[1:] for row in SIZE_BOUNDS],
                         ids=[row[0] for row in SIZE_BOUNDS])
def test_large_input_stays_under_its_bounds(large_inputs, argv, mb, seconds,
                                            check):
    proc, elapsed, peak_kb = run_measured(
        *(large_inputs.get(arg, arg) for arg in argv))
    assert check is None or check(proc.stdout), argv
    assert peak_kb < mb * 1024, argv
    assert elapsed < seconds, argv


def test_a_searched_map_at_1200_atoms_builds_no_cycle_set(
        large_inputs, monkeypatch, capsys):
    # the rows above in this process: the search, its refinement and the
    # check of its map read each side's composition table, so neither the
    # parsed structures nor the action's extracted one build the set
    searched = []

    def recording(source, target, budget):
        searched.extend((source, target))
        return search(source, target, budget)

    search = decision._searched
    monkeypatch.setattr(decision, "_searched", recording)
    for argv in (["iso", "z3t20-a.ra", "z3t20-b.ra"],
                 ["check-action", "z3t20-a.ra", "z3t20.act"]):
        searched.clear()
        assert main([str(large_inputs.get(a, a)) for a in argv]) == 0
        assert capsys.readouterr().out.count("map ") == 1200
        assert len(searched) == 2, argv
        assert not any("cycles" in s.__dict__ for s in searched), argv


def loaded_modules(argv, status):
    """The modules a fresh interpreter has loaded after cli.main(argv),
    which must return status (code_lines.loaded starts it)."""
    code, modules, stderr = code_lines.loaded(argv)
    assert code == status, (argv, stderr)
    return modules


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    # the decision procedure and the pair-dense classification are
    # imported by the handlers that call them, the search only when the
    # class cannot answer and the power runs agree, the re-check (check)
    # only under --verify, and the associativity join only where a verdict
    # rests on it: validate, axioms, a rejection, and the source of a
    # searched map; the local laws everywhere but rel and classify, and
    # the axioms everywhere but those two and validate; actions, concrete
    # and proof as README's "Start-up" lists; argparse, with gettext, only
    # for help and usage errors, and re and the utf-8-sig codec never.
    # test_api.py runs in the test process, where other tests have
    # imported everything already
    searched = ["iso", DATA / "23.ra", DATA / "23_relabeled.ra"]
    # the regular actions of Z4 and Z2^2: outside the class, 4 atoms each,
    # and only Z4 has elements of order 4, so the power runs answer none
    runs = []
    for name, orders in (("z4.ra", [4]), ("z2z2.ra", [2, 2])):
        s = extract_atom_structure(rel_algebra(regular_action(orders)))
        assert s.n_atoms == 4 and not _z2_axioms(s).all_hold
        runs.append(tmp_path / name)
        runs[-1].write_text(format_atom_structure(s), encoding="utf-8")
    by_runs = ["iso", *runs]
    verified = ["decide-z2", DATA / "swap.ra", "--verify"]
    built = [verified, ["decide-z2", DATA / "swap.ra"],
             ["iso", DATA / "swap.ra", DATA / "swap.ra"],
             ["check-action", DATA / "swap.ra", DATA / "swap.act"]]
    for argv, status, joined in (
            (["validate", DATA / "23.ra"], 0, True),
            (["rel", DATA / "z3.act"], 0, False),
            (["axioms", DATA / "57.ra"], 2, True),
            (["axioms", DATA / "swap.ra"], 0, True),
            (["classify", DATA / "type6.ca"], 0, False),
            (verified, 0, False),
            (["decide-z2", DATA / "swap.ra"], 0, False),
            (["decide-z2", DATA / "57.ra"], 2, True),
            (searched, 0, True),
            (by_runs, 2, True),
            (["iso", DATA / "swap.ra", DATA / "swap.ra"], 0, False),
            (["check-action", DATA / "swap.ra", DATA / "swap.act"], 0,
             False),
            (["check-action", DATA / "swap.ra", DATA / "z3.act"], 2, True)):
        loaded = loaded_modules(argv, status)
        assert {"relalg.cli", "relalg.errors", "relalg.formats"} <= loaded
        assert ("relalg.decision" in loaded) == (
            argv[0] in ("decide-z2", "iso", "check-action")), argv
        assert ("relalg.pairdense" in loaded) == (argv[0] == "classify"), argv
        assert ("relalg.search" in loaded) == (argv == searched), argv
        assert ("relalg.check" in loaded) == (argv == verified), argv
        assert ("relalg.join" in loaded) == joined, argv
        assert ("relalg.laws" in loaded) == (
            argv[0] not in ("rel", "classify")), argv
        assert ("relalg.axioms" in loaded) == (
            argv[0] not in ("rel", "classify", "validate")), argv
        assert ("relalg.proof" in loaded) == (argv in built), argv
        assert ("relalg.actions" in loaded) == (
            argv[0] in ("rel", "check-action") or argv in built), argv
        assert ("relalg.concrete" in loaded) == (
            argv[0] in ("rel", "classify", "check-action")
            or argv in built), argv
        assert not loaded & {"dataclasses", "inspect", "typing", "pathlib",
                             "argparse", "gettext", "re",
                             "encodings.utf_8_sig"}, argv
    for argv, status in ((["--help"], 0), (["iso", "--help"], 0),
                         (["frobnicate"], 1)):
        assert {"argparse", "gettext"} <= loaded_modules(argv, status), argv


def test_import_loads_no_submodule_and_names_resolve_on_use():
    script = ("import sys, relalg\n"
              "print(sorted(k for k in sys.modules"
              " if k.startswith('relalg')))\n"
              "listed = dir(relalg)\n"
              "print([n for n in relalg.__all__ if n not in listed])\n"
              "print([n for n in relalg.__all__ if not hasattr(relalg, n)])\n"
              "print(hasattr(relalg, 'no_such_name'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=DATA.parent / "src")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['relalg']", "[]", "[]", "False"]


def test_help_names_every_subcommand_and_the_default_budget(capsys):
    # words and substrings only: argparse lays its help out differently by
    # version
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert {"validate", "rel", "decide-z2", "iso", "classify", "check-action",
            "axioms"} <= set(re.findall(r"[\w-]+", out))
    for command in ("iso", "check-action"):
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, ""), command
        assert "10000000" in out, command


def test_usage_errors_exit_1(capsys):
    # 2 is the definite negative answer, so argparse's usage errors map to 1
    for argv in (["iso", DATA / "23.ra"],
                 ["iso", DATA / "23.ra", DATA / "57.ra", "--budget", "abc"],
                 # ASCII digits only: int() reads both of these as 10
                 ["iso", DATA / "23.ra", DATA / "23.ra", "--budget", "1_0"],
                 ["iso", DATA / "23.ra", DATA / "23.ra",
                  "--budget", "\u0661\u0660"],
                 ["iso", DATA / "23.ra", DATA / "57.ra", "--budget", "0"],
                 ["iso", DATA / "23.ra", DATA / "23_relabeled.ra",
                  "--budget", "-5"],
                 ["check-action", DATA / "swap.ra", DATA / "swap.act",
                  "--budget", "0"],
                 ["decide-z2", DATA / "swap.ra", "--budget", "-5"],
                 ["frobnicate"],
                 ["validate", DATA / "23.ra", "--bogus"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("usage: relalg") and "error: " in err, argv
    code, out, err = run(capsys, "check-action", DATA / "swap.ra",
                         DATA / "swap.act", "--budget", "0")
    assert err.endswith("error: argument --budget: must be at least 1, "
                        "got 0\n")
    code, out, err = run(capsys, "iso", DATA / "23.ra", DATA / "23.ra",
                         "--budget", "1_0")
    assert err.endswith("error: argument --budget: invalid int value: "
                        "'1_0'\n")
    code, out, err = run(capsys, "iso", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: relalg iso")


def test_base_size_above_the_cap_exits_1(tmp_path, capsys):
    # the set line fails before any table of the n^2 pairs is built
    act, ca = tmp_path / "huge.act", tmp_path / "huge.ca"
    act.write_text("set 999999999999\n", encoding="utf-8")
    ca.write_text("set 999999999999\natom x = (0,0)\n", encoding="utf-8")
    for argv, path in ((["rel", act], act), (["classify", ca], ca),
                       (["check-action", DATA / "swap.ra", act], act)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == (f"error: {path}:1: set size is above the cap of 128 "
                       f"points (token '999999999999')\n"), argv


def test_atom_count_above_the_cap_exits_1(tmp_path, capsys):
    # the atoms line fails before any later line is read and before any
    # table over the atoms is built: in a fresh interpreter whose address
    # space is capped at 512 MB, where a missing cap would end in a
    # MemoryError, not in the cap's message
    names = " ".join(f"a{i}" for i in range(MAX_ATOMS + 1))
    big = tmp_path / "big.ra"
    big.write_text(f"atoms {names}\nidentity a0\n", encoding="utf-8")
    message = (f"error: {big}:1: atoms line lists 16385 atoms, above the "
               f"cap of 16384 atoms\n")

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    proc, elapsed, peak_kb = run_measured("validate", big, status=1,
                                          preexec_fn=capped)
    assert (proc.stdout, proc.stderr.splitlines()[:-1]) == ("",
                                                            [message[:-1]])
    assert peak_kb < 40 * 1024 and elapsed < 1.0
    assert run(capsys, "axioms", big) == (1, "", message)


def test_parser_is_built_once(monkeypatch, tmp_path, capsys):
    # a plain command line builds no parser; the first line that only
    # argparse reads, here with --output abbreviated, builds the parser and
    # its seven subparsers, and the next line reuses them
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run(capsys, "validate", DATA / "23.ra") == (0, "valid\n", "")
    assert built == []
    report = tmp_path / "report.txt"
    for _ in range(2):
        assert run(capsys, "validate", "--out", report, DATA / "23.ra") == (
            0, "", "")
        assert report.read_text() == "valid\n"
    assert built == ["relalg", *(f"relalg {name}" for name in cli._COMMANDS)]


def test_plain_reader_agrees_with_argparse(monkeypatch, tmp_path):
    # command lines drawn over the words of cli._COMMANDS and over the
    # shapes that the plain reader leaves to argparse: abbreviations, the
    # = form, repeats, --, help, dash-led values, missing or extra
    # positionals and budgets that int() reads but the formats do not.
    # Where the plain reader accepts a line, it gives argparse's
    # arguments; every line ends cli.main with 0, 1 or 2 and no traceback.
    # The inputs are copies in tmp_path, the working directory, rewritten
    # before each line, as --output may name one of them
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    inputs = {name: (DATA / name).read_bytes() for name in (
        "23.ra", "23_relabeled.ra", "57.ra", "swap.ra", "swap.act", "z3.act",
        "type6.ca")}
    monkeypatch.chdir(tmp_path)
    spellings = sorted({spelling for *_, options in cli._COMMANDS.values()
                        for spelling, _ in options} | {"--output"})
    words = [*cli._COMMANDS, *inputs, *spellings, "missing.ra", "", "."]
    values = ["1", "7", "+3", "007", "9" * 30, "report.txt", "."]
    bad_values = ["0", "-5", "-", "1_0", "\u0661\u0660", "abc", "-x", "-h",
                  "--verify", "--output"]
    abbreviated = ["--out", "--bud", "--ver"]
    declined = [*abbreviated, "--output=report.txt", "--budget=5", "--",
                "-h", "--help", "--bogus", "-x"]
    # a piece the plain reader may decline: a word, a spelling with a value
    # of either kind, or one of the shapes above
    odd_pieces = st.one_of(
        st.sampled_from(words).map(lambda w: [w]),
        st.tuples(st.sampled_from(spellings + abbreviated),
                  st.sampled_from(values + bad_values + words)).map(list),
        st.sampled_from(declined).map(lambda w: [w]))

    @st.composite
    def command_lines(draw):
        # a subcommand with its positionals and some of its options, in any
        # order, and a few odd pieces, often none
        name = draw(st.sampled_from([*cli._COMMANDS, "frobnicate", None]))
        _, _, positionals, options = cli._COMMANDS.get(name, (0, 0, (), ()))
        pieces = [[draw(st.sampled_from([*inputs, "missing.ra"]))]
                  for _ in positionals]
        for spelling, kwargs in (("--output", {}), *options):
            if draw(st.booleans()):
                pieces.append([spelling] if "action" in kwargs else [
                    spelling, draw(st.sampled_from(values + bad_values))])
        pieces = draw(st.permutations(pieces))
        for piece in draw(st.lists(odd_pieces, max_size=2)):
            pieces.insert(draw(st.integers(0, len(pieces))), piece)
        return [w for w in [name] if w is not None] + [
            w for piece in pieces for w in piece]

    seen = {"accepted": 0, "declined": 0}

    @hypothesis.settings(max_examples=500)
    @hypothesis.given(command_lines())
    @hypothesis.example(["iso", "23.ra", "57.ra", "--budget", "0"])
    @hypothesis.example(["iso", "23.ra", "57.ra", "--budget", "1_0"])
    @hypothesis.example(["iso", "23.ra", "57.ra", "--budget",
                         "\u0661\u0660"])
    @hypothesis.example(["decide-z2", "swap.ra", "--verify", "--budget", "3"])
    @hypothesis.example(["validate", "swap.ra", "--output"])
    @hypothesis.example(["validate", "-x"])
    @hypothesis.example(["check-action", "swap.ra", "swap.act", "--output",
                         "report.txt", "--budget", "9" * 30])
    def check(argv):
        for path in tmp_path.iterdir():
            if path.is_file():
                path.unlink()
        for name, data in inputs.items():
            (tmp_path / name).write_bytes(data)
        plain = cli._plain_args(argv)
        seen["declined" if plain is None else "accepted"] += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if plain is not None:
                try:
                    parsed = vars(cli.build_parser().parse_args(argv))
                except SystemExit:  # help or a usage error
                    parsed = None
                assert vars(plain) == parsed, argv
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv

    start = time.perf_counter()
    check()
    assert time.perf_counter() - start < 30.0
    assert min(seen.values()) > 50, seen


def test_no_subcommand_computes_element_flags(monkeypatch, capsys):
    # the axioms and decide-z2 read each atom's domain and range, and iso
    # and check-action read neither; only the reference flags of the tests
    # (conftest.element_flags) compose elements to classify them
    calls = []
    compose = AtomStructure.compose_mask

    def counting_compose(self, xm, ym):
        calls.append((xm, ym))
        return compose(self, xm, ym)

    monkeypatch.setattr(AtomStructure, "compose_mask", counting_compose)
    for argv, status in ((["validate", DATA / "57.ra"], 0),
                         (["rel", DATA / "z3.act"], 0),
                         (["classify", DATA / "type6.ca"], 0),
                         (["axioms", DATA / "57.ra"], 2),
                         (["axioms", DATA / "swap.ra"], 0),
                         (["decide-z2", DATA / "23.ra"], 2),
                         (["decide-z2", DATA / "swap.ra", "--verify"], 0),
                         (["iso", DATA / "23.ra",
                           DATA / "23_relabeled.ra"], 0),
                         (["check-action", DATA / "swap.ra",
                           DATA / "swap.act"], 0)):
        assert run(capsys, *argv)[0] == status, argv
    assert calls == []
    # the wrapper does see the flags where they are read
    s = parse_atom_structure((DATA / "swap.ra").read_text())
    assert element_flags(s, s.identity_mask)[1]
    assert calls


def test_readers_that_only_iterate_build_no_cycle_set(monkeypatch, capsys,
                                                       tmp_path):
    # the fallback scan of the identity law, the writer and the dense
    # table read a parsed or extracted structure's stream of cycles: only
    # a reader that counts the cycles or tests membership builds the set
    built = []

    def recording(read):
        def wrapper(*args, **kwargs):
            built.append(read(*args, **kwargs))
            return built[-1]
        return wrapper

    monkeypatch.setattr(cli, "parse_atom_structure",
                        recording(parse_atom_structure))
    monkeypatch.setattr(concrete, "extract_atom_structure",
                        recording(extract_atom_structure))
    # identity atoms that are not their own converses, and a line that
    # breaks the identity law
    for k, (text, line) in enumerate((
            ("atoms e f\nidentity e f\nconverse e:f\ncycle e e e\n",
             "identity-law: cycle (e, e, e) puts an identity atom below "
             "e;e but e != f"),
            ("atoms e a\nidentity e\nconverse e:a\ncycle e a a\n",
             "identity-law: cycle (e, a, e) composes an identity atom on "
             "the left but a != e"))):
        path = tmp_path / f"{k}.ra"
        path.write_text(text)
        built.clear()
        code, out, _ = run(capsys, "validate", path)
        assert code == 2 and line in out.splitlines(), out
        assert [*built[0]._places[3]] and "cycles" not in built[0].__dict__
    # the first table's identity-law lines come from the closure of its one
    # cycle line, not from the line alone; axioms, decide-z2 and iso refuse
    # it, exit 1, with the same report on stderr, from the same stream
    ef = tmp_path / "0.ra"
    code, out, _ = run(capsys, "validate", ef)
    lines = out.splitlines()[1:]
    assert {"identity-law: cycle (e, e, e) puts an identity atom below e;e "
            "but e != f",
            "identity-law: cycle (f, e, f) composes an identity atom on the "
            "left but e != f",
            "multiple-domain-atoms: atom e has domain atoms e, f"} <= set(lines)
    for argv in (["axioms", ef], ["decide-z2", ef], ["iso", ef, ef]):
        built.clear()
        assert run(capsys, *argv) == (
            1, "", f"error: invalid atom structure: {'; '.join(lines)}\n"), argv
        assert built and not any("cycles" in s.__dict__ for s in built), argv
    built.clear()
    assert run(capsys, "rel", DATA / "z3.act")[0] == 0
    assert "cycles" not in built[0].__dict__
    s = parse_atom_structure((DATA / "23.ra").read_text())
    format_atom_structure(s)
    assert "cycles" not in s.__dict__
    t = extract_atom_structure(rel_algebra(involution_action(2, 1)))
    assert t._table and "cycles" not in t.__dict__


def test_locally_valid_non_associative_tables_exit_1(tmp_path, capsys):
    # these tables pass the local laws and all three axioms, so decide-z2
    # builds a witness for them, and a shuffle of one is isomorphic to it;
    # every run still reports the full validation of the first invalid
    # input, the source when both are, a search out of budget included
    tables = one_orbit_corruptions()
    assert len(tables) == 39
    rng = random.Random(39)

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    paths, errors = [], []
    for k, (s, action) in enumerate(tables):
        assert report_codes(s.validation) == ("associativity",)
        assert _z2_axioms(s).all_hold
        paths.append(write(f"bad{k}.ra", format_atom_structure(s)))
        errors.append("error: " + str(InvalidStructureError(s.validation))
                      + "\n")
    for k, (s, action) in enumerate(tables):
        bad, error = paths[k], errors[k]
        partner = extract_atom_structure(rel_algebra(action))
        good = write(f"good{k}.ra", format_atom_structure(partner))
        act = write(f"inv{k}.act", format_group_action(action))
        twin = write(f"shuffled{k}.ra",
                     format_atom_structure(shuffled(s, rng)))
        other = (k + 1) % len(tables)
        for argv, want in ((["decide-z2", bad], error),
                           (["decide-z2", bad, "--verify"], error),
                           (["iso", bad, good], error),
                           (["iso", good, bad], error),
                           (["iso", bad, twin], error),
                           (["iso", bad, paths[other]], error),
                           (["iso", paths[other], bad], errors[other]),
                           (["check-action", bad, act], error),
                           (["iso", bad, twin, "--budget", "1"], error),
                           (["check-action", bad, act, "--budget", "1"],
                            error)):
            assert run(capsys, *argv) == (1, "", want), argv


def test_readme_command_lines(monkeypatch, capsys):
    # every command of the README's "Command line" block runs from the
    # repository root and exits 0 unless its comment says otherwise
    readme = (DATA.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [ln for ln in block.split("```", 1)[0].splitlines()
             if ln.startswith("relalg ")]
    assert len(lines) == 8
    monkeypatch.chdir(DATA.parent)
    for line in lines:
        command, _, comment = line.partition("#")
        expected = re.match(r"\s*exits (\d)", comment)
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert code == (int(expected.group(1)) if expected else 0), line
        assert out and not err, line
