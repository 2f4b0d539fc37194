"""Command-line interface: exit codes, report text, determinism."""

import argparse
import random
import re
import shlex
import subprocess
import sys
import time

from relalg import (AtomStructure, InvalidStructureError, VerificationReport,
                    cli, extract_atom_structure, format_atom_structure,
                    format_group_action, is_twin, parse_atom_structure,
                    parse_concrete_algebra, parse_group_action, rel_algebra)
from relalg.atoms import _z2_axioms
from relalg.cli import main

from conftest import (DATA, group_closure_oracle, one_orbit_corruptions,
                      shuffled)


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


def test_rel_emits_algebra_and_structure(capsys):
    code, out, err = run(capsys, "rel", DATA / "z3.act")
    assert code == 0
    concrete_text, structure_text = out.split("\n\n")
    c = parse_concrete_algebra(concrete_text)
    assert c.atom_names == ("e0", "a0", "a1")
    s = parse_atom_structure(structure_text)
    assert s.atom_names == ("e0", "a0", "a1")
    assert s.validation.ok


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
    monkeypatch.setattr(cli, "verify_decision", lambda d: VerificationReport(
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
    code, out, err = run(capsys, "check-action", DATA / "23.ra",
                         DATA / "swap.act")
    assert (code, out) == (2, "none\n")


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
    f = tmp_path / "binary.ra"
    f.write_bytes(b"atoms 1'\n" + bytes(range(128, 256)))
    code, out, err = run(capsys, "validate", f)
    assert (code, out) == (1, "")
    assert err == f"error: {f}: not UTF-8 text (invalid start byte at byte 9)\n"


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


def test_usage_errors_exit_1(capsys):
    # 2 is the definite negative answer, so argparse's usage errors map to 1
    for argv in (["iso", DATA / "23.ra"],
                 ["iso", DATA / "23.ra", DATA / "57.ra", "--budget", "abc"],
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
    code, out, err = run(capsys, "iso", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: relalg iso")


def test_parser_is_built_once(monkeypatch, capsys):
    run(capsys, "validate", DATA / "23.ra")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "validate", DATA / "23.ra") == (0, "valid\n", "")
    assert built == []


def test_no_subcommand_computes_element_flags(monkeypatch, capsys):
    # the axioms and decide-z2 read each atom's domain and range, and iso
    # and check-action read neither; only the element predicates compose
    # elements to classify them
    calls = []
    flags = AtomStructure._element_flags

    def counting_flags(self, mask):
        calls.append(mask)
        return flags(self, mask)

    monkeypatch.setattr(AtomStructure, "_element_flags", counting_flags)
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
    # the wrapper does see the flags where a predicate needs them
    s = parse_atom_structure((DATA / "swap.ra").read_text())
    assert is_twin(s.identity)
    assert calls


def test_locally_valid_non_associative_tables_exit_1(tmp_path, capsys):
    # these tables pass the local laws and all three axioms, so decide-z2
    # builds a witness for them, and a shuffle of one is isomorphic to it;
    # every run still reports the full validation of the first invalid
    # input, the source when both are
    tables = one_orbit_corruptions()
    assert len(tables) == 39
    rng = random.Random(39)

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    paths, errors = [], []
    for k, (s, action) in enumerate(tables):
        assert s.validation.codes() == ("associativity",)
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
                           (["check-action", bad, act], error)):
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
