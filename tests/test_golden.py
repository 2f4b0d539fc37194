"""The command line against a recorded snapshot, byte for byte.

`tests/golden/cli.txt` holds the exit code, stdout and stderr of
`validate`, `axioms` and `decide-z2 --verify` on every `.ra` file, of
`rel` on every `.act` and `classify` on every `.ca` file, of `iso` on
every ordered pair of `.ra` files and of `check-action` on every `.ra`
file against every `.act` file.  The `.ra` files are those of `data/` and
three tables of `tests/golden/` that keep the local laws but are not
associative.  After a deliberate change of output, regenerate the
snapshot (and the three tables) from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
from pathlib import Path

from relalg import format_atom_structure
from relalg.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SNAPSHOT = GOLDEN / "cli.txt"
# indices into one_orbit_corruptions(): the first tables from (points,
# twins) = (1, 1), (1, 2) and (2, 2)
CORRUPTIONS = {"no_orbit_1_1.ra": 0, "no_orbit_1_2.ra": 6,
               "no_orbit_2_2.ra": 23}


def golden_runs() -> list[list[str]]:
    """Every command line of the snapshot, with paths relative to the
    repository root."""
    def files(directory, pattern):
        return sorted(p.relative_to(ROOT).as_posix()
                      for p in (ROOT / directory).glob(pattern))

    structures = files("data", "*.ra") + files("tests/golden", "*.ra")
    actions = files("data", "*.act")
    runs = [[cmd, f] for f in structures for cmd in ("validate", "axioms")]
    runs += [["decide-z2", f, "--verify"] for f in structures]
    runs += [["rel", f] for f in actions]
    runs += [["classify", f] for f in files("data", "*.ca")]
    runs += [["iso", f, g] for f in structures for g in structures]
    runs += [["check-action", f, a] for f in structures for a in actions]
    return runs


def render(argv: list[str]) -> str:
    """One run as text: the command line, the exit code, and each output
    line prefixed by '|' (a trailing newline shows as a last bare '|')."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)

    def block(text):
        return "".join(f"| {ln}\n" if ln else "|\n" for ln in text.split("\n"))

    return (f"$ relalg {' '.join(argv)}\nexit {code}\nstdout:\n"
            f"{block(out.getvalue())}stderr:\n{block(err.getvalue())}")


def snapshot() -> str:
    return "".join(map(render, golden_runs()))


def test_cli_matches_the_golden_snapshot(monkeypatch):
    monkeypatch.chdir(ROOT)
    want = SNAPSHOT.read_text(encoding="utf-8").split("$ relalg ")[1:]
    got = snapshot().split("$ relalg ")[1:]
    assert len(got) == len(want) == 103
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    from conftest import one_orbit_corruptions
    corrupted = one_orbit_corruptions()
    for name, k in CORRUPTIONS.items():
        (GOLDEN / name).write_text(
            "# an involution structure with one Peircean orbit of diversity\n"
            "# cycles dropped: the local laws hold, associativity fails\n"
            + format_atom_structure(corrupted[k][0]), encoding="utf-8")
    os.chdir(ROOT)
    SNAPSHOT.write_text(snapshot(), encoding="utf-8")
