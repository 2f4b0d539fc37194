"""Command-line interface.

Exit codes: 0 for success or a positive answer, 2 for a definite negative
answer (an invalid structure in `validate`, rejected decision, no
isomorphism, failing axiom), 1 for errors such as usage errors, unreadable
files, parse failures, violated preconditions (an invalid structure in
`decide-z2`, `iso`, `check-action` and `axioms`), an exhausted search
budget in `iso` or `check-action`, or a Python recursion or memory limit.

A handler imports the decision procedure (`decision`) or the pair-dense
classification (`pairdense`) itself, so that `rel`, `validate` and
`axioms` neither compile nor run those modules; `decision` imports the
isomorphism search (`search`) only for an `iso` pair with neither side in
the class and a `check-action` group of order above two.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import sys

from .atoms import _AXIOMS, check_z2_axioms
from .concrete import extract_atom_structure
from .errors import DEFAULT_BUDGET, InternalError, RelalgError
from .formats import (_int, format_atom_structure, format_concrete_algebra,
                      format_group_action, parse_atom_structure,
                      parse_concrete_algebra, parse_group_action)
from .actions import rel_algebra


def _read(path: str) -> str:
    # read whole as bytes, in one unbuffered call, and decoded at once:
    # the parsers split lines with str.splitlines, which ends a line at
    # CRLF and at a lone CR as text mode's newline translation did; a
    # leading byte-order mark is skipped, and still counted in offsets
    with open(path, "rb", buffering=0) as f:
        data = f.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        mark = data.startswith(codecs.BOM_UTF8)
        raise RelalgError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start + 3 * mark})") from None


def _budget(text: str) -> int:
    try:
        n = _int(text)  # ASCII digits, as in the file formats
    except ValueError:  # argparse's own wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _axiom_line(axiom: int, condition: str, witness: str | None) -> str:
    if witness is None:
        return f"axiom {axiom} holds ({condition})"
    return f"axiom {axiom} fails at atom {witness} ({condition})"


def _cmd_validate(args) -> tuple[int, list[str]]:
    s = parse_atom_structure(_read(args.file), source=args.file)
    report = s.validation
    if report.ok:
        return 0, ["valid"]
    return 2, ["invalid"] + list(report.lines())


def _cmd_rel(args) -> tuple[int, list[str]]:
    action = parse_group_action(_read(args.file), source=args.file)
    algebra = rel_algebra(action)
    structure = extract_atom_structure(algebra)
    # each text ends in a newline, and main joins them with one more and
    # ends the output with one: the blank line between them is kept
    return 0, [format_concrete_algebra(algebra),
               format_atom_structure(structure)[:-1]]


def _cmd_decide_z2(args) -> tuple[int, list[str]]:
    from .decision import decide_z2, verify_decision
    s = parse_atom_structure(_read(args.file), source=args.file)
    decision = decide_z2(s)
    if not decision.accepted:
        lines = ["rejected"]
        lines.extend(_axiom_line(f.axiom, f.condition, f.witness)
                     for f in decision.failures)
        return 2, lines
    lines = ["accepted"]
    if args.verify:
        report = verify_decision(decision)
        if not report.ok:
            raise InternalError("verification failed: "
                                + "; ".join(report.problems))
        lines.append("verified")
    # each text without its final newline, between the blank lines
    return 0, [*lines, "", format_group_action(decision.action)[:-1], "",
               format_concrete_algebra(decision.algebra)[:-1], "",
               *decision.witness.map_lines()]


def _cmd_iso(args) -> tuple[int, list[str]]:
    from .decision import find_isomorphism
    s1 = parse_atom_structure(_read(args.file), source=args.file)
    s2 = parse_atom_structure(_read(args.other), source=args.other)
    witness = find_isomorphism(s1, s2, budget=args.budget)
    if witness is None:
        return 2, ["none"]
    return 0, witness.map_lines()


def _cmd_classify(args) -> tuple[int, list[str]]:
    from .pairdense import classify_atoms
    c = parse_concrete_algebra(_read(args.file), source=args.file)
    return 0, classify_atoms(c).report_lines()


def _cmd_check_action(args) -> tuple[int, list[str]]:
    from .decision import check_action_represents
    s = parse_atom_structure(_read(args.file), source=args.file)
    action = parse_group_action(_read(args.action_file),
                                source=args.action_file)
    witness = check_action_represents(s, action, budget=args.budget)
    if witness is None:
        return 2, ["none"]
    return 0, witness.map_lines()


def _cmd_axioms(args) -> tuple[int, list[str]]:
    s = parse_atom_structure(_read(args.file), source=args.file)
    report = check_z2_axioms(s)
    return (0 if report.all_hold else 2), [
        _axiom_line(k, condition, getattr(report, f"{field}_witness"))
        for k, condition, field in _AXIOMS]


def _search_budget_help(runs: str) -> str:
    return ("cap on the atom assignments of the isomorphism search "
            f"(default %(default)s); the search runs only {runs}: the "
            "axioms and the paper's construction answer every other input, "
            "so the cap cannot run out on it")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relalg",
        description="Finite relation algebras of group actions: validate "
                    "atom structures, compute compatible-relation algebras, "
                    "and decide representability over order-two actions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--output", metavar="PATH",
                       help="write the report to a file instead of stdout")
        return p

    p = add("validate", _cmd_validate, "check an atom structure file")
    p.add_argument("file")

    p = add("rel", _cmd_rel,
            "compute the compatible-relation algebra of a group action")
    p.add_argument("file")

    p = add("decide-z2", _cmd_decide_z2,
            "decide representability over an order-two group action")
    p.add_argument("file")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                   help="has no effect; the witness is built, not searched")
    p.add_argument("--verify", action="store_true",
                   help="independently re-check an accepted decision")

    p = add("iso", _cmd_iso, "search for an isomorphism between two "
                             "atom structures")
    p.add_argument("file")
    p.add_argument("other")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                   help=_search_budget_help(
                       "when neither structure satisfies the three axioms"))

    p = add("classify", _cmd_classify,
            "classify the atoms of a concrete algebra over points and twins")
    p.add_argument("file")

    p = add("check-action", _cmd_check_action,
            "test whether a given action's algebra realizes a structure")
    p.add_argument("file")
    p.add_argument("action_file")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                   help=_search_budget_help(
                       "when the action's group has order above two"))

    p = add("axioms", _cmd_axioms,
            "report the three representability axioms with witnesses")
    p.add_argument("file")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status, lines = args.handler(args)
        text = "\n".join(lines) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    except (RelalgError, OSError, RecursionError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
