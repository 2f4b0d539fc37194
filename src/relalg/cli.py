"""Command-line interface.

Exit codes: 0 for success or a positive answer, 2 for a definite negative
answer (an invalid structure in `validate`, rejected decision, no
isomorphism, failing axiom), 1 for errors such as usage errors, unreadable
files, parse failures, violated preconditions (an invalid structure in
`decide-z2`, `iso`, `check-action` and `axioms`), an exhausted search
budget in `iso` or `check-action`, or a Python recursion or memory limit.

Each handler imports the modules it runs, so a command compiles only
those; README, "Start-up", lists which command loads which.

`_COMMANDS` is the one description of the subcommands: handler, help,
positionals and options. Two readers work from it. The plain reader
(`_plain_args`) takes the subcommand from the first word, then accepts
only the exact spellings of its options, each at most once, an option's
value not led by `-` (for `--budget`, ASCII digits and at least 1), and
exactly its positionals, none led by `-`; it gives the attributes that
argparse would. It declines every other line: help, usage errors,
abbreviated options, `--opt=value`, repeats, `--`, dash-led values and
bad budgets. Only those import argparse, through `build_parser`, which
builds its parser from the same table and stays the one source of help,
usage and error text.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

from .atoms import check_z2_axioms
from .errors import DEFAULT_BUDGET, InternalError, RelalgError
from .formats import (_int, format_atom_structure, format_concrete_algebra,
                      format_group_action, parse_atom_structure,
                      parse_concrete_algebra, parse_group_action)


def _read(path: str) -> str:
    # read whole as bytes, in one unbuffered call, and decoded at once:
    # the parsers split lines with str.splitlines, which ends a line at
    # CRLF and at a lone CR as text mode's newline translation did.  The
    # default codec decodes the byte-order mark too, so offsets count it,
    # and a leading one (U+FEFF) is then dropped here, which loads no
    # utf-8-sig codec
    with open(path, "rb", buffering=0) as f:
        data = f.read()
    try:
        return data.decode().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise RelalgError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None


def _structure(path: str):
    # the atom structure in the file at path; its errors name the path
    return parse_atom_structure(_read(path), source=path)


def _budget_value(text: str) -> int | None:
    # a --budget value: ASCII digits, as in the file formats, where int()
    # also reads 1_0 and other scripts' digits, and at least 1; else None
    try:
        n = _int(text)
    except ValueError:
        return None
    return n if n >= 1 else None


def _budget(text: str) -> int:
    # argparse's type for --budget, which imports argparse only to refuse
    n = _budget_value(text)
    if n is not None:
        return n
    import argparse
    try:
        n = _int(text)
    except ValueError:  # argparse's own wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")


def _axiom_line(axiom: int, condition: str, witness: str | None) -> str:
    if witness is None:
        return f"axiom {axiom} holds ({condition})"
    return f"axiom {axiom} fails at atom {witness} ({condition})"


def _map_answer(witness) -> tuple[int, list[str]]:
    return (2, ["none"]) if witness is None else (0, witness.map_lines())


def _cmd_validate(args) -> tuple[int, list[str]]:
    report = _structure(args.file).validation
    if report.ok:
        return 0, ["valid"]
    return 2, ["invalid"] + list(report.lines())


def _cmd_rel(args) -> tuple[int, list[str]]:
    from .actions import rel_algebra
    from .concrete import extract_atom_structure
    action = parse_group_action(_read(args.file), source=args.file)
    algebra = rel_algebra(action)
    structure = extract_atom_structure(algebra)
    # each text ends in a newline, and main joins them with one more and
    # ends the output with one: the blank line between them is kept
    return 0, [format_concrete_algebra(algebra),
               format_atom_structure(structure)[:-1]]


def _cmd_decide_z2(args) -> tuple[int, list[str]]:
    from .decision import decide_z2, verify_decision
    decision = decide_z2(_structure(args.file))
    if not decision.accepted:
        return 2, ["rejected", *(_axiom_line(f.axiom, f.condition, f.witness)
                                 for f in decision.failures)]
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
    return _map_answer(find_isomorphism(
        _structure(args.file), _structure(args.other), budget=args.budget))


def _cmd_classify(args) -> tuple[int, list[str]]:
    from .pairdense import classify_atoms
    c = parse_concrete_algebra(_read(args.file), source=args.file)
    return 0, classify_atoms(c).report_lines()


def _cmd_check_action(args) -> tuple[int, list[str]]:
    from .decision import check_action_represents
    s = _structure(args.file)
    action = parse_group_action(_read(args.action_file),
                                source=args.action_file)
    return _map_answer(check_action_represents(s, action, budget=args.budget))


def _cmd_axioms(args) -> tuple[int, list[str]]:
    from .axioms import _AXIOMS
    report = check_z2_axioms(_structure(args.file))
    return (0 if report.all_hold else 2), [
        _axiom_line(k, condition, getattr(report, f"{field}_witness"))
        for k, condition, field in _AXIOMS]


def _budget_option(help_text: str):
    return ("--budget", {"type": _budget, "default": DEFAULT_BUDGET,
                         "help": help_text})


# --budget of iso and check-action, which answer by one rule
_SEARCH_BUDGET = _budget_option(
    "cap on the atom assignments of the isomorphism search (default "
    "%(default)s); the search runs only when neither side satisfies the "
    "three axioms: the axioms and the paper's construction answer every "
    "other input, so the cap cannot run out on it")


# --output, which every subcommand takes first, and --verify
_OUTPUT = ("--output", {"metavar": "PATH",
                        "help": "write the report to a file instead of stdout"})
_VERIFY = ("--verify", {"action": "store_true",
                        "help": "independently re-check an accepted decision"})

# The one description of the subcommands, in the order of the help: by
# name, the handler, the help text, the positionals, and the options after
# --output, each a spelling and its add_argument keywords
_COMMANDS = {
    "validate": (_cmd_validate, "check an atom structure file", ("file",),
                 ()),
    "rel": (_cmd_rel,
            "compute the compatible-relation algebra of a group action",
            ("file",), ()),
    "decide-z2": (_cmd_decide_z2,
                  "decide representability over an order-two group action",
                  ("file",),
                  (_budget_option(
                      "has no effect; the witness is built, not searched"),
                   _VERIFY)),
    "iso": (_cmd_iso,
            "search for an isomorphism between two atom structures",
            ("file", "other"),
            (_SEARCH_BUDGET,)),
    "classify": (_cmd_classify, "classify the atoms of a concrete algebra "
                                "over points and twins", ("file",), ()),
    "check-action": (_cmd_check_action, "test whether a given action's "
                                        "algebra realizes a structure",
                     ("file", "action_file"),
                     (_SEARCH_BUDGET,)),
    "axioms": (_cmd_axioms,
               "report the three representability axioms with witnesses",
               ("file",), ()),
}


def _plain_args(argv):
    """The arguments of a plain command line, with the attributes that
    argparse's parser gives them, handler included; None for every other
    line, which only argparse reads (see the module docstring)."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, positionals, options = _COMMANDS[argv[0]]
    options = dict((_OUTPUT, *options))
    args = {"command": argv[0], "handler": handler}
    for spelling, kwargs in options.items():
        args[spelling[2:].replace("-", "_")] = kwargs.get(
            "default", False if kwargs.get("action") == "store_true" else None)
    seen, words, rest = set(), [], iter(argv[1:])
    for word in rest:
        if not word.startswith("-"):
            words.append(word)
            continue
        if word not in options or word in seen:
            return None
        seen.add(word)
        kwargs = options[word]
        if kwargs.get("action") == "store_true":
            value = True
        else:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
            if kwargs.get("type") is _budget:
                value = _budget_value(value)
                if value is None:
                    return None
        args[word[2:].replace("-", "_")] = value
    if len(words) != len(positionals):
        return None
    args.update(zip(positionals, words))
    return SimpleNamespace(**args)


@functools.cache
def build_parser():
    """argparse's parser, built from _COMMANDS: the one source of help,
    usage and error text, imported and built only for a command line that
    the plain reader declines."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="relalg",
        description="Finite relation algebras of group actions: validate "
                    "atom structures, compute compatible-relation algebras, "
                    "and decide representability over order-two actions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument(_OUTPUT[0], **_OUTPUT[1])
        for positional in positionals:
            p.add_argument(positional)
        for spelling, kwargs in options:
            p.add_argument(spelling, **kwargs)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _plain_args(argv)
        if args is None:  # help, usage errors and every other shape
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
    except (RelalgError, OSError, RecursionError, MemoryError,
            UnicodeEncodeError) as exc:  # a name stdout cannot encode
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
