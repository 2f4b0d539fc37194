"""The size of the library: lines and code lines of each module, and of
the modules that each command's start loads.

For every module of `src/relalg` this prints its line count, as `wc -l`
gives it, and its code lines: the lines that hold a token other than a
comment, and that lie in no docstring (the first statement of a module,
class or function, when it is a string).  A line gives the totals.

Then, for one plain command line per subcommand on the files of `data/`,
for an `iso` of two structures outside the class that their power runs
answer, and for a `check-action` of a group of order above two that the
class answers, it prints the code lines of the relalg modules that a
fresh `python -S` start of that line loads, its ceiling, and those
modules.  Every start compiles what it loads where no bytecode is
cached, so the sum counts a start's import work without a clock.  Run it
from anywhere, standard library only:

    python tests/code_lines.py

The file name does not start with `test_`, so pytest does not collect it;
tests/test_cli.py starts its children through loaded(), and holds each
start at or below its ceiling through start_code().
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "relalg"
# one plain command line per subcommand, the `iso` that the power runs
# answer (23.ra and 57.ra are both outside the class), and the
# `check-action` that the class answers (swap.ra is in it, Z3's algebra
# is not), each with its ceiling: the most code lines its start may load.
# A change that adds start-up code raises a ceiling and says so
STARTS = [(("validate", "data/23.ra"), 966), (("rel", "data/z3.act"), 949),
          (("decide-z2", "data/swap.ra", "--verify"), 1427),
          (("iso", "data/swap.ra", "data/swap.ra"), 1370),
          (("iso", "data/23.ra", "data/57.ra"), 1198),
          (("classify", "data/type6.ca"), 929),
          (("check-action", "data/swap.ra", "data/swap.act"), 1370),
          (("check-action", "data/swap.ra", "data/z3.act"), 1440),
          (("axioms", "data/swap.ra"), 1016)]
# runs cli.main on its arguments, prints every module loaded on the last
# line of stderr, and exits with main's status
_CHILD = ("import sys\nfrom relalg import cli\ncode = cli.main(sys.argv[1:])\n"
          "print(*sorted(sys.modules), file=sys.stderr)\nsys.exit(code)\n")
# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of lines of text with code on them, docstrings aside."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(
                    range(first.lineno, first.end_lineno + 1))
    return len(lines)


def loaded(argv) -> tuple[int, set[str], str]:
    """The exit status, the modules loaded and the stderr of a fresh
    `python -S` start of cli.main(argv); -S keeps site's .pth files from
    importing anything first.  A word led by `data/` names a file of the
    repository's data directory."""
    args = [str(ROOT / w) if str(w).startswith("data/") else str(w)
            for w in argv]
    proc = subprocess.run([sys.executable, "-S", "-c", _CHILD, *args],
                          cwd=SRC.parent, capture_output=True, text=True)
    return (proc.returncode, set(proc.stderr.splitlines()[-1].split()),
            proc.stderr)


def module_sizes() -> dict[str, tuple[int, int]]:
    """The lines and the code lines of each module, by module name."""
    sizes = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        sizes[path.stem] = text.count("\n"), code_lines(text)
    return sizes


def start_code(argv, sizes) -> tuple[int, int, list[str]]:
    """The exit status of a fresh start of argv, the code lines of the
    relalg modules that it loads, by module_sizes(), and those modules."""
    status, names, _ = loaded(argv)
    modules = sorted(m.partition(".")[2] or "__init__"
                     for m in names if m.partition(".")[0] == "relalg")
    return status, sum(sizes[m][1] for m in modules), modules


def main() -> None:
    sizes = module_sizes()
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for name, (n, code) in sizes.items():
        print(f"{name + '.py':<16}{n:>8}{code:>8}")
    total, total_code = map(sum, zip(*sizes.values()))
    print(f"{'total':<16}{total:>8}{total_code:>8}")
    print(f"\n{'start-up':<40}{'code':>6}{'ceiling':>9}  modules loaded")
    for argv, ceiling in STARTS:
        code, modules = start_code(argv, sizes)[1:]
        print(f"{' '.join(argv):<40}{code:>6}{ceiling:>9}  "
              f"{' '.join(modules)}")


if __name__ == "__main__":
    main()
