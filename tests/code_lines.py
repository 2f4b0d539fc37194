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
fresh `python -S` start of that line loads, and those modules.  Every
start compiles what it loads where no bytecode is cached, so the sum
counts a start's import work without a clock.  Run it from anywhere,
standard library only:

    python tests/code_lines.py

The file name does not start with `test_`, so pytest does not collect it;
tests/test_cli.py starts its children through loaded().
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
# is not)
STARTS = [("validate", "data/23.ra"), ("rel", "data/z3.act"),
          ("decide-z2", "data/swap.ra", "--verify"),
          ("iso", "data/swap.ra", "data/swap.ra"),
          ("iso", "data/23.ra", "data/57.ra"), ("classify", "data/type6.ca"),
          ("check-action", "data/swap.ra", "data/swap.act"),
          ("check-action", "data/swap.ra", "data/z3.act"),
          ("axioms", "data/swap.ra")]
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


def main() -> None:
    total = total_code = 0
    code = {}
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        n, code[path.stem] = text.count("\n"), code_lines(text)
        total, total_code = total + n, total_code + code[path.stem]
        print(f"{path.name:<16}{n:>8}{code[path.stem]:>8}")
    print(f"{'total':<16}{total:>8}{total_code:>8}")
    print(f"\n{'start-up':<40}{'code':>6}  modules loaded")
    for argv in STARTS:
        modules = sorted(m.partition(".")[2] or "__init__"
                         for m in loaded(argv)[1]
                         if m.partition(".")[0] == "relalg")
        print(f"{' '.join(argv):<40}{sum(map(code.__getitem__, modules)):>6}"
              f"  {' '.join(modules)}")


if __name__ == "__main__":
    main()
