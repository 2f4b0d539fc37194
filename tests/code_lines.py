"""The size of the library: lines and code lines of each module.

For every module of `src/relalg` this prints its line count, as `wc -l`
gives it, and its code lines: the lines that hold a token other than a
comment, and that lie in no docstring (the first statement of a module,
class or function, when it is a string).  The last line gives the totals.
Run it from anywhere, standard library only:

    python tests/code_lines.py

The file name does not start with `test_`, so pytest does not collect it.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "relalg"
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


def main() -> None:
    total = total_code = 0
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        n, code = text.count("\n"), code_lines(text)
        total, total_code = total + n, total_code + code
        print(f"{path.name:<16}{n:>8}{code:>8}")
    print(f"{'total':<16}{total:>8}{total_code:>8}")


if __name__ == "__main__":
    main()
