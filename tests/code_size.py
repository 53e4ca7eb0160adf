"""Print the size of each module of a package, and the totals.

    python tests/code_size.py [DIRECTORY]

DIRECTORY defaults to src/grassperm.  For each .py file directly in it,
the first column is its code lines: the lines that hold a token other
than a comment, leaving out blank lines and every line of a module,
class or function docstring (found by ast).  The second is its lines
in all.  The last row sums each column.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def size(path: Path) -> tuple[int, int]:
    """(code lines, lines in all) of one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code: set[int] = set()
    with path.open() as source:
        for token in tokenize.generate_tokens(source.readline):
            if token.type not in NOT_CODE:
                code.update(row for row in range(token.start[0],
                                                 token.end[0] + 1)
                            if row not in docs)
    return len(code), len(text.splitlines())


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else Path(__file__).parent.parent
                / "src" / "grassperm")
    total_code = total_lines = 0
    for path in sorted(root.glob("*.py")):
        code, lines = size(path)
        total_code += code
        total_lines += lines
        print(f"{code:6} {lines:6}  {path.name}")
    print(f"{total_code:6} {total_lines:6}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
