"""Count the code lines of each module under src/trisum.

A code line holds at least one token that is not a comment; blank lines,
comment-only lines and docstrings (of the module, a class or a function)
do not count.  A statement or string spread over several lines counts each
line it spans.  Prints one line per module and the total:

    python3 tools/code_lines.py [directory]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source file at path."""
    source = path.read_text(encoding="utf-8")
    skip = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "trisum"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
