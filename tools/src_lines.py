"""Count the lines of each Python module under a directory (default `src`).

    python tools/src_lines.py [directory]

Prints, per module and in total, all lines and the code lines: those that
are not blank, not a comment and not inside a docstring (the docstrings of
modules, classes and functions, found with `ast`).  Standard library only.
"""

import ast
import sys
from pathlib import Path


def count(path: Path) -> tuple[int, int]:
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = text.splitlines()
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)
    return len(lines), code


root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
totals = [0, 0]
print(f"{'lines':>7} {'code':>7}  module")
for path in sorted(root.rglob("*.py")):
    lines, code = count(path)
    totals = [totals[0] + lines, totals[1] + code]
    print(f"{lines:7d} {code:7d}  {path.relative_to(root)}")
print(f"{totals[0]:7d} {totals[1]:7d}  total")
