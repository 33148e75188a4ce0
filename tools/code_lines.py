"""Print the code-line count of each module in src/kinkfactor/ and the total.

A line counts when it holds a code token; comments, blank lines and the
lines of module, class and function docstrings do not.  Run it from anywhere
as ``python tools/code_lines.py``.
"""

import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kinkfactor"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


total = 0
for path in sorted(PACKAGE.glob("*.py")):
    count = code_lines(path)
    total += count
    print(f"{count:6d}  {path.name}")
print(f"{total:6d}  total")
