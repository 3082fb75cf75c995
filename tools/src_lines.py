"""Count the lines of Python files as code, docstring, comment and blank.

A line is docstring if it lies in a module, class or function docstring
(found with ``ast``); comment if ``tokenize`` finds only a comment on it;
blank if it holds only whitespace; code otherwise.  Prints one row per file
and a total.

    python3 tools/src_lines.py              # src/fasthebb/*.py
    python3 tools/src_lines.py a.py b.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        owner = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if owner and ast.get_docstring(node) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The number of lines of each kind in the Python source ``text``."""
    docstring = _docstring_lines(ast.parse(text))
    comment, code = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        if number in docstring:
            counts["docstring"] += 1
        elif number in comment and number not in code:
            counts["comment"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> None:
    root = Path(__file__).resolve().parents[1]
    paths = [Path(p) for p in argv] or sorted((root / "src" / "fasthebb").glob("*.py"))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<24}{'total':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in paths:
        counts = count(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<24}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<24}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
