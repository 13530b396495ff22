#!/usr/bin/env python3
"""Line counts of the vdo package, split into code, docstring, comment and
blank lines, per module and in total.

A docstring line lies within a module, class or function docstring (found
with ast); a comment line holds a comment and no code, and a blank line
holds neither (both found with tokenize); every other line is code.

    python3 scripts/line_counts.py [PACKAGE_DIR]   # default: src/vdo
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def classify(source: str) -> list[str]:
    """The kind of each line of source."""
    kinds = ["blank"] * len(source.splitlines())
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        first, last = tok.start[0], tok.end[0]
        if tok.type == tokenize.COMMENT:
            if kinds[first - 1] == "blank":
                kinds[first - 1] = "comment"
        elif tok.type not in _LAYOUT:
            kinds[first - 1 : last] = ["code"] * (last - first + 1)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                doc = body[0]
                kinds[doc.lineno - 1 : doc.end_lineno] = ["docstring"] * (
                    doc.end_lineno - doc.lineno + 1
                )
    return kinds


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "vdo"
    rows = []
    for path in sorted(root.glob("*.py")):
        kinds = classify(path.read_text(encoding="utf-8"))
        rows.append((path.name, len(kinds), *(kinds.count(k) for k in KINDS)))
    total = ("total", *(sum(col) for col in list(zip(*rows))[1:]))
    print(f"{'module':<20}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name, *counts in rows + [total]:
        print(f"{name:<20}{counts[0]:>7}" + "".join(f"{c:>11}" for c in counts[1:]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
