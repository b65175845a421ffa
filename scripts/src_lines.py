#!/usr/bin/env python3
"""Line counts of the package source: the total, and code, docstring, comment and blank lines per file.

Each line of each ``*.py`` file is counted once, in the first class that
fits: docstring (inside a module, class or function docstring), blank
(whitespace only), code (holds a ``tokenize`` token other than a comment),
comment.  The total equals ``find src -name '*.py' | xargs cat | wc -l``.

Usage:
    python3 scripts/src_lines.py                    # src/ of this checkout
    python3 scripts/src_lines.py --root OTHER/src   # another checkout, for a before/after pair
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> dict:
    """Lines of one source text by class, in the order of KINDS."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.split("\n")[:text.count("\n")], start=1):
        if number in docstrings:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:
            counts["code" if number in code else "comment"] += 1
    return counts


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="source tree to count (default: src/ of this checkout)")
    args = parser.parse_args(argv)
    rows = [(str(path.relative_to(args.root)), count_lines(path.read_text()))
            for path in sorted(args.root.rglob("*.py"))]
    totals = {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}
    width = max(len(name) for name, _ in rows)
    print(f"{'file':<{width}}  {'total':>6}" + "".join(f"  {kind:>9}" for kind in KINDS))
    for name, counts in [*rows, ("total", totals)]:
        print(f"{name:<{width}}  {sum(counts.values()):>6}" + "".join(f"  {counts[kind]:>9}" for kind in KINDS))


if __name__ == "__main__":
    main()
