#!/usr/bin/env python3
"""Line counts of the package source: the total, and code, docstring, comment and blank lines per file.

Each line of each ``*.py`` file is counted once, in the first class that
fits: docstring (inside a module, class or function docstring), blank
(whitespace only), code (holds a ``tokenize`` token other than a comment),
comment.  The total equals ``find src -name '*.py' | xargs cat | wc -l``.

With ``--against OTHER/src`` it prints each file's total and code lines
as ``OTHER -> this`` with the change in parentheses, and the same for the
whole tree, so one command gives a before/after pair.

Usage:
    python3 scripts/src_lines.py                       # src/ of this checkout
    python3 scripts/src_lines.py --root OTHER/src      # another checkout
    python3 scripts/src_lines.py --against OTHER/src   # OTHER/src -> src/ of this checkout
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


def count_tree(root: Path) -> dict:
    """Counts per ``*.py`` file under ``root`` by relative path, plus the sum under "total"."""
    rows = {str(path.relative_to(root)): count_lines(path.read_text()) for path in sorted(root.rglob("*.py"))}
    counts = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    return {name: {"total": sum(c.values()), **c} for name, c in [*rows.items(), ("total", counts)]}


def _pair(before: dict | None, after: dict | None, kind: str) -> str:
    old, new = (0 if c is None else c[kind] for c in (before, after))
    return f"{'-' if before is None else old} -> {'-' if after is None else new} ({new - old:+d})"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="source tree to count (default: src/ of this checkout)")
    parser.add_argument("--against", type=Path, help="earlier source tree: print its counts -> --root's")
    args = parser.parse_args(argv)
    after = count_tree(args.root)
    if args.against is None:
        width = max(map(len, after))
        print(f"{'file':<{width}}  {'total':>6}" + "".join(f"  {kind:>9}" for kind in KINDS))
        for name, c in after.items():
            print(f"{name:<{width}}  {c['total']:>6}" + "".join(f"  {c[kind]:>9}" for kind in KINDS))
        return
    before = count_tree(args.against)
    names = sorted((before.keys() | after.keys()) - {"total"}) + ["total"]
    width = max(map(len, names))
    print(f"{'file':<{width}}  {'total':>22}  {'code':>22}")
    for name in names:
        b, a = before.get(name), after.get(name)
        print(f"{name:<{width}}  {_pair(b, a, 'total'):>22}  {_pair(b, a, 'code'):>22}")


if __name__ == "__main__":
    main()
