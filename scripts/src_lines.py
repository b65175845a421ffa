#!/usr/bin/env python3
"""Line counts of the package source: the total, and code, docstring, comment and blank lines per file.

Each line of each ``*.py`` file is counted once, in the first class that
fits: docstring (inside a module, class or function docstring), blank
(whitespace only), code (holds a ``tokenize`` token other than a comment),
comment.  The total equals ``find src -name '*.py' | xargs cat | wc -l``.

With ``--against OTHER/src`` it prints each file's total and code lines
as ``OTHER -> this`` with the change in parentheses, and the same for the
whole tree, so one command gives a before/after pair.  After a blank line
it prints the count of options (defaulted parameters plus dataclass
fields) on each side, then every name found on one side only, ``-`` for
OTHER and ``+`` for this tree: functions, classes, methods, dataclass
fields (``Class.field``) and defaulted parameters (``func(param=)``).
Nested functions are not names.

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


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def source_names(text: str) -> dict:
    """Kind of each function, class, method, dataclass field and defaulted parameter of one source, by name."""
    names = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + node.name
                names[name] = "method" if prefix else "function"
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                names.update((f"{name}({arg.arg}=)", "parameter") for arg in defaulted)
            elif isinstance(node, ast.ClassDef):
                name = prefix + node.name
                names[name] = "class"
                if any(map(_is_dataclass, node.decorator_list)):
                    names.update((f"{name}.{field.target.id}", "field") for field in node.body
                                 if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name))
                visit(node.body, name + ".")

    visit(ast.parse(text).body, "")
    return names


def tree_names(root: Path) -> dict:
    """``source_names`` of every ``*.py`` file under ``root``, keyed by (relative path, name)."""
    return {(str(path.relative_to(root)), name): kind for path in sorted(root.rglob("*.py"))
            for name, kind in source_names(path.read_text()).items()}


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
    old, new = tree_names(args.against), tree_names(args.root)
    n_old, n_new = (sum(kind in ("parameter", "field") for kind in side.values()) for side in (old, new))
    print(f"\noptions (defaulted parameters + dataclass fields): {n_old} -> {n_new} ({n_new - n_old:+d})")
    for sign, side, other in (("-", old, new), ("+", new, old)):
        for path, name in sorted(side.keys() - other.keys()):
            print(f"{sign} {side[path, name]:<9}  {path}  {name}")


if __name__ == "__main__":
    main()
