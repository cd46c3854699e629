#!/usr/bin/env python3
"""What ``compileall`` cannot see after a deletion: unused imports and
``__all__`` entries that name nothing. verify.sh's lint stage runs this
after ``compileall``. Usage: ``python scripts/lint_unused.py DIR...``; ``# noqa`` exempts a line."""
import ast
import sys
from pathlib import Path


def check(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    used: set[str] = set()
    bound: set[str] = set()
    imports: list[tuple[int, int, str]] = []
    exported: list[ast.Constant] = []
    for node in ast.walk(ast.parse("\n".join(lines), str(path))):
        if isinstance(node, ast.Name):
            (used if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # string annotations and __all__ entries use names too
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                span = (node.lineno, node.end_lineno)
                imports += [(*span, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = getattr(node.value, "elts", [])
    bound |= {name for _, _, name in imports}
    return [
        f"{path}:{first}: unused import {name!r}"
        for first, last, name in imports
        if name not in used | {"*"} and "noqa" not in "".join(lines[first - 1:last])
    ] + [
        f"{path}:{e.lineno}: __all__ names {e.value!r}, which the module does not define"
        for e in exported if e.value not in bound
    ]


if __name__ == "__main__":
    found = [m for d in sys.argv[1:] for f in sorted(Path(d).rglob("*.py")) for m in check(f)]
    print("\n".join(found) or "(no unused imports, no dangling __all__ entries)")
    sys.exit(1 if found else 0)
