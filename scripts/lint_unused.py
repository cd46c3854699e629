#!/usr/bin/env python3
"""What ``compileall`` cannot see after a deletion: unused imports,
``__all__`` entries that name nothing, and ``src/repro`` modules that no
experiment, entry point, example, benchmark or script can reach.
verify.sh's lint stage runs this after ``compileall``. Usage, from the
repo root: ``python scripts/lint_unused.py DIR...``; ``# noqa`` exempts an
import line, nothing exempts an unreached module."""
import ast
import functools
import sys
from pathlib import Path

#: Where a run starts. ``tests/`` is deliberately absent: a module only a
#: test imports is test support and belongs under ``tests/``.
ROOTS = (
    "src/repro/experiments/*.py",
    "src/repro/**/__main__.py",
    "examples/**/*.py",
    "benchmarks/**/*.py",
    "scripts/**/*.py",
)
NOT_ROOTS = "benchmarks/ladder/tests"


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


def unreached(root: Path) -> list[str]:
    """``src/repro`` modules that no file matching ``ROOTS`` imports,
    directly or through other modules.

    ``from package import Name`` follows the package ``__init__`` to the
    one module that defines ``Name``; the ``__init__``'s other imports are
    not edges, or every re-exported module would count as reached.
    """
    src = root / "src"
    modules: dict[str, Path] = {}
    for path in src.glob("repro/**/*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    names = {path: name for name, path in modules.items()}

    @functools.cache  # a package __init__ is consulted once per name imported from it
    def imports(path: Path) -> list[tuple[str, str | None, str]]:
        """Every ``(module, imported name, bound name)`` in one file."""
        package = names.get(path, "")
        if path.name != "__init__.py":
            package = package.rpartition(".")[0]
        found = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                found += [(a.name, None, a.asname or a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative: climb from the importing package
                    parts = package.split(".")
                    above = parts[: len(parts) - node.level + 1]
                    base = ".".join(above + ([base] if base else []))
                found += [(base, a.name, a.asname or a.name) for a in node.names]
        return found

    def resolve(module: str, name: str | None, seen: frozenset = frozenset()) -> str | None:
        """The ``src/repro`` module an import lands in, if any."""
        if name is not None and f"{module}.{name}" in modules:
            return f"{module}.{name}"
        path = modules.get(module)
        if path is None:
            return None  # stdlib, third party, or a sibling of a root file
        if name is None or path.name != "__init__.py":
            return module
        for source, original, bound in imports(path):
            if bound == name and (source, original) not in seen:
                return resolve(source, original, seen | {(source, original)})
        return module  # the __init__ defines the name itself

    starts = {
        p for glob in ROOTS for p in root.glob(glob)
        if NOT_ROOTS not in p.relative_to(root).as_posix()
    }
    reached = {names[p] for p in starts if p in names}
    todo = list(starts)
    while todo:
        for module, name, _ in imports(todo.pop()):
            target = resolve(module, name)
            if target is not None and target not in reached:
                reached.add(target)
                todo.append(modules[target])
    return [
        f"{path.relative_to(root)}: {name} is reached by no experiment, __main__, "
        f"example, benchmark or script (test support belongs under tests/)"
        for name, path in sorted(modules.items())
        if name not in reached and path.name != "__init__.py"
    ]


if __name__ == "__main__":
    found = [m for d in sys.argv[1:] for f in sorted(Path(d).rglob("*.py")) for m in check(f)]
    found += unreached(Path.cwd())
    print("\n".join(found) or "(no unused imports, no dangling __all__ entries, no unreached modules)")
    sys.exit(1 if found else 0)
