"""Every top-level def and class of the package is reached by a run.

The roots are cli.main, the names that module-level statements use, the
names that scripts/*.py import from the package, and the names that
perfbench/tracing.py wraps.  A def is reached when a reached def, class or
root refers to it by name, directly or through `from .x import y`, or as an
attribute of a module imported with `from . import x`.  What only the tests
call belongs in tests/reference.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "moduli_census"


def _refs(node):
    """Every Name and Attribute node under node, type annotations skipped."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.Name, ast.Attribute)):
            yield n
        for field, value in ast.iter_fields(n):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    stack.append(child)


class Package:
    def __init__(self):
        self.trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
        self.defs = {mod: {n.name: n for n in tree.body
                           if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
                     for mod, tree in self.trees.items() if mod != "__init__"}
        # {module: {local name: (module, name)}} and {module: {local name: module}}
        # for the relative imports anywhere in each module
        self.names = {mod: {} for mod in self.trees}
        self.modules = {mod: {} for mod in self.trees}
        for mod, tree in self.trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        local = alias.asname or alias.name
                        if node.module is None:
                            self.modules[mod][local] = alias.name
                        else:
                            self.names[mod][local] = (node.module, alias.name)

    def resolve(self, mod: str, name: str):
        """(module, name) of the def that `name` means in mod, or None."""
        while name not in self.defs.get(mod, {}):
            if name not in self.names[mod]:
                return None
            mod, name = self.names[mod][name]
        return mod, name

    def targets(self, mod: str, node):
        for ref in _refs(node):
            if isinstance(ref, ast.Name):
                yield self.resolve(mod, ref.id)
            elif isinstance(ref.value, ast.Name) and ref.value.id in self.modules[mod]:
                yield self.resolve(self.modules[mod][ref.value.id], ref.attr)


def _script_roots(pkg: Package):
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("moduli_census"):
                mod = node.module.partition(".")[2] or "__init__"
                yield from (pkg.resolve(mod, alias.name) for alias in node.names)


def _tracer_roots():
    text = (ROOT / "perfbench" / "tracing.py").read_text()
    pairs = re.findall(r'\("(\w+)", "(\w+)",\s*[^"\s]', text)
    loops = re.findall(r'\("(\w+)", f, .*\n\s*for f in \(([^)]*)\)', text)
    suites = re.search(r'VALIDATE_SUITES = \(([^)]*)\)', text)
    assert pairs and loops and suites
    yield from pairs
    yield from ((mod, name) for mod, names in loops for name in re.findall(r'"(\w+)"', names))
    yield from (("validate", f"suite_{s}") for s in re.findall(r'"(\w+)"', suites.group(1)))


def test_every_def_in_src_is_reached():
    pkg = Package()
    roots = {("cli", "main"), *_script_roots(pkg), *_tracer_roots()}
    for mod, tree in pkg.trees.items():
        if mod == "__init__":
            continue
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                roots.update(pkg.targets(mod, stmt))
    roots.discard(None)
    missing = sorted(root for root in roots if pkg.resolve(*root) != root)
    assert not missing, f"roots that name no def of the package: {missing}"
    reached, todo = set(), list(roots)
    while todo:
        mod, name = key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(t for t in pkg.targets(mod, pkg.defs[mod][name]) if t is not None)
    unreached = sorted(f"{mod}.{name}" for mod, names in pkg.defs.items()
                       for name in names if (mod, name) not in reached)
    assert not unreached, f"defs that no run reaches: {', '.join(unreached)}"
