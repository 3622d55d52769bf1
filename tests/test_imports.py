"""Every imported name in the package and its tests is used, and every
public name the package defines is either exported or used by the package.

Names a package `__init__.py` imports are its re-exports, so those files
are exempt from the import check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module, with its line number."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in filter(None, annotations):
            for part in ast.walk(ann):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    expr = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in imported_names(tree).items()
        if name not in used
    ]


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Public names a module binds at top level by def, class or
    assignment, with their line numbers."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.lineno
    return {name: line for name, line in out.items() if not name.startswith("_")}


def read_names(tree: ast.Module) -> set[str]:
    """Names the module reads, bare or as an attribute of something."""
    return used_names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    found = [u for path in files if path.name != "__init__.py" for u in unused_imports(path)]
    assert found == []


def test_no_test_only_code_in_the_package():
    # a public name that only the tests read belongs in tests/helpers.py
    import intrinsiclinks

    files = sorted((ROOT / "src").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    read = set().union(*map(read_names, trees.values()))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, tree in trees.items()
        for name, line in public_definitions(tree).items()
        if name not in intrinsiclinks.__all__ and name not in read
    ]
    assert found == []


def test_scan_reports_an_unused_definition():
    tree = ast.parse("def f(): pass\ndef g(): f()\nX = 1\n_y = X\nclass C: pass\n")
    assert set(public_definitions(tree)) - read_names(tree) == {"g", "C"}


def test_scan_reports_an_unused_import():
    tree = ast.parse('from a import b, c\nimport d.e\n\nx: "c" = "b"\n')
    assert set(imported_names(tree)) - used_names(tree) == {"b", "d"}
