"""Every imported name in the package and its tests is used, and every
public name the package defines is either exported or used by the package.

Names a package `__init__.py` imports are its re-exports, so those files
are exempt from the import check.
"""

import ast
from collections import Counter
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


def orphan_definitions(src: dict[str, str], readers: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the package sources `src`
    (path to text) that nothing uses outside their own definition.  A use
    is a read of the name, bare or as an attribute.  A private name counts
    uses in the package only, `__init__.py` aside; a public one also those
    in `readers`, the tests and the benchmark (path to text)."""
    trees = {path: ast.parse(text, filename=path) for path, text in src.items()}
    # per module, the names each top-level statement reads
    reads = {path: [read_names(node) for node in tree.body] for path, tree in trees.items()}
    counted = {path: set().union(*per_node) for path, per_node in reads.items() if not path.endswith("__init__.py")}
    outside = set().union(*(read_names(ast.parse(text, filename=path)) for path, text in readers.items()))
    found = []
    for path, tree in trees.items():
        elsewhere = set().union(*(names for other, names in counted.items() if other != path))
        statements_reading = Counter(name for names in reads[path] for name in names)
        for node, names in zip(tree.body, reads[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            read_here = statements_reading[name] > (name in names)
            read_outside = name in outside and not name.startswith("_")
            if not (read_here or name in elsewhere or read_outside):
                found.append(f"{path}:{node.lineno}: {name}")
    return found


def _texts(*dirs: str) -> dict[str, str]:
    return {str(p.relative_to(ROOT)): p.read_text() for d in dirs for p in sorted((ROOT / d).rglob("*.py"))}


def test_every_definition_is_used():
    assert orphan_definitions(_texts("src"), _texts("tests", "perfbench")) == []


def test_orphan_scan_reports_a_leftover_base_class():
    # a segment base class whose subclasses are gone, read only by itself
    src = _texts("src")
    geometry = "src/intrinsiclinks/geometry.py"
    src[geometry] += "\n\nclass _Segment(_Record):\n    def again(self):\n        return _Segment\n"
    found = orphan_definitions(src, _texts("tests", "perfbench"))
    assert [line.rpartition(": ")[2] for line in found] == ["_Segment"]


def test_orphan_scan_counts_only_reads_outside_the_definition():
    src = {
        "pkg/a.py": "def f():\n    return f()\ndef _g(): pass\ndef h(): return _g\nclass C: pass\nclass D: pass\ndef _k(): pass\n",
        "pkg/b.py": "import a\nx = a.h\n",
        "pkg/__init__.py": "from .a import C, D\nE = D\n",
    }
    # f reads only itself, D is read only by __init__.py, and _k, being
    # private, only by a test
    assert orphan_definitions(src, {"tests/t.py": "C()\n_k()\n"}) == ["pkg/a.py:1: f", "pkg/a.py:6: D", "pkg/a.py:7: _k"]


def test_scan_reports_an_unused_definition():
    tree = ast.parse("def f(): pass\ndef g(): f()\nX = 1\n_y = X\nclass C: pass\n")
    assert set(public_definitions(tree)) - read_names(tree) == {"g", "C"}


def test_scan_reports_an_unused_import():
    tree = ast.parse('from a import b, c\nimport d.e\n\nx: "c" = "b"\n')
    assert set(imported_names(tree)) - used_names(tree) == {"b", "d"}
