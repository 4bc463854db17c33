"""Every module of the package uses each name it imports (no linter needed)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "boxball"


def unused_imports(source: str):
    """(line, name) for each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "Config"
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except (SyntaxError, ValueError):
                pass
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [f"{p.name}:{line} {name}" for p in modules
              for line, name in unused_imports(p.read_text())]
    assert unused == []


def test_unused_import_check_sees_names():
    src = ("from typing import Optional, Tuple\nimport numpy as np\n"
           "def f(x) -> 'Tuple[int, ...]':\n    return np.asarray(x)\n")
    assert unused_imports(src) == [(1, "Optional")]


def scipy_imports(source: str):
    """(innermost enclosing function or None, line) for each scipy import."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_scipy_imported_only_by_chi2_sf():
    # the chi-square tail is scipy's one caller; a start or a load-chain
    # solve imports no scipy module
    assert scipy_imports("import scipy.sparse\nclass A:\n    def f(self):\n"
                         "        from scipy import special\n") == [(None, 1), ("f", 4)]
    found = [f"{p.stem}.{func}" for p in sorted(SRC.glob("*.py"))
             for func, _ in scipy_imports(p.read_text())]
    assert found == ["experiments._chi2_sf"]
