"""Every module of the package uses each name it imports, and every public
definition of the package has a caller (no linter needed)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "boxball"

# library entry points documented in README that neither the CLI nor the
# benchmark calls; the scalar local_map is the reference of every kernel
ENTRY_POINTS = {"canonical_carrier", "detect_seed", "local_map", "sweep"}


def quoted_names(node):
    """Names inside a string constant that parses as an expression, such as
    the quoted annotation -> "Config"."""
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return set()
    try:
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                if isinstance(n, ast.Name)}
    except (SyntaxError, ValueError):
        return set()


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
        else:
            used |= quoted_names(node)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def referenced(node):
    """Names that ``node`` reads: bare, as an attribute or quoted."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        else:
            found |= quoted_names(n)
    return found


def uncalled(modules, callers):
    """module.name for each public top-level function or class of the
    ``modules`` sources (by module name) that no other top-level statement
    of theirs and no ``callers`` source refers to."""
    used = set().union(*(referenced(ast.parse(src)) for src in callers))
    defined = {}
    for module, source in modules.items():
        for node in ast.parse(source).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                defined[node.name] = module
            used |= referenced(node) - ({node.name} if is_def else set())
    return sorted(f"{m}.{name}" for name, m in defined.items() if name not in used)


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


def test_every_public_definition_has_a_caller():
    # a caller is another definition of the package or the benchmark; the
    # tests' own references do not count
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    callers = [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    assert modules and callers
    missing = [name for name in uncalled(modules, callers)
               if name.partition(".")[2] not in ENTRY_POINTS]
    assert missing == []


def test_caller_check_sees_calls_attributes_and_quotes():
    modules = {"a": "def f():\n    return g()\ndef g():\n    return f\ndef h(): pass\n"
                    "def _p(): pass\nclass C: pass\nclass D: pass\n",
               "b": "x: 'C' = 1\n"}
    assert uncalled(modules, ["import a\na.h()\n"]) == ["a.D"]
    assert uncalled(modules, []) == ["a.D", "a.h"]


def scipy_imports(source: str):
    """Line of each scipy import, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_no_module_imports_scipy():
    # the runtime needs numpy alone; scipy is a test dependency
    assert scipy_imports("import scipy.sparse\nclass A:\n    def f(self):\n"
                         "        from scipy import special\n") == [1, 4]
    found = {p.name: lines for p in sorted(SRC.glob("*.py"))
             if (lines := scipy_imports(p.read_text()))}
    assert found == {}
