"""Every module of the package uses each name it imports, and every public
definition of the package has a caller (no linter needed)."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "boxball"

# library entry points documented in README that neither the CLI nor the
# benchmark calls; the scalar local_map is the reference of every kernel
ENTRY_POINTS = {"canonical_carrier", "detect_seed", "local_map", "sweep"}
# defaults that only tests pass: the oracle's dual, to check a corrupted dual
TEST_SEAMS = {"measures.invariance_oracle(dual)"}


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


def public_defs(tree):
    """(qualified name, node, is method) for each public top-level function
    and each public method of a public top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def call_name(call):
    """The name a call invokes, f for f(...) and x.f(...); None for a call
    rooted at np., so that np.add.at(...) passes nothing to a method at."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        root = f.value
        while isinstance(root, (ast.Attribute, ast.Call, ast.Subscript)):
            root = root.func if isinstance(root, ast.Call) else root.value
        return None if isinstance(root, ast.Name) and root.id == "np" else f.attr
    return None


def unpassed_defaults(modules, callers):
    """module.def(param) for each defaulted parameter of a public function
    or method of the ``modules`` sources that no call of theirs or of the
    ``callers`` sources passes, by position, keyword or unpacking; a call
    of the same name counts, and a method's positions start after self."""
    trees = {m: ast.parse(src) for m, src in modules.items()}
    calls = [n for tree in [*trees.values(), *map(ast.parse, callers)]
             for n in ast.walk(tree) if isinstance(n, ast.Call)]
    missing = []
    for module, tree in trees.items():
        for qual, node, is_method in public_defs(tree):
            name = node.name
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args][is_method:]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param in defaulted:
                index = positional.index(param) if param in positional else None
                if not any(call_name(c) == name and (
                        any(k.arg in (param, None) for k in c.keywords)
                        or index is not None and (
                            len(c.args) > index
                            or any(isinstance(a, ast.Starred) for a in c.args)))
                        for c in calls):
                    missing.append(f"{module}.{qual}({param})")
    return sorted(missing)


def unreferenced_methods(modules, callers):
    """module.Class.method for each public method of a public class of the
    ``modules`` sources that no attribute outside its own definition names."""
    trees = {m: ast.parse(src) for m, src in modules.items()}

    def attributes(node):
        return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))

    uses = sum(map(attributes, [*trees.values(), *map(ast.parse, callers)]), Counter())
    return sorted(f"{module}.{qual}" for module, tree in trees.items()
                  for qual, node, is_method in public_defs(tree)
                  if is_method and uses[node.name] == attributes(node)[node.name])


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


def package_and_callers():
    """The package's modules by name, and the benchmark's sources."""
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    callers = [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    assert modules and callers
    return modules, callers


def test_every_public_definition_has_a_caller():
    # a caller is another definition of the package or the benchmark; the
    # tests' own references do not count
    missing = [name for name in uncalled(*package_and_callers())
               if name.partition(".")[2] not in ENTRY_POINTS]
    assert missing == []


def test_every_default_is_passed_and_every_method_referenced():
    # by the package or the benchmark, as above; the entry points keep
    # their documented defaults
    modules, callers = package_and_callers()
    missing = [name for name in unpassed_defaults(modules, callers)
               if name.split(".")[1].partition("(")[0] not in ENTRY_POINTS
               and name not in TEST_SEAMS]
    assert missing == []
    assert unreferenced_methods(modules, callers) == []


def test_caller_check_sees_calls_attributes_and_quotes():
    modules = {"a": "def f():\n    return g()\ndef g():\n    return f\ndef h(): pass\n"
                    "def _p(): pass\nclass C: pass\nclass D: pass\n",
               "b": "x: 'C' = 1\n"}
    assert uncalled(modules, ["import a\na.h()\n"]) == ["a.D"]
    assert uncalled(modules, []) == ["a.D", "a.h"]


def test_default_and_method_checks_see_positions_keywords_and_unpacking():
    modules = {"a": "def f(x, y=0, z=1): pass\ndef g(x, y=0): pass\n"
                    "def h(x, y=0): pass\ndef k(*, s=1): pass\ndef _p(x, y=0): pass\n"
                    "class C:\n    def at(self, n, default=0): pass\n"
                    "    def used(self): pass\n    def unused(self): return self.unused\n"}
    callers = ["import a\na.f(1, z=2)\nf(0, 1)\ng(*xs)\nk(**opts)\n"
               "np.h(1, 2)\nnp.add.at(w, i, v)\nC().at(1).used()\n"]
    assert unpassed_defaults(modules, callers) == ["a.C.at(default)", "a.h(y)"]
    assert unreferenced_methods(modules, callers) == ["a.C.unused"]
    assert unpassed_defaults(modules, []) == [
        "a.C.at(default)", "a.f(y)", "a.f(z)", "a.g(y)", "a.h(y)", "a.k(s)"]


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
