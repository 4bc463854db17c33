"""Every exception class of the package is raised or caught by one of its
modules (no linter needed)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "boxball"


def raised_or_caught(source: str):
    """Names that ``raise X``, ``raise X(...)`` or ``except (X, m.Y)`` use."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            found.append(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            found.extend(node.type.elts if isinstance(node.type, ast.Tuple) else [node.type])
    return {n.id if isinstance(n, ast.Name) else n.attr for n in found
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_error_class_is_used():
    declared = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
                if isinstance(node, ast.ClassDef)}
    used = set().union(*(raised_or_caught(p.read_text()) for p in SRC.glob("*.py")
                         if p.name != "errors.py"))
    assert declared and sorted(declared - used) == []


def test_error_use_check_sees_raises_and_handlers():
    src = ("try:\n    raise A('x')\nexcept (B, errors.C):\n    raise D\n"
           "except E as exc:\n    raise F from exc\n")
    assert raised_or_caught(src) == {"A", "B", "C", "D", "E", "F"}
