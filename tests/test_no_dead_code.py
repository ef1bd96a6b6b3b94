"""No module-level function or class in the package goes unreferenced.

A definition counts as used when its name appears anywhere in `src/`,
`tests/` or `perfbench/` outside its own body: as a name, as an attribute
(`module.name`) or as a string constant (a registry key, `__all__`).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "supersphere"
SCANNED = ("src", "tests", "perfbench")


def _references(node):
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def unreferenced_definitions():
    refs = Counter()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            refs += _references(ast.parse(path.read_text(), str(path)))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                inside = _references(node)[node.name]
                if refs[node.name] <= inside:
                    dead.append(f"{path.stem}.{node.name}")
    return dead


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []
