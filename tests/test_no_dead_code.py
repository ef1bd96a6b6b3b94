"""No function, class or method in the package goes unreferenced.

A module-level definition counts as used when its name appears anywhere
in `src/`, `tests/` or `perfbench/` outside its own body: as a name, as
an attribute (`module.name`) or as a string constant (a registry key,
`__all__`).  A method of a module-level class counts as used when it is
accessed as an attribute (`obj.name`, `cls.name`) or named in a string
constant, alone or as the last part of a dotted one such as the hook
string "SphereAutomorphism.build"; a bare name cannot call a method.
Dunder methods are used by the language and are skipped.

Within a function, every plain local it assigns (`name = ...`) must be
read somewhere in it, nested functions included.  Tuple-unpacking
targets are exempt, since they name the parts they skip.

Every name that a module in `src/` or `tests/` imports must be read in
it, unless it comes from `__future__` or the module lists it in
`__all__`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "supersphere"
SCANNED = ("src", "tests", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node):
    """(every reference, attribute and string references) under node."""
    refs = Counter()
    attrs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
            attrs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
            attrs[sub.value.rpartition(".")[2]] += 1
    return refs, attrs


def unreferenced_definitions():
    refs = Counter()
    attrs = Counter()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            found, found_attrs = _references(ast.parse(path.read_text(), str(path)))
            refs += found
            attrs += found_attrs
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, DEFINITIONS):
                continue
            if refs[node.name] <= _references(node)[0][node.name]:
                dead.append(f"{path.stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                name = getattr(method, "name", "")
                if (isinstance(method, DEFINITIONS[:2])
                        and not (name.startswith("__") and name.endswith("__"))
                        and attrs[name] <= _references(method)[1][name]):
                    dead.append(f"{path.stem}.{node.name}.{name}")
    return dead


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []


def _own_nodes(func):
    """Nodes of func's body, not descending into nested definitions."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*DEFINITIONS, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def unread_locals(tree):
    """"function: name" for each plain local a function assigns, never read."""
    dead = []
    for func in ast.walk(tree):
        if not isinstance(func, DEFINITIONS[:2]):
            continue
        assigned = set()
        declared = set()
        for node in _own_nodes(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                assigned |= {t.id for t in targets if isinstance(t, ast.Name)}
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared |= set(node.names)
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        read |= {node.target.id for node in ast.walk(func)
                 if isinstance(node, ast.AugAssign)
                 and isinstance(node.target, ast.Name)}
        dead += [f"{func.name}: {name}"
                 for name in sorted(assigned - read - declared)]
    return dead


def test_every_assigned_local_is_read():
    dead = [f"{path.stem}.{entry}" for path in sorted(PACKAGE.glob("*.py"))
            for entry in unread_locals(ast.parse(path.read_text(), str(path)))]
    assert dead == []


def test_unread_local_check_flags_plain_assignments_only():
    tree = ast.parse("def f(g):\n"
                     "    x = g()\n"
                     "    a, b = g()\n"
                     "    y = 1\n"
                     "    def h():\n"
                     "        return y\n"
                     "    return a, h\n")
    assert unread_locals(tree) == ["f: x"]


def unread_imports(tree):
    """Each name an import in tree binds and tree never reads."""
    exported = set()
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
        elif isinstance(node, ast.Import):
            bound |= {a.asname or a.name.partition(".")[0]
                      for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    return sorted(bound - read - exported)


def test_every_imported_name_is_read():
    unread = [f"{path.relative_to(ROOT)}: {name}"
              for top in ("src", "tests")
              for path in sorted((ROOT / top).rglob("*.py"))
              for name in unread_imports(ast.parse(path.read_text(), str(path)))]
    assert unread == []


def test_unread_import_check_exempts_future_and_exports():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "import json as j\n"
                     "from a import b, c as d, e\n"
                     "__all__ = ['e']\n"
                     "print(os.sep, d)\n")
    assert unread_imports(tree) == ["b", "j"]
