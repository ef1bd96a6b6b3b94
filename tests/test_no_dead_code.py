"""No function, class, method or constant in the package goes unreferenced.

A module-level name of the package (a function, a class or an assigned
constant) counts as used only when its own module reads it outside its
own body, another file imports it from that module or reads
`module.name` through an alias of that module, or a string constant
names it, alone or as the last part of a dotted one (a registry key,
`__all__`, `monkeypatch.setattr(module, "name", ...)`).  A name that
another module happens to define too, such as `HALF`, is told apart by
its module.

A class method or static method counts as used only when it is read
through its class (`Cls.name`, `module.Cls.name`), through an alias of
the class (`sp = SuperPolynomial; sp.name`, `from m import Cls as A`),
or as `cls.name` / `self.name` inside the class itself, or when a string
names it as "Cls.name" (the hook string "SphereAutomorphism.build").  An
instance method counts as used when any attribute access (`obj.name`)
or string names it: the type of `obj` is not known statically, so an
instance method that shares its name with a used method of another
class is invisible to this guard (as `SuperPolynomial.restrict` was,
hidden by `Supernumber.restrict`).  A class attribute other than a
dunder must be read as an attribute somewhere or by name in its class.
Dunders are used by the language and are skipped.

The locals and imports rules below hold for every scanned file: `src/`,
`tests/`, `perfbench/` and `tools/`.  Within a function, every plain
local it assigns (`name = ...`) must be read somewhere in it, nested
functions included.  Tuple-unpacking targets are exempt, since they name
the parts they skip.

Every name that a module imports must be read in it, unless it comes
from `__future__` or the module lists it in `__all__`.

The package's `.py` files together stay below a fixed number of lines,
and none has an `assert` statement.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "supersphere"
SCANNED = ("src", "tests", "perfbench", "tools")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _bound_names(node):
    """The names a module-level or class-level statement defines."""
    if isinstance(node, DEFINITIONS):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets
                if isinstance(t, ast.Name) and not _is_dunder(t.id)]
    return []


def _loads(node):
    """Counter of the bare names read under node."""
    return Counter(sub.id for sub in ast.walk(node)
                   if isinstance(sub, ast.Name)
                   and not isinstance(sub.ctx, ast.Store))


class _Uses:
    """Every way the scanned files read package names.

    modules: (module, name) pairs imported from a package module or read
    as `alias.name`; classes: (class, name) pairs read as `Cls.name`
    through the class or an alias of it; attrs: attribute names read
    anywhere; strings: every string constant and the last part of each
    dotted one.
    """

    def __init__(self, trees, modules, classes):
        self.modules = set()
        self.classes = set()
        self.attrs = Counter()
        self.strings = Counter()
        class_alias = {name: name for name in classes}
        for tree in trees:
            for node in ast.walk(tree):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    source = node.value
                    name = getattr(source, "id", getattr(source, "attr", None))
                    if name in classes:
                        class_alias[node.targets[0].id] = name
        for tree in trees:
            module_alias = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    source = (node.module or "").rpartition(".")[2]
                    for alias in node.names:
                        if alias.name in modules:
                            module_alias[alias.asname or alias.name] = alias.name
                        elif source in modules:
                            self.modules.add((source, alias.name))
                            if alias.name in classes and alias.asname:
                                class_alias[alias.asname] = alias.name
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        stem = alias.name.rpartition(".")[2]
                        if alias.asname and stem in modules:
                            module_alias[alias.asname] = stem
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    self.attrs[node.attr] += 1
                    owner = node.value
                    owner_name = getattr(owner, "id", getattr(owner, "attr", None))
                    if owner_name in module_alias:
                        self.modules.add((module_alias[owner_name], node.attr))
                    if owner_name in modules:
                        self.modules.add((owner_name, node.attr))
                    if owner_name in class_alias:
                        self.classes.add((class_alias[owner_name], node.attr))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    self.strings[node.value] += 1
                    head, _, last = node.value.rpartition(".")
                    if head:
                        self.strings[last] += 1
                        self.classes.add((head.rpartition(".")[2], last))


def _scanned_paths():
    return [path for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))]


def _scanned_trees():
    return [ast.parse(path.read_text(), str(path)) for path in _scanned_paths()]


def _package_trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _is_class_level(method):
    return any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
               for d in method.decorator_list)


def _own_class_reads(cls, within, name):
    """How often `within` reads name as `cls.name` or `self.name`."""
    return sum(isinstance(node, ast.Attribute) and node.attr == name
               and isinstance(node.value, ast.Name)
               and node.value.id in ("cls", "self", cls.name)
               for node in ast.walk(within))


def unreferenced_definitions(package=None, scanned=None):
    package = _package_trees() if package is None else package
    scanned = _scanned_trees() if scanned is None else scanned
    classes = {node.name for tree in package.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    uses = _Uses(scanned, set(package), classes)
    dead = []
    for stem, tree in package.items():
        module_loads = _loads(tree)
        for node in tree.body:
            for name in _bound_names(node):
                if not (module_loads[name] > _loads(node)[name]
                        or (stem, name) in uses.modules
                        or uses.strings[name]):
                    dead.append(f"{stem}.{name}")
            if isinstance(node, ast.ClassDef):
                dead += [f"{stem}.{node.name}.{name}"
                         for name in _dead_members(node, uses)]
    return dead


def _dead_members(cls, uses):
    """The methods and attributes of cls that no reader reaches."""
    for member in cls.body:
        for name in _bound_names(member):
            if _is_dunder(name):
                continue
            if isinstance(member, (ast.Assign, ast.AnnAssign)):
                used = uses.attrs[name] or _loads(cls)[name] or uses.strings[name]
            elif not isinstance(member, DEFINITIONS[:2]):
                continue
            elif _is_class_level(member):
                used = ((cls.name, name) in uses.classes
                        or _own_class_reads(cls, cls, name)
                        > _own_class_reads(cls, member, name))
            else:
                own = sum(isinstance(sub, ast.Attribute) and sub.attr == name
                          for sub in ast.walk(member))
                used = uses.attrs[name] > own or uses.strings[name]
            if not used:
                yield name


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []


def test_definition_check_tells_same_names_apart():
    package = {
        "scalars": ast.parse("HALF = 1\nONE = 1\n"),
        "matrices": ast.parse(
            "from .scalars import ONE\n"
            "HALF = 2\n"
            "class Poly:\n"
            "    KINDS = ()\n"
            "    @classmethod\n"
            "    def z(cls):\n"
            "        return cls.z()\n"
            "    def restrict(self):\n"
            "        return HALF + ONE\n"
            "class Function:\n"
            "    @classmethod\n"
            "    def z(cls):\n"
            "        return cls\n"),
    }
    scanned = [*package.values(), ast.parse(
        "from pkg.matrices import Function as F\n"
        "from pkg import matrices as m\n"
        "F.z(); m.Poly(); x.restrict()\n")]
    assert unreferenced_definitions(package, scanned) == [
        "scalars.HALF", "matrices.Poly.KINDS", "matrices.Poly.z"]


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
    dead = [f"{path.relative_to(ROOT)}: {entry}" for path in _scanned_paths()
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
    unread = [f"{path.relative_to(ROOT)}: {name}" for path in _scanned_paths()
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


def test_only_the_text_boundary_imports_fractions():
    """Q(i) arithmetic has one scalar type, so `fractions` is imported
    only where a scalar crosses text: `scalars` (the constructor, `re`,
    `im`) and `textio`."""
    importing = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module == "fractions"
                    or isinstance(node, ast.Import)
                    and any(a.name == "fractions" for a in node.names)):
                importing.add(path.stem)
    assert importing <= {"scalars", "textio"}


def test_the_package_has_no_assert():
    """`python -O` strips `assert`, so an invariant the package checks is
    an explicit raise."""
    asserts = [f"{path.name}:{node.lineno}" for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []


# the size gate of the package (ROADMAP, "Less code, same bytes"): code
# that a change adds is paid for by deletions elsewhere
PACKAGE_LINE_GATE = 5731


def test_package_stays_below_its_line_gate():
    lines = sum(len(path.read_text().splitlines())
                for path in PACKAGE.glob("*.py"))
    assert lines < PACKAGE_LINE_GATE
