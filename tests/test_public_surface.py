"""Every public name has a reader in the package, or a planned one.

A name in a ``src/multiboson`` module's ``__all__`` is read when some module
of the package refers to it as a name or an attribute (``poly_table(...)``,
``tm.charges``), an import alias counting as its original name.  Its own
definition (a reference inside its own def or class body), its ``__all__``
entry and any mention in a string or docstring do not count.  The audit matches by name, not by module, so a
name shared by two modules is read when either is.

The members of an exported class (its public methods and properties, and
its annotated fields) are held to the same rule, a reference inside the
member's own def not counting; they are listed as ``module.Class.member``.

Conversely, every public name one module of the package takes from another
is declared in that module's ``__all__``: the lists are the one declaration
of the API, and the package namespace re-exports nothing.

The names below have no reader yet; each waits on the ROADMAP item that
will give it a check that reads it, or delete it.  The list must stay
exact: a name that gains a reader leaves it.
"""

import ast
from pathlib import Path

import multiboson

SRC = Path(multiboson.__file__).parent

UNREAD = {
    "coherent.holo_apply": "item 15",
    "coherent.disc_eigenfunction": "item 15",
    "evolution.interaction_energy": "item 4",
    "evolution.evolve_full": "item 16",
    "evolution.PresetModel.matrix": "item 8",
}


def _modules():
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _members(tree):
    """(class, member) of each public method, property and annotated field
    of the module's exported classes."""
    exports = set(_exports(tree))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in exports:
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield node.name, name


def _read_names(tree):
    """Names the module refers to outside their own top-level definition,
    or, for a class member, outside the member's own def."""
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
    read = set()

    def visit(node, owners, in_class):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (not owners or in_class):
            owners = owners | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = aliases.get(node.id, node.id)
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in owners:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners, isinstance(node, ast.ClassDef) and len(owners) == 1)

    visit(tree, frozenset(), False)
    return read


def _imports(tree):
    """(module, name) of each public name the module takes from another
    package module: ``from .m import x``, or ``m.x`` where ``from . import m``
    binds m and no parameter or local name of an enclosing function is m."""
    modules, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update({a.asname or a.name: a.name for a in node.names})
            else:
                found |= {(node.module, a.name) for a in node.names}

    def visit(node, shadowed):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            shadowed = shadowed | {a.arg for a in (*args.posonlyargs, *args.args,
                                                    *args.kwonlyargs, args.vararg,
                                                    args.kwarg) if a} \
                | {n.id for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.value.id not in shadowed):
            found.add((modules[node.value.id], node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return {(mod, name) for mod, name in found if not name.startswith("_")}


def test_every_imported_name_is_declared():
    modules = _modules()
    undeclared = {f"{mod}.{name} (read by {reader})"
                  for reader, tree in modules.items() for mod, name in _imports(tree)
                  if mod in modules and name not in _exports(modules[mod])}
    assert not undeclared, f"not in its module's __all__: {sorted(undeclared)}"


def test_what_counts_as_an_import():
    tree = ast.parse("from . import m, n as k\n"
                     "from .p import x, _y\n"
                     "def f(n, q):\n"
                     "    m = n.a\n"
                     "    return k.b + q.c + m.d\n"
                     "def g(m):\n"
                     "    return m.e + k._f + (lambda k: k.g)(1)\n"
                     "z = m.h\n")
    assert _imports(tree) == {("p", "x"), ("n", "b"), ("m", "h")}


def test_every_public_name_has_a_reader_or_a_roadmap_item():
    modules = _modules()
    read = set().union(*map(_read_names, modules.values()))
    unread = {f"{mod}.{name}" for mod, tree in modules.items()
              for name in _exports(tree) if name not in read}
    unread |= {f"{mod}.{cls}.{name}" for mod, tree in modules.items()
               for cls, name in _members(tree) if name not in read}
    assert not unread - UNREAD.keys(), f"no reader in src/: {sorted(unread - UNREAD.keys())}"
    assert not UNREAD.keys() - unread, f"listed, but read: {sorted(UNREAD.keys() - unread)}"


def test_what_counts_as_a_reader():
    tree = ast.parse("from .m import f as g\n"
                     "def h():\n"
                     "    'h and poly_table in a string'\n"
                     "    return h() + g(k.attr)\n"
                     "x = 1\n")
    assert _read_names(tree) == {"f", "k", "attr"}
    tree = ast.parse("class C:\n"
                     "    def m(self):\n"
                     "        return self.m() + self.n + C\n"
                     "    def n(self):\n"
                     "        def m():\n"
                     "            return m\n"
                     "        return self.n\n")
    assert _read_names(tree) == {"self", "n", "m"}


def test_what_counts_as_a_member():
    tree = ast.parse("__all__ = ['C']\n"
                     "class C:\n"
                     "    x: int\n"
                     "    _y: int = 0\n"
                     "    z = 1\n"
                     "    def m(self): pass\n"
                     "    def _p(self): pass\n"
                     "class D:\n"
                     "    w: int\n")
    assert list(_members(tree)) == [("C", "x"), ("C", "m")]
