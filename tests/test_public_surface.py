"""Every public name has a reader in the package, or a planned one.

A name in a ``src/multiboson`` module's ``__all__`` is read when some module
of the package refers to it as a name or an attribute (``poly_table(...)``,
``tm.charges``), an import alias counting as its original name.  Its own
definition (a reference inside its own def or class body), its ``__all__``
entry, the re-export in ``__init__`` and any mention in a string or
docstring do not count.  The audit matches by name, not by module, so a
name shared by two modules is read when either is.

The names below have no reader yet; each waits on the ROADMAP item that
will give it a check that reads it, or delete it.  The list must stay
exact: a name that gains a reader leaves it.
"""

import ast
from pathlib import Path

import multiboson

SRC = Path(multiboson.__file__).parent

UNREAD = {
    "twomode.hc_eigenvectors_discrete": "items 5 and 12",
    "twomode.hd_eigenvectors": "item 14",
    "coherent.holo_apply": "item 15",
    "coherent.disc_eigenfunction": "item 15",
    "evolution.interaction_energy": "item 4",
    "evolution.evolve_full": "item 16",
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


def _read_names(tree):
    """Names the module refers to outside their own top-level definition."""
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
    read = set()

    def visit(node, owner):
        if owner is None and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = aliases.get(node.id, node.id)
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name != owner:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return read


def test_every_public_name_has_a_reader_or_a_roadmap_item():
    modules = _modules()
    read = set().union(*map(_read_names, modules.values()))
    unread = {f"{mod}.{name}" for mod, tree in modules.items()
              for name in _exports(tree) if name not in read}
    assert not unread - UNREAD.keys(), f"no reader in src/: {sorted(unread - UNREAD.keys())}"
    assert not UNREAD.keys() - unread, f"listed, but read: {sorted(UNREAD.keys() - unread)}"


def test_what_counts_as_a_reader():
    tree = ast.parse("from .m import f as g\n"
                     "def h():\n"
                     "    'h and poly_table in a string'\n"
                     "    return h() + g(k.attr)\n"
                     "x = 1\n")
    assert _read_names(tree) == {"f", "k", "attr"}
