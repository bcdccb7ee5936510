"""Every function, method and class of ``src/sphomotopy`` has a caller there.

The package is read with ``ast``. A method counts as called when its name
appears in the package as an attribute; a function or class when its name
appears as a name, an attribute or an imported name. ``__init__`` is
exempt: construction calls it. Besides the names the benchmark's tracer
wraps, only the names on ``ALLOWED`` may go uncalled, each for the reason
given there.

The check goes by name, not by owner: a method counts as called when any
attribute of its name is read. So a method named like a field or like
another class's method passes while only the other is used; that is how
``Element.degree`` and ``Element.weight`` outlived their last caller, next
to the ``Generator`` fields and the ``GeneratorSet`` methods of those names.
"""

import ast
import glob
import os
from collections import Counter

from test_tracer_boundaries import BOUNDARIES

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src", "sphomotopy")
ORACLE = "a test oracle: the Element arithmetic and constructors"
ALLOWED = {
    "irrep_dimension": "a test oracle: the Weyl dimension formula",
    **dict.fromkeys(["Element." + m for m in ("is_zero", "__eq__", "__add__",
                                              "__neg__", "__sub__", "__rmul__")],
                    ORACLE),
    "Element.__repr__": "a test oracle: failed assertions print Elements with it",
    **dict.fromkeys(["GeneratorSet." + m for m in ("zero", "unit", "gen")], ORACLE),
    "MinimalModel.check_minimality": "a postcondition the acceptance suite calls",
    "GeneratorSet.__getitem__": "called by subscript: moduli reads gs[name]",
}


def _uncalled() -> set:
    defs, names, attrs = [], Counter(), Counter()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        tree = ast.parse(open(path, encoding="utf-8").read())
        owner = {f: c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                cls = owner.get(node)
                defs.append((f"{cls}.{node.name}" if cls else node.name,
                             node.name, cls is not None))
            elif isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                attrs[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return {qual for qual, name, method in defs if name != "__init__"
            and not (attrs[name] if method else names[name] + attrs[name])}


def test_every_library_name_has_a_caller():
    traced = {path for module, path, _ in BOUNDARIES if module.startswith("sphomotopy.")}
    assert _uncalled() - set(ALLOWED) - traced == set()


def test_allowlist_is_current():
    """An allowed name is still defined and still has no caller."""
    assert set(ALLOWED) - _uncalled() == set()
