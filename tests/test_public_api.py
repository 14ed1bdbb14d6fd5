"""Every public name is used by the engine itself, not only by tests.

A name in ``gwtwist.__all__`` counts as used when a top-level definition
or statement of some engine module other than ``__init__.py`` loads it,
outside the name's own definition.  Loads from definitions that are
themselves unused public names do not count, so a dead public function
cannot keep the names only it uses alive.

The public methods of the series types count as used when engine code
loads an attribute of that name outside the method's own definition.  The
receiver's type is not known statically, so a method that shares its name
with one in use elsewhere (``scale``, ``zero``) always counts as used.
"""

import ast
import inspect
from pathlib import Path

import gwtwist
from gwtwist.series import HbarLaurent, QSeries, ScalarQSeries

SRC = Path(gwtwist.__file__).resolve().parent

# public names that no engine module uses, each with the reason it stays
ALLOWED_UNUSED = {
    "hl_mul": "imported by tests/test_acceptance.py, which is kept unedited",
    "hl_invert": "imported by tests/test_acceptance.py, which is kept unedited",
    "lift": "imported by tests/test_acceptance.py, which is kept unedited",
    "z_from_log": "imported by tests/test_acceptance.py, which is kept unedited",
    "z_closed_form": "imported by tests/test_acceptance.py, which is kept unedited",
    "h_factor": "a target of the benchmark's tracer hooks (perfbench/layers.py)",
    "invert_substitution": "a target of the benchmark's tracer hooks (perfbench/layers.py)",
}


def _loads_by_owner():
    """(module, owner) -> names loaded there; the owner is the name a
    top-level function or class defines, None for any other statement."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            loads = {
                node.id
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            out.setdefault((path.stem, owner), set()).update(loads)
    return out


def _unused_public_names(public):
    loads = _loads_by_owner()
    unused = set()
    changed = True
    while changed:
        changed = False
        for name in sorted(public - unused):
            users = [
                owner
                for (_, owner), names in loads.items()
                if name in names and owner != name and owner not in unused
            ]
            if not users:
                unused.add(name)
                changed = True
    return unused


def test_every_public_name_is_used_by_the_engine():
    public = set(gwtwist.__all__) - set(ALLOWED_UNUSED)
    assert sorted(_unused_public_names(public)) == []


def test_allowlist_names_only_unused_public_names():
    assert set(ALLOWED_UNUSED) <= set(gwtwist.__all__)
    assert all(reason.strip() for reason in ALLOWED_UNUSED.values())
    assert _unused_public_names(set(gwtwist.__all__)) >= set(ALLOWED_UNUSED)


# -- public methods of the series types ----------------------------------------

SERIES_TYPES = (HbarLaurent, QSeries, ScalarQSeries)

# "Class.method" names that no engine code calls, each with the reason it stays
ALLOWED_UNUSED_METHODS = {
    "ScalarQSeries.set_coeff": "used by tests/test_acceptance.py, which is kept unedited",
    "HbarLaurent.times_hbar": "used by tests/test_acceptance.py, which is kept unedited",
}


def _public_methods():
    """Every public function, property or classmethod that the series types
    define or inherit from a gwtwist class, as "Class.method"."""
    out = set()
    for cls in SERIES_TYPES:
        for owner in inspect.getmro(cls):
            if owner.__module__ != "gwtwist.series":
                continue
            for name, value in vars(owner).items():
                method = inspect.isfunction(value) or isinstance(value, (property, classmethod))
                if method and not name.startswith("_"):
                    out.add(f"{owner.__name__}.{name}")
    return out


def _attribute_loads():
    """Owner -> attribute names loaded there; the owner is "Class.method"
    inside a method, else the name of the top-level definition, or None."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            units = [(getattr(stmt, "name", None), stmt)]
            if isinstance(stmt, ast.ClassDef):
                units = [
                    (f"{stmt.name}.{node.name}", node)
                    if isinstance(node, ast.FunctionDef)
                    else (stmt.name, node)
                    for node in stmt.body
                ]
            for owner, node in units:
                attrs = {
                    n.attr
                    for n in ast.walk(node)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                }
                out.setdefault(owner, set()).update(attrs)
    return out


def _unused_methods():
    loads = _attribute_loads()
    unused = set()
    for method in _public_methods():
        name = method.split(".")[1]
        if not any(name in names for owner, names in loads.items() if owner != method):
            unused.add(method)
    return unused


def test_every_public_series_method_is_used_by_the_engine():
    assert sorted(_unused_methods() - set(ALLOWED_UNUSED_METHODS)) == []


def test_method_allowlist_names_only_unused_methods():
    assert all(reason.strip() for reason in ALLOWED_UNUSED_METHODS.values())
    assert set(ALLOWED_UNUSED_METHODS) <= _public_methods()
    assert _unused_methods() >= set(ALLOWED_UNUSED_METHODS)
