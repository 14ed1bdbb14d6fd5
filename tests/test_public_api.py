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

Only ``gwtwist.twist`` classifies bundle summands.  The package also keeps
its promise of no dependencies: its modules import only the standard
library and ``gwtwist`` itself.
"""

import ast
import inspect
import sys
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
    "normalized_series": "imported by tests/test_acceptance.py, which is kept unedited",
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
    "QSeries.term": "used by tests/test_acceptance.py, which is kept unedited",
    "ScalarQSeries.set_coeff": "used by tests/test_acceptance.py, which is kept unedited",
    "HbarLaurent.times_hbar": "used by tests/test_acceptance.py, which is kept unedited",
    "HbarLaurent.linear": "used by tests/test_acceptance.py, which is kept unedited",
    "HbarLaurent.scale_class": "used by tests/test_acceptance.py, which is kept unedited",
    "HbarLaurent.invert": (
        "reached through hl_invert, which tests/test_acceptance.py (kept unedited) uses,"
        " and a target of the benchmark's tracer hooks (perfbench/layers.py)"
    ),
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
        users = [owner for owner in loads if owner != method and owner not in ALLOWED_UNUSED]
        if not any(name in loads[owner] for owner in users):
            unused.add(method)
    return unused


def test_every_public_series_method_is_used_by_the_engine():
    assert sorted(_unused_methods() - set(ALLOWED_UNUSED_METHODS)) == []


def test_method_allowlist_names_only_unused_methods():
    assert all(reason.strip() for reason in ALLOWED_UNUSED_METHODS.values())
    assert set(ALLOWED_UNUSED_METHODS) <= _public_methods()
    assert _unused_methods() >= set(ALLOWED_UNUSED_METHODS)


# -- the allowlists' reasons ---------------------------------------------------

REPO = Path(__file__).resolve().parent.parent


def _acceptance_loads():
    """The names and the attribute names that tests/test_acceptance.py loads."""
    tree = ast.parse((REPO / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return names, attrs


def _hooked():
    """The attributes bound in SPANS or COUNTS of perfbench/layers.py, read as
    source so that the benchmark is not imported."""
    tree = ast.parse((REPO / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    return {
        attr
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTS") for t in stmt.targets)
        for _, _, attr in ast.literal_eval(stmt.value)
    }


def test_every_allowlist_entry_is_used_by_a_file_its_reason_names():
    names, attrs = _acceptance_loads()
    hooked = _hooked()
    for entry, reason in {**ALLOWED_UNUSED, **ALLOWED_UNUSED_METHODS}.items():
        uses = {
            "tests/test_acceptance.py": (attrs if "." in entry else names) >= {entry.split(".")[-1]},
            "perfbench/layers.py": entry in hooked,
        }
        named = [path for path in uses if path in reason]
        assert named, f"{entry}: the reason names no file that uses it"
        assert any(uses[path] for path in named), f"{entry}: unused in {', '.join(named)}"


# -- one classification --------------------------------------------------------


def test_only_the_twist_module_classifies():
    # GeometrySpec classifies each summand once and keeps the kinds; every
    # other module reads them through it
    loaders = sorted(
        path.stem
        for path in SRC.glob("*.py")
        if any(
            isinstance(node, ast.Name) and node.id == "classify" and isinstance(node.ctx, ast.Load)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert loaders == ["twist"]


# -- dependencies --------------------------------------------------------------


def test_engine_imports_only_stdlib_and_itself():
    # pyproject.toml declares no dependencies, and an installed third-party
    # package would let a stray import pass every other test
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.append((path.name, node.module))
    assert found
    outside = [
        (module, name)
        for module, name in found
        if name.split(".")[0] != "gwtwist" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
