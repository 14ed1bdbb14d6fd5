"""Every public name is used by the engine itself, not only by tests.

A name in ``gwtwist.__all__`` counts as used when a top-level definition
or statement of some engine module other than ``__init__.py`` loads it,
outside the name's own definition.  Loads from definitions that are
themselves unused public names do not count, so a dead public function
cannot keep the names only it uses alive.
"""

import ast
from pathlib import Path

import gwtwist

SRC = Path(gwtwist.__file__).resolve().parent

# public names that no engine module uses, each with the reason it stays
ALLOWED_UNUSED = {
    "hl_mul": "imported by tests/test_acceptance.py, which is kept unedited",
    "hl_invert": "imported by tests/test_acceptance.py, which is kept unedited",
    "lift": "imported by tests/test_acceptance.py, which is kept unedited",
    "z_from_log": "imported by tests/test_acceptance.py, which is kept unedited",
    "z_closed_form": "imported by tests/test_acceptance.py, which is kept unedited",
    "h_factor": "a target of the benchmark's tracer hooks (perfbench/layers.py)",
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
