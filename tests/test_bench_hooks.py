"""The benchmark's tracer wraps engine attributes by name, from outside the
engine; a deletion or move of one of them would break ``--trace 1``."""

import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _hook_targets():
    # compiled from source, not imported, so no bytecode is written there
    namespace = {"__name__": "layers", "__file__": str(LAYERS)}
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), namespace)
    targets = [(module, attr) for _, module, attr in namespace["SPANS"] + namespace["COUNTS"]]
    return targets + [("gwtwist.localization", "localized_invariant")]


def test_benchmark_hook_targets_resolve():
    missing = []
    for module, attr in _hook_targets():
        home = importlib.import_module(module)
        if "." in attr:
            # the tracer replaces the method in its class's own namespace
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(home, cls_name, object))
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert missing == []
