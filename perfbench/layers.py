"""Per-layer tracing of the engine from outside its source.

The engine is measured without editing it: for a traced pass the public
functions and methods listed in SPANS and COUNTS are replaced by wrappers,
and the originals are put back afterwards.  A module-level function is
replaced in *every* ``gwtwist`` namespace that holds it, because
``from .x import y`` copies the binding: ``apply_transform`` lives in both
``mirror`` and ``invariants``, ``n_numbers`` in ``invariants`` and ``cli``,
``qs_exp`` in ``series`` and ``mirror``.  Patching only the defining module
would silently miss the calls made through the copies.  Methods are
replaced once, on their class.

Spans carry an id, a parent id, a name, a start and an end, and stay in
memory until the run writes them out.  Tiny kernels (class multiply and
construction, Laurent and scalar-series multiply) are counted, not timed.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# (metric stem, module, attribute): a timed span per call.  The span count
# is also a metric where BENCHMARK.json lists ``<stem>_calls``.
SPANS = (
    ("series.laurent_invert", "gwtwist.series", "HbarLaurent.invert"),
    ("series.qseries_mul", "gwtwist.series", "QSeries.__mul__"),
    ("series.qs_exp", "gwtwist.series", "qs_exp"),
    ("series.qs_substitute", "gwtwist.series", "qs_substitute"),
    ("series.qs_exp_full", "gwtwist.series", "qs_exp_full"),
    ("series.invert_substitution", "gwtwist.series", "invert_substitution"),
    ("twist.i_function", "gwtwist.twist", "i_function"),
    ("twist.j_ambient", "gwtwist.twist", "j_ambient"),
    ("mirror.solve_mirror_map", "gwtwist.mirror", "solve_mirror_map"),
    ("mirror.apply_transform", "gwtwist.mirror", "apply_transform"),
    ("mirror.normal_form", "gwtwist.mirror", "normal_form"),
    ("invariants.n_numbers", "gwtwist.invariants", "n_numbers"),
    ("invariants.aspinwall_morrison", "gwtwist.invariants", "aspinwall_morrison"),
    ("invariants.serre_dual_pair", "gwtwist.invariants", "serre_dual_pair"),
    ("invariants.solve_serre_factor", "gwtwist.invariants", "solve_serre_factor"),
    ("localization.oracle", "gwtwist.localization", "oracle_n_value"),
    ("cli.main", "gwtwist.cli", "main"),
    ("cli.serialize", "gwtwist.series", "qseries_to_obj"),
    ("cli.serialize", "gwtwist.mirror", "MirrorMap.to_obj"),
)

# (counter, module, attribute): a call count only, no timing.
COUNTS = (
    ("ring.mul_calls", "gwtwist.ring", "CohClass.__mul__"),
    ("ring.class_new", "gwtwist.ring", "CohClass.__init__"),
    ("series.laurent_mul_calls", "gwtwist.series", "HbarLaurent.__mul__"),
    ("series.scalar_mul_calls", "gwtwist.series", "ScalarQSeries.__mul__"),
    ("twist.h_factor_calls", "gwtwist.twist", "h_factor"),
    ("localization.weight_draws", "gwtwist.localization", "draw_weights"),
)

# The workload whose end-to-end metrics each per-layer metric should move,
# and where a traced run must find it non-zero.  Names and units are those
# of BENCHMARK.json's per_layer list.  A ``_s`` metric is the wall time
# inside the named call, nested re-entries counted once; the two marked
# "self" subtract the time of child spans.
WORKLOAD_OF = {
    "ring.mul_calls": "product-ambient",
    "ring.class_new": "product-ambient",
    "series.laurent_mul_calls": "catalogue",
    "series.laurent_invert_calls": "catalogue",
    "series.laurent_invert_s": "catalogue",
    "series.qseries_mul_calls": "product-ambient",
    "series.qseries_mul_s": "product-ambient",
    "series.scalar_mul_calls": "quintic-deep",
    "series.qs_exp_calls": "quintic-deep",
    "series.qs_exp_s": "quintic-deep",
    "series.qs_substitute_s": "quintic-deep",
    "series.qs_exp_full_s": "quintic-deep",
    "series.invert_substitution_s": "quintic-deep",  # unused by the engine today
    "twist.i_function_s": "catalogue",
    "twist.j_ambient_s": "catalogue",
    "twist.h_factor_calls": "catalogue",
    "mirror.solve_mirror_map_s": "quintic-deep",  # self
    "mirror.apply_transform_calls": "quintic-deep",
    "mirror.apply_transform_s": "quintic-deep",
    "mirror.normal_form_calls": "product-ambient",
    "mirror.normal_form_s": "product-ambient",
    "invariants.n_numbers_s": "catalogue",  # self: the extraction step
    "invariants.aspinwall_morrison_s": "catalogue",
    "invariants.serre_dual_pair_s": "catalogue",
    "invariants.solve_serre_factor_s": "catalogue",
    "invariants.serre_transforms": "catalogue",
    "localization.oracle_s": "catalogue",
    "localization.graphs": "catalogue",
    "localization.weight_draws": "catalogue",
    "localization.admissible_draws": "catalogue",
    "localization.draw_yield": "catalogue",
    "cli.main_s": "catalogue",
    "cli.serialize_s": "catalogue",
    "cli.output_bytes": "catalogue",
    "trace.overhead_frac": "quintic-deep",
}

SELF_TIMED = ("mirror.solve_mirror_map", "invariants.n_numbers")


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.counts: dict[str, int] = {name: 0 for name, _, _ in COUNTS}
        self.counts["localization.admissible_draws"] = 0
        self.counts["localization.graphs"] = 0
        self.counts["cli.output_bytes"] = 0
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str):
        stack = self._stack
        rec = [len(self.spans), stack[-1][0] if stack else None, name, time.perf_counter(), None]
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            stack.pop()

    def timed(self, name: str, fn):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _count_draws(tracer: Tracer, fn):
    """A draw that gave a value rather than a WeightCollision is admissible;
    its graph sum evaluated every graph of its degree."""
    signature = inspect.signature(fn)
    graphs = sys.modules["gwtwist.localization"].enumerate_graphs
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        counts["localization.admissible_draws"] += 1
        counts["localization.graphs"] += len(graphs(bound.arguments["r"], bound.arguments["d"]))
        return out

    return wrapper


def targets(tracer: Tracer):
    """(wrapper factory, module, attribute) for every wrapper to install."""
    for stem, module, attr in SPANS:
        yield functools.partial(tracer.timed, stem), module, attr
    for name, module, attr in COUNTS:
        yield functools.partial(tracer.counted, name), module, attr
    yield functools.partial(_count_draws, tracer), "gwtwist.localization", "localized_invariant"


def engine_modules():
    """Every loaded ``gwtwist`` module, the package included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "gwtwist" or name.startswith("gwtwist."))
    ]


@contextmanager
def instrumented(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    modules = engine_modules()
    undo: list[tuple[object, str, object]] = []
    try:
        for factory, module_name, attr in targets(tracer):
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, factory(original))
                continue
            original = getattr(home, attr)
            wrapped = factory(original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, name, original))
                        setattr(mod, name, wrapped)
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the overhead)."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])

    def has_ancestor(s, name):
        parent = s[1]
        while parent is not None:
            p = by_id[parent]
            if p[2] == name:
                return True
            parent = p[1]
        return False

    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        name, dur = s[2], s[4] - s[3]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(s[0], 0.0)
        if not has_ancestor(s, name):
            inclusive[name] = inclusive.get(name, 0.0) + dur

    serre_transforms = sum(
        1
        for s in spans
        if s[2] == "mirror.apply_transform" and has_ancestor(s, "invariants.solve_serre_factor")
    )
    out: dict[str, float] = dict(tracer.counts)
    for stem in {stem for stem, _, _ in SPANS}:
        source = self_time if stem in SELF_TIMED else inclusive
        out[f"{stem}_s"] = source.get(stem, 0.0)
        out[f"{stem}_calls"] = calls.get(stem, 0)
    out["invariants.serre_transforms"] = serre_transforms
    draws = out["localization.weight_draws"]
    out["localization.draw_yield"] = out["localization.admissible_draws"] / draws if draws else 0.0
    return out


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, as BENCHMARK.json lists them."""
    with open(BENCHMARK_PATH, "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def summarize(rounds: list[dict[str, float]], overheads: list[float]) -> dict[str, dict]:
    """Median over rounds of each per-layer metric, with its unit."""
    metrics = {}
    for name, unit in per_layer_units().items():
        if name == "trace.overhead_frac":
            value = statistics.median(overheads)
        else:
            value = statistics.median(r[name] for r in rounds)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
