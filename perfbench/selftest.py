"""Tests of the benchmark itself (not of the engine).

    python3 -m pytest -q perfbench/selftest.py

Kept out of the engine's test suite: one test runs a traced round of every
workload and takes about half a minute.
"""

from __future__ import annotations

import copy
import importlib.util
import py_compile
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import golden
import layers
import workloads

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def gold():
    return golden.load()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_deterministic_for_a_seed(workload):
    assert workloads.job_list(workload, 7) == workloads.job_list(workload, 7)
    work = sorted((j.cmd, j.geometry, j.degree) for j in workloads.job_list(workload, 7))
    assert work == sorted((j.cmd, j.geometry, j.degree) for j in workloads.job_list(workload, 8))


def test_catalogue_seed_sets_order_and_job_seeds():
    a, b = workloads.job_list("catalogue", 7), workloads.job_list("catalogue", 8)
    assert [j.label for j in a] != [j.label for j in b]
    assert {j.seed for j in a} != {j.seed for j in b}


def test_wrappers_replace_every_binding():
    workloads.Engine(())
    originals = {
        "apply_transform": ("gwtwist.mirror", ["gwtwist", "gwtwist.invariants", "gwtwist.mirror"]),
        "n_numbers": ("gwtwist.invariants", ["gwtwist", "gwtwist.cli", "gwtwist.invariants"]),
        "qs_exp": ("gwtwist.series", ["gwtwist", "gwtwist.mirror", "gwtwist.series"]),
    }
    for attr, (home, where) in originals.items():
        original = getattr(sys.modules[home], attr)
        bound = [m.__name__ for m in layers.engine_modules() if any(v is original for v in vars(m).values())]
        assert bound == where
    before = {
        (module, attr): getattr(sys.modules[module], attr)
        for _, module, attr in layers.targets(layers.Tracer())
        if "." not in attr
    }
    with layers.instrumented(layers.Tracer()):
        for (module, attr), original in before.items():
            for mod in layers.engine_modules():
                assert all(v is not original for v in vars(mod).values()), (mod.__name__, attr)
    for (module, attr), original in before.items():
        assert getattr(sys.modules[module], attr) is original


def test_import_ignores_cached_bytecode(tmp_path):
    """A ``__pycache__`` next to the source, as a test run leaves it, is not
    loaded: every set-up compiles the engine from source."""
    src = tmp_path / "src"
    shutil.copytree(workloads.PACKAGE, src / "gwtwist", ignore=shutil.ignore_patterns("__pycache__"))
    init = src / "gwtwist" / "__init__.py"
    poisoned = tmp_path / "poisoned.py"
    poisoned.write_text(init.read_text(encoding="utf-8") + "\nFROM_BYTECODE = True\n", encoding="utf-8")
    # An unchecked-hash .pyc is loaded whatever the source says.
    py_compile.compile(
        str(poisoned),
        cfile=importlib.util.cache_from_source(str(init)),
        invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH,
    )
    plain = subprocess.run(
        [sys.executable, "-c", "import gwtwist; print(hasattr(gwtwist, 'FROM_BYTECODE'))"],
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=60,
    )
    assert plain.stdout.strip() == "True"  # a plain import does load it
    cached = sorted((src / "gwtwist" / "__pycache__").iterdir())
    try:
        pkg, = workloads.import_from_source(("gwtwist",), src)
        assert pkg.__file__ == str(init)
        assert not hasattr(pkg, "FROM_BYTECODE")
    finally:
        workloads.Engine(())  # back to the checkout's engine
    assert sorted((src / "gwtwist" / "__pycache__").iterdir()) == cached  # nothing written


def test_layer_metrics_match_benchmark_json():
    assert list(layers.WORKLOAD_OF) == list(layers.per_layer_units())


@pytest.fixture(scope="module")
def traced_layers(gold):
    """One traced round of every workload, as reported per layer."""
    out = {}
    for workload in workloads.WORKLOADS:
        tally = workloads.Tally(gold)
        engine, _ = workloads.setup(workload, tally)
        rounds, overheads, _ = workloads.traced_rounds(engine, workload, 3, 0, tally)
        assert tally.failed == 0, tally.errors
        out[workload] = layers.summarize(rounds, overheads)
    return out


@pytest.mark.parametrize(
    "metric,workload",
    [(name, w) for name, w in layers.WORKLOAD_OF.items() if name != "series.invert_substitution_s"],
)
def test_layer_metric_nonzero_on_its_workload(traced_layers, metric, workload):
    assert traced_layers[workload][metric]["value"] != 0


def test_apply_transform_runs_d_plus_two_times(traced_layers):
    assert traced_layers["quintic-deep"]["mirror.apply_transform_calls"]["value"] == 12 + 2


def _real_outputs():
    engine = workloads.Engine(("quintic", "bicubic"))
    jobs = [
        workloads.Job("quintic", "quintic", 4),
        workloads.Job("bicubic", "bicubic", 3),
        workloads.Job("serre", "p3-o1-o1", 4),
        workloads.Job("verify", "local-p1", 2, 5),
    ]
    return [(job, workloads.execute(engine, job)[1]) for job in jobs]


def _tamper_quintic(g):
    g["quintic_n"]["values"]["4"] = "242467530001"


def _tamper_bicubic(g):
    g["bicubic_N"]["values"]["1,2"] = "142885"


def _tamper_payload(g):
    g["serre_infeasible"]["p3-o1-o1"]["first_obstructed_degree"] = 2


def _tamper_oracle(g):
    g["oracle_N"]["local-p1"] = ["1", "1/9"]


@pytest.mark.parametrize("tamper", [_tamper_quintic, _tamper_bicubic, _tamper_payload, _tamper_oracle])
def test_golden_checker_rejects_a_tampered_expected_value(gold, tamper):
    outputs = _real_outputs()
    for job, output in outputs:
        workloads.check(job, output, gold)
    tampered = copy.deepcopy(gold)
    tamper(tampered)
    failures = 0
    for job, output in outputs:
        try:
            workloads.check(job, output, tampered)
        except golden.GoldenMismatch:
            failures += 1
    assert failures == 1


def test_run_fails_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "catalogue",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
