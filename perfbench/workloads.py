"""The three workloads: their job lists, set-up, and the measured loops.

Every workload is a closed loop with one caller in one thread: the next job
starts only when the previous one has returned.  The engine is imported
from the checkout's ``src/``, never from an installed copy.

* ``quintic-deep``: P4 with O(5); each job is ``n_numbers`` at D=12 then
  ``aspinwall_morrison``.  The order-by-order normalizer dominates (D+1 full
  ``apply_transform`` passes, ``qs_substitute``/``qs_exp``, ~100-bit
  coefficients).  The seed picks the oracle weights of the d=1,2 cross-check,
  which runs after the timed loop.
* ``product-ambient``: the bicubic in P2xP2, ``n_numbers`` at D=5.  Two
  factors give a 9-monomial basis, 21 curve classes and a two-column divisor
  solve, so series and class multiplication carry a large share.  No
  randomness: the seed is unused.
* ``catalogue``: in-process ``gwtwist.cli.main`` calls over the shipped
  geometries plus P1 with O(1), where the change of variables is zero or
  tiny and the solver is bypassed.  The seed sets each job's ``--seed`` and
  the job order; the job list itself is fixed, so the cost is not.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import random
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import golden
from layers import Tracer, instrumented, layer_values

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "gwtwist"
OUT_DIR = ROOT / ".perfbench"  # spans of traced runs; git ignores it

GEOMETRY_FILES = {
    "quintic": ROOT / "geometries" / "quintic.json",
    "p4-o1": ROOT / "geometries" / "p4-o1.json",
    "p5-o-1-o-5": ROOT / "geometries" / "p5-o-1-o-5.json",
    "local-p1": ROOT / "geometries" / "local-p1.json",
    "p3-o1-o1": ROOT / "geometries" / "p3-o1-o1.json",
    "p1-o1": Path(__file__).resolve().parent / "geometries" / "p1-o1.json",
    "bicubic": Path(__file__).resolve().parent / "geometries" / "bicubic.json",
}
SHIPPED = ("quintic", "p4-o1", "p5-o-1-o-5", "local-p1", "p3-o1-o1")
# The fixed-point oracle needs the integrand degree to match the moduli
# dimension; P1 with O(1) exceeds it, so it only takes part in check, ifun
# and serre.
CATALOGUE_GEOMETRIES = SHIPPED + ("p1-o1",)


@dataclass(frozen=True)
class Job:
    """One unit of work.  ``cmd`` is ``quintic``, ``bicubic`` or a CLI command."""

    cmd: str
    geometry: str
    degree: int
    seed: int = 0

    @property
    def label(self) -> str:
        return f"{self.cmd}:{self.geometry}:D{self.degree}"

    def argv(self) -> list[str]:
        return [
            "--geometry", str(GEOMETRY_FILES[self.geometry]),
            "--cmd", self.cmd,
            "--max-degree", str(self.degree),
            "--seed", str(self.seed),
        ]


@dataclass(frozen=True)
class Workload:
    """Geometries loaded at set-up, warm-up jobs, and one pass of jobs."""

    geometries: tuple[str, ...]
    warmup: tuple[Job, ...]
    jobs: tuple[Job, ...]


def _catalogue_jobs():
    for g in CATALOGUE_GEOMETRIES:
        yield Job("check", g, 6)
        yield Job("ifun", g, 8)
    for g in ("p5-o-1-o-5", "p4-o1", "local-p1"):  # change of variables is zero
        yield Job("invariants", g, 10)
    yield Job("serre", "p1-o1", 4)
    yield Job("serre", "p3-o1-o1", 4)
    for g in SHIPPED:
        yield Job("oracle", g, 2)
        yield Job("verify", g, 2)


WORKLOADS = {
    "quintic-deep": Workload(
        ("quintic",), (Job("quintic", "quintic", 4),), (Job("quintic", "quintic", 12),)
    ),
    "product-ambient": Workload(
        ("bicubic",), (Job("bicubic", "bicubic", 2),), (Job("bicubic", "bicubic", 5),)
    ),
    "catalogue": Workload(
        CATALOGUE_GEOMETRIES,
        tuple(Job("check", g, 6) for g in CATALOGUE_GEOMETRIES)
        + (Job("invariants", "local-p1", 10), Job("serre", "p1-o1", 4)),
        tuple(_catalogue_jobs()),
    ),
}


def job_list(workload: str, seed: int) -> list[Job]:
    """One pass of the workload's jobs, each with its own ``--seed``, in an
    order set by ``seed``.  A loop repeats whole passes."""
    rng = random.Random(seed)
    jobs = [
        Job(j.cmd, j.geometry, j.degree, rng.randrange(2**31))
        for j in WORKLOADS[workload].jobs
    ]
    rng.shuffle(jobs)
    return jobs


def import_from_source(names: tuple[str, ...], src: Path = SRC) -> list:
    """Import the named ``gwtwist`` modules afresh from the ``.py`` files
    under ``src``, dropping any ``gwtwist`` modules already loaded.

    Cached bytecode is neither read nor written.  ``sys.dont_write_bytecode``
    alone only stops writes: a ``__pycache__`` left by an earlier test run
    would still be loaded.  So while the import runs ``sys.pycache_prefix``
    points at an empty directory, and every module is compiled from source.
    """
    for name in [m for m in sys.modules if m == "gwtwist" or m.startswith("gwtwist.")]:
        del sys.modules[name]
    saved = sys.path[:], sys.pycache_prefix, sys.dont_write_bytecode
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="no-bytecode-", dir=OUT_DIR) as empty:
        sys.path.insert(0, str(src))
        sys.pycache_prefix, sys.dont_write_bytecode = empty, True
        importlib.invalidate_caches()
        try:
            return [importlib.import_module(name) for name in names]
        finally:
            sys.path[:], sys.pycache_prefix, sys.dont_write_bytecode = saved


class Engine:
    """The ``gwtwist`` modules of one fresh import, and loaded geometries."""

    def __init__(self, names: tuple[str, ...]):
        self.pkg, self.cli = import_from_source(("gwtwist", "gwtwist.cli"))
        if Path(self.pkg.__file__).resolve().parent != PACKAGE.resolve():
            raise ImportError(f"gwtwist imported from {self.pkg.__file__}, not {PACKAGE}")
        self.geometries = {}
        for name in names:
            with open(GEOMETRY_FILES[name], "r", encoding="utf-8") as fh:
                g = self.pkg.geometry_from_obj(json.load(fh))
            self.pkg.check_conditions(g)
            self.geometries[name] = g


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def execute(engine: Engine, job: Job, tracer: Tracer | None = None) -> tuple[float, str]:
    """Run one job; return its wall seconds and its serialized output.

    With a tracer the job runs under a root span named after its label.
    """
    span = tracer.span(f"job {job.label}") if tracer else contextlib.nullcontext()
    pkg = engine.pkg
    if job.cmd in ("quintic", "bicubic"):
        g = engine.geometries[job.geometry]
        with span:
            t0 = time.perf_counter()
            N = pkg.n_numbers(g, job.degree)
            n = pkg.aspinwall_morrison(g, N) if job.cmd == "quintic" else None
            dt = time.perf_counter() - t0
        obj = {"N": {",".join(map(str, beta)): _fmt(v) for beta, v in N.items()}}
        if n is not None:
            obj["n"] = {str(d): _fmt(v) for d, v in n.items()}
        return dt, json.dumps(obj)
    out, err = io.StringIO(), io.StringIO()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = engine.cli.main(job.argv())
        dt = time.perf_counter() - t0
    if tracer:
        tracer.counts["cli.output_bytes"] += len(out.getvalue().encode()) + len(err.getvalue().encode())
    return dt, json.dumps({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})


def check(job: Job, output: str, gold: dict):
    """Golden gate for one job's output; raises golden.GoldenMismatch."""
    obj = json.loads(output)
    if job.cmd == "quintic":
        golden.check_quintic(obj, gold, job.degree)
    elif job.cmd == "bicubic":
        golden.check_bicubic(obj, gold, job.degree)
    else:
        golden.check_cli(
            job.cmd, job.geometry, job.seed, obj["rc"], obj["stdout"], obj["stderr"], gold
        )


class Tally:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self, gold: dict):
        self.gold = gold
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, label: str, reason: str):
        self.failed += 1
        self.errors.append(f"{label}: {reason}")

    def run(self, engine: Engine, job: Job, tracer: Tracer | None = None):
        """Run and check one job: (seconds, output), or None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            dt, output = execute(engine, job, tracer)
        except Exception:  # a crashing job is a failed job; the run goes on
            self.fail(job.label, traceback.format_exc())
            return None
        try:
            check(job, output, self.gold)
        except golden.GoldenMismatch as exc:
            self.fail(job.label, str(exc))
            return None
        return dt, output


def setup(workload: str, tally: Tally) -> tuple[Engine, float]:
    """Import the engine, load and validate geometries, run the warm-up."""
    t0 = time.perf_counter()
    spec = WORKLOADS[workload]
    engine = Engine(spec.geometries)
    for job in spec.warmup:
        tally.run(engine, job)
    return engine, time.perf_counter() - t0


# Seconds of jobs between two throwaway set-ups in a timed loop.
SETUP_INTERVAL_S = 1.5
# Share of each job's last duration spent timing the reference loop, half
# right before the job and half right after it.
REFERENCE_SHARE = 0.05
# Seconds of reference loop timed right before and right after a set-up.
SETUP_REFERENCE_S = 0.02

_rng = random.Random(0)
_REFERENCE_OPERANDS = [Fraction(_rng.getrandbits(96), _rng.getrandbits(96) | 1) for _ in range(6000)]


def reference_work() -> int:
    """A fixed loop of Fraction arithmetic on ~100-bit operands and dict
    stores, the engine's own mix, that never calls the engine and takes
    about 5 ms.

    It samples how fast the host runs this kind of code at that moment.
    Job time divided by it cancels swings in host speed that hit both alike.
    Operands spread over a table of 6000 fractions track the job's slowdowns
    better than operands that stay in the fastest caches.
    """
    ops, n = _REFERENCE_OPERANDS, len(_REFERENCE_OPERANDS)
    table = {}
    acc = 0
    for k in range(300):
        a, b = ops[(k * 7919) % n], ops[(k * 104729 + 17) % n]
        c = a * b + a - b
        table[(k % 61, k % 13)] = c
        acc += c.denominator % 101
    return acc


def reference_sample(seconds: float) -> tuple[float, int]:
    """Repeat the reference loop for at least ``seconds``, at least once;
    return the time taken and the repetitions."""
    reps, t0 = 0, time.perf_counter()
    while True:
        reference_work()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed, reps


def timed_setup(workload: str, tally: Tally) -> tuple[Engine, float, float]:
    """A set-up, its seconds, and the mean reference-loop time around it."""
    before_s, before_reps = reference_sample(SETUP_REFERENCE_S)
    engine, seconds = setup(workload, tally)
    after_s, after_reps = reference_sample(SETUP_REFERENCE_S)
    return engine, seconds, (before_s + after_s) / (before_reps + after_reps)


def timed_loop(engine: Engine, workload: str, seed: int, seconds: float, tally: Tally):
    """Repeat whole passes of the job list for about ``seconds``.

    Around each job the reference loop is timed for ``REFERENCE_SHARE`` of
    the job's last duration.  Between jobs, once ``SETUP_INTERVAL_S`` has
    passed since the last set-up, a throwaway set-up is timed, so that
    set-up samples are spread over the run as job samples are.  The jobs
    keep using ``engine``.  Returns the job times and the mean reference-loop
    time around each job, and the same two for the set-ups.
    """
    jobs = job_list(workload, seed)
    durations, references, setups, setup_references = [], [], [], []
    last_duration = [0.0] * len(jobs)
    start = last_setup = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, job in enumerate(jobs):
            if time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
                _, setup_s, setup_reference_s = timed_setup(workload, tally)
                setups.append(setup_s)
                setup_references.append(setup_reference_s)
                last_setup = time.perf_counter()
            budget = REFERENCE_SHARE / 2 * last_duration[i]
            before_s, before_reps = reference_sample(budget)
            result = tally.run(engine, job)
            after_s, after_reps = reference_sample(budget)
            if result is not None:
                durations.append(result[0])
                references.append((before_s + after_s) / (before_reps + after_reps))
                last_duration[i] = result[0]
        if _out_of_time(start, pass_start, seconds):
            return durations, references, setups, setup_references


def _out_of_time(start: float, pass_start: float, seconds: float) -> bool:
    """Whether one more pass as long as the last would end after ``seconds``."""
    now = time.perf_counter()
    return now - start + (now - pass_start) > seconds


def crosscheck(engine: Engine, workload: str, seed: int, tally: Tally):
    """quintic-deep: the fixed-point oracle at d=1,2 against the golden counts."""
    if workload != "quintic-deep":
        return
    tally.attempted += 1
    try:
        values = [
            engine.pkg.oracle_n_value(4, d, (5,), seed=seed)[0] for d in (1, 2)
        ]
        golden.check_oracle_values("quintic", [_fmt(v) for v in values], tally.gold)
    except golden.GoldenMismatch as exc:
        tally.fail("oracle cross-check", str(exc))
    except Exception:
        tally.fail("oracle cross-check", traceback.format_exc())


def traced_rounds(engine: Engine, workload: str, seed: int, seconds: float, tally: Tally):
    """Rounds of one untraced and one traced pass over the job list.

    The pass that goes first alternates between rounds, so neither side
    always runs on a cooler cache.  Returns per-round layer values,
    per-round tracing overheads and the spans of every round.  The traced
    outputs must equal the untraced ones byte for byte.
    """
    jobs = job_list(workload, seed)
    rounds, overheads, spans = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        tracer = Tracer()
        passes = {}
        for with_tracer in (False, True) if len(rounds) % 2 == 0 else (True, False):
            if with_tracer:
                with instrumented(tracer):
                    passes[True] = [tally.run(engine, job, tracer) for job in jobs]
            else:
                passes[False] = [tally.run(engine, job) for job in jobs]
        plain, traced = passes[False], passes[True]
        if any(r is None for r in plain + traced):
            break
        for job, a, b in zip(jobs, plain, traced):
            if a[1] != b[1]:
                tally.fail(job.label, "traced output differs from the untraced output")
        untraced_s = sum(r[0] for r in plain)
        overheads.append((sum(r[0] for r in traced) - untraced_s) / untraced_s)
        rounds.append(layer_values(tracer))
        spans.append(tracer.spans)
        if _out_of_time(start, round_start, seconds):
            break
    return rounds, overheads, spans
