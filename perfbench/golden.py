"""Golden-value gates for every job a workload runs.

``golden.json`` holds two kinds of expected values, each tagged with its
source: known curve counts (Candelas, de la Ossa, Green and Parkes 1991 for
the quintic; the bicubic values ROADMAP.md names as goldens), and reference
outputs recorded from the engine where no such value exists.
Every check raises ``GoldenMismatch`` naming the first value that differs.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


class GoldenMismatch(Exception):
    """An output differs from its expected value."""


def load() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _expect(label: str, got, want):
    if got != want:
        raise GoldenMismatch(f"{label}: got {got!r}, expected {want!r}")


def multiple_cover_sum(n: dict[int, Fraction], d: int) -> Fraction:
    """N_d = sum over k | d of n_{d/k} / k^3."""
    return sum((n[d // k] / k**3 for k in range(1, d + 1) if d % k == 0), Fraction(0))


def check_quintic(output: dict, gold: dict, degree: int):
    """n_numbers + aspinwall_morrison on the quintic through ``degree``.

    n_d must equal the golden table; N_d must equal the multiple-cover sum
    of the golden n, which checks the pipeline output independently of the
    engine's own inversion.
    """
    table = {**gold["quintic_n"]["values"], **gold["quintic_n_reference"]["values"]}
    want_n = {int(d): Fraction(v) for d, v in table.items() if int(d) <= degree}
    got_N = {int(d): Fraction(v) for d, v in output["N"].items()}
    got_n = {int(d): Fraction(v) for d, v in output["n"].items()}
    _expect("quintic degrees", sorted(got_n), list(range(1, degree + 1)))
    for d in sorted(got_n):
        _expect(f"quintic n_{d}", got_n[d], want_n.get(d))
        _expect(f"quintic N_{d}", got_N[d], multiple_cover_sum(want_n, d))


def check_bicubic(output: dict, gold: dict, degree: int):
    """n_numbers on the bicubic: every class through ``degree``."""
    got = {beta: Fraction(v) for beta, v in output["N"].items()}

    def within(beta: str) -> bool:
        return sum(int(x) for x in beta.split(",")) <= degree

    for source in ("bicubic_N", "bicubic_N_reference"):
        for beta, want in gold[source]["values"].items():
            if within(beta):
                _expect(f"bicubic N_({beta}) [{source}]", got.get(beta), Fraction(want))
    reference = gold["bicubic_N_reference"]["values"]
    _expect("bicubic classes", sorted(got), sorted(b for b in reference if within(b)))


def check_oracle_values(geometry: str, values: list, gold: dict):
    """Graph-sum values N_1, N_2 against the expected pipeline counts."""
    want = [Fraction(v) for v in gold["oracle_N"][geometry]]
    _expect(f"{geometry} N_1, N_2", [Fraction(v) for v in values], want)


def ifun_digest(obj: dict) -> str:
    """Digest of a serialized series' mathematical content.

    Coefficients are normalized as fractions, so the digest pins the values
    rather than the spelling of the report.
    """
    canon = [
        [
            entry["beta"],
            [
                [h["pow"], [[c["exp"], str(Fraction(c["coeff"]))] for c in h["class"]]]
                for h in entry["hbar"]
            ],
        ]
        for entry in obj["terms"]
    ]
    text = json.dumps([obj["D"], canon], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_cli(cmd: str, geometry: str, seed: int, rc: int, out: str, err: str, gold: dict):
    """Check one in-process CLI job: exit code, then its report."""
    label = f"{cmd} {geometry}"
    if cmd == "serre" and geometry in gold["serre_infeasible"]:
        _expect(f"{label} exit code", rc, 1)
        _expect(f"{label} payload", json.loads(err), gold["serre_infeasible"][geometry])
        return
    _expect(f"{label} exit code", rc, 0)
    _expect(f"{label} stderr", err, "")
    report = json.loads(out)
    if cmd == "check":
        for key, want in gold["check"][geometry].items():
            _expect(f"{label} {key}", report.get(key), want)
    elif cmd == "ifun":
        _expect(f"{label} digest", ifun_digest(report), gold["ifun_digest"][geometry])
    elif cmd == "invariants":
        want = gold["invariants"][geometry]
        _expect(f"{label} N", [Fraction(r["N"]) for r in report["rows"]], [Fraction(v) for v in want["N"]])
        got_n = [None if r["n"] is None else Fraction(r["n"]) for r in report["rows"]]
        want_n = [None] * len(got_n) if want["n"] is None else [Fraction(v) for v in want["n"]]
        _expect(f"{label} n", got_n, want_n)
    elif cmd == "serre":
        _expect(f"{label} residual_zero", report["residual_zero"], True)
        _expect(f"{label} residual terms", [t["hbar"] for t in report["residual"]["terms"]], [[]] * len(report["residual"]["terms"]))
    elif cmd == "oracle":
        _expect(f"{label} seed", report["seed"], seed)
        reports = report["reports"]
        check_oracle_values(geometry, [r["value"] for r in reports], gold)
        _expect(f"{label} graphs", [r["graphs_evaluated"] for r in reports], gold["oracle_graphs"][geometry])
        for r in reports:
            w = r["weights_used"]
            _expect(f"{label} weights distinct", len(set(w)), len(w))
    elif cmd == "verify":
        _expect(f"{label} status", report["status"], "MATCH")
        rows = report["rows"]
        _expect(f"{label} pipeline == oracle", [r["pipeline"] for r in rows], [r["oracle"] for r in rows])
        check_oracle_values(geometry, [r["pipeline"] for r in rows], gold)
    else:
        raise GoldenMismatch(f"no golden check for command {cmd!r}")
