"""Command-line front end.

Reads a geometry description from JSON, runs one stage of the engine, and
emits a deterministic JSON (or TSV) report.  Exit codes: 0 on success, 1 on
a domain error (the error object goes to standard error as JSON), 2 on I/O
problems or a geometry file that cannot be read or fails validation, 3 on a
KeyError, TypeError or ValueError raised after the geometry has loaded,
which is an engine fault.  `verify` additionally exits 1 on a value mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import EngineError, Unsupported
from .invariants import (
    _require_nonneg,
    aspinwall_morrison,
    n_numbers,
    serre_dual_pair,
    solve_serre_factor,
)
from .localization import enumerate_graphs, oracle_n_value
from .mirror import solve_mirror_map
from .ring import euler_class, format_fraction
from .series import qseries_to_obj
from .twist import check_conditions, geometry_from_obj, i_function

COMMANDS = ("check", "ifun", "mirror-map", "invariants", "serre", "oracle", "verify")


def _load_geometry(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return geometry_from_obj(obj)


def _beta_label(beta) -> str:
    if len(beta) == 1:
        return str(beta[0])
    return ",".join(str(d) for d in beta)


def _invariant_rows(g, max_degree: int):
    N = n_numbers(g, max_degree)
    try:
        n_int = aspinwall_morrison(g, N)
    except Unsupported:
        n_int = None
    rows = []
    for beta, value in N.items():
        row = {
            "degree": _beta_label(beta),
            "N": format_fraction(value),
            "n": None,
        }
        if n_int is not None:
            row["n"] = format_fraction(n_int[beta[0]])
        rows.append(row)
    return rows


def _cmd_invariants(g, args):
    rows = _invariant_rows(g, args.max_degree)
    if args.format == "tsv":
        lines = ["degree\tN\tn"]
        for row in rows:
            lines.append(
                "\t".join([row["degree"], row["N"], row["n"] if row["n"] else "-"])
            )
        return "\n".join(lines) + "\n", 0
    return _dump_json({"D": args.max_degree, "rows": rows}), 0


def _cmd_verify(g, args):
    if g.space.nfactors != 1:
        raise Unsupported("verification runs over a single projective space")
    top = min(2, args.max_degree)
    # counts are truncation-stable, so the compared degrees are enough
    pipeline = n_numbers(g, top) if top >= 1 else {}
    lines = tuple(l[0] for l in g.bundle.lines)
    rows = []
    status = "MATCH"
    for d in range(1, top + 1):
        engine_value = pipeline[(d,)]
        oracle_value, weights = oracle_n_value(
            g.space.factors[0], d, lines, seed=args.seed
        )
        ok = engine_value == oracle_value
        if not ok:
            status = "MISMATCH"
        rows.append(
            {
                "d": d,
                "pipeline": format_fraction(engine_value),
                "oracle": format_fraction(oracle_value),
                "weights": [format_fraction(w) for w in weights.values],
                "match": ok,
            }
        )
    if args.format == "tsv":
        out = ["d\tpipeline\toracle\tmatch"]
        for row in rows:
            out.append(
                f"{row['d']}\t{row['pipeline']}\t{row['oracle']}\t{row['match']}"
            )
        out.append(status)
        return "\n".join(out) + "\n", 0 if status == "MATCH" else 1
    payload = {"status": status, "D": args.max_degree, "rows": rows}
    return _dump_json(payload), 0 if status == "MATCH" else 1


def _cmd_oracle(g, args):
    if g.space.nfactors != 1:
        raise Unsupported("the fixed-point oracle runs over a single projective space")
    r = g.space.factors[0]
    lines = tuple(l[0] for l in g.bundle.lines)
    reports = []
    for d in range(1, min(2, args.max_degree) + 1):
        value, weights = oracle_n_value(r, d, lines, seed=args.seed)
        reports.append(
            {
                "geometry": {"ambient": [r], "bundle": [{"l": [l]} for l in lines]},
                "d": d,
                "value": format_fraction(value),
                "weights_used": [format_fraction(w) for w in weights.values],
                "graphs_evaluated": len(enumerate_graphs(r, d)),
            }
        )
    return _dump_json({"seed": args.seed, "reports": reports}), 0


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _run(g, args) -> int:
    if args.cmd == "check":
        report = check_conditions(g)
        return _emit(args, _dump_json(report.to_obj()), 0)
    if args.cmd == "ifun":
        series = i_function(g, args.max_degree)
        return _emit(args, _dump_json(qseries_to_obj(series)), 0)
    if args.cmd == "mirror-map":
        _require_nonneg(g)
        I = i_function(g, args.max_degree)
        m = solve_mirror_map(I, euler_class(g.space, g.bundle))
        return _emit(args, _dump_json(m.to_obj()), 0)
    if args.cmd == "invariants":
        text, code = _cmd_invariants(g, args)
        return _emit(args, text, code)
    if args.cmd == "serre":
        pair = serre_dual_pair(g, args.max_degree)
        solution = solve_serre_factor(pair)
        payload = {"sign": pair.sign, **solution.to_obj()}
        return _emit(args, _dump_json(payload), 0)
    if args.cmd == "oracle":
        text, code = _cmd_oracle(g, args)
        return _emit(args, text, code)
    text, code = _cmd_verify(g, args)
    return _emit(args, text, code)


def _emit(args, text: str, code: int) -> int:
    sys.stdout.write(text)
    if args.out:
        ext = "tsv" if args.format == "tsv" and args.cmd in ("invariants", "verify") else "json"
        path = Path(args.out) / f"{args.cmd}.{ext}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwtwist",
        description="Exact genus-zero curve counts for split-bundle geometries",
    )
    parser.add_argument("--geometry", required=True, help="geometry JSON file")
    parser.add_argument("--cmd", required=True, choices=COMMANDS)
    parser.add_argument(
        "--max-degree", type=int, default=6, help="series truncation degree"
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--seed", type=int, default=0, help="oracle weight seed")
    parser.add_argument("--out", default=None, help="directory for report files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_degree < 0:
        print("max degree must be non-negative", file=sys.stderr)
        return 2
    g = None
    try:
        g = _load_geometry(args.geometry)
        return _run(g, args)
    except EngineError as exc:
        sys.stderr.write(json.dumps(exc.payload()) + "\n")
        return 1
    except (OSError, KeyError, TypeError, ValueError) as exc:
        # a JSONDecodeError is a ValueError; once the geometry has loaded,
        # only I/O errors are the input's fault
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2 if g is None or isinstance(exc, OSError) else 3


if __name__ == "__main__":
    sys.exit(main())
