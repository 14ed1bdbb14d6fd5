"""Command-line front end.

Reads a geometry description from JSON, runs one stage of the engine, and
emits a deterministic JSON (or TSV) report.  Exit codes: 0 on success, 1 on
a domain error (the error object goes to standard error as JSON), 2 on a
usage error (a negative max degree, or `verify` at 0, which compares
nothing), I/O problems or a geometry file that cannot be read or fails
validation, 3 on a KeyError, TypeError or ValueError raised after the
geometry has loaded, which is an engine fault.  `verify` additionally exits
1 on a value mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import EngineError, Unsupported
from .invariants import (
    _solve,
    aspinwall_morrison,
    n_numbers,
    serre_dual_pair,
    solve_serre_factor,
)
from .localization import enumerate_graphs, oracle_n_value
from .mirror import _check_normalized
from .ring import format_fraction
from .series import qseries_to_obj
from .twist import check_conditions, geometry_from_obj, i_function


# Each command returns its JSON-ready report, its TSV lines (None when it has
# no TSV form) and its exit code; _run renders, prints and writes it.
def _check(g, args):
    return check_conditions(g).to_obj(), None, 0


def _ifun(g, args):
    return qseries_to_obj(i_function(g, args.max_degree)), None, 0


def _mirror_map(g, args):
    # checked on the series it was solved on
    m, S = _solve(g, args.max_degree)
    _check_normalized(S, m)
    return m.to_obj(), None, 0


def _invariants(g, args):
    N = n_numbers(g, args.max_degree)
    try:
        n_int = aspinwall_morrison(g, N)
    except Unsupported:
        n_int = None
    rows = [
        {
            "degree": ",".join(map(str, beta)),
            "N": format_fraction(value),
            "n": None if n_int is None else format_fraction(n_int[beta[0]]),
        }
        for beta, value in N.items()
    ]
    tsv = ["degree\tN\tn"] + [f"{row['degree']}\t{row['N']}\t{row['n'] or '-'}" for row in rows]
    return {"D": args.max_degree, "rows": rows}, tsv, 0


def _serre(g, args):
    pair = serre_dual_pair(g, args.max_degree)
    return {"sign": pair.sign, **solve_serre_factor(pair).to_obj()}, None, 0


def _oracle_draws(g, args, refusal: str):
    """The single factor r, the summand degrees, and the lazy oracle draws
    (d, value, formatted weights) for d <= min(2, D); a product ambient is
    refused with ``refusal`` at once."""
    if g.space.nfactors != 1:
        raise Unsupported(refusal)
    r, lines = g.space.factors[0], tuple(l[0] for l in g.bundle.lines)

    def draws():
        for d in range(1, min(2, args.max_degree) + 1):
            value, weights = oracle_n_value(r, d, lines, seed=args.seed)
            yield d, value, [format_fraction(w) for w in weights.values]

    return r, lines, draws()


def _oracle(g, args):
    r, lines, draws = _oracle_draws(
        g, args, "the fixed-point oracle runs over a single projective space"
    )
    reports = [
        {
            "geometry": {"ambient": [r], "bundle": [{"l": [l]} for l in lines]},
            "d": d,
            "value": format_fraction(value),
            "weights_used": weights,
            "graphs_evaluated": len(enumerate_graphs(r, d)),
        }
        for d, value, weights in draws
    ]
    return {"seed": args.seed, "reports": reports}, None, 0


def _verify(g, args):
    _, _, draws = _oracle_draws(g, args, "verification runs over a single projective space")
    # counts are truncation-stable, so the compared degrees are enough
    pipeline = n_numbers(g, min(2, args.max_degree))
    rows = [
        {
            "d": d,
            "pipeline": format_fraction(pipeline[(d,)]),
            "oracle": format_fraction(value),
            "weights": weights,
            "match": pipeline[(d,)] == value,
        }
        for d, value, weights in draws
    ]
    status = "MATCH" if all(row["match"] for row in rows) else "MISMATCH"
    tsv = ["d\tpipeline\toracle\tmatch"]
    tsv += [f"{row['d']}\t{row['pipeline']}\t{row['oracle']}\t{row['match']}" for row in rows]
    report = {"status": status, "D": args.max_degree, "rows": rows}
    return report, tsv + [status], 0 if status == "MATCH" else 1


COMMANDS = {
    "check": _check,
    "ifun": _ifun,
    "mirror-map": _mirror_map,
    "invariants": _invariants,
    "serre": _serre,
    "oracle": _oracle,
    "verify": _verify,
}


def _run(g, args) -> int:
    report, tsv, code = COMMANDS[args.cmd](g, args)
    if args.format == "tsv" and tsv is not None:
        text, ext = "\n".join(tsv) + "\n", "tsv"
    else:
        text, ext = json.dumps(report, indent=2) + "\n", "json"
    if args.out:
        # written first: a run whose --out fails prints no report
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.cmd}.{ext}").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return code


# built once: parsing leaves the parser as it was
_PARSER = argparse.ArgumentParser(
    prog="gwtwist",
    description="Exact genus-zero curve counts for split-bundle geometries",
)
_PARSER.add_argument("--geometry", required=True, help="geometry JSON file")
_PARSER.add_argument("--cmd", required=True, choices=COMMANDS)
_PARSER.add_argument("--max-degree", type=int, default=6, help="series truncation degree")
_PARSER.add_argument("--format", choices=("json", "tsv"), default="json")
_PARSER.add_argument("--seed", type=int, default=0, help="oracle weight seed")
_PARSER.add_argument("--out", default=None, help="directory for report files")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.max_degree < 0:
        print("max degree must be non-negative", file=sys.stderr)
        return 2
    if args.cmd == "verify" and args.max_degree == 0:
        # a verdict over no degrees would be a vacuous MATCH
        print("verify needs a max degree of at least 1", file=sys.stderr)
        return 2
    g = None
    try:
        with open(args.geometry, "r", encoding="utf-8") as fh:
            g = geometry_from_obj(json.load(fh))
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
