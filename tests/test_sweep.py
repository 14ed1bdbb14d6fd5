"""The pipeline against the fixed-point oracle across the geometry space.

Every geometry in one P^r with r = 1..6 and one to three line summands of
degrees in {-3, -2, -1, 1, 2, 3, 4, 5} that passes the positivity condition
and that the oracle accepts: 243 of them.  At d = 1, 2 the pipeline's N_d
must equal the oracle's, with no geometry refused.  The oracle shares no
code with the series route, and its weights are drawn with seed 0.
"""

from itertools import combinations_with_replacement

from gwtwist import (
    AmbientSpace,
    BundleSpec,
    EngineError,
    GeometrySpec,
    Unsupported,
    check_conditions,
    n_numbers,
    oracle_n_value,
)

DEGREES = (-3, -2, -1, 1, 2, 3, 4, 5)


def _sweep():
    """(r, lines, oracle N_1 and N_2) for every admissible geometry."""
    for r in range(1, 7):
        for rank in range(1, 4):
            for lines in combinations_with_replacement(DEGREES, rank):
                g = GeometrySpec(AmbientSpace((r,)), BundleSpec(tuple((l,) for l in lines)))
                if not check_conditions(g).all_nonneg:
                    continue
                try:
                    oracle = [oracle_n_value(r, d, lines, seed=0)[0] for d in (1, 2)]
                except Unsupported:
                    continue
                yield g, oracle


def test_pipeline_matches_oracle_on_every_single_projective_space_geometry():
    count, mismatches, refusals = 0, [], []
    for g, oracle in _sweep():
        count += 1
        try:
            N = n_numbers(g, 2)
        except EngineError as exc:
            refusals.append((g, exc.payload()))
            continue
        if [N[(1,)], N[(2,)]] != oracle:
            mismatches.append((g, N, oracle))
    assert count == 243
    assert mismatches == []
    assert refusals == []
