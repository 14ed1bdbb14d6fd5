"""The hyperplane identity of the source paper, on the counts themselves.

A complete intersection Y in X cut out by a section of O(1) is the same
variety as the smaller ambient: a hyperplane of P^{r+1} is P^r, and a
hyperplane of the first factor of P^{a+1} x P^b is P^a x P^b.  So
(P^{r+1}, O(1) + E) and (P^r, E) must give the same ``n_numbers`` at every
degree, and so must (P^{a+1} x P^b, O(1,0) + E) and (P^a x P^b, E).
Swapping the two factors of P^a x P^b, and every multidegree with them,
must swap the curve classes of the counts.  Where one side is refused, the
other must raise the same error type.

The two sides share the solver but not the per-geometry code: different
ambient tables, multiplication tables, top classes, positivity and Fano
index inputs.  ``tests/test_acceptance.py`` compares only the series of P4
with O(1) against J of P3.
"""

from itertools import combinations_with_replacement, product

from gwtwist import AmbientSpace, BundleSpec, EngineError, GeometrySpec, n_numbers

# one P^r: r = 1..6, one to three summands of degree -3..5, at D = 6
ONE_FACTOR_DIMS = (1, 2, 3, 4, 5, 6)
ONE_FACTOR_DEGREES = (-3, -2, -1, 0, 1, 2, 3, 4, 5)
ONE_FACTOR_RANKS = (1, 2, 3)
ONE_FACTOR_D = 6

# P^a x P^b: a, b = 1..3, zero to two summands with entries -1..3, at D = 3
PRODUCT_DIMS = (1, 2, 3)
PRODUCT_ENTRIES = (-1, 0, 1, 2, 3)
PRODUCT_RANKS = (0, 1, 2)
PRODUCT_D = 3

# factor swaps: a, b = 1..3, one or two summands with entries 0..3, at D = 3
SWAP_DIMS = (1, 2, 3)
SWAP_ENTRIES = (0, 1, 2, 3)
SWAP_RANKS = (1, 2)
SWAP_D = 3


def _counts(factors, lines, D):
    """``n_numbers`` of the geometry, or the type of the error refusing it:
    a ValueError for a zero summand, else an engine error."""
    try:
        return n_numbers(GeometrySpec(AmbientSpace(factors), BundleSpec(lines)), D)
    except (EngineError, ValueError) as exc:
        return type(exc)


def _bundles(multidegrees, ranks):
    for rank in ranks:
        yield from combinations_with_replacement(multidegrees, rank)


def _compare(pairs, D):
    """(agreed, refused alike, mismatches) over pairs of (factors, lines)."""
    agreed, refused, mismatches = 0, 0, []
    for big, small in pairs:
        a, b = _counts(*big, D), _counts(*small, D)
        if a != b:
            mismatches.append((big, small, a, b))
        elif isinstance(a, dict):
            agreed += 1
        else:
            refused += 1
    return agreed, refused, mismatches


def test_hyperplane_of_one_projective_space_keeps_the_counts():
    degrees = [(l,) for l in ONE_FACTOR_DEGREES]
    pairs = [
        (((r + 1,), ((1,),) + lines), ((r,), lines))
        for r in ONE_FACTOR_DIMS
        for lines in _bundles(degrees, ONE_FACTOR_RANKS)
    ]
    agreed, refused, mismatches = _compare(pairs, ONE_FACTOR_D)
    assert mismatches == []
    assert (agreed, refused) == (272, 1042)


def test_hyperplane_of_a_product_factor_keeps_the_counts():
    multidegrees = list(product(PRODUCT_ENTRIES, repeat=2))
    pairs = [
        (((a + 1, b), ((1, 0),) + lines), ((a, b), lines))
        for a in PRODUCT_DIMS
        for b in PRODUCT_DIMS
        for lines in _bundles(multidegrees, PRODUCT_RANKS)
    ]
    agreed, refused, mismatches = _compare(pairs, PRODUCT_D)
    assert mismatches == []
    assert (agreed, refused) == (445, 2714)


def test_swapping_the_factors_swaps_the_curve_classes():
    multidegrees = list(product(SWAP_ENTRIES, repeat=2))
    counted, refused, mismatches = 0, 0, []
    for a in SWAP_DIMS:
        for b in SWAP_DIMS:
            for lines in _bundles(multidegrees, SWAP_RANKS):
                got = _counts((a, b), lines, SWAP_D)
                swapped = _counts((b, a), tuple(l[::-1] for l in lines), SWAP_D)
                if isinstance(swapped, dict):
                    swapped = {beta[::-1]: N for beta, N in swapped.items()}
                    counted += 1
                else:
                    refused += 1
                if got != swapped:
                    mismatches.append(((a, b), lines, got, swapped))
    assert mismatches == []
    assert (counted, refused) == (436, 932)
