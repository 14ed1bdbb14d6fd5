"""The quadric identity: counts checked across a change in the number of factors.

The Segre quadric Q in P^3 is P1 x P1, and O(1) restricts to O(1,1).  So
(P^3 x X', O(2,0,...) + E) and (P1 x P1 x X', E') give the same counts, E'
the pullback of E (a first entry k becomes k, k), with N_(d,gamma) equal to
the sum of N_(a,b,gamma) over a + b = d.  D pulls back to D' and |beta| is
kept, so both sides truncate at the same D.  Where one side is refused, the
other must raise the same error type.

The two sides share no per-geometry table: one factor against two, or two
against three, so different rings, curve classes, level sum tables,
pairing weights and shifted inversions.  Concave summands on a product are
refused at the door, so the pairs with a concave summand are answered on
the P^3 side only; they are listed apart, with the P^3 values pinned.
"""

from itertools import combinations_with_replacement, product

from gwtwist import AmbientSpace, BundleSpec, EngineError, GeometrySpec, Unsupported, n_numbers

# X' = a point, P1 or P2; E has up to two summands whose first entry is
# -3..4 and whose other entries are 0..3; D = 6 on P^3 and 4 with X'
EXTRA_FACTORS = ((), (1,), (2,))
FIRST_ENTRIES = range(-3, 5)
OTHER_ENTRIES = range(0, 4)
RANKS = (0, 1, 2)

# every (X', E) that both sides answer
ANSWERED = [
    # P3
    ((), ()), ((), ((1,),)), ((), ((2,),)), ((), ((1,), (1,))),
    # P3 x P1
    ((1,), ()), ((1,), ((0, 1),)), ((1,), ((0, 2),)), ((1,), ((1, 0),)), ((1,), ((1, 1),)),
    ((1,), ((1, 2),)), ((1,), ((2, 0),)), ((1,), ((2, 1),)), ((1,), ((2, 2),)),
    ((1,), ((0, 1), (0, 1))), ((1,), ((0, 1), (1, 0))), ((1,), ((0, 1), (1, 1))),
    ((1,), ((0, 1), (2, 0))), ((1,), ((0, 1), (2, 1))), ((1,), ((0, 2), (1, 0))),
    ((1,), ((0, 2), (2, 0))), ((1,), ((1, 0), (1, 0))), ((1,), ((1, 0), (1, 1))),
    ((1,), ((1, 0), (1, 2))), ((1,), ((1, 1), (1, 1))),
    # P3 x P2
    ((2,), ()), ((2,), ((0, 1),)), ((2,), ((0, 2),)), ((2,), ((0, 3),)), ((2,), ((1, 0),)),
    ((2,), ((1, 1),)), ((2,), ((1, 2),)), ((2,), ((1, 3),)), ((2,), ((2, 0),)), ((2,), ((2, 1),)),
    ((2,), ((2, 2),)), ((2,), ((2, 3),)), ((2,), ((0, 1), (0, 1))), ((2,), ((0, 1), (0, 2))),
    ((2,), ((0, 1), (1, 0))), ((2,), ((0, 1), (1, 1))), ((2,), ((0, 1), (1, 2))),
    ((2,), ((0, 1), (2, 0))), ((2,), ((0, 1), (2, 1))), ((2,), ((0, 1), (2, 2))),
    ((2,), ((0, 2), (1, 0))), ((2,), ((0, 2), (1, 1))), ((2,), ((0, 2), (2, 0))),
    ((2,), ((0, 2), (2, 1))), ((2,), ((0, 3), (1, 0))), ((2,), ((0, 3), (2, 0))),
    ((2,), ((1, 0), (1, 0))), ((2,), ((1, 0), (1, 1))), ((2,), ((1, 0), (1, 2))),
    ((2,), ((1, 0), (1, 3))), ((2,), ((1, 1), (1, 1))), ((2,), ((1, 1), (1, 2))),
]

# the pairs answered on P^3 alone: E on P^3, with the P^3 counts N_1..N_6;
# (P^3, O(2) + O(-2)) is local P1 x P1 summed over a + b
CONCAVE = {
    ((-2,),): ["-4", "-9/2", "-328/27", "-777/16", "-30004/125", "-4073/3"],
    ((-1,),): ["0"] * 6,
    ((-1,), (-1,)): ["0"] * 6,
    ((-1,), (1,)): ["0"] * 6,
}


def _counts(factors, lines, D):
    """``n_numbers`` of the geometry, or the type of the error refusing it:
    a ValueError for a zero summand, else an engine error."""
    try:
        return n_numbers(GeometrySpec(AmbientSpace(factors), BundleSpec(lines)), D)
    except (EngineError, ValueError) as exc:
        return type(exc)


def _pairs():
    """(X', E, P^3 side, P1 x P1 side, D) over the sweep."""
    for extra in EXTRA_FACTORS:
        multidegrees = [(k,) + rest for k in FIRST_ENTRIES for rest in product(OTHER_ENTRIES, repeat=len(extra))]
        for rank in RANKS:
            for E in combinations_with_replacement(multidegrees, rank):
                quadric = ((2,) + (0,) * len(extra),)
                big = ((3,) + extra, quadric + E)
                small = ((1, 1) + extra, tuple((l[0],) + l for l in E))
                yield extra, E, big, small, 6 if not extra else 4


def test_quadric_in_p3_keeps_the_counts_summed_over_its_two_rulings():
    answered, refused, concave, mismatches = [], 0, {}, []
    for extra, E, big, small, D in _pairs():
        a, b = _counts(*big, D), _counts(*small, D)
        if isinstance(a, dict) and isinstance(b, dict):
            summed = {}
            for beta, N in b.items():
                d = (beta[0] + beta[1],) + beta[2:]
                summed[d] = summed.get(d, 0) + N
            answered.append((extra, E))
            if summed != a:
                mismatches.append((big, small, a, summed))
        elif isinstance(a, dict) and b is Unsupported and not extra:
            concave[E] = [f"{N.numerator}/{N.denominator}".removesuffix("/1") for N in a.values()]
        elif a == b:
            refused += 1
        else:
            mismatches.append((big, small, a, b))
    assert mismatches == []
    assert answered == ANSWERED
    assert concave == CONCAVE
    assert refused == 1107
