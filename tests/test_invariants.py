from fractions import Fraction

import pytest

from gwtwist import (
    AmbientSpace,
    BundleSpec,
    GeometrySpec,
    Infeasible,
    NotNormalized,
    QSeries,
    Unsupported,
    aspinwall_morrison,
    extract_descendants,
    i_function,
    j_ambient,
    n_numbers,
    normalized_series,
    qseries_to_obj,
    serre_dual_pair,
    solve_serre_factor,
)
from gwtwist.invariants import SerrePair
from gwtwist.series import HbarLaurent
from gwtwist.twist import CONVEX, classify

P1 = AmbientSpace((1,))
P3 = AmbientSpace((3,))
P4 = AmbientSpace((4,))

QUINTIC = GeometrySpec(P4, BundleSpec(((5,),)))
LOCAL_P1 = GeometrySpec(P1, BundleSpec(((-1,), (-1,))))


def test_descendants_from_ambient_series():
    table = extract_descendants(j_ambient(P1, 2))
    # degree-one coefficient of hbar^-2 is the unit class
    assert table.value((1,), 0, (0,)) == Fraction(1)
    assert table.value((1,), 1, (0,)) == Fraction(0)


def test_descendants_skip_origin():
    table = extract_descendants(j_ambient(P1, 2))
    assert all(key[0] != (0,) for key in table.entries)


def test_descendants_reject_unnormalized_input():
    with pytest.raises(NotNormalized):
        extract_descendants(i_function(QUINTIC, 1))


def test_quintic_single_cover_numbers():
    N = n_numbers(QUINTIC, 2)
    assert N[(1,)] == Fraction(2875)
    assert N[(2,)] == Fraction(4876875, 8)


def test_n_numbers_truncation_stable():
    low = n_numbers(QUINTIC, 2)
    high = n_numbers(QUINTIC, 3)
    for beta, value in low.items():
        assert high[beta] == value


def test_local_geometry_numbers():
    N = n_numbers(LOCAL_P1, 4)
    for d in range(1, 5):
        assert N[(d,)] == Fraction(1, d**3)


def test_multiple_cover_correction_quintic():
    N = n_numbers(QUINTIC, 3)
    n = aspinwall_morrison(QUINTIC, N)
    assert n[1] == Fraction(2875)
    assert n[2] == Fraction(609250)
    assert n[3] == Fraction(317206375)


def test_multiple_cover_correction_local():
    N = n_numbers(LOCAL_P1, 4)
    n = aspinwall_morrison(LOCAL_P1, N)
    assert n[1] == Fraction(1)
    assert n[2] == n[3] == n[4] == Fraction(0)


def test_multiple_cover_gate_dimension():
    g = GeometrySpec(AmbientSpace((5,)), BundleSpec(((-1,), (-5,))))
    N = n_numbers(g, 2)
    with pytest.raises(Unsupported):
        aspinwall_morrison(g, N)


def test_multiple_cover_gate_product_ambient():
    sp = AmbientSpace((1, 1))
    g = GeometrySpec(sp, BundleSpec(((1, 0),)))
    with pytest.raises(Unsupported):
        aspinwall_morrison(g, {})


def test_normalized_series_requires_nonnegative_weights():
    g = GeometrySpec(P1, BundleSpec(((-3,), (-3,))))
    with pytest.raises(Unsupported):
        normalized_series(g, 2)


def test_dual_pair_p1_hyperplane():
    g = GeometrySpec(P1, BundleSpec(((1,),)))
    pair = serre_dual_pair(g, 2)
    assert pair.sign == -1
    h = P1.hyperplane(0)
    J = j_ambient(P1, 2)
    # primary degree 1: J(1) * (h + hbar); dual: -J(1) * (-h) * (-h + hbar)... k in {0}
    from gwtwist.series import HbarLaurent

    expected_prime = J.term((1,)) * HbarLaurent.linear(P1, h, 1)
    expected_dual = (J.term((1,)) * HbarLaurent(P1, {0: -h})).scale(-1)
    assert pair.i_prime.term((1,)) == expected_prime
    assert pair.i_prime_dual.term((1,)) == expected_dual
    assert pair.i_prime.term((0,)) == HbarLaurent.unit(P1)
    assert pair.i_prime_dual.term((0,)) == HbarLaurent.unit(P1).scale(-1)


def test_dual_pair_even_rank_sign():
    g = GeometrySpec(P3, BundleSpec(((1,), (1,))))
    assert serre_dual_pair(g, 1).sign == 1


def test_dual_pair_rejects_concave():
    with pytest.raises(Unsupported):
        serre_dual_pair(LOCAL_P1, 2)


def test_serre_factor_empty_bundle():
    g = GeometrySpec(P1, BundleSpec(()))
    sol = solve_serre_factor(serre_dual_pair(g, 3))
    assert sol.phi.constant_term == Fraction(1)
    assert all(hl.is_zero for hl in sol.residual.terms.values())
    assert sol.map.is_zero
    assert sol.string.is_zero


def test_serre_factor_p1_hyperplane():
    g = GeometrySpec(P1, BundleSpec(((1,),)))
    sol = solve_serre_factor(serre_dual_pair(g, 4))
    assert all(hl.is_zero for hl in sol.residual.terms.values())
    assert sol.phi.constant_term == Fraction(-1)
    assert sol.string.coeff((1,)) == Fraction(-1)
    assert sol.map.is_zero


def test_serre_factor_obstruction_on_p3():
    g = GeometrySpec(P3, BundleSpec(((1,), (1,))))
    with pytest.raises(Infeasible) as info:
        solve_serre_factor(serre_dual_pair(g, 4))
    assert info.value.payload()["first_obstructed_degree"] == 1


def test_dual_pair_refuses_failed_positivity():
    g = GeometrySpec(P1, BundleSpec(((3,),)))
    with pytest.raises(Unsupported) as info:
        serre_dual_pair(g, 3)
    assert info.value.payload()["nonneg"] == [False]


def _reference_serre_dual_pair(g: GeometrySpec, max_degree: int) -> SerrePair:
    space = g.space
    if any(classify(l) != CONVEX for l in g.bundle.lines):
        raise Unsupported("dual pair construction needs a convex bundle")
    if g.external_j is not None:
        J = g.external_j.truncate(max_degree)
    else:
        J = j_ambient(space, max_degree)
    sign = -1 if g.bundle.rank % 2 else 1
    prime: dict = {}
    dual: dict = {}
    for beta in J.curve_classes():
        if sum(beta) == 0:
            prime[beta] = HbarLaurent.unit(space)
            dual[beta] = HbarLaurent.unit(space).scale(sign)
            continue
        hp = J.term(beta)
        hd = J.term(beta).scale(sign)
        for l in g.bundle.lines:
            pairing = sum(li * di for li, di in zip(l, beta))
            c1 = space.divisor(l)
            for k in range(1, pairing + 1):
                hp = hp * HbarLaurent.linear(space, c1, k)
            for k in range(-pairing + 1, 1):
                hd = hd * HbarLaurent.linear(space, -c1, k)
        prime[beta] = hp
        dual[beta] = hd
    return SerrePair(
        i_prime=QSeries(space, max_degree, prime),
        i_prime_dual=QSeries(space, max_degree, dual),
        sign=sign,
    )


def _external_j_p1():
    # an external J that is not the ambient series: every beta != 0 term halved
    ambient = j_ambient(P1, 6)
    terms = {
        b: hl if sum(b) == 0 else hl.scale(Fraction(1, 2))
        for b, hl in ambient.terms.items()
    }
    return GeometrySpec(P1, BundleSpec(((1,),)), external_j=QSeries(P1, 6, terms))


SERRE_CASES = {
    "quintic": (lambda: QUINTIC, 8),
    "bicubic": (lambda: GeometrySpec(AmbientSpace((2, 2)), BundleSpec(((3, 3),))), 4),
    "p3-o1-o1": (lambda: GeometrySpec(P3, BundleSpec(((1,), (1,)))), 6),
    "p1xp1-o22": (lambda: GeometrySpec(AmbientSpace((1, 1)), BundleSpec(((2, 2),))), 4),
    "p1xp1-zero-pairings": (
        lambda: GeometrySpec(AmbientSpace((1, 1)), BundleSpec(((1, 0), (0, 2)))),
        4,
    ),
    "external-j": (_external_j_p1, 5),
    "empty-bundle": (lambda: GeometrySpec(AmbientSpace((2,)), BundleSpec(())), 6),
}


@pytest.mark.parametrize("name", sorted(SERRE_CASES))
def test_dual_pair_tables_match_from_scratch_loops(name):
    make, D = SERRE_CASES[name]
    g = make()
    pair, ref = serre_dual_pair(g, D), _reference_serre_dual_pair(g, D)
    assert pair.sign == ref.sign
    for got, want in [(pair.i_prime, ref.i_prime), (pair.i_prime_dual, ref.i_prime_dual)]:
        assert got == want
        assert qseries_to_obj(got) == qseries_to_obj(want)
