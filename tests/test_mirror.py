import random
from fractions import Fraction

import pytest

from gwtwist import (
    AmbientSpace,
    BundleSpec,
    GeometrySpec,
    MirrorMap,
    ScalarQSeries,
    StructureViolation,
    apply_transform,
    euler_class,
    i_function,
    j_ambient,
    normal_form,
    solve_mirror_map,
    z_closed_form,
    z_from_log,
)
from gwtwist.series import HbarLaurent

P1 = AmbientSpace((1,))
P4 = AmbientSpace((4,))


def _quintic(max_degree):
    g = GeometrySpec(P4, BundleSpec(((5,),)))
    return i_function(g, max_degree), euler_class(P4, g.bundle)


def test_normal_form_of_ambient_series():
    nf = normal_form(j_ambient(P4, 3), P4.unit())
    assert nf.is_normalized
    assert all(s.is_zero for s in nf.divisor_part)


def test_normal_form_quintic_values():
    S, ctop = _quintic(2)
    nf = normal_form(S, ctop)
    assert nf.g.coeff((1,)) == Fraction(120)
    assert nf.g.coeff((2,)) == Fraction(113400)
    assert nf.divisor_part[0].coeff((1,)) == Fraction(770)
    assert nf.divisor_part[0].coeff((2,)) == Fraction(810225)
    assert not nf.is_normalized


def test_normal_form_rejects_nonmultiple_scalar_part():
    S, ctop = _quintic(1)
    spoiled = dict(S.terms)
    bump = HbarLaurent(P4, {0: P4.monomial((2,), Fraction(1))})
    spoiled[(1,)] = spoiled[(1,)] + bump
    bad = type(S)(P4, S.max_degree, spoiled)
    with pytest.raises(StructureViolation):
        normal_form(bad, ctop)


def test_normal_form_rejects_bad_divisor_residual():
    # on P1 x P1 with a (1,1) section the hbar^-1 part is p1+p2, and
    # (p1+p2) * ctop = 2 p1 p2 cannot be written as ctop * (divisor)
    sp = AmbientSpace((1, 1))
    g = GeometrySpec(sp, BundleSpec(((1, 1),)))
    S = i_function(g, 1)
    with pytest.raises(StructureViolation):
        normal_form(S, euler_class(sp, g.bundle))


def test_normal_form_rejects_positive_hbar_power():
    # P1 with O(3) fails positivity: the degree-1 term reaches hbar^1
    g = GeometrySpec(P1, BundleSpec(((3,),)))
    S = i_function(g, 2)
    with pytest.raises(StructureViolation) as info:
        normal_form(S, euler_class(P1, g.bundle))
    assert info.value.context["beta"] == [1]
    with pytest.raises(StructureViolation):
        solve_mirror_map(S, euler_class(P1, g.bundle))


def test_normal_form_allows_annihilated_residual():
    # with a (1,0) section the residual p2 component is killed by ctop = p1
    sp = AmbientSpace((1, 1))
    g = GeometrySpec(sp, BundleSpec(((1, 0),)))
    S = i_function(g, 2)
    nf = normal_form(S, euler_class(sp, g.bundle))
    assert nf.is_normalized


def test_apply_transform_identity():
    S, _ = _quintic(2)
    assert apply_transform(S, MirrorMap.zero(P4, 2)) == S


def test_solve_mirror_map_quintic():
    S, ctop = _quintic(3)
    m = solve_mirror_map(S, ctop)
    assert m.f0.coeff((1,)) == Fraction(-120)
    assert m.f1[0].coeff((1,)) == Fraction(-770)
    T = apply_transform(S, m)
    assert normal_form(T, ctop).is_normalized


def test_solve_mirror_map_zero_for_trivial_cases():
    for factors, lines in [
        ((4,), ((1,),)),
        ((3,), ((1,), (1,))),
        ((1,), ((-1,), (-1,))),
        ((5,), ((-1,), (-5,))),
    ]:
        sp = AmbientSpace(factors)
        g = GeometrySpec(sp, BundleSpec(tuple(lines)))
        S = i_function(g, 3)
        m = solve_mirror_map(S, euler_class(sp, g.bundle))
        assert m.is_zero, (factors, lines)


def _reference_solve_mirror_map(S, ctop):
    """The order-by-order solver: one full transform per degree."""
    space, D = S.space, S.max_degree
    m = MirrorMap.zero(space, D)
    for level in range(1, D + 1):
        nf = normal_form(apply_transform(S, m), ctop)
        f0 = m.f0
        f1 = list(m.f1)
        changed = False
        for beta, g_beta in nf.g.terms.items():
            if sum(beta) == level and g_beta != 0:
                f0 = f0.set_coeff(beta, -g_beta)
                changed = True
        for i, part in enumerate(nf.divisor_part):
            for beta, c in part.terms.items():
                if sum(beta) == level and c != 0:
                    f1[i] = f1[i].set_coeff(beta, -c)
                    changed = True
        if changed:
            m = MirrorMap(f0=f0, f1=tuple(f1))
    final = normal_form(apply_transform(S, m), ctop)
    if not final.is_normalized:
        raise StructureViolation("solver failed to normalize the series")
    return m


@pytest.mark.parametrize(
    "factors,lines,max_degree",
    [
        ((4,), ((5,),), 8),
        ((2, 2), ((3, 3),), 3),
        ((5,), ((3,), (3,)), 5),
        ((1, 1), ((2, 2),), 4),
        ((1,), ((-1,), (-1,)), 6),
        ((4,), ((1,),), 6),
        ((3,), ((1,), (1,)), 6),
    ],
)
def test_closed_form_matches_order_by_order_solver(factors, lines, max_degree):
    sp = AmbientSpace(factors)
    g = GeometrySpec(sp, BundleSpec(lines))
    S = i_function(g, max_degree)
    ctop = euler_class(sp, g.bundle)
    assert solve_mirror_map(S, ctop) == _reference_solve_mirror_map(S, ctop)


def test_solved_transform_is_stable():
    # applying the solved map twice changes nothing further
    S, ctop = _quintic(2)
    m = solve_mirror_map(S, ctop)
    T = apply_transform(S, m)
    again = solve_mirror_map(T, ctop)
    assert again.is_zero


def test_mirror_map_serialization_round_trip():
    # by hand from g = 1 + 120q + 113400q^2 and div = 770q + 810225q^2
    # (test_normal_form_quintic_values): f1 inverts q -> q e^{div/g}, and
    # f0 = -log g(q e^{f1}) = -log(1 + 120q + 21000q^2)
    S, ctop = _quintic(2)
    m = solve_mirror_map(S, ctop)
    assert m.to_obj() == {
        "f0": [{"beta": [1], "coeff": "-120/1"}, {"beta": [2], "coeff": "-13800/1"}],
        "f1": [[{"beta": [1], "coeff": "-770/1"}, {"beta": [2], "coeff": "-124925/1"}]],
    }


def test_mirror_map_rejects_constant_term():
    with pytest.raises(ValueError):
        MirrorMap(ScalarQSeries.one(P1, 2), (ScalarQSeries.zero(P1, 2),))


def _scalar(space, max_degree, coeffs):
    s = ScalarQSeries.zero(space, max_degree)
    for d, c in coeffs.items():
        s = s.set_coeff((d,), Fraction(c))
    return s


def test_z_first_coefficients():
    x = _scalar(P1, 3, {1: 1})
    y = _scalar(P1, 3, {1: 1})
    z = z_from_log(x, y)
    assert z.coeff((1,)) == Fraction(1)
    assert z.coeff((2,)) == Fraction(1, 2)


def test_z_hand_value_degree_three():
    x = _scalar(P1, 3, {1: 2, 2: 3})
    y = _scalar(P1, 3, {1: 5, 2: 7, 3: 11})
    expected = Fraction(235, 6)
    assert z_from_log(x, y).coeff((3,)) == expected
    assert z_closed_form(x, y).coeff((3,)) == expected


def test_z_vanishes_without_input():
    x = _scalar(P1, 4, {1: 3, 2: 1})
    zero = ScalarQSeries.zero(P1, 4)
    assert z_from_log(x, zero).is_zero
    assert z_closed_form(x, zero).is_zero


def test_z_linearity_and_closed_form_randomized():
    rng = random.Random(913)
    D = 6
    for _ in range(20):
        x = ScalarQSeries.zero(P1, D)
        ya = ScalarQSeries.zero(P1, D)
        yb = ScalarQSeries.zero(P1, D)
        for d in range(1, D + 1):
            x = x.set_coeff((d,), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            ya = ya.set_coeff((d,), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            yb = yb.set_coeff((d,), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        za = z_from_log(x, ya)
        zb = z_from_log(x, yb)
        zsum = z_from_log(x, ya + yb)
        assert zsum == za + zb
        assert z_closed_form(x, ya) == za
        assert z_closed_form(x, yb) == zb


def test_z_requires_single_factor_space():
    sp = AmbientSpace((1, 1))
    x = ScalarQSeries.zero(sp, 2)
    with pytest.raises(ValueError):
        z_from_log(x, x)
