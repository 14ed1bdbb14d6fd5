import dataclasses
import random
from fractions import Fraction

import pytest

from gwtwist import (
    AmbientSpace,
    BundleSpec,
    GeometrySpec,
    MirrorMap,
    QSeries,
    ScalarQSeries,
    SpaceMismatch,
    StructureViolation,
    TruncationMismatch,
    apply_transform,
    euler_class,
    i_function,
    i_prime,
    j_ambient,
    n_numbers,
    normal_form,
    qs_exp,
    qs_substitute,
    solve_mirror_map,
    z_closed_form,
    z_from_log,
)
from gwtwist.series import HbarLaurent, compose_substitute, qs_exp_full
from gwtwist.twist import _combined_degrees

P1 = AmbientSpace((1,))
P4 = AmbientSpace((4,))


def _quintic(max_degree):
    """The quintic's start-1 series and its start, the unit class."""
    g = GeometrySpec(P4, BundleSpec(((5,),)))
    return i_prime(g, max_degree), P4.unit()


def _is_normalized(nf):
    """g = 1, with no string or divisor part."""
    one = _scalar_one(nf.g.space, nf.g.max_degree)
    return nf.g == one and nf.string.is_zero and all(d.is_zero for d in nf.divisor_part)


def test_normal_form_of_ambient_series():
    nf = normal_form(j_ambient(P4, 3), P4.unit())
    assert _is_normalized(nf)
    assert all(s.is_zero for s in nf.divisor_part)


def test_normal_form_quintic_values():
    S, start = _quintic(2)
    nf = normal_form(S, start)
    assert nf.g.coeff((1,)) == Fraction(120)
    assert nf.g.coeff((2,)) == Fraction(113400)
    assert nf.divisor_part[0].coeff((1,)) == Fraction(770)
    assert nf.divisor_part[0].coeff((2,)) == Fraction(810225)
    assert not _is_normalized(nf)


def test_normal_form_rejects_nonmultiple_scalar_part():
    S, start = _quintic(1)
    # p^2 at hbar^0: a term of total degree 2, where I'_1 has degree 0, so
    # it replaces the term rather than adding to it
    spoiled = dict(S.terms)
    spoiled[(1,)] = HbarLaurent(P4, {0: P4.monomial((2,), Fraction(1))})
    bad = type(S)(P4, S.max_degree, spoiled)
    with pytest.raises(StructureViolation):
        normal_form(bad, start)


def test_normal_form_rejects_bad_divisor_residual():
    # an hbar^-1 part outside the span of 1 and the p_i is refused; so is any
    # hbar^-1 part of a series that starts at ctop, such as p1 + p2 in I on
    # P1 x P1 with a (1,1) section
    S, start = _quintic(1)
    spoiled = dict(S.terms)
    spoiled[(1,)] = HbarLaurent(P4, {-1: P4.monomial((2,), Fraction(1))})
    with pytest.raises(StructureViolation) as info:
        normal_form(QSeries(P4, 1, spoiled), start)
    assert info.value.context["beta"] == [1]
    sp = AmbientSpace((1, 1))
    g = GeometrySpec(sp, BundleSpec(((1, 1),)))
    S = i_function(g, 1)
    with pytest.raises(StructureViolation):
        normal_form(S, euler_class(sp, g.bundle))


def test_solve_against_ctop_never_returns_a_silent_zero():
    # the quintic's I has a non-zero map, so a start at ctop is refused
    g = GeometrySpec(P4, BundleSpec(((5,),)))
    with pytest.raises(StructureViolation) as info:
        solve_mirror_map(i_function(g, 2), euler_class(P4, g.bundle))
    assert info.value.context["beta"] == [1]


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
    # with a (1,0) section, I'_(1,0) = 1/(p1 + hbar): the hbar^-1 scalar that
    # ctop = p1 annihilated in I_(1,0) = p1/hbar is read as the string dial
    sp = AmbientSpace((1, 1))
    g = GeometrySpec(sp, BundleSpec(((1, 0),)))
    nf = normal_form(i_prime(g, 2), sp.unit())
    assert nf.string == ScalarQSeries(sp, 2, {(1, 0): 1})
    assert nf.g == _scalar_one(sp, 2)
    assert all(d.is_zero for d in nf.divisor_part)
    with pytest.raises(StructureViolation):
        normal_form(i_function(g, 2), euler_class(sp, g.bundle))


def test_apply_transform_identity():
    # the zero map returns the series itself, once its dials are checked
    S, _ = _quintic(2)
    assert apply_transform(S, MirrorMap.zero(P4, 2)) is S
    with pytest.raises(TruncationMismatch):
        apply_transform(S, MirrorMap.zero(P4, 3))
    for space in (AmbientSpace((3,)), AmbientSpace((4, 1))):
        with pytest.raises(SpaceMismatch):
            apply_transform(S, MirrorMap.zero(space, 2))


def _scalar_one(space, D):
    """The scalar series 1 truncated at D."""
    return ScalarQSeries(space, D, {(0,) * space.nfactors: 1})


def _promote(space, f):
    """View a scalar series as a class-valued one (unit class, hbar^0)."""
    terms = {
        beta: HbarLaurent(space, {0: space.unit().scale(c)})
        for beta, c in f.terms.items()
    }
    return QSeries(space, f.max_degree, terms)


def _reference_apply_transform(S, m):
    """The transform as two exponentials and two products: e^{(s + p . f1)/hbar}
    as a class-valued exp, then e^{f0} through a promoted scalar series."""
    space, D = S.space, S.max_degree
    result = qs_substitute(S, list(m.f1))
    shift_terms: dict = {}
    for beta in result.curve_classes():
        if sum(beta) == 0:
            continue
        cls = space.zero()
        for i, f in enumerate(m.f1):
            c = f.coeff(beta)
            if c != 0:
                cls = cls + space.hyperplane(i).scale(c)
        c = m.string.coeff(beta)
        if c != 0:
            cls = cls + space.unit().scale(c)
        if not cls.is_zero:
            shift_terms[beta] = HbarLaurent(space, {-1: cls})
    if shift_terms:
        result = qs_exp_full(QSeries(space, D, shift_terms)) * result
    if not m.f0.is_zero:
        result = _promote(space, qs_exp(m.f0)) * result
    return result


def _random_dial(rng, space, D, c=None, pairing=0):
    """A random dial on the classes beta with <c, beta> = ``pairing``, or on
    every class when c is None.  A transform keeps a series graded by
    c = c1(T) - c1(E_conv) + c1(E_conc) when f0 and f1 are graded at
    pairing 0 and the string dial at pairing 1."""
    terms = {}
    for beta in _scalar_one(space, D).curve_classes()[1:]:
        if c is not None and sum(x * d for x, d in zip(c, beta)) != pairing:
            continue
        if rng.random() < 0.7:
            terms[beta] = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
    return ScalarQSeries(space, D, terms)


@pytest.mark.parametrize("factors,lines,D", [((4,), ((5,),), 8), ((2, 2), ((3, 3),), 3)])
def test_apply_transform_matches_reference_on_solved_maps(factors, lines, D):
    sp = AmbientSpace(factors)
    g = GeometrySpec(sp, BundleSpec(lines))
    m = solve_mirror_map(i_prime(g, D), sp.unit())
    assert not m.f0.is_zero
    S = i_function(g, D)
    assert apply_transform(S, m) == _reference_apply_transform(S, m)


@pytest.mark.parametrize("factors", [(1,), (1, 1), (2, 1)])
@pytest.mark.parametrize("D", range(1, 6))
def test_apply_transform_matches_reference_on_random_maps(factors, D):
    # O(r_1 + 1, 1) grades the series by c = (0, 1), so f0 and f1 sit on
    # the classes (k, 0) and the string dial on (k, 1); on P1, O(2) gives
    # c = 0, which leaves the string dial no class
    sp = AmbientSpace(factors)
    rng = random.Random(100 * D + 10 * len(factors) + sum(factors))
    line = (factors[0] + 1,) + (1,) * (len(factors) - 1)
    g = GeometrySpec(sp, BundleSpec((line,)))
    S = i_function(g, D)
    c = _combined_degrees(g)
    for _ in range(2):
        f0 = _random_dial(rng, sp, D, c)
        f1 = tuple(_random_dial(rng, sp, D, c) for _ in factors)
        string = _random_dial(rng, sp, D, c, 1)
        m = MirrorMap(f0=f0, f1=f1)
        assert apply_transform(S, m) == _reference_apply_transform(S, m)
        m = MirrorMap(f0=f0, f1=f1, string=string)
        assert apply_transform(S, m) == _reference_apply_transform(S, m)


@pytest.mark.parametrize(
    "factors,lines,D",
    [
        ((4,), ((5,),), 8),
        ((2, 2), ((3, 3),), 3),
        ((1, 1), ((2, 1),), 4),
        ((3,), ((3,),), 4),
        ((2,), ((-3,),), 5),
    ],
    ids=["quintic", "bicubic", "P1xP1-O(2,1)", "P3-O(3)", "K_P2"],
)
def test_solved_map_factor_table_matches_rebuilt_factors(factors, lines, D):
    # the exp(beta . f1) table a solve keeps gives what the same dials give
    # through a plain map, whose factors are rebuilt one by one
    sp = AmbientSpace(factors)
    g = GeometrySpec(sp, BundleSpec(lines))
    S = i_prime(g, D)
    m = solve_mirror_map(S, sp.unit())
    plain = MirrorMap(m.f0, m.f1, m.string)
    assert m._factors is not None and plain._factors is None
    assert m == plain and repr(m) == repr(plain) and m.to_obj() == plain.to_obj()
    assert apply_transform(S, m) == apply_transform(S, plain)
    I = i_function(g, D)
    if not g.concave_lines():
        assert apply_transform(I, m) == apply_transform(I, plain)
    for map_ in (m, plain) if g.concave_lines() else ():
        # K_P2's I starts at e(E) = -3p, of total degree 1, while its other
        # terms have degree -1: the map's prefactor mixes the two
        with pytest.raises(StructureViolation) as info:
            apply_transform(I, map_)
        assert info.value.context["degrees"] == [-1, 1]
    nf = normal_form(S, sp.unit())
    rng = random.Random(D)
    for f in (nf.g, nf.string, *nf.divisor_part, _random_dial(rng, sp, D)):
        assert compose_substitute(f, m.f1, m._factors) == compose_substitute(f, m.f1)


def test_factor_table_for_other_dials_refused():
    S, start = _quintic(4)
    m = solve_mirror_map(S, start)
    other = [m.f1[0].scale(2)]
    with pytest.raises(ValueError, match="other dials"):
        compose_substitute(m.f0, other, m._factors)
    with pytest.raises(ValueError, match="other dials"):
        qs_substitute(S, other, m._factors)
    # a map rebuilt with other dials does not carry the table along
    swapped = dataclasses.replace(m, f1=tuple(other))
    assert swapped._factors is None
    object.__setattr__(swapped, "_factors", m._factors)
    with pytest.raises(ValueError, match="other dials"):
        apply_transform(S, swapped)


@pytest.mark.parametrize("dial", ["f0", "string"])
@pytest.mark.parametrize(
    "bad,error",
    [
        (ScalarQSeries(P1, 2, {(1,): 3}), TruncationMismatch),
        (ScalarQSeries(P1, 6, {(5,): 3}), TruncationMismatch),
        (ScalarQSeries(AmbientSpace((2,)), 4, {(1,): 3}), SpaceMismatch),
        (ScalarQSeries(P1, 4, {(0,): 1, (1,): 3}), ValueError),
    ],
    ids=["short", "long", "other-space", "constant-term"],
)
def test_apply_transform_refuses_bad_dials(dial, bad, error):
    S = i_function(GeometrySpec(P1, BundleSpec(((1,),))), 4)
    zero = ScalarQSeries.zero(P1, 4)
    with pytest.raises(error):
        if dial == "f0":
            apply_transform(S, MirrorMap(f0=bad, f1=(zero,)))
        else:
            apply_transform(S, MirrorMap(f0=zero, f1=(zero,), string=bad))


def test_solve_mirror_map_quintic():
    S, start = _quintic(3)
    m = solve_mirror_map(S, start)
    assert m.f0.coeff((1,)) == Fraction(-120)
    assert m.f1[0].coeff((1,)) == Fraction(-770)
    T = apply_transform(S, m)
    assert _is_normalized(normal_form(T, start))


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


def _reference_solve_mirror_map(S, start):
    """The order-by-order solver: one full transform per degree."""
    space, D = S.space, S.max_degree
    m = MirrorMap.zero(space, D)
    for level in range(1, D + 1):
        nf = normal_form(apply_transform(S, m), start)
        f0, string = m.f0, m.string
        f1 = list(m.f1)
        changed = False
        for beta, g_beta in nf.g.terms.items():
            if sum(beta) == level and g_beta != 0:
                f0 = f0.set_coeff(beta, -g_beta)
                changed = True
        for beta, s_beta in nf.string.terms.items():
            if sum(beta) == level:
                string = string.set_coeff(beta, -s_beta)
                changed = True
        for i, part in enumerate(nf.divisor_part):
            for beta, c in part.terms.items():
                if sum(beta) == level and c != 0:
                    f1[i] = f1[i].set_coeff(beta, -c)
                    changed = True
        if changed:
            m = MirrorMap(f0=f0, f1=tuple(f1), string=string)
    final = normal_form(apply_transform(S, m), start)
    if not _is_normalized(final):
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
        ((3,), ((3,),), 4),
        ((2,), ((-3,),), 5),
    ],
)
def test_closed_form_matches_order_by_order_solver(factors, lines, max_degree):
    sp = AmbientSpace(factors)
    g = GeometrySpec(sp, BundleSpec(lines))
    S = i_prime(g, max_degree)
    m = solve_mirror_map(S, sp.unit())
    assert m == _reference_solve_mirror_map(S, sp.unit())
    if (factors, lines) == ((1, 1), ((2, 2),)):
        # ctop = 2p1 + 2p2 has ctop^2 p_i = 0, so a read against ctop could
        # not see the divisor part of the hbar^-1 coefficient 16 p1 p2 at
        # (0, 1); the start-1 read does, and the curve is elliptic
        assert not m.f1[0].is_zero
        assert set(n_numbers(g, 3).values()) == {0}


def test_solved_transform_is_stable():
    # applying the solved map twice changes nothing further
    S, start = _quintic(2)
    m = solve_mirror_map(S, start)
    T = apply_transform(S, m)
    again = solve_mirror_map(T, start)
    assert again.is_zero


def test_mirror_map_serialization_round_trip():
    # by hand from g = 1 + 120q + 113400q^2 and div = 770q + 810225q^2
    # (test_normal_form_quintic_values): f1 inverts q -> q e^{div/g}, and
    # f0 = -log g(q e^{f1}) = -log(1 + 120q + 21000q^2)
    S, start = _quintic(2)
    m = solve_mirror_map(S, start)
    assert m.to_obj() == {
        "f0": [{"beta": [1], "coeff": "-120/1"}, {"beta": [2], "coeff": "-13800/1"}],
        "f1": [[{"beta": [1], "coeff": "-770/1"}, {"beta": [2], "coeff": "-124925/1"}]],
    }


def test_mirror_map_rejects_constant_term():
    with pytest.raises(ValueError):
        MirrorMap(_scalar_one(P1, 2), (ScalarQSeries.zero(P1, 2),))
    zero = ScalarQSeries.zero(P1, 2)
    with pytest.raises(ValueError):
        MirrorMap(zero, (zero,), string=_scalar_one(P1, 2))


def test_string_dial_of_fano_index_one():
    # P3 with O(3): I'_1 = J_1 prod_{k=1}^{3} (3H + k hbar) has hbar^-1 scalar
    # 3! = 6 and nothing at hbar^0 or on H, so the map is the string dial -6q
    # alone, and the report names it
    g = GeometrySpec(AmbientSpace((3,)), BundleSpec(((3,),)))
    m = solve_mirror_map(i_prime(g, 3), g.space.unit())
    assert m.f0.is_zero and m.f1[0].is_zero
    assert m.string == ScalarQSeries(g.space, 3, {(1,): -6})
    assert m.to_obj()["string"] == [{"beta": [1], "coeff": "-6/1"}]
    assert "string" not in MirrorMap.zero(g.space, 3).to_obj()


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
