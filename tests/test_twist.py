from fractions import Fraction

import pytest

from gwtwist import (
    AmbientSpace,
    BundleSpec,
    CONCAVE,
    CONVEX,
    GeometrySpec,
    HbarLaurent,
    QSeries,
    TruncationMismatch,
    Unclassifiable,
    Unsupported,
    check_conditions,
    classify,
    euler_class,
    geometry_from_obj,
    h_factor,
    i_function,
    j_ambient,
    qseries_to_obj,
)
from gwtwist.series import all_curve_classes

P1 = AmbientSpace((1,))
P4 = AmbientSpace((4,))


def _geometry(factors, lines):
    return GeometrySpec(AmbientSpace(factors), BundleSpec(lines))


def test_classify_signs():
    assert classify((5,)) == CONVEX
    assert classify((-1,)) == CONCAVE
    assert classify((1, 0)) == CONVEX
    assert classify((-1, -2)) == CONCAVE


def test_classify_rejects_mixed_and_zero():
    with pytest.raises(Unclassifiable):
        classify((1, -1))
    with pytest.raises(Unclassifiable):
        classify((0, -1))
    with pytest.raises(Unclassifiable):
        classify((0,))


def test_concave_on_product_unsupported():
    with pytest.raises(Unsupported):
        _geometry((1, 1), ((-1, -1),))


def test_conditions_quintic():
    report = check_conditions(_geometry((4,), ((5,),)))
    assert report.nonneg == (True,)
    assert report.trivial_transform_case is None


def test_conditions_fano_case():
    report = check_conditions(_geometry((4,), ((1,),)))
    assert report.trivial_transform_case == "FanoIndex2plus"
    report = check_conditions(_geometry((3,), ((1,), (1,))))
    assert report.trivial_transform_case == "FanoIndex2plus"


def test_conditions_fano_index_one_is_not_trivial():
    report = check_conditions(_geometry((1,), ((1,),)))
    assert report.nonneg == (True,)
    assert report.trivial_transform_case is None


def test_conditions_concave_case():
    report = check_conditions(_geometry((1,), ((-1,), (-1,))))
    assert report.trivial_transform_case == "ConcaveRank2plus"
    report = check_conditions(_geometry((5,), ((-1,), (-5,))))
    assert report.trivial_transform_case == "ConcaveRank2plus"


def test_conditions_concave_rank_one_is_not_trivial():
    report = check_conditions(_geometry((1,), ((-1,),)))
    assert report.trivial_transform_case is None


def test_conditions_mixed_sum():
    report = check_conditions(_geometry((5,), ((1,), (-1,), (-1,))))
    assert report.nonneg == (True,)
    assert report.trivial_transform_case == "MixedSum"


def test_conditions_negative_combined_degree():
    # concave pair with too much negativity: positivity fails, no trivial case
    report = check_conditions(_geometry((1,), ((-3,), (-3,))))
    assert report.nonneg == (False,)
    assert report.trivial_transform_case is None


def test_report_serialization():
    obj = check_conditions(_geometry((4,), ((5,),))).to_obj()
    assert obj == {"theorem1_nonneg": [True], "theorem2_case": None}


def test_j_ambient_origin_is_unit():
    J = j_ambient(P4, 3)
    assert J.term((0,)) == HbarLaurent.unit(P4)


def test_j_ambient_p1_degree_one():
    J = j_ambient(P1, 2)
    t = J.term((1,))
    assert t.coefficient(-2) == P1.unit()
    assert t.coefficient(-3) == P1.hyperplane(0).scale(-2)
    assert t.exponents() == [-3, -2]


def test_j_ambient_p4_leading_term():
    t = j_ambient(P4, 1).term((1,))
    assert max(t.exponents()) == -5
    assert t.coefficient(-5) == P4.unit()


def test_h_factor_convex_quintic_line():
    expected = HbarLaurent.unit(P4)
    five_h = P4.hyperplane(0).scale(5)
    for k in range(0, 6):
        expected = expected * HbarLaurent.linear(P4, five_h, k)
    assert h_factor(P4, (5,), (1,)) == expected


def test_h_factor_concave_ranges():
    assert h_factor(P1, (-1,), (1,)) == HbarLaurent.unit(P1)
    t = h_factor(P1, (-1,), (2,))
    assert t == HbarLaurent.linear(P1, -P1.hyperplane(0), -1)


def test_h_factor_degree_zero():
    # convex keeps the k=0 factor (the top class); concave range is empty
    assert h_factor(P4, (5,), (0,)) == HbarLaurent(P4, {0: P4.hyperplane(0).scale(5)})
    assert h_factor(P1, (-1,), (0,)) == HbarLaurent.unit(P1)


def test_h_factor_left_divisibility():
    # convex factors at beta' are a prefix of those at beta' + beta''
    for l, d1, d2 in [((2,), 1, 1), ((3,), 1, 2), ((1,), 2, 3)]:
        lhs = h_factor(P4, l, (d1 + d2,))
        prefix = h_factor(P4, l, (d1,))
        c1 = P4.divisor(l)
        complement = HbarLaurent.unit(P4)
        for k in range(l[0] * d1 + 1, l[0] * (d1 + d2) + 1):
            complement = complement * HbarLaurent.linear(P4, c1, k)
        assert lhs == prefix * complement


def test_i_function_origin_is_euler_class():
    g = _geometry((4,), ((5,),))
    I = i_function(g, 2)
    assert I.term((0,)) == HbarLaurent(P4, {0: euler_class(P4, g.bundle)})


def test_i_function_origin_vanishes_for_local_geometry():
    g = _geometry((1,), ((-1,), (-1,)))
    I = i_function(g, 2)
    assert I.term((0,)).is_zero


def test_i_function_empty_bundle_is_ambient_series():
    g = GeometrySpec(P4, BundleSpec(()))
    assert i_function(g, 3) == j_ambient(P4, 3)


def test_i_function_windows_cy_case():
    # vanishing combined degree: every term stays within [-(r+1)d, 0]
    g = _geometry((4,), ((5,),))
    I = i_function(g, 4)
    for beta, hl in I.terms.items():
        if sum(beta) == 0 or hl.is_zero:
            continue
        assert min(hl.exponents()) >= -5 * beta[0]
        assert max(hl.exponents()) <= 0


def test_i_function_trivial_cases_start_below_hbar_minus_two():
    for factors, lines in [
        ((4,), ((1,),)),
        ((3,), ((1,), (1,))),
        ((1,), ((-1,), (-1,))),
        ((5,), ((-1,), (-5,))),
    ]:
        g = _geometry(factors, lines)
        I = i_function(g, 3)
        for beta, hl in I.terms.items():
            if sum(beta) and not hl.is_zero:
                assert max(hl.exponents()) <= -2, (factors, lines, beta)


def test_external_j_override():
    ext = j_ambient(P4, 5)
    g = GeometrySpec(P4, BundleSpec(((5,),)), external_j=ext)
    assert i_function(g, 4) == i_function(GeometrySpec(P4, BundleSpec(((5,),))), 4)


def test_external_j_below_requested_degree_refused():
    g = GeometrySpec(P1, BundleSpec(((1,),)), external_j=j_ambient(P1, 2))
    with pytest.raises(TruncationMismatch) as info:
        i_function(g, 4)
    assert info.value.context == {"have": 2, "want": 4}


def test_external_j_must_start_at_unit():
    bad = j_ambient(P4, 2).scale(2)
    with pytest.raises(ValueError):
        GeometrySpec(P4, BundleSpec(((5,),)), external_j=bad)


def test_geometry_serialization_round_trip():
    g = _geometry((3,), ((1,), (1,)))
    obj = {"ambient": [3], "bundle": [{"l": [1]}, {"l": [1]}], "external_j": None}
    assert geometry_from_obj(obj) == g
    del obj["external_j"]
    assert geometry_from_obj(obj) == g


def test_geometry_serialization_with_external_j():
    ext = j_ambient(P1, 2)
    obj = {"ambient": [1], "bundle": [{"l": [1]}], "external_j": qseries_to_obj(ext)}
    back = geometry_from_obj(obj)
    assert back.external_j == ext


def test_product_ambient_series():
    sp = AmbientSpace((1, 1))
    g = GeometrySpec(sp, BundleSpec(((1, 1),)))
    I = i_function(g, 2)
    # the (1,0) term: J((1,0)) * (p1+p2)(p1+p2+hbar)
    J = j_ambient(sp, 2)
    c1 = sp.divisor((1, 1))
    expected = J.term((1, 0)) * HbarLaurent(sp, {0: c1}) * HbarLaurent.linear(sp, c1, 1)
    assert I.term((1, 0)) == expected


# -- from-scratch references: the per-class products the degree tables replace


def _reference_j_ambient(space: AmbientSpace, max_degree: int) -> QSeries:
    terms = {}
    for beta in all_curve_classes(space, max_degree):
        if sum(beta) == 0:
            terms[beta] = HbarLaurent.unit(space)
            continue
        denom = HbarLaurent.unit(space)
        for i, d_i in enumerate(beta):
            p = space.hyperplane(i)
            for k in range(1, d_i + 1):
                factor = HbarLaurent.linear(space, p, k)
                for _ in range(space.factors[i] + 1):
                    denom = denom * factor
        terms[beta] = denom.invert()
    return QSeries(space, max_degree, terms)


def _reference_h_factor(space: AmbientSpace, l, beta) -> HbarLaurent:
    l = tuple(int(x) for x in l)
    kind = classify(l)
    beta = space.check_curve_class(beta)
    pairing = sum(li * di for li, di in zip(l, beta))
    c1 = space.divisor(l)
    if kind == CONVEX:
        ks = range(0, pairing + 1)
    else:
        ks = range(pairing + 1, 0)
    out = HbarLaurent.unit(space)
    for k in ks:
        out = out * HbarLaurent.linear(space, c1, k)
    return out


def _reference_i_function(g: GeometrySpec, max_degree: int) -> QSeries:
    space = g.space
    if g.external_j is not None:
        if g.external_j.max_degree < max_degree:
            raise TruncationMismatch(
                "external J truncated below the requested degree",
                have=g.external_j.max_degree,
                want=max_degree,
            )
        J = g.external_j.truncate(max_degree)
    else:
        J = _reference_j_ambient(space, max_degree)
    terms = {}
    for beta in J.curve_classes():
        if sum(beta) == 0:
            continue
        hl = J.term(beta)
        for l in g.bundle.lines:
            hl = hl * _reference_h_factor(space, l, beta)
        terms[beta] = hl
    e = euler_class(space, g.bundle)
    terms[(0,) * space.nfactors] = HbarLaurent(space, {0: e})
    return QSeries(space, max_degree, terms)


def _external_j_geometry():
    # an external J that is not the ambient series: every beta != 0 term tripled
    ambient = _reference_j_ambient(P4, 6)
    terms = {b: hl if sum(b) == 0 else hl.scale(3) for b, hl in ambient.terms.items()}
    return GeometrySpec(P4, BundleSpec(((5,),)), external_j=QSeries(P4, 6, terms))


TABLE_CASES = {
    "quintic": (lambda: _geometry((4,), ((5,),)), 8),
    "bicubic": (lambda: _geometry((2, 2), ((3, 3),)), 4),
    "p5-o-1-o-5": (lambda: _geometry((5,), ((-1,), (-5,))), 6),
    "local-p1": (lambda: _geometry((1,), ((-1,), (-1,))), 8),
    "p3-o1-o1": (lambda: _geometry((3,), ((1,), (1,))), 6),
    "p1xp1-o22": (lambda: _geometry((1, 1), ((2, 2),)), 4),
    "p1xp1-zero-pairings": (lambda: _geometry((1, 1), ((1, 0), (0, 2))), 4),
    "mixed-p4": (lambda: _geometry((4,), ((2,), (-1,))), 5),
    "external-j": (_external_j_geometry, 5),
    "empty-bundle": (lambda: GeometrySpec(AmbientSpace((2,)), BundleSpec(())), 6),
}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_degree_tables_match_from_scratch_products(name):
    make, D = TABLE_CASES[name]
    g = make()
    space = g.space
    J, ref_J = j_ambient(space, D), _reference_j_ambient(space, D)
    assert J == ref_J
    assert qseries_to_obj(J) == qseries_to_obj(ref_J)
    I, ref_I = i_function(g, D), _reference_i_function(g, D)
    assert I == ref_I
    assert qseries_to_obj(I) == qseries_to_obj(ref_I)
    for l in g.bundle.lines:
        for beta in all_curve_classes(space, D):
            assert h_factor(space, l, beta) == _reference_h_factor(space, l, beta)
