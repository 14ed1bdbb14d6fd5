from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from gwtwist import (
    AmbientSpace,
    BundleSpec,
    CONCAVE,
    CONVEX,
    CohClass,
    GeometrySpec,
    HbarLaurent,
    QSeries,
    SpaceMismatch,
    Unclassifiable,
    Unsupported,
    check_conditions,
    classify,
    euler_class,
    geometry_from_obj,
    h_factor,
    i_function,
    i_prime,
    j_ambient,
    n_numbers,
    qseries_to_obj,
    serre_dual_pair,
)
from gwtwist.series import all_curve_classes
from gwtwist.twist import _concave_euler_vanishes, _linear_table

P1 = AmbientSpace((1,))
P4 = AmbientSpace((4,))


def _geometry(factors, lines):
    return GeometrySpec(AmbientSpace(factors), BundleSpec(lines))


def test_wrong_length_multidegree_refused_as_input_or_space_mismatch():
    # a file is refused as bad input before any arithmetic; a spec built in
    # Python still meets the engine's own space check
    with pytest.raises(ValueError, match=r"bundle\[0\]\.l needs 1 entries"):
        geometry_from_obj({"ambient": [4], "bundle": [{"l": [1, 2]}]})
    with pytest.raises(SpaceMismatch):
        GeometrySpec(P4, BundleSpec(((1, 2),)))


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


def test_conditions_fano_index_read_on_every_factor():
    # O(1,1) leaves index 2 on P2 and 1 on P1, so P2xP1 is not the Fano case
    # though its first factor alone would be; P1xP2 is the same with the
    # factors swapped, and P3xP2 has index 3 and 2
    assert check_conditions(_geometry((2, 1), ((1, 1),))).trivial_transform_case is None
    assert check_conditions(_geometry((1, 2), ((1, 1),))).trivial_transform_case is None
    report = check_conditions(_geometry((3, 2), ((1, 1),)))
    assert report.nonneg == (True, True)
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


def test_geometry_serialization_round_trip():
    g = _geometry((3,), ((1,), (1,)))
    obj = {"ambient": [3], "bundle": [{"l": [1]}, {"l": [1]}], "external_j": None}
    assert geometry_from_obj(obj) == g
    del obj["external_j"]
    assert geometry_from_obj(obj) == g


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


TABLE_CASES = {
    "quintic": (lambda: _geometry((4,), ((5,),)), 8),
    "bicubic": (lambda: _geometry((2, 2), ((3, 3),)), 4),
    "p5-o-1-o-5": (lambda: _geometry((5,), ((-1,), (-5,))), 6),
    "local-p1": (lambda: _geometry((1,), ((-1,), (-1,))), 8),
    "p3-o1-o1": (lambda: _geometry((3,), ((1,), (1,))), 6),
    "p1xp1-o22": (lambda: _geometry((1, 1), ((2, 2),)), 4),
    "p1xp1-zero-pairings": (lambda: _geometry((1, 1), ((1, 0), (0, 2))), 4),
    "mixed-p4": (lambda: _geometry((4,), ((2,), (-1,))), 5),
    "empty-bundle": (lambda: GeometrySpec(AmbientSpace((2,)), BundleSpec(())), 6),
    "p2xp1xp1-o322": (lambda: _geometry((2, 1, 1), ((3, 2, 2),)), 3),
    "p1x4-o2222": (lambda: _geometry((1, 1, 1, 1), ((2, 2, 2, 2),)), 3),
    "local-dp5": (lambda: _geometry((4,), ((2,), (2,), (-1,))), 5),
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


def _reference_linear_product(space: AmbientSpace, c1: CohClass, ks) -> HbarLaurent:
    out = HbarLaurent.unit(space)
    for k in ks:
        out = out * HbarLaurent.linear(space, c1, k)
    return out


def _reference_start_one(g: GeometrySpec, max_degree: int, dual: bool) -> QSeries:
    """I' (each summand's (c1 + k hbar) for k = 1..n if convex, k = n+1..0 if
    concave, n = <L, beta>), or with ``dual`` the Serre dual series:
    (-1)^rank times each (-c1 + k hbar) for k = -n+1..0."""
    space = g.space
    J = _reference_j_ambient(space, max_degree)
    sign = (-1) ** g.bundle.rank if dual else 1
    terms = {}
    for beta in J.curve_classes():
        if sum(beta) == 0:
            terms[beta] = HbarLaurent.unit(space).scale(sign)
            continue
        hl = J.term(beta).scale(sign)
        for l in g.bundle.lines:
            n = sum(li * di for li, di in zip(l, beta))
            c1 = space.divisor(l)
            if dual:
                hl = hl * _reference_linear_product(space, -c1, range(-n + 1, 1))
            elif classify(l) == CONVEX:
                hl = hl * _reference_linear_product(space, c1, range(1, n + 1))
            else:
                hl = hl * _reference_linear_product(space, c1, range(n + 1, 1))
        terms[beta] = hl
    return QSeries(space, max_degree, terms)


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_start_one_series_match_from_scratch_products(name):
    make, D = TABLE_CASES[name]
    g = make()
    got, want = i_prime(g, D), _reference_start_one(g, D, False)
    assert got == want
    assert qseries_to_obj(got) == qseries_to_obj(want)
    convex = all(classify(l) == CONVEX for l in g.bundle.lines)
    if convex and check_conditions(g).all_nonneg:
        pair, dual = serre_dual_pair(g, D), _reference_start_one(g, D, True)
        assert pair.i_prime == want
        assert pair.i_prime_dual == dual
        assert qseries_to_obj(pair.i_prime_dual) == qseries_to_obj(dual)


ROW_CLASSES = {
    "5H-on-p4": lambda: (P4, P4.hyperplane(0).scale(5)),
    # p1^3 = 0 below the dimension 4 of P2 x P2
    "p1-on-p2xp2": lambda: (AmbientSpace((2, 2)), AmbientSpace((2, 2)).hyperplane(0)),
    "minus-p1-p2-on-p1xp1": lambda: (AmbientSpace((1, 1)), -AmbientSpace((1, 1)).divisor((1, 1))),
}


@pytest.mark.parametrize("first,step", [(0, 1), (1, 1), (-1, -1), (0, -1)])
@pytest.mark.parametrize("name", sorted(ROW_CLASSES))
def test_linear_product_rows_match_from_scratch_products(name, first, step):
    space, c = ROW_CLASSES[name]()
    rows = range(3 * space.dim + 1)
    want = [_reference_linear_product(space, c, [first + j * step for j in range(m)]) for m in rows]

    def table():  # row m of the integer table as the class hbar^m P_m(c)
        poly, weights, den = _linear_table(space, c, first, step, space.dim)
        return lambda m: HbarLaurent._of(space, m, CohClass(space, [poly(m)[j] * w for j, w in weights], den))

    row = table()
    assert [row(m) for m in rows] == want
    # a fresh table read backwards grows every row it skipped
    row = table()
    assert [row(m) for m in reversed(rows)] == want[::-1]


@pytest.mark.parametrize(
    "factors,lines,D,most", [((4,), ((5,),), 12, 50), ((2, 2), ((3, 3),), 5, 60)]
)
def test_start_one_series_builds_one_class_per_term(monkeypatch, factors, lines, D, most):
    # J_beta and each twisted term are one class each; Laurent product
    # chains and inversions built 402 and 220 here
    g = _geometry(factors, lines)
    built, laurent = [], []
    init, invert, linear = CohClass.__init__, HbarLaurent.invert, HbarLaurent.linear

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    def counted_invert(self):
        laurent.append("invert")
        return invert(self)

    def counted_linear(cls, *args):
        laurent.append("linear")
        return linear(*args)

    monkeypatch.setattr(CohClass, "__init__", counting)
    monkeypatch.setattr(HbarLaurent, "invert", counted_invert)
    monkeypatch.setattr(HbarLaurent, "linear", classmethod(counted_linear))
    S = i_prime(g, D)
    monkeypatch.undo()
    assert len(built) <= most
    assert laurent == []
    assert S == _reference_start_one(g, D, False)


@pytest.mark.parametrize(
    "build",
    [lambda: classify((1.5,)), lambda: h_factor(P1, (1.5,), (1,))],
    ids=["classify", "h_factor"],
)
def test_non_integral_multidegree_refused(build):
    # truncation would read O(1.5) as O(1)
    with pytest.raises(ValueError, match=r"1\.5 is not an integer"):
        build()


def test_non_integral_geometry_is_not_read_as_the_quintic():
    with pytest.raises(ValueError, match=r"4\.7 is not an integer"):
        n_numbers(GeometrySpec(AmbientSpace((4.7,)), BundleSpec(((5.2,),))), 1)


@pytest.mark.parametrize("name", ["quintic", "bicubic", "p3-o1-o1", "local-dp5", "p1xp1-zero-pairings"])
def test_twisted_series_take_no_laurent_product(monkeypatch, name):
    # every twisted series is built by one integer loop, one class per term
    make, D = TABLE_CASES[name]
    g = make()
    calls = []
    mul = HbarLaurent.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(HbarLaurent, "__mul__", counted)
    HbarLaurent.unit(g.space) * HbarLaurent.unit(g.space)
    assert calls == [1]  # the probe is live
    calls.clear()
    i_function(g, D)
    i_prime(g, D)
    for l in g.bundle.lines:
        for beta in all_curve_classes(g.space, D):
            h_factor(g.space, l, beta)
    if all(classify(l) == CONVEX for l in g.bundle.lines):
        serre_dual_pair(g, D)
    assert calls == []


def test_concave_euler_predicate_matches_the_class_on_the_sweep_degree_set():
    # one P^r, r = 1..6, one to three summands of degree -3..5 as in
    # tests/test_sweep.py, positivity not required
    concave = 0
    for r in range(1, 7):
        for rank in range(1, 4):
            for lines in combinations_with_replacement((-3, -2, -1, 1, 2, 3, 4, 5), rank):
                g = _geometry((r,), tuple((l,) for l in lines))
                conc = g.concave_lines()
                concave += bool(conc)
                assert _concave_euler_vanishes(g) == euler_class(g.space, BundleSpec(conc)).is_zero, g
    assert concave == 6 * (164 - 55)
