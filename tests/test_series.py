import operator
import random
import re
from fractions import Fraction
from math import factorial

import pytest

from gwtwist import (
    AmbientSpace,
    BundleSpec,
    GeometrySpec,
    HbarLaurent,
    NonInvertible,
    QSeries,
    ScalarQSeries,
    SpaceMismatch,
    StructureViolation,
    TruncationMismatch,
    h_factor,
    hl_invert,
    hl_mul,
    i_prime,
    invert_substitution,
    n_numbers,
    qs_exp,
    qs_log,
    qs_substitute,
    qseries_from_obj,
    qseries_to_obj,
    solve_mirror_map,
)
from gwtwist import mirror, series
from gwtwist.series import (
    _degree,
    compose_substitute,
    hl_from_obj,
    hl_to_obj,
    qs_exp_full,
    scalar_to_obj,
)
from test_mirror import _promote, _scalar_one

P1 = AmbientSpace((1,))
P4 = AmbientSpace((4,))


def _linear(sp, k, divisor=None):
    return HbarLaurent.linear(sp, divisor if divisor is not None else sp.hyperplane(0), k)


def test_hl_window_tracking():
    a = _linear(P4, 1)
    b = a * a
    assert b.coefficient(2) == P4.unit().scale(1)
    assert b.coefficient(0) == P4.monomial((2,))


def test_hl_invert_exact_linear():
    # (h + hbar)^-2 on P^1: hbar^-2 - 2 h hbar^-3
    a = _linear(P1, 1) * _linear(P1, 1)
    inv = hl_invert(a)
    assert inv.coefficient(-2) == P1.unit()
    assert inv.coefficient(-3) == P1.hyperplane(0).scale(-2)
    assert inv.exponents() == [-3, -2]
    assert hl_mul(a, inv) == HbarLaurent.unit(P1)


def test_hl_invert_nilpotent_lowest_coefficient():
    # (h + hbar)^2 stores 2h at its lowest nonzero level; its scalar part
    # sits at hbar^2 alone, so the inverse is exact
    a = _linear(P1, 1) * _linear(P1, 1)
    assert hl_mul(a, hl_invert(a)) == HbarLaurent.unit(P1)


def test_hl_invert_all_nilpotent_rejected():
    a = HbarLaurent(P1, {0: P1.hyperplane(0).scale(5)})
    with pytest.raises(NonInvertible):
        hl_invert(a)


def test_hl_invert_several_scalar_levels_rejected():
    # 1 + hbar, which has no finite inverse, mixes total degrees 0 and 1 and
    # is refused before any inverse is sought
    with pytest.raises(StructureViolation) as info:
        HbarLaurent(P1, {0: P1.unit(), 1: P1.unit()})
    assert info.value.context["degrees"] == [0, 1]


def test_hl_invert_round_trip_randomized():
    # 20 random invertible Laurent elements: a * a^-1 == 1
    rng = random.Random(11)
    spaces = [P1, AmbientSpace((2,)), AmbientSpace((1, 1))]
    for case in range(20):
        sp = spaces[case % len(spaces)]
        a = HbarLaurent.unit(sp).scale(Fraction(rng.randint(1, 5)))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(sp.nfactors)
            a = a * _linear(sp, rng.randint(1, 4), sp.hyperplane(i))
        shift = rng.randint(-2, 2)
        a = a.times_hbar(shift)
        inv = hl_invert(a)
        assert hl_mul(a, inv) == HbarLaurent.unit(sp)


@pytest.mark.parametrize(
    "value", [P1.unit(), Fraction(1), 1], ids=["class", "fraction", "int"]
)
def test_qseries_refuses_other_coefficient_kinds(value):
    # a class or scalar where an HbarLaurent belongs is refused on
    # construction, naming the curve class, not later inside * or normal_form
    with pytest.raises(TypeError, match=r"beta = \[2\]"):
        QSeries(P1, 2, {(1,): HbarLaurent.unit(P1), (2,): value})


def test_floats_refused_by_the_series():
    with pytest.raises(TypeError, match="float"):
        ScalarQSeries(P1, 1, {(1,): 0.1})
    with pytest.raises(TypeError, match="float"):
        ScalarQSeries(P1, 1, {(1,): 1}).scale(0.5)
    with pytest.raises(TypeError, match="float"):
        HbarLaurent.unit(P1).scale(0.5)
    with pytest.raises(TypeError, match="float"):
        QSeries.unit(P1, 1).scale(0.5)
    assert ScalarQSeries(P1, 1, {(1,): "1/10"}).coeff((1,)) == Fraction(1, 10)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ScalarQSeries(P1, 2, {(1.7,): 1}), "invalid curve class (1.7,)"),
        (lambda: ScalarQSeries(P1, 2.9, {(1,): 1}), "truncation degree 2.9 is not"),
        (lambda: h_factor(P1, (1,), (1.5,)), "invalid curve class (1.5,)"),
        (lambda: QSeries(P1, 2.0), "truncation degree 2.0 is not"),
        (
            lambda: ScalarQSeries(P1, 2).set_coeff((Fraction(3, 2),), 1),
            "invalid curve class (Fraction(3, 2),)",
        ),
    ],
    ids=["class", "truncation", "h_factor", "integral-float", "set_coeff"],
)
def test_non_integral_degrees_refused(build, message):
    # they were truncated to the integer below, (1.7,) stored as (1,)
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_qseries_mixed_truncation_refused():
    # both kinds of q-series, through the shared check
    for make in (QSeries.unit, _scalar_one):
        for op in (operator.add, operator.mul):
            with pytest.raises(TruncationMismatch):
                op(make(P1, 3), make(P1, 4))


def test_qseries_mixed_space_refused():
    for make in (QSeries.unit, _scalar_one):
        for op in (operator.add, operator.mul):
            with pytest.raises(SpaceMismatch):
                op(make(P1, 3), make(P4, 3))


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
@pytest.mark.parametrize("scalar_first", [False, True], ids=["class-scalar", "scalar-class"])
def test_mixed_kinds_refused(op, scalar_first):
    a, b = QSeries.unit(P1, 2), _scalar_one(P1, 2)
    if scalar_first:
        a, b = b, a
    with pytest.raises(SpaceMismatch):
        op(a, b)


@pytest.mark.parametrize("cls", [QSeries, ScalarQSeries])
def test_negative_truncation_refused(cls):
    with pytest.raises(ValueError):
        cls(P1, -1)


@pytest.mark.parametrize(
    "g1, error",
    [
        ([], SpaceMismatch),
        ([ScalarQSeries.zero(P1, 2)] * 2, SpaceMismatch),
        ([QSeries(P1, 2)], SpaceMismatch),
        ([ScalarQSeries.zero(P1, 3)], TruncationMismatch),
        ([_scalar_one(P1, 2)], ValueError),
    ],
    ids=["none", "two", "class-valued", "degree", "constant-term"],
)
@pytest.mark.parametrize("substitute", [compose_substitute, qs_substitute])
def test_substitution_data_refused(substitute, g1, error):
    f = ScalarQSeries(P1, 2, {(1,): 1})
    series = f if substitute is compose_substitute else _promote(P1, f)
    with pytest.raises(error):
        substitute(series, g1)


def test_qseries_product_truncates():
    q = QSeries(P1, 2, {(1,): HbarLaurent.unit(P1)})
    sq = q * q
    assert sq.term((2,)) == HbarLaurent.unit(P1)
    assert sq.term((1,)).is_zero
    cube = sq * q
    assert all(hl.is_zero for hl in cube.terms.values())


def test_scalar_exp_log_round_trip_randomized():
    # 20 seeded cases: log(exp(f)) == f for zero-constant f
    rng = random.Random(5)
    spaces = [P1, AmbientSpace((1, 1))]
    for case in range(20):
        sp = spaces[case % len(spaces)]
        D = rng.choice((3, 4, 5))
        terms = {}
        for beta in QSeries.unit(sp, D).curve_classes():
            if 0 < sum(beta):
                terms[beta] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        f = ScalarQSeries(sp, D, terms)
        assert qs_log(qs_exp(f)) == f


def test_class_exp_matches_scalar_exp():
    # qs_exp_full and qs_exp share one exp recurrence; on a promoted scalar
    # series the two must agree
    for sp, D in ((P1, 5), (AmbientSpace((1, 1)), 3)):
        terms = {b: Fraction(sum(b) + 1, 3) for b in QSeries.unit(sp, D).curve_classes()}
        del terms[(0,) * sp.nfactors]
        f = ScalarQSeries(sp, D, terms)
        assert qs_exp_full(_promote(sp, f)) == _promote(sp, qs_exp(f))


def test_qs_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        qs_exp(_scalar_one(P1, 2))


def test_qs_log_requires_unit_constant():
    with pytest.raises(ValueError):
        qs_log(ScalarQSeries.zero(P1, 2))


def test_substitute_identity():
    S = QSeries(P1, 3, {(1,): HbarLaurent.unit(P1), (2,): _linear(P1, 2)})
    out = qs_substitute(S, [ScalarQSeries.zero(P1, 3)])
    assert out == S


def test_substitute_single_variable_example():
    # S = q with f1 = q at D=2 gives q + q^2
    S = QSeries(P1, 2, {(1,): HbarLaurent.unit(P1)})
    f = ScalarQSeries(P1, 2, {(1,): Fraction(1)})
    out = qs_substitute(S, [f])
    assert out.term((1,)) == HbarLaurent.unit(P1)
    assert out.term((2,)) == HbarLaurent.unit(P1)


def test_substitute_keeps_origin_term():
    S = QSeries.unit(P1, 3)
    f = ScalarQSeries(P1, 3, {(1,): Fraction(7)})
    out = qs_substitute(S, [f])
    assert out == S


def test_substitute_inverse_round_trip_randomized():
    # 20 seeded cases of criterion: substitution followed by its inverse is the identity
    rng = random.Random(23)
    spaces = [P1, AmbientSpace((1, 1)), AmbientSpace((2, 1))]
    for case in range(20):
        sp = spaces[case % len(spaces)]
        D = rng.choice((3, 4))
        f1 = []
        for _ in range(sp.nfactors):
            terms = {}
            for beta in QSeries.unit(sp, D).curve_classes():
                if 0 < sum(beta):
                    terms[beta] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            f1.append(ScalarQSeries(sp, D, terms))
        # f1 reaches every class, so every term of S has one total degree
        power = rng.randint(-2, 1)
        terms = {}
        for beta in QSeries.unit(sp, D).curve_classes():
            cls = sp.unit().scale(Fraction(rng.randint(-5, 5)))
            if not cls.is_zero:
                terms[beta] = HbarLaurent(sp, {power: cls})
        S = QSeries(sp, D, terms)
        g1 = invert_substitution(f1)
        assert qs_substitute(qs_substitute(S, f1), g1) == S
        # and the scalar composition identity behind it
        for f, g in zip(f1, g1):
            comp = compose_substitute(f, g1)
            assert comp + g == ScalarQSeries.zero(sp, D)


def test_truncation_stability_randomized():
    # 20 seeded cases: computing at higher D then truncating matches direct computation
    rng = random.Random(77)
    for case in range(20):
        sp = P1 if case % 2 else AmbientSpace((1, 1))
        lo_D, hi_D = 3, 5
        # graded: the q^beta term of each series sits at total degree
        # offset - <c, beta>, so every product lands on one degree
        c = [rng.randint(-1, 1) for _ in sp.factors]
        terms_a, terms_b = {}, {}
        stores = ((terms_a, rng.randint(-1, 1)), (terms_b, rng.randint(-1, 1)))
        for beta in QSeries.unit(sp, hi_D).curve_classes():
            for store, offset in stores:
                cls = sp.unit().scale(Fraction(rng.randint(-3, 3)))
                if not cls.is_zero:
                    power = offset - sum(x * d for x, d in zip(c, beta))
                    store[beta] = HbarLaurent(sp, {power: cls})
        A = QSeries(sp, hi_D, terms_a)
        B = QSeries(sp, hi_D, terms_b)
        hi = (A * B).truncate(lo_D)
        lo = A.truncate(lo_D) * B.truncate(lo_D)
        assert hi == lo


def test_ungraded_series_product_refused():
    # q^3 at total degree -1 but q^0, q^1 and q^2 at degree 0: in the
    # square, q^0 q^3 lands on degree -1 and q^1 q^2 on degree 0, in one
    # coefficient
    one = HbarLaurent.unit(P1)
    S = QSeries(P1, 3, {(0,): one, (1,): one, (2,): one, (3,): one.times_hbar(-1)})
    with pytest.raises(StructureViolation) as info:
        S * S
    assert sorted(info.value.context["degrees"]) == [-1, 0]


def test_qseries_serialization_round_trip():
    S = QSeries(
        P1,
        2,
        {
            (1,): _linear(P1, 3),
            (2,): hl_invert(_linear(P1, 1) * _linear(P1, 1)),
        },
    )
    obj = qseries_to_obj(S)
    assert obj["D"] == 2
    betas = [tuple(t["beta"]) for t in obj["terms"]]
    assert betas == sorted(betas, key=lambda b: (sum(b), b))
    # the beta = 0 entry is written even when that term is zero
    assert obj["terms"][0] == {"beta": [0], "hbar": []}
    assert qseries_from_obj(P1, obj) == S


def test_hl_serialization_round_trip():
    a = hl_invert(_linear(P4, 1))
    assert hl_from_obj(P4, hl_to_obj(a)) == a


def test_scalar_serialization_round_trip():
    f = ScalarQSeries(P1, 3, {(3,): 9, (1,): Fraction(-2, 3), (2,): 0})
    assert scalar_to_obj(f) == [
        {"beta": [1], "coeff": "-2/3"},
        {"beta": [3], "coeff": "9/1"},
    ]


# -- the one-pass algorithms against the power sums they replaced ------------


def _power_sum(x, one, start, coeff):
    """start + sum_{k >= 1} coeff(k) x^k for x without a q^0 term; x^k
    vanishes past the truncation degree, so the sum is finite."""
    out = start
    power = one
    for k in range(1, x.max_degree + 1):
        power = power * x
        if power.is_zero:
            break
        out = out + power.scale(coeff(k))
    return out


def _exp_coeff(k: int) -> Fraction:
    return Fraction(1, factorial(k))


def _reference_qs_exp(a: ScalarQSeries) -> ScalarQSeries:
    """exp of a series with zero constant term, as the finite truncated sum."""
    if a.constant_term != 0:
        raise ValueError("qs_exp needs a zero constant term")
    one = _scalar_one(a.space, a.max_degree)
    return _power_sum(a, one, one, _exp_coeff)


def _reference_qs_log(a: ScalarQSeries) -> ScalarQSeries:
    """log of a series with constant term 1."""
    if a.constant_term != 1:
        raise ValueError("qs_log needs constant term exactly 1")
    one = _scalar_one(a.space, a.max_degree)
    zero = ScalarQSeries.zero(a.space, a.max_degree)
    return _power_sum(a - one, one, zero, lambda k: Fraction((-1) ** (k + 1), k))


def _reference_qs_exp_full(L: QSeries) -> QSeries:
    """exp of a class-valued series whose beta = 0 term vanishes."""
    if L.zero_beta in L.terms:
        raise ValueError("qs_exp_full needs a vanishing beta = 0 term")
    one = QSeries.unit(L.space, L.max_degree)
    return _power_sum(L, one, one, _exp_coeff)


def _reference_invert_substitution(f1: list[ScalarQSeries]) -> list[ScalarQSeries]:
    """Order-by-order inverse of q -> q*exp(f1): g with g + f(q e^g) = 0."""
    if not f1:
        return []
    space, D = f1[0].space, f1[0].max_degree
    g = [ScalarQSeries.zero(space, D) for _ in f1]
    for degree in range(1, D + 1):
        comps = [compose_substitute(f, g) for f in f1]
        for i, comp in enumerate(comps):
            terms = dict(g[i].terms)
            for beta, c in comp.terms.items():
                if _degree(beta) == degree and c != 0:
                    terms[beta] = -c
            g[i] = ScalarQSeries(space, D, terms)
    return g


REFERENCE_CASES = [
    (sp, D) for sp in (P1, AmbientSpace((1, 1)), AmbientSpace((2, 1))) for D in range(7)
]


def _case_id(case):
    sp, D = case
    return "x".join(f"P{r}" for r in sp.factors) + f"-D{D}"


def _random_scalar(rng, sp, D, density=0.7):
    """A scalar series with zero constant term and some missing terms."""
    terms = {}
    for beta in _scalar_one(sp, D).curve_classes()[1:]:
        if rng.random() < density:
            terms[beta] = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
    return ScalarQSeries(sp, D, terms)


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=_case_id)
def test_exp_log_match_power_sums(case):
    sp, D = case
    rng = random.Random(1000 * sp.nfactors + 10 * sum(sp.factors) + D)
    for _ in range(3):
        f = _random_scalar(rng, sp, D)
        e = qs_exp(f)
        assert e == _reference_qs_exp(f)
        assert qs_log(e) == _reference_qs_log(e) == f
        # a constant-1 series that is not an exp of anything simple
        a = _scalar_one(sp, D) + _random_scalar(rng, sp, D, density=0.4)
        assert qs_log(a) == _reference_qs_log(a)


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=_case_id)
def test_class_exp_matches_power_sum(case):
    sp, D = case
    rng = random.Random(2000 * sp.nfactors + 10 * sum(sp.factors) + D)
    # graded like a transform's exponent: the q^beta term has total degree
    # -<c, beta>, a scalar at that hbar power and a divisor one below it
    c = [rng.randint(0, 1) for _ in sp.factors]
    terms = {}
    for beta in QSeries.unit(sp, D).curve_classes()[1:]:
        if rng.random() < 0.6:
            i = rng.randrange(sp.nfactors)
            power = -sum(x * d for x, d in zip(c, beta))
            div = sp.hyperplane(i).scale(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            scalar = sp.unit().scale(rng.randint(-3, 3))
            terms[beta] = HbarLaurent(sp, {power - 1: div, power: scalar})
    L = QSeries(sp, D, terms)
    assert qs_exp_full(L) == _reference_qs_exp_full(L)


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=_case_id)
def test_invert_substitution_matches_round_by_round(case):
    sp, D = case
    rng = random.Random(3000 * sp.nfactors + 10 * sum(sp.factors) + D)
    for _ in range(2):
        f1 = [_random_scalar(rng, sp, D) for _ in range(sp.nfactors)]
        assert invert_substitution(f1) == _reference_invert_substitution(f1)


# -- the one-pass inversion's exp(beta . g) factors ---------------------------


def _canonical(terms):
    return sorted((beta, c) for beta, c in terms.items() if c)


def _assert_table_is_truncated_exps(factors, D):
    # the table holds every class beta up to D, and its E_beta is
    # exp(beta . g) truncated at D - |beta|, g the dials it was built for
    g1, table = factors
    space = g1[0].space
    assert sorted(table) == sorted(QSeries.unit(space, D).curve_classes())
    for beta, E in table.items():
        top = D - _degree(beta)
        exponent = {}
        for b, g in zip(beta, g1):
            for gamma, c in g.terms.items():
                if b and _degree(gamma) <= top:
                    exponent[gamma] = exponent.get(gamma, 0) + b * c
        assert _canonical(E) == _canonical(qs_exp(ScalarQSeries(space, top, exponent)).terms)


def _zeros(f1):
    return [ScalarQSeries.zero(f.space, f.max_degree) for f in f1]


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=_case_id)
def test_inversion_factors_are_truncated_exps(case):
    sp, D = case
    rng = random.Random(4000 * sp.nfactors + 10 * sum(sp.factors) + D)
    f1 = [_random_scalar(rng, sp, D) for _ in range(sp.nfactors)]
    g1, factors = series._invert_with_factors(f1, _zeros(f1))
    assert g1 == _reference_invert_substitution(f1)
    assert factors[0] == tuple(g1)
    _assert_table_is_truncated_exps(factors, D)


def _reference_shifted_inversion(h, k):
    """g with g + h(q e^g) = k as k + G(q e^k), G the inverse of q -> q e^h,
    each q^beta factor exp(beta . k) a power sum."""
    space, D = k[0].space, k[0].max_degree
    out = []
    for G, ki in zip(_reference_invert_substitution(h), k):
        total = ki
        for beta, c in G.terms.items():
            exponent = sum((kj.scale(b) for b, kj in zip(beta, k)), ScalarQSeries.zero(space, D))
            shift = ScalarQSeries(space, D, {beta: c})
            total = total + shift * _reference_qs_exp(exponent)
        out.append(total)
    return out


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=_case_id)
def test_shifted_inversion_matches_parent_formula(case):
    sp, D = case
    rng = random.Random(5000 * sp.nfactors + 10 * sum(sp.factors) + D)
    for _ in range(2):
        h = [_random_scalar(rng, sp, D) for _ in range(sp.nfactors)]
        k = [_random_scalar(rng, sp, D) for _ in range(sp.nfactors)]
        g1, factors = series._invert_with_factors(h, k)
        assert g1 == _reference_shifted_inversion(h, k)
        _assert_table_is_truncated_exps(factors, D)
        # g + h(q e^g) = k, with the substitution read off the table
        for g, f, ki in zip(g1, h, k):
            assert g + compose_substitute(f, g1, factors) == ki
        # k = 0 is the plain inversion
        assert series._invert_with_factors(h, _zeros(h))[0] == invert_substitution(h)


SOLVED_MAP_CASES = {
    "quintic": ((4,), ((5,),), 12),
    "bicubic": ((2, 2), ((3, 3),), 5),
    "P1xP1-O(2,1)": ((1, 1), ((2, 1),), 6),
    "P3-O(3)": ((3,), ((3,),), 6),
}


@pytest.mark.parametrize("name", list(SOLVED_MAP_CASES))
def test_solved_map_inversion_factors_are_truncated_exps(name):
    factors, lines, D = SOLVED_MAP_CASES[name]
    sp = AmbientSpace(factors)
    m = solve_mirror_map(i_prime(GeometrySpec(sp, BundleSpec(lines)), D), sp.unit())
    assert m._factors[0] == m.f1
    # P3 O(3) has f1 = 0, whose every factor is exp(0) = 1
    assert all(f.is_zero for f in m.f1) == (name == "P3-O(3)")
    _assert_table_is_truncated_exps(m._factors, D)


def _count_tables(monkeypatch):
    """Record every exp(beta . f1) table built, through either binding."""
    built = []
    invert = series._invert_with_factors

    def recording(h, k):
        built.append(invert(h, k))
        return built[-1]

    monkeypatch.setattr(series, "_invert_with_factors", recording)
    monkeypatch.setattr(mirror, "_invert_with_factors", recording)
    return built


@pytest.mark.parametrize("name", list(SOLVED_MAP_CASES))
def test_n_numbers_reads_every_factor_off_the_inversion(monkeypatch, name):
    # one table per run: the solve's inversion builds it and every
    # substitution reads it, classes the inverted series lacks included
    factors, lines, D = SOLVED_MAP_CASES[name]
    built = _count_tables(monkeypatch)
    n_numbers(GeometrySpec(AmbientSpace(factors), BundleSpec(lines)), D)
    [(_, table)] = built
    _assert_table_is_truncated_exps(table, D)


def test_single_factor_inversion_convolves_once_per_factor_level(monkeypatch):
    # one _convolve per (beta, gamma) with beta, gamma != 0 and
    # |beta| + |gamma| <= 12: sum_{b=1}^{11} (12 - b) = 66; recomposing f
    # at every degree made 286
    rng = random.Random(12)
    f1 = [_random_scalar(rng, P1, 12, density=1.0)]
    calls = []
    convolve = series._convolve

    def counting(*args):
        calls.append(args[0])
        return convolve(*args)

    monkeypatch.setattr(series, "_convolve", counting)
    g1 = invert_substitution(f1)
    monkeypatch.undo()
    assert len(calls) <= 66
    assert g1 == _reference_invert_substitution(f1)
