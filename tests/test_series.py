import operator
import random
from fractions import Fraction

import pytest

from gwtwist import (
    AmbientSpace,
    HbarLaurent,
    NonInvertible,
    QSeries,
    ScalarQSeries,
    SpaceMismatch,
    TruncationMismatch,
    hl_invert,
    hl_mul,
    invert_substitution,
    qs_exp,
    qs_log,
    qs_substitute,
    qseries_from_obj,
    qseries_to_obj,
)
from gwtwist.series import (
    compose_substitute,
    hl_from_obj,
    hl_to_obj,
    promote,
    qs_exp_full,
    scalar_to_obj,
)

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
    # 1 + hbar has no finite inverse
    a = HbarLaurent(P1, {0: P1.unit(), 1: P1.unit()})
    with pytest.raises(NonInvertible) as info:
        a.invert()
    assert info.value.context["levels"] == [0, 1]


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


def test_qseries_mixed_truncation_refused():
    # both kinds of q-series, through the shared check
    for make in (QSeries.unit, ScalarQSeries.one):
        for op in (operator.add, operator.mul):
            with pytest.raises(TruncationMismatch):
                op(make(P1, 3), make(P1, 4))


def test_qseries_mixed_space_refused():
    for make in (QSeries.unit, ScalarQSeries.one):
        for op in (operator.add, operator.mul):
            with pytest.raises(SpaceMismatch):
                op(make(P1, 3), make(P4, 3))


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
@pytest.mark.parametrize("scalar_first", [False, True], ids=["class-scalar", "scalar-class"])
def test_mixed_kinds_refused(op, scalar_first):
    a, b = QSeries.unit(P1, 2), ScalarQSeries.one(P1, 2)
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
        ([ScalarQSeries.one(P1, 2)], ValueError),
    ],
    ids=["none", "two", "class-valued", "degree", "constant-term"],
)
@pytest.mark.parametrize("substitute", [compose_substitute, qs_substitute])
def test_substitution_data_refused(substitute, g1, error):
    f = ScalarQSeries(P1, 2, {(1,): 1})
    series = f if substitute is compose_substitute else promote(P1, f)
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
    # qs_exp_full and qs_exp share one power sum; on a promoted scalar
    # series the two must agree
    for sp, D in ((P1, 5), (AmbientSpace((1, 1)), 3)):
        terms = {b: Fraction(sum(b) + 1, 3) for b in QSeries.unit(sp, D).curve_classes()}
        del terms[(0,) * sp.nfactors]
        f = ScalarQSeries(sp, D, terms)
        assert qs_exp_full(promote(sp, f)) == promote(sp, qs_exp(f))


def test_qs_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        qs_exp(ScalarQSeries.one(P1, 2))


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
        terms = {}
        for beta in QSeries.unit(sp, D).curve_classes():
            cls = sp.unit().scale(Fraction(rng.randint(-5, 5)))
            if not cls.is_zero:
                terms[beta] = HbarLaurent(sp, {rng.randint(-2, 1): cls})
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
        terms_a, terms_b = {}, {}
        for beta in QSeries.unit(sp, hi_D).curve_classes():
            for store in (terms_a, terms_b):
                cls = sp.unit().scale(Fraction(rng.randint(-3, 3)))
                if not cls.is_zero:
                    store[beta] = HbarLaurent(sp, {rng.randint(-1, 1): cls})
        A = QSeries(sp, hi_D, terms_a)
        B = QSeries(sp, hi_D, terms_b)
        hi = (A * B).truncate(lo_D)
        lo = A.truncate(lo_D) * B.truncate(lo_D)
        assert hi == lo


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


def test_promote_places_unit_class():
    f = ScalarQSeries(P1, 2, {(0,): Fraction(2), (1,): Fraction(-1)})
    S = promote(P1, f)
    assert S.term((0,)) == HbarLaurent(P1, {0: P1.unit().scale(2)})
    assert S.term((1,)) == HbarLaurent(P1, {0: P1.unit().scale(-1)})
