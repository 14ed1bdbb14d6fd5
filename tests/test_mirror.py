import dataclasses
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from gwtwist import (
    AmbientSpace,
    BundleSpec,
    CohClass,
    GeometrySpec,
    MirrorMap,
    NormalForm,
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
    qs_log,
    qs_substitute,
    solve_mirror_map,
    z_closed_form,
    z_from_log,
)
from gwtwist import twist
from gwtwist.ring import coh_to_obj
from gwtwist.series import HbarLaurent, compose_substitute
from gwtwist.twist import _combined_degrees
from test_laurent import _random_terms

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


def test_normal_form_refuses_a_start_it_cannot_read():
    message = "series does not start at the given class"
    S, start = _quintic(2)
    with pytest.raises(SpaceMismatch):
        normal_form(S, P1.unit())
    with pytest.raises(StructureViolation, match=message) as info:
        normal_form(S, start.scale(2))
    assert info.value.context == {"beta": [0]}
    # I' of the bicubic starts at 1, not at its Euler class
    sp = AmbientSpace((2, 2))
    g = GeometrySpec(sp, BundleSpec(((3, 3),)))
    with pytest.raises(StructureViolation, match=message) as info:
        normal_form(i_prime(g, 1), euler_class(sp, g.bundle))
    assert info.value.context == {"beta": [0, 0]}


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


def _reference_normal_form(S, start):
    """normal_form by subtraction: read g, s and the divisor off the scalar
    and p_i coefficients, and refuse unless a0 - g and a1 - s - div vanish."""
    space, D = S.space, S.max_degree
    if start.space != space:
        raise SpaceMismatch("start class on a different ambient space")
    if S.term(S.zero_beta) != HbarLaurent(space, {0: start}):
        raise StructureViolation(
            "series does not start at the given class", beta=[0] * space.nfactors
        )
    unit = space.unit()
    from_unit = start == unit
    n = space.nfactors
    p_exps = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    g_terms = {S.zero_beta: Fraction(1)}
    s_terms: dict = {}
    div_terms: list[dict] = [{} for _ in p_exps]
    for beta, hl in S.terms.items():
        if sum(beta) == 0:
            continue
        top = hl.exponents()[-1]
        if top > 0:
            raise StructureViolation(
                "series carries a positive hbar power", beta=list(beta), power=top
            )
        a0 = hl.coefficient(0)
        a1 = hl.coefficient(-1)
        if from_unit:
            g_beta, s_beta, div = a0.scalar_part, a1.scalar_part, [a1.coeff(e) for e in p_exps]
        else:
            g_beta, s_beta, div = 0, 0, [0] * n
        residual = (a0 - unit.scale(g_beta), a1 - unit.scale(s_beta) - space.divisor(div))
        if not (residual[0].is_zero and residual[1].is_zero):
            want = "a scalar and a scalar plus a divisor" if from_unit else "zero"
            raise StructureViolation(
                f"hbar^0 and hbar^-1 coefficients are not {want}",
                beta=list(beta),
                residual=[coh_to_obj(r) for r in residual],
            )
        if g_beta != 0:
            g_terms[beta] = g_beta
        if s_beta != 0:
            s_terms[beta] = s_beta
        for terms, c in zip(div_terms, div):
            if c != 0:
                terms[beta] = c
    return NormalForm(
        g=ScalarQSeries(space, D, g_terms),
        string=ScalarQSeries(space, D, s_terms),
        divisor_part=tuple(ScalarQSeries(space, D, t) for t in div_terms),
    )


def _outcome(read, S, start):
    """The normal form read, or the refusal's message and context."""
    try:
        return read(S, start)
    except StructureViolation as exc:
        return str(exc), exc.context


@pytest.mark.parametrize("factors", [(1,), (3,), (1, 1), (2, 1)], ids=str)
@pytest.mark.parametrize("unit_start", [True, False], ids=["unit", "divisor-sum"])
def test_normal_form_matches_subtraction_on_random_graded_series(factors, unit_start):
    # each q^beta term homogeneous of a total degree drawn from [-3, 2], as
    # test_laurent draws them: the unit start reads delta = 0 and -1, and
    # positive powers and non-zero layers elsewhere are refused
    sp = AmbientSpace(factors)
    start = sp.unit() if unit_start else sp.divisor_sum()
    rng = random.Random(17 * len(factors) + sum(factors) + 5 * unit_start)
    reads = refusals = 0
    for i in range(200):
        D = 1 + i % 3
        terms = {(0,) * len(factors): HbarLaurent(sp, {0: start})}
        for beta in _scalar_one(sp, D).curve_classes()[1:]:
            if rng.random() < 0.4:
                terms[beta] = HbarLaurent(sp, _random_terms(rng, sp))
        S = QSeries(sp, D, terms)
        got = _outcome(normal_form, S, start)
        assert got == _outcome(_reference_normal_form, S, start)
        reads += isinstance(got, NormalForm)
        refusals += not isinstance(got, NormalForm)
    assert reads >= 20 and refusals >= 20


@pytest.mark.parametrize(
    "factors,lines,D,most", [((4,), ((5,),), 12, 30), ((2, 2), ((3, 3),), 5, 45)]
)
def test_normal_form_builds_two_classes_per_curve_class(monkeypatch, factors, lines, D, most):
    # the two layers of each q^beta term and nothing else: subtracting g.1
    # and s.1 + div to check a residual built 133 and 281 classes here
    sp = AmbientSpace(factors)
    S = i_prime(GeometrySpec(sp, BundleSpec(lines)), D)
    built = []
    init = CohClass.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(CohClass, "__init__", counting)
    nf = normal_form(S, sp.unit())
    monkeypatch.undo()
    assert len(built) <= most
    assert nf == _reference_normal_form(S, sp.unit())


def _counting_classify(monkeypatch) -> list:
    """Replace ``twist.classify`` in every gwtwist module that binds it by
    a wrapper that records, per call, the code of the function calling it
    (a comprehension's own frame skipped); return the record."""
    calls = []
    classify = twist.classify

    def counting(l):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        calls.append(frame.f_code)
        return classify(l)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gwtwist" and getattr(module, "classify", None) is classify:
            monkeypatch.setattr(module, "classify", counting)
    return calls


@pytest.mark.parametrize(
    "factors,lines,D",
    [((4,), ((5,),), 12), ((2, 2), ((3, 3),), 5), ((1,), ((-1,), (-1,)), 10)],
)
def test_n_numbers_checks_no_curve_class_it_builds(monkeypatch, factors, lines, D):
    # the engine reads the series it built at classes of its own
    # enumeration, and the summand kinds GeometrySpec keeps; re-checking
    # made 40, 65 and 33 curve-class checks here and re-classifying 9, 11
    # and 18 classify calls
    g = GeometrySpec(AmbientSpace(factors), BundleSpec(lines))
    calls = []
    check = AmbientSpace.check_curve_class

    def counting(self, beta):
        calls.append(beta)
        return check(self, beta)

    monkeypatch.setattr(AmbientSpace, "check_curve_class", counting)
    kinds = _counting_classify(monkeypatch)
    n_numbers(g, D)
    monkeypatch.undo()
    assert calls == [] and kinds == []


def test_solve_builds_fractions_only_for_its_output(monkeypatch):
    # the scalar kernels run on integer numerators per degree level, so one
    # bicubic D=5 solve builds no more Fractions than its dials have terms,
    # plus slack; with Fraction coefficients it built 2657
    sp = AmbientSpace((2, 2))
    S = i_prime(GeometrySpec(sp, BundleSpec(((3, 3),))), 5)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    m = solve_mirror_map(S, sp.unit())
    monkeypatch.undo()
    terms = sum(len(f.terms) for f in (m.f0, m.string, *m.f1))
    assert terms == 60
    assert len(built) <= terms + 10


def test_apply_transform_refuses_string_and_degree_zero_dials_on_one_class():
    # f0 + p f1 sits at total degree 0 and the string dial at -1, so an
    # exponent term carrying both is not homogeneous
    S, _ = _quintic(2)
    zero, dial = ScalarQSeries.zero(P4, 2), ScalarQSeries(P4, 2, {(1,): 3})
    for f0, f1 in ((dial, zero), (zero, dial)):
        with pytest.raises(StructureViolation) as info:
            apply_transform(S, MirrorMap(f0=f0, f1=(f1,), string=dial))
        assert info.value.context["degrees"] == [-1, 0]


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


def _naive_class_mul(a: QSeries, b: QSeries) -> QSeries:
    """a * b with every coefficient expanded into its monomials hbar^k p^e
    over Fractions: two monomials multiply by adding k and e, a product with
    some e_i > r_i is dropped (p_i^(r_i+1) = 0), and the sums per curve
    class are put back together monomial by monomial.  No class or Laurent
    product is taken, so it shares no code with ``ring._mul_table``."""
    a._check(b)
    space = a.space

    def monomials(hl):
        return [(k, e, x) for k, c in hl.terms.items() for e, x in c.items()]

    sums: dict = {}
    for ba, ca in a.terms.items():
        for bb, cb in b.terms.items():
            if sum(ba) + sum(bb) > a.max_degree:
                continue
            at = sums.setdefault(tuple(x + y for x, y in zip(ba, bb)), {})
            for ka, ea, xa in monomials(ca):
                for kb, eb, xb in monomials(cb):
                    e = tuple(x + y for x, y in zip(ea, eb))
                    if all(x <= r for x, r in zip(e, space.factors)):
                        at[ka + kb, e] = at.get((ka + kb, e), 0) + xa * xb
    out = {}
    for beta, at in sums.items():
        classes: dict = {}
        for (k, e), x in at.items():
            classes[k] = classes.get(k, space.zero()) + space.monomial(e, x)
        out[beta] = HbarLaurent(space, classes)
    return QSeries(space, a.max_degree, out)


def _reference_qs_exp_full(L: QSeries) -> QSeries:
    """exp of a class-valued series whose beta = 0 term vanishes, as the
    finite sum of L^k / k! with termwise products."""
    if L.zero_beta in L.terms:
        raise ValueError("qs_exp_full needs a vanishing beta = 0 term")
    out = power = QSeries.unit(L.space, L.max_degree)
    for k in range(1, L.max_degree + 1):
        power = _naive_class_mul(power, L).scale(Fraction(1, k))
        out = out + power
    return out


def _naive_substitute(S: QSeries, f1) -> QSeries:
    """S(q e^{f1}) term by term: each S_beta q^beta times exp(beta . f1),
    the exponent promoted to a class-valued series."""
    out = QSeries(S.space, S.max_degree)
    for beta, c in S.terms.items():
        exponent = ScalarQSeries.zero(S.space, S.max_degree)
        for x, f in zip(beta, f1):
            exponent = exponent + f.scale(x)
        factor = _reference_qs_exp_full(_promote(S.space, exponent))
        out = out + _naive_class_mul(QSeries(S.space, S.max_degree, {beta: c}), factor)
    return out


def _reference_apply_transform(S, m):
    """The transform as two exponentials and two products: e^{(s + p . f1)/hbar}
    as a class-valued exp, then e^{f0} through a promoted scalar series, with
    termwise products, exps and substitution."""
    space, D = S.space, S.max_degree
    result = _naive_substitute(S, m.f1)
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
        result = _naive_class_mul(_reference_qs_exp_full(QSeries(space, D, shift_terms)), result)
    if not m.f0.is_zero:
        result = _naive_class_mul(_reference_qs_exp_full(_promote(space, m.f0)), result)
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
    with pytest.raises(ValueError, match="single-factor"):
        z_closed_form(x, x)


def _compositions(n):
    """Ordered tuples of positive integers summing to n."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in _compositions(n - first)]


def _degree_coeffs(f):
    return {beta[0]: c for beta, c in f.terms.items()}


def _reference_z_from_log(x, y):
    """Brute force: Q sums, over ordered decompositions (beta_1..beta_s) of
    each degree, (1/s!) prod_m (y_{beta_m} + x_{beta_m} B_{m-1}) with B_m
    the partial sums and B_0 = 0; z is the series of log Q."""
    xc, yc = _degree_coeffs(x), _degree_coeffs(y)
    q_terms = {(0,): Fraction(1)}
    for n in range(1, x.max_degree + 1):
        total = Fraction(0)
        for comp in _compositions(n):
            prod = Fraction(1, math.factorial(len(comp)))
            partial = 0
            for b in comp:
                prod *= yc.get(b, 0) + xc.get(b, 0) * partial
                partial += b
            total += prod
        q_terms[(n,)] = total
    return qs_log(ScalarQSeries(x.space, x.max_degree, q_terms))


def _reference_z_closed_form(x, y):
    """Brute force: z_n sums, over the same ordered decompositions,
    (1/s!) y_{beta_1} prod_{m=2..s} x_{beta_m} B_{m-1}."""
    xc, yc = _degree_coeffs(x), _degree_coeffs(y)
    terms = {}
    for n in range(1, x.max_degree + 1):
        total = Fraction(0)
        for comp in _compositions(n):
            prod = Fraction(yc.get(comp[0], 0), math.factorial(len(comp)))
            partial = comp[0]
            for b in comp[1:]:
                prod *= xc.get(b, 0) * partial
                partial += b
            total += prod
        terms[(n,)] = total
    return ScalarQSeries(x.space, x.max_degree, terms)


def _random_scalar(rng, D):
    """A scalar series on P1 with random coefficients at degrees 0..D, the
    q = 0 term included, each non-zero with probability 3/4."""
    return ScalarQSeries(
        P1,
        D,
        {(d,): Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for d in range(D + 1) if rng.random() < 0.75},
    )


@pytest.mark.parametrize("D", range(8))
def test_z_routes_match_brute_force_reference(D):
    rng = random.Random(2100 + D)
    zero = ScalarQSeries.zero(P1, D)
    cases = [(_random_scalar(rng, D), _random_scalar(rng, D)) for _ in range(8)]
    cases += [(zero, _random_scalar(rng, D)), (_random_scalar(rng, D), zero)]
    for x, y in cases:
        z = _reference_z_closed_form(x, y)
        assert z_closed_form(x, y) == z
        assert z_from_log(x, y) == _reference_z_from_log(x, y) == z


def test_z_closed_value_at_degree_twenty():
    # x = y = q: Q = 1/(1 - q), so z = -log(1 - q) and z_n = 1/n
    D = 20
    q = ScalarQSeries(P1, D, {(1,): 1})
    expected = ScalarQSeries(P1, D, {(n,): Fraction(1, n) for n in range(1, D + 1)})
    started = time.perf_counter()
    assert z_from_log(q, q) == z_closed_form(q, q) == expected
    assert qs_exp(z_from_log(q, q)) == ScalarQSeries(P1, D, {(n,): 1 for n in range(D + 1)})
    assert time.perf_counter() - started < 1.0
