"""The homogeneous ``HbarLaurent`` against a plain hbar-power reference,
its refusals, and the homogeneity of the series the pipeline builds.

``HbarLaurent`` stores one class at one total degree.  The reference below
stores one class per hbar power: its product is the double loop over powers
and its inverse the geometric series in u = a / (c hbar^m) - 1.  Every
operation is checked on random homogeneous elements, most of them spread
over several hbar powers; terms of mixed total degree are refused.
"""

import random
from fractions import Fraction

import pytest

from gwtwist import (
    AmbientSpace,
    BundleSpec,
    GeometrySpec,
    HbarLaurent,
    NonInvertible,
    StructureViolation,
    hl_invert,
    hl_mul,
    i_prime,
    invariants,
    n_numbers,
)
from gwtwist.ring import coh_to_obj
from gwtwist.series import hl_from_obj, hl_to_obj
from gwtwist.twist import _combined_degrees

SPACES = [AmbientSpace(f) for f in ((1,), (2,), (3,), (1, 1), (2, 1))]


# -- the hbar-power reference --------------------------------------------------


def _pruned(terms):
    return {k: c for k, c in terms.items() if not c.is_zero}


def _ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return _pruned(out)


def _ref_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            prod = ca * cb
            k = ka + kb
            out[k] = out[k] + prod if k in out else prod
    return _pruned(out)


def _ref_invert(space, a):
    """The inverse as c^-1 hbar^-m sum_i (-u)^i, or NonInvertible when no
    hbar power carries a scalar part."""
    levels = {k: c.scalar_part for k, c in a.items() if c.scalar_part != 0}
    if not levels:
        raise NonInvertible("every hbar coefficient is nilpotent", exponents=sorted(a))
    [(m, c)] = levels.items()
    u = {k - m: cls.scale(1 / c) for k, cls in a.items()}
    u = _ref_add(u, {0: space.unit().scale(-1)})
    total, power, sign = {}, {0: space.unit()}, Fraction(1)
    for _ in range(space.dim + 1):
        total = _ref_add(total, {k - m: cls.scale(sign / c) for k, cls in power.items()})
        power = _ref_mul(power, u)
        sign = -sign
    assert not power, "u is nilpotent"
    return total


# -- random homogeneous elements -------------------------------------------------


def _random_coeff(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.75 else 0


def _random_terms(rng, space, delta=None, scalar=None):
    """The hbar-power terms of a random element of total degree ``delta``
    (drawn from [-3, 2] when None): a monomial p^m at hbar^(delta - |m|).
    ``scalar`` True or False forces a non-zero or a zero scalar part."""
    if delta is None:
        delta = rng.randint(-3, 2)
    terms = {}
    for e in space.basis:
        x = _random_coeff(rng)
        if not any(e) and scalar is not None:
            x = rng.choice((-3, -1, 1, 2, 5)) if scalar else 0
        k = delta - sum(e)
        terms[k] = terms.get(k, space.zero()) + space.monomial(e, x)
    return terms


def _cases(seed, n=40):
    rng = random.Random(seed)
    for i in range(n):
        yield rng, SPACES[i % len(SPACES)]


def test_random_elements_span_several_hbar_powers():
    multi = sum(
        len(HbarLaurent(sp, _random_terms(rng, sp)).terms) > 1 for rng, sp in _cases(1)
    )
    assert multi >= 30


@pytest.mark.parametrize("seed", range(3))
def test_inspection_matches_hbar_powers(seed):
    for rng, sp in _cases(100 + seed):
        terms = _random_terms(rng, sp)
        ref = _pruned(terms)
        a = HbarLaurent(sp, terms)
        assert a.terms == ref
        assert a.exponents() == sorted(ref)
        assert a.is_zero == (not ref)
        for k in range(-8, 6):
            assert a.coefficient(k) == ref.get(k, sp.zero()), k
        # equal however the powers are listed, and hashed alike
        again = HbarLaurent(sp, dict(reversed(list(terms.items()))))
        assert again == a
        assert hash(again) == hash(a)
        other = _random_terms(rng, sp)
        assert (HbarLaurent(sp, other) == a) == (_pruned(other) == ref)


@pytest.mark.parametrize("seed", range(3))
def test_arithmetic_matches_hbar_powers(seed):
    for rng, sp in _cases(200 + seed):
        ta = _pruned(_random_terms(rng, sp))
        a = HbarLaurent(sp, ta)
        tb = _pruned(_random_terms(rng, sp, a.delta))
        b = HbarLaurent(sp, tb)
        assert (a + b).terms == _ref_add(ta, tb)
        assert (a - b).terms == _ref_add(ta, {k: c.scale(-1) for k, c in tb.items()})
        tc = _pruned(_random_terms(rng, sp))
        c = HbarLaurent(sp, tc)
        assert (a * c).terms == _ref_mul(ta, tc)
        assert hl_mul(a, c) == a * c == c * a
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert a.scale(q).terms == _pruned({k: cls.scale(q) for k, cls in ta.items()})
        # a homogeneous class: a monomial
        mono = sp.monomial(rng.choice(sp.basis), rng.randint(-3, 3))
        assert a.scale_class(mono).terms == _pruned({k: cls * mono for k, cls in ta.items()})
        shift = rng.randint(-3, 3)
        assert a.times_hbar(shift).terms == {k + shift: cls for k, cls in ta.items()}
        for k in rng.sample(range(-2, 3), 2):
            d = sp.divisor([rng.randint(-2, 2) for _ in sp.factors])
            lin = HbarLaurent.linear(sp, d, k)
            assert lin.terms == _pruned({0: d, 1: sp.unit().scale(k)})
            assert (a * lin).terms == _ref_mul(ta, lin.terms)


@pytest.mark.parametrize("seed", range(3))
def test_serialization_matches_hbar_powers(seed):
    for rng, sp in _cases(300 + seed):
        terms = _random_terms(rng, sp)
        a = HbarLaurent(sp, terms)
        obj = hl_to_obj(a)
        ref = sorted(_pruned(terms).items())
        assert obj == [{"pow": k, "class": coh_to_obj(c)} for k, c in ref]
        assert hl_from_obj(sp, obj) == a


@pytest.mark.parametrize("seed", range(3))
def test_invert_matches_geometric_series(seed):
    for rng, sp in _cases(400 + seed):
        terms = _random_terms(rng, sp, scalar=True)
        a = HbarLaurent(sp, terms)
        inv = hl_invert(a)
        assert inv.terms == _ref_invert(sp, _pruned(terms))
        assert inv.delta == -a.delta
        assert a * inv == HbarLaurent.unit(sp)


def _raised(error, fn, *args):
    with pytest.raises(error) as info:
        fn(*args)
    return info.value.context


@pytest.mark.parametrize("seed", range(3))
def test_invert_refusals_match_reference(seed):
    for rng, sp in _cases(500 + seed, n=20):
        nilpotent = _pruned(_random_terms(rng, sp, scalar=False))
        if nilpotent:
            context = _raised(NonInvertible, HbarLaurent(sp, nilpotent).invert)
            assert context == _raised(NonInvertible, _ref_invert, sp, nilpotent)
            assert context["exponents"] == sorted(nilpotent)
        # scalar parts at two hbar powers mix total degrees: refused before
        # any inverse is sought
        m, n = sorted(rng.sample(range(-3, 3), 2))
        levels = {m: sp.unit(), n: sp.unit().scale(rng.randint(1, 3))}
        assert _raised(StructureViolation, HbarLaurent, sp, levels)["degrees"] == [m, n]


@pytest.mark.parametrize("seed", range(3))
def test_mixed_total_degrees_refused(seed):
    for rng, sp in _cases(600 + seed, n=20):
        da, db = rng.sample(range(-3, 3), 2)
        a = HbarLaurent(sp, _random_terms(rng, sp, da, scalar=True))
        b = HbarLaurent(sp, _random_terms(rng, sp, db, scalar=True))
        assert _raised(StructureViolation, a.__add__, b)["degrees"] == [da, db]
        assert _raised(StructureViolation, a.__sub__, b)["degrees"] == [da, db]
        # zero has no degree to clash with
        zero = HbarLaurent.zero(sp)
        assert a + zero == a == zero + a
        # a class with a scalar and a divisor part is not homogeneous
        k = rng.randint(-2, 2)
        mixed = sp.unit() + sp.hyperplane(rng.randrange(sp.nfactors))
        assert _raised(StructureViolation, HbarLaurent, sp, {k: mixed})["degrees"] == [k, k + 1]
        assert _raised(StructureViolation, a.scale_class, mixed)["degrees"] == [0, 1]
        assert _raised(StructureViolation, HbarLaurent.linear, sp, mixed, k)["degrees"] == [0, 1]


# -- homogeneity of the pipeline's series ---------------------------------------

PIPELINE_CASES = [
    ("quintic", (4,), ((5,),), 12),
    ("bicubic", (2, 2), ((3, 3),), 5),
    ("P5 O(-1)+O(-5)", (5,), ((-1,), (-5,)), 6),
    ("local P1", (1,), ((-1,), (-1,)), 6),
    ("K_P2", (2,), ((-3,),), 6),
]


def _assert_one_part_per_class(g, S):
    # one degree part per q^beta, at a degree that q^beta shifts by
    # -<c1(T) - c1(E_conv) + c1(E_conc), beta>
    combined = _combined_degrees(g)
    shifted = set()
    for beta, hl in S.terms.items():
        shifted.add(hl.delta + sum(c * d for c, d in zip(combined, beta)))
    assert len(shifted) == 1


@pytest.mark.parametrize(
    "factors, lines, D", [c[1:] for c in PIPELINE_CASES], ids=[c[0] for c in PIPELINE_CASES]
)
def test_pipeline_series_have_one_degree_part_per_class(monkeypatch, factors, lines, D):
    g = GeometrySpec(AmbientSpace(factors), BundleSpec(lines))
    I1 = i_prime(g, D)
    _assert_one_part_per_class(g, I1)
    normalized = []
    normalize = invariants._normalize

    def capture(*args):
        out = normalize(*args)
        normalized.append(out[1])
        return out

    monkeypatch.setattr(invariants, "_normalize", capture)
    n_numbers(g, D)
    [T] = normalized
    assert len(T.terms) >= D
    _assert_one_part_per_class(g, T)
