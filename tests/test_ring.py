import random
import re
from fractions import Fraction
from math import gcd

import pytest

from gwtwist import (
    AmbientSpace,
    BundleSpec,
    CohClass,
    SpaceMismatch,
    euler_class,
    lift,
)
from gwtwist.ring import ZERO, coh_to_obj, format_fraction


def test_basis_order_and_size():
    sp = AmbientSpace((2, 1))
    assert len(sp.basis) == 6
    assert sp.basis[0] == (0, 0)
    assert sp.basis[-1] == (2, 1)
    degrees = [sum(e) for e in sp.basis]
    assert degrees == sorted(degrees)


def test_zero_and_unit_are_shared_per_space():
    # classes are immutable, so each space hands out one zero and one unit
    sp = AmbientSpace((2, 1))
    assert sp.zero() is sp.zero() and sp.unit() is sp.unit()
    assert sp.zero().is_zero and (sp.zero().num, sp.zero().den) == ((0,) * 6, 1)
    other = AmbientSpace((2, 1))
    assert other.zero() == sp.zero() and other.unit() == sp.unit()
    assert sp.unit() + sp.zero() == sp.unit()


def test_space_validation():
    with pytest.raises(ValueError):
        AmbientSpace(())
    with pytest.raises(ValueError):
        AmbientSpace((0,))


def test_nilpotency():
    sp = AmbientSpace((1,))
    h = sp.hyperplane(0)
    assert (h * h).is_zero
    sp2 = AmbientSpace((4,))
    h2 = sp2.hyperplane(0)
    pow4 = h2 * h2 * h2 * h2
    assert pow4 == sp2.monomial((4,))
    assert (pow4 * h2).is_zero


def test_integrate_top_class():
    sp = AmbientSpace((2, 1))
    top = sp.monomial((2, 1), Fraction(7, 3))
    assert sp.integrate(top) == Fraction(7, 3)
    assert sp.integrate(sp.unit()) == 0


def test_integrate_space_mismatch():
    sp = AmbientSpace((2,))
    other = AmbientSpace((3,))
    with pytest.raises(SpaceMismatch):
        sp.integrate(other.unit())


def test_mixed_space_arithmetic_rejected():
    a = AmbientSpace((2,)).unit()
    b = AmbientSpace((3,)).unit()
    with pytest.raises(SpaceMismatch):
        _ = a + b
    with pytest.raises(SpaceMismatch):
        a * b


def test_euler_class_quintic_line():
    sp = AmbientSpace((4,))
    e = euler_class(sp, BundleSpec(((5,),)))
    assert e == sp.monomial((1,), 5)


def test_euler_class_vanishes_for_local_p1():
    sp = AmbientSpace((1,))
    e = euler_class(sp, BundleSpec(((-1,), (-1,))))
    assert e.is_zero


def test_euler_class_empty_bundle_is_unit():
    sp = AmbientSpace((3,))
    assert euler_class(sp, BundleSpec(())) == sp.unit()


def test_bundle_rejects_zero_line():
    with pytest.raises(ValueError):
        BundleSpec(((0, 0),))


def test_bundle_factor_length_checked():
    sp = AmbientSpace((1, 1))
    with pytest.raises(SpaceMismatch):
        BundleSpec(((1,),)).validate_for(sp)


def test_lift_p3_into_p4():
    small = AmbientSpace((3,))
    big = AmbientSpace((4,))
    c = small.monomial((3,), Fraction(5, 2)) + small.unit()
    up = lift(c, big)
    assert up.coeff((3,)) == Fraction(5, 2)
    assert up.coeff((0,)) == 1
    assert up.coeff((4,)) == 0


def test_lift_rejects_smaller_target():
    with pytest.raises(SpaceMismatch):
        lift(AmbientSpace((4,)).unit(), AmbientSpace((3,)))


def test_serialization_round_trip():
    sp = AmbientSpace((2, 1))
    c = sp.monomial((1, 1), Fraction(-3, 7)) + sp.monomial((2, 0), 4)
    obj = coh_to_obj(c)
    assert all(isinstance(e["coeff"], str) and "/" in e["coeff"] for e in obj)


def test_fraction_formatting_always_has_denominator():
    assert format_fraction(Fraction(2875)) == "2875/1"
    assert format_fraction(Fraction(-1, 8)) == "-1/8"


def _random_class(sp, rng):
    coeffs = []
    for _ in sp.basis:
        coeffs.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return CohClass(sp, tuple(coeffs))


def test_ring_laws_randomized():
    # commutativity, associativity, distributivity: 20 seeded cases
    rng = random.Random(2024)
    spaces = [AmbientSpace((1,)), AmbientSpace((4,)), AmbientSpace((2, 1)), AmbientSpace((1, 1, 1))]
    for case in range(20):
        sp = spaces[case % len(spaces)]
        a, b, c = (_random_class(sp, rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * sp.unit() == a


# -- the integer-numerator kernel against the dense Fraction one ---------------

KERNEL_SPACES = [
    AmbientSpace((1,)),
    AmbientSpace((4,)),
    AmbientSpace((1, 1)),
    AmbientSpace((2, 2)),
    AmbientSpace((1, 1, 1)),
]


def _reference_mul(self, other):
    """The dense-Fraction class product the integer kernel replaced, verbatim."""
    if not isinstance(other, CohClass):
        return self.scale(other)
    self._check(other)
    space = self.space
    caps = space.factors
    index = space.basis_index
    out = [ZERO] * len(space.basis)
    mine = [(e, c) for e, c in self.items()]
    for eb, cb in other.items():
        for ea, ca in mine:
            # nilpotency: drop monomials past p_i^{r_i}
            e = tuple(x + y for x, y in zip(ea, eb))
            if any(x > cap for x, cap in zip(e, caps)):
                continue
            out[index[e]] += ca * cb
    return CohClass(space, tuple(out))


def _kernel_class(sp, rng):
    """Random coefficients: some zero, some with large numerators and
    denominators, so denominators differ and reduce."""
    coeffs = []
    for _ in sp.basis:
        kind = rng.random()
        if kind < 0.3:
            coeffs.append(ZERO)
        elif kind < 0.6:
            coeffs.append(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 12))))
        else:
            coeffs.append(Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**20)))
    return CohClass(sp, coeffs)


def _assert_canonical(c):
    assert c.den > 0
    assert all(type(x) is int for x in c.num)
    assert gcd(c.den, *c.num) == 1
    if c.is_zero:
        assert c.den == 1


@pytest.mark.parametrize("sp", KERNEL_SPACES, ids=lambda sp: "x".join(f"P{r}" for r in sp.factors))
def test_integer_kernel_matches_dense_fractions(sp):
    rng = random.Random(sum(sp.factors) * 31 + sp.nfactors)
    for _ in range(15):
        a, b = _kernel_class(sp, rng), _kernel_class(sp, rng)
        k = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        dense_a, dense_b = a.coeffs, b.coeffs
        results = {
            "add": (a + b, [x + y for x, y in zip(dense_a, dense_b)]),
            "sub": (a - b, [x - y for x, y in zip(dense_a, dense_b)]),
            "neg": (-a, [-x for x in dense_a]),
            "scale": (a.scale(k), [k * x for x in dense_a]),
            "scale-int": (a.scale(-3), [-3 * x for x in dense_a]),
            "scale-zero": (a.scale(0), [ZERO for _ in dense_a]),
            "mul": (a * b, list(_reference_mul(a, b).coeffs)),
            "square": (a * a, list(_reference_mul(a, a).coeffs)),
        }
        for name, (got, want) in results.items():
            _assert_canonical(got)
            assert list(got.coeffs) == want, name
            assert got == CohClass(sp, want), name


def test_class_canonical_form_and_hash():
    sp = AmbientSpace((2, 2))
    rng = random.Random(9)
    for _ in range(20):
        a, b = _kernel_class(sp, rng), _kernel_class(sp, rng)
        routes = [
            a,
            (a + b) - b,
            CohClass(sp, a.coeffs),
            CohClass(sp, [7 * x for x in a.num], 7 * a.den),
            CohClass(sp, [-x for x in a.num], -a.den),
            -(-a),
            a.scale(Fraction(3, 5)).scale(Fraction(5, 3)),
        ]
        for c in routes:
            _assert_canonical(c)
            assert c == a
            assert hash(c) == hash(a)
    zero = a - a
    _assert_canonical(zero)
    assert zero == sp.zero() and hash(zero) == hash(sp.zero())
    assert (zero.num, zero.den) == ((0,) * len(sp.basis), 1)
    with pytest.raises(ZeroDivisionError):
        CohClass(sp, [1] * len(sp.basis), 0)
    with pytest.raises(ValueError):
        CohClass(sp, [1, 2])


def test_class_accessors_return_fractions():
    sp = AmbientSpace((1, 1))
    c = CohClass(sp, (Fraction(1, 2), 3, "-5/6", 0))
    assert c.coeffs == (Fraction(1, 2), Fraction(3), Fraction(-5, 6), Fraction(0))
    assert (c.num, c.den) == ((3, 18, -5, 0), 6)
    values = list(c.coeffs) + [c.coeff((1, 0)), c.coeff((1, 1)), c.coeff((5, 5)), c.scalar_part]
    values += [x for _, x in c.items()]
    assert all(type(x) is Fraction for x in values)
    assert [e for e, _ in c.items()] == [(0, 0), (0, 1), (1, 0)]


def test_floats_refused():
    # a float's binary value is not the decimal it was written as: 0.1
    # would become 3602879701896397/36028797018963968
    sp = AmbientSpace((1,))
    with pytest.raises(TypeError, match="float"):
        CohClass(sp, [0.1, 0])
    with pytest.raises(TypeError, match="float"):
        sp.unit().scale(0.1)
    with pytest.raises(TypeError, match="float"):
        sp.monomial((1,), 0.5)
    with pytest.raises(TypeError, match="float"):
        sp.divisor([0.5])
    # exact values of every other kind are still taken
    assert CohClass(sp, [1, "1/10"]) == CohClass(sp, [Fraction(1), Fraction(1, 10)])
    assert sp.unit().scale("1/10") == sp.unit().scale(Fraction(1, 10))
    assert sp.unit().scale(Fraction(1, 10)).scalar_part == Fraction(1, 10)


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: AmbientSpace((4.7,)), "4.7"),
        (lambda: AmbientSpace(("3",)), "'3'"),
        (lambda: BundleSpec(((5.2,),)), "5.2"),
        (lambda: AmbientSpace((1,)).monomial((Fraction(1, 2),)), "Fraction(1, 2)"),
    ],
    ids=["factor", "factor-string", "bundle", "monomial"],
)
def test_non_integers_refused_not_truncated(build, value):
    # truncation would read 4.7 as P4, "3" as P3, 5.2 as O(5) and 1/2 as the exponent 0
    with pytest.raises(ValueError, match=re.escape(f"{value} is not an integer")):
        build()
