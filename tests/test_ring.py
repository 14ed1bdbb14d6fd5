import random
from fractions import Fraction

import pytest

from gwtwist import (
    AmbientSpace,
    BundleSpec,
    CohClass,
    SpaceMismatch,
    euler_class,
    lift,
)
from gwtwist.ring import coh_from_obj, coh_to_obj, format_fraction, parse_fraction


def test_basis_order_and_size():
    sp = AmbientSpace((2, 1))
    assert len(sp.basis) == 6
    assert sp.basis[0] == (0, 0)
    assert sp.basis[-1] == (2, 1)
    degrees = [sum(e) for e in sp.basis]
    assert degrees == sorted(degrees)


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
    assert coh_from_obj(sp, obj) == c


def test_fraction_formatting_always_has_denominator():
    assert format_fraction(Fraction(2875)) == "2875/1"
    assert format_fraction(Fraction(-1, 8)) == "-1/8"
    assert parse_fraction("4876875/8") == Fraction(4876875, 8)


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
