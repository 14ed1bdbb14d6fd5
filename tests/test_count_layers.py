"""The counts' layers of I' against the full series.

``twist._count_layers`` builds only the hbar^0, hbar^-1 and hbar^-2 layers
of I' that the counts read, as integer numerators on the degree <= 2
prefix of the basis.  Read through the same readers, they must give what
the full ``i_prime`` gives: ``normal_form``'s g, s and div, and the hbar^-2
entries under every ``invariants._pairing`` row, the refusal rows of a
concave bundle included.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from gwtwist import AmbientSpace, BundleSpec, GeometrySpec, check_conditions, i_prime, n_numbers
from gwtwist import invariants, mirror, twist
from gwtwist.ring import CohClass
from gwtwist.series import HbarLaurent, _Layers

# the degree set of tests/test_sweep.py: one P^r, r = 1..6, one to three
# summands of degree -3..5, at D = 6
SWEEP_DEGREES = (-3, -2, -1, 1, 2, 3, 4, 5)
SWEEP_D = 6

# products of two and three factors, zero to two convex summands with
# entries 0..2, at D = 4
PRODUCT_FACTORS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (1, 1, 1), (2, 1, 1), (1, 1, 2))
PRODUCT_ENTRIES = (0, 1, 2)
PRODUCT_D = 4


def _hbar_minus_two(layers: _Layers, row, den) -> dict:
    """beta -> P(S_-2), the pairing row (row, den) on the degree-(delta + 2)
    part of each class, where non-zero."""
    out = {}
    for beta, (delta, num, d) in layers.terms.items():
        x = sum(w * num[k] for k, (w, e) in enumerate(zip(row, layers.space.basis)) if w and sum(e) == delta + 2)
        if x:
            out[beta] = Fraction(x, den * d)
    return out


def _assert_same_layers(g: GeometrySpec, D: int):
    full, S = i_prime(g, D), twist._count_layers(g, D)
    unit = g.space.unit()
    a, b = mirror.normal_form(full, unit), mirror.normal_form(S, unit)
    assert (b.g, b.string, b.divisor_part) == (a.g, a.string, a.divisor_part)
    for row, den in invariants._pairing(g):
        assert _hbar_minus_two(S, row, den) == _hbar_minus_two(_Layers.of(full), row, den)
    # and through the count's own read, under the map solved on the full series
    m = mirror.solve_mirror_map(full, unit)
    rows = invariants._pairing(g)
    assert mirror._paired_layers(S, m, rows) == mirror._paired_layers(full, m, rows)


def _gated(factors, lines):
    g = GeometrySpec(AmbientSpace(factors), BundleSpec(lines))
    return g if check_conditions(g).all_nonneg else None


def _sweep():
    for r in range(1, 7):
        for rank in range(1, 4):
            for lines in combinations_with_replacement(SWEEP_DEGREES, rank):
                if g := _gated((r,), tuple((l,) for l in lines)):
                    yield g


def _products():
    for factors in PRODUCT_FACTORS:
        multidegrees = [l for l in product(PRODUCT_ENTRIES, repeat=len(factors)) if any(l)]
        for rank in range(3):
            for lines in combinations_with_replacement(multidegrees, rank):
                if g := _gated(factors, lines):
                    yield g


def test_layers_match_i_prime_on_the_sweep_degree_set():
    count = 0
    for g in _sweep():
        _assert_same_layers(g, SWEEP_D)
        count += 1
    assert count == 272


def test_layers_match_i_prime_on_products():
    count = 0
    for g in _products():
        _assert_same_layers(g, PRODUCT_D)
        count += 1
    assert count == 583


def test_layers_leave_out_every_class_of_p4_o1():
    # delta = -4d < -2 at every degree d: no class carries a layer the counts read
    g = GeometrySpec(AmbientSpace((4,)), BundleSpec(((1,),)))
    assert twist._count_layers(g, 8).terms == {}
    _assert_same_layers(g, 8)
    assert set(n_numbers(g, 8).values()) == {0}


@pytest.mark.parametrize("factors, lines", [((4,), ((5,),)), ((2, 2), ((3, 3),))], ids=["quintic", "bicubic"])
def test_counts_build_no_class_per_curve_class(monkeypatch, factors, lines):
    g = GeometrySpec(AmbientSpace(factors), BundleSpec(lines))
    n_numbers(g, 2)  # warm-up: the tables cached per ambient
    classes, laurent = [], []
    init, laurent_init, laurent_of = CohClass.__init__, HbarLaurent.__init__, HbarLaurent._of.__func__

    def counting(record, build):
        def counted(*args):
            record.append(1)
            return build(*args)

        return counted

    monkeypatch.setattr(CohClass, "__init__", counting(classes, init))
    monkeypatch.setattr(HbarLaurent, "__init__", counting(laurent, laurent_init))
    monkeypatch.setattr(HbarLaurent, "_of", classmethod(counting(laurent, laurent_of)))
    built = []
    for D in (5, 10):
        classes.clear()
        n_numbers(g, D)
        built.append(len(classes))
    assert laurent == []
    assert built[0] == built[1]
