import random
from fractions import Fraction

import pytest

from gwtwist import (
    DegreeOutOfScope,
    TorusWeights,
    Unsupported,
    WeightCollision,
    draw_weights,
    enumerate_graphs,
    localized_invariant,
    oracle_n_value,
)

W2 = TorusWeights((Fraction(0), Fraction(1)))
W5 = TorusWeights(tuple(Fraction(v) for v in (1, 3, 9, 27, 81)))


def test_graph_counts_on_p1():
    assert len(enumerate_graphs(1, 1)) == 4
    assert len(enumerate_graphs(1, 2)) == 6


def test_graph_counts_on_p4():
    assert len(enumerate_graphs(4, 1)) == 40
    singles = [g for g in enumerate_graphs(4, 2) if len(g.vertices) == 2]
    doubles = [g for g in enumerate_graphs(4, 2) if len(g.vertices) == 3]
    assert len(singles) == 20
    assert len(doubles) == 160


def test_graph_listing_factors():
    for g in enumerate_graphs(1, 1):
        assert g.auto == Fraction(1, 2)
    for g in enumerate_graphs(1, 2):
        if len(g.vertices) == 2 or g.marked == 1:
            assert g.auto == Fraction(1, 2)
        else:
            assert g.auto == Fraction(1)


def test_degree_gate():
    with pytest.raises(DegreeOutOfScope):
        enumerate_graphs(1, 3)
    with pytest.raises(DegreeOutOfScope):
        enumerate_graphs(1, 0)
    with pytest.raises(DegreeOutOfScope):
        enumerate_graphs(1, 1, n=2)


def test_point_and_cotangent_values_on_p1():
    # degree-one one-point integrals on P^1: hyperplane pullback gives 1,
    # the cotangent-line class gives -2
    for w in (W2, TorusWeights((Fraction(5), Fraction(-3)))):
        assert localized_invariant(1, 1, (), 0, 1, w) == Fraction(1)
        assert localized_invariant(1, 1, (), 1, 0, w) == Fraction(-2)


def test_quintic_line_count():
    assert localized_invariant(4, 1, (5,), 0, 1, W5) == Fraction(2875)


def test_quintic_degree_two():
    assert localized_invariant(4, 2, (5,), 0, 1, W5) == Fraction(4876875, 4)


def test_weight_independence_randomized():
    rng = random.Random(424)
    seen = set()
    for _ in range(5):
        w = draw_weights(4, rng)
        seen.add(localized_invariant(4, 1, (5,), 0, 1, w))
    assert seen == {Fraction(2875)}


def test_weight_permutation_invariance():
    perm = TorusWeights(tuple(Fraction(v) for v in (27, 1, 81, 3, 9)))
    assert localized_invariant(4, 2, (5,), 0, 1, perm) == Fraction(4876875, 4)


def test_local_geometry_oracle():
    v1, _ = oracle_n_value(1, 1, (-1, -1))
    v2, _ = oracle_n_value(1, 2, (-1, -1))
    assert v1 == Fraction(1)
    assert v2 == Fraction(1, 8)


def test_oracle_matches_seed():
    a, wa = oracle_n_value(4, 1, (5,), seed=7)
    b, wb = oracle_n_value(4, 1, (5,), seed=7)
    assert a == b == Fraction(2875)
    assert wa.values == wb.values


def test_duplicate_weights_rejected():
    with pytest.raises(WeightCollision):
        TorusWeights((Fraction(1), Fraction(1), Fraction(2)))


def test_wrong_weight_count_rejected():
    with pytest.raises(WeightCollision):
        localized_invariant(4, 1, (5,), 0, 1, W2)


def test_degenerate_weight_vector_rejected():
    # 1, 2, 3 in arithmetic progression: the middle-vertex smoothing weight
    # (or a degree-two edge character) vanishes
    w = TorusWeights((Fraction(1), Fraction(2), Fraction(3)))
    with pytest.raises(WeightCollision):
        localized_invariant(2, 2, (), 0, 1, w)


def test_oracle_refuses_integrand_above_dimension():
    # P1 with O(1) at degree 1: e(R^0) has rank 2, plus ev^*(h), so degree 3
    # against a 1-dimensional moduli space; the graph sum would depend on
    # the weights
    for seed in (1, 2, 3):
        with pytest.raises(Unsupported) as info:
            oracle_n_value(1, 1, (1,), seed=seed)
        payload = info.value.payload()
        assert payload["integrand_degree"] == 3
        assert payload["virtual_dimension"] == 1
    with pytest.raises(Unsupported):
        localized_invariant(1, 1, (1,), 0, 1, W2)

