import ast
import random
import sys
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

import pytest

from gwtwist import (
    DegreeOutOfScope,
    FixedGraph,
    TorusWeights,
    Unclassifiable,
    Unsupported,
    WeightCollision,
    draw_weights,
    enumerate_graphs,
    localization,
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


@pytest.mark.parametrize("d", [1, 2])
def test_graph_count_closed_form(d):
    for r in range(1, 9):
        want = 2 * r * (r + 1) if d == 1 else r * (r + 1) * (2 * r + 1)
        assert len(enumerate_graphs(r, d)) == want


def test_graphs_are_enumerated_once_per_shape():
    # the listing is built once per (r, d) and shared as a frozen tuple
    graphs = enumerate_graphs(4, 2)
    assert isinstance(graphs, tuple)
    assert enumerate_graphs(4, 2) is graphs
    assert enumerate_graphs(4, 1) is not graphs


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


def test_float_weights_refused():
    # 0.1 would be stored as its binary value, 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match=r"float 0\.1 in exact arithmetic"):
        TorusWeights((0.1, 0.2, 0.3, 0.4, 0.5))


def test_oracle_refuses_p_r_beyond_the_weight_pool():
    # P^97 needs 98 distinct weights, and the pool 1..97 holds 97
    with pytest.raises(Unsupported, match=r"P\^97 needs 98 distinct weights"):
        draw_weights(97, random.Random(0))
    with pytest.raises(Unsupported) as info:
        oracle_n_value(97, 1, (98,))
    assert info.value.payload()["pool"] == 97
    assert len(draw_weights(96, random.Random(0))) == 97


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



# The graph sum as it stood before the per-draw tables, kept verbatim as the
# reference: Fraction arithmetic per graph, every product recomputed.


def _reference_flag_weight(g: FixedGraph, w: TorusWeights, vertex: int, edge: int) -> Fraction:
    other = edge if vertex == edge + 1 else edge + 1
    return Fraction(w[g.vertices[vertex]] - w[g.vertices[other]], g.degrees[edge])


def _reference_normal_euler(g: FixedGraph, r: int, w: TorusWeights) -> Fraction:
    nv = len(g.vertices)
    valence = [1] * nv
    for k in range(1, nv - 1):
        valence[k] = 2
    total = Fraction(1)
    for k, delta in enumerate(g.degrees):
        wi = w[g.vertices[k]]
        wj = w[g.vertices[k + 1]]
        if wi == wj:
            raise WeightCollision("edge endpoints share a weight")
        factor = Fraction((-1) ** delta) * factorial(delta) ** 2
        factor *= (wi - wj) ** (2 * delta)
        factor /= Fraction(delta ** (2 * delta))
        for m in range(r + 1):
            if m in (g.vertices[k], g.vertices[k + 1]):
                continue
            for a in range(delta + 1):
                t = Fraction(a * wi + (delta - a) * wj, delta) - w[m]
                if t == 0:
                    raise WeightCollision("edge character hits a fixed-point weight")
                factor *= t
        total *= factor
    for v in range(nv):
        tangent = Fraction(1)
        for m in range(r + 1):
            if m != g.vertices[v]:
                tangent *= w[g.vertices[v]] - w[m]
        total *= tangent ** (1 - valence[v])
    for v in range(nv):
        if valence[v] != 2:
            continue
        om1 = _reference_flag_weight(g, w, v, v - 1)
        om2 = _reference_flag_weight(g, w, v, v)
        if g.marked == v:
            total *= om1 * om2
        else:
            s = om1 + om2
            if s == 0:
                raise WeightCollision("node-smoothing weight vanishes")
            total *= s
    for v in (0, nv - 1):
        if g.marked == v:
            continue
        edge = 0 if v == 0 else nv - 2
        om = _reference_flag_weight(g, w, v, edge)
        if om == 0:
            raise WeightCollision("flag weight vanishes")
        total /= om
    return total


def _reference_bundle_weight(g: FixedGraph, lines, w: TorusWeights) -> Fraction:
    nv = len(g.vertices)
    valence = [1] * nv
    for k in range(1, nv - 1):
        valence[k] = 2
    total = Fraction(1)
    for l in lines:
        l = int(l)
        if l == 0:
            raise Unclassifiable("zero twist has no type")
        for k, delta in enumerate(g.degrees):
            wi = w[g.vertices[k]]
            wj = w[g.vertices[k + 1]]
            omega = Fraction(wi - wj, delta)
            if l > 0:
                ks = range(0, delta * l + 1)
            else:
                ks = range(delta * l + 1, 0)
            for a in ks:
                total *= l * wj + a * omega
        for v in range(nv):
            base = Fraction(l * w[g.vertices[v]])
            exponent = (1 - valence[v]) if l > 0 else (valence[v] - 1)
            if exponent < 0 and base == 0:
                raise WeightCollision("bundle vertex weight vanishes")
            total *= base ** exponent
    return total


def _reference_require_top_degree(r: int, d: int, lines, psi_power: int, ev_power: int):
    """Refuse an integrand of degree above the virtual dimension."""
    degree = ev_power + psi_power
    for l in lines:
        l = int(l)
        degree += l * d + 1 if l > 0 else -l * d - 1
    dimension = r + (r + 1) * d - 2
    if degree > dimension:
        raise Unsupported(
            "integrand degree exceeds the virtual dimension; the graph sum "
            "would depend on the weights",
            integrand_degree=degree,
            virtual_dimension=dimension,
        )


def _reference_localized_invariant(
    r: int,
    d: int,
    lines,
    psi_power: int,
    ev_power: int,
    weights: TorusWeights,
) -> Fraction:
    """Graph-sum value of the one-point integral with ev^*(h)^b and psi^a.

    Exact rational; the same for every admissible weight choice.
    """
    if len(weights) != r + 1:
        raise WeightCollision(f"need {r + 1} weights for P^{r}", got=len(weights))
    _reference_require_top_degree(r, d, lines, psi_power, ev_power)
    total = Fraction(0)
    for g in enumerate_graphs(r, d):
        contribution = g.auto * _reference_bundle_weight(g, lines, weights)
        w_mark = weights[g.vertices[g.marked]]
        contribution *= w_mark**ev_power
        if psi_power:
            nv = len(g.vertices)
            if g.marked in (0, nv - 1):
                edge = 0 if g.marked == 0 else nv - 2
                psi = -_reference_flag_weight(g, weights, g.marked, edge)
            else:
                psi = Fraction(0)
            contribution *= psi**psi_power
            if contribution == 0:
                continue
        total += contribution / _reference_normal_euler(g, r, weights)
    return total


def _reference_oracle_n_value(r: int, d: int, lines, seed: int = 0):
    rng = random.Random(seed)
    for _ in range(64):
        w = draw_weights(r, rng)
        try:
            return _reference_localized_invariant(r, d, lines, 0, 1, w) / d, w
        except WeightCollision:
            pass
    raise WeightCollision("no admissible weight vector found", attempts=64)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type against the reference
        return type(exc)


# the five shipped bundles, then O(3) on P2, O(3)+O(3) on P5, O(2)+O(-1) on
# P4, the empty bundle, a zero twist, and the two shipped geometries with
# the largest r, where grouping the chains by middle vertex removes the most
# terms
TABLE_CASES = [
    (4, (5,)),
    (4, (1,)),
    (5, (-1, -5)),
    (1, (-1, -1)),
    (3, (1, 1)),
    (2, (3,)),
    (5, (3, 3)),
    (4, (2, -1)),
    (1, ()),
    (3, ()),
    (2, (1, 0)),
    (6, (3, 2, 2)),
    (7, (2, 2, 2, 2)),
]
PSI_EV = [(0, 1), (0, 0), (1, 0), (1, 1), (0, 2)]


def _weight_vectors(r: int):
    yield draw_weights(r, random.Random(900 + r)).values
    yield tuple(Fraction(3 * k + 1, 2 + k % 3) for k in range(r + 1))
    # zero with no weight halfway between two others, so the two-valent
    # bundle factor is what collides
    yield tuple(Fraction(2**k - 1) for k in range(r + 1))
    # a symmetric arithmetic progression: edge characters collide
    yield tuple(Fraction(v) for v in range(-r, r + 2, 2))
    yield tuple(Fraction(v) for v in (5, -3, 7, -11, 2, -6, 13, -1)[: r + 1])


@pytest.mark.parametrize("r, lines", TABLE_CASES)
def test_tables_match_reference_graph_sum(r, lines):
    vectors = [TorusWeights(values) for values in _weight_vectors(r)]
    # the reference is slow, so each (psi, ev) gets two vectors at degree 1
    # and one at degree 2; at degree 2 the zero and progression vectors meet
    # psi > 0, which skips the Euler checks of graphs whose numerator vanishes
    calls = []
    for k, pe in enumerate(PSI_EV):
        calls += [(1, pe, vectors[k]), (1, pe, vectors[k - 2]), (2, pe, vectors[k])]
    for d, (psi, ev), w in calls:
        args = (r, d, lines, psi, ev, w)
        assert _outcome(localized_invariant, *args) == _outcome(
            _reference_localized_invariant, *args
        ), args
    # a weight vector of the wrong length is refused the same way
    short = TorusWeights(tuple(Fraction(v) for v in range(1, r + 1)))
    assert _outcome(localized_invariant, r, 1, lines, 0, 1, short) is WeightCollision


def test_psi_keeps_euler_checks_of_vanishing_terms():
    # 1 lies halfway between -1 and 3, and every graph through that double
    # edge or node has a vanishing O(2) factor.  The reference skips such a
    # graph with psi > 0 before checking its Euler class and returns a
    # weight-dependent value (1/5578650 at psi^1); the draw must collide for
    # every insertion instead
    w = TorusWeights(tuple(Fraction(v) for v in (-1, 1, 3, 10, 24)))
    for psi, ev in PSI_EV:
        args = (4, 2, (2, -1), psi, ev, w)
        assert _outcome(localized_invariant, *args) is WeightCollision
        expected = _outcome(_reference_localized_invariant, *args)
        assert (expected is WeightCollision) == (psi == 0)
    assert _reference_localized_invariant(4, 2, (2, -1), 1, 0, w) == Fraction(1, 5578650)


@pytest.mark.parametrize(
    "r, d, lines, seed",
    [
        (4, 2, (5,), 0),  # the first draw collides
        (4, 2, (5,), 39),  # three draws collide
        (5, 2, (-1, -5), 13),
        (3, 2, (1, 1), 11),
        (4, 1, (5,), 1),
    ],
)
def test_oracle_redraws_like_reference(r, d, lines, seed):
    value, w = oracle_n_value(r, d, lines, seed=seed)
    ref_value, ref_w = _reference_oracle_n_value(r, d, lines, seed=seed)
    assert value == ref_value
    assert w.values == ref_w.values


# Curve counts n_1, n_2 of the complete-intersection threefolds in one P^r:
# Candelas-de la Ossa-Green-Parkes 1991 (quintic), Libgober-Teitelbaum
# alg-geom/9301001 (P5 O(3)+O(3)), Hosono-Klemm-Theisen-Yau hep-th/9406055.
# The one-point counts are N_1 = n_1 and N_2 = n_2 + n_1/8.
PUBLISHED = [
    (4, (5,), 2875, 609250),
    (5, (3, 3), 1053, 52812),
    (5, (4, 2), 1280, 92288),
    (6, (3, 2, 2), 720, 22428),
    (7, (2, 2, 2, 2), 512, 9728),
]


@pytest.mark.parametrize("r, lines, n1, n2", PUBLISHED)
def test_oracle_reproduces_published_counts(r, lines, n1, n2):
    assert oracle_n_value(r, 1, lines)[0] == n1
    assert oracle_n_value(r, 2, lines)[0] == n2 + Fraction(n1, 8)


def test_oracle_imports_only_errors_and_stdlib():
    # the fixed-point route is an independent check only while it shares no
    # code with the series pipeline
    source = Path(localization.__file__).read_text(encoding="utf-8")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.level, node.module or ""))
    assert found
    for level, name in found:
        if level:
            assert (level, name) == (1, "errors")
        else:
            assert name.split(".")[0] in sys.stdlib_module_names, name


def test_non_integral_twist_refused():
    # truncation would read O(-1.5) as O(-1), the local P1's twist
    with pytest.raises(ValueError, match=r"-1\.5 is not an integer"):
        localization._require_top_degree(1, 1, (-1.5, -1), 0, 1)
    with pytest.raises(ValueError, match=r"-1\.0 is not an integer"):
        localized_invariant(1, 1, (-1, -1.0), 0, 1, W2)


def _refuse_draws(monkeypatch):
    def no_draw(r, rng):
        raise AssertionError("weights drawn before r and d were checked")

    monkeypatch.setattr(localization, "draw_weights", no_draw)


@pytest.mark.parametrize("d", [0, -1])
def test_degree_below_one_refused_before_the_dimension_gate(monkeypatch, d):
    # P1 with no bundle used to meet the dimension gate first, whose
    # Unsupported named an integrand degree above a negative dimension
    _refuse_draws(monkeypatch)
    with pytest.raises(DegreeOutOfScope) as info:
        oracle_n_value(1, d, ())
    assert info.value.payload()["degree"] == d
    with pytest.raises(DegreeOutOfScope):
        localized_invariant(1, d, (), 0, 1, W2)


@pytest.mark.parametrize("r", [-3, 0, 4.0])
def test_r_refused_unless_an_integer_of_at_least_one(monkeypatch, r):
    # -3 used to reach random.sample ("Sample larger than population"), 4.0
    # a TypeError from the weight arithmetic
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=r"^r = "):
        oracle_n_value(r, 1, (5,))
    with pytest.raises(ValueError, match=r"^r = "):
        localized_invariant(r, 1, (5,), 0, 1, W5)


def test_float_degree_refused_by_name(monkeypatch):
    # 1.0 used to reach range() as a TypeError
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=r"^d = 1\.0 is not an integer"):
        oracle_n_value(4, 1.0, (5,))
    with pytest.raises(ValueError, match=r"^d = 1\.0 is not an integer"):
        localized_invariant(4, 1.0, (5,), 0, 1, W5)


def test_draw_sums_its_graphs_into_one_accumulator(monkeypatch):
    # each graph's term joins one integer numerator over one running
    # denominator; a Fraction per graph built 186 of them for the 180 graphs
    # of P4 at degree 2
    built = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    assert len(enumerate_graphs(4, 2)) == 180
    monkeypatch.setattr(localization, "Fraction", Counting)
    value = localized_invariant(4, 2, (5,), 0, 1, W5)
    monkeypatch.undo()
    assert value == Fraction(4876875, 4)
    assert len(built) <= 4 + 2


@pytest.mark.parametrize(
    "d, psi, ev, terms",
    [
        # the 10 unordered edges, where the 40 graphs each added a term
        (1, 0, 1, 10),
        (1, 1, 0, 10),
        # the 10 double covers, one per unordered pair, and one term per
        # middle vertex j: the 160 chains (a, j, c) are summed inside it
        (2, 0, 1, 15),
        (2, 1, 0, 15),
    ],
)
def test_draw_adds_one_term_per_edge_pair_and_middle_vertex(monkeypatch, d, psi, ev, terms):
    added = []

    def counting(a, b):
        added.append((a, b))
        return gcd(a, b)

    want = _reference_localized_invariant(4, d, (5,), psi, ev, W5)
    monkeypatch.setattr(localization, "gcd", counting)
    value = localized_invariant(4, d, (5,), psi, ev, W5)
    monkeypatch.undo()
    assert value == want
    assert len(added) == terms


def test_chain_group_refuses_a_vanishing_smoothing_on_its_own():
    # 3 lies halfway between 1 and 5, so the chains (0, 1, 2) have smoothing
    # 2*3 - 1 - 5 = 0.  In a draw the double cover of (0, 2) hits an edge
    # character first, so the group is handed degree-one tables here
    W = [1, 3, 5]
    with pytest.raises(WeightCollision, match="edge character"):
        localization._tables(2, 2, (), W)
    edges, middle = localization._tables(2, 1, (), W)
    with pytest.raises(WeightCollision, match="node-smoothing"):
        localization._chains_through(1, W, edges, middle, W, 0)


@pytest.mark.parametrize(
    "name, psi, ev",
    [
        ("psi_power", -1, 1),
        ("psi_power", Fraction(1, 2), 1),
        ("ev_power", 0, -1),
        ("ev_power", 0, Fraction(1, 2)),
        ("ev_power", 0, 1.0),
    ],
)
def test_powers_refused_unless_non_negative_integers(monkeypatch, name, psi, ev):
    # a negative power used to give a value that depends on the weights (ev
    # -1 on P1: -1/2 at weights 1, 2 and -1/21 at 3, 7), a fractional one a
    # TypeError from the weight arithmetic
    _refuse_draws(monkeypatch)

    def no_tables(*args):
        raise AssertionError("weight arithmetic before the powers were checked")

    monkeypatch.setattr(localization, "_tables", no_tables)
    with pytest.raises(ValueError, match=rf"^{name} = "):
        localized_invariant(4, 1, (), psi, ev, W5)
