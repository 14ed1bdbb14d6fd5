import json
import os
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from gwtwist import (
    AmbientSpace,
    BundleSpec,
    GeometrySpec,
    Infeasible,
    MirrorMap,
    QSeries,
    ScalarQSeries,
    StructureViolation,
    Unsupported,
    aspinwall_morrison,
    check_conditions,
    euler_class,
    geometry_from_obj,
    i_function,
    i_prime,
    j_ambient,
    n_numbers,
    normalized_series,
    qseries_to_obj,
    serre_dual_pair,
    solve_mirror_map,
    solve_serre_factor,
)
from gwtwist import invariants, mirror, series
from gwtwist.cli import main
from gwtwist.invariants import SerreFactorSolution, SerrePair
from gwtwist.mirror import _check_normalized, apply_transform
from gwtwist.ring import format_fraction
from gwtwist.series import HbarLaurent, compose_substitute, qs_exp
from gwtwist.twist import CONVEX, classify
from test_mirror import _naive_class_mul, _promote, _reference_apply_transform, _scalar_one
from test_series import _assert_table_is_truncated_exps, _count_tables, _truncate
from test_yukawa import yukawa_n_numbers

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

P1 = AmbientSpace((1,))
P3 = AmbientSpace((3,))
P4 = AmbientSpace((4,))

QUINTIC = GeometrySpec(P4, BundleSpec(((5,),)))
LOCAL_P1 = GeometrySpec(P1, BundleSpec(((-1,), (-1,))))


def test_quintic_single_cover_numbers():
    N = n_numbers(QUINTIC, 2)
    assert N[(1,)] == Fraction(2875)
    assert N[(2,)] == Fraction(4876875, 8)


def test_n_numbers_truncation_stable():
    low = n_numbers(QUINTIC, 2)
    high = n_numbers(QUINTIC, 3)
    for beta, value in low.items():
        assert high[beta] == value


def test_local_geometry_numbers():
    N = n_numbers(LOCAL_P1, 4)
    for d in range(1, 5):
        assert N[(d,)] == Fraction(1, d**3)


def test_local_p1_counts_do_not_build_the_start_one_series(monkeypatch):
    # e(E_conc) = p^2 vanishes on P1, so I' = 1 and the map is zero: neither
    # I' nor the layers of it that the counts read are built
    calls = []

    def counting(build):
        def counted(*args):
            calls.append(1)
            return build(*args)

        return counted

    for name in ("i_prime", "_count_layers"):
        monkeypatch.setattr(invariants, name, counting(getattr(invariants, name)))
    N = n_numbers(LOCAL_P1, 10)
    assert calls == []
    assert [N[(d,)] for d in range(1, 11)] == [Fraction(1, d**3) for d in range(1, 11)]
    # mirror-map makes the same two calls, so it does not build I' either
    m, S = invariants._solve(LOCAL_P1, 3)
    _check_normalized(S, m)
    assert calls == []
    assert m.is_zero


def test_local_p1_still_checks_the_normalized_series(monkeypatch):
    build = invariants.i_function

    def skewed(g, max_degree):
        # the q^2 term is replaced by 1, not added to: a term of I_2's own
        # total degree, -2, has no hbar^0 or hbar^-1 part to spoil
        S = build(g, max_degree)
        return QSeries(P1, max_degree, S.terms | {(2,): HbarLaurent.unit(P1)})

    monkeypatch.setattr(invariants, "i_function", skewed)
    with pytest.raises(StructureViolation) as info:
        n_numbers(LOCAL_P1, 3)
    assert info.value.context == {"beta": [2]}


def test_local_p2_counts():
    # K_P2, read off the start-1 series: Chiang-Klemm-Yau-Zaslow
    # (hep-th/9903053) give n = 3, -6, 27, -192, 1695
    with open(os.path.join(_ROOT, "geometries", "local-p2.json")) as fh:
        g = geometry_from_obj(json.load(fh))
    N = n_numbers(g, 5)
    want = ["3", "-45/8", "244/9", "-12333/64", "211878/125"]
    assert [N[(d,)] for d in range(1, 6)] == [Fraction(v) for v in want]
    n = aspinwall_morrison(g, N)
    assert [n[d] for d in range(1, 6)] == [3, -6, 27, -192, 1695]
    # the map is non-zero, and under it i_function (start ctop, a total
    # degree above its other terms) is not graded: normalized_series refuses
    # before building it, naming the first class a dial moves
    with pytest.raises(StructureViolation) as info:
        normalized_series(g, 2)
    assert info.value.context == {"beta": [1]}
    assert info.value.payload()["module"] == "invariants"


def test_concave_count_refuses_a_layer_e_conc_does_not_divide(monkeypatch):
    # P3 with O(-1)+O(-1): e(E_conc) = p^2 and I'_1 has total degree -2; a
    # unit class added there at hbar^-2, to the p^0 numerator of the layers
    # the counts read, leaves the map as it was but gives a_2 a p^0 part
    # that p^2 cannot divide
    build = invariants._count_layers

    def spoiled(g, max_degree):
        S = build(g, max_degree)
        delta, num, den = S.terms[(1,)]
        assert delta == -2
        return S._replace(terms=S.terms | {(1,): (delta, [num[0] + den, *num[1:]], den)})

    monkeypatch.setattr(invariants, "_count_layers", spoiled)
    g = GeometrySpec(P3, BundleSpec(((-1,), (-1,))))
    message = r"hbar\^-2 coefficient is not divisible by e\(E_conc\)"
    with pytest.raises(StructureViolation, match=message) as info:
        n_numbers(g, 3)
    assert info.value.context == {"beta": [1]}


@pytest.mark.parametrize(
    "r, lines, D, n1",
    [
        (2, ((-3,),), 12, 3),
        (4, ((2,), (2,), (-1,)), 8, 16),
        (3, ((3,), (-1,)), 8, 27),
        (4, ((5,),), 20, 2875),
        (5, ((3,), (3,)), 12, 1053),
        (6, ((3,), (2,), (2,)), 12, 720),
        (7, ((2,), (2,), (2,), (2,)), 12, 512),
    ],
    ids=["local-p2", "local-dp5", "local-dp6", "quintic", "p5-o3-o3", "p6-o3-o2-o2", "p7-o2x4"],
)
def test_concave_and_mixed_bundles_give_integral_bps_numbers(r, lines, D, n1):
    # genus-0 Gopakumar-Vafa numbers of a Calabi-Yau threefold are integers:
    # on the local ones I' carries the Euler class of the concave summand,
    # and the convex complete intersections are checked far past degree 3
    g = GeometrySpec(AmbientSpace((r,)), BundleSpec(lines))
    n = aspinwall_morrison(g, n_numbers(g, D))
    assert sorted(n) == list(range(1, D + 1))
    assert n[1] == n1
    assert all(v.denominator == 1 for v in n.values())


@pytest.mark.parametrize(
    "r, lines, want",
    [
        # Fano index 1: the string dial alone; 27 lines on the cubic surface
        (3, (3,), [27, 0, 0]),
        # a local degree-4 del Pezzo; degrees 3 and up are left unpinned
        (4, (2, 2, -1), [16, -18]),
        # e(E_conc) = p^2: a_2 / e(E_conc) first, then times e(E_conv) = p;
        # the other order overflows the top degree and reads 0, 0
        (2, (-1, -1, 1), [1, Fraction(1, 8)]),
    ],
    ids=str,
)
def test_start_one_counts(r, lines, want):
    g = GeometrySpec(AmbientSpace((r,)), BundleSpec(tuple((l,) for l in lines)))
    N = n_numbers(g, len(want))
    assert [N[(d,)] for d in range(1, len(want) + 1)] == want


def test_multiple_cover_correction_quintic():
    N = n_numbers(QUINTIC, 3)
    n = aspinwall_morrison(QUINTIC, N)
    assert n[1] == Fraction(2875)
    assert n[2] == Fraction(609250)
    assert n[3] == Fraction(317206375)


def _fraction_exp(a: list) -> list:
    """exp of a Fraction list without a constant term: k E_k = sum_j j a_j E_{k-j}."""
    e = [Fraction(1)]
    for k in range(1, len(a)):
        e.append(sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k)
    return e


@pytest.mark.parametrize(
    "r, lines, D",
    [
        (4, (5,), 20),
        (2, (-3,), 12),
        (4, (2, 2, -1), 8),
        (3, (3, -1), 8),
        (5, (3, 3), 12),
        (7, (2, 2, 2, 2), 10),
        (4, (3,), 8),
        (3, (2,), 8),
        (4, (1,), 6),
        (1, (-1, -1), 8),
    ],
    ids=str,
)
def test_counts_match_lagrange_buermann_inversion(r, lines, D):
    # With h = div/g, the map f1 + h(q e^{f1}) = 0 is t = Q e^{h(Q)} for
    # Q = t e^{f1(t)}, and N_n n is the t^n coefficient of Y(Q(t)), so
    # Lagrange-Buermann gives N_n = (1/n^2) [t^(n-1)] Y'(t) e^{-n h(t)}:
    # plain Fraction lists, read off the solve, against the inversion
    # and the substitution of n_numbers
    g = GeometrySpec(AmbientSpace((r,)), BundleSpec(tuple((l,) for l in lines)))
    m, S = invariants._solve(g, D)
    [Y, *_] = mirror._paired_layers(S, m, invariants._pairing(g))
    h = m._source._over_g[1][2] if not m.is_zero else ScalarQSeries.zero(g.space, D)
    y, h = ([f.coeff((d,)) for d in range(D + 1)] for f in (Y, h))
    N = n_numbers(g, D)
    for n in range(1, D + 1):
        e = _fraction_exp([-n * x for x in h[:n]])
        assert N[(n,)] == sum((j + 1) * y[j + 1] * e[n - 1 - j] for j in range(n)) / n**2


def test_multiple_cover_correction_names_a_missing_divisor_degree():
    # N_4 needs n_1 and n_2; a dict without them raised a bare KeyError
    with pytest.raises(ValueError, match="divisor degree 1$"):
        aspinwall_morrison(QUINTIC, {(2,): Fraction(1)})
    N = n_numbers(QUINTIC, 4)
    del N[(2,)]
    with pytest.raises(ValueError, match="divisor degree 2$"):
        aspinwall_morrison(QUINTIC, N)


@pytest.mark.parametrize("D", [2.0, 2.5, "2"], ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        i_function,
        i_prime,
        n_numbers,
        normalized_series,
        serre_dual_pair,
        lambda g, D: j_ambient(g.space, D),
    ],
    ids=["i_function", "i_prime", "n_numbers", "normalized_series", "serre_dual_pair", "j_ambient"],
)
def test_series_builders_name_a_non_integral_degree(build, D):
    # each reached a range() or a string sum with D before any series
    # checked it, and raised a raw TypeError
    with pytest.raises(ValueError, match=f"truncation degree {D!r} is not a non-negative integer"):
        build(QUINTIC, D)


def test_multiple_cover_correction_local():
    N = n_numbers(LOCAL_P1, 4)
    n = aspinwall_morrison(LOCAL_P1, N)
    assert n[1] == Fraction(1)
    assert n[2] == n[3] == n[4] == Fraction(0)


def test_multiple_cover_gate_dimension():
    g = GeometrySpec(AmbientSpace((5,)), BundleSpec(((-1,), (-5,))))
    N = n_numbers(g, 2)
    with pytest.raises(Unsupported):
        aspinwall_morrison(g, N)


def test_multiple_cover_gate_product_ambient():
    sp = AmbientSpace((1, 1))
    g = GeometrySpec(sp, BundleSpec(((1, 0),)))
    with pytest.raises(Unsupported):
        aspinwall_morrison(g, {})


COUNT_CASES = [
    ((4,), ((5,),)),
    ((2, 2), ((3, 3),)),
    ((2,), ((-3,),)),
    ((4,), ((2,), (2,), (-1,))),
    ((4,), ((1,),)),
]
COUNT_IDS = ["quintic", "bicubic", "K_P2", "P4 O(2)+O(2)+O(-1)", "P4 O(1)"]


@pytest.mark.parametrize("factors, lines", COUNT_CASES, ids=COUNT_IDS)
def test_counts_pair_i_prime_without_transforming_it(monkeypatch, factors, lines):
    # the counts read three hbar layers of I' paired to scalars: the layers
    # are built once, I' is never built as classes, and neither it nor
    # i_function is transformed as classes
    built, transformed, detours = [], [], []
    build, apply = invariants._count_layers, apply_transform

    def building(*args):
        built.append(build(*args))
        return built[-1]

    def applying(*args):
        transformed.append(args)
        return apply(*args)

    monkeypatch.setattr(invariants, "_count_layers", building)
    monkeypatch.setattr(invariants, "i_prime", lambda *args: detours.append(args))
    monkeypatch.setattr(invariants, "apply_transform", applying)
    monkeypatch.setattr(mirror, "apply_transform", applying)
    monkeypatch.setattr(invariants, "normalized_series", lambda *args: detours.append(args))
    n_numbers(GeometrySpec(AmbientSpace(factors), BundleSpec(lines)), 3)
    assert len(built) == 1
    assert transformed == []
    assert detours == []


def _counting_class_kernels(monkeypatch) -> list:
    """Wrap ``QSeries.__mul__``, and ``qs_exp_full`` and ``qs_substitute``
    in every gwtwist module that binds them, by wrappers that record the
    name of each call; return the record."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(QSeries, "__mul__", counting("QSeries.__mul__", QSeries.__mul__))
    for name in ("qs_exp_full", "qs_substitute"):
        fn = getattr(series, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "gwtwist" and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    return calls


@pytest.mark.parametrize("factors, lines", COUNT_CASES, ids=COUNT_IDS)
def test_counts_and_mirror_map_run_no_class_kernel(monkeypatch, tmp_path, capsys, factors, lines):
    # the class-valued product, exp and substitution are on no count or
    # mirror-map path, so their plain arithmetic is not what these runs
    # time; a change that puts them back on such a path fails here
    calls = _counting_class_kernels(monkeypatch)
    n_numbers(GeometrySpec(AmbientSpace(factors), BundleSpec(lines)), 3)
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps({"ambient": list(factors), "bundle": [{"l": list(l)} for l in lines]}))
    assert main(["--geometry", str(path), "--cmd", "mirror-map", "--max-degree", "3"]) == 0
    capsys.readouterr()
    assert calls == []


def test_class_kernel_probe_sees_the_serre_factorization(monkeypatch, capsys):
    # the probe above is live: the Serre factorization applies its map to
    # a class-valued series
    calls = _counting_class_kernels(monkeypatch)
    path = os.path.join(_ROOT, "perfbench", "geometries", "p1-o1.json")
    assert main(["--geometry", path, "--cmd", "serre", "--max-degree", "3"]) == 0
    capsys.readouterr()
    assert calls


def _reference_paired_layers(S, m, rows) -> list:
    """The count read by ScalarQSeries arithmetic, one series per step:
    Y = P(S_-2)/g - 1/2 sum_{a,b} c_a c_b P(p_a p_b) over ordered pairs
    (a, b), with p_0 = 1, c_0 = s/g and c_i = div_i/g; P(S_-2) under the
    zero map."""
    S = series._Layers.of(S)
    space, n = S.space, S.space.nfactors
    units = [(0,) * n] + [tuple(int(j == i) for j in range(n)) for i in range(n)]
    out = []
    for row, den in rows:
        weights = [(k, w, sum(e)) for k, (w, e) in enumerate(zip(row, space.basis))]
        y = ScalarQSeries(space, S.max_degree, {
            b: Fraction(sum(w * num[k] for k, w, e in weights if e == delta + 2), den * d)
            for b, (delta, num, d) in S.terms.items()
        })
        if not m.is_zero:
            inv_g, (_, *c) = m._source._over_g
            y, weight_of = y * inv_g, dict(zip(space.basis, row))
            for a in range(n + 1):
                for b in range(n + 1):
                    if w := weight_of.get(tuple(x + z for x, z in zip(units[a], units[b]))):
                        y = y - (c[a] * c[b]).scale(Fraction(w, 2 * den))
        out.append(y)
    return out


def _reference_check_rows(m) -> list:
    """f + x(q e^{f1}) for each dial f and the series x it cancels, by
    ScalarQSeries arithmetic, the substitution on a table built anew."""
    dials = zip((m.f0, m.string, *m.f1), m._source._over_g[1])
    return [f + compose_substitute(x, list(m.f1)) for f, x in dials]


def _tampered(m, dial: str, beta):
    """m with one dial off by one at beta, keeping its normal form and table."""
    f = getattr(m, dial)
    dials = {"f0": m.f0, "f1": m.f1, "string": m.string, dial: f.set_coeff(beta, f.coeff(beta) + 1)}
    out = MirrorMap(**dials)
    object.__setattr__(out, "_source", m._source)
    object.__setattr__(out, "_factors", m._factors)
    return out


FUSED_CASES = COUNT_CASES + [
    ((1,), ((-1,), (-1,))),
    ((5,), ((-1,), (-5,))),
    ((2, 1, 1), ((3, 2, 2),)),
    ((3,), ((3,),)),
]
FUSED_IDS = COUNT_IDS + ["local P1", "P5 O(-1)+O(-5)", "P2xP1xP1 O(3,2,2)", "cubic surface"]


@pytest.mark.parametrize("factors, lines", FUSED_CASES, ids=FUSED_IDS)
def test_fused_count_read_matches_series_arithmetic(factors, lines):
    # _paired_layers and _check_normalized sum each level of their whole
    # expressions into one accumulator; plain series arithmetic, one series
    # per step, must give the same Y on every row (the concave refusal rows
    # of P5 O(-1)+O(-5) included) and the same verdict; the cubic surface
    # has a string dial and f1 = 0, so no factor table
    g = GeometrySpec(AmbientSpace(factors), BundleSpec(lines))
    D = 4
    m, S = invariants._solve(g, D)
    rows = invariants._pairing(g)
    assert mirror._paired_layers(S, m, rows) == _reference_paired_layers(S, m, rows)
    _check_normalized(S, m)
    if m._source is None:
        assert m.is_zero
        return
    assert all(row.is_zero for row in _reference_check_rows(m))
    # a map off by one at q^2 in f0 or in the string dial is refused, naming
    # the class the reference rows find first
    beta = (2,) + (0,) * (len(factors) - 1)
    for dial in ("f0", "string"):
        bad = _tampered(m, dial, beta)
        want = min((b for row in _reference_check_rows(bad) for b in row.terms), key=series._graded)
        assert want == beta
        with pytest.raises(StructureViolation, match="not normalized") as info:
            _check_normalized(S, bad)
        assert info.value.context == {"beta": list(beta)}
        with pytest.raises(StructureViolation, match="not normalized"):
            mirror._paired_layers(S, bad, rows)


@pytest.mark.parametrize("factors, lines", COUNT_CASES, ids=COUNT_IDS)
def test_count_read_runs_no_scalar_series_arithmetic(monkeypatch, factors, lines):
    # after the solve, the check and the pairing build no intermediate
    # series: no product, sum, difference or scaling of ScalarQSeries
    g = GeometrySpec(AmbientSpace(factors), BundleSpec(lines))
    m, S = invariants._solve(g, 3)
    rows, calls = invariants._pairing(g), []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("__mul__", "__add__", "__sub__", "scale"):
        monkeypatch.setattr(ScalarQSeries, name, counting(name, getattr(ScalarQSeries, name)))
    _check_normalized(S, m)
    mirror._paired_layers(S, m, rows)
    assert calls == []
    # the probe is live
    (m.f0 * m.f0 + m.f0 - m.f0).scale(2)
    assert set(calls) == {"__mul__", "__add__", "__sub__", "scale"}


def _counts_via_euler_times_i_prime(g, D):
    """Counts by the former route: the map read off I' and applied to
    e(E) I' for a convex bundle, to I' where e(E_conc) != 0 (then
    N = integral of D e(E_conv) (a_2 / e(E_conc))), and the zero map applied
    to i_function where e(E_conc) = 0."""
    space = g.space
    conc = euler_class(space, BundleSpec(g.concave_lines()))
    if g.concave_lines() and conc.is_zero:
        m, S = MirrorMap.zero(space, D), i_function(g, D)
    else:
        I1 = i_prime(g, D)
        m, S = solve_mirror_map(I1, space.unit()), I1
        if not g.concave_lines():
            e = HbarLaurent(space, {0: euler_class(space, g.bundle)})
            S = QSeries(space, D, {b: hl * e for b, hl in I1.terms.items()})
    T = apply_transform(S, m)
    out = {}
    for beta in T.curve_classes()[1:]:
        a = T.term(beta).coefficient(-2)
        if g.concave_lines() and not conc.is_zero:
            # a / e(E_conc), for e(E_conc) = c H^k: H^i shifts down to H^(i-k)
            [((k,), c)] = conc.items()
            assert all(i >= k for (i,), _ in a.items()), beta
            a = sum((space.monomial((i - k,), x / c) for (i,), x in a.items()), space.zero())
            a = a * euler_class(space, BundleSpec(g.convex_lines()))
        out[beta] = space.integrate(space.divisor_sum() * a) / sum(beta)
    return out


def test_counts_match_the_euler_times_i_prime_route():
    # the transform commutes with multiplying by the constant class e(E), so
    # pairing a_2 of the transformed I' with D e(E_conv) gives the same counts
    count = 0
    for r in range(1, 7):
        for rank in range(1, 4):
            for lines in combinations_with_replacement((-3, -2, -1, 1, 2, 3, 4, 5), rank):
                g = GeometrySpec(AmbientSpace((r,)), BundleSpec(tuple((l,) for l in lines)))
                if check_conditions(g).all_nonneg:
                    count += 1
                    assert n_numbers(g, 3) == _counts_via_euler_times_i_prime(g, 3), g
    assert count == 272
    for factors, lines, D in [
        ((2, 2), ((3, 3),), 4),
        ((2, 1, 1), ((3, 2, 2),), 3),
        ((1, 1), ((2, 1),), 4),
        # deep cases: every count past the sweep's degree 3
        ((4,), ((5,),), 20),
        ((2, 2), ((3, 3),), 8),
        ((2, 1, 1), ((3, 2, 2),), 5),
        ((1, 1, 1, 1), ((2, 2, 2, 2),), 4),
        ((2,), ((-3,),), 10),
        ((4,), ((2,), (2,), (-1,)), 8),
        ((3,), ((3,), (-1,)), 8),
        ((5,), ((-1,), (-5,)), 6),
    ]:
        g = GeometrySpec(AmbientSpace(factors), BundleSpec(lines))
        assert n_numbers(g, D) == _counts_via_euler_times_i_prime(g, D), g


def test_every_pipeline_path_checks_the_normalized_series(monkeypatch, tmp_path, capsys):
    # a solve that is off by one coefficient must be caught wherever the
    # pipeline applies the map or reads the counts off it; the shared solve
    # body is patched, so the map still keeps the normal form of I'
    solve = mirror._solve_relative_map

    def off_by_one(a, b):
        m, ratio = solve(a, b)
        f1 = m.f1[0]
        return MirrorMap(f0=m.f0, f1=(f1.set_coeff((1,), f1.coeff((1,)) + 1),)), ratio

    monkeypatch.setattr(mirror, "_solve_relative_map", off_by_one)
    with pytest.raises(StructureViolation):
        normalized_series(QUINTIC, 3)
    with pytest.raises(StructureViolation):
        n_numbers(QUINTIC, 3)
    path = tmp_path / "quintic.json"
    path.write_text('{"ambient": [4], "bundle": [{"l": [5]}]}')
    assert main(["--geometry", str(path), "--cmd", "mirror-map", "--max-degree", "3"]) == 1
    assert capsys.readouterr().err.startswith('{"error": "StructureViolation"')


@pytest.mark.parametrize("r, l", [(4, 5), (3, 3)], ids=["quintic", "cubic surface"])
def test_counts_check_the_divisor_dial_on_its_own(monkeypatch, r, l):
    # f1 off by one with f0 and the string dial solved for that f1, so only
    # the divisor identity f1 + (div/g)(q e^{f1}) = 0 fails
    solve = mirror._solve_relative_map

    def off_in_f1(a, b):
        m, ratio = solve(a, b)
        f1 = [m.f1[0].set_coeff((1,), m.f1[0].coeff((1,)) + 1)]
        _, (log_g, s_over_g, _) = a._over_g
        f0, string = (compose_substitute(x, f1).scale(-1) for x in (log_g, s_over_g))
        return MirrorMap(f0=f0, f1=f1, string=string), ratio

    monkeypatch.setattr(mirror, "_solve_relative_map", off_in_f1)
    g = GeometrySpec(AmbientSpace((r,)), BundleSpec(((l,),)))
    with pytest.raises(StructureViolation, match="not normalized") as info:
        n_numbers(g, 3)
    assert info.value.context == {"beta": [1]}


def test_normalized_series_requires_nonnegative_weights():
    g = GeometrySpec(P1, BundleSpec(((-3,), (-3,))))
    with pytest.raises(Unsupported):
        normalized_series(g, 2)


def test_dual_pair_p1_hyperplane():
    g = GeometrySpec(P1, BundleSpec(((1,),)))
    pair = serre_dual_pair(g, 2)
    assert pair.sign == -1
    h = P1.hyperplane(0)
    J = j_ambient(P1, 2)
    # primary degree 1: J(1) * (h + hbar); dual: -J(1) * (-h) * (-h + hbar)... k in {0}
    from gwtwist.series import HbarLaurent

    expected_prime = J.term((1,)) * HbarLaurent.linear(P1, h, 1)
    expected_dual = (J.term((1,)) * HbarLaurent(P1, {0: -h})).scale(-1)
    assert pair.i_prime.term((1,)) == expected_prime
    assert pair.i_prime_dual.term((1,)) == expected_dual
    assert pair.i_prime.term((0,)) == HbarLaurent.unit(P1)
    assert pair.i_prime_dual.term((0,)) == HbarLaurent.unit(P1).scale(-1)


def test_dual_pair_even_rank_sign():
    g = GeometrySpec(P3, BundleSpec(((1,), (1,))))
    assert serre_dual_pair(g, 1).sign == 1


def test_dual_pair_rejects_concave():
    with pytest.raises(Unsupported):
        serre_dual_pair(LOCAL_P1, 2)


def test_serre_factor_empty_bundle():
    g = GeometrySpec(P1, BundleSpec(()))
    sol = solve_serre_factor(serre_dual_pair(g, 3))
    assert sol.phi.constant_term == Fraction(1)
    assert all(hl.is_zero for hl in sol.residual.terms.values())
    assert sol.map.is_zero
    assert sol.string.is_zero


def test_serre_factor_p1_hyperplane():
    g = GeometrySpec(P1, BundleSpec(((1,),)))
    sol = solve_serre_factor(serre_dual_pair(g, 4))
    assert all(hl.is_zero for hl in sol.residual.terms.values())
    assert sol.phi.constant_term == Fraction(-1)
    assert sol.string.coeff((1,)) == Fraction(-1)
    assert sol.map.is_zero


def test_serre_factor_obstruction_on_p3():
    g = GeometrySpec(P3, BundleSpec(((1,), (1,))))
    with pytest.raises(Infeasible) as info:
        solve_serre_factor(serre_dual_pair(g, 4))
    assert info.value.payload()["first_obstructed_degree"] == 1


def test_dual_pair_refuses_failed_positivity():
    g = GeometrySpec(P1, BundleSpec(((3,),)))
    with pytest.raises(Unsupported) as info:
        serre_dual_pair(g, 3)
    assert info.value.payload()["nonneg"] == [False]
    assert info.value.payload()["module"] == "invariants"


def _reference_serre_dual_pair(g: GeometrySpec, max_degree: int) -> SerrePair:
    space = g.space
    if any(classify(l) != CONVEX for l in g.bundle.lines):
        raise Unsupported("dual pair construction needs a convex bundle")
    J = j_ambient(space, max_degree)
    sign = -1 if g.bundle.rank % 2 else 1
    prime: dict = {}
    dual: dict = {}
    for beta in J.curve_classes():
        if sum(beta) == 0:
            prime[beta] = HbarLaurent.unit(space)
            dual[beta] = HbarLaurent.unit(space).scale(sign)
            continue
        hp = J.term(beta)
        hd = J.term(beta).scale(sign)
        for l in g.bundle.lines:
            pairing = sum(li * di for li, di in zip(l, beta))
            c1 = space.divisor(l)
            for k in range(1, pairing + 1):
                hp = hp * HbarLaurent.linear(space, c1, k)
            for k in range(-pairing + 1, 1):
                hd = hd * HbarLaurent.linear(space, -c1, k)
        prime[beta] = hp
        dual[beta] = hd
    return SerrePair(
        i_prime=QSeries(space, max_degree, prime),
        i_prime_dual=QSeries(space, max_degree, dual),
        sign=sign,
    )


SERRE_CASES = {
    "quintic": (lambda: QUINTIC, 8),
    "bicubic": (lambda: GeometrySpec(AmbientSpace((2, 2)), BundleSpec(((3, 3),))), 4),
    "p3-o1-o1": (lambda: GeometrySpec(P3, BundleSpec(((1,), (1,)))), 6),
    "p1xp1-o22": (lambda: GeometrySpec(AmbientSpace((1, 1)), BundleSpec(((2, 2),))), 4),
    "p1xp1-zero-pairings": (
        lambda: GeometrySpec(AmbientSpace((1, 1)), BundleSpec(((1, 0), (0, 2)))),
        4,
    ),
    "empty-bundle": (lambda: GeometrySpec(AmbientSpace((2,)), BundleSpec(())), 6),
}


@pytest.mark.parametrize("name", sorted(SERRE_CASES))
def test_dual_pair_tables_match_from_scratch_loops(name):
    make, D = SERRE_CASES[name]
    g = make()
    pair, ref = serre_dual_pair(g, D), _reference_serre_dual_pair(g, D)
    assert pair.sign == ref.sign
    for got, want in [(pair.i_prime, ref.i_prime), (pair.i_prime_dual, ref.i_prime_dual)]:
        assert got == want
        assert qseries_to_obj(got) == qseries_to_obj(want)


def _reference_assemble(pair: SerrePair, phi, string, m):
    dials = MirrorMap(f0=m.f0, f1=m.f1, string=string)
    transformed = _reference_apply_transform(pair.i_prime, dials)
    return _naive_class_mul(_promote(pair.i_prime.space, phi), transformed)


def _reference_solve_serre_factor(pair: SerrePair) -> SerreFactorSolution:
    space = pair.i_prime.space
    D = pair.i_prime.max_degree
    phi = _scalar_one(space, D).scale(pair.sign)
    string = ScalarQSeries.zero(space, D)
    m = MirrorMap.zero(space, D)
    sign = Fraction(pair.sign)
    for level in range(1, D + 1):
        current = _reference_assemble(pair, phi, string, m)
        f1 = list(m.f1)
        for beta in pair.i_prime.curve_classes():
            if sum(beta) != level:
                continue
            R = pair.i_prime_dual.term(beta) - current.term(beta)
            if R.is_zero:
                continue
            r0 = R.coefficient(0)
            r1 = R.coefficient(-1)
            if r0.scalar_part != 0:
                phi = phi.set_coeff(beta, r0.scalar_part)
            if r1.scalar_part != 0:
                string = string.set_coeff(beta, r1.scalar_part / sign)
            for i in range(space.nfactors):
                e = tuple(1 if j == i else 0 for j in range(space.nfactors))
                c = r1.coeff(e)
                if c != 0:
                    f1[i] = f1[i].set_coeff(beta, c / sign)
        m = MirrorMap(f0=m.f0, f1=tuple(f1))
        current = _reference_assemble(pair, phi, string, m)
        for beta in pair.i_prime.curve_classes():
            if sum(beta) != level:
                continue
            R = pair.i_prime_dual.term(beta) - current.term(beta)
            if not R.is_zero:
                raise Infeasible(
                    "dual factorization obstructed",
                    first_obstructed_degree=level,
                    beta=list(beta),
                    residual=[
                        {"pow": k, "class": [format_fraction(c) for c in R.terms[k].coeffs]}
                        for k in R.exponents()
                    ],
                )
    final = _reference_assemble(pair, phi, string, m)
    residual = pair.i_prime_dual - final
    return SerreFactorSolution(phi=phi, map=m, string=string, residual=residual)


SERRE_FACTOR_CASES = {
    "p1-o1": ((1,), ((1,),)),
    "p3-o1-o1": ((3,), ((1,), (1,))),
    "p4-o1": ((4,), ((1,),)),
    "p1xp1-o11": ((1, 1), ((1, 1),)),
    "p1xp1-o10": ((1, 1), ((1, 0),)),
    "p1xp1xp1-o100": ((1, 1, 1), ((1, 0, 0),)),
    "p1-o2": ((1,), ((2,),)),
    "p5-o2-o2": ((5,), ((2,), (2,))),
    "p2xp2-o11": ((2, 2), ((1, 1),)),
}


@pytest.mark.parametrize("name", sorted(SERRE_FACTOR_CASES))
def test_serre_factor_matches_two_assembles_per_level(name, monkeypatch):
    factors, lines = SERRE_FACTOR_CASES[name]
    D = 4
    pair = serre_dual_pair(GeometrySpec(AmbientSpace(factors), BundleSpec(lines)), D)
    try:
        want = _reference_solve_serre_factor(pair)
    except Infeasible as exc:
        want = exc
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return apply_transform(*args, **kwargs)

    monkeypatch.setattr(invariants, "apply_transform", counted)
    if isinstance(want, Infeasible):
        with pytest.raises(Infeasible) as info:
            solve_serre_factor(pair)
        got, ref = info.value.payload(), want.payload()
        # the module names differ by construction: the reference raises here
        assert got.pop("module") == "invariants"
        ref.pop("module")
        assert got == ref
    else:
        assert solve_serre_factor(pair).to_obj() == want.to_obj()
    # the closed form applies its map once, solved or obstructed
    assert len(calls) == 1


def _truncated(sol: SerreFactorSolution, D: int) -> SerreFactorSolution:
    return SerreFactorSolution(
        phi=_truncate(sol.phi, D),
        map=MirrorMap(f0=_truncate(sol.map.f0, D), f1=[_truncate(f, D) for f in sol.map.f1]),
        string=_truncate(sol.string, D),
        residual=_truncate(sol.residual, D),
    )


def test_serre_obstruction_is_truncation_stable():
    # the closed form solves through D before it looks for the obstruction
    g = GeometrySpec(P3, BundleSpec(((1,), (1,))))
    payloads = []
    for D in range(1, 7):
        with pytest.raises(Infeasible) as info:
            solve_serre_factor(serre_dual_pair(g, D))
        payloads.append(info.value.payload())
    assert all(p == payloads[0] for p in payloads)
    assert payloads[0]["first_obstructed_degree"] == 1


@pytest.mark.parametrize(
    "factors, lines", [((1, 1), ((1, 0),)), ((1,), ((2,),))], ids=["p1xp1-o10", "p1-o2"]
)
def test_serre_solution_is_truncation_stable(factors, lines):
    g = GeometrySpec(AmbientSpace(factors), BundleSpec(lines))
    low = solve_serre_factor(serre_dual_pair(g, 4))
    high = solve_serre_factor(serre_dual_pair(g, 6))
    assert _truncated(high, 4).to_obj() == low.to_obj()
    # a dial beyond phi's constant sign, so the comparison is not vacuous
    assert len(low.phi.terms) + len(low.string.terms) > 1


def test_serre_factor_recovers_known_dials(monkeypatch):
    # a dual built from I' by known dials, f1 included, on a product ambient:
    # the closed J gives f1 = 0 on every solved pair, so this is the case
    # that reaches the substitution inverse.  On P1xP1 with O(2,1), I' has
    # non-trivial hbar^0, string and divisor layers.  It is graded by
    # c = (0, 1), so f0 and f1 go on the classes (k, 0) and the string dial
    # on (k, 1), which keeps every transformed coefficient homogeneous.
    space = AmbientSpace((1, 1))
    D = 4
    pair = serre_dual_pair(GeometrySpec(space, BundleSpec(((2, 1),))), D)
    f0 = ScalarQSeries(space, D, {(1, 0): Fraction(3), (2, 0): Fraction(-2, 5)})
    f1 = (
        ScalarQSeries(space, D, {(1, 0): Fraction(2), (3, 0): Fraction(-1, 3)}),
        ScalarQSeries(space, D, {(1, 0): Fraction(1, 2), (2, 0): Fraction(7)}),
    )
    string = ScalarQSeries(space, D, {(0, 1): Fraction(-1), (2, 1): Fraction(5)})
    dual = apply_transform(pair.i_prime, MirrorMap(f0, f1, string)).scale(pair.sign)
    synthetic = SerrePair(i_prime=pair.i_prime, i_prime_dual=dual, sign=pair.sign)
    built = _count_tables(monkeypatch)
    sol = solve_serre_factor(synthetic)
    # the shifted inversion builds the one table that the solve's
    # substitutions and its transform read
    [(g1, table)] = built
    assert tuple(g1) == f1
    _assert_table_is_truncated_exps(table, D)
    monkeypatch.undo()
    assert sol.residual.is_zero
    assert sol.map.f1 == f1
    assert sol.string == string
    assert sol.phi == qs_exp(f0).scale(pair.sign)
    assert sol.to_obj() == _reference_solve_serre_factor(synthetic).to_obj()


# The pipeline against the Yukawa-coupling route, which shares no code with
# it, at every degree through 8; the fixed-point oracle reaches only 2.
@pytest.mark.parametrize(
    "r, lines", [(4, (5,)), (5, (3, 3)), (5, (4, 2)), (6, (3, 2, 2)), (7, (2, 2, 2, 2))], ids=str
)
def test_pipeline_matches_yukawa_route_through_degree_8(r, lines):
    g = GeometrySpec(AmbientSpace((r,)), BundleSpec(tuple((l,) for l in lines)))
    n = aspinwall_morrison(g, n_numbers(g, 8))
    assert n == yukawa_n_numbers(r, lines, 8)
