import json
import os
from fractions import Fraction

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
    TruncationMismatch,
    Unsupported,
    aspinwall_morrison,
    geometry_from_obj,
    j_ambient,
    n_numbers,
    normalized_series,
    qseries_to_obj,
    serre_dual_pair,
    solve_serre_factor,
)
from gwtwist import invariants
from gwtwist.cli import main
from gwtwist.invariants import SerreFactorSolution, SerrePair
from gwtwist.mirror import apply_transform
from gwtwist.ring import format_fraction
from gwtwist.series import HbarLaurent, qs_exp
from gwtwist.twist import CONVEX, classify
from test_mirror import _promote, _reference_apply_transform, _scalar_one
from test_series import _assert_table_is_truncated_exps, _count_tables
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
    # e(E_conc) = p^2 vanishes on P1, so I' = 1 and the map is zero
    calls = []
    build = invariants.i_prime

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(invariants, "i_prime", counted)
    N = n_numbers(LOCAL_P1, 10)
    assert calls == []
    assert [N[(d,)] for d in range(1, 11)] == [Fraction(1, d**3) for d in range(1, 11)]
    # mirror-map reads the map off I' itself
    m, _ = invariants._normalize(LOCAL_P1, 3, True)
    assert calls == [1]
    assert m.is_zero


def test_local_p1_refuses_short_external_j():
    g = GeometrySpec(P1, BundleSpec(((-1,), (-1,))), external_j=j_ambient(P1, 2))
    with pytest.raises(TruncationMismatch) as info:
        n_numbers(g, 4)
    assert info.value.context == {"have": 2, "want": 4}


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
    # the map is non-zero, and under it i_function (start ctop, no k = 0
    # factor) is not normalized: normalized_series refuses, never guesses
    with pytest.raises(StructureViolation):
        normalized_series(g, 2)


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


def test_every_pipeline_path_checks_the_normalized_series(monkeypatch, tmp_path, capsys):
    # a solve that is off by one coefficient must be caught wherever the
    # pipeline applies the map
    solve = invariants.solve_mirror_map

    def off_by_one(S, ctop):
        m = solve(S, ctop)
        f1 = m.f1[0]
        return MirrorMap(f0=m.f0, f1=(f1.set_coeff((1,), f1.coeff((1,)) + 1),))

    monkeypatch.setattr(invariants, "solve_mirror_map", off_by_one)
    with pytest.raises(StructureViolation):
        normalized_series(QUINTIC, 3)
    with pytest.raises(StructureViolation):
        n_numbers(QUINTIC, 3)
    path = tmp_path / "quintic.json"
    path.write_text('{"ambient": [4], "bundle": [{"l": [5]}]}')
    assert main(["--geometry", str(path), "--cmd", "mirror-map", "--max-degree", "3"]) == 1
    assert capsys.readouterr().err.startswith('{"error": "StructureViolation"')


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


def test_dual_pair_refuses_short_external_j():
    g = GeometrySpec(P1, BundleSpec(((1,),)), external_j=j_ambient(P1, 2))
    with pytest.raises(TruncationMismatch) as info:
        serre_dual_pair(g, 4)
    assert info.value.context == {"have": 2, "want": 4}


def _reference_serre_dual_pair(g: GeometrySpec, max_degree: int) -> SerrePair:
    space = g.space
    if any(classify(l) != CONVEX for l in g.bundle.lines):
        raise Unsupported("dual pair construction needs a convex bundle")
    if g.external_j is not None:
        J = g.external_j.truncate(max_degree)
    else:
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


def _external_j_p1():
    # an external J that is not the ambient series: every beta != 0 term halved
    ambient = j_ambient(P1, 6)
    terms = {
        b: hl if sum(b) == 0 else hl.scale(Fraction(1, 2))
        for b, hl in ambient.terms.items()
    }
    return GeometrySpec(P1, BundleSpec(((1,),)), external_j=QSeries(P1, 6, terms))


SERRE_CASES = {
    "quintic": (lambda: QUINTIC, 8),
    "bicubic": (lambda: GeometrySpec(AmbientSpace((2, 2)), BundleSpec(((3, 3),))), 4),
    "p3-o1-o1": (lambda: GeometrySpec(P3, BundleSpec(((1,), (1,)))), 6),
    "p1xp1-o22": (lambda: GeometrySpec(AmbientSpace((1, 1)), BundleSpec(((2, 2),))), 4),
    "p1xp1-zero-pairings": (
        lambda: GeometrySpec(AmbientSpace((1, 1)), BundleSpec(((1, 0), (0, 2)))),
        4,
    ),
    "external-j": (_external_j_p1, 5),
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
    return _promote(pair.i_prime.space, phi) * transformed


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
        phi=sol.phi.truncate(D),
        map=MirrorMap(f0=sol.map.f0.truncate(D), f1=[f.truncate(D) for f in sol.map.f1]),
        string=sol.string.truncate(D),
        residual=sol.residual.truncate(D),
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
