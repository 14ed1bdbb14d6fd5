"""Curve counts and duality data extracted from normalized series.

Downstream of the solver: turn the hbar^{-2} layer of a normalized series
into curve counts, invert the multiple-cover weighting on threefold-type
geometries, and build/solve the dual-series factorization for convex
bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import Infeasible, StructureViolation, Unsupported
from .mirror import MirrorMap, _check_normalized, _paired_layers, _solve_relative_map, apply_transform
from .mirror import normal_form, solve_mirror_map
from .ring import ZERO, BundleSpec, euler_class, format_fraction
from .levels import _combine
from .series import QSeries, ScalarQSeries, _factor_table, _graded, _Layers, qseries_to_obj
from .series import all_curve_classes, scalar_to_obj
from .twist import (
    GeometrySpec,
    _combined_degrees,
    _count_layers,
    _linear_products,
    _twisted,
    check_conditions,
    i_function,
    i_prime,
    j_ambient,
)


def _require_nonneg(g: GeometrySpec) -> None:
    """Refuse a geometry that fails the per-factor positivity condition."""
    report = check_conditions(g)
    if not report.all_nonneg:
        raise Unsupported(
            "geometry fails the per-factor positivity condition",
            nonneg=list(report.nonneg),
        )


def _solve(g: GeometrySpec, max_degree: int) -> tuple[MirrorMap, _Layers | QSeries]:
    """Gate the geometry and read the change of variables off the start-1
    series I'.  Returns the map and what it was solved on: the ``_Layers``
    of I' that the counts read (``twist._count_layers``), or, where
    e(E_conc) = 0 and so I' = 1, the zero map and ``i_function``."""
    _require_nonneg(g)
    conc = g.concave_lines()
    if conc and euler_class(g.space, BundleSpec(conc)).is_zero:
        return MirrorMap.zero(g.space, max_degree), i_function(g, max_degree)
    S = _count_layers(g, max_degree)
    return solve_mirror_map(S, g.space.unit()), S


def normalized_series(g: GeometrySpec, max_degree: int) -> QSeries:
    """The twisted series under the change of variables read off I': the
    map applied to ``i_function``, checked to have vanishing hbar^0 and
    hbar^-1 layers.  A concave bundle with a non-zero map is refused before
    ``i_function`` is built, with StructureViolation naming the first curve
    class, in graded order, that a dial moves: I starts at e(E), a total
    degree above its other terms, so only the zero map keeps it graded."""
    m, _ = _solve(g, max_degree)
    if g.concave_lines() and not m.is_zero:
        moved = {b for f in (m.f0, m.string, *m.f1) for b in f.terms}
        raise StructureViolation(
            "a concave bundle's series is normalized only under the zero map",
            beta=list(min(moved, key=_graded)),
        )
    T = apply_transform(i_function(g, max_degree), m)
    _check_normalized(T, MirrorMap.zero(g.space, max_degree))
    return T


def _pairing(g: GeometrySpec) -> list:
    """The count pairing P(c) = integral of D e(E_conv) c, D the sum of the
    hyperplane classes, as integer weights on the monomial basis over one
    positive denominator, then a unit row per slot it refuses.  Where
    e(E_conc) = c H^k != 0 on one projective space, P pairs c / e(E_conc),
    dividing before the product overflows the top degree: P(H^m) reads
    D e(E_conv) at the top over H^(m-k), over c, and H^m for m < k is refused."""
    space = g.space
    pairing = space.divisor_sum() * euler_class(space, BundleSpec(g.convex_lines()))
    conc = euler_class(space, BundleSpec(g.concave_lines()))  # 1 for a convex bundle
    [(shift, c)] = list(conc.items()) or [((0,) * space.nfactors, 1)]
    top = [r + k for r, k in zip(space.factors, shift)]
    slots = [space.basis_index.get(tuple(t - x for t, x in zip(top, e))) for e in space.basis]
    weights = [0 if j is None else pairing.num[j] * c.denominator * (1 if c > 0 else -1) for j in slots]
    units = [([int(j == k) for j in range(len(slots))], 1) for k in range(sum(shift))]
    return [(weights, pairing.den * abs(c.numerator))] + units


def n_numbers(g: GeometrySpec, max_degree: int) -> dict:
    """Curve counts per curve class, from the hbar^{-2} layer.

    N_beta |beta| is the beta coefficient of the hbar^-2 layer of the series
    the map is solved on (``_solve``), transformed and paired by ``_pairing``;
    for a convex bundle that pairs D with the transformed e(E) I', of which
    ``_solve`` builds only those layers, in integers.  The layer is paired
    to scalars before the substitution q -> q e^{f1}
    (``mirror._paired_layers``), which then is one scalar compose, each
    level n settled over n, as every class in it has |beta| = n; so the
    series is never transformed as classes.  A layer that e(E_conc) does not
    divide is refused before the substitution, which on one factor keeps the
    lowest term of a series.  Where e(E_conc) = 0 the series is
    ``i_function``, with no convex summand."""
    m, S = _solve(g, max_degree)
    Y, *spoilt = _paired_layers(S, m, _pairing(g))
    if bad := [beta for y in spoilt for beta in y.terms]:
        beta = list(min(bad, key=_graded))
        raise StructureViolation("hbar^-2 coefficient is not divisible by e(E_conc)", beta=beta)
    D, table = Y.max_degree, _factor_table(Y, m.f1, m._factors)
    Y = Y._like(_combine(g.space.nfactors, [(1, Y.levels, table)], [1, *range(1, D + 1)])).terms
    return {beta: Y.get(beta, ZERO) for beta in all_curve_classes(g.space, D)[1:]}


def aspinwall_morrison(g: GeometrySpec, N: dict) -> dict:
    """Invert the k^-3 multiple-cover weighting: N_d = sum_{k|d} n_{d/k}/k^3.

    Only meaningful on threefold-type geometries over a single projective
    space with vanishing combined degree; anything else is refused.
    """
    if g.space.nfactors != 1:
        raise Unsupported("multiple-cover inversion needs a single-factor ambient")
    dim = g.space.factors[0] - len(g.convex_lines()) + len(g.concave_lines())
    if dim != 3:
        raise Unsupported(
            "multiple-cover inversion needs expected dimension 3", dimension=dim
        )
    if any(_combined_degrees(g)):
        raise Unsupported("multiple-cover inversion needs vanishing combined degree")
    counts = {beta[0]: value for beta, value in N.items()}
    missing = {d // k for d in counts for k in range(2, d + 1) if d % k == 0} - counts.keys()
    if missing:
        raise ValueError(f"counts lack the divisor degree {min(missing)}")
    out: dict = {}
    for d in sorted(counts):
        num, den = counts[d].numerator, counts[d].denominator
        for k in range(2, d + 1):
            if d % k == 0:
                x = out[d // k]
                m = lcm(den, c := k**3 * x.denominator)
                num, den = num * (m // den) - x.numerator * (m // c), m
        out[d] = Fraction(num, den)
    return out


@dataclass(frozen=True)
class SerrePair:
    """The (E, e)-twisted series of a convex bundle and its (E^v, e^{-1}) dual.

    The dual series carries the rank sign and, per summand, the mirrored
    product of linear factors over the shifted non-positive range.
    """

    i_prime: QSeries
    i_prime_dual: QSeries
    sign: int


def serre_dual_pair(g: GeometrySpec, max_degree: int) -> SerrePair:
    """Build the dual pair for a convex bundle from the same ambient series.

    ``i_prime`` is the (E, e)-twisted series: per summand L_j with
    d_j = <L_j, beta> it multiplies J_beta by (c1(L_j) + k hbar) for
    k = 1..d_j.  ``i_prime_dual`` is the (E^v, e^{-1})-twisted series: it
    multiplies by (-c1(L_j) + k hbar) for k = -d_j+1..0 and carries the
    global sign (-1)^rank.  Both start at the unit class (times the sign for
    the dual); the Euler factor is deliberately not included.

    The two satisfy quantum Serre duality in I-function form, for every beta:

        e(E) I'_beta = (-1)^{rk E + <c1(E),beta>}
                       * prod_j (c1(L_j) + d_j hbar) * I'^dual_beta.

    That is multiplication by e(E), which is nilpotent for a nonzero bundle
    and so not invertible, followed by an operator of order rk E; neither is
    a change of the dials of ``solve_serre_factor``.

    The first is ``twist.i_prime`` itself.  The dual reads its own table
    per summand, indexed by d_j: a summand with d_j = 0 contributes 1 there,
    not a class, so the dual is no Euler class times K.  A geometry that
    fails the positivity condition is refused first.
    """
    _require_nonneg(g)
    space = g.space
    if g.concave_lines():
        raise Unsupported("dual pair construction needs a convex bundle")
    sign = -1 if g.bundle.rank % 2 else 1
    # row d of each dual table: prod_{k=-d+1}^{0} (-c1 + k hbar)
    dual = [(l, _linear_products(space, -space.divisor(l), 0, -1)) for l in g.bundle.lines]
    return SerrePair(
        i_prime=i_prime(g, max_degree),
        i_prime_dual=_twisted(j_ambient(space, max_degree), dual, space.unit(), space.unit()).scale(sign),
        sign=sign,
    )


@dataclass(frozen=True)
class SerreFactorSolution:
    """Dials relating the dual pair: phi * e^{string/hbar} * transform."""

    phi: ScalarQSeries
    map: MirrorMap
    string: ScalarQSeries
    residual: QSeries

    def to_obj(self) -> dict:
        return {
            "phi": scalar_to_obj(self.phi),
            "map": self.map.to_obj(),
            "string": scalar_to_obj(self.string),
            "residual_zero": self.residual.is_zero,
            "residual": qseries_to_obj(self.residual),
        }


def solve_serre_factor(pair: SerrePair) -> SerreFactorSolution:
    """Solve phi * e^{string/hbar} * transform(I') = I'_dual in closed form.

    The dials are a scalar factor phi = sign e^{f0}, the string shift and the
    divisor shifts f1^i, all vanishing at q = 0 but for phi's sign.  With
    (g_a, s_a, div_a) read off the normal form of I' and (g_b, s_b, div_b)
    off that of sign * I'_dual, let h = div_a/g_a and k = div_b/g_b.
    Matching the hbar^0 and hbar^-1 layers gives

        f1 + h(q e^{f1}) = k,  f0 = log g_b - log g_a(q e^{f1})  and
        string = s_b/g_b - (s_a/g_a)(q e^{f1}),

    the first solved by one shifted inversion (``mirror._solve_relative_map``).

    A dial at degree n touches only degrees >= n, and those two layers of a
    transform depend only on those layers, so these are the only candidate
    dials.  The map is applied once; a factorization exists only when the
    result is I'_dual.  Infeasible reports the first curve class, in graded
    order, where a residual remains: it lies outside the dials' reach.

    Worked counterexample, P3 with O(1)+O(1) at degree 1: J_1 = (p+hbar)^-4,
    so I'_1 = (p+hbar)^-2 and I'^dual_1 = p^2 (p+hbar)^-4, and their
    difference -hbar^-2 + 2p hbar^-3 - 2p^2 hbar^-4 lies wholly below the
    dials' reach.  The pair is related by quantum Serre duality instead (see
    ``serre_dual_pair``).
    """
    space, D = pair.i_prime.space, pair.i_prime.max_degree
    target = pair.i_prime_dual.scale(pair.sign)
    m, ratio = _solve_relative_map(*(normal_form(S, space.unit()) for S in (pair.i_prime, target)))
    current = apply_transform(pair.i_prime, m).scale(pair.sign)
    residual = pair.i_prime_dual - current
    if not residual.is_zero:
        beta = min(residual.terms, key=_graded)
        raise Infeasible(
            "dual factorization obstructed",
            first_obstructed_degree=sum(beta),
            beta=list(beta),
            residual=[
                {"pow": e, "class": [format_fraction(c) for c in cls.coeffs]}
                for e, cls in sorted(residual.terms[beta].terms.items())
            ],
        )
    # the reported map carries f1 alone; phi and string are reported apart
    dials = MirrorMap(f0=ScalarQSeries.zero(space, D), f1=m.f1)
    return SerreFactorSolution(
        phi=ratio.scale(pair.sign), map=dials, string=m.string, residual=residual
    )
