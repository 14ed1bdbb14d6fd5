"""Curve counts and duality data extracted from normalized series.

Downstream of the solver: turn the hbar^{-2} layer of a normalized series
into curve counts, invert the multiple-cover weighting on threefold-type
geometries, and build/solve the dual-series factorization for convex
bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Infeasible, StructureViolation, Unsupported
from .mirror import MirrorMap, _solve_relative_map, apply_transform, solve_mirror_map
from .ring import BundleSpec, CohClass, euler_class, format_fraction
from .series import QSeries, ScalarQSeries, qseries_to_obj, scalar_to_obj
from .twist import (
    CONVEX,
    GeometrySpec,
    _ambient_series,
    _combined_degrees,
    _linear_products,
    _prime_table,
    _twisted,
    check_conditions,
    classify,
    i_function,
    i_prime,
)


def _require_nonneg(g: GeometrySpec) -> None:
    """Refuse a geometry that fails the per-factor positivity condition."""
    report = check_conditions(g)
    if not report.all_nonneg:
        raise Unsupported(
            "geometry fails the per-factor positivity condition",
            nonneg=list(report.nonneg),
        )


def _normalize(g: GeometrySpec, max_degree: int, start_one: bool) -> tuple[MirrorMap, QSeries]:
    """The pipeline's one change of variables: gate the geometry, read the
    map off the start-1 series I', apply it once, to I' itself or to
    ``i_function``, and refuse a result that is not normalized.  Returns the
    map and the normalized series."""
    _require_nonneg(g)
    space = g.space
    conc = g.concave_lines()
    if not start_one and conc and euler_class(space, BundleSpec(conc)).is_zero:
        # I' = 1, its beta != 0 terms all carrying the factor e(E_conc) = 0
        m, S = MirrorMap.zero(space, max_degree), i_function(g, max_degree)
    else:
        I1 = i_prime(g, max_degree)
        m = solve_mirror_map(I1, space.unit())
        if start_one:
            S = I1
        elif conc:
            S = i_function(g, max_degree)
        else:
            # e(E) I' is i_function exactly, without a second build
            ctop = euler_class(space, g.bundle)
            S = QSeries(space, max_degree, {b: hl.scale_class(ctop) for b, hl in I1.terms.items()})
    T = apply_transform(S, m)
    for beta in T.curve_classes()[1:]:
        hl = T.term(beta)
        if not (hl.coefficient(0).is_zero and hl.coefficient(-1).is_zero):
            raise StructureViolation("transformed series is not normalized", beta=list(beta))
    return m, T


def normalized_series(g: GeometrySpec, max_degree: int) -> QSeries:
    """Run the pipeline on the twisted series: solve the transform, apply it
    to ``i_function`` and check the result starts at e(E) with vanishing
    hbar^0 and hbar^-1 layers.  A concave bundle with a non-zero map is
    refused there; its counts come from the start-1 series."""
    return _normalize(g, max_degree, False)[1]


def _divide(a: CohClass, e: CohClass, beta) -> CohClass:
    """a / e for the monomial e = c H^k on one projective space: each H^i of
    a shifts down to H^(i-k).  A term below H^k is refused."""
    [((k,), c)] = e.items()
    if any(i < k for (i,), _ in a.items()):
        raise StructureViolation("hbar^-2 coefficient is not divisible by e(E_conc)", beta=list(beta))
    return sum((a.space.monomial((i - k,), x / c) for (i,), x in a.items()), a.space.zero())


def n_numbers(g: GeometrySpec, max_degree: int) -> dict:
    """Curve counts per curve class, from the hbar^{-2} layer.

    Each count is the total-divisor pairing of the hbar^{-2} coefficient
    a_2 of the normalized series, divided by the total degree of the class.
    Where a concave summand has a non-zero Euler class e(E_conc), the
    normalized series is the start-1 one and the pairing is with
    e(E_conv) (a_2 / e(E_conc)): dividing first keeps the product below the
    top degree, where multiplying first would overflow it.
    """
    space = g.space
    conc = euler_class(space, BundleSpec(g.concave_lines()))
    start_one = bool(g.concave_lines()) and not conc.is_zero
    T = _normalize(g, max_degree, True)[1] if start_one else normalized_series(g, max_degree)
    conv = euler_class(space, BundleSpec(g.convex_lines()))
    divisor = space.divisor_sum()
    out: dict = {}
    for beta in T.curve_classes():
        total = sum(beta)
        if total == 0:
            continue
        a = T.term(beta).coefficient(-2)
        if start_one:
            a = _divide(a, conc, beta) * conv
        out[beta] = space.integrate(divisor * a) / total
    return out


def aspinwall_morrison(g: GeometrySpec, N: dict) -> dict:
    """Invert the k^-3 multiple-cover weighting: N_d = sum_{k|d} n_{d/k}/k^3.

    Only meaningful on threefold-type geometries over a single projective
    space with vanishing combined degree; anything else is refused.
    """
    if g.space.nfactors != 1:
        raise Unsupported("multiple-cover inversion needs a single-factor ambient")
    r = g.space.factors[0]
    kinds = [classify(l) for l in g.bundle.lines]
    n_convex = sum(1 for k in kinds if k == CONVEX)
    n_concave = len(kinds) - n_convex
    dim = r - n_convex + n_concave
    if dim != 3:
        raise Unsupported(
            "multiple-cover inversion needs expected dimension 3", dimension=dim
        )
    report = check_conditions(g)
    combined_zero = all(v == 0 for v in _combined_degrees(g))
    if not (report.all_nonneg and combined_zero):
        raise Unsupported("multiple-cover inversion needs vanishing combined degree")
    counts = {beta[0]: value for beta, value in N.items()}
    out: dict = {}
    for d in sorted(counts):
        total = counts[d]
        for k in range(2, d + 1):
            if d % k == 0:
                total -= out[d // k] * Fraction(1, k**3)
        out[d] = total
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

    Both products are read from per-summand tables indexed by d_j, the
    first from the table that also builds the pipeline's start-1 series
    (``twist.i_prime``).  A geometry that fails the positivity condition is
    refused first.
    """
    _require_nonneg(g)
    space = g.space
    if any(classify(l) != CONVEX for l in g.bundle.lines):
        raise Unsupported("dual pair construction needs a convex bundle")
    J = _ambient_series(g, max_degree)
    sign = -1 if g.bundle.rank % 2 else 1
    prime = [(l, _prime_table(space, l)) for l in g.bundle.lines]
    # row d of each dual table: prod_{k=-d+1}^{0} (-c1 + k hbar)
    dual = [(l, _linear_products(space, -space.divisor(l), 0, -1)) for l in g.bundle.lines]
    return SerrePair(
        i_prime=_twisted(J, prime, space.unit()),
        i_prime_dual=_twisted(J, dual, space.unit()).scale(sign),
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
    m, ratio = _solve_relative_map(pair.i_prime, pair.i_prime_dual.scale(pair.sign))
    current = apply_transform(pair.i_prime, m).scale(pair.sign)
    residual = pair.i_prime_dual - current
    for beta in residual.curve_classes():
        R = residual.term(beta)
        if not R.is_zero:
            raise Infeasible(
                "dual factorization obstructed",
                first_obstructed_degree=sum(beta),
                beta=list(beta),
                residual=[
                    {"pow": e, "class": [format_fraction(c) for c in cls.coeffs]}
                    for e, cls in sorted(R.terms.items())
                ],
            )
    # the reported map carries f1 alone; phi and string are reported apart
    dials = MirrorMap(f0=ScalarQSeries.zero(space, D), f1=m.f1)
    return SerreFactorSolution(
        phi=ratio.scale(pair.sign), map=dials, string=m.string, residual=residual
    )
