"""Curve counts and duality data extracted from normalized series.

Downstream of the solver: turn the hbar^{-2} layer of a normalized series
into curve counts, invert the multiple-cover weighting on threefold-type
geometries, and build/solve the dual-series factorization for convex
bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Infeasible, Unsupported
from .mirror import MirrorMap, apply_transform, solve_mirror_map
from .ring import euler_class, format_fraction
from .series import (
    HbarLaurent,
    QSeries,
    ScalarQSeries,
    promote,
    qseries_to_obj,
    scalar_to_obj,
)
from .twist import (
    CONVEX,
    GeometrySpec,
    _ambient_series,
    _combined_degrees,
    _linear_products,
    _pairing,
    check_conditions,
    classify,
    i_function,
)


def _require_nonneg(g: GeometrySpec) -> None:
    """Refuse a geometry that fails the per-factor positivity condition."""
    report = check_conditions(g)
    if not report.all_nonneg:
        raise Unsupported(
            "geometry fails the per-factor positivity condition",
            nonneg=list(report.nonneg),
        )


def normalized_series(g: GeometrySpec, max_degree: int) -> QSeries:
    """Run the pipeline: twisted series, solve the transform, apply it."""
    _require_nonneg(g)
    I = i_function(g, max_degree)
    ctop = euler_class(g.space, g.bundle)
    m = solve_mirror_map(I, ctop)
    return apply_transform(I, m)


def n_numbers(g: GeometrySpec, max_degree: int) -> dict:
    """Curve counts per curve class, from the hbar^{-2} layer.

    Each count is the total-divisor pairing of the hbar^{-2} coefficient,
    divided by the total degree of the class.
    """
    space = g.space
    T = normalized_series(g, max_degree)
    divisor = space.divisor_sum()
    out: dict = {}
    for beta in T.curve_classes():
        total = sum(beta)
        if total == 0:
            continue
        a = T.term(beta).coefficient(-2)
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

    Both products are read from per-summand tables indexed by d_j.  A
    geometry that fails the positivity condition is refused first.
    """
    _require_nonneg(g)
    space = g.space
    if any(classify(l) != CONVEX for l in g.bundle.lines):
        raise Unsupported("dual pair construction needs a convex bundle")
    J = _ambient_series(g, max_degree)
    sign = -1 if g.bundle.rank % 2 else 1
    # row d of each table: prod_{k=1}^{d} (c1 + k hbar), and
    # prod_{k=-d+1}^{0} (-c1 + k hbar) for the dual
    tables = []
    for l in g.bundle.lines:
        c1 = space.divisor(l)
        tables.append(
            (l, _linear_products(space, c1, 1, 1), _linear_products(space, -c1, 0, -1))
        )
    prime: dict = {}
    dual: dict = {}
    for beta in J.curve_classes():
        if sum(beta) == 0:
            prime[beta] = HbarLaurent.unit(space)
            dual[beta] = HbarLaurent.unit(space).scale(sign)
            continue
        hp = J.term(beta)
        hd = J.term(beta).scale(sign)
        for l, prime_row, dual_row in tables:
            pairing = _pairing(l, beta)
            hp = hp * prime_row(pairing)
            hd = hd * dual_row(pairing)
        prime[beta] = hp
        dual[beta] = hd
    return SerrePair(
        i_prime=QSeries(space, max_degree, prime),
        i_prime_dual=QSeries(space, max_degree, dual),
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


def _assemble(pair: SerrePair, phi, string, m):
    transformed = apply_transform(pair.i_prime, m, string=string)
    return promote(pair.i_prime.space, phi) * transformed


def solve_serre_factor(pair: SerrePair) -> SerreFactorSolution:
    """Solve phi * e^{string/hbar} * transform(I') = I'_dual order by order.

    Unknowns per curve class: the scalar factor coefficient (unit at hbar^0),
    the string shift (unit at hbar^-1), and the divisor shifts (p_i at
    hbar^-1), each acting once through the q = 0 term.  A factorization
    therefore exists only when the correction needed at each degree lies in
    the hbar^0 / hbar^-1 span of the dials.  Any residual outside that span
    is an obstruction: Infeasible reports the first degree where one appears.

    Worked counterexample, P3 with O(1)+O(1) at degree 1: J_1 = (p+hbar)^-4,
    so I'_1 = (p+hbar)^-2 and I'^dual_1 = p^2 (p+hbar)^-4, and their
    difference -hbar^-2 + 2p hbar^-3 - 2p^2 hbar^-4 lies wholly below the
    dials' reach.  The pair is related by quantum Serre duality instead (see
    ``serre_dual_pair``).
    """
    space = pair.i_prime.space
    D = pair.i_prime.max_degree
    phi = ScalarQSeries.one(space, D).scale(pair.sign)
    string = ScalarQSeries.zero(space, D)
    m = MirrorMap.zero(space, D)
    sign = Fraction(pair.sign)
    # each level's check assemble is the next level's start and, after the
    # last level, the final one: D+1 transforms in all
    current = _assemble(pair, phi, string, m)
    for level in range(1, D + 1):
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
        current = _assemble(pair, phi, string, m)
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
    residual = pair.i_prime_dual - current
    return SerreFactorSolution(phi=phi, map=m, string=string, residual=residual)
