"""Change-of-variables machinery for the twisted series.

The pipeline's middle stage: a series built by the twist module is brought to
its normalized shape by a change of variables

    S  |->  e^{f0(q)} * e^{(1/hbar) sum_i p_i f1^i(q)} * S(q e^{f1(q)}, hbar),

with f0 and the f1^i scalar q-series vanishing at q = 0.  Normalized means
the hbar^0 part of every q-coefficient is exactly the Euler class and the
hbar^{-1} part carries no divisor component against it.

One normal form of S gives the scalar factor g and the divisor parts div.
Provided S has no positive hbar powers (``normal_form`` refuses any),
e^{(p . f1)/hbar} leaves hbar^0 alone and adds (p . f1) g(q e^{f1}) ctop at
hbar^{-1}.  So the transformed series is normalized exactly when

    e^{f0} g(q e^{f1}) = 1   and   f1 + (div/g)(q e^{f1}) = 0,

the classical mirror-map shape: f1 inverts one substitution and
f0 = -log g(q e^{f1}).  For geometries in the trivial-transform cases the
solution is identically zero.

The module also houses the ordered-decomposition combinatorics used to show
the transformed series stays within the allowed shape: a brute-force
generating-product oracle and the matching closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import SpaceMismatch, StructureViolation
from .ring import AmbientSpace, CohClass, ONE, ZERO, coh_to_obj
from .series import (
    HbarLaurent,
    QSeries,
    ScalarQSeries,
    _check_dials,
    compose_substitute,
    invert_substitution,
    qs_exp,
    qs_exp_full,
    qs_log,
    qs_substitute,
    scalar_to_obj,
)


@dataclass(frozen=True)
class MirrorMap:
    """Change-of-variables data: a scalar dial f0 and one dial f1^i per factor."""

    f0: ScalarQSeries
    f1: tuple[ScalarQSeries, ...]

    def __post_init__(self):
        object.__setattr__(self, "f1", tuple(self.f1))
        if self.f0.constant_term != 0 or any(f.constant_term != 0 for f in self.f1):
            raise ValueError("mirror map series must vanish at q = 0")

    @classmethod
    def zero(cls, space: AmbientSpace, max_degree: int) -> "MirrorMap":
        z = ScalarQSeries.zero(space, max_degree)
        return cls(f0=z, f1=tuple(z for _ in range(space.nfactors)))

    @property
    def is_zero(self) -> bool:
        return self.f0.is_zero and all(f.is_zero for f in self.f1)

    def to_obj(self) -> dict:
        return {
            "f0": scalar_to_obj(self.f0),
            "f1": [scalar_to_obj(f) for f in self.f1],
        }


@dataclass(frozen=True)
class NormalForm:
    """Structure extraction of a series against the Euler class.

    ``g`` is the scalar series with hbar^0 coefficient g(beta) * euler;
    ``divisor_part`` holds, per ambient factor, the divisor components of the
    hbar^{-1} coefficients relative to the Euler class.  Components paired to
    zero by the Euler class are allowed and not recorded.
    """

    g: ScalarQSeries
    divisor_part: tuple[ScalarQSeries, ...]

    @property
    def is_normalized(self) -> bool:
        one = ScalarQSeries.one(self.g.space, self.g.max_degree)
        return self.g == one and all(f.is_zero for f in self.divisor_part)


def _solve_linear(columns, target: CohClass):
    """Solve sum_i c_i * columns[i] = target over the rationals.

    Free variables are set to zero; returns None when inconsistent.
    """
    ncols = len(columns)
    mat = []
    for *row, rhs in zip(*(col.coeffs for col in columns), target.coeffs):
        if any(row) or rhs != 0:
            mat.append(row + [rhs])
    sol = [ZERO] * ncols
    pivots = []
    r = 0
    for c in range(ncols):
        prow = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if prow is None:
            continue
        mat[r], mat[prow] = mat[prow], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    for row in mat:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    for row_i, c in enumerate(pivots):
        sol[c] = mat[row_i][ncols]
    return sol


def normal_form(S: QSeries, ctop: CohClass) -> NormalForm:
    """Extract the scalar and divisor structure of S against the Euler class.

    Requires the q = 0 term of S to be exactly ctop at hbar^0 and no
    q-coefficient to carry a positive hbar power.  For each other
    q-coefficient the hbar^0 part must be a scalar multiple of ctop and
    the hbar^{-1} part must decompose as ctop times a divisor plus something
    the Euler class annihilates; otherwise StructureViolation identifies the
    offending curve class.  Where ctop^2 kills a hyperplane class p_i, that
    decomposition cannot see the p_i part, so an hbar^{-1} part that is not
    a multiple of ctop is refused too, naming the vanishing factors.
    """
    space, D = S.space, S.max_degree
    if ctop.space != space:
        raise SpaceMismatch("Euler class on a different ambient space")
    if S.term(S.zero_beta) != HbarLaurent(space, {0: ctop}):
        raise StructureViolation(
            "series does not start at the Euler class", beta=[0] * space.nfactors
        )
    ctop_zero = ctop.is_zero
    if not ctop_zero:
        ref_idx = next(i for i, c in enumerate(ctop.coeffs) if c != 0)
        ctop_sq = ctop * ctop
        columns = [ctop_sq * space.hyperplane(i) for i in range(space.nfactors)]
        vanishing = [i for i, col in enumerate(columns) if col.is_zero]
    g_terms = {S.zero_beta: ONE}
    div_terms: list[dict] = [{} for _ in range(space.nfactors)]
    for beta, hl in S.terms.items():
        if sum(beta) == 0:
            continue
        top = max(hl.terms)
        if top > 0:
            raise StructureViolation(
                "series carries a positive hbar power", beta=list(beta), power=top
            )
        a0 = hl.coefficient(0)
        a1 = hl.coefficient(-1)
        if ctop_zero:
            if not a0.is_zero:
                raise StructureViolation(
                    "hbar^0 coefficient must vanish when the Euler class does",
                    beta=list(beta),
                    residual=coh_to_obj(a0),
                )
            continue
        g_beta = a0.coeffs[ref_idx] / ctop.coeffs[ref_idx]
        if a0 != ctop.scale(g_beta):
            raise StructureViolation(
                "hbar^0 coefficient is not a scalar multiple of the Euler class",
                beta=list(beta),
                residual=coh_to_obj(a0 - ctop.scale(g_beta)),
            )
        if g_beta != 0:
            g_terms[beta] = g_beta
        if vanishing and a1 != ctop.scale(a1.coeffs[ref_idx] / ctop.coeffs[ref_idx]):
            # the solve below reads a1 ctop = ctop^2 sum_i x_i p_i, which
            # cannot see x_i on these columns
            raise StructureViolation(
                "hbar^-1 coefficient has an undetermined divisor part: the "
                "squared Euler class kills a hyperplane class",
                beta=list(beta),
                vanishing_factors=vanishing,
            )
        coeffs = _solve_linear(columns, a1 * ctop)
        if coeffs is None:
            raise StructureViolation(
                "hbar^-1 coefficient has no divisor decomposition against the Euler class",
                beta=list(beta),
                residual=coh_to_obj(a1),
            )
        for i, c in enumerate(coeffs):
            if c != 0:
                div_terms[i][beta] = c
    return NormalForm(
        g=ScalarQSeries(space, D, g_terms),
        divisor_part=tuple(ScalarQSeries(space, D, t) for t in div_terms),
    )


def apply_transform(
    S: QSeries, m: MirrorMap, string: ScalarQSeries | None = None
) -> QSeries:
    """Apply the change of variables to a series.

    Returns e^{f0 + (s + sum_i p_i f1^i)/hbar} * S(q e^{f1}), truncated at the
    series' degree, with the optional ``string`` dial s.  The prefactor is one
    class-valued exponential, f0 at hbar^0 and the rest at hbar^{-1}, taken
    in one pass and applied with one product; it is a finite sum because its
    exponent has no q = 0 term.  Dials on another space or degree, or with a
    constant term, are refused.
    """
    space, D = S.space, S.max_degree
    if string is None:
        string = ScalarQSeries.zero(space, D)
    _check_dials(space, D, [m.f0, string])
    result = qs_substitute(S, list(m.f1))
    unit = space.unit()
    exponent = {
        beta: HbarLaurent(
            space,
            {
                0: unit.scale(m.f0.coeff(beta)),
                -1: unit.scale(string.coeff(beta)) + space.divisor([f.coeff(beta) for f in m.f1]),
            },
        )
        for beta in result.curve_classes()[1:]
    }
    prefactor = QSeries(space, D, exponent)
    if prefactor.is_zero:
        return result
    return qs_exp_full(prefactor) * result


def solve_mirror_map(S: QSeries, ctop: CohClass) -> MirrorMap:
    """Find the change of variables normalizing S, in closed form.

    With g and div read off one normal form of S, the transform leaves the
    hbar^0 part of S(q e^{f1}) alone and adds (p . f1) g(q e^{f1}) ctop at
    hbar^{-1}, because S has no positive hbar powers.  So normalized means

        e^{f0} g(q e^{f1}) = 1   and   f1 + (div/g)(q e^{f1}) = 0,

    solved by f1 = invert_substitution(div/g), f0 = -log g(q e^{f1}).  The
    gauge f0(0) = f1(0) = 0 makes the solution unique.  The solve does not
    apply the map: the pipeline applies it once and checks that the result
    is normalized (``invariants._normalize``).
    """
    nf = normal_form(S, ctop)
    inv_g = qs_exp(qs_log(nf.g).scale(-1))
    f1 = invert_substitution([d * inv_g for d in nf.divisor_part])
    f0 = qs_log(compose_substitute(nf.g, f1)).scale(-1)
    return MirrorMap(f0=f0, f1=tuple(f1))


# -- ordered-decomposition combinatorics -------------------------------------


@lru_cache(maxsize=None)
def _compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """Ordered tuples of positive integers summing to n."""
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            out.append((first,) + rest)
    return tuple(out)


def _scalar_degree_coeffs(f: ScalarQSeries) -> dict[int, Fraction]:
    if f.space.nfactors != 1:
        raise ValueError("decomposition combinatorics needs a single-factor space")
    return {beta[0]: c for beta, c in f.terms.items()}


def z_from_log(x: ScalarQSeries, y: ScalarQSeries) -> ScalarQSeries:
    """Oracle route: build the generating product Q and take its log.

    Q sums, over ordered decompositions (beta_1..beta_s) of each degree,
    (1/s!) prod_m (y_{beta_m} + x_{beta_m} B_{m-1}) with B_m the partial sums
    and B_0 = 0.  The result is the coefficient series of log Q.
    """
    x._check(y)
    xc = _scalar_degree_coeffs(x)
    yc = _scalar_degree_coeffs(y)
    space, D = x.space, x.max_degree
    q_terms = {(0,): ONE}
    for n in range(1, D + 1):
        total = ZERO
        for comp in _compositions(n):
            s = len(comp)
            prod = Fraction(1, factorial(s))
            partial = 0
            for b in comp:
                prod *= yc.get(b, ZERO) + xc.get(b, ZERO) * partial
                if prod == 0:
                    break
                partial += b
            total += prod
        if total != 0:
            q_terms[(n,)] = total
    return qs_log(ScalarQSeries(space, D, q_terms))


def z_closed_form(x: ScalarQSeries, y: ScalarQSeries) -> ScalarQSeries:
    """Direct evaluation: the y-linear closed form for the log coefficients.

    z_n sums, over the same ordered decompositions, (1/s!) y_{beta_1}
    prod_{m=2..s} x_{beta_m} B_{m-1}.
    """
    x._check(y)
    xc = _scalar_degree_coeffs(x)
    yc = _scalar_degree_coeffs(y)
    space, D = x.space, x.max_degree
    terms = {}
    for n in range(1, D + 1):
        total = ZERO
        for comp in _compositions(n):
            s = len(comp)
            prod = Fraction(1, factorial(s)) * yc.get(comp[0], ZERO)
            if prod == 0:
                continue
            partial = comp[0]
            for b in comp[1:]:
                prod *= xc.get(b, ZERO) * partial
                if prod == 0:
                    break
                partial += b
            total += prod
        if total != 0:
            terms[(n,)] = total
    return ScalarQSeries(space, D, terms)
