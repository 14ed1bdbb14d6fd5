"""Change-of-variables machinery for the twisted series.

The pipeline's middle stage: a series built by the twist module is brought to
its normalized shape by a change of variables

    S  |->  e^{f0(q) + (s(q) + sum_i p_i f1^i(q))/hbar} * S(q e^{f1(q)}, hbar),

with the dials f0, s (the string dial) and f1^i scalar q-series vanishing at
q = 0.  Normalized means every q-coefficient but the first has vanishing
hbar^0 and hbar^-1 parts.  The map is read off the twisted series that starts
at 1 (``twist.i_prime``): by homogeneity its hbar^0 part is a scalar and its
hbar^-1 part a scalar plus a divisor, so no linear solve is needed
(``solve_mirror_map``).  For geometries in the trivial-transform cases the
solution is identically zero.

The module also houses the ordered-decomposition combinatorics used to show
the transformed series stays within the allowed shape: a brute-force
generating-product oracle and the matching closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    _check_substitution,
    _invert_with_factors,
    compose_substitute,
    qs_exp,
    qs_exp_full,
    qs_log,
    qs_substitute,
    scalar_to_obj,
)


@dataclass(frozen=True)
class MirrorMap:
    """Change-of-variables data: a scalar dial f0, one dial f1^i per factor,
    and the string dial (zero unless given).  A solved map also keeps its
    solve's exp(beta . f1) table, left out of ==, repr and ``to_obj``."""

    f0: ScalarQSeries
    f1: tuple[ScalarQSeries, ...]
    string: ScalarQSeries | None = None
    _factors: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "f1", tuple(self.f1))
        if self.string is None:
            object.__setattr__(self, "string", ScalarQSeries.zero(self.f0.space, self.f0.max_degree))
        if any(f.constant_term != 0 for f in (self.f0, self.string, *self.f1)):
            raise ValueError("mirror map series must vanish at q = 0")

    @classmethod
    def zero(cls, space: AmbientSpace, max_degree: int) -> "MirrorMap":
        z = ScalarQSeries.zero(space, max_degree)
        return cls(f0=z, f1=tuple(z for _ in range(space.nfactors)))

    @property
    def is_zero(self) -> bool:
        return self.f0.is_zero and self.string.is_zero and all(f.is_zero for f in self.f1)

    def to_obj(self) -> dict:
        """f0 and f1, and the string dial where it is non-zero."""
        obj = {"f0": scalar_to_obj(self.f0), "f1": [scalar_to_obj(f) for f in self.f1]}
        if not self.string.is_zero:
            obj["string"] = scalar_to_obj(self.string)
        return obj


@dataclass(frozen=True)
class NormalForm:
    """The hbar^0 and hbar^-1 layers of a series that starts at 1.

    ``g`` is the hbar^0 scalar, ``string`` the hbar^-1 scalar and
    ``divisor_part`` holds, per ambient factor, the hbar^-1 coefficient of
    the hyperplane class p_i.
    """

    g: ScalarQSeries
    string: ScalarQSeries
    divisor_part: tuple[ScalarQSeries, ...]


def normal_form(S: QSeries, start: CohClass) -> NormalForm:
    """Read the scalar, string and divisor layers of S.

    Requires the q = 0 term of S to be exactly ``start`` at hbar^0 and no
    q-coefficient to carry a positive hbar power.  With the unit class as
    start, every other q-coefficient must have a scalar hbar^0 part and an
    hbar^-1 part in the span of 1 and the p_i; anything else raises
    StructureViolation naming the curve class and the residual.  Any other
    start is accepted only when the hbar^0 and hbar^-1 parts of every other
    q-coefficient vanish, and then reads g = 1 and nothing else.
    """
    space, D = S.space, S.max_degree
    if start.space != space:
        raise SpaceMismatch("start class on a different ambient space")
    if S.term(S.zero_beta) != HbarLaurent(space, {0: start}):
        raise StructureViolation(
            "series does not start at the given class", beta=[0] * space.nfactors
        )
    unit = space.unit()
    from_unit = start == unit
    n = space.nfactors
    p_exps = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    g_terms = {S.zero_beta: ONE}
    s_terms: dict = {}
    div_terms: list[dict] = [{} for _ in p_exps]
    for beta, hl in S.terms.items():
        if sum(beta) == 0:
            continue
        top = hl.exponents()[-1]
        if top > 0:
            raise StructureViolation(
                "series carries a positive hbar power", beta=list(beta), power=top
            )
        a0 = hl.coefficient(0)
        a1 = hl.coefficient(-1)
        if from_unit:
            g_beta, s_beta, div = a0.scalar_part, a1.scalar_part, [a1.coeff(e) for e in p_exps]
        else:
            g_beta, s_beta, div = ZERO, ZERO, [ZERO] * n
        residual = (a0 - unit.scale(g_beta), a1 - unit.scale(s_beta) - space.divisor(div))
        if not (residual[0].is_zero and residual[1].is_zero):
            want = "a scalar and a scalar plus a divisor" if from_unit else "zero"
            raise StructureViolation(
                f"hbar^0 and hbar^-1 coefficients are not {want}",
                beta=list(beta),
                residual=[coh_to_obj(r) for r in residual],
            )
        if g_beta != 0:
            g_terms[beta] = g_beta
        if s_beta != 0:
            s_terms[beta] = s_beta
        for terms, c in zip(div_terms, div):
            if c != 0:
                terms[beta] = c
    return NormalForm(
        g=ScalarQSeries(space, D, g_terms),
        string=ScalarQSeries(space, D, s_terms),
        divisor_part=tuple(ScalarQSeries(space, D, t) for t in div_terms),
    )


def apply_transform(S: QSeries, m: MirrorMap) -> QSeries:
    """Apply the change of variables to a series.

    Returns e^{f0 + (s + sum_i p_i f1^i)/hbar} * S(q e^{f1}), truncated at the
    series' degree, with s the map's string dial.  The prefactor is one
    class-valued exponential, f0 at hbar^0 and the rest at hbar^{-1}, taken
    in one pass and applied with one product; it is a finite sum because its
    exponent has no q = 0 term.  A solved map's exp(beta . f1) factors are
    read off its solve's table.  Dials on another space or degree are refused;
    the zero map returns S itself.
    """
    space, D = S.space, S.max_degree
    _check_substitution(space, D, list(m.f1))
    _check_dials(space, D, [m.f0, m.string])
    if m.is_zero:
        return S
    result = qs_substitute(S, list(m.f1), m._factors)
    unit = space.unit()
    exponent = {
        beta: HbarLaurent(
            space,
            {
                0: unit.scale(m.f0.coeff(beta)),
                -1: unit.scale(m.string.coeff(beta)) + space.divisor([f.coeff(beta) for f in m.f1]),
            },
        )
        for beta in result.curve_classes()[1:]
    }
    prefactor = QSeries(space, D, exponent)
    if prefactor.is_zero:
        return result
    return qs_exp_full(prefactor) * result


def solve_mirror_map(S: QSeries, start: CohClass) -> MirrorMap:
    """Find the change of variables normalizing S, in closed form.

    Normalized means matching 1 in the hbar^0 and hbar^-1 layers, so this is
    ``_solve_relative_map`` against the trivial target g = 1, s = 0, div = 0,
    handed over as a normal form: f1 + (div/g)(q e^{f1}) = 0,
    f0 = -log g(q e^{f1}) and string = -(s/g)(q e^{f1}).  A start other than 1
    gives the zero map or a refusal (see ``normal_form``).  The pipeline
    applies the map once and checks the result (``invariants._normalize``).
    """
    zero = ScalarQSeries.zero(S.space, S.max_degree)
    trivial = NormalForm(zero._new({S.zero_beta: ONE}), zero, (zero,) * S.space.nfactors)
    return _solve_relative_map(normal_form(S, start), trivial)[0]


def _solve_relative_map(S, target) -> tuple[MirrorMap, ScalarQSeries]:
    """The map m with apply_transform(S, m) equal to ``target`` in the hbar^0
    and hbar^-1 layers, and e^{f0}, in closed form.

    S and target are series that start at 1, or their normal forms a and b.
    With h = div_a/g_a and k = div_b/g_b, the divisor layer asks for
    f1 + h(q e^{f1}) = k, which one shifted inversion solves; the others give
    e^{f0} = g_b (1/g_a)(q e^{f1}) and string = s_b/g_b - (s_a/g_a)(q e^{f1}).
    The dials vanishing at q = 0 make the solution unique.  The inversion
    builds each exp(beta . f1) once; both substitutions here and
    ``apply_transform`` read them off its table, which the map keeps.
    """
    a, b = (x if isinstance(x, NormalForm) else normal_form(x, x.space.unit()) for x in (S, target))
    inv_ga, inv_gb = (qs_exp(qs_log(nf.g).scale(-1)) for nf in (a, b))
    f1, factors = _invert_with_factors(
        [d * inv_ga for d in a.divisor_part], [d * inv_gb for d in b.divisor_part]
    )
    ratio = b.g * compose_substitute(inv_ga, f1, factors)
    string = b.string * inv_gb - compose_substitute(a.string * inv_ga, f1, factors)
    m = MirrorMap(f0=qs_log(ratio), f1=tuple(f1), string=string)
    object.__setattr__(m, "_factors", factors)
    return m, ratio


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
