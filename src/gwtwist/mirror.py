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
solution is identically zero.  The readers also take ``series._Layers``.

The module also evaluates the descendant generating value z(x, y), which
shows the transformed series stays within the allowed shape, two ways: as
the log of the generating product exp(y + x theta) 1 and by its y-linear
closed form, with theta the Euler operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add

from .errors import SpaceMismatch, StructureViolation
from .levels import _ONE, _combine, _levels_of, _nonzero, _scaled
from .ring import AmbientSpace, CohClass, coh_to_obj
from .series import (
    HbarLaurent,
    QSeries,
    ScalarQSeries,
    _Layers,
    _add_term,
    _check_dials,
    _check_layout,
    _factor_table,
    _graded,
    _invert_with_factors,
    _settle_class,
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
    solve's exp(beta . f1) table and normal form, left out of ==, repr and ``to_obj``."""

    f0: ScalarQSeries
    f1: tuple[ScalarQSeries, ...]
    string: ScalarQSeries | None = None
    _factors: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _source: NormalForm | None = field(default=None, init=False, repr=False, compare=False)

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

    @cached_property
    def _over_g(self):
        """1/g, and what the dials f0, string and f1 cancel: log g, s/g and div/g."""
        inv = qs_exp((log_g := qs_log(self.g)).scale(-1))
        return inv, (log_g, *(x * inv for x in (self.string, *self.divisor_part)))


def _hyperplane_slots(space: AmbientSpace) -> list[int]:
    """The basis positions of the hyperplane classes p_1..p_N."""
    n = space.nfactors
    return [space.basis_index[tuple(int(j == i) for j in range(n))] for i in range(n)]


def normal_form(S: QSeries | _Layers, start: CohClass) -> NormalForm:
    """Read the scalar, string and divisor layers of S, or of ``_Layers``.

    Requires the q = 0 term of S to be exactly ``start`` at hbar^0 and no
    q-coefficient to carry a positive hbar power.  A q-coefficient of total
    degree delta has its degree-delta and degree-(delta + 1) parts as its
    hbar^0 and hbar^-1 layers.  With the unit class as start they are read
    at delta = 0 (a scalar g and a divisor) and at delta = -1 (zero and a
    scalar s).  Every other coefficient, and every one under another start,
    must have both layers zero, else StructureViolation names the curve
    class and the two layers as ``residual``; so another start reads g = 1.
    ``_Layers`` start at 1.
    """
    space, D = S.space, S.max_degree
    if start.space != space:
        raise SpaceMismatch("start class on a different ambient space")
    starts = start == space.unit() if type(S) is _Layers else (
        S.terms.get(S.zero_beta, HbarLaurent.zero(space)) == HbarLaurent(space, {0: start}))
    if not starts:
        raise StructureViolation(
            "series does not start at the given class", beta=[0] * space.nfactors
        )
    from_unit = start == space.unit()
    n = space.nfactors
    p_index = _hyperplane_slots(space)
    degrees = [sum(e) for e in space.basis]
    g_terms = [((0,) * n, 1, 1)]
    s_terms: list = []
    div_terms: list[list] = [[] for _ in p_index]
    for beta, (delta, num, den) in _Layers.of(S).terms.items():
        if delta > 0 and (power := delta - min(d for d, x in zip(degrees, num) if x)) > 0:
            raise StructureViolation(
                "series carries a positive hbar power", beta=list(beta), power=power
            )
        if from_unit and delta == 0:
            g_terms.append((beta, num[0], den))
            for terms, i in zip(div_terms, p_index):
                terms.append((beta, num[i], den))
        elif from_unit and delta == -1:
            s_terms.append((beta, num[0], den))
        elif any(x and d - delta in (0, 1) for d, x in zip(degrees, num)):
            want = "a scalar and a scalar plus a divisor" if from_unit else "zero"
            hl = HbarLaurent._of(space, delta, CohClass(space, [*num, *[0] * (len(degrees) - len(num))], den))
            raise StructureViolation(
                f"hbar^0 and hbar^-1 coefficients are not {want}",
                beta=list(beta),
                residual=[coh_to_obj(hl.coefficient(0)), coh_to_obj(hl.coefficient(-1))],
            )

    def dial(terms):
        return ScalarQSeries._of(space, D, _levels_of(n, D, terms))

    return NormalForm(
        g=dial(g_terms),
        string=dial(s_terms),
        divisor_part=tuple(dial(t) for t in div_terms),
    )


def apply_transform(S: QSeries, m: MirrorMap) -> QSeries:
    """Apply the change of variables to a series.

    Returns e^{f0 + (s + sum_i p_i f1^i)/hbar} * S(q e^{f1}), truncated at the
    series' degree, with s the map's string dial.  The prefactor is one
    class-valued exponential, f0 at hbar^0 and the rest at hbar^{-1}, taken
    in one pass and applied with one product; it is a finite sum because its
    exponent has no q = 0 term.  In x = p/hbar the exponent's q^beta term is
    f0 + sum_i p_i f1^i at total degree 0 and s at -1, so a class where s
    and another dial are both non-zero is refused.  A solved map's
    exp(beta . f1) factors are read off its solve's table.  Dials on another
    space or degree are refused (f1 by ``qs_substitute``); the zero map
    returns S itself.
    """
    space, D = S.space, S.max_degree
    result = qs_substitute(S, list(m.f1), m._factors)
    _check_dials(space, D, [m.f0, m.string])
    if m.is_zero:
        return S
    unit = space.unit()
    dials = [(m.f0, unit, 0), (m.string, unit, -1)]
    dials += [(f, space.hyperplane(i), 0) for i, f in enumerate(m.f1)]
    sums = {}
    for f, c, delta in dials:
        for beta, x in f.terms.items():
            _add_term(sums, beta, HbarLaurent._of(space, delta, c.scale(x)))
    exponent = {beta: _settle_class(space, at) for beta, at in sums.items()}
    return qs_exp_full(result._new(exponent)) * result


def solve_mirror_map(S: QSeries | _Layers, start: CohClass) -> MirrorMap:
    """Find the change of variables normalizing S, in closed form.

    Normalized means matching 1 in the hbar^0 and hbar^-1 layers, so this is
    ``_solve_relative_map`` against the trivial target g = 1, s = 0, div = 0,
    handed over as a normal form: f1 + (div/g)(q e^{f1}) = 0,
    f0 = -log g(q e^{f1}) and string = -(s/g)(q e^{f1}).  A start other than 1
    gives the zero map or a refusal (see ``normal_form``).  The map keeps the
    normal form of S, which the count read reuses (``_paired_layers``).
    """
    zero = ScalarQSeries.zero(S.space, S.max_degree)
    one = zero._like([_ONE] + zero.levels[1:])
    trivial = NormalForm(one, zero, (zero,) * S.space.nfactors)
    m = _solve_relative_map(a := normal_form(S, start), trivial)[0]
    object.__setattr__(m, "_source", a)
    return m


def _solve_relative_map(a: NormalForm, b: NormalForm) -> tuple[MirrorMap, ScalarQSeries]:
    """The map m taking a series of normal form a to one that matches
    normal form b in the hbar^0 and hbar^-1 layers, and e^{f0}, in closed
    form.

    With h = div_a/g_a and k = div_b/g_b, the divisor layer asks for
    f1 + h(q e^{f1}) = k, which one shifted inversion solves; the others give
    e^{f0} = g_b (1/g_a)(q e^{f1}) and string = s_b/g_b - (s_a/g_a)(q e^{f1}),
    each level of the string dial summed into one accumulator.
    The dials vanishing at q = 0 make the solution unique.  The inversion
    builds each exp(beta . f1) once; both substitutions here and
    ``apply_transform`` read them off its table, which the map keeps.
    """
    (inv_ga, (_, s_a, *h)), (inv_gb, (_, s_b, *k)) = a._over_g, b._over_g
    f1, factors = _invert_with_factors(h, k)
    ratio = b.g * compose_substitute(inv_ga, f1, factors)
    terms = [(1, s_b.levels, None), (-1, s_a.levels, _factor_table(s_a, f1, factors))]
    s_b._check(s_a)
    string = s_b._like(_combine(s_b.space.nfactors, terms, [1] * len(s_b.levels)))
    m = MirrorMap(f0=qs_log(ratio), f1=tuple(f1), string=string)
    object.__setattr__(m, "_factors", factors)
    return m, ratio


def _check_normalized(S: QSeries | _Layers, m: MirrorMap) -> None:
    """Refuse a map under which S (or its ``_Layers``) is not normalized,
    naming the first curve class beta != 0, in graded order, with an hbar^0
    or hbar^-1 layer: S's own under the zero map, else e^{f0} g~ - 1 and
    e^{f0} (s~ + string g~ + sum_i p_i (div_i~ + f1^i g~)), ~ at q e^{f1},
    which vanish with f0 + (log g)~, string + (s/g)~ and each f1^i + (div_i/g)~.
    Each level of such a row is one accumulator, seeded with the dial's level
    and the substitution added into it (``levels._combine``)."""
    if m.is_zero:
        terms, degrees = _Layers.of(S).terms.items(), [sum(e) for e in S.space.basis]
        bad = [b for b, (delta, x, _) in terms if any(c and d - delta in (0, 1) for d, c in zip(degrees, x))]
    else:
        n, bad = S.space.nfactors, []
        for f, x in zip((m.f0, m.string, *m.f1), m._source._over_g[1]):
            terms = [(1, f.levels, None), (1, x.levels, _factor_table(x, m.f1, m._factors))]
            f._check(x)
            bad += [b for b, _, _ in _nonzero(n, _combine(n, terms, [1] * len(x.levels)))]
    if bad:
        raise StructureViolation("transformed series is not normalized", beta=list(min(bad, key=_graded)))


def _paired_layers(S: QSeries | _Layers, m: MirrorMap, rows: list) -> list[ScalarQSeries]:
    """The hbar^-2 layer of the transform of S (or of its ``_Layers``) by m,
    (S_-2/g - 1/2 (S_-1/g)^2)~, paired by each row (w, den) of integer weights
    on the monomial basis, P(c) = sum_k w_k c_k / den, and read before
    q -> q e^{f1}: as Y = P(S_-2)/g - 1/2 sum_{a,b} c_a c_b P(p_a p_b), with
    p_0 = 1, c_0 = s/g and c_i = div_i/g, or as P(S_-2) under the zero map.
    Each level of 2 den Y = 2 y (1/g) - sum_{a<=b} w_ab (2 - [a = b]) c_a c_b,
    y = den P(S_-2) and w_ab = den P(p_a p_b) integers, is one accumulator
    settled once over 2 den (``levels._combine``), with no series between.
    The map is checked first (``_check_normalized``)."""
    S = _Layers.of(S)
    _check_normalized(S, m)
    space, D, n = S.space, S.max_degree, S.space.nfactors
    units = [space.basis[i] for i in [0] + _hyperplane_slots(space)]
    if not m.is_zero:
        inv_g, (_, *c) = m._source._over_g
        for x in (inv_g, *c):
            _check_layout(ScalarQSeries, space, D, x)
        pairs = [(a, b, tuple(map(add, units[a], units[b]))) for a in range(n + 1) for b in range(a, n + 1)]
    out = []
    for row, den in rows:
        weights = [(k, w, sum(e)) for k, (w, e) in enumerate(zip(row, space.basis)) if w]
        entries = [
            (b, sum(w * num[k] for k, w, e in weights if e == delta + 2), d)
            for b, (delta, num, d) in S.terms.items()
        ]
        if m.is_zero:
            y = _levels_of(n, D, [(b, x, den * d) for b, x, d in entries])
        else:
            weight_of = dict(zip(space.basis, row))
            terms = [(2, _levels_of(n, D, entries), inv_g.levels)]
            terms += [(-w * (2 - (a == b)), c[a].levels, c[b].levels)
                      for a, b, e in pairs if (w := weight_of.get(e))]
            y = _combine(n, terms, [2 * den] * (D + 1))
        out.append(ScalarQSeries._of(space, D, y))
    return out


# -- descendant generating value ----------------------------------------------
#
# Both routes read x and y without their q = 0 terms and use that the Euler
# operator theta (the degree-n coefficients times n) is a derivation.


def _positive_parts(x: ScalarQSeries, y: ScalarQSeries):
    """x and y without their q = 0 terms, refusing more than one factor."""
    x._check(y)
    if x.space.nfactors != 1:
        raise ValueError("decomposition combinatorics needs a single-factor space")
    return (f._like([None] + f.levels[1:]) for f in (x, y))


def _theta(f: ScalarQSeries) -> ScalarQSeries:
    """The Euler operator: the degree-n coefficients of f times n."""
    return f._like([lv and _scaled([lv], n, 1)[0] for n, lv in enumerate(f.levels)])


def z_from_log(x: ScalarQSeries, y: ScalarQSeries) -> ScalarQSeries:
    """Oracle route: build the generating product Q and take its log.

    Q = exp(A) 1 = sum_s A^s(1) / s! for the operator A = y + x theta; the
    terms vanish past s = D.  The result is the coefficient series of log Q.
    """
    x, y = _positive_parts(x, y)
    Q = term = x._like([_ONE] + [None] * x.max_degree)
    for s in range(1, x.max_degree + 1):
        term = (y * term + x * _theta(term)).scale(Fraction(1, s))
        Q = Q + term
    return qs_log(Q)


def z_closed_form(x: ScalarQSeries, y: ScalarQSeries) -> ScalarQSeries:
    """Direct evaluation: the y-linear closed form of the log coefficients,
    z = sum_{s>=1} (x theta)^(s-1)(y) / s!."""
    x, y = _positive_parts(x, y)
    z = term = y
    for s in range(2, x.max_degree + 1):
        term = (x * _theta(term)).scale(Fraction(1, s))
        z = z + term
    return z
