"""Truncated formal series with exact rational coefficients.

Two layers sit on top of the cohomology ring:

* ``HbarLaurent``: a homogeneous Laurent polynomial in the formal symbol
  hbar with cohomology-class coefficients, stored as one total degree and
  one class in x = p/hbar, so it multiplies with one class product.
* A power series in the curve-class variables q_1..q_N, truncated at a total
  degree D, of two coefficient kinds sharing one layout and its checks.
  ``QSeries`` holds ``HbarLaurent`` values (the twisted series and its
  transforms) by curve class; its product, exp and substitution add
  ``HbarLaurent`` terms into one class sum per curve class and total degree
  (``_add_term``), then settle each curve class (``_settle_class``).
  ``ScalarQSeries`` holds rationals (the dials f0 and f1 of
  the change of variables) per degree level, as integer numerators over one
  denominator, so its products, exp and log (by the one-pass Euler-operator
  recurrence) and the substitution q -> q e^{f1} run on integers with one
  gcd per level; every value it hands out is a ``Fraction``.

The exponential prefactor common to generating-series conventions is never
materialized; series are always stored in reduced form, coefficient by curve
class.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Integral
from operator import add, sub
from typing import NamedTuple

from .errors import NonInvertible, SpaceMismatch, StructureViolation, TruncationMismatch
from .levels import (
    _ONE,
    _class_index,
    _classes_of_degree,
    _combine,
    _exp,
    _invert,
    _levels_of,
    _log,
    _nonzero,
    _scaled,
)
from .ring import (
    AmbientSpace,
    CohClass,
    ONE,
    ZERO,
    _exact,
    _integer,
    coh_to_obj,
    format_fraction,
)


def _component(c: CohClass, j: int) -> CohClass:
    """The degree-j component of a class."""
    num = [x if sum(e) == j else 0 for e, x in zip(c.space.basis, c.num)]
    return CohClass(c.space, num, c.den)


def _degrees(c: CohClass) -> set:
    """The degrees of the non-zero monomials of a class."""
    return {sum(e) for e, x in zip(c.space.basis, c.num) if x}


class HbarLaurent:
    """Homogeneous Laurent polynomial in hbar with ``CohClass`` coefficients.

    Stored as one pair: the total degree ``delta`` and a class ``cls``, the
    element being hbar^delta cls(p/hbar), so a monomial p^m of cls sits at
    hbar^(delta - |m|).  Each coefficient of the twisted series and of its
    transforms is of this kind, and a product is one class product.  Zero
    is the zero class, at delta 0.  The constructor, ``terms``,
    ``coefficient`` and ``exponents`` speak hbar powers.  Terms that mix
    total degrees, in the constructor or in a sum, raise StructureViolation
    with ``degrees``.
    """

    __slots__ = ("space", "delta", "cls")

    def __init__(self, space: AmbientSpace, terms: dict):
        if any(cls.space != space for cls in terms.values()):
            raise SpaceMismatch("coefficient class on a different ambient space")
        degrees = sorted({_integer(k) + j for k, cls in terms.items() for j in _degrees(cls)})
        if len(degrees) > 1:
            raise StructureViolation("hbar powers of mixed total degree", degrees=degrees)
        self.space = space
        self.delta = degrees[0] if degrees else 0
        classes = list(terms.values()) or [space.zero()]
        self.cls = sum(classes[1:], classes[0])

    @classmethod
    def _of(cls, space: AmbientSpace, delta: int, c: CohClass) -> "HbarLaurent":
        """The element hbar^delta c(p/hbar)."""
        self = object.__new__(cls)
        self.space, self.cls = space, c
        self.delta = 0 if c.is_zero else delta
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def unit(cls, space: AmbientSpace) -> "HbarLaurent":
        return cls._of(space, 0, space.unit())

    @classmethod
    def zero(cls, space: AmbientSpace) -> "HbarLaurent":
        return cls._of(space, 0, space.zero())

    @classmethod
    def linear(cls, space: AmbientSpace, divisor: CohClass, k) -> "HbarLaurent":
        """The degree-one element ``divisor + k*hbar``, built as one class."""
        if divisor.space != space:
            raise SpaceMismatch("coefficient class on a different ambient space")
        k = k if type(k) in (int, Fraction) else _exact(k)
        degrees = _degrees(divisor) | ({1} if k else set())
        if len(degrees) > 1:
            raise StructureViolation("hbar powers of mixed total degree", degrees=sorted(degrees))
        den = lcm(divisor.den, k.denominator)
        num = [x * (den // divisor.den) for x in divisor.num]
        num[0] += k.numerator * (den // k.denominator)
        return cls._of(space, min(degrees, default=0), CohClass(space, num, den))

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The non-zero hbar-power coefficients, {power: class}."""
        return {self.delta - j: _component(self.cls, j) for j in _degrees(self.cls)}

    def coefficient(self, k: int) -> CohClass:
        return _component(self.cls, self.delta - k)

    @property
    def is_zero(self) -> bool:
        return self.cls.is_zero

    def exponents(self):
        return sorted(self.delta - j for j in _degrees(self.cls))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "HbarLaurent"):
        if self.space != other.space:
            raise SpaceMismatch("Laurent operands on different ambient spaces")

    def __add__(self, other: "HbarLaurent") -> "HbarLaurent":
        self._check(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.delta != other.delta:
            raise StructureViolation(
                "sum of hbar-Laurent elements of different total degrees",
                degrees=[self.delta, other.delta],
            )
        return HbarLaurent._of(self.space, self.delta, self.cls + other.cls)

    def __sub__(self, other: "HbarLaurent") -> "HbarLaurent":
        return self + other.scale(-1)

    def scale(self, k) -> "HbarLaurent":
        return HbarLaurent._of(self.space, self.delta, self.cls.scale(k))

    def scale_class(self, c: CohClass) -> "HbarLaurent":
        return self * HbarLaurent(self.space, {0: c})

    def times_hbar(self, shift: int) -> "HbarLaurent":
        return HbarLaurent._of(self.space, self.delta + shift, self.cls)

    def __mul__(self, other: "HbarLaurent") -> "HbarLaurent":
        self._check(other)
        return HbarLaurent._of(self.space, self.delta + other.delta, self.cls * other.cls)

    def invert(self) -> "HbarLaurent":
        """Exact inverse over the nilpotent coefficient ring, at -delta.

        Writing cls = c (1 - w) with c its scalar part, w is nilpotent, so
        cls^-1 = c^-1 sum_i w^i stops at w^(sum r_i).  Without a scalar
        part there is no inverse: NonInvertible with ``exponents``.
        """
        c = self.cls.scalar_part
        if not c:
            raise NonInvertible("every hbar coefficient is nilpotent", exponents=self.exponents())
        unit = self.space.unit()
        w = unit - self.cls.scale(ONE / c)
        total = power = unit
        for _ in range(self.space.dim):
            power = power * w
            if power.is_zero:
                break
            total = total + power
        return HbarLaurent._of(self.space, -self.delta, total.scale(ONE / c))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HbarLaurent)
            and self.space == other.space
            and self.delta == other.delta
            and self.cls == other.cls
        )

    def __hash__(self):
        return hash((self.space, self.delta, self.cls))

    def __repr__(self):
        if self.is_zero:
            return "HbarLaurent(0)"
        bits = [f"hbar^{k}:{cls!r}" for k, cls in sorted(self.terms.items())]
        return "HbarLaurent(" + ", ".join(bits) + ")"


def hl_mul(a: HbarLaurent, b: HbarLaurent) -> HbarLaurent:
    return a * b


def hl_invert(a: HbarLaurent) -> HbarLaurent:
    return a.invert()


def _check_layout(kind: type, space: AmbientSpace, max_degree: int, other):
    """Refuse ``other`` unless it is a ``kind`` series on this space and degree."""
    if type(other) is not kind:
        raise SpaceMismatch("class-valued and scalar series do not mix")
    if space != other.space:
        raise SpaceMismatch("series on different ambient spaces")
    if max_degree != other.max_degree:
        raise TruncationMismatch(f"mixed truncation degrees {max_degree} and {other.max_degree}")


def _degree(beta) -> int:
    return sum(beta)


def _graded(beta):
    return (_degree(beta), beta)


class _TruncatedSeries:
    """Power series in the curve-class variables, truncated at total degree D.

    The layout both coefficient kinds share: the space, the degree D, the
    checks that refuse mixing them, and the curve classes.  A subclass
    stores its terms through ``_fill``, which takes checked curve classes,
    and defines the arithmetic on its own storage.
    """

    __slots__ = ("space", "max_degree")

    def __init__(self, space: AmbientSpace, max_degree: int, terms: dict | None = None):
        if not isinstance(max_degree, Integral) or max_degree < 0:
            raise ValueError(f"truncation degree {max_degree!r} is not a non-negative integer")
        checked = {space.check_curve_class(b): c for b, c in (terms or {}).items()}
        self._fill(space, int(max_degree), checked)

    def _check_degree(self, beta):
        if _degree(beta) > self.max_degree:
            raise ValueError(f"term {beta} beyond truncation degree {self.max_degree}")

    def _held(self, beta) -> tuple:
        """beta as a key for the public readers and writers of one term:
        checked by ``AmbientSpace.check_curve_class`` and refused beyond the
        truncation degree.  Engine code reads ``terms`` or ``levels`` at the
        classes of its own enumeration instead."""
        beta = self.space.check_curve_class(beta)
        self._check_degree(beta)
        return beta

    @property
    def zero_beta(self) -> tuple[int, ...]:
        return (0,) * self.space.nfactors

    def curve_classes(self):
        """Every curve class up to the truncation degree, in graded-lex order."""
        return all_curve_classes(self.space, self.max_degree)

    def _check(self, other):
        _check_layout(type(self), self.space, self.max_degree, other)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __repr__(self):
        return f"{type(self).__name__}(D={self.max_degree}, terms={len(self.terms)})"


class QSeries(_TruncatedSeries):
    """Truncated q-series with ``HbarLaurent`` coefficients.

    Terms map curve classes to non-zero coefficients; zeros are pruned on
    construction, so equality compares the stored terms.  Products,
    ``qs_exp_full`` and ``qs_substitute`` sum their terms per curve class
    and total degree, refusing two non-zero degrees at one class (``_settle_class``).
    """

    __slots__ = ("terms",)

    def _fill(self, space: AmbientSpace, max_degree: int, terms: dict):
        self.space, self.max_degree = space, max_degree
        clean = {}
        for beta, hl in terms.items():
            self._check_degree(beta)
            if not isinstance(hl, HbarLaurent):
                raise TypeError(f"coefficient at beta = {list(beta)} is not an HbarLaurent: {hl!r}")
            if hl.space != space:
                raise SpaceMismatch("coefficient on a different ambient space")
            if not hl.is_zero:
                clean[beta] = hl
        self.terms = clean

    def _new(self, terms: dict) -> "QSeries":
        """The series of terms that engine code keyed by checked curve classes."""
        out = object.__new__(QSeries)
        out._fill(self.space, self.max_degree, terms)
        return out

    @classmethod
    def unit(cls, space: AmbientSpace, max_degree: int) -> "QSeries":
        return cls(space, max_degree, {(0,) * space.nfactors: HbarLaurent.unit(space)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def term(self, beta) -> HbarLaurent:
        return self.terms.get(self._held(beta), HbarLaurent.zero(self.space))

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        terms = dict(self.terms)
        for beta, c in other.terms.items():
            terms[beta] = terms[beta] + c if beta in terms else c
        return self._new(terms)

    def scale(self, k) -> "QSeries":
        k = _exact(k)
        return self._new({b: c.scale(k) for b, c in self.terms.items()})

    def __mul__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        sums = {}
        for beta, a in self.terms.items():
            room = self.max_degree - _degree(beta)
            for gamma, b in other.terms.items():
                if _degree(gamma) <= room:
                    _add_term(sums, tuple(map(add, beta, gamma)), a * b)
        return self._new({beta: _settle_class(self.space, at) for beta, at in sums.items()})

    def __eq__(self, other) -> bool:
        return (
            type(other) is QSeries
            and self.space == other.space
            and self.max_degree == other.max_degree
            and self.terms == other.terms
        )


def _add_term(sums: dict, beta, hl: HbarLaurent):
    """Add hl into sums, {curve class: {total degree: class}}, at beta and
    its total degree."""
    at = sums.setdefault(beta, {})
    at[hl.delta] = at[hl.delta] + hl.cls if hl.delta in at else hl.cls


def _settle_class(space: AmbientSpace, at: dict) -> HbarLaurent:
    """The sum of one curve class, {total degree: class}.  Non-zero classes
    at two total degrees raise StructureViolation with the degrees sorted;
    a degree whose terms cancel is no mix."""
    live = {delta: c for delta, c in at.items() if not c.is_zero}
    if len(live) > 1:
        raise StructureViolation(
            "sum of hbar-Laurent elements of different total degrees", degrees=sorted(live)
        )
    return HbarLaurent._of(space, *live.popitem()) if live else HbarLaurent.zero(space)


class _Layers(NamedTuple):
    """A series as its hbar layers are read: beta != 0 -> (delta, numerators,
    den) for hbar^delta c(p/hbar), c on a prefix of the graded basis, the
    terms of ``twist._twist_terms``: all of a ``QSeries`` (``of``, which also
    hands that builder ``j_ambient``), degree <= 2 of I' (``_count_layers``)."""

    space: AmbientSpace
    max_degree: int
    terms: dict

    @classmethod
    def of(cls, S) -> "_Layers":
        if type(S) is cls:
            return S
        terms = {b: (hl.delta, hl.cls.num, hl.cls.den) for b, hl in S.terms.items() if any(b)}
        return cls(S.space, S.max_degree, terms)


class ScalarQSeries(_TruncatedSeries):
    """Truncated q-series with rational coefficients: the transformation dials.

    Stored as ``levels``, one per total degree 0..D, each None or integer
    numerators over one denominator in lowest terms (see ``gwtwist.levels``).
    Every value handed out (``terms``, ``coeff``, ``constant_term``) is a
    ``Fraction``.
    """

    __slots__ = ("levels",)

    def _fill(self, space: AmbientSpace, max_degree: int, terms: dict):
        self.space, self.max_degree = space, max_degree
        entries = []
        for beta, c in terms.items():
            self._check_degree(beta)
            c = c if type(c) is Fraction else _exact(c)
            if c:
                entries.append((beta, c.numerator, c.denominator))
        self.levels = _levels_of(space.nfactors, max_degree, entries)

    @classmethod
    def _of(cls, space: AmbientSpace, max_degree: int, levels: list) -> "ScalarQSeries":
        """The series of levels in the stored form, one per degree 0..D."""
        out = object.__new__(cls)
        out.space, out.max_degree, out.levels = space, max_degree, levels
        return out

    def _like(self, levels: list) -> "ScalarQSeries":
        return ScalarQSeries._of(self.space, self.max_degree, levels)

    @classmethod
    def zero(cls, space: AmbientSpace, max_degree: int) -> "ScalarQSeries":
        return cls(space, max_degree, {})

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The non-zero coefficients, {curve class: Fraction}, in graded-lex order."""
        return {b: Fraction(x, den) for b, x, den in _nonzero(self.space.nfactors, self.levels)}

    @property
    def is_zero(self) -> bool:
        return not any(self.levels)

    def _is_one(self) -> bool:
        return self.levels[0] == _ONE and not any(self.levels[1:])

    @property
    def constant_term(self) -> Fraction:
        lv = self.levels[0]
        return Fraction(lv[0][0], lv[1]) if lv else ZERO

    def coeff(self, beta) -> Fraction:
        beta = self._held(beta)
        n = _degree(beta)
        x = self.levels[n] and self.levels[n][0][_class_index(self.space.nfactors, n)[beta]]
        return Fraction(x, self.levels[n][1]) if x else ZERO

    def set_coeff(self, beta, value) -> "ScalarQSeries":
        terms = self.terms
        terms[self._held(beta)] = value
        return ScalarQSeries(self.space, self.max_degree, terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ScalarQSeries") -> "ScalarQSeries":
        self._check(other)
        if other.is_zero or self.is_zero:
            return other if self.is_zero else self
        terms = [(1, self.levels, None), (1, other.levels, None)]
        return self._like(_combine(self.space.nfactors, terms, [1] * len(self.levels)))

    def scale(self, k) -> "ScalarQSeries":
        if type(k) is not int:
            k = k if type(k) is Fraction else _exact(k)
        return self if k == 1 else self._like(_scaled(self.levels, k.numerator, k.denominator))

    def __mul__(self, other: "ScalarQSeries") -> "ScalarQSeries":
        self._check(other)
        if self.is_zero or other._is_one():
            return self
        if other.is_zero or self._is_one():
            return other
        product = [(1, self.levels, other.levels)]
        return self._like(_combine(self.space.nfactors, product, [1] * len(self.levels)))

    def __eq__(self, other) -> bool:
        return (
            type(other) is ScalarQSeries
            and self.space == other.space
            and self.max_degree == other.max_degree
            and self.levels == other.levels
        )


def all_curve_classes(space: AmbientSpace, max_degree: int):
    """Curve classes with total degree <= max_degree, graded-lex order."""
    n = space.nfactors
    return [beta for d in range(max_degree + 1) for beta in _classes_of_degree(n, d)]


def qs_exp(a: ScalarQSeries) -> ScalarQSeries:
    """exp of a series with zero constant term, in one pass over the levels."""
    if a.levels[0] is not None:
        raise ValueError("qs_exp needs a zero constant term")
    return a._like(_exp(a.space.nfactors, a.levels))


def qs_log(a: ScalarQSeries) -> ScalarQSeries:
    """log of a series with constant term 1, in one pass over the levels."""
    if a.levels[0] != _ONE:
        raise ValueError("qs_log needs constant term exactly 1")
    return a._like(_log(a.space.nfactors, a.levels))


def qs_exp_full(L: QSeries) -> QSeries:
    """exp of a class-valued series whose beta = 0 term vanishes, in one
    pass over the curve classes by the recurrence of ``qs_exp``:
    |beta| E_beta = sum_{0<gamma<=beta} |gamma| L_gamma E_{beta-gamma}."""
    if L.zero_beta in L.terms:
        raise ValueError("qs_exp_full needs a vanishing beta = 0 term")
    theta = [(gamma, hl.scale(_degree(gamma))) for gamma, hl in L.terms.items()]
    out, sums = {L.zero_beta: HbarLaurent.unit(L.space)}, {}
    for beta in L.curve_classes()[1:]:
        for gamma, t in theta:
            # a negative entry is never a key of out
            e = out.get(tuple(map(sub, beta, gamma)))
            if e is not None:
                _add_term(sums, beta, t * e)
        e = _settle_class(L.space, sums.pop(beta, {}))
        if not e.is_zero:
            out[beta] = e.scale(Fraction(1, _degree(beta)))
    return L._new(out)


def _check_dials(space: AmbientSpace, max_degree: int, dials):
    """Refuse dials that are not scalar series on this space and degree with
    zero constant term."""
    for f in dials:
        _check_layout(ScalarQSeries, space, max_degree, f)
        if f.levels[0] is not None:
            raise ValueError("dial series must have zero constant term")


def _check_substitution(space: AmbientSpace, max_degree: int, f1: list[ScalarQSeries]):
    """Refuse substitution data that is not one dial per ambient factor."""
    if len(f1) != space.nfactors:
        raise SpaceMismatch("need one substitution series per ambient factor")
    _check_dials(space, max_degree, f1)


def _factor_table(S, f1: list[ScalarQSeries], factors):
    """The exp(beta . f1) table that substituting f1 into S reads, or None
    when every dial is zero and S(q e^{f1}) is S.

    ``factors`` is the pair ``_invert_with_factors`` returns, refused unless
    built for these dials; without one, the table is built for f1 by that
    same routine.
    """
    _check_substitution(S.space, S.max_degree, f1)
    if factors is not None and factors[0] != tuple(f1):
        raise ValueError("exp(beta . f1) factor table was built for other dials")
    if all(f.is_zero for f in f1):
        return None
    if factors is None:
        factors = _invert_with_factors([f.scale(0) for f in f1], f1)[1]
    return factors[1]


def qs_substitute(S: QSeries, f1: list[ScalarQSeries], _factors=None) -> QSeries:
    """Apply q_i -> q_i * exp(f1^i(q)) to a class-valued series: each q^beta
    term S_beta adds S_beta E_beta[gamma] at beta + gamma, for each term
    E_beta[gamma] of exp(beta . f1) on the factor table."""
    table = _factor_table(S, f1, _factors)
    if table is None:
        return S
    sums = {}
    for beta, hl in S.terms.items():
        for gamma, x, den in _nonzero(S.space.nfactors, table[beta]):
            _add_term(sums, tuple(map(add, beta, gamma)), hl.scale(Fraction(x, den)))
    return S._new({beta: _settle_class(S.space, at) for beta, at in sums.items()})


def compose_substitute(f: ScalarQSeries, g1: list[ScalarQSeries], _factors=None) -> ScalarQSeries:
    """Evaluate f(q * exp(g1)) as a truncated scalar series."""
    table = _factor_table(f, g1, _factors)
    if table is None or f.is_zero:
        return f
    return f._like(_combine(f.space.nfactors, [(1, f.levels, table)], [1] * len(f.levels)))


def invert_substitution(f1: list[ScalarQSeries]) -> list[ScalarQSeries]:
    """Inverse of q -> q*exp(f1): g with g + f(q e^g) = 0, in one pass."""
    return _invert_with_factors(f1, [f.scale(0) for f in f1])[0]


def _invert_with_factors(h: list[ScalarQSeries], k: list[ScalarQSeries]):
    """g with g + h(q e^g) = k, and the factor table (g, {beta: E_beta}).

    One pass over the degrees (``levels._invert``): round n grows each
    E_beta = exp(beta . g) by one level and reads g_n off the degree-n terms
    of h(q e^g).  The table holds every class beta up to D, E_beta as its
    levels up to D - |beta|.  k = 0 inverts q -> q e^h; h = 0 gives g = k
    and the table a substitution reads.  In general g = k + G(q e^k), G the
    inverse of q -> q e^h: with u = q e^k, G(u) + h(u e^{G(u)}) = 0.
    """
    space, D = h[0].space, h[0].max_degree
    _check_substitution(space, D, h)
    _check_substitution(space, D, k)
    levels = [[f.levels for f in fs] for fs in (h, k)]
    g, table = _invert(space.nfactors, all_curve_classes(space, D), *levels)
    dials = tuple(h[0]._like(gi) for gi in g)
    return list(dials), (dials, table)


# -- serialization -----------------------------------------------------------


def hl_to_obj(hl: HbarLaurent) -> list:
    return [{"pow": k, "class": coh_to_obj(c)} for k, c in sorted(hl.terms.items())]


def qseries_to_obj(S: QSeries) -> dict:
    """Terms in graded-lex order; the beta = 0 entry is written even when zero."""
    betas = sorted(S.terms.keys() | {S.zero_beta}, key=_graded)
    zero = HbarLaurent.zero(S.space)
    return {
        "D": S.max_degree,
        "terms": [{"beta": list(b), "hbar": hl_to_obj(S.terms.get(b, zero))} for b in betas],
    }


def scalar_to_obj(f: ScalarQSeries) -> list:
    """Terms in graded-lex order, the order ``terms`` lists them in."""
    return [{"beta": list(beta), "coeff": format_fraction(c)} for beta, c in f.terms.items()]
