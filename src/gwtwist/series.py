"""Truncated formal series with exact rational coefficients.

Two layers sit on top of the cohomology ring:

* ``HbarLaurent``: a finite Laurent polynomial in the formal symbol hbar
  whose coefficients are cohomology classes.
* A power series in the curve-class variables q_1..q_N, truncated at a total
  degree D.  One implementation serves two coefficient kinds: ``QSeries``
  holds ``HbarLaurent`` values (the twisted series and its transforms) and
  ``ScalarQSeries`` holds rationals (the dials f0 and f1 of the change of
  variables).  The power-sum exp and the substitution q -> q e^{f1} are
  likewise written once for both kinds.

The exponential prefactor common to generating-series conventions is never
materialized; series are always stored in reduced form, coefficient by curve
class.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import mul

from .errors import NonInvertible, SpaceMismatch, TruncationMismatch
from .ring import (
    AmbientSpace,
    CohClass,
    ONE,
    ZERO,
    coh_from_obj,
    coh_to_obj,
    format_fraction,
)


class HbarLaurent:
    """Finite Laurent polynomial in hbar with ``CohClass`` coefficients.

    Zero coefficients are pruned on construction, so equality compares the
    stored terms.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: AmbientSpace, terms: dict):
        self.space = space
        pruned = {}
        for k, cls in terms.items():
            if cls.space != space:
                raise SpaceMismatch("coefficient class on a different ambient space")
            if not cls.is_zero:
                pruned[int(k)] = cls
        self.terms = pruned

    # -- constructors --------------------------------------------------------

    @classmethod
    def unit(cls, space: AmbientSpace) -> "HbarLaurent":
        return cls(space, {0: space.unit()})

    @classmethod
    def zero(cls, space: AmbientSpace) -> "HbarLaurent":
        return cls(space, {})

    @classmethod
    def linear(cls, space: AmbientSpace, divisor: CohClass, k) -> "HbarLaurent":
        """The degree-one element ``divisor + k*hbar``."""
        return cls(space, {0: divisor, 1: space.unit().scale(k)})

    # -- inspection ----------------------------------------------------------

    def coefficient(self, k: int) -> CohClass:
        return self.terms.get(k, self.space.zero())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def exponents(self):
        return sorted(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "HbarLaurent"):
        if self.space != other.space:
            raise SpaceMismatch("Laurent operands on different ambient spaces")

    def __add__(self, other: "HbarLaurent") -> "HbarLaurent":
        self._check(other)
        terms = dict(self.terms)
        for k, cls in other.terms.items():
            terms[k] = terms.get(k, self.space.zero()) + cls
        return HbarLaurent(self.space, terms)

    def __sub__(self, other: "HbarLaurent") -> "HbarLaurent":
        return self + other.scale(-1)

    def scale(self, k) -> "HbarLaurent":
        k = Fraction(k)
        if k == 0:
            return HbarLaurent(self.space, {})
        return HbarLaurent(self.space, {e: cls.scale(k) for e, cls in self.terms.items()})

    def scale_class(self, c: CohClass) -> "HbarLaurent":
        return HbarLaurent(self.space, {e: cls * c for e, cls in self.terms.items()})

    def times_hbar(self, shift: int) -> "HbarLaurent":
        return HbarLaurent(self.space, {e + shift: cls for e, cls in self.terms.items()})

    def __mul__(self, other: "HbarLaurent") -> "HbarLaurent":
        self._check(other)
        out: dict[int, CohClass] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                prod = ca * cb
                if prod.is_zero:
                    continue
                k = ka + kb
                out[k] = out.get(k, self.space.zero()) + prod
        return HbarLaurent(self.space, out)

    def invert(self) -> "HbarLaurent":
        """Exact inverse over the nilpotent coefficient ring.

        The scalar part must sit at a single hbar level m, as it does for the
        products (p_i + d hbar)^(r_i+1) the pipeline inverts.  Writing the
        element as c hbar^m (1 + u), every coefficient of u is nilpotent, so
        the geometric series in u stops at u^(sum r_i).  Scalar parts
        at several levels would give an infinite series: NonInvertible with
        ``levels``.
        """
        scalar_levels = {
            k: cls.scalar_part for k, cls in self.terms.items() if cls.scalar_part != 0
        }
        if not scalar_levels:
            raise NonInvertible(
                "every hbar coefficient is nilpotent", exponents=self.exponents()
            )
        if len(scalar_levels) > 1:
            raise NonInvertible(
                "scalar parts at several hbar levels have no finite inverse",
                levels=sorted(scalar_levels),
            )
        m = min(scalar_levels)
        c = scalar_levels[m]
        space = self.space
        # u := a / (c hbar^m) - 1 has nilpotent coefficients only
        u_terms = {k - m: cls.scale(ONE / c) for k, cls in self.terms.items()}
        u_terms[0] = u_terms.get(0, space.zero()) - space.unit()
        u = HbarLaurent(space, u_terms)
        total = HbarLaurent.zero(space)
        power = HbarLaurent.unit(space)
        sign = ONE
        for _ in range(sum(space.factors) + 1):
            total = total + power.scale(sign / c).times_hbar(-m)
            if power.is_zero:
                break
            power = power * u
            sign = -sign
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HbarLaurent)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "HbarLaurent(0)"
        bits = [f"hbar^{k}:{cls!r}" for k, cls in sorted(self.terms.items())]
        return "HbarLaurent(" + ", ".join(bits) + ")"


def hl_mul(a: HbarLaurent, b: HbarLaurent) -> HbarLaurent:
    return a * b


def hl_invert(a: HbarLaurent) -> HbarLaurent:
    return a.invert()


def _degree(beta) -> int:
    return sum(beta)


def _graded(beta):
    return (_degree(beta), beta)


class _TruncatedSeries:
    """Power series in the curve-class variables, truncated at total degree D.

    The one implementation behind both coefficient kinds.  Terms map curve
    classes to non-zero coefficients; zeros are pruned on construction, so
    equality compares the stored terms.  A subclass fixes the kind through
    ``_coerce`` (the coefficient as stored, or None when it is zero) and
    ``_scale_coeff`` (a coefficient times a rational).
    """

    __slots__ = ("space", "max_degree", "terms")

    def __init__(self, space: AmbientSpace, max_degree: int, terms: dict | None = None):
        if max_degree < 0:
            raise ValueError("truncation degree must be non-negative")
        self.space = space
        self.max_degree = int(max_degree)
        coerce = self._coerce
        clean = {}
        for beta, c in (terms or {}).items():
            beta = space.check_curve_class(beta)
            if _degree(beta) > self.max_degree:
                raise ValueError(f"term {beta} beyond truncation degree {max_degree}")
            c = coerce(c)
            if c is not None:
                clean[beta] = c
        self.terms = clean

    def _new(self, terms: dict):
        return type(self)(self.space, self.max_degree, terms)

    @property
    def zero_beta(self) -> tuple[int, ...]:
        return (0,) * self.space.nfactors

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def curve_classes(self):
        """Every curve class up to the truncation degree, in graded-lex order."""
        return all_curve_classes(self.space, self.max_degree)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if type(other) is not type(self):
            raise SpaceMismatch("class-valued and scalar series do not mix")
        if self.space != other.space:
            raise SpaceMismatch("series on different ambient spaces")
        if self.max_degree != other.max_degree:
            raise TruncationMismatch(
                f"mixed truncation degrees {self.max_degree} and {other.max_degree}"
            )

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for beta, c in other.terms.items():
            prev = terms.get(beta)
            terms[beta] = c if prev is None else prev + c
        return self._new(terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        k = Fraction(k)
        return self._new({b: self._scale_coeff(c, k) for b, c in self.terms.items()})

    def _product(self, other):
        self._check(other)
        D = self.max_degree
        out: dict = {}
        for ba, ca in self.terms.items():
            da = _degree(ba)
            for bb, cb in other.terms.items():
                if da + _degree(bb) > D:
                    continue
                beta = tuple(x + y for x, y in zip(ba, bb))
                prod = ca * cb
                prev = out.get(beta)
                out[beta] = prod if prev is None else prev + prod
        return self._new(out)

    def truncate(self, max_degree: int):
        """The terms up to ``max_degree``, which may not exceed this series' own."""
        if max_degree > self.max_degree:
            raise TruncationMismatch(
                "series truncated below the requested degree",
                have=self.max_degree,
                want=max_degree,
            )
        terms = {b: c for b, c in self.terms.items() if _degree(b) <= max_degree}
        return type(self)(self.space, max_degree, terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.space == other.space
            and self.max_degree == other.max_degree
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"{type(self).__name__}(D={self.max_degree}, terms={len(self.terms)})"


class QSeries(_TruncatedSeries):
    """Truncated q-series with ``HbarLaurent`` coefficients."""

    __slots__ = ()
    _scale_coeff = staticmethod(HbarLaurent.scale)
    # each kind keeps ``__mul__`` in its own class namespace, where the
    # benchmark's tracer looks it up by name
    __mul__ = _TruncatedSeries._product

    def _coerce(self, hl: HbarLaurent):
        if hl.space != self.space:
            raise SpaceMismatch("coefficient on a different ambient space")
        return None if hl.is_zero else hl

    @classmethod
    def unit(cls, space: AmbientSpace, max_degree: int) -> "QSeries":
        return cls(space, max_degree, {(0,) * space.nfactors: HbarLaurent.unit(space)})

    def term(self, beta) -> HbarLaurent:
        return self.terms.get(tuple(beta), HbarLaurent.zero(self.space))


class ScalarQSeries(_TruncatedSeries):
    """Truncated q-series with rational coefficients: the transformation dials."""

    __slots__ = ()
    _scale_coeff = staticmethod(mul)
    __mul__ = _TruncatedSeries._product

    def _coerce(self, c):
        c = Fraction(c)
        return c if c else None

    @classmethod
    def zero(cls, space: AmbientSpace, max_degree: int) -> "ScalarQSeries":
        return cls(space, max_degree, {})

    @classmethod
    def one(cls, space: AmbientSpace, max_degree: int) -> "ScalarQSeries":
        return cls(space, max_degree, {(0,) * space.nfactors: ONE})

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get(self.zero_beta, ZERO)

    def coeff(self, beta) -> Fraction:
        return self.terms.get(tuple(beta), ZERO)

    def set_coeff(self, beta, value) -> "ScalarQSeries":
        terms = dict(self.terms)
        terms[tuple(beta)] = value
        return self._new(terms)


def all_curve_classes(space: AmbientSpace, max_degree: int):
    """Curve classes with total degree <= max_degree, graded-lex order."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == space.nfactors:
            out.append(tuple(prefix))
            return
        for d in range(remaining + 1):
            rec(prefix + [d], remaining - d)

    rec([], max_degree)
    return sorted(out, key=_graded)


def _power_sum(x, one, start, coeff):
    """start + sum_{k >= 1} coeff(k) x^k for x without a q^0 term; x^k
    vanishes past the truncation degree, so the sum is finite."""
    out = start
    power = one
    for k in range(1, x.max_degree + 1):
        power = power * x
        if power.is_zero:
            break
        out = out + power.scale(coeff(k))
    return out


def _exp_coeff(k: int) -> Fraction:
    return Fraction(1, factorial(k))


def qs_exp(a: ScalarQSeries) -> ScalarQSeries:
    """exp of a series with zero constant term, as the finite truncated sum."""
    if a.constant_term != 0:
        raise ValueError("qs_exp needs a zero constant term")
    one = ScalarQSeries.one(a.space, a.max_degree)
    return _power_sum(a, one, one, _exp_coeff)


def qs_log(a: ScalarQSeries) -> ScalarQSeries:
    """log of a series with constant term 1."""
    if a.constant_term != 1:
        raise ValueError("qs_log needs constant term exactly 1")
    one = ScalarQSeries.one(a.space, a.max_degree)
    zero = ScalarQSeries.zero(a.space, a.max_degree)
    return _power_sum(a - one, one, zero, lambda k: Fraction((-1) ** (k + 1), k))


def qs_exp_full(L: QSeries) -> QSeries:
    """exp of a class-valued series whose beta = 0 term vanishes."""
    if L.zero_beta in L.terms:
        raise ValueError("qs_exp_full needs a vanishing beta = 0 term")
    one = QSeries.unit(L.space, L.max_degree)
    return _power_sum(L, one, one, _exp_coeff)


def _pairing_factors(f1: list[ScalarQSeries], space, max_degree):
    """Return beta -> exp(sum_i beta_i f1^i), the factor picked up by q^beta.

    The factor is the product of powers E_i^{beta_i} with E_i = exp(f1^i);
    each E_i is computed once and its powers are cached, so the cost per
    curve class is at most one series product per ambient factor.
    """
    one = ScalarQSeries.one(space, max_degree)
    exps = [qs_exp(f) for f in f1]
    powers = [[one] for _ in f1]

    def factor(beta) -> ScalarQSeries:
        out = None
        for b, e, pw in zip(beta, exps, powers):
            if not b:
                continue
            while len(pw) <= b:
                pw.append(pw[-1] * e)
            out = pw[b] if out is None else out * pw[b]
        return one if out is None else out

    return factor


def _substitute(S, f1: list[ScalarQSeries]):
    """S(q e^{f1}) for a series of either kind, truncated at its degree D.

    Each q^beta term is multiplied by exp(sum_i beta_i f1^i), so the
    beta = 0 term is never modified.  The substitution data must be one
    scalar series per ambient factor, on the same space and degree as S,
    each with zero constant term.
    """
    space, D = S.space, S.max_degree
    if len(f1) != space.nfactors:
        raise SpaceMismatch("need one substitution series per ambient factor")
    layout = ScalarQSeries.zero(space, D)
    for f in f1:
        layout._check(f)
        if f.constant_term != 0:
            raise ValueError("substitution series must have zero constant term")
    pairing = _pairing_factors(f1, space, D)
    out: dict = {}
    for beta, c in S.terms.items():
        for gamma, e in pairing(beta).terms.items():
            total = tuple(x + y for x, y in zip(beta, gamma))
            if _degree(total) > D:
                continue
            contrib = S._scale_coeff(c, e)
            prev = out.get(total)
            out[total] = contrib if prev is None else prev + contrib
    return S._new(out)


def qs_substitute(S: QSeries, f1: list[ScalarQSeries]) -> QSeries:
    """Apply q_i -> q_i * exp(f1^i(q)) to a class-valued series."""
    return _substitute(S, f1)


def compose_substitute(f: ScalarQSeries, g1: list[ScalarQSeries]) -> ScalarQSeries:
    """Evaluate f(q * exp(g1)) as a truncated scalar series."""
    return _substitute(f, g1)


def invert_substitution(f1: list[ScalarQSeries]) -> list[ScalarQSeries]:
    """Order-by-order inverse of q -> q*exp(f1): g with g + f(q e^g) = 0."""
    if not f1:
        return []
    space, D = f1[0].space, f1[0].max_degree
    g = [ScalarQSeries.zero(space, D) for _ in f1]
    for degree in range(1, D + 1):
        comps = [compose_substitute(f, g) for f in f1]
        for i, comp in enumerate(comps):
            terms = dict(g[i].terms)
            for beta, c in comp.terms.items():
                if _degree(beta) == degree and c != 0:
                    terms[beta] = -c
            g[i] = ScalarQSeries(space, D, terms)
    return g


def promote(space: AmbientSpace, f: ScalarQSeries) -> QSeries:
    """View a scalar series as a class-valued one (unit class, hbar^0)."""
    terms = {
        beta: HbarLaurent(space, {0: space.unit().scale(c)})
        for beta, c in f.terms.items()
    }
    return QSeries(space, f.max_degree, terms)


# -- serialization -----------------------------------------------------------


def hl_to_obj(hl: HbarLaurent) -> list:
    return [
        {"pow": k, "class": coh_to_obj(hl.terms[k])}
        for k in sorted(hl.terms)
    ]


def hl_from_obj(space: AmbientSpace, obj) -> HbarLaurent:
    terms = {int(e["pow"]): coh_from_obj(space, e["class"]) for e in obj}
    return HbarLaurent(space, terms)


def qseries_to_obj(S: QSeries) -> dict:
    """Terms in graded-lex order; the beta = 0 entry is written even when zero."""
    betas = sorted(S.terms.keys() | {S.zero_beta}, key=_graded)
    return {
        "D": S.max_degree,
        "terms": [{"beta": list(beta), "hbar": hl_to_obj(S.term(beta))} for beta in betas],
    }


def qseries_from_obj(space: AmbientSpace, obj) -> QSeries:
    terms = {
        tuple(entry["beta"]): hl_from_obj(space, entry["hbar"])
        for entry in obj["terms"]
    }
    return QSeries(space, int(obj["D"]), terms)


def scalar_to_obj(f: ScalarQSeries) -> list:
    return [
        {"beta": list(beta), "coeff": format_fraction(f.terms[beta])}
        for beta in sorted(f.terms, key=_graded)
    ]
