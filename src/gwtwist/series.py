"""Truncated formal series with exact rational coefficients.

Two layers sit on top of the cohomology ring:

* ``HbarLaurent``: a homogeneous Laurent polynomial in the formal symbol
  hbar with cohomology-class coefficients, stored as one total degree and
  one class in x = p/hbar, so it multiplies with one class product.
* A power series in the curve-class variables q_1..q_N, truncated at a total
  degree D.  One implementation serves two coefficient kinds: ``QSeries``
  holds ``HbarLaurent`` values (the twisted series and its transforms) and
  ``ScalarQSeries`` holds rationals (the dials f0 and f1 of the change of
  variables).  The exp, by the one-pass Euler-operator recurrence, and the
  substitution q -> q e^{f1} are likewise written once for both kinds.

The exponential prefactor common to generating-series conventions is never
materialized; series are always stored in reduced form, coefficient by curve
class.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Integral
from operator import mul

from .errors import NonInvertible, SpaceMismatch, StructureViolation, TruncationMismatch
from .ring import (
    AmbientSpace,
    CohClass,
    ONE,
    ZERO,
    _check_fields,
    _exact,
    _int_list,
    coh_from_obj,
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


def _add_into(out: dict, key, value):
    prev = out.get(key)
    out[key] = value if prev is None else prev + value


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
        degrees = sorted({int(k) + j for k, cls in terms.items() for j in _degrees(cls)})
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
        """The degree-one element ``divisor + k*hbar``."""
        return cls(space, {0: divisor, 1: space.unit().scale(k)})

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
        if not isinstance(max_degree, Integral) or max_degree < 0:
            raise ValueError(f"truncation degree {max_degree!r} is not a non-negative integer")
        checked = {space.check_curve_class(b): c for b, c in (terms or {}).items()}
        self._fill(space, int(max_degree), checked)

    def _fill(self, space: AmbientSpace, max_degree: int, terms: dict):
        self.space, self.max_degree = space, max_degree
        coerce = self._coerce
        clean = {}
        for beta, c in terms.items():
            if _degree(beta) > max_degree:
                raise ValueError(f"term {beta} beyond truncation degree {max_degree}")
            c = coerce(beta, c)
            if c is not None:
                clean[beta] = c
        self.terms = clean

    def _new(self, terms: dict):
        """The series of terms that engine code keyed by checked curve classes."""
        out = object.__new__(type(self))
        out._fill(self.space, self.max_degree, terms)
        return out

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
            _add_into(terms, beta, c)
        return self._new(terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        k = _exact(k)
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
                _add_into(out, tuple(x + y for x, y in zip(ba, bb)), ca * cb)
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

    def _coerce(self, beta, hl: HbarLaurent):
        if not isinstance(hl, HbarLaurent):
            raise TypeError(f"coefficient at beta = {list(beta)} is not an HbarLaurent: {hl!r}")
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

    def _coerce(self, beta, c):
        c = c if type(c) is Fraction else _exact(c)
        return c if c else None

    @classmethod
    def zero(cls, space: AmbientSpace, max_degree: int) -> "ScalarQSeries":
        return cls(space, max_degree, {})

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get(self.zero_beta, ZERO)

    def coeff(self, beta) -> Fraction:
        return self.terms.get(tuple(beta), ZERO)

    def set_coeff(self, beta, value) -> "ScalarQSeries":
        terms = dict(self.terms)
        terms[self.space.check_curve_class(beta)] = value
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


def _theta(f) -> list:
    """The terms of theta f = sum_i q_i d/dq_i f, which scales q^beta by
    |beta|, as triples (gamma, |gamma|, |gamma| f_gamma)."""
    scale = f._scale_coeff
    return [(g, _degree(g), scale(c, _degree(g))) for g, c in f.terms.items()]


def _convolve(beta, theta, terms):
    """sum over gamma <= beta of (|gamma| f_gamma) * terms[beta - gamma], for
    ``theta`` from ``_theta``, or None when no pair contributes."""
    d = _degree(beta)
    acc = None
    for gamma, dg, c in theta:
        if dg > d:
            continue
        # a negative entry is never a key of terms
        other = terms.get(tuple(b - g for b, g in zip(beta, gamma)))
        if other is None:
            continue
        prod = c * other
        acc = prod if acc is None else acc + prod
    return acc


def _exp(f, one):
    """exp(f) for f without a q^0 term, in one pass over the curve classes.

    theta(e^f) = theta(f) e^f gives |beta| E_beta = sum_{0<gamma<=beta}
    |gamma| f_gamma E_{beta-gamma}, so each coefficient follows from those
    of lower degree (Brent-Kung, JACM 1978).
    """
    out = {f.zero_beta: one}
    _exp_extend(out, _theta(f), f.curve_classes()[1:], f._scale_coeff)
    return f._new(out)


def _exp_extend(out: dict, theta, classes, scale):
    """Add to the exp coefficients ``out`` those at ``classes``, each from
    the coefficients of lower degree already in ``out``, by the recurrence
    of ``_exp``; ``theta`` must hold every term of degree up to theirs."""
    for beta in classes:
        acc = _convolve(beta, theta, out)
        if acc is not None:
            out[beta] = scale(acc, Fraction(1, _degree(beta)))


def qs_exp(a: ScalarQSeries) -> ScalarQSeries:
    """exp of a series with zero constant term."""
    if a.constant_term != 0:
        raise ValueError("qs_exp needs a zero constant term")
    return _exp(a, ONE)


def qs_log(a: ScalarQSeries) -> ScalarQSeries:
    """log of a series with constant term 1, in one pass.

    theta(log a) a = theta(a) gives |beta| L_beta = |beta| a_beta -
    sum_{0<gamma<beta} |gamma| L_gamma a_{beta-gamma}.
    """
    if a.constant_term != 1:
        raise ValueError("qs_log needs constant term exactly 1")
    out: dict = {}
    theta: list = []  # (gamma, |gamma|, |gamma| L_gamma) found so far
    for beta in a.curve_classes()[1:]:
        d = _degree(beta)
        c = d * a.terms.get(beta, ZERO)
        acc = _convolve(beta, theta, a.terms)
        if acc is not None:
            c -= acc
        if c:
            out[beta] = c / d
            theta.append((beta, d, c))
    return a._new(out)


def qs_exp_full(L: QSeries) -> QSeries:
    """exp of a class-valued series whose beta = 0 term vanishes."""
    if L.zero_beta in L.terms:
        raise ValueError("qs_exp_full needs a vanishing beta = 0 term")
    return _exp(L, HbarLaurent.unit(L.space))


def _check_dials(space: AmbientSpace, max_degree: int, dials):
    """Refuse dials that are not scalar series on this space and degree with
    zero constant term."""
    layout = ScalarQSeries.zero(space, max_degree)
    for f in dials:
        layout._check(f)
        if f.constant_term != 0:
            raise ValueError("dial series must have zero constant term")


def _check_substitution(space: AmbientSpace, max_degree: int, f1: list[ScalarQSeries]):
    """Refuse substitution data that is not one dial per ambient factor."""
    if len(f1) != space.nfactors:
        raise SpaceMismatch("need one substitution series per ambient factor")
    _check_dials(space, max_degree, f1)


def _substitute(S, f1: list[ScalarQSeries], factors=None):
    """S(q e^{f1}) for a series of either kind, truncated at its degree D.

    Each q^beta term is multiplied by exp(beta . f1), read off the table
    ``factors`` of ``_invert_with_factors`` (refused unless built for these
    dials); without one, the table is built for f1 by that same routine.
    """
    D = S.max_degree
    _check_substitution(S.space, D, f1)
    if factors is None:
        factors = _invert_with_factors([f.scale(0) for f in f1], f1)[1]
    elif factors[0] != tuple(f1):
        raise ValueError("exp(beta . f1) factor table was built for other dials")
    table = factors[1]
    out: dict = {}
    for beta, c in S.terms.items():
        for gamma, e in table[beta].items():
            _add_into(out, tuple(x + y for x, y in zip(beta, gamma)), S._scale_coeff(c, e))
    return S._new(out)


def qs_substitute(S: QSeries, f1: list[ScalarQSeries], _factors=None) -> QSeries:
    """Apply q_i -> q_i * exp(f1^i(q)) to a class-valued series."""
    return _substitute(S, f1, _factors)


def compose_substitute(f: ScalarQSeries, g1: list[ScalarQSeries], _factors=None) -> ScalarQSeries:
    """Evaluate f(q * exp(g1)) as a truncated scalar series."""
    return _substitute(f, g1, _factors)


def invert_substitution(f1: list[ScalarQSeries]) -> list[ScalarQSeries]:
    """Inverse of q -> q*exp(f1): g with g + f(q e^g) = 0, in one pass."""
    return _invert_with_factors(f1, [f.scale(0) for f in f1])[0]


def _invert_with_factors(h: list[ScalarQSeries], k: list[ScalarQSeries]):
    """g with g + h(q e^g) = k, and the factor table (g, {beta: E_beta}).

    The degree-n terms of h(q e^g) = sum_beta h_beta q^beta E_beta, with
    E_beta = exp(beta . g), read g only below degree n.  Round n therefore
    grows each E_beta by one degree level of the ``_exp`` recurrence and sets
    g_alpha = k_alpha - sum_beta h_beta E_beta[alpha - beta] for |alpha| = n.
    The table holds every class beta up to D, E_beta truncated at D - |beta|.
    k = 0 inverts q -> q e^h; h = 0 gives g = k and the table a substitution
    reads.  In general g = k + G(q e^k), G the inverse of q -> q e^h: with
    u = q e^k, G(u) + h(u e^{G(u)}) = 0.
    """
    if not h:
        return [], ((), {})
    space, D = h[0].space, h[0].max_degree
    _check_substitution(space, D, h)
    _check_substitution(space, D, k)
    levels: list[list] = [[] for _ in range(D + 1)]
    for beta in all_curve_classes(space, D):
        levels[_degree(beta)].append(beta)
    zero = levels[0][0]
    # per beta != 0: E_beta, the theta terms of beta . g, and (h^i_beta, g^i)
    g: list[dict] = [dict(f.terms) for f in k]
    factors = {
        beta: ({zero: ONE}, [], [(f.terms[beta], t) for f, t in zip(h, g) if beta in f.terms])
        for level in levels[1:]
        for beta in level
    }
    for n in range(1, D + 1):
        for beta, (E, theta, h_beta) in factors.items():
            m = n - _degree(beta)
            if m < 0:
                break
            if m:
                for gamma in levels[m]:
                    c = sum(b * t[gamma] for b, t in zip(beta, g) if b and gamma in t)
                    if c:
                        theta.append((gamma, m, m * c))
                _exp_extend(E, theta, levels[m], mul)
            for gamma in levels[m] if h_beta else ():
                e = E.get(gamma)
                if e is not None:
                    alpha = tuple(x + y for x, y in zip(beta, gamma))
                    for c, terms in h_beta:
                        terms[alpha] = terms.get(alpha, ZERO) - c * e
    dials = tuple(h[0]._new(t) for t in g)
    return list(dials), (dials, {zero: {zero: ONE}} | {b: E for b, (E, _, _) in factors.items()})


# -- serialization -----------------------------------------------------------


def hl_to_obj(hl: HbarLaurent) -> list:
    return [{"pow": k, "class": coh_to_obj(c)} for k, c in sorted(hl.terms.items())]


def hl_from_obj(space: AmbientSpace, obj, field: str = "hbar") -> HbarLaurent:
    """Read ``hl_to_obj`` form, a list of ``{pow, class}`` with distinct
    integer powers and one total degree; anything else raises ValueError
    naming the field."""
    if not isinstance(obj, list):
        raise ValueError(f"{field} must be a list")
    terms = {}
    for i, entry in enumerate(obj):
        where = f"{field}[{i}]"
        _check_fields(entry, where, ("pow", "class"))
        k = entry["pow"]
        if type(k) is not int:
            raise ValueError(f"{where}.pow must be an integer, got {k!r}")
        if k in terms:
            raise ValueError(f"{where}.pow {k} repeats an earlier entry")
        terms[k] = coh_from_obj(space, entry["class"], f"{where}.class")
    try:
        return HbarLaurent(space, terms)
    except StructureViolation as exc:
        raise ValueError(f"{field} mixes total degrees {exc.context['degrees']}") from None


def qseries_to_obj(S: QSeries) -> dict:
    """Terms in graded-lex order; the beta = 0 entry is written even when zero."""
    betas = sorted(S.terms.keys() | {S.zero_beta}, key=_graded)
    return {
        "D": S.max_degree,
        "terms": [{"beta": list(beta), "hbar": hl_to_obj(S.term(beta))} for beta in betas],
    }


def qseries_from_obj(space: AmbientSpace, obj, field: str = "series") -> QSeries:
    """Read ``qseries_to_obj`` form: ``{D, terms}`` with ``D`` a non-negative
    integer and ``terms`` a list of ``{beta, hbar}``, each ``beta`` a distinct
    curve class of degree at most D.  Any other shape raises ValueError
    naming the field, such as ``series.terms[0].hbar[0].class[1].coeff``."""
    _check_fields(obj, field, ("D", "terms"))
    D = obj["D"]
    if type(D) is not int or D < 0:
        raise ValueError(f"{field}.D must be a non-negative integer, got {D!r}")
    if not isinstance(obj["terms"], list):
        raise ValueError(f"{field}.terms must be a list")
    terms = {}
    for i, entry in enumerate(obj["terms"]):
        where = f"{field}.terms[{i}]"
        _check_fields(entry, where, ("beta", "hbar"))
        beta = _int_list(entry["beta"], f"{where}.beta")
        if len(beta) != space.nfactors or any(d < 0 for d in beta):
            raise ValueError(
                f"{where}.beta must list {space.nfactors} non-negative degrees, got {list(beta)}"
            )
        if _degree(beta) > D:
            raise ValueError(f"{where}.beta {list(beta)} is beyond the degree D = {D}")
        if beta in terms:
            raise ValueError(f"{where}.beta {list(beta)} repeats an earlier term")
        terms[beta] = hl_from_obj(space, entry["hbar"], f"{where}.hbar")
    return QSeries(space, D, terms)


def scalar_to_obj(f: ScalarQSeries) -> list:
    return [
        {"beta": list(beta), "coeff": format_fraction(f.terms[beta])}
        for beta in sorted(f.terms, key=_graded)
    ]
