"""Exact arithmetic in the cohomology ring of a product of projective spaces.

The ambient space is P = P^{r_1} x ... x P^{r_N}; its cohomology ring is
Q[p_1..p_N] / (p_1^{r_1+1}, ..., p_N^{r_N+1}) with p_i the hyperplane class
pulled back from the i-th factor.  Classes are stored densely over the full
monomial basis in graded-lexicographic order, as integer numerators over one
positive common denominator in lowest terms, so the arithmetic runs on
integers; every coefficient handed out is a ``Fraction``.  There is no
floating point anywhere in this package, and a float handed in is refused.

Curve classes are bare tuples of non-negative integers, one entry per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as _cartesian
from math import gcd, lcm
from numbers import Integral

from .errors import SpaceMismatch, _exact

ZERO = Fraction(0)
ONE = Fraction(1)


def format_fraction(x: Fraction) -> str:
    """Render a rational as "num/den", always with an explicit denominator."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _integer(x) -> int:
    """x as an int; anything but an Integral is refused, never truncated.
    An int skips the ABC check, which costs about 20 times as much."""
    if type(x) is int or isinstance(x, Integral):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


@dataclass(frozen=True)
class AmbientSpace:
    """A product of projective spaces, recorded by its factor dimensions."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(_integer(r) for r in self.factors)
        if len(factors) < 1:
            raise ValueError("ambient space needs at least one projective factor")
        if any(r < 1 for r in factors):
            raise ValueError(f"factor dimensions must be >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return sum(self.factors)

    # -- monomial basis ------------------------------------------------------

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """All exponent multi-indices, in graded-lexicographic order."""
        return _basis(self.factors)

    @property
    def basis_index(self) -> dict[tuple[int, ...], int]:
        return _basis_index(self.factors)

    # -- building blocks -----------------------------------------------------

    def zero(self) -> "CohClass":
        return self._zero

    def unit(self) -> "CohClass":
        return self._unit

    @cached_property
    def _zero(self) -> "CohClass":
        return CohClass(self, (0,) * len(self.basis), 1)

    @cached_property
    def _unit(self) -> "CohClass":
        return self.monomial((0,) * self.nfactors)

    def monomial(self, exponents, coeff=ONE) -> "CohClass":
        exponents = tuple(_integer(e) for e in exponents)
        idx = self.basis_index.get(exponents)
        if idx is None:
            raise ValueError(f"exponents {exponents} out of range for {self}")
        coeff = _exact(coeff)
        num = [0] * len(self.basis)
        num[idx] = coeff.numerator
        return CohClass(self, num, coeff.denominator)

    def hyperplane(self, i: int) -> "CohClass":
        """The hyperplane class p_i of the i-th factor."""
        exps = [0] * self.nfactors
        exps[i] = 1
        return self.monomial(exps)

    def divisor(self, multidegree) -> "CohClass":
        """The divisor class sum_i l_i p_i."""
        out = self.zero()
        for i, l in enumerate(multidegree):
            if l:
                out = out + self.hyperplane(i).scale(l)
        return out

    def divisor_sum(self) -> "CohClass":
        return self.divisor((1,) * self.nfactors)

    def integrate(self, c: "CohClass") -> Fraction:
        """Pair against the fundamental class: the top-monomial coefficient."""
        if c.space != self:
            raise SpaceMismatch("cannot integrate a class from a different space")
        return c.coeff(self.factors)

    def check_curve_class(self, beta) -> tuple[int, ...]:
        beta = tuple(beta)
        if len(beta) != self.nfactors or not all(isinstance(d, Integral) and d >= 0 for d in beta):
            raise ValueError(f"invalid curve class {beta} for {self}")
        return tuple(map(int, beta))


@lru_cache(maxsize=None)
def _basis(factors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    exps = _cartesian(*(range(r + 1) for r in factors))
    return tuple(sorted(exps, key=lambda e: (sum(e), e)))


@lru_cache(maxsize=None)
def _basis_index(factors: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(_basis(factors))}


@lru_cache(maxsize=None)
def _mul_table(factors: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row i lists the pairs (j, k) with basis[i] * basis[j] = basis[k];
    products past some p_i^{r_i} vanish (nilpotency) and are left out."""
    basis = _basis(factors)
    index = _basis_index(factors)
    rows = []
    for ea in basis:
        row = []
        for j, eb in enumerate(basis):
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= cap for x, cap in zip(e, factors)):
                row.append((j, index[e]))
        rows.append(tuple(row))
    return tuple(rows)


class CohClass:
    """An element of the cohomology ring, dense over the monomial basis.

    Stored as ``num``, a tuple of integer numerators, over ``den``, one
    positive common denominator, in lowest terms: gcd(den, *num) == 1 and
    zero has den 1.  So equal classes compare and hash equal.
    ``CohClass(space, rationals)`` takes the coefficients as rationals;
    ``CohClass(space, numerators, den)`` takes integer numerators over a
    non-zero integer ``den`` and reduces them.
    """

    __slots__ = ("space", "num", "den")

    def __init__(self, space: AmbientSpace, coeffs, den: int | None = None):
        if den is None:
            fracs = [c if type(c) is Fraction else _exact(c) for c in coeffs]
            den = lcm(*[f.denominator for f in fracs])
            num = [f.numerator * (den // f.denominator) for f in fracs]
        elif den == 0:
            raise ZeroDivisionError("class with a zero denominator")
        else:
            num = coeffs
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [x // g for x in num]
            den //= g
        num = tuple(num)
        if len(num) != len(space.basis):
            raise ValueError("coefficient vector does not match the basis size")
        self.space = space
        self.num = num
        self.den = den

    # -- inspection ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in basis order."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    def coeff(self, exponents) -> Fraction:
        idx = self.space.basis_index.get(tuple(exponents))
        return Fraction(self.num[idx], self.den) if idx is not None else ZERO

    @property
    def scalar_part(self) -> Fraction:
        """Coefficient of the identity monomial."""
        return Fraction(self.num[0], self.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def items(self):
        """Nonzero (exponents, coefficient) pairs in basis order."""
        den = self.den
        for e, x in zip(self.space.basis, self.num):
            if x:
                yield e, Fraction(x, den)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "CohClass"):
        if self.space is not other.space and self.space != other.space:
            raise SpaceMismatch("classes live on different ambient spaces")

    def _combine(self, other: "CohClass", sign: int) -> "CohClass":
        """self + sign * other, adding numerators over the common denominator."""
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            num = [a + sign * b for a, b in zip(self.num, other.num)]
            return CohClass(self.space, num, da)
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        num = [fa * a + fb * b for a, b in zip(self.num, other.num)]
        return CohClass(self.space, num, den)

    def __add__(self, other: "CohClass") -> "CohClass":
        return self._combine(other, 1)

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self._combine(other, -1)

    def __neg__(self) -> "CohClass":
        return CohClass(self.space, [-a for a in self.num], self.den)

    def scale(self, k) -> "CohClass":
        if type(k) is not int:
            k = k if type(k) is Fraction else _exact(k)
            kn, kd = k.numerator, k.denominator
            return CohClass(self.space, [kn * a for a in self.num], kd * self.den)
        return CohClass(self.space, [k * a for a in self.num], self.den)

    def __mul__(self, other):
        if not isinstance(other, CohClass):
            return self.scale(other)
        self._check(other)
        b = other.num
        out = [0] * len(b)
        for a, row in zip(self.num, _mul_table(self.space.factors)):
            if a:
                for j, k in row:
                    if b[j]:
                        out[k] += a * b[j]
        return CohClass(self.space, out, self.den * other.den)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohClass)
            and self.space == other.space
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.space, self.num, self.den))

    def __repr__(self):
        if self.is_zero:
            return "CohClass(0)"
        parts = []
        for e, c in self.items():
            mono = "*".join(f"p{i+1}^{x}" for i, x in enumerate(e) if x) or "1"
            parts.append(f"{c}*{mono}")
        return "CohClass(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class BundleSpec:
    """A direct sum of line bundles, one multidegree per summand."""

    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        lines = tuple(tuple(_integer(l) for l in line) for line in self.lines)
        for line in lines:
            if all(l == 0 for l in line):
                raise ValueError("a line-bundle factor must have some nonzero degree")
        object.__setattr__(self, "lines", lines)

    @property
    def rank(self) -> int:
        return len(self.lines)

    def validate_for(self, space: AmbientSpace):
        for line in self.lines:
            if len(line) != space.nfactors:
                raise SpaceMismatch(
                    f"multidegree {line} does not match {space.nfactors} ambient factors"
                )


def euler_class(space: AmbientSpace, bundle: BundleSpec) -> CohClass:
    """Top Chern class of the split bundle: the product of its divisor classes."""
    bundle.validate_for(space)
    out = space.unit()
    for line in bundle.lines:
        out = out * space.divisor(line)
    return out


def lift(c: CohClass, target: AmbientSpace) -> CohClass:
    """Reinterpret a class on a product with componentwise larger factors.

    The monomial coefficients are carried over verbatim; every exponent valid
    on the source stays valid on the target.
    """
    if target.nfactors != c.space.nfactors:
        raise SpaceMismatch("lift requires the same number of factors")
    if any(t < s for s, t in zip(c.space.factors, target.factors)):
        raise SpaceMismatch("lift target must be componentwise at least the source")
    out = target.zero()
    for e, coeff in c.items():
        out = out + target.monomial(e, coeff)
    return out


# -- serialization -----------------------------------------------------------


def coh_to_obj(c: CohClass) -> list:
    return [
        {"exp": list(e), "coeff": format_fraction(coeff)}
        for e, coeff in c.items()
    ]


def _int_list(value, field: str) -> tuple[int, ...]:
    """A JSON list of integers (no booleans), else ValueError naming ``field``."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list of integers")
    for i, x in enumerate(value):
        if type(x) is not int:
            raise ValueError(f"{field}[{i}] must be an integer, got {x!r}")
    return tuple(value)


def _check_fields(obj, field: str, required, optional=()):
    """Refuse anything but a JSON object with the ``required`` keys and at
    most the ``optional`` ones, with a ValueError naming ``field``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{field} must be a JSON object")
    for key in obj:
        if key not in required and key not in optional:
            raise ValueError(f"unknown {field} field {key!r}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing {field} field {key!r}")
