"""Exact arithmetic in the cohomology ring of a product of projective spaces.

The ambient space is P = P^{r_1} x ... x P^{r_N}; its cohomology ring is
Q[p_1..p_N] / (p_1^{r_1+1}, ..., p_N^{r_N+1}) with p_i the hyperplane class
pulled back from the i-th factor.  Classes are stored densely over the full
monomial basis in graded-lexicographic order, with arbitrary-precision
rational coefficients.  There is no floating point anywhere in this package.

Curve classes are bare tuples of non-negative integers, one entry per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian

from .errors import SpaceMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


def format_fraction(x: Fraction) -> str:
    """Render a rational as "num/den", always with an explicit denominator."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s: str) -> Fraction:
    """Parse "num/den" or a bare integer string."""
    return Fraction(s.strip())


@dataclass(frozen=True)
class AmbientSpace:
    """A product of projective spaces, recorded by its factor dimensions."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(r) for r in self.factors)
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
        return CohClass(self, (ZERO,) * len(self.basis))

    def unit(self) -> "CohClass":
        return self.monomial((0,) * self.nfactors)

    def monomial(self, exponents, coeff=ONE) -> "CohClass":
        exponents = tuple(int(e) for e in exponents)
        idx = self.basis_index.get(exponents)
        if idx is None:
            raise ValueError(f"exponents {exponents} out of range for {self}")
        coeffs = [ZERO] * len(self.basis)
        coeffs[idx] = Fraction(coeff)
        return CohClass(self, tuple(coeffs))

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
                out = out + self.hyperplane(i) * Fraction(l)
        return out

    def divisor_sum(self) -> "CohClass":
        return self.divisor((1,) * self.nfactors)

    def integrate(self, c: "CohClass") -> Fraction:
        """Pair against the fundamental class: the top-monomial coefficient."""
        if c.space != self:
            raise SpaceMismatch("cannot integrate a class from a different space")
        return c.coeff(self.factors)

    def check_curve_class(self, beta) -> tuple[int, ...]:
        beta = tuple(int(d) for d in beta)
        if len(beta) != self.nfactors or any(d < 0 for d in beta):
            raise ValueError(f"invalid curve class {beta} for {self}")
        return beta


@lru_cache(maxsize=None)
def _basis(factors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    exps = _cartesian(*(range(r + 1) for r in factors))
    return tuple(sorted(exps, key=lambda e: (sum(e), e)))


@lru_cache(maxsize=None)
def _basis_index(factors: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(_basis(factors))}


class CohClass:
    """An element of the cohomology ring, dense over the monomial basis."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: AmbientSpace, coeffs):
        self.space = space
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != len(space.basis):
            raise ValueError("coefficient vector does not match the basis size")
        self.coeffs = coeffs

    # -- inspection ----------------------------------------------------------

    def coeff(self, exponents) -> Fraction:
        idx = self.space.basis_index.get(tuple(exponents))
        return self.coeffs[idx] if idx is not None else ZERO

    @property
    def scalar_part(self) -> Fraction:
        """Coefficient of the identity monomial."""
        return self.coeffs[0]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def items(self):
        """Nonzero (exponents, coefficient) pairs in basis order."""
        for e, c in zip(self.space.basis, self.coeffs):
            if c != 0:
                yield e, c

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "CohClass"):
        if self.space != other.space:
            raise SpaceMismatch("classes live on different ambient spaces")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        return CohClass(self.space, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        return CohClass(self.space, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CohClass":
        return CohClass(self.space, tuple(-a for a in self.coeffs))

    def scale(self, k) -> "CohClass":
        k = Fraction(k)
        return CohClass(self.space, tuple(k * a for a in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, CohClass):
            return self.scale(other)
        self._check(other)
        space = self.space
        caps = space.factors
        index = space.basis_index
        out = [ZERO] * len(space.basis)
        mine = [(e, c) for e, c in self.items()]
        for eb, cb in other.items():
            for ea, ca in mine:
                # nilpotency: drop monomials past p_i^{r_i}
                e = tuple(x + y for x, y in zip(ea, eb))
                if any(x > cap for x, cap in zip(e, caps)):
                    continue
                out[index[e]] += ca * cb
        return CohClass(space, tuple(out))

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohClass)
            and self.space == other.space
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.space, self.coeffs))

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
        lines = tuple(tuple(int(l) for l in line) for line in self.lines)
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


def coh_from_obj(space: AmbientSpace, obj) -> CohClass:
    out = space.zero()
    for entry in obj:
        out = out + space.monomial(entry["exp"], parse_fraction(entry["coeff"]))
    return out
