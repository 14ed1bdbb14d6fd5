"""Geometry data, hypothesis checks, and the twisted one-point series.

A geometry is an ambient product of projective spaces together with a split
bundle, each summand pulled back from the ambient and either convex (all
multidegree entries >= 0) or concave (all entries <= -1).  This module
classifies the summands, evaluates the positivity and triviality conditions
the downstream solver relies on, and assembles the hypergeometric series

    I(beta) = e(E_conv) K(beta)   and   I'(beta) = e(E_conc) K(beta)

for beta != 0, where K(beta) is the closed-form ambient series J(beta) times
each summand's linear factors (c1 + k hbar) without the k = 0 factor c1:
k = 1..n for a convex summand and k = n+1..-1 for a concave one, at
n = <L, beta>.  I starts at e(E) and is the twisted series; I' starts at 1
(``i_prime``), and the change of variables is read from it.

Both are read off closed forms on integer tables, with x = p/hbar: each
ambient factor gets a table of the univariate A_i[d] = prod_{k<=d}
(x_i + k)^-(r_i+1), and J(beta) is the outer product of the A_i[beta_i];
each summand gets one table of its factors indexed by the pairing n
(``_summand_table``), an integer polynomial in c1(x) per row
(``_linear_table``).  Each row or term read is one class, but the counts'
three hbar layers of I' are built in integers off the same tables grown to
degree 2 only (``_count_layers``).  The tables live for one call only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, gcd, lcm, prod
from operator import getitem, mul

from .errors import Unclassifiable, Unsupported
from .ring import AmbientSpace, BundleSpec, CohClass, _check_fields, _int_list, _integer, _mul_table
from .ring import euler_class
from .series import HbarLaurent, QSeries, _Layers, all_curve_classes

CONVEX = "Convex"
CONCAVE = "Concave"

CASE_CONCAVE_RANK2 = "ConcaveRank2plus"
CASE_FANO_INDEX2 = "FanoIndex2plus"
CASE_MIXED_SUM = "MixedSum"


def classify(l) -> str:
    """Tag a multidegree as Convex (all >= 0) or Concave (all <= -1).

    Mixed signs, and zero entries alongside negative ones, are rejected: on a
    product ambient such a summand is neither globally generated nor without
    sections on every curve, so no finite product formula applies.
    """
    l = tuple(_integer(x) for x in l)
    if all(x == 0 for x in l):
        raise Unclassifiable("zero multidegree has no type", multidegree=list(l))
    if all(x >= 0 for x in l):
        return CONVEX
    if all(x <= -1 for x in l):
        return CONCAVE
    raise Unclassifiable(
        "multidegree mixes non-negative and negative entries", multidegree=list(l)
    )


class GeometrySpec:
    """Ambient space + split bundle; the ambient J is always ``j_ambient``.

    Construction validates everything downstream code assumes: summands match
    the ambient, each classifies cleanly, and concave summands only appear
    over a single projective space.  The summands are classified here only;
    the kinds are kept, one per summand, and everything downstream reads
    them.
    """

    __slots__ = ("space", "bundle", "_kinds")

    def __init__(self, space: AmbientSpace, bundle: BundleSpec):
        bundle.validate_for(space)
        kinds = [classify(l) for l in bundle.lines]
        if CONCAVE in kinds and space.nfactors > 1:
            raise Unsupported(
                "concave summands are only supported over a single projective space",
                nfactors=space.nfactors,
            )
        self.space = space
        self.bundle = bundle
        self._kinds = tuple(kinds)

    def convex_lines(self):
        return tuple(l for l, k in zip(self.bundle.lines, self._kinds) if k == CONVEX)

    def concave_lines(self):
        return tuple(l for l, k in zip(self.bundle.lines, self._kinds) if k == CONCAVE)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeometrySpec)
            and self.space == other.space
            and self.bundle == other.bundle
        )

    def __repr__(self):
        return f"GeometrySpec(ambient={self.space.factors}, bundle={self.bundle.lines})"


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the hypothesis checks.

    ``nonneg`` holds one boolean per ambient factor: whether the anticanonical
    degree minus convex twists plus concave twists stays non-negative there.
    ``trivial_transform_case`` names the structural reason (if any) the mirror
    transformation is forced to vanish, or is None.
    """

    nonneg: tuple[bool, ...]
    trivial_transform_case: str | None

    @property
    def all_nonneg(self) -> bool:
        return all(self.nonneg)

    def to_obj(self) -> dict:
        return {
            "theorem1_nonneg": list(self.nonneg),
            "theorem2_case": self.trivial_transform_case,
        }


def _combined_degrees(g: GeometrySpec):
    """Per-factor value (r_i+1) - sum_conv l_ji + sum_conc l_ji."""
    out = []
    for i, r in enumerate(g.space.factors):
        v = r + 1
        for l in g.convex_lines():
            v -= l[i]
        for l in g.concave_lines():
            v += l[i]
        out.append(v)
    return tuple(out)


def check_conditions(g: GeometrySpec) -> TheoremReport:
    """Evaluate the positivity condition and detect trivial-transform cases."""
    combined = _combined_degrees(g)
    nonneg = tuple(v >= 0 for v in combined)
    convex = g.convex_lines()
    concave = g.concave_lines()
    case = None
    if all(nonneg):
        if concave and not convex:
            if sum(1 for _ in concave) >= 2:
                case = CASE_CONCAVE_RANK2
        elif convex and not concave:
            if _fano_index_ok(g, convex):
                case = CASE_FANO_INDEX2
        elif convex and concave:
            if len(concave) >= 2 and _fano_index_ok(g, convex):
                case = CASE_MIXED_SUM
    return TheoremReport(nonneg=nonneg, trivial_transform_case=case)


def _fano_index_ok(g: GeometrySpec, convex_lines) -> bool:
    """Anticanonical-minus-convex degree >= 2 against every unit curve class."""
    for i, r in enumerate(g.space.factors):
        v = r + 1 - sum(l[i] for l in convex_lines)
        if v < 2:
            return False
    return True


def _linear_table(space: AmbientSpace, c: CohClass, first: int, step: int, top: int):
    """(m -> P_m, weights, den) for prod_{j<m} (c + (first + j*step) hbar), c
    a divisor: with y = c(x), row m is hbar^m P_m(y), P_m = prod_{j<m} (y +
    first + j*step) grown by P_m[j] = k P_{m-1}[j] + P_{m-1}[j-1] up to
    y^top; a basis monomial e of degree <= top, which sits in c^|e| alone,
    reads P_m[|e|] w over den for its pair (|e|, w) in ``weights``."""
    powers = [space.unit(), c]
    while len(powers) <= top:
        powers.append(powers[-1] * c)
    den = lcm(*(q.den for q in powers))
    cols = [[x * (den // q.den) for x in q.num] for q in powers]
    weights = [(sum(e), cols[sum(e)][k]) for k, e in enumerate(space.basis) if sum(e) <= top]
    polys = [[1] + [0] * top]

    def poly(m: int) -> list:
        for k in range(first + (len(polys) - 1) * step, first + m * step, step):
            p = polys[-1]
            polys.append([k * p[0]] + [k * a + b for a, b in zip(p[1:], p)])
        return polys[m]

    return poly, weights, den


def _linear_products(space: AmbientSpace, c: CohClass, first: int, step: int):
    """Return m -> prod_{j<m} (c + (first + j*step) hbar), one class per row
    read off ``_linear_table``, kept; row 0 is 1."""
    poly, weights, den = _linear_table(space, c, first, step, space.dim)
    return cache(lambda m: HbarLaurent._of(
        space, m, CohClass(space, [p[j] * w for p in [poly(m)] for j, w in weights], den)))


def _summand_table(space: AmbientSpace, l, kind: str):
    """Return n -> K(L) at pairing n = <L, beta> for one summand of ``kind``,
    its linear factors without the k = 0 factor c1: prod_{k=1}^{n}
    (c1 + k hbar) if convex, prod_{k=n+1}^{-1} (c1 + k hbar) if concave.
    An empty range gives 1."""
    c1 = space.divisor(l)
    if kind == CONVEX:
        return _linear_products(space, c1, 1, 1)
    row = _linear_products(space, c1, -1, -1)
    return lambda n: row(max(-n - 1, 0))


def _pairing(l, beta) -> int:
    return sum(map(mul, l, beta))


def _inverse_products(r: int, max_degree: int, top: int) -> list:
    """A[d] = prod_{k=1}^{d} (x + k)^-(r+1) for d = 0..max_degree, kept up to
    x^top, top <= r, each as integer numerators over one denominator in lowest
    terms.  Each factor is the binomial series (x + k)^-n = sum_j (-1)^j
    C(n+j-1, j) x^j / k^(n+j), here over k^(n+top)."""
    n, rows = r + 1, [([1] + [0] * top, 1)]
    for k in range(1, max_degree + 1):
        # f[top - j] is term j
        f = [(-1) ** j * comb(n + j - 1, j) * k ** (top - j) for j in range(top + 1)][::-1]
        a, den = rows[-1]
        num = [sum(map(mul, a, f[top - j :])) for j in range(top + 1)]
        den *= k ** (n + top)
        g = gcd(den, *num)
        rows.append(([x // g for x in num], den // g))
    return rows


def j_ambient(space: AmbientSpace, max_degree: int) -> QSeries:
    """Closed-form ambient series: the beta term inverts
    prod_i prod_{k=1}^{d_i} (p_i + k*hbar)^(r_i + 1), and the beta = 0 term is 1.

    With x_i = p_i/hbar the beta term is hbar^delta prod_i A_i[beta_i](x_i),
    at delta = -sum_i (r_i+1) beta_i, for the univariate integer tables
    A_i of ``_inverse_products``; it is built as one class, the outer
    product of the A_i[beta_i] over the monomial basis.
    """
    empty = QSeries(space, max_degree)  # refuses a degree that is not a non-negative integer
    tables = [_inverse_products(r, empty.max_degree, r) for r in space.factors]
    terms = {}
    for beta in empty.curve_classes():
        rows = [table[d] for table, d in zip(tables, beta)]
        num = [prod(map(getitem, [a for a, _ in rows], m)) for m in space.basis]
        delta = -sum((r + 1) * d for r, d in zip(space.factors, beta))
        terms[beta] = HbarLaurent._of(space, delta, CohClass(space, num, prod(d for _, d in rows)))
    return empty._new(terms)


def h_factor(space: AmbientSpace, l, beta) -> HbarLaurent:
    """The finite linear-factor product a bundle summand contributes at beta.

    Convex summands multiply (c1 + k*hbar) for k = 0..<c1,beta>, which is c1
    times their ``_summand_table`` row; concave ones for k = <c1,beta>+1..-1,
    which is the row itself.  An empty range gives 1.
    """
    l = tuple(_integer(x) for x in l)
    beta = space.check_curve_class(beta)
    kind = classify(l)
    row = _summand_table(space, l, kind)(_pairing(l, beta))
    return row * HbarLaurent(space, {0: space.divisor(l)}) if kind == CONVEX else row


def _twisted(J: QSeries, tables, start: CohClass, euler: CohClass) -> QSeries:
    """``euler`` times J_beta times prod_j table_j(<L_j, beta>) for beta != 0,
    and ``start`` at hbar^0 for beta = 0; ``tables`` pairs each multidegree
    L_j with a row function such as ``_summand_table`` or
    ``_linear_products``.  A unit ``euler`` multiplies nothing."""
    space = J.space
    terms = {J.zero_beta: HbarLaurent(space, {0: start})}
    factor = None if euler == space.unit() else HbarLaurent(space, {0: euler})
    for beta in J.curve_classes()[1:]:
        hl = J.terms.get(beta)
        if hl is not None:
            for l, table in tables:
                hl = hl * table(_pairing(l, beta))
            terms[beta] = hl if factor is None else hl * factor
    return J._new(terms)


def _summand_tables(g: GeometrySpec):
    """Each summand's multidegree with its ``_summand_table``."""
    return [(l, _summand_table(g.space, l, k)) for l, k in zip(g.bundle.lines, g._kinds)]


def i_function(g: GeometrySpec, max_degree: int) -> QSeries:
    """Twisted series: for beta != 0, I_beta = e(E_conv) K_beta, with K_beta
    J_beta times each summand's ``_summand_table`` row (its linear factors
    (c1 + k hbar) without k = 0) and E_conv the convex summands.

    The beta = 0 term is the Euler class of the bundle.  For a concave
    summand the degree-zero twist is taken as the Euler factor rather than an
    empty product, so the series starts where the geometry actually starts
    (zero when the Euler class vanishes on the ambient).

    Each row is read from one table indexed by the pairing n = <L, beta>,
    one class per row read, so the series costs one class product per curve
    class and summand, and one more for the Euler class.
    """
    conv = euler_class(g.space, BundleSpec(g.convex_lines()))
    start = euler_class(g.space, g.bundle)
    return _twisted(j_ambient(g.space, max_degree), _summand_tables(g), start, conv)


def i_prime(g: GeometrySpec, max_degree: int) -> QSeries:
    """The twisted series I' that starts at 1 (Coates-Givental): for
    beta != 0, I'_beta = e(E_conc) K_beta, with K_beta as in ``i_function``
    and E_conc the concave summands.  So without concave summands I' is K
    and e(E) I' is ``i_function`` exactly.  The counts read only three hbar
    layers of it, which ``_count_layers`` builds with no class per term."""
    conc = euler_class(g.space, BundleSpec(g.concave_lines()))
    return _twisted(j_ambient(g.space, max_degree), _summand_tables(g), g.space.unit(), conc)


def _count_layers(g: GeometrySpec, max_degree: int) -> _Layers:
    """The layers of ``i_prime`` that the counts read, in integers: its q^beta
    term hbar^delta c(p/hbar), delta = -<combined degrees, beta> <= 0 under
    positivity, has them as c's parts of degree delta..delta + 2, so c is kept
    on the degree <= 2 basis prefix, and left out at delta < -2.  It is J_beta
    times a ``_linear_table`` row per summand at |<L, beta>|, a concave one's
    with its c1 (k = n+1..0); those rows and the ``_inverse_products`` rows
    are grown to degree 2 only and ``ring._mul_table`` is read on the prefix,
    which is exact: no coefficient reads one of higher degree."""
    space = g.space
    D = QSeries(space, max_degree).max_degree  # refuses a degree that is not a non-negative integer
    size = sum(sum(e) <= 2 for e in space.basis)
    pairs = [(i, j, k) for i, row in enumerate(_mul_table(space.factors)[:size]) for j, k in row if k < size]
    tables = [_inverse_products(r, D, min(r, 2)) for r in space.factors]
    rows = [(l, *_linear_table(space, space.divisor(l), *((1, 1) if k == CONVEX else (0, -1)), 2))
            for l, k in zip(g.bundle.lines, g._kinds)]
    combined, terms = _combined_degrees(g), {}
    for beta in all_curve_classes(space, D)[1:]:
        if (delta := -_pairing(combined, beta)) < -2:
            continue
        a = [table[d] for table, d in zip(tables, beta)]
        num = [prod(map(getitem, [x for x, _ in a], e)) for e in space.basis[:size]]
        den = prod(d for _, d in a)
        for l, poly, weights, d in rows:
            p, out = poly(abs(_pairing(l, beta))), [0] * size
            row = [p[j] * w for j, w in weights]
            for i, j, k in pairs:
                out[k] += num[i] * row[j]
            num, den = out, den * d
        terms[beta] = (delta, num, den)
    return _Layers(space, D, terms)


# -- serialization -----------------------------------------------------------


def geometry_from_obj(obj) -> GeometrySpec:
    """Read a geometry from its JSON object, refusing any other shape.

    The object has the keys ``ambient`` (a list of integers),
    ``bundle`` (a list of objects ``{"l": [integers]}``) and optionally
    ``external_j``, which must be null: the ambient J is always the closed
    form.  Booleans, floats and strings are not integers here, and each
    ``l`` has one entry per ambient factor.  Anything else raises
    ValueError naming the field, such as ``bundle[0].l[0]`` or
    ``external_j``, before any arithmetic.
    """
    _check_fields(obj, "geometry", ("ambient", "bundle"), ("external_j",))
    if obj.get("external_j") is not None:
        raise ValueError("external_j must be null or absent: the ambient J is always the closed form")
    space = AmbientSpace(_int_list(obj["ambient"], "ambient"))
    if not isinstance(obj["bundle"], list):
        raise ValueError("bundle must be a list")
    lines = []
    for j, entry in enumerate(obj["bundle"]):
        _check_fields(entry, f"bundle[{j}]", ("l",))
        line = _int_list(entry["l"], f"bundle[{j}].l")
        if len(line) != space.nfactors:
            raise ValueError(
                f"bundle[{j}].l needs {space.nfactors} entries, one per ambient factor, got {len(line)}"
            )
        lines.append(line)
    return GeometrySpec(space, BundleSpec(tuple(lines)))
