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

One integer loop builds every twisted series (``_twist_terms``), in
x = p/hbar: J(beta) is the outer product of univariate tables A_i[d] =
prod_{k<=d} (x_i + k)^-(r_i+1), times one row per summand of an integer
polynomial table in c1(x) (``_linear_table``; the factor c1 included where
the series takes it), through the ring's product table: on every degree,
one class per term, for the series, and on the degree <= 2 basis prefix
for the three hbar layers of I' that the counts read (``_count_layers``).
The tables live for one call only.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _concave_euler_vanishes(g: GeometrySpec) -> bool:
    """Whether e(E_conc) = 0: k concave summands sit on one P^r, where it is
    c H^k with c != 0, which vanishes exactly at k > r (never at k = 0)."""
    return len(g.concave_lines()) > g.space.factors[0]


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
            polys.append([k * a + b for a, b in zip(p, [0, *p])])
        return polys[m]

    return poly, weights, den


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


def _j_terms(space: AmbientSpace, max_degree: int, top: int):
    """beta -> J_beta = hbar^delta prod_i A_i[beta_i](x_i) as (delta,
    numerators, den) on the degree <= top basis prefix: the outer product of
    the ``_inverse_products`` rows, at delta = -sum_i (r_i+1) beta_i."""
    tables = [_inverse_products(r, max_degree, min(r, top)) for r in space.factors]
    nums, dens = ([[row[i] for row in table] for table in tables] for i in (0, 1))
    basis, weights = [e for e in space.basis if sum(e) <= top], [r + 1 for r in space.factors]

    def term(beta):
        a = list(map(getitem, nums, beta))
        num = [prod(map(getitem, a, e)) for e in basis]
        return -_pairing(weights, beta), num, prod(map(getitem, dens, beta))

    return term


def _laurent(space: AmbientSpace, delta: int, num, den: int) -> HbarLaurent:
    return HbarLaurent._of(space, delta, CohClass(space, num, den))


def j_ambient(space: AmbientSpace, max_degree: int) -> QSeries:
    """Closed-form ambient series: the beta term inverts
    prod_i prod_{k=1}^{d_i} (p_i + k*hbar)^(r_i + 1), and the beta = 0 term is 1.

    With x_i = p_i/hbar the beta term is hbar^delta prod_i A_i[beta_i](x_i),
    at delta = -sum_i (r_i+1) beta_i, for the univariate integer tables
    A_i of ``_inverse_products``; it is built as one class, the outer
    product of the A_i[beta_i] over the monomial basis (``_j_terms``).
    """
    empty = QSeries(space, max_degree)  # refuses a degree that is not a non-negative integer
    term = _j_terms(space, empty.max_degree, space.dim)
    return empty._new({beta: _laurent(space, *term(beta)) for beta in empty.curve_classes()})


# (first, step, shift) of each summand's ``_linear_table`` row, read at
# |<L, beta>| + shift: (c1 + k hbar) for k = 1..n (convex) or n+1..0
# (concave) in I', and for k = 0..n or n+1..-1 in I
_I_PRIME_ROWS = {CONVEX: (1, 1, 0), CONCAVE: (0, -1, 0)}
_I_ROWS = {CONVEX: (0, 1, 1), CONCAVE: (-1, -1, -1)}


def _reads(g: GeometrySpec, rows: dict) -> list:
    return [(l, g.space.divisor(l), *rows[k]) for l, k in zip(g.bundle.lines, g._kinds)]


def _twist_terms(space: AmbientSpace, classes, J, reads, top: int) -> dict:
    """The one twist builder: for each beta of ``classes``, J(beta) = (delta,
    numerators, den) on the degree <= top basis prefix times, per read
    (L, c, first, step, shift), row m = max(|<L, beta>| + shift, 0) of c's
    ``_linear_table``, prod_{j<m} (c + (first + j step) hbar) at total degree
    m, through the ``ring._mul_table`` pairs that land in the prefix (exact:
    no entry there reads one of higher degree); at top = dim, whole classes."""
    size = sum(sum(e) <= top for e in space.basis)
    pairs = [(i, j, k) for i, row in enumerate(_mul_table(space.factors)[:size]) for j, k in row if k < size]
    rows = [(l, shift, *_linear_table(space, c, first, step, top)) for l, c, first, step, shift in reads]
    terms = {}
    for beta in classes:
        delta, num, den = J(beta)
        for l, shift, poly, weights, d in rows:
            m = max(abs(_pairing(l, beta)) + shift, 0)
            p, out = poly(m), [0] * size
            row = [p[j] * w for j, w in weights]
            for i, j, k in pairs:
                out[k] += num[i] * row[j]
            num, den, delta = out, den * d, delta + m
        terms[beta] = (delta, num, den)
    return terms


def _series(space: AmbientSpace, max_degree: int, start: CohClass, reads) -> QSeries:
    """``start`` at q^0, then ``j_ambient`` twisted by ``reads``, one class per term."""
    J = j_ambient(space, max_degree)
    terms = _twist_terms(space, J.curve_classes()[1:], _Layers.of(J).terms.__getitem__, reads, space.dim)
    terms = {beta: _laurent(space, *term) for beta, term in terms.items()}
    return J._new({J.zero_beta: HbarLaurent(space, {0: start}), **terms})


def h_factor(space: AmbientSpace, l, beta) -> HbarLaurent:
    """The finite linear-factor product a bundle summand contributes at beta.

    Convex summands multiply (c1 + k*hbar) for k = 0..<c1,beta>; concave
    ones for k = <c1,beta>+1..-1.  An empty range gives 1.  It is the
    summand's ``i_function`` row: 1 twisted by ``_twist_terms``.
    """
    l = tuple(_integer(x) for x in l)
    beta = space.check_curve_class(beta)
    rows = _I_ROWS[classify(l)]  # refuses a mixed multidegree before its length is checked
    read = (l, space.divisor(l), *rows)
    [term] = _twist_terms(space, [beta], lambda _: (0, space.unit().num, 1), [read], space.dim).values()
    return _laurent(space, *term)


def i_function(g: GeometrySpec, max_degree: int) -> QSeries:
    """Twisted series: for beta != 0, I_beta = J_beta times each summand's
    (c1 + k hbar), k = 0..n if convex and k = n+1..-1 if concave, at
    n = <L, beta>: e(E_conv) K_beta, each term one class (``_twist_terms``).

    The beta = 0 term is the Euler class of the bundle.  For a concave
    summand the degree-zero twist is taken as the Euler factor rather than an
    empty product, so the series starts where the geometry actually starts
    (zero when the Euler class vanishes on the ambient).
    """
    return _series(g.space, max_degree, euler_class(g.space, g.bundle), _reads(g, _I_ROWS))


def i_prime(g: GeometrySpec, max_degree: int) -> QSeries:
    """The twisted series I' that starts at 1 (Coates-Givental): for
    beta != 0, I'_beta = e(E_conc) K_beta, each concave summand's row read
    through k = 0 (its c1), so without concave summands I' is K and e(E) I'
    is ``i_function`` exactly.  The counts read only three hbar layers of it,
    which ``_count_layers`` builds by the same loop."""
    return _series(g.space, max_degree, g.space.unit(), _reads(g, _I_PRIME_ROWS))


def _count_layers(g: GeometrySpec, max_degree: int) -> _Layers:
    """The layers of ``i_prime`` that the counts read, in integers: its q^beta
    term hbar^delta c(p/hbar), delta = -<combined degrees, beta> <= 0 under
    positivity, has them as c's parts of degree delta..delta + 2, so c is kept
    on the degree <= 2 basis prefix (``_twist_terms`` at top = 2), its tables
    grown to degree 2 only, and a class at delta < -2 is left out unbuilt."""
    space = g.space
    D = QSeries(space, max_degree).max_degree  # refuses a degree that is not a non-negative integer
    combined = _combined_degrees(g)
    classes = [beta for beta in all_curve_classes(space, D)[1:] if _pairing(combined, beta) <= 2]
    return _Layers(space, D, _twist_terms(space, classes, _j_terms(space, D, 2), _reads(g, _I_PRIME_ROWS), 2))


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
