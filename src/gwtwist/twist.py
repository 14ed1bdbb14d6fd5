"""Geometry data, hypothesis checks, and the twisted one-point series.

A geometry is an ambient product of projective spaces together with a split
bundle, each summand pulled back from the ambient and either convex (all
multidegree entries >= 0) or concave (all entries <= -1).  This module
classifies the summands, evaluates the positivity and triviality conditions
the downstream solver relies on, and assembles the hypergeometric series

    I(beta) = J(beta) * prod_j H_beta(L_j),

where J is the closed-form ambient series and each H factor is the finite
product of linear terms attached to a summand, and the same series started
at 1 (``i_prime``), from which the change of variables is read.

Both are built by degree recursion, since consecutive terms differ by a few
linear factors: each ambient factor gets a table A_i[d] of inverse products,
with J(beta) = prod_i A_i[beta_i], and each summand a table of H indexed by
the pairing <L, beta>, grown one factor at a time (``_linear_products``).
The tables live for one call only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpaceMismatch, Unclassifiable, Unsupported
from .ring import AmbientSpace, BundleSpec, CohClass, _check_fields, _int_list, euler_class
from .series import (
    HbarLaurent,
    QSeries,
    all_curve_classes,
    qseries_from_obj,
)

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
    l = tuple(int(x) for x in l)
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
    """Ambient space + split bundle, with an optional externally supplied J.

    Construction validates everything downstream code assumes: summands match
    the ambient, each classifies cleanly, concave summands only appear over a
    single projective space, and an external J starts with the unit class
    and is graded as the closed form is: J_beta has total degree
    -sum_i (r_i + 1) beta_i.
    """

    __slots__ = ("space", "bundle", "external_j")

    def __init__(
        self,
        space: AmbientSpace,
        bundle: BundleSpec,
        external_j: QSeries | None = None,
    ):
        bundle.validate_for(space)
        kinds = [classify(l) for l in bundle.lines]
        if CONCAVE in kinds and space.nfactors > 1:
            raise Unsupported(
                "concave summands are only supported over a single projective space",
                nfactors=space.nfactors,
            )
        if external_j is not None:
            if external_j.space != space:
                raise SpaceMismatch("external J on a different ambient space")
            expected = HbarLaurent.unit(space)
            if external_j.term(external_j.zero_beta) != expected:
                raise ValueError("external J must start with the unit class")
            for beta, hl in external_j.terms.items():
                want = -sum((r + 1) * d for r, d in zip(space.factors, beta))
                if hl.delta != want:
                    raise ValueError(
                        f"external J at beta = {list(beta)} has total degree {hl.delta}, not {want}"
                    )
        self.space = space
        self.bundle = bundle
        self.external_j = external_j

    def convex_lines(self):
        return tuple(l for l in self.bundle.lines if classify(l) == CONVEX)

    def concave_lines(self):
        return tuple(l for l in self.bundle.lines if classify(l) == CONCAVE)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeometrySpec)
            and self.space == other.space
            and self.bundle == other.bundle
            and self.external_j == other.external_j
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


def _linear_products(space: AmbientSpace, c: CohClass, first: int, step: int):
    """Return m -> prod_{j=0}^{m-1} (c + (first + j*step) hbar); row 0 is 1.

    Row m is row m-1 times one linear factor.  Rows are tabulated on first
    use, so reading rows 0..M costs M Laurent products in all; the table
    lives as long as the returned function.
    """
    rows = [HbarLaurent.unit(space)]

    def row(m: int) -> HbarLaurent:
        while len(rows) <= m:
            k = first + (len(rows) - 1) * step
            rows.append(rows[-1] * HbarLaurent.linear(space, c, k))
        return rows[m]

    return row


def _twist_table(space: AmbientSpace, l):
    """Return n -> H(L) at pairing n = <L, beta> for one classified summand.

    Convex: H[n] = prod_{k=0}^{n} (c1 + k hbar), so H[0] = c1 and
    H[n] = H[n-1] (c1 + n hbar).  Concave: H[n] = prod_{k=n+1}^{-1}
    (c1 + k hbar), so H[0] = H[-1] = 1 and H[n] = H[n+1] (c1 + (n+1) hbar).
    """
    c1 = space.divisor(l)
    if classify(l) == CONVEX:
        row = _linear_products(space, c1, 0, 1)
        return lambda n: row(n + 1)
    row = _linear_products(space, c1, -1, -1)
    return lambda n: row(max(-n - 1, 0))


def _prime_table(space: AmbientSpace, l):
    """Return n -> the start-1 factor of one summand at pairing n = <L, beta>:
    prod_{k=1}^{n} (c1 + k hbar) if convex, and prod_{k=n+1}^{0} (c1 + k hbar),
    the k = 0 factor c1 included, if concave (where n < 0 for beta != 0)."""
    c1 = space.divisor(l)
    if classify(l) == CONVEX:
        return _linear_products(space, c1, 1, 1)
    row = _linear_products(space, c1, 0, -1)
    return lambda n: row(-n)


def _pairing(l, beta) -> int:
    return sum(li * di for li, di in zip(l, beta))


def j_ambient(space: AmbientSpace, max_degree: int) -> QSeries:
    """Closed-form ambient series: the beta term inverts
    prod_i prod_{k=1}^{d_i} (p_i + k*hbar)^(r_i + 1), and the beta = 0 term is 1.

    Per factor the inverse is tabulated by degree, A_i[0] = 1 and
    A_i[d] = A_i[d-1] * ((p_i + d*hbar)^(r_i+1))^-1; the beta term is then
    prod_i A_i[beta_i].  Each inverse is exact (p_i is nilpotent).
    """
    tables = []
    for i, r in enumerate(space.factors):
        p = space.hyperplane(i)
        rows = [HbarLaurent.unit(space)]
        for d in range(1, max_degree + 1):
            # step 0: row r+1 is (p_i + d*hbar)^(r_i+1)
            power = _linear_products(space, p, d, 0)(r + 1)
            rows.append(rows[-1] * power.invert())
        tables.append(rows)
    terms = {}
    for beta in all_curve_classes(space, max_degree):
        out = None
        for rows, d_i in zip(tables, beta):
            if d_i:
                out = rows[d_i] if out is None else out * rows[d_i]
        terms[beta] = HbarLaurent.unit(space) if out is None else out
    return QSeries(space, max_degree, terms)


def _ambient_series(g: GeometrySpec, max_degree: int) -> QSeries:
    """The geometry's J through ``max_degree``: the external J truncated
    (TruncationMismatch if it stops below), else the closed form."""
    if g.external_j is not None:
        return g.external_j.truncate(max_degree)
    return j_ambient(g.space, max_degree)


def h_factor(space: AmbientSpace, l, beta) -> HbarLaurent:
    """The finite linear-factor product a bundle summand contributes at beta.

    Convex summands multiply (c1 + k*hbar) for k = 0..<c1,beta>; concave ones
    for k = <c1,beta>+1..-1.  An empty range gives 1.
    """
    l = tuple(int(x) for x in l)
    beta = space.check_curve_class(beta)
    return _twist_table(space, l)(_pairing(l, beta))


def _twisted(J: QSeries, tables, start: CohClass) -> QSeries:
    """J_beta times prod_j table_j(<L_j, beta>) for beta != 0, and ``start``
    at hbar^0 for beta = 0; ``tables`` pairs each multidegree L_j with a
    row function such as ``_twist_table`` or ``_linear_products``."""
    space = J.space
    terms = {J.zero_beta: HbarLaurent(space, {0: start})}
    for beta in J.curve_classes()[1:]:
        hl = J.term(beta)
        for l, table in tables:
            hl = hl * table(_pairing(l, beta))
        terms[beta] = hl
    return QSeries(space, J.max_degree, terms)


def i_function(g: GeometrySpec, max_degree: int) -> QSeries:
    """Twisted series: J(beta) times the summand factors, for beta != 0.

    The beta = 0 term is the Euler class of the bundle.  For a concave
    summand the degree-zero twist is taken as the Euler factor rather than an
    empty product, so the series starts where the geometry actually starts
    (zero when the Euler class vanishes on the ambient).

    Each summand's factor is read from one table indexed by the pairing
    n = <L, beta> (``_twist_table``), so the series costs max |n| linear
    products per summand, not |n| per curve class.
    """
    space = g.space
    tables = [(l, _twist_table(space, l)) for l in g.bundle.lines]
    return _twisted(_ambient_series(g, max_degree), tables, euler_class(space, g.bundle))


def i_prime(g: GeometrySpec, max_degree: int) -> QSeries:
    """The twisted series I' that starts at 1 (Coates-Givental): J(beta)
    times each summand's ``_prime_table`` factor for beta != 0.  Without
    concave summands, e(E) I' is ``i_function`` exactly."""
    space = g.space
    tables = [(l, _prime_table(space, l)) for l in g.bundle.lines]
    return _twisted(_ambient_series(g, max_degree), tables, space.unit())


# -- serialization -----------------------------------------------------------


def geometry_from_obj(obj) -> GeometrySpec:
    """Read a geometry from its JSON object, refusing any other shape.

    The object has the keys ``ambient`` (a list of integers),
    ``bundle`` (a list of objects ``{"l": [integers]}``) and optionally
    ``external_j`` (a serialized series, or null; see ``qseries_from_obj``).
    Booleans, floats and strings are not integers here.  Anything else
    raises ValueError naming the field, such as ``bundle[0].l[0]`` or
    ``external_j.terms[0].hbar[0].pow``, before any arithmetic.
    """
    _check_fields(obj, "geometry", ("ambient", "bundle"), ("external_j",))
    ambient = _int_list(obj["ambient"], "ambient")
    if not isinstance(obj["bundle"], list):
        raise ValueError("bundle must be a list")
    lines = []
    for j, entry in enumerate(obj["bundle"]):
        _check_fields(entry, f"bundle[{j}]", ("l",))
        lines.append(_int_list(entry["l"], f"bundle[{j}].l"))
    ext = obj.get("external_j")
    space = AmbientSpace(ambient)
    bundle = BundleSpec(tuple(lines))
    external_j = None if ext is None else qseries_from_obj(space, ext, "external_j")
    return GeometrySpec(space, bundle, external_j)
