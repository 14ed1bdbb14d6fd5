"""Independent fixed-point check for low-degree one-point invariants.

This module re-derives the engine's curve counts for X = P^r at degrees 1
and 2 by summing over torus-fixed loci of the one-pointed stable-map space.
It deliberately shares no series machinery with the pipeline: plain integer
weights, explicit graph sums, rational arithmetic.  Fixed loci are labeled
by decorated path graphs; each contributes

    (automorphism factor) * (bundle weight) * ev/psi restrictions
        / (equivariant Euler class of the virtual normal bundle),

and the total is independent of the chosen weights, which is the module's
own strongest self-test.

Weight recipe per graph, with w_i the fixed-point weights and
omega = (w_i - w_j)/delta the tangent weight of an edge at its i-end:

* edge of degree delta between fixed points i, j contributes to the normal
  Euler class (-1)^delta (delta!)^2 delta^(-2 delta) (w_i - w_j)^(2 delta)
  times prod over other fixed points m of
  prod_{a=0}^{delta} ((a w_i + (delta-a) w_j)/delta - w_m);
* each vertex v contributes (prod_{m != lab(v)} (w_v - w_m))^(1 - val(v));
* an unmarked two-valent vertex contributes the node-smoothing factor
  (omega_1 + omega_2); a marked one contributes omega_1 * omega_2;
* each unmarked one-valent vertex divides the Euler class by its flag
  weight omega;
* a convex summand O(l) multiplies the contribution by
  prod_{a=0}^{delta*l} (l w_j + a omega) per edge and (l w_v)^(1-val(v))
  per vertex; a concave summand uses the range a = delta*l+1..-1 and
  (l w_v)^(val(v)-1);
* the evaluation insertion restricts to w_mark^b; the psi-class restricts
  to -omega at an end marking and 0 at a middle marking.

A vanishing factor in any denominator means the drawn weights are too
special; WeightCollision asks the caller to redraw.

The sum is weight-independent only when the integrand's degree is at most
the virtual dimension r + (r+1)d - 2 of the one-pointed moduli space.  The
integrand degree is the rank of the bundle's contribution, l*d + 1 per
convex summand and -l*d - 1 per concave one, plus the evaluation power b
and the psi power a.  A larger degree leaves a polynomial in the weights,
so Unsupported is raised instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DegreeOutOfScope, Unclassifiable, Unsupported, WeightCollision

MAX_DEGREE = 2
WEIGHT_POOL = range(1, 98)


@dataclass(frozen=True)
class TorusWeights:
    """Pairwise-distinct rational weights, one per fixed point of P^r."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        if len(set(vals)) != len(vals):
            raise WeightCollision("weights must be pairwise distinct")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class FixedGraph:
    """A decorated path graph labeling a fixed locus.

    ``vertices`` are fixed-point labels along the path, ``degrees`` the edge
    degrees between consecutive ones, ``marked`` the vertex index carrying
    the marked point, and ``auto`` the factor this listing enters with.
    """

    vertices: tuple[int, ...]
    degrees: tuple[int, ...]
    marked: int
    auto: Fraction

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)


def enumerate_graphs(r: int, d: int, n: int = 1):
    """All decorated graphs for degree d on P^r with one marked point.

    Degree 1: both orientations of each edge, marking at either position,
    listed with factor 1/2 (every stratum appears twice).  Degree 2: the
    double cover of an edge with the marking at its first-listed end and
    the deck factor 1/2; and two unit edges through a middle vertex, with
    the end marking listed at the first vertex (factor 1, equal outer labels
    allowed) or the marking at the middle (factor 1/2).
    """
    if n != 1:
        raise DegreeOutOfScope("only one marked point is supported", points=n)
    if not 1 <= d <= MAX_DEGREE:
        raise DegreeOutOfScope(
            f"fixed-point sums are shipped for degrees 1..{MAX_DEGREE}", degree=d
        )
    labels = range(r + 1)
    graphs = []
    if d == 1:
        for i in labels:
            for j in labels:
                if i == j:
                    continue
                for mark in (0, 1):
                    graphs.append(
                        FixedGraph((i, j), (1,), mark, Fraction(1, 2))
                    )
        return graphs
    for i in labels:
        for j in labels:
            if i != j:
                graphs.append(FixedGraph((i, j), (2,), 0, Fraction(1, 2)))
    for j in labels:
        for a in labels:
            if a == j:
                continue
            for c in labels:
                if c == j:
                    continue
                graphs.append(FixedGraph((a, j, c), (1, 1), 0, Fraction(1)))
                graphs.append(FixedGraph((a, j, c), (1, 1), 1, Fraction(1, 2)))
    return graphs


def _flag_weight(g: FixedGraph, w: TorusWeights, vertex: int, edge: int) -> Fraction:
    other = edge if vertex == edge + 1 else edge + 1
    return Fraction(w[g.vertices[vertex]] - w[g.vertices[other]], g.degrees[edge])


def _normal_euler(g: FixedGraph, r: int, w: TorusWeights) -> Fraction:
    nv = len(g.vertices)
    valence = [1] * nv
    for k in range(1, nv - 1):
        valence[k] = 2
    total = Fraction(1)
    for k, delta in enumerate(g.degrees):
        wi = w[g.vertices[k]]
        wj = w[g.vertices[k + 1]]
        if wi == wj:
            raise WeightCollision("edge endpoints share a weight")
        factor = Fraction((-1) ** delta) * factorial(delta) ** 2
        factor *= (wi - wj) ** (2 * delta)
        factor /= Fraction(delta ** (2 * delta))
        for m in range(r + 1):
            if m in (g.vertices[k], g.vertices[k + 1]):
                continue
            for a in range(delta + 1):
                t = Fraction(a * wi + (delta - a) * wj, delta) - w[m]
                if t == 0:
                    raise WeightCollision("edge character hits a fixed-point weight")
                factor *= t
        total *= factor
    for v in range(nv):
        tangent = Fraction(1)
        for m in range(r + 1):
            if m != g.vertices[v]:
                tangent *= w[g.vertices[v]] - w[m]
        total *= tangent ** (1 - valence[v])
    for v in range(nv):
        if valence[v] != 2:
            continue
        om1 = _flag_weight(g, w, v, v - 1)
        om2 = _flag_weight(g, w, v, v)
        if g.marked == v:
            total *= om1 * om2
        else:
            s = om1 + om2
            if s == 0:
                raise WeightCollision("node-smoothing weight vanishes")
            total *= s
    for v in (0, nv - 1):
        if g.marked == v:
            continue
        edge = 0 if v == 0 else nv - 2
        om = _flag_weight(g, w, v, edge)
        if om == 0:
            raise WeightCollision("flag weight vanishes")
        total /= om
    return total


def _bundle_weight(g: FixedGraph, lines, w: TorusWeights) -> Fraction:
    nv = len(g.vertices)
    valence = [1] * nv
    for k in range(1, nv - 1):
        valence[k] = 2
    total = Fraction(1)
    for l in lines:
        l = int(l)
        if l == 0:
            raise Unclassifiable("zero twist has no type")
        for k, delta in enumerate(g.degrees):
            wi = w[g.vertices[k]]
            wj = w[g.vertices[k + 1]]
            omega = Fraction(wi - wj, delta)
            if l > 0:
                ks = range(0, delta * l + 1)
            else:
                ks = range(delta * l + 1, 0)
            for a in ks:
                total *= l * wj + a * omega
        for v in range(nv):
            base = Fraction(l * w[g.vertices[v]])
            exponent = (1 - valence[v]) if l > 0 else (valence[v] - 1)
            if exponent < 0 and base == 0:
                raise WeightCollision("bundle vertex weight vanishes")
            total *= base ** exponent
    return total


def _require_top_degree(r: int, d: int, lines, psi_power: int, ev_power: int):
    """Refuse an integrand of degree above the virtual dimension."""
    degree = ev_power + psi_power
    for l in lines:
        l = int(l)
        degree += l * d + 1 if l > 0 else -l * d - 1
    dimension = r + (r + 1) * d - 2
    if degree > dimension:
        raise Unsupported(
            "integrand degree exceeds the virtual dimension; the graph sum "
            "would depend on the weights",
            integrand_degree=degree,
            virtual_dimension=dimension,
        )


def localized_invariant(
    r: int,
    d: int,
    lines,
    psi_power: int,
    ev_power: int,
    weights: TorusWeights,
) -> Fraction:
    """Graph-sum value of the one-point integral with ev^*(h)^b and psi^a.

    Exact rational; the same for every admissible weight choice.
    """
    if len(weights) != r + 1:
        raise WeightCollision(f"need {r + 1} weights for P^{r}", got=len(weights))
    _require_top_degree(r, d, lines, psi_power, ev_power)
    total = Fraction(0)
    for g in enumerate_graphs(r, d):
        contribution = g.auto * _bundle_weight(g, lines, weights)
        w_mark = weights[g.vertices[g.marked]]
        contribution *= w_mark**ev_power
        if psi_power:
            nv = len(g.vertices)
            if g.marked in (0, nv - 1):
                edge = 0 if g.marked == 0 else nv - 2
                psi = -_flag_weight(g, weights, g.marked, edge)
            else:
                psi = Fraction(0)
            contribution *= psi**psi_power
            if contribution == 0:
                continue
        total += contribution / _normal_euler(g, r, weights)
    return total


def draw_weights(r: int, rng: random.Random) -> TorusWeights:
    """Distinct small integer weights from a caller-owned generator."""
    vals = rng.sample(WEIGHT_POOL, r + 1)
    return TorusWeights(tuple(Fraction(v) for v in vals))


def oracle_n_value(r: int, d: int, lines, seed: int = 0):
    """Curve count per degree via the graph sum: the divisor-inserted
    integral divided by d.  Redraws weights until no denominator collides.
    """
    rng = random.Random(seed)
    last = None
    for _ in range(64):
        w = draw_weights(r, rng)
        try:
            value = localized_invariant(r, d, lines, 0, 1, w) / d
            return value, w
        except WeightCollision as exc:
            last = exc
    raise WeightCollision(
        "no admissible weight vector found", attempts=64
    ) from last
