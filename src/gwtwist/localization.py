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

Each weight draw is tabulated once.  At the integer weights W_i = c w_i,
c the lcm of the weights' denominators, each edge's bundle over normal-bundle
factor per ordered pair (i, j) and degree delta, and the vertex factors per
label, are integer numerator-denominator pairs.  A graph multiplies its
entries with its flag, smoothing, ev and psi factors and adds the term, with
one gcd, to one running numerator over one running denominator, so a draw
builds one Fraction.  Every term is homogeneous of degree (integrand degree
- virtual dimension) in the weights, so the sum at the W_i is multiplied
once by c to minus that degree.

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
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd, lcm, prod
from numbers import Integral

from .errors import DegreeOutOfScope, Unclassifiable, Unsupported, WeightCollision, _exact

MAX_DEGREE = 2
WEIGHT_POOL = range(1, 98)


@dataclass(frozen=True)
class TorusWeights:
    """Pairwise-distinct rational weights, one per fixed point of P^r;
    a float is refused."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(_exact(v) for v in self.values)
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


def _require_shape(r: int, d: int) -> None:
    """Refuse a P^r or a degree the graph sums do not cover, before any
    weight is drawn: r and d must be integers, r >= 1 and d in 1..2."""
    for name, value in (("r", r), ("d", d)):
        if not isinstance(value, Integral):
            raise ValueError(f"{name} = {value!r} is not an integer")
    if r < 1:
        raise ValueError(f"r = {r} is below 1; P^r needs r >= 1")
    if not 1 <= d <= MAX_DEGREE:
        raise DegreeOutOfScope(
            f"fixed-point sums are shipped for degrees 1..{MAX_DEGREE}", degree=d
        )


@lru_cache(maxsize=None, typed=True)
def enumerate_graphs(r: int, d: int) -> tuple[FixedGraph, ...]:
    """All decorated graphs for degree d on P^r with one marked point, built
    once per (r, d) and shared: every weight draw sums over the same tuple.

    Degree 1: both orientations of each edge, marking at either position,
    listed with factor 1/2 (every stratum appears twice).  Degree 2: the
    double cover of an edge with the marking at its first-listed end and
    the deck factor 1/2; and two unit edges through a middle vertex, with
    the end marking listed at the first vertex (factor 1, equal outer labels
    allowed) or the marking at the middle (factor 1/2).
    """
    _require_shape(r, d)
    labels = range(r + 1)
    half, one = Fraction(1, 2), Fraction(1)
    graphs = []
    if d == 1:
        for i in labels:
            for j in labels:
                if i == j:
                    continue
                for mark in (0, 1):
                    graphs.append(FixedGraph((i, j), (1,), mark, half))
        return tuple(graphs)
    for i in labels:
        for j in labels:
            if i != j:
                graphs.append(FixedGraph((i, j), (2,), 0, half))
    for j in labels:
        for a in labels:
            if a == j:
                continue
            for c in labels:
                if c == j:
                    continue
                graphs.append(FixedGraph((a, j, c), (1, 1), 0, one))
                graphs.append(FixedGraph((a, j, c), (1, 1), 1, half))
    return tuple(graphs)


def _require_top_degree(r: int, d: int, lines, psi_power: int, ev_power: int) -> int:
    """Refuse powers that are not non-negative integers and an integrand of
    degree above the virtual dimension, before any weight arithmetic; return
    the dimension minus the integrand degree."""
    for name, value in (("psi_power", psi_power), ("ev_power", ev_power)):
        if not isinstance(value, Integral) or value < 0:
            raise ValueError(f"{name} = {value!r} is not a non-negative integer")
    degree = ev_power + psi_power
    for l in lines:
        if not isinstance(l, Integral):
            raise ValueError(f"twist {l!r} is not an integer")
        degree += l * d + 1 if l > 0 else -l * d - 1
    dimension = r + (r + 1) * d - 2
    if degree > dimension:
        raise Unsupported(
            "integrand degree exceeds the virtual dimension; the graph sum "
            "would depend on the weights",
            integrand_degree=degree,
            virtual_dimension=dimension,
        )
    return dimension - degree


def _tables(r: int, d: int, lines, W):
    """The per-draw tables at the integer weights W.

    ``edges[i, j, delta]`` holds the edge's bundle factor over its
    normal-bundle factor as one numerator and denominator (denominator 0
    when an edge character hits a fixed-point weight).  ``middle[v]`` holds
    the numerator and denominator of the bundle factor at a two-valent
    vertex labeled v, its numerator times prod_{m != v} (W_v - W_m).
    """
    labels = range(r + 1)
    edges = {}
    for delta in range(1, d + 1):
        for i, j in permutations(labels, 2):
            wi, wj = W[i], W[j]
            bundle, factors = 1, 0
            for l in lines:
                ks = range(0, delta * l + 1) if l > 0 else range(delta * l + 1, 0)
                for a in ks:
                    bundle *= delta * l * wj + a * (wi - wj)
                factors += len(ks)
            normal = (-1) ** delta * factorial(delta) ** 2 * (wi - wj) ** (2 * delta)
            for m in labels:
                if m != i and m != j:
                    for a in range(delta + 1):
                        normal *= a * wi + (delta - a) * wj - delta * W[m]
            characters = 2 * delta + (r - 1) * (delta + 1)
            edges[i, j, delta] = (bundle * delta**characters, delta**factors * normal)
    tangent = [prod(W[v] - W[m] for m in labels if m != v) for v in labels]
    middle = [
        (prod(l * w for l in lines if l < 0) * t, prod(l * w for l in lines if l > 0))
        for w, t in zip(W, tangent)
    ]
    return edges, middle


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
    graphs = enumerate_graphs(r, d)
    if len(weights) != r + 1:
        raise WeightCollision(f"need {r + 1} weights for P^{r}", got=len(weights))
    excess = _require_top_degree(r, d, lines, psi_power, ev_power)
    if 0 in lines:
        raise Unclassifiable("zero twist has no type")
    c = lcm(*(w.denominator for w in weights.values))
    W = [w.numerator * (c // w.denominator) for w in weights.values]
    edges, middle = _tables(r, d, lines, W)
    ev = [w**ev_power for w in W]
    total, common = 0, 1
    for g in graphs:
        vs, ds, marked = g.vertices, g.degrees, g.marked
        last = len(vs) - 1
        num, den = g.auto.numerator, g.auto.denominator
        for k, delta in enumerate(ds):
            top, bottom = edges[vs[k], vs[k + 1], delta]
            if bottom == 0:
                raise WeightCollision("edge character hits a fixed-point weight")
            num, den = num * top, den * bottom
        if last == 2:
            top, bottom = middle[vs[1]]
            if bottom == 0:
                raise WeightCollision("bundle vertex weight vanishes")
            # both edges of a two-edge graph have degree 1
            om1, om2 = W[vs[1]] - W[vs[0]], W[vs[1]] - W[vs[2]]
            smoothing = om1 * om2 if marked == 1 else om1 + om2
            if smoothing == 0:
                raise WeightCollision("node-smoothing weight vanishes")
            num, den = num * top, den * bottom * smoothing
        num *= ev[vs[marked]]
        if psi_power:
            # minus the flag weight at an end marking, 0 at the middle one
            nbr, delta = (1, ds[0]) if marked == 0 else (last - 1, ds[-1])
            flag = W[vs[nbr]] - W[vs[marked]] if marked in (0, last) else 0
            num, den = num * flag**psi_power, den * delta**psi_power
        if num == 0:
            # skipped only once the draw's Euler-class checks have passed
            continue
        for v, nbr, delta in ((0, 1, ds[0]), (last, last - 1, ds[-1])):
            if v != marked:
                # an unmarked end divides the Euler class by its flag weight
                num, den = num * (W[vs[v]] - W[vs[nbr]]), den * delta
        # total / common += num / den, over the lcm of the two denominators
        shared = gcd(common, den)
        total = total * (den // shared) + num * (common // shared)
        common *= den // shared
    return Fraction(total * c**excess, common)


def draw_weights(r: int, rng: random.Random) -> TorusWeights:
    """Distinct small integer weights from a caller-owned generator.  P^r
    needs r + 1 of them; more than the pool holds raises Unsupported."""
    if r + 1 > len(WEIGHT_POOL):
        raise Unsupported(
            f"P^{r} needs {r + 1} distinct weights; the pool holds {len(WEIGHT_POOL)}",
            r=r,
            pool=len(WEIGHT_POOL),
        )
    vals = rng.sample(WEIGHT_POOL, r + 1)
    return TorusWeights(tuple(Fraction(v) for v in vals))


def oracle_n_value(r: int, d: int, lines, seed: int = 0):
    """Curve count per degree via the graph sum: the divisor-inserted
    integral divided by d.  Redraws weights until no denominator collides.
    """
    _require_shape(r, d)
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
