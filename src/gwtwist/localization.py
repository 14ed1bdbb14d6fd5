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
factor per unordered pair {i, j} and degree delta, and the vertex factors
per label, are integer numerator-denominator pairs.  The graphs are then
summed in groups, each group one term added, with one gcd, to one running
numerator over one running denominator, so a draw builds one Fraction:

* a single edge of degree d contributes one term per unordered pair, its
  listings marked at either end and in either orientation taken together;
* at degree 2 the chains (a, j, c) contribute one term per middle label j.
  Marked at j, a chain's smoothing omega_1 * omega_2 cancels its two end
  flags, so those chains sum to 1/2 mid_j ev_j (sum_a E(a, j))^2, with
  E(a, j) the degree-one edge entry and mid_j the two-valent vertex factor.
  Marked at an end, a chain keeps its own term inside the group, because
  its smoothing 2 W_j - W_a - W_c couples a and c; the group sums them over
  the lcm of its edge denominators and the lcm of its smoothings.

Every collision check runs before any term is summed, so a draw is refused
exactly when one of its graphs would be.  The sum still covers every fixed
locus that ``enumerate_graphs`` lists.  Every term is homogeneous of degree
(integrand degree - virtual dimension) in the weights, so the sum at the
W_i is multiplied once by c to minus that degree.

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
from itertools import combinations
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
    once per (r, d) and shared.  ``localized_invariant`` sums over exactly
    these fixed loci, in the groups the module docstring describes, and the
    CLI reports their number as ``graphs_evaluated``.

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

    ``edges[delta][i][j]`` holds the edge's bundle factor over its
    normal-bundle factor as one numerator and denominator.  The entry is
    symmetric in i and j, because the bundle product's range is invariant
    under a -> delta*l - a and the normal product's under a -> delta - a, so
    each unordered pair is computed once.  An edge character that hits a
    fixed-point weight raises WeightCollision.  ``middle[v]`` holds the
    numerator and denominator of the bundle factor at a two-valent vertex
    labeled v, its numerator times prod_{m != v} (W_v - W_m).
    """
    labels = range(r + 1)
    edges = [None]
    for delta in range(1, d + 1):
        table = [[None] * (r + 1) for _ in labels]
        for i, j in combinations(labels, 2):
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
            if normal == 0:
                raise WeightCollision("edge character hits a fixed-point weight")
            characters = 2 * delta + (r - 1) * (delta + 1)
            table[i][j] = table[j][i] = (bundle * delta**characters, delta**factors * normal)
        edges.append(table)
    tangent = [prod(W[v] - W[m] for m in labels if m != v) for v in labels]
    middle = [
        (prod(l * w for l in lines if l < 0) * t, prod(l * w for l in lines if l > 0))
        for w, t in zip(W, tangent)
    ]
    return edges, middle


def _chains_through(j: int, W, edges, middle, ev, psi_power: int):
    """The two-edge chains (a, j, c) with middle label j, as one numerator
    and denominator: the marked-at-j chains as one square, which vanishes
    with psi > 0, and the end-marked ones one term per (a, c) over the lcm
    of the group's edge denominators and the lcm of its smoothings."""
    top, bottom = middle[j]
    if bottom == 0:
        raise WeightCollision("bundle vertex weight vanishes")
    ends = [v for v in range(len(W)) if v != j]
    smoothings = [[2 * W[j] - W[a] - W[c] for c in ends] for a in ends]
    # checked as for every end-marked graph, though a vanishing smoothing
    # puts W_j halfway between W_a and W_c, where the double cover of (a, c)
    # has already hit an edge character in the tables
    if any(0 in row for row in smoothings):
        raise WeightCollision("node-smoothing weight vanishes")
    # E(v, j) = E(j, v) = t[v] / B
    pairs = [edges[1][v][j] for v in ends]
    B = lcm(*(den for _, den in pairs))
    t = [num * (B // den) for num, den in pairs]
    S = lcm(*(s for row in smoothings for s in row))
    # the unmarked end c divides the Euler class by its flag W_c - W_j
    far = [(W[c] - W[j]) * tc for c, tc in zip(ends, t)]
    total = 2 * sum(
        ev[a] * (W[j] - W[a]) ** psi_power * ta * sum(f * (S // s) for f, s in zip(far, row))
        for a, ta, row in zip(ends, t, smoothings)
    )
    if psi_power == 0:
        total += ev[j] * S * sum(t) ** 2
    return top * total, 2 * bottom * B * B * S


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
    _require_shape(r, d)
    if len(weights) != r + 1:
        raise WeightCollision(f"need {r + 1} weights for P^{r}", got=len(weights))
    excess = _require_top_degree(r, d, lines, psi_power, ev_power)
    if 0 in lines:
        raise Unclassifiable("zero twist has no type")
    c = lcm(*(w.denominator for w in weights.values))
    W = [w.numerator * (c // w.denominator) for w in weights.values]
    edges, middle = _tables(r, d, lines, W)
    ev = [w**ev_power for w in W]
    sign = (-1) ** psi_power
    # one edge of degree d: its listings (either orientation, marked at
    # either end) are one term per unordered pair.  Those marked at i add up
    # to the factor 1/d, times the flag (W_j - W_i)/d once per psi power and
    # once from the unmarked end; marked at j, the flag changes sign
    terms = []
    for i, j in combinations(range(r + 1), 2):
        top, bottom = edges[d][i][j]
        flag = W[j] - W[i]
        terms.append(
            (top * flag ** (psi_power + 1) * (ev[i] - sign * ev[j]), bottom * d ** (psi_power + 2))
        )
    if d == 2:
        terms += [_chains_through(j, W, edges, middle, ev, psi_power) for j in range(r + 1)]
    # every collision check has run; total / common += num / den, over the
    # lcm of the two denominators
    total, common = 0, 1
    for num, den in terms:
        if num:
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
