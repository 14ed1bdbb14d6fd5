"""The three hbar layers of I' against their closed form.

With p_i = hbar rho_i, the q^beta term of I' for a convex bundle is
hbar^delta F_beta(p/hbar), delta = sum_j d_j - sum_i (r_i+1) beta_i, with

    F_beta(rho) = prod_j prod_{k=1}^{d_j} (L_j.rho + k)
                  / prod_i prod_{k=1}^{beta_i} (rho_i + k)^(r_i+1),

d_j = <L_j, beta>.  Its hbar^0, hbar^-1 and hbar^-2 layers are the parts of
degree delta, delta + 1 and delta + 2 of F_beta's Taylor series at rho = 0,
which the logarithmic derivatives give with harmonic numbers H_n and H_n^(2)
(the Frobenius method of Hosono-Klemm-Theisen-Yau, hep-th/9406055):

    F(0) = prod_j d_j! / prod_i (beta_i!)^(r_i+1),
    d_a log F(0) = sum_j L_ja H_{d_j} - (r_a+1) H_{beta_a},
    d_a d_b log F(0) = -sum_j L_ja L_jb H^(2)_{d_j} + [a = b] (r_a+1) H^(2)_{beta_a}.

So g = 1 + sum_{delta=0} F(0) q^beta, s = sum_{delta=-1} F(0) q^beta,
div_a = sum_{delta=0} d_a F(0) q^beta, and the hbar^-2 layer paired with
D e(E) (integral of (sum_i p_i) prod_j (L_j.p) c) is read off F, dF and
d^2 F at rho = 0.  The reference below is plain ``Fraction`` arithmetic and
shares no code with ``twist``, ``ring`` or ``normal_form``; the engine side
is read from the counts' layers (``twist._count_layers``) and from the full
``i_prime``.
"""

from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from gwtwist import AmbientSpace, BundleSpec, GeometrySpec, i_prime, invariants, mirror, twist
from gwtwist.series import _Layers

GEOMETRIES = {
    "quintic": ((4,), ((5,),), 12),
    "bicubic": ((2, 2), ((3, 3),), 5),
    "p2xp1xp1-o322": ((2, 1, 1), ((3, 2, 2),), 6),
    "p5-o3-o3": ((5,), ((3,), (3,)), 10),
    "p4-o3": ((4,), ((3,),), 10),
    "p3-o2": ((3,), ((2,),), 10),
    "p1xp1-o11": ((1, 1), ((1, 1),), 6),
    "p7-o2x4": ((7,), ((2,), (2,), (2,), (2,)), 8),
    "p2xp2-o10-o03": ((2, 2), ((1, 0), (0, 3)), 6),
}


def _harmonic(n: int, power: int = 1) -> Fraction:
    return sum((Fraction(1, k**power) for k in range(1, n + 1)), Fraction(0))


def _top_pairing(factors, lines):
    """m -> integral of (sum_i p_i) prod_j (L_j.p) p^m: the coefficient of
    the top monomial prod_i p_i^(r_i) in the expanded product."""
    n = len(factors)
    units = [tuple(int(i == a) for i in range(n)) for a in range(n)]
    poly = {u: 1 for u in units}
    for l in lines:
        out = {}
        for e, x in poly.items():
            for a, u in enumerate(units):
                if l[a]:
                    key = tuple(map(sum, zip(e, u)))
                    out[key] = out.get(key, 0) + x * l[a]
        poly = out

    def weight(m) -> int:
        return poly.get(tuple(r - x for r, x in zip(factors, m)), 0)

    return weight


def _closed_form(factors, lines, D):
    """g, s, (div_a) and the paired hbar^-2 layer, each {beta: Fraction},
    and the three layers themselves, {(beta, m): the p^m coefficient}."""
    n = len(factors)
    weight = _top_pairing(factors, lines)
    g, s, div, paired, layers = {(0,) * n: Fraction(1)}, {}, [{} for _ in factors], {}, {}
    for beta in product(range(D + 1), repeat=n):
        if not 0 < sum(beta) <= D:
            continue
        d = [sum(x * b for x, b in zip(l, beta)) for l in lines]
        delta = sum(d) - sum((r + 1) * b for r, b in zip(factors, beta))
        if delta < -2:
            continue
        F = Fraction(prod(map(factorial, d)), prod(factorial(b) ** (r + 1) for r, b in zip(factors, beta)))
        A = [sum(l[a] * _harmonic(dj) for l, dj in zip(lines, d)) - (factors[a] + 1) * _harmonic(beta[a])
             for a in range(n)]

        def second(a, b):  # the rho_a rho_b Taylor coefficient of F
            B = -sum(l[a] * l[b] * _harmonic(dj, 2) for l, dj in zip(lines, d))
            if a == b:
                B += (factors[a] + 1) * _harmonic(beta[a], 2)
            return F * (A[a] * A[b] + B) / (2 if a == b else 1)

        unit = [tuple(int(i == a) for i in range(n)) for a in range(n)]
        taylor = {(0,) * n: F, **{unit[a]: F * A[a] for a in range(n)}}
        taylor.update((tuple(map(sum, zip(unit[a], unit[b]))), second(a, b)) for a in range(n) for b in range(a, n))
        # p_i^(r_i+1) = 0 in the ring
        layers.update(((beta, m), x) for m, x in taylor.items()
                      if 0 <= sum(m) - delta <= 2 and all(e <= r for e, r in zip(m, factors)))
        if delta == 0:
            g[beta] = F
            for a in range(n):
                div[a][beta] = F * A[a]
            y = sum(second(a, b) * weight(tuple(map(sum, zip(unit[a], unit[b]))))
                    for a in range(n) for b in range(a, n))
        elif delta == -1:
            s[beta] = F
            y = sum(F * A[a] * weight(unit[a]) for a in range(n))
        else:
            y = F * weight((0,) * n)
        paired[beta] = y
    return [{b: x for b, x in t.items() if x} for t in (g, s, *div, paired, layers)]


def _engine(S: _Layers, g: GeometrySpec):
    nf = mirror.normal_form(S, g.space.unit())
    [(row, den)] = invariants._pairing(g)
    paired, layers = {}, {}
    for beta, (delta, num, d) in S.terms.items():
        x = sum(w * c for w, c, e in zip(row, num, g.space.basis) if sum(e) == delta + 2)
        if x:
            paired[beta] = Fraction(x, den * d)
        layers.update(((beta, e), Fraction(c, d)) for c, e in zip(num, g.space.basis) if c and 0 <= sum(e) - delta <= 2)
    return [nf.g.terms, nf.string.terms, *(f.terms for f in nf.divisor_part), paired, layers]


@pytest.mark.parametrize("name", GEOMETRIES)
def test_three_layers_match_their_closed_form(name):
    factors, lines, D = GEOMETRIES[name]
    g = GeometrySpec(AmbientSpace(factors), BundleSpec(lines))
    want = _closed_form(factors, lines, D)
    assert _engine(twist._count_layers(g, D), g) == want
    assert _engine(_Layers.of(i_prime(g, D)), g) == want
    assert want[-1]
    # the pairing reads p^m with |m| = dim - 1 - rank, which no class of a
    # Fano case carries at delta + 2
    assert bool(want[-2]) == (name not in ("p4-o3", "p3-o2", "p2xp2-o10-o03"))
