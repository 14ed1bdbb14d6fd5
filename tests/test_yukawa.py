"""Curve counts of complete-intersection threefolds from the Yukawa coupling.

An independent route to the n_d of a Calabi-Yau complete intersection of
degrees l_1..l_k in P^r (sum l_j = r + 1, k = r - 3), shared with nothing in
the engine: this file imports nothing from ``gwtwist`` and computes with
``Fraction`` power series in one variable only.  The recipe is the classical
one (Candelas-de la Ossa-Green-Parkes 1991; Libgober-Teitelbaum,
alg-geom/9301001; Hosono-Klemm-Theisen-Yau, hep-th/9406055):

* c(d) = prod_j (l_j d)! / (d!)^(r+1);
* omega0 = sum_d c(d) z^d and omega1 = sum_d c(d) H_d z^d, with
  H_d = sum_j l_j (h(l_j d) - h(d)) the derivative of log c at d, h the
  harmonic numbers (sum l_j = r + 1);
* the mirror map q = z exp(omega1/omega0), so t = log q has
  theta t = 1 + theta(omega1/omega0), theta = z d/dz;
* the Yukawa coupling K = kappa / ((1 - mu z) omega0^2 (theta t)^3), with
  kappa = prod l_j and mu = prod l_j^l_j, read as a series in q:
  K = kappa + sum_d n_d d^3 q^d / (1 - q^d).

``tests/test_invariants.py`` checks the pipeline against this route through
degree 8, where the fixed-point oracle stops at degree 2.
"""

import ast
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest


def _mul(a, b, N):
    out = [Fraction(0)] * (N + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(N + 1 - i):
                out[i + j] += x * b[j]
    return out


def _inverse(a, N):
    """1/a for a series with a[0] != 0."""
    out = [Fraction(0)] * (N + 1)
    out[0] = 1 / a[0]
    for n in range(1, N + 1):
        out[n] = -sum(a[k] * out[n - k] for k in range(1, n + 1)) / a[0]
    return out


def _exp(a, N):
    """exp(a) for a[0] = 0, by n E_n = sum_k k a_k E_{n-k}."""
    out = [Fraction(0)] * (N + 1)
    out[0] = Fraction(1)
    for n in range(1, N + 1):
        out[n] = sum(k * a[k] * out[n - k] for k in range(1, n + 1)) / n
    return out


def _compose(a, z, N):
    """a(z(q)) for z[0] = 0, by Horner's rule."""
    out = [Fraction(0)] * (N + 1)
    for c in reversed(a):
        out = _mul(out, z, N)
        out[0] += c
    return out


def _harmonic(n):
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def yukawa_n_numbers(r, lines, N):
    """n_1..n_N of the complete intersection of degrees ``lines`` in P^r,
    as a dict degree -> Fraction."""
    if sum(lines) != r + 1 or len(lines) != r - 3:
        raise ValueError("not a Calabi-Yau threefold in P^r")
    c = [
        Fraction(prod(factorial(l * d) for l in lines), factorial(d) ** (r + 1))
        for d in range(N + 1)
    ]
    omega0 = c
    omega1 = [
        c[d] * sum(l * (_harmonic(l * d) - _harmonic(d)) for l in lines)
        for d in range(N + 1)
    ]
    u = _mul(omega1, _inverse(omega0, N), N)  # omega1/omega0, u[0] = 0
    theta_t = [Fraction(1)] + [d * u[d] for d in range(1, N + 1)]
    kappa = prod(lines)
    mu = prod(l**l for l in lines)
    denominator = _mul(
        _mul([Fraction(1), Fraction(-mu)] + [Fraction(0)] * (N - 1), _mul(omega0, omega0, N), N),
        _mul(theta_t, _mul(theta_t, theta_t, N), N),
        N,
    )
    K_z = [kappa * x for x in _inverse(denominator, N)]
    # invert q = z exp(u(z)) degree by degree: z = q exp(-u(z))
    z = [Fraction(0), Fraction(1)] + [Fraction(0)] * (N - 1)
    for _ in range(N):
        shifted = _exp([-x for x in _compose(u, z, N)], N)
        z = [Fraction(0)] + shifted[:N]
    K_q = _compose(K_z, z, N)
    assert K_q[0] == kappa
    n = {}
    for d in range(1, N + 1):
        # K_d = sum_{k | d} n_k k^3
        rest = sum(n[k] * k**3 for k in range(1, d) if d % k == 0)
        n[d] = (K_q[d] - rest) / d**3
    return n


# Published n_1..n_4: Candelas-de la Ossa-Green-Parkes 1991 (quintic),
# Libgober-Teitelbaum alg-geom/9301001 and Hosono-Klemm-Theisen-Yau
# hep-th/9406055 (the others).
PUBLISHED = {
    (4, (5,)): (2875, 609250, 317206375, 242467530000),
    (5, (3, 3)): (1053, 52812, 6424326, 1139448384),
    (5, (4, 2)): (1280, 92288, 15655168, 3883902528),
    (6, (3, 2, 2)): (720, 22428, 1611504, 168199200),
    (7, (2, 2, 2, 2)): (512, 9728, 416256, 25703936),
}


@pytest.mark.parametrize("r, lines", sorted(PUBLISHED), ids=lambda v: str(v))
def test_yukawa_reproduces_published_counts(r, lines):
    n = yukawa_n_numbers(r, lines, 4)
    assert tuple(n[d] for d in range(1, 5)) == PUBLISHED[r, lines]


@pytest.mark.parametrize("r, lines", sorted(PUBLISHED), ids=lambda v: str(v))
def test_yukawa_counts_are_integers_through_degree_8(r, lines):
    n = yukawa_n_numbers(r, lines, 8)
    assert all(v.denominator == 1 and v > 0 for v in n.values())


def test_yukawa_route_imports_nothing_from_the_engine():
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module.split(".")[0])
    assert modules == {"ast", "fractions", "math", "pathlib", "pytest"}
