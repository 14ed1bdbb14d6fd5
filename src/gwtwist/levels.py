"""Scalar q-series per degree level, and the integer kernels on them.

Level n of a scalar series truncated at degree D is None when all its terms
vanish, else a pair (numerators, den): the integer numerators of the curve
classes of total degree n, in lex order, over one positive denominator, in
lowest terms.  So equal series have equal levels, and products, exp, log,
the substitution q -> q e^g and its inverse are integer dot products with one
gcd per level (``_settle``).  While a level is summed it is held as
``parts``, a dict {den: numerator list} standing for sum_den list/den, so
terms of one denominator, the common case, add in place.  The class tables
are pure functions of the number of factors and the degrees, as
``ring._mul_table`` is of the factors; no value outlives its call.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

_ONE = ((1,), 1)  # level 0 of a series with constant term 1


@lru_cache(maxsize=None)
def _classes_of_degree(n: int, d: int) -> tuple:
    """The curve classes of n factors and total degree d, in lex order."""
    if n == 1:
        return ((d,),)
    return tuple((k,) + rest for k in range(d + 1) for rest in _classes_of_degree(n - 1, d - k))


@lru_cache(maxsize=None)
def _class_index(n: int, d: int) -> dict:
    """The position of each class in its level, for n factors and degree d."""
    return {beta: i for i, beta in enumerate(_classes_of_degree(n, d))}


@lru_cache(maxsize=None)
def _sum_table(n: int, a: int, b: int) -> tuple:
    """Row i lists the pairs (j, k) with class i of level a plus class j of
    level b equal to class k of level a + b, for n factors."""
    index = _class_index(n, a + b)
    level_b = list(enumerate(_classes_of_degree(n, b)))
    return tuple(
        tuple((j, index[tuple(x + y for x, y in zip(alpha, gamma))]) for j, gamma in level_b)
        for alpha in _classes_of_degree(n, a)
    )


def _vec(parts: dict, den: int, size: int) -> list:
    """The numerator list of ``parts`` over ``den``, added when missing."""
    vec = parts.get(den)
    if vec is None:
        vec = parts[den] = [0] * size
    return vec


def _gather(parts: dict):
    """sum_den list / den of non-empty ``parts`` as one numerator list over
    the lcm of its denominators, not reduced."""
    if len(parts) == 1:
        [(den, num)] = parts.items()
        return num, den
    den = lcm(*parts)
    scaled = [(den // d, vec) for d, vec in parts.items()]
    return [sum(f * vec[i] for f, vec in scaled) for i in range(len(scaled[0][1]))], den


def _settle(parts: dict, div: int = 1):
    """The level sum_den list / (den * div) of ``parts``, or None when zero."""
    if not parts:
        return None
    num, den = _gather(parts)
    if not any(num):
        return None
    den *= div
    g = gcd(den, *num)
    if g != 1:
        return tuple(x // g for x in num), den // g
    return tuple(num), den


def _add_level(parts: dict, level, k: int = 1):
    """Add k times a level to ``parts``."""
    nums, den = level
    vec = _vec(parts, den, len(nums))
    for i, x in enumerate(nums):
        if x:
            vec[i] += k * x


def _levels_of(nfactors: int, max_degree: int, entries) -> list:
    """The levels of the terms (beta, numerator, den), distinct classes of
    degree at most ``max_degree``."""
    parts = [{} for _ in range(max_degree + 1)]
    for beta, num, den in entries:
        n = sum(beta)
        size = len(_classes_of_degree(nfactors, n))
        _vec(parts[n], den, size)[_class_index(nfactors, n)[beta]] = num
    return [_settle(p) for p in parts]


def _convolve_level(nfactors: int, n: int, theta, levels, parts: dict, k: int = 1):
    """Add k sum_m theta_m levels[n - m] to the level-n ``parts``, theta a
    list of (m, level) by increasing m: one level of a product and one step
    of the exp and log recurrences."""
    size = len(_classes_of_degree(nfactors, n))
    for m, (xn, dx) in theta:
        if m > n:
            break
        other = levels[n - m]
        if other is None:
            continue
        yn, dy = other
        vec = _vec(parts, dx * dy, size)
        for a, row in zip(xn, _sum_table(nfactors, m, n - m)):
            if a:
                a *= k
                for j, t in row:
                    b = yn[j]
                    if b:
                        vec[t] += a * b


def _compose_level(nfactors: int, n: int, levels, table: dict, parts: dict, k: int = 1):
    """Add k times level n of f(q e^g) = sum_beta f_beta q^beta E_beta to
    ``parts``, for f given by its levels and E_beta = exp(beta . g) read off
    the factor table of ``_invert``."""
    size = len(_classes_of_degree(nfactors, n))
    for b in range(n + 1):
        if levels[b] is None:
            continue
        nums, den = levels[b]
        m = n - b
        for beta, c, row in zip(_classes_of_degree(nfactors, b), nums, _sum_table(nfactors, b, m)):
            e = table[beta][m] if c else None
            if e is None:
                continue
            en, de = e
            vec = _vec(parts, den * de, size)
            c *= k
            for j, t in row:
                x = en[j]
                if x:
                    vec[t] += c * x


def _nonzero(nfactors: int, levels: list):
    """Each non-zero term of levels as (curve class, numerator, den), in
    graded-lex order."""
    for n, level in enumerate(levels):
        if level is not None:
            nums, den = level
            for beta, x in zip(_classes_of_degree(nfactors, n), nums):
                if x:
                    yield beta, x, den


def _scaled(levels: list, num: int, den: int) -> list:
    """The levels times num/den, for den > 0."""
    if not num:
        return [None] * len(levels)
    return [lv and _settle({lv[1] * den: [num * x for x in lv[0]]}) for lv in levels]


def _sum(x: list, y: list) -> list:
    """The levels of a sum."""
    out = []
    for a, b in zip(x, y):
        if a is None or b is None:
            out.append(a or b)
            continue
        parts: dict = {}
        _add_level(parts, a)
        _add_level(parts, b)
        out.append(_settle(parts))
    return out


def _product(nfactors: int, x: list, y: list) -> list:
    """The levels of a product, truncated at the operands' degree."""
    theta = [(m, lv) for m, lv in enumerate(x) if lv]
    out = []
    for n in range(len(x)):
        parts: dict = {}
        _convolve_level(nfactors, n, theta, y, parts)
        out.append(_settle(parts))
    return out


def _exp(nfactors: int, levels: list) -> list:
    """exp of a series without a constant term: theta(e^a) = theta(a) e^a,
    theta = sum_i q_i d/dq_i scaling level m by m, gives
    n E_n = sum_{0<m<=n} (m a_m) E_{n-m} (Brent-Kung, JACM 1978), the 1/n
    going into the level's denominator."""
    out = [_ONE] + [None] * (len(levels) - 1)
    theta = [(m, (tuple(m * x for x in lv[0]), lv[1])) for m, lv in enumerate(levels) if lv]
    for n in range(1, len(levels) if theta else 1):  # exp(0) = 1 at once
        parts: dict = {}
        _convolve_level(nfactors, n, theta, out, parts)
        out[n] = _settle(parts, n)
    return out


def _log(nfactors: int, levels: list) -> list:
    """log of a series with constant term 1: theta(log a) a = theta(a) gives
    n L_n = n a_n - sum_{0<m<n} (m L_m) a_{n-m}."""
    out = [None] * len(levels)
    theta: list = []  # (m, m L_m) found so far
    for n in range(1, len(levels) if any(levels[1:]) else 1):  # log(1) = 0 at once
        parts: dict = {}
        if levels[n] is not None:
            _add_level(parts, levels[n], n)
        _convolve_level(nfactors, n, theta, levels, parts, -1)
        out[n] = level = _settle(parts, n)
        if level is not None:
            theta.append((n, (tuple(n * x for x in level[0]), level[1])))
    return out


def _compose(nfactors: int, levels: list, table: dict) -> list:
    """The levels of f(q e^g), for f given by its levels and the factor
    table of ``_invert`` built for g."""
    out = []
    for n in range(len(levels)):
        parts: dict = {}
        _compose_level(nfactors, n, levels, table, parts)
        out.append(_settle(parts))
    return out


def _invert(nfactors: int, classes: list, h: list, k: list):
    """The levels of g with g + h(q e^g) = k, and the factor table
    {beta: E_beta} over ``classes``, every curve class up to the degree D,
    for h and k given by the levels of one dial per factor.

    The degree-n terms of h(q e^g) = sum_beta h_beta q^beta E_beta, with
    E_beta = exp(beta . g), read g only below degree n.  Round n therefore
    grows each E_beta by one level of the ``_exp`` recurrence and sets
    g_n = k_n - [h(q e^g)]_n.  E_beta holds its levels 0..D - |beta|.
    """
    D = len(k[0]) - 1
    table = {beta: [_ONE] + [None] * (D - sum(beta)) for beta in classes}
    g = [list(f) for f in k]
    if not any(any(f) for f in (*h, *k)):
        return g, table  # g = 0, and every factor is exp(0) = 1
    # per beta != 0: the (m, m (beta . g)_m) levels of theta(beta . g) so far
    theta: dict = {beta: [] for beta in classes[1:]}
    for n in range(1, D + 1):
        for b in range(1, n):
            m = n - b
            for beta in _classes_of_degree(nfactors, b):
                parts: dict = {}
                for x, gi in zip(beta, g):
                    if x and gi[m] is not None:
                        _add_level(parts, gi[m], x * m)
                level, th = _settle(parts), theta[beta]
                if level is not None:
                    th.append((m, level))
                if th:
                    parts = {}
                    _convolve_level(nfactors, m, th, table[beta], parts)
                    table[beta][m] = _settle(parts, m)
        for gi, hi in zip(g, h):
            parts = {}
            if gi[n] is not None:
                _add_level(parts, gi[n])
            _compose_level(nfactors, n, hi, table, parts, -1)
            gi[n] = _settle(parts)
    return g, table
