"""Scalar q-series per degree level, and the integer kernels on them.

Level n of a scalar series truncated at degree D is None when all its terms
vanish, else a pair (numerators, den): the integer numerators of the curve
classes of total degree n, in lex order, over one positive denominator, in
lowest terms.  So equal series have equal levels, and products, exp, log,
quotients, the substitution q -> q e^g and its inverse are integer dot
products with one gcd per level (``_settle``); a quotient x/g by a series
with constant term 1 is the division form of the same one-pass recurrence,
so 1/g is never formed (``_divide``).  While a level is summed it is held
as one accumulator, a list [numerators, den] written in place: its first
term sets den, a term over a divisor of den is scaled into it, and any other
rescales it once to the lcm (``_merge``; inline in the two hot loops).  One
accumulator holds a level of a whole expression, an integer combination of
levels, products and substitutions, with no series between (``_combine``;
van der Hoeven's relaxed evaluation, JSC 2002).  The class tables
are pure functions of the number of factors and the degrees, as
``ring._mul_table`` is of the factors; no value outlives its call.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import add

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
def _sum_tables(nfactors: int, n: int) -> tuple:
    """Entry m pairs the classes of level m with their rows: row i lists the
    pairs (j, k) with class i of level m plus class j of level n - m equal to
    class k of level n, for ``nfactors`` factors."""
    index, out = _class_index(nfactors, n), []
    for m in range(n + 1):
        alphas, gammas = _classes_of_degree(nfactors, m), _classes_of_degree(nfactors, n - m)
        sums = ((tuple(map(add, a, c)) for c in gammas) for a in alphas)
        out.append((alphas, tuple(tuple(enumerate(map(index.__getitem__, s))) for s in sums)))
    return tuple(out)


def _merge(acc: list, den: int, size: int):
    """The numerator list of the accumulator ``acc`` and the factor that a
    term over ``den`` takes in it: 1 when den is its denominator, which the
    first term sets; rescaled once to the lcm when den does not divide it."""
    vec, d = acc
    if d != den:
        if not d:
            vec, d = [0] * size, den
        elif d % den:
            m = lcm(d, den)
            vec, d = [x * (m // d) for x in vec], m
        acc[:] = vec, d
    return vec, d // den


def _settle(acc: list, div: int = 1):
    """The level of the accumulator ``acc`` divided by div, in lowest terms
    with one gcd, or None when zero or never written."""
    num, den = acc
    if not den or not any(num):
        return None
    den *= div
    g = gcd(den, *num)
    if g != 1:
        return tuple(x // g for x in num), den // g
    return tuple(num), den


def _add_level(acc: list, level, k: int = 1):
    """Add k times a level to the accumulator ``acc``."""
    nums, den = level
    vec, f = _merge(acc, den, len(nums))
    k *= f
    for i, x in enumerate(nums):
        if x:
            vec[i] += k * x


def _levels_of(nfactors: int, max_degree: int, entries) -> list:
    """The levels of the terms (beta, numerator, den), distinct classes of
    degree at most ``max_degree``."""
    accs = [[None, 0] for _ in range(max_degree + 1)]
    for beta, num, den in entries:
        n = sum(beta)
        vec, f = _merge(accs[n], den, len(_classes_of_degree(nfactors, n)))
        vec[_class_index(nfactors, n)[beta]] = num * f
    return [_settle(acc) for acc in accs]


def _convolve_level(nfactors: int, n: int, theta, levels, acc: list, k: int = 1):
    """Add k sum_m theta_m levels[n - m] to the level-n accumulator, theta a
    list of (m, level) by increasing m: one level of a product and one step
    of the exp, log and division recurrences."""
    vec, den = acc
    tables = _sum_tables(nfactors, n)
    for m, (xn, dx) in theta:
        if m > n:
            break
        other = levels[n - m]
        if other is None:
            continue
        yn, dy = other
        d = dx * dy
        if d != den:
            if not den:
                vec, den = [0] * len(tables[n][0]), d
            elif den % d:
                s = lcm(den, d)
                vec, den = [x * (s // den) for x in vec], s
        f = k * (den // d)
        if len(vec) == 1:
            vec[0] += f * xn[0] * yn[0]
            continue
        for a, row in zip(xn, tables[m][1]):
            if a:
                a *= f
                for j, t in row:
                    b = yn[j]
                    if b:
                        vec[t] += a * b
    acc[:] = vec, den


def _compose_level(nfactors: int, n: int, levels, table: dict, acc: list, k: int = 1):
    """Add k times level n of f(q e^g) = sum_beta f_beta q^beta E_beta to the
    accumulator ``acc``, for f given by its levels and E_beta = exp(beta . g)
    read off the factor table of ``_invert``."""
    vec, den = acc
    tables = _sum_tables(nfactors, n)
    for b, (classes, rows) in enumerate(tables):
        if levels[b] is None:
            continue
        nums, dn = levels[b]
        m = n - b
        for beta, c, row in zip(classes, nums, rows):
            e = table[beta][m] if c else None
            if e is None:
                continue
            en, de = e
            d = dn * de
            if d != den:
                if not den:
                    vec, den = [0] * len(tables[n][0]), d
                elif den % d:
                    s = lcm(den, d)
                    vec, den = [x * (s // den) for x in vec], s
            c *= k * (den // d)
            if len(vec) == 1:
                vec[0] += c * en[0]
                continue
            for j, t in row:
                x = en[j]
                if x:
                    vec[t] += c * x
    acc[:] = vec, den


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
    return [lv and _settle([[num * x for x in lv[0]], lv[1] * den]) for lv in levels]


def _exp(nfactors: int, levels: list) -> list:
    """exp of a series without a constant term: theta(e^a) = theta(a) e^a,
    theta = sum_i q_i d/dq_i scaling level m by m, gives
    n E_n = sum_{0<m<=n} (m a_m) E_{n-m} (Brent-Kung, JACM 1978), the 1/n
    going into the level's denominator."""
    out = [_ONE] + [None] * (len(levels) - 1)
    theta = [(m, (tuple(m * x for x in lv[0]), lv[1])) for m, lv in enumerate(levels) if lv]
    for n in range(1, len(levels) if theta else 1):  # exp(0) = 1 at once
        acc = [None, 0]
        _convolve_level(nfactors, n, theta, out, acc)
        out[n] = _settle(acc, n)
    return out


def _log(nfactors: int, levels: list) -> list:
    """log of a series with constant term 1: theta(log a) a = theta(a) gives
    n L_n = n a_n - sum_{0<m<n} (m L_m) a_{n-m}."""
    out = [None] * len(levels)
    theta: list = []  # (m, m L_m) found so far
    for n in range(1, len(levels) if any(levels[1:]) else 1):  # log(1) = 0 at once
        acc = [None, 0]
        if levels[n] is not None:
            _add_level(acc, levels[n], n)
        _convolve_level(nfactors, n, theta, levels, acc, -1)
        out[n] = level = _settle(acc, n)
        if level is not None:
            theta.append((n, (tuple(n * x for x in level[0]), level[1])))
    return out


def _divide(nfactors: int, x: list, g: list) -> list:
    """x/g for g with constant term 1: (x/g) g = x gives
    q_n = x_n - sum_{0<m<=n} g_m q_{n-m}, so 1/g is never formed."""
    out = [None] * len(x)
    tail = [(m, lv) for m, lv in enumerate(g) if m and lv]
    for n in range(len(x) if any(x) else 0):  # 0/g = 0 at once
        acc = [None, 0]
        if x[n] is not None:
            _add_level(acc, x[n])
        _convolve_level(nfactors, n, tail, out, acc, -1)
        out[n] = _settle(acc)
    return out


def _combine(nfactors: int, terms, divs: list) -> list:
    """The levels 0..len(divs) - 1 of an integer combination of series, each
    level summed into one accumulator and settled once over its entry of
    divs.  A term (k, x, y), x given by its levels, adds k x where y is None,
    k x y where y is a list of levels, and k x(q e^g) where y is the factor
    table of ``_invert`` built for g."""
    parts = []
    for k, x, y in terms:
        if type(y) is list:
            parts.append((_convolve_level, k, [(m, lv) for m, lv in enumerate(x) if lv], y))
        else:
            parts.append((None if y is None else _compose_level, k, x, y))
    out = []
    for n, div in enumerate(divs):
        acc = [None, 0]
        for kernel, k, x, y in parts:
            if kernel:
                kernel(nfactors, n, x, y, acc, k)
            elif x[n] is not None:
                _add_level(acc, x[n], k)
        out.append(_settle(acc, div))
    return out


def _invert(nfactors: int, classes: list, h: list, k: list):
    """The levels of g with g + h(q e^g) = k, and the factor table
    {beta: E_beta} over ``classes``, every curve class up to the degree D,
    for h and k given by the levels of one dial per factor.

    The degree-n terms of h(q e^g) = sum_beta h_beta q^beta E_beta, with
    E_beta = exp(beta . g), read g only below degree n.  Round n therefore
    grows each E_beta by one level of the ``_exp`` recurrence,
    m E_beta[m] = sum_i beta_i sum_j theta_i[j] E_beta[m - j], with theta_i
    the (j, j g_i[j]) levels of factor i settled so far, and sets
    g_n = k_n - [h(q e^g)]_n.  E_beta holds its levels 0..D - |beta|.
    """
    D = len(k[0]) - 1
    table = {beta: [_ONE] + [None] * (D - sum(beta)) for beta in classes}
    g = [list(f) for f in k]
    if not any(any(f) for f in (*h, *k)):
        return g, table  # g = 0, and every factor is exp(0) = 1
    theta: list = [[] for _ in g]
    for n in range(1, D + 1):
        for b in range(1, n):
            m = n - b
            for beta in _classes_of_degree(nfactors, b):
                acc, e = [None, 0], table[beta]
                for x, th in zip(beta, theta):
                    if x and th:
                        _convolve_level(nfactors, m, th, e, acc, x)
                e[m] = _settle(acc, m)
        for gi, hi, th in zip(g, h, theta):
            acc = [None, 0]
            if gi[n] is not None:
                _add_level(acc, gi[n])
            _compose_level(nfactors, n, hi, table, acc, -1)
            gi[n] = level = _settle(acc)
            if level is not None:
                th.append((n, (tuple(n * x for x in level[0]), level[1])))
    return g, table
