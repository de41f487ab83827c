"""Exact rational biorthogonal build, kept as an oracle for the decimal one.

reference_biorthogonal is the construction that conevol.profiles
build_biorthogonal replaced: the moment matrix is assembled in Python
Fractions, with pi and sqrt(2) to about 75 digits, inverted by an exact
LDL^T factorization, and rounded to double-double pairs.  It returns the
four fields of a BiorthogonalSystem, so its output can be compared to the
decimal build with ==.  The cost grows fast with d (about 0.3 s at
d = 10, 3.4 s at d = 20).
"""

import math
from fractions import Fraction

import numpy as np


def _atan_recip(x, terms):
    # arctan(1/x) partial sum; terms chosen so the tail is < 1e-75
    total = Fraction(0)
    for i in range(terms):
        t = Fraction(1, (2 * i + 1) * x ** (2 * i + 1))
        total += t if i % 2 == 0 else -t
    return total


_PI = 16 * _atan_recip(5, 56) - 4 * _atan_recip(239, 26)


def _sqrt(x):
    r = Fraction(math.sqrt(x))
    for _ in range(4):
        r = (r + x / r) / 2
        r = r.limit_denominator(10 ** 80)
    return r


_SQRT2 = _sqrt(Fraction(2))
_SQRT_PI = _sqrt(_PI)


def _gamma_half(n2):
    """Gamma(n2 / 2) split as (rational, carries_sqrt_pi)."""
    if n2 % 2 == 0:
        return Fraction(math.factorial(n2 // 2 - 1)), False
    m = (n2 - 1) // 2
    return Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m)), True


def _gram(k, l):
    rn, _ = _gamma_half(k + l)
    rk, pk = _gamma_half(k)
    rl, pl = _gamma_half(l)
    value = rn / (Fraction(2) ** ((k + l) // 2) * rk * rl)
    if (k + l) % 2 == 0:
        if pk and pl:          # sqrt(pi) in both denominator factors
            value /= _PI
        return value
    # mixed parity: numerator sqrt(pi) cancels the single denominator one,
    # and the half power of 2 contributes a 1/sqrt(2)
    return value * _SQRT2 / 2


def _ldlt_inverse(g):
    d = len(g)
    L = [[Fraction(0)] * d for _ in range(d)]
    D = [Fraction(0)] * d
    for j in range(d):
        piv = g[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        assert piv > 0
        D[j] = piv
        L[j][j] = Fraction(1)
        for i in range(j + 1, d):
            L[i][j] = (g[i][j] - sum(L[i][k] * L[j][k] * D[k]
                                     for k in range(j))) / piv
    inv = [[Fraction(0)] * d for _ in range(d)]
    for col in range(d):
        y = [Fraction(0)] * d
        for i in range(col, d):
            y[i] = int(i == col) - sum(L[i][k] * y[k] for k in range(i))
        for i in range(d):
            y[i] /= D[i]
        for i in range(d - 1, -1, -1):
            inv[i][col] = y[i] - sum(L[k][i] * inv[k][col] for k in range(i + 1, d))
    return inv


def _to_dd(x):
    hi = float(x)
    return hi, float(x - Fraction(hi))


def reference_biorthogonal(d):
    """(poly_hi, poly_lo, condition, residual) of the exact build."""
    ks = range(1, d + 1)
    gram = [[_gram(k, l) for l in ks] for k in ks]
    inv = _ldlt_inverse(gram)

    coeffs = [[_to_dd(inv[i][j]) for j in range(d)] for i in range(d)]
    resid = Fraction(0)
    for i in range(d):
        for j in range(d):
            acc = sum(gram[i][k] * (Fraction(coeffs[k][j][0]) + Fraction(coeffs[k][j][1]))
                      for k in range(d))
            resid = max(resid, abs(acc - int(i == j)))

    norm_g = max(sum(abs(e) for e in row) for row in gram)
    norm_inv = max(sum(abs(e) for e in row) for row in inv)

    poly_hi = np.empty((d, d))
    poly_lo = np.empty((d, d))
    for j in range(d):
        for k in ks:
            rk, pk = _gamma_half(k)
            scale = rk * _SQRT_PI if pk else rk
            poly_hi[j, k - 1], poly_lo[j, k - 1] = _to_dd(inv[j][k - 1] / scale)
    return poly_hi, poly_lo, float(norm_g * norm_inv), float(resid)
