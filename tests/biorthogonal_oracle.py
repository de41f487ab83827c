"""Exact rational biorthogonal build and double-double evaluator, kept as
oracles for conevol.profiles.

reference_biorthogonal is the construction that build_biorthogonal
replaced: the moment matrix is assembled in Python Fractions, with pi and
sqrt(2) to about 75 digits, and inverted by an exact LDL^T factorization.
It returns the inverse both ways the package has stored it: rounded to
double-double monomial coefficients (poly_hi, poly_lo), and as float64
coordinates in the polynomials of the three-term recurrence of the weight
e^(-2u^2) on [0, inf) (coef, a, b), with that system's condition and
residual, so the decimal build can be compared to it with ==.  The cost
grows fast with d (about 0.5 s at d = 10, 1 s at d = 12).

reference_evaluate is the evaluator that BiorthogonalSystem.evaluate
replaced: f_j(s) = exp(-s/2) * P_j(sqrt(s/2)), with the powers of u and the
sum over them in double-double arithmetic (two_sum, two_product, dd_add,
dd_mul, dd_sqrt).
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# double-double arithmetic, vectorized
#
# A value is an unevaluated sum hi + lo of two doubles (~32 significant
# digits).  Sloppy renormalization throughout: relative error stays
# O(eps^2) of operand magnitude.
# ---------------------------------------------------------------------------

def two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def two_product(a, b):
    """Dekker/Veltkamp exact product: returns (hi, lo) with hi+lo = a*b."""
    hi = a * b
    split = 134217729.0  # 2**27 + 1
    a1 = a * split
    ah = a1 - (a1 - a)
    al = a - ah
    b1 = b * split
    bh = b1 - (b1 - b)
    bl = b - bh
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi, lo


def dd_add(xh, xl, yh, yl):
    sh, se = two_sum(xh, yh)
    se = se + (xl + yl)
    rh = sh + se
    return rh, se - (rh - sh)


def dd_mul(xh, xl, yh, yl):
    ph, pe = two_product(xh, yh)
    pe = pe + (xh * yl + xl * yh)
    rh = ph + pe
    return rh, pe - (rh - ph)


def dd_sqrt(x):
    """Double-double square root of a nonnegative float64 array."""
    x = np.asarray(x, dtype=float)
    r = np.sqrt(x)
    ph, pe = two_product(r, r)
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.where(r > 0.0, ((x - ph) - pe) / (2.0 * r), 0.0)
    return r, e


def reference_evaluate(poly_hi, poly_lo, s):
    """F[j-1, i] = f_j(s_i) from double-double monomial coefficients
    c[j,k]/Gamma(k/2) of P_j(u), u = sqrt(s/2)."""
    s = np.asarray(s, dtype=float).ravel()
    d = poly_hi.shape[0]
    uh, ul = dd_sqrt(0.5 * s)
    pw_h = [np.ones_like(s)]
    pw_l = [np.zeros_like(s)]
    for _ in range(d):
        h, l = dd_mul(pw_h[-1], pw_l[-1], uh, ul)
        pw_h.append(h)
        pw_l.append(l)
    damp = np.exp(-0.5 * s)
    out = np.empty((d, s.size))
    for j in range(d):
        acc_h = np.zeros_like(s)
        acc_l = np.zeros_like(s)
        for k in range(1, d + 1):
            th, tl = dd_mul(pw_h[k], pw_l[k], poly_hi[j, k - 1], poly_lo[j, k - 1])
            acc_h, acc_l = dd_add(acc_h, acc_l, th, tl)
        out[j] = damp * (acc_h + acc_l)
    return out


# ---------------------------------------------------------------------------
# exact rational build
# ---------------------------------------------------------------------------

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


def _gamma_value(n2):
    r, p = _gamma_half(n2)
    return r * _SQRT_PI if p else r


def _half_power(n):
    """2^(n/2)."""
    return Fraction(2) ** (n // 2) * (_SQRT2 if n % 2 else 1)


def _ldlt(g):
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
    return L, D


def _ldlt_inverse(g):
    d = len(g)
    L, D = _ldlt(g)
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


def _recurrence_basis(d):
    """Float64 (a, b) of the orthonormal polynomials of e^(-2u^2) on
    [0, inf), and q_0..q_d in monomials exactly as a recurrence with
    those float64 values defines them."""
    mu = [_gamma_value(n + 1) / (2 * _half_power(n + 1)) for n in range(2 * d + 1)]
    L, D = _ldlt([[mu[i + j] for j in range(d + 1)] for i in range(d + 1)])
    a = [float(L[n + 1][n] - (L[n][n - 1] if n else 0)) for n in range(d)]
    b = [float(_sqrt(D[0]))] + [float(_sqrt(D[n] / D[n - 1])) for n in range(1, d + 1)]
    q_prev, q = [Fraction(0)] * (d + 1), [Fraction(1.0 / b[0])] + [Fraction(0)] * d
    basis = [q]
    for n in range(d):
        an, bn, bnext = Fraction(a[n]), Fraction(b[n]), Fraction(b[n + 1])
        q_prev, q = q, [((q[k - 1] if k else 0) - an * q[k] - bn * q_prev[k]) / bnext
                        for k in range(d + 1)]
        basis.append(q)
    return np.array(a), np.array(b), basis


@lru_cache(maxsize=None)
def reference_biorthogonal(d):
    """Dict of the exact build's poly_hi, poly_lo, coef, a, b, condition
    and residual (that of the float64 coef, a, b)."""
    ks = range(1, d + 1)
    gram = [[_gram(k, l) for l in ks] for k in ks]
    inv = _ldlt_inverse(gram)
    norm_g = max(sum(abs(e) for e in row) for row in gram)
    norm_inv = max(sum(abs(e) for e in row) for row in inv)

    monomial = [[Fraction(0)] + [inv[j][k - 1] / _gamma_value(k) for k in ks]
                for j in range(d)]
    poly_hi = np.array([[_to_dd(x)[0] for x in row[1:]] for row in monomial])
    poly_lo = np.array([[_to_dd(x)[1] for x in row[1:]] for row in monomial])

    a, b, basis = _recurrence_basis(d)
    coef = np.empty((d, d + 1))
    for j in range(d):
        rest = list(monomial[j])
        for n in range(d, -1, -1):
            x = rest[n] / basis[n][n]
            coef[j, n] = float(x)
            for k in range(n):
                rest[k] -= x * basis[n][k]

    # E[u^k e^(-s/2)] for s ~ chi-square(l) = Gamma((k+l)/2) / (2^((k+l)/2) Gamma(l/2))
    moment = [[_gamma_value(k + l) / (_half_power(k + l) * _gamma_value(l)) for l in ks]
              for k in range(d + 1)]
    resid = Fraction(0)
    for j in range(d):
        stored = [sum(Fraction(coef[j, n]) * basis[n][k] for n in range(d + 1))
                  for k in range(d + 1)]
        for l in range(d):
            acc = sum(stored[k] * moment[k][l] for k in range(d + 1))
            resid = max(resid, abs(acc - int(j == l)))
    return {"poly_hi": poly_hi, "poly_lo": poly_lo, "coef": coef, "a": a, "b": b,
            "condition": float(norm_g * norm_inv), "residual": float(resid)}
