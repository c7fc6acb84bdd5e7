"""Elementary functions built only from correctly rounded float operations.

``exp``, ``log``, ``log1p``, ``expm1`` and the standard normal quantile
``normal_ppf``, computed with ``+ - * /``, ``math.sqrt``,
``math.ldexp``, ``math.frexp`` and ``round``.  Each of these rounds
correctly under IEEE 754, so every result here has the same bits on any
IEEE-754 machine and any CPython; libm's ``math.exp`` and numpy's SIMD
kernels make no such promise.  The algorithms are fdlibm's (Sun
Microsystems, 1993) for the first four and Wichura's AS 241 (1988) for
the quantile.

Error bounds, in units in the last place of the exact result, which
tier-1 checks against ``decimal``'s correctly rounded ``exp`` and ``ln``:
``exp``, ``log``, ``log1p`` and ``expm1`` under 1 ulp.  ``normal_ppf``
has AS 241's own accuracy, under 8 ulp.

Edges follow numpy's ufuncs: NaN passes through, ``exp`` overflows to
``inf`` and underflows to 0 instead of raising, ``exp(-inf) = 0``,
``log(0) = -inf``, ``log1p(-1) = -inf``, and a point outside a domain
gives NaN.  ``normal_ppf`` follows ``scipy.special.ndtri``: ``-inf`` at
0, ``inf`` at 1.
"""

from __future__ import annotations

from math import frexp, inf, ldexp, nan, sqrt

__all__ = ["exp", "log", "log1p", "expm1", "normal_ppf"]

# ln 2 split in two: _LN2_HI has 32 significant bits, so k * _LN2_HI is
# exact for every exponent k of a double.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e+00
_HALF_LN2 = 3.46573590279972654709e-01
_THREE_HALF_LN2 = 1.03972077083991796413e+00
_EXP_OVERFLOW = 7.09782712893383973096e+02  # largest x with a finite exp(x)
_EXP_UNDERFLOW = -7.45133219101941108420e+02  # smallest x with a nonzero exp(x)
_SQRT_HALF = 0.7071067811865476

# exp: a minimax polynomial for r * (exp(r) + 1) / (exp(r) - 1) on |r| <= ln2 / 2.
_P1 = 1.66666666666666019037e-01
_P2 = -2.77777777770155933842e-03
_P3 = 6.61375632143793436117e-05
_P4 = -1.65339022054652515390e-06
_P5 = 4.13813679705723846039e-08

# log: a minimax polynomial for (log1p(f) - 2s) / s with s = f / (2 + f).
_LG1 = 6.666666666666735130e-01
_LG2 = 3.999999999940941908e-01
_LG3 = 2.857142874366239149e-01
_LG4 = 2.222219843214978396e-01
_LG5 = 1.818357216161805012e-01
_LG6 = 1.531383769920937332e-01
_LG7 = 1.479819860511658591e-01

# expm1: a minimax polynomial for the rational form of expm1 on |r| <= ln2 / 2.
_Q1 = -3.33333333333331316428e-02
_Q2 = 1.58730158725481460165e-03
_Q3 = -7.93650757867487942473e-05
_Q4 = 4.00821782732936239552e-06
_Q5 = -2.01099218183624371326e-07

_TWO_M28 = ldexp(1.0, -28)
_TWO_M54 = ldexp(1.0, -54)
_EXPM1_SATURATES = -38.816242111356935  # 56 ln 2: below it expm1(x) rounds to -1


def _reduce(x: float) -> tuple[int, float, float]:
    """``(k, hi, lo)`` with ``x = k ln2 + (hi - lo)`` and ``|hi - lo| <= ln2 / 2``."""
    if -_THREE_HALF_LN2 < x < _THREE_HALF_LN2:
        k = 1 if x > 0.0 else -1
    else:
        k = round(x * _INV_LN2)
    return k, x - k * _LN2_HI, k * _LN2_LO


def exp(x: float) -> float:
    """e**x, under 1 ulp from the exact value."""
    if not _EXP_UNDERFLOW <= x <= _EXP_OVERFLOW:
        if x != x:
            return x
        return inf if x > 0.0 else 0.0
    if -_HALF_LN2 <= x <= _HALF_LN2:
        if -_TWO_M28 < x < _TWO_M28:
            return 1.0 + x
        t = x * x
        c = x - t * (_P1 + t * (_P2 + t * (_P3 + t * (_P4 + t * _P5))))
        return 1.0 - ((x * c) / (c - 2.0) - x)
    k, hi, lo = _reduce(x)
    r = hi - lo
    t = r * r
    c = r - t * (_P1 + t * (_P2 + t * (_P3 + t * (_P4 + t * _P5))))
    y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi)
    try:
        return ldexp(y, k)  # one rounding, also into the subnormal range
    except OverflowError:
        return inf


def _log_core(f: float, k: int, c: float) -> float:
    """log(2**k * (1 + f)) + c, for 1 + f in about [sqrt(1/2), sqrt(2)] and small c."""
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    r = z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7))) + w * (_LG2 + w * (_LG4 + w * _LG6))
    hfsq = 0.5 * f * f
    return k * _LN2_HI - ((hfsq - (s * (hfsq + r) + (k * _LN2_LO + c))) - f)


def log(x: float) -> float:
    """Natural logarithm, under 1 ulp from the exact value."""
    if not 0.0 < x < inf:
        if x == 0.0:
            return -inf
        return x if x != x or x > 0.0 else nan
    m, k = frexp(x)
    if m < _SQRT_HALF:
        m, k = 2.0 * m, k - 1
    return _log_core(m - 1.0, k, 0.0)


def log1p(x: float) -> float:
    """log(1 + x), under 1 ulp from the exact value."""
    if not -1.0 < x < inf:
        if x == -1.0:
            return -inf
        return x if x != x or x > 0.0 else nan
    if -_TWO_M54 < x < _TWO_M54:
        return x
    u = 1.0 + x
    m, k = frexp(u)
    if m < _SQRT_HALF:
        m, k = 2.0 * m, k - 1
    if k == 0:
        return _log_core(x, 0, 0.0)
    # 1 + x = u + err exactly (Knuth's two-sum); log(u + err) = log(u) + err/u.
    b = u - x
    err = (1.0 - b) + (x - (u - b))
    return _log_core(m - 1.0, k, err / u)


def expm1(x: float) -> float:
    """e**x - 1, under 1 ulp from the exact value."""
    if not _EXPM1_SATURATES <= x <= _EXP_OVERFLOW:
        if x != x:
            return x
        return inf if x > 0.0 else -1.0
    if -_HALF_LN2 <= x <= _HALF_LN2:
        if -_TWO_M54 < x < _TWO_M54:
            return x
        k, r, c = 0, x, 0.0
    else:
        k, hi, lo = _reduce(x)
        r = hi - lo
        c = (hi - r) - lo
    hfx = 0.5 * r
    hxs = r * hfx
    r1 = 1.0 + hxs * (_Q1 + hxs * (_Q2 + hxs * (_Q3 + hxs * (_Q4 + hxs * _Q5))))
    t = 3.0 - r1 * hfx
    e = hxs * ((r1 - t) / (6.0 - r * t))
    if k == 0:
        return r - (r * e - hxs)
    e = r * (e - c) - c
    e -= hxs
    if k == -1:
        return 0.5 * (r - e) - 0.5
    if k == 1:
        if r < -0.25:
            return -2.0 * (e - (r + 0.5))
        return 1.0 + 2.0 * (r - e)
    if k <= -2 or k > 56:
        try:
            return ldexp(1.0 - (e - r), k) - 1.0
        except OverflowError:
            return inf
    if k < 20:
        return ldexp((1.0 - ldexp(1.0, -k)) - (e - r), k)
    return ldexp((r - (e + ldexp(1.0, -k))) + 1.0, k)


# AS 241 (PPND16): numerator and denominator coefficients, highest degree first.
_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _ratio(coeffs, r: float, q: float = 1.0) -> float:
    """``q * num(r) / den(r)``, in AS 241's order of operations."""
    num, den = coeffs
    n, d = num[0], den[0]
    for a, b in zip(num[1:], den[1:]):
        n = n * r + a
        d = d * r + b
    return n * q / d


def normal_ppf(p: float) -> float:
    """Standard normal quantile (AS 241), under 8 ulp from the exact value.

    In the central range ``|p - 1/2| <= 0.425`` it takes no logarithm and
    has the bits of ``statistics.NormalDist().inv_cdf(p)``.
    """
    if not 0.0 < p < 1.0:
        if p == 0.0:
            return -inf
        return inf if p == 1.0 else nan
    q = p - 0.5
    if -0.425 <= q <= 0.425:
        return _ratio(_CENTRAL, 0.180625 - q * q, q)
    r = sqrt(-log(p if q < 0.0 else 1.0 - p))
    x = _ratio(_NEAR, r - 1.6) if r <= 5.0 else _ratio(_FAR, r - 5.0)
    return -x if q < 0.0 else x
