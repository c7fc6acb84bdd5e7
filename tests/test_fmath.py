"""accel_eval.fmath against exact references, at each function's stated bound.

``decimal``'s ``exp`` and ``ln`` are correctly rounded at any precision, so
every reference below is the exact value to far more digits than a double
holds; an error is measured in ulps of the exact value.  The normal
quantile is checked by one Newton step on a ``decimal`` normal CDF.
"""

import math
from decimal import Decimal, localcontext
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from accel_eval import fmath

TINY = 5e-324  # smallest subnormal
BOUND = {"exp": 1.0, "log": 1.0, "log1p": 1.0, "expm1": 1.0}


def _exact(name: str, x: float) -> Decimal:
    """The exact value of ``name`` at ``x`` to about 50 significant digits."""
    d = Decimal(x)
    with localcontext() as c:
        c.Emin, c.Emax = -9999, 9999
        # Enough digits that 1 + x and e^x - 1 lose nothing to cancellation.
        c.prec = 60 + max(0, -2 * d.adjusted()) if x else 60
        if name == "exp":
            v = d.exp()
        elif name == "log":
            v = d.ln()
        elif name == "log1p":
            c.prec = 2000  # 1 + x exactly, for any double x
            one_plus = 1 + d
            c.prec = 60
            v = one_plus.ln()
        else:
            v = d.exp() - 1
        c.prec = 50
        return +v


def _ulps(got: float, exact: Decimal) -> float:
    want = float(exact)
    if math.isinf(want) or got == want:
        return 0.0 if got == want else math.inf
    with localcontext() as c:
        c.prec = 50
        return float(abs(Decimal(got) - exact) / Decimal(math.ulp(want)))


def _check(name: str, x: float) -> None:
    got = getattr(fmath, name)(x)
    err = _ulps(got, _exact(name, x))
    assert err < BOUND[name], (name, x, got, err)


_settings = settings(derandomize=True, max_examples=400, deadline=None, database=None)


@_settings
@given(x=st.floats(-745.2, 709.79) | st.floats(-2.0, 2.0) | st.floats(-1e-6, 1e-6))
def test_exp_within_its_bound(x):
    _check("exp", x)


@_settings
@given(x=st.floats(min_value=TINY, allow_infinity=False) | st.floats(0.5, 2.0))
def test_log_within_its_bound(x):
    _check("log", x)


@_settings
@given(x=st.floats(-1.0, 1e300, exclude_min=True) | st.floats(-1e-5, 1e-5) | st.floats(-0.5, 1.0))
def test_log1p_within_its_bound(x):
    _check("log1p", x)


@_settings
@given(x=st.floats(-50.0, 709.78) | st.floats(-1e-5, 1e-5) | st.floats(-1.5, 1.5))
def test_expm1_within_its_bound(x):
    _check("expm1", x)


@pytest.mark.parametrize("name", sorted(BOUND))
def test_near_zero_and_subnormal_arguments(name):
    xs = [TINY, 2 * TINY, 1e-310, 2.0**-1022, 1e-300, 2.0**-60, 2.0**-54, 2.0**-28, 1e-8, 0.3]
    for x in xs + [-x for x in xs]:
        if name != "log" or x > 0:
            _check(name, x)


def test_signed_zero_infinity_and_nan():
    for name in ("log1p", "expm1"):
        f = getattr(fmath, name)
        assert math.copysign(1.0, f(0.0)) == 1.0 and math.copysign(1.0, f(-0.0)) == -1.0
        assert f(0.0) == f(-0.0) == 0.0
    assert fmath.exp(0.0) == fmath.exp(-0.0) == 1.0
    assert fmath.log(0.0) == fmath.log(-0.0) == -math.inf
    assert fmath.log1p(-1.0) == -math.inf
    assert (fmath.exp(math.inf), fmath.exp(-math.inf)) == (math.inf, 0.0)
    assert fmath.log(math.inf) == fmath.log1p(math.inf) == fmath.expm1(math.inf) == math.inf
    assert fmath.expm1(-math.inf) == -1.0
    for name in ("exp", "log", "log1p", "expm1", "normal_ppf"):
        assert math.isnan(getattr(fmath, name)(math.nan)), name
    for name, x in (("log", -1.0), ("log", -math.inf), ("log1p", -2.0), ("log1p", -math.inf)):
        assert math.isnan(getattr(fmath, name)(x)), (name, x)


@pytest.mark.parametrize("name", ["exp", "log", "log1p", "expm1"])
def test_edges_match_numpy(name):
    # Where numpy's ufunc returns inf, 0, -1 or NaN, so does fmath, without raising.
    edges = [0.0, -0.0, TINY, -TINY, 1.0, -1.0, -2.0, 709.78, 709.79, 1000.0, -745.2, -1000.0,
             1e308, -1e308, math.inf, -math.inf, math.nan]
    with np.errstate(all="ignore"):
        for x in edges:
            want = float(getattr(np, name)(x))
            got = getattr(fmath, name)(x)
            if math.isnan(want):
                assert math.isnan(got), x
            elif want in (0.0, math.inf, -math.inf, 1.0, -1.0):
                assert got == want and math.copysign(1, got) == math.copysign(1, want), x


def test_exp_overflow_and_underflow_thresholds():
    hi = fmath._EXP_OVERFLOW
    assert fmath.exp(hi) < math.inf and fmath.exp(math.nextafter(hi, math.inf)) == math.inf
    _check("exp", hi)
    lo = fmath._EXP_UNDERFLOW
    assert fmath.exp(math.nextafter(lo, -math.inf)) == 0.0
    for x in (lo, math.nextafter(lo, 0.0), -745.0, -744.5, -709.0, -708.4):
        _check("exp", x)
    assert fmath.exp(lo) == TINY
    assert fmath.expm1(hi) == fmath.exp(hi) and fmath.expm1(math.nextafter(hi, math.inf)) == math.inf


def _normal_cdf(x: float, digits: int) -> tuple[Decimal, Decimal]:
    """Phi(x) and the normal density at x, to ``digits`` significant digits of Phi."""
    with localcontext() as c:
        c.prec = digits + 20
        c.Emin, c.Emax = -999999, 999999
        pi, term, k, last = Decimal(3), Decimal(3), 0, None  # the decimal docs' pi recipe
        n, na, d, da = 1, 0, 0, 24
        while pi != last:
            last = pi
            n, na, d, da = n + na, na + 8, d + da, da + 32
            term = term * n / d
            pi += term
        X = Decimal(x)
        x2 = X * X
        term = total = X
        eps = Decimal(10) ** -(digits + 10)
        while True:  # Phi(x) = 1/2 + phi(x) * sum x^(2k+1) / (1*3*...*(2k+1))
            k += 1
            term = term * x2 / (2 * k + 1)
            total += term
            if k > x2 and abs(term) <= eps * abs(total):
                break
        dens = (-x2 / 2).exp() / (2 * pi).sqrt()
        return Decimal("0.5") + dens * total, dens


def _ppf_ulps(p: float) -> float:
    got = fmath.normal_ppf(p)
    tail = min(p, 1.0 - p)
    cdf, dens = _normal_cdf(got, 40 + max(0, -Decimal(tail).adjusted()))
    with localcontext() as c:
        c.prec = 50
        exact = Decimal(got) - (cdf - Decimal(p)) / dens
        return float(abs(Decimal(got) - exact) / Decimal(math.ulp(float(exact))))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(p=st.floats(1e-300, 0.5) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
       | st.floats(-300.0, -0.1).map(lambda e: 10.0**e))
def test_normal_ppf_within_its_bound(p):
    assert _ppf_ulps(p) < 8.0


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(p=st.floats(0.075, 0.925))
def test_normal_ppf_is_statistics_in_the_central_range(p):
    # No logarithm there: the bits of the standard library's AS 241.
    assert fmath.normal_ppf(p) == NormalDist().inv_cdf(p)


def test_normal_ppf_edges_match_scipy():
    for p in (0.0, 1.0, -0.5, 1.5, math.inf, -math.inf, math.nan):
        want, got = float(ndtri(p)), fmath.normal_ppf(p)
        assert got == want or (math.isnan(want) and math.isnan(got)), p
    for p in (TINY, 1e-300, 1e-20, 0.01, 0.2, 0.9, 1.0 - 2.0**-53):
        assert fmath.normal_ppf(p) == pytest.approx(float(ndtri(p)), rel=4e-15), p
