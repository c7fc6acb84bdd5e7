"""Distribution laws: normalization, round-trips, tilting, fitting.

Frozen oracle values were computed independently with 50-digit mpmath
from the closed-form survival function and are asserted at float
precision.
"""

import decimal
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

import accel_eval
from accel_eval import distributions, fmath
from accel_eval.distributions import (
    EmpiricalDist,
    FitError,
    TruncatedExponential,
    TruncatedPareto,
    _clip,
    _gauss_legendre,
    exp_density_ratio,
    lsq_exponential_of_pareto,
    tilt_exponential,
)
from accel_eval.ingest import apply_filters, build_model_section, fit_exponential_mle, fit_pareto

from test_ingest import _synthetic_rows, _write_csv

# Oracle point: k=0.5, sigma=0.02, theta=lo=1/75, hi=10, evaluated at x=0.05.
ORACLE_PARETO = dict(k=0.5, sigma=0.02, theta=1 / 75, lo=1 / 75, hi=10.0)
ORACLE_X = 0.05
ORACLE_PDF = 7.101288327317422
ORACLE_CDF = 0.7277998627129141

# Least-squares exponential mean for the default inverse-range law
# (k=0.02, sigma=0.0205, theta=lo=1/75, hi=10), as the fit computes it, and
# the true minimiser of the same objective (45-digit mpmath root of its
# derivative: 0.020602124911576926248...).
DEFAULT_SURROGATE_MEAN = 0.020602124882673677
SURROGATE_MEAN_ORACLE = 0.020602124911576928


def test_pareto_matches_frozen_oracles():
    p = TruncatedPareto(**ORACLE_PARETO)
    assert p.pdf(ORACLE_X) == pytest.approx(ORACLE_PDF, rel=1e-12)
    assert p.cdf(ORACLE_X) == pytest.approx(ORACLE_CDF, rel=1e-12)


@pytest.mark.parametrize(
    "k,sigma,theta,lo,hi",
    [
        (0.5, 0.02, 1 / 75, 1 / 75, 10.0),
        (0.02, 0.0205, 1 / 75, 1 / 75, 10.0),
        (0.3, 1.0, 0.0, 0.5, math.inf),
    ],
)
def test_pareto_pdf_normalizes(k, sigma, theta, lo, hi):
    p = TruncatedPareto(k, sigma, theta, lo, hi)
    val, _ = integrate.quad(p.pdf, lo, hi, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_pareto_cdf_ppf_roundtrip():
    p = TruncatedPareto(**ORACLE_PARETO)
    assert all(abs(p.ppf(p.cdf(x)) - x) < 1e-9 for x in np.linspace(p.lo, p.hi, 101).tolist())
    assert all(abs(p.cdf(p.ppf(u)) - u) < 1e-9 for u in np.linspace(0.0, 1.0, 101).tolist())


def test_pareto_pdf_at_theta_untruncated():
    # With lo = theta and no upper cut the density at theta is 1/sigma.
    p = TruncatedPareto(0.25, 0.04, 0.01, 0.01, math.inf)
    assert p.pdf(0.01) == pytest.approx(1.0 / 0.04, rel=1e-12)


def test_pareto_outside_support():
    # The support is closed, and NaN lies outside it.
    p = TruncatedPareto(**ORACLE_PARETO)
    assert p.pdf(p.lo - 1e-3) == 0.0
    assert p.pdf(p.hi + 1e-3) == 0.0
    assert p.pdf(math.nan) == 0.0
    assert p.pdf(p.lo) > 0.0 and p.pdf(p.hi) > 0.0
    assert p.cdf(p.lo - 1e-3) == 0.0
    assert p.cdf(p.hi + 1e-3) == 1.0


def test_pareto_sampler_matches_cdf():
    p = TruncatedPareto(**ORACLE_PARETO)
    rng = np.random.Generator(np.random.PCG64(1234))
    xs = [p.ppf(u) for u in rng.random(4000).tolist()]
    assert stats.kstest(xs, np.vectorize(p.cdf)).pvalue > 0.01


def test_pareto_validation():
    with pytest.raises(ValueError):
        TruncatedPareto(0.0, 0.02, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        TruncatedPareto(0.5, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        TruncatedPareto(0.5, 0.02, 0.5, 0.1, 1.0)  # theta > lo
    with pytest.raises(ValueError):
        TruncatedPareto(0.5, 0.02, 0.0, 1.0, 1.0)  # lo == hi


def test_pareto_scalar_and_array_forms():
    # The laws take one number at a time and give a Python float; an array
    # is looped over by the caller.
    p = TruncatedPareto(**ORACLE_PARETO)
    for x in (0.05, np.float64(0.05), 1):
        assert all(isinstance(f(x), float) for f in (p.pdf, p.cdf, p.ppf))
    assert [p.pdf(x) for x in np.array([0.05, 0.06])] == [p.pdf(0.05), p.pdf(0.06)]


@pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (0.0, 3.0), (1.5, 9.0)])
def test_exponential_pdf_normalizes(lo, hi):
    d = TruncatedExponential(0.7, lo, hi)
    top = hi if math.isfinite(hi) else lo + 60 * d.mean
    val, _ = integrate.quad(d.pdf, lo, top, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_exponential_cdf_ppf_roundtrip():
    d = TruncatedExponential(0.4, 0.2, 5.0)
    assert all(abs(d.ppf(d.cdf(x)) - x) < 1e-9 for x in np.linspace(d.lo, d.hi, 101).tolist())


def test_exponential_shift_is_exact():
    # Shifting the support shifts the quantiles by exactly lo.
    base = TruncatedExponential(1.3, 0.0, math.inf)
    shifted = TruncatedExponential(1.3, 2.5, math.inf)
    assert all(shifted.ppf(u) == 2.5 + base.ppf(u) for u in np.linspace(0.0, 0.999, 64).tolist())


def test_exponential_outside_support():
    # The support is closed, and NaN lies outside it.
    d = TruncatedExponential(0.7, 1.5, 9.0)
    assert d.pdf(d.lo - 1e-3) == 0.0
    assert d.pdf(d.hi + 1e-3) == 0.0
    assert d.pdf(math.nan) == 0.0
    assert d.pdf(d.lo) > 0.0 and d.pdf(d.hi) > 0.0


def test_exponential_validation():
    with pytest.raises(ValueError):
        TruncatedExponential(0.0)
    with pytest.raises(ValueError):
        TruncatedExponential(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        TruncatedExponential(1.0, 2.0, 2.0)


def test_tilt_moves_the_mean():
    base = TruncatedExponential(2.0, 0.0, math.inf)
    assert tilt_exponential(base, 0.5).mean == 1.5
    assert tilt_exponential(base, -0.12).mean == 2.12
    tilted = tilt_exponential(TruncatedExponential(2.0, 0.3, 7.0), 0.25)
    assert (tilted.lo, tilted.hi) == (0.3, 7.0)


def test_tilt_rejects_nonpositive_mean():
    base = TruncatedExponential(2.0)
    with pytest.raises(ValueError):
        tilt_exponential(base, 2.0)
    with pytest.raises(ValueError):
        tilt_exponential(base, 2.5)


def test_density_ratio_matches_pdf_quotient():
    rng = np.random.default_rng(7)
    for _ in range(20):
        lo_n, lo_d = rng.uniform(0.0, 3.0, 2)
        n = TruncatedExponential(rng.uniform(0.3, 4.0), lo_n, lo_n + rng.uniform(2, 20))
        d = TruncatedExponential(rng.uniform(0.3, 4.0), lo_d, lo_d + rng.uniform(2, 20))
        a = max(n.lo, d.lo) + 1e-6
        b = min(n.hi, d.hi) - 1e-6
        if a >= b:
            continue
        for x in np.linspace(a, b, 100).tolist():
            assert abs(exp_density_ratio(n, d, x) / (n.pdf(x) / d.pdf(x)) - 1) < 1e-12


def test_density_ratio_constant_under_equal_means():
    # Equal means cancel the x dependence; the ratio is one float constant.
    orig = TruncatedExponential(1.0, 0.0, math.inf)
    prop = TruncatedExponential(1.0, 7.0, math.inf)
    ratios = {exp_density_ratio(orig, prop, x) for x in np.linspace(7.0, 40.0, 333).tolist()}
    assert ratios == {fmath.exp(-7.0)}
    assert fmath.exp(-7.0) == pytest.approx(math.exp(-7.0), rel=2**-52)


def test_density_ratio_identity_is_exactly_one():
    d = TruncatedExponential(0.7, 0.2, 5.0)
    same = TruncatedExponential(0.7, 0.2, 5.0)
    assert all(exp_density_ratio(d, same, x) == 1.0 for x in np.linspace(0.2, 5.0, 50).tolist())


def test_density_ratio_outside_numer_support_is_zero():
    n = TruncatedExponential(1.0, 0.0, 5.0)
    d = TruncatedExponential(1.0, 0.0, math.inf)
    assert exp_density_ratio(n, d, 6.0) == 0.0
    assert exp_density_ratio(n, d, math.nan) == 0.0
    assert exp_density_ratio(n, d, n.lo) > 0.0 and exp_density_ratio(n, d, n.hi) > 0.0


@pytest.mark.parametrize("numer,denom", [
    (TruncatedExponential(0.001, 1.0, math.inf), TruncatedExponential(1.0)),
    (TruncatedExponential(1.0), TruncatedExponential(0.001, 1.0, math.inf)),
])
def test_density_ratio_is_finite_where_its_constant_is_not(numer, denom):
    # The ratio's constant is exp(+-1006.9): no float holds it, but the ratio
    # itself is moderate near x = 1.
    for x in np.linspace(1.0, 1.2, 21).tolist():
        got = exp_density_ratio(numer, denom, x)
        want = numer.pdf(x) / denom.pdf(x)
        assert math.isfinite(got) and want > 0
        assert abs(got / want - 1) < 1e-12


_upper = st.just(math.inf) | st.floats(0.01, 40.0)
_edges = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=st.floats(-50.0, 50.0) | _edges, lo=st.floats(-10.0, 10.0) | _edges,
       width=st.just(0.0) | _upper)
def test_float_helpers_are_numpy_scalar_ops(x, lo, width):
    # The laws clamp with np.clip's NaN and signed-zero rules.
    assume(math.isfinite(lo))
    hi = lo + width
    assert _clip(x, lo, hi).hex() == float(np.clip(np.float64(x), lo, hi)).hex()


@pytest.mark.parametrize("k", [1e-14, 1e-12])
def test_pareto_tends_to_the_exponential_as_k_vanishes(k):
    # The laws differ by O(k z^2) here, far below the tolerance; evaluated as
    # the power (1 + k z)**(-1/k), the Pareto would lose about eps/k instead.
    p = TruncatedPareto(k, 0.02, 1 / 75, 1 / 75, 10.0)
    e = TruncatedExponential(0.02, 1 / 75, 10.0)
    xs = (p.lo + 0.02 * np.linspace(0.05, 20.0, 41)).tolist()
    us = np.linspace(0.001, 0.999, 41).tolist()
    pairs = [(p.pdf, e.pdf, xs, 0.0), (p.cdf, e.cdf, xs, 0.0), (p.ppf, e.ppf, us, p.lo)]
    for f, g, args, shift in pairs:
        assert all(abs((f(a) - shift) / (g(a) - shift) - 1.0) < 1e-8 for a in args)


def test_ppf_rejects_u_outside_the_unit_interval():
    for law in (TruncatedPareto(**ORACLE_PARETO), TruncatedExponential(0.7, 0.2, math.inf)):
        for u in (-1e-300, 1.0 + 2.0**-52, -math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^u must lie in \[0, 1\]$"):
                law.ppf(u)


def test_fit_exponential_mle_is_sample_mean():
    rng = np.random.default_rng(42)
    xs = rng.exponential(0.7, size=500)
    rep = fit_exponential_mle(xs)
    assert rep.params["mean"] == float(xs.mean())
    assert rep.n_params == 1 and rep.n == 500
    # BIC identity for a single fitted parameter.
    assert rep.bic == math.log(500) - 2.0 * rep.loglik


def test_fit_exponential_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_exponential_mle([1.0])
    with pytest.raises(ValueError):
        fit_exponential_mle([1.0, -2.0])


def test_fit_pareto_recovers_parameters():
    truth = TruncatedPareto(0.3, 0.02, 0.01, 0.01, math.inf)
    rng = np.random.Generator(np.random.PCG64(99))
    xs = [truth.ppf(u) for u in rng.random(4000).tolist()]
    rep = fit_pareto(xs, theta=0.01)
    assert rep.params["theta"] == 0.01
    assert rep.params["k"] == pytest.approx(0.3, abs=0.08)
    assert rep.params["sigma"] == pytest.approx(0.02, rel=0.15)
    assert rep.n_params == 2
    assert rep.bic == 2 * math.log(4000) - 2.0 * rep.loglik


def test_fit_pareto_default_theta_is_sample_min():
    rng = np.random.Generator(np.random.PCG64(5))
    law = TruncatedPareto(0.2, 1.0, 0.0, 0.0, math.inf)
    xs = [law.ppf(u) for u in rng.random(200).tolist()]
    rep = fit_pareto(xs)
    assert rep.params["theta"] == float(np.min(xs))


def test_fit_pareto_needs_enough_samples():
    with pytest.raises(ValueError):
        fit_pareto(np.ones(9))
    with pytest.raises(ValueError, match="all samples equal theta"):
        fit_pareto(np.full(20, 0.5))
    with pytest.raises(ValueError, match="samples must be >= theta"):
        fit_pareto(np.linspace(1.0, 2.0, 20), theta=1.5)


def test_fit_pareto_grid_edges():
    # This exponential sample's likelihood peaks at k -> 0 (its
    # unconstrained shape estimate is negative): the fit returns the
    # exponential limit, whose scale is the mean excess.
    rng = np.random.default_rng(0)
    xs = 1 / 75 + rng.exponential(0.02, 1000)
    rep = fit_pareto(xs, theta=1 / 75)
    assert rep.params["k"] < 1e-9
    assert rep.params["sigma"] == pytest.approx(float(np.mean(xs - 1 / 75)), rel=1e-9)
    # Ties at theta plus one larger sample: the likelihood grows without
    # bound in k / sigma, so there is no estimate to return.
    with pytest.raises(FitError):
        fit_pareto([0.5] * 19 + [0.6])


def _nelder_mead_pareto_loglik(x, theta):
    """Log-likelihood at a 2-D Nelder-Mead fit over (log k, log sigma), from a
    moment-based start: the earlier fit, kept as an oracle."""
    excess = np.asarray(x) - theta
    n = excess.size

    def nll(t):
        k, sigma = math.exp(t[0]), math.exp(t[1])
        return n * math.log(sigma) + (1.0 + 1.0 / k) * float(np.sum(np.log1p(k * excess / sigma)))

    m, v = float(excess.mean()), float(excess.var())
    k0 = min(max((1.0 - m * m / v) / 2.0 if v > 0 else 0.1, 0.02), 0.45)
    sigma0 = max(m * (1.0 - k0), 1e-12)
    res = optimize.minimize(
        nll, [math.log(k0), math.log(sigma0)], method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 2000},
    )
    return -float(res.fun)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    k=st.floats(0.001, 0.5),
    sigma=st.floats(0.005, 0.2),
    n=st.integers(50, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_pareto_matches_nelder_mead(k, sigma, n, seed):
    theta = 1 / 75
    law = TruncatedPareto(k, sigma, theta, theta, math.inf)
    xs = [law.ppf(u) for u in np.random.default_rng(seed).random(n).tolist()]
    rep = fit_pareto(xs, theta=theta)
    oracle = _nelder_mead_pareto_loglik(xs, theta)
    assert rep.loglik >= oracle - 1e-9 * abs(oracle)


def test_fit_pareto_is_a_root_of_the_profile_slope():
    # CI's synthetic event file, fitted as `fit` fits it.  One Newton step on
    # the profile's derivative in t = k / sigma, at 40 digits, must move the
    # fit's t by under 1e-10 relative.
    rows = _synthetic_rows(1500, seed=41)
    data = {c: rows[:, i] for i, c in enumerate(("v", "v_l", "r_l", "r_l_dot"))}
    rep = build_model_section(data)[1].pareto
    mask, _ = apply_filters(data)
    excess = (1.0 / rows[mask, 2] - rep.params["theta"]).tolist()
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        t = Decimal(rep.params["k"]) / Decimal(rep.params["sigma"])
        n = len(excess)
        k = k1 = k2 = Decimal(0)
        for e in map(Decimal, excess):
            r = e / (1 + t * e)
            k, k1, k2 = k + (1 + t * e).ln(), k1 + r, k2 - r * r
        k, k1, k2 = k / n, k1 / n, k2 / n
        slope = k1 / k - 1 / t + k1
        curv = k2 / k - (k1 / k) ** 2 + 1 / (t * t) + k2
        assert abs(slope / curv) < Decimal("1e-10") * t


def test_lsq_surrogate_mean_frozen_and_locally_optimal():
    p = TruncatedPareto(0.02, 0.0205, 1 / 75, 1 / 75, 10.0)
    lam = lsq_exponential_of_pareto(p)
    assert lam == pytest.approx(DEFAULT_SURROGATE_MEAN, rel=1e-9)
    # What is left is the error of the 128-node rule, 1.4e-9 here.
    assert abs(lam / SURROGATE_MEAN_ORACLE - 1.0) < 1e-8
    # Independent oracle: trapezoid-rule objective must rise on both sides.
    xs = np.linspace(p.lo, p.hi, 20001)
    pp = np.array([p.pdf(x) for x in xs.tolist()])

    def objective(m):
        g = TruncatedExponential(m, p.lo, p.hi)
        gx = np.array([g.pdf(x) for x in xs.tolist()])
        return float(np.trapezoid((gx - pp) ** 2, xs))

    assert objective(lam) < objective(lam * 0.99)
    assert objective(lam) < objective(lam * 1.01)


def _squared_error_by_quad(p, lam):
    """int (g - p)^2 over p's support by adaptive quadrature, split near lo."""
    g = TruncatedExponential(lam, p.lo, p.hi)

    def f(x):
        return (g.pdf(x) - p.pdf(x)) ** 2

    mid = min(p.lo + 40.0 * max(lam, p.sigma), p.hi)
    parts = [(p.lo, mid)] + ([(mid, p.hi)] if mid < p.hi else [])
    return sum(
        integrate.quad(f, a, b, limit=500, epsabs=0.0, epsrel=1e-12)[0] for a, b in parts
    )


# Inverse-range laws the surrogate fit is checked on.
_SURROGATE_MODELS = dict(
    k=st.floats(0.01, 0.5),
    sigma=st.floats(0.005, 0.2),
    hi=st.sampled_from([10.0, math.inf]),
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(**_SURROGATE_MODELS)
def test_lsq_surrogate_beats_nearby_means(k, sigma, hi):
    p = TruncatedPareto(k, sigma, 1 / 75, 1 / 75, hi)
    lam = lsq_exponential_of_pareto(p)
    err = _squared_error_by_quad(p, lam)
    assert err < _squared_error_by_quad(p, lam * 0.99)
    assert err < _squared_error_by_quad(p, lam * 1.01)


def _grid_then_golden(f, grid):
    """Golden-section minimum (Kiefer 1953) of ``f`` between the neighbours of
    its argmin ``j`` over ``grid``, down to a 1e-12 bracket (or 4 ulp of it);
    returns it and ``j``.  The package's fits minimized this way before they
    became Newton methods."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    values = [f(g) for g in grid]
    j = values.index(min(values))
    a, b = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > max(1e-12, 4.0 * math.ulp(max(abs(a), abs(b)))):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b), j


def _golden_surrogate_mean(p):
    """The surrogate mean by the earlier fit, kept as a reference: the same
    128-node objective in the mean ``lam``, minimized over a 41-point log grid
    and then by golden section down to a 1e-12 bracket."""
    u, w = _gauss_legendre(128)
    x = [p.ppf(ui) for ui in u]

    def objective(lam):
        g = TruncatedExponential(lam, p.lo, p.hi)
        g_sq = (2.0 - g._q) / (2.0 * lam * g._q)
        return g_sq - 2.0 * math.fsum([wi * g.pdf(xi) for wi, xi in zip(w, x)])

    m = math.fsum([wi * xi for wi, xi in zip(w, x)]) - p.lo
    a = math.log(m / 100.0)
    step = (math.log(m * 100.0) - a) / 40
    grid = [math.exp(a + i * step) for i in range(41)]
    lam, j = _grid_then_golden(objective, grid)
    if j == 0 or j == len(grid) - 1:
        raise FitError("no interior least-squares minimum bracketed")
    return lam


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(**_SURROGATE_MODELS)
@example(k=0.02, sigma=1e3, hi=10.0)  # near-uniform: both must refuse
@example(k=0.2, sigma=0.2, hi=1.0)  # short ranges, where g's truncation
@example(k=0.5, sigma=0.5, hi=0.5)  # moves the fit by up to 40%
def test_lsq_surrogate_matches_golden_section_reference(k, sigma, hi):
    p = TruncatedPareto(k, sigma, 1 / 75, 1 / 75, hi)
    try:
        want = _golden_surrogate_mean(p)
    except FitError:
        with pytest.raises(FitError):
            lsq_exponential_of_pareto(p)
        return
    assert lsq_exponential_of_pareto(p) == pytest.approx(want, rel=1e-7)


def test_lsq_surrogate_fit_cost(monkeypatch):
    # One pass of the 128-node objective is 128 exponentials.  The fit makes
    # 12 passes (9 grid points and 3 Newton steps) where a grid and golden
    # section made 91; this bound fails at 20.
    p = TruncatedPareto(0.02, 0.0205, 1 / 75, 1 / 75, 10.0)
    calls = []

    def counted_exp(x):
        calls.append(x)
        return fmath.exp(x)

    monkeypatch.setattr(distributions, "exp", counted_exp)
    lsq_exponential_of_pareto(p)
    assert 0 < len(calls) <= 2500


@pytest.mark.parametrize("n", [2, 8, 32, 128])
def test_gauss_legendre_rule(n):
    u, w = _gauss_legendre(n)
    assert len(u) == len(w) == n
    assert all(0.0 < a < b < 1.0 for a, b in zip(u, u[1:]))
    # Symmetric about 1/2, exactly.
    assert all(a + b == 1.0 for a, b in zip(u, reversed(u)))
    assert w == w[::-1]
    # Exact for polynomials up to degree 2n - 1.  The bound is in ulps of
    # 1.0, the weights' sum: a node near 1 carries an absolute error of that
    # size into x^k, however small 1/(k+1) is.
    ulp = math.ulp(1.0)
    assert abs(math.fsum(w) - 1.0) <= 4 * ulp
    for k in range(2 * n):
        assert abs(math.fsum([wi * ui**k for wi, ui in zip(w, u)]) - 1.0 / (k + 1)) <= 4 * ulp, k


def test_run_path_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: importing the CLI and parsing a
    # config, which `run`, `search` and `report` do, and the
    # `fit` subcommand must all run without loading it.  Nor does a
    # config or a `run`, cross-entropy search included, load numpy,
    # statistics or OpenSSL's _hashlib: streams are computed with Python
    # integers, the laws and the normal quantile with accel_eval.fmath,
    # and sha256 comes from the built-in module, which keeps the
    # benchmark's `setup_s` and peak RSS down.  Only `fit` loads numpy.
    config = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    data = tmp_path / "events.csv"
    _write_csv(data, _synthetic_rows(300, seed=41))
    small = tmp_path / "small.yaml"
    small.write_text("seed: 1\nevents: [conflict]\nbins: [low]\nmodes: [cmc, is]\nn_cap: 500\n")
    run_path = ("scipy", "numpy", "statistics", "_hashlib")
    cases = {
        "config": (f"accel_eval.load_config({str(config)!r})", run_path),
        "run": (
            f"accel_eval.cli.main(['run', '--config', {str(small)!r}, "
            f"'--out', {str(tmp_path / 'run')!r}])",
            run_path,
        ),
        "fit": (
            f"accel_eval.cli.main(['fit', {str(data)!r}, '--out', {str(tmp_path / 'm.yaml')!r}])",
            ("scipy",),
        ),
    }
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(accel_eval.__file__))}
    for name, (call, absent) in cases.items():
        code = (
            f"import sys, accel_eval.cli\n{call}\n"
            f"print(sorted(m for m in sys.modules if m.startswith({absent!r})))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip().splitlines()[-1] == "[]", name
    assert (tmp_path / "run" / "report.json").is_file()


def test_sha256_falls_back_to_hashlib():
    # Without CPython's built-in _sha256/_sha2 modules, stream ids and
    # the config digest come from hashlib and are the same.
    code = (
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "import hashlib, accel_eval\n"
        "from accel_eval.config import config_digest\n"
        "from accel_eval.scenario import sha256, stream_namespace\n"
        "assert sha256 is hashlib.sha256, sha256\n"
        "assert stream_namespace('ce/crash/low') == 2798692117\n"
        "assert stream_namespace('estimate/conflict/high/is') == 2358502908\n"
        "resolved = {'seed': 1, 'bins': ['low'], 'x': 0.5}\n"
        "want = hashlib.sha256(b'{\"bins\":[\"low\"],\"seed\":1,\"x\":0.5}').hexdigest()\n"
        "assert config_digest(resolved) == want\n"
        "print('ok')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(accel_eval.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "ok"


def test_empirical_dist_masses_and_ranges():
    d = EmpiricalDist([0.0, 1.0, 3.0], [0.25, 0.75])
    assert d.mass_in_range(0.0, 3.0) == pytest.approx(1.0, rel=1e-12)
    # Half of the first bin's width carries half of its mass.
    assert d.mass_in_range(0.5, 1.0) == pytest.approx(0.125, rel=1e-12)
    # Half of the second bin's width carries half of its mass.
    assert d.mass_in_range(1.0, 2.0) == pytest.approx(0.375, rel=1e-12)
    assert d.mass_in_range(5.0, 6.0) == 0.0


def test_empirical_dist_sampling_stays_in_range():
    d = EmpiricalDist([0.0, 1.0, 3.0], [0.25, 0.75])
    rng = np.random.default_rng(3)
    for _ in range(200):
        u1, u2 = rng.random(2)
        x = d.sample_in_range(1.0, 2.5, u1, u2)
        assert 1.0 <= x < 2.5
    # u_pos places the draw linearly within the selected bin.
    assert d.sample_in_range(0.0, 1.0, 0.0, 0.5) == 0.5


# Counts 7..25 over the default 2 m/s lead-speed edges, as fit writes them:
# the running sum of their masses over (5, 15) rounds below its exact total.
_V_EDGES = [float(v) for v in range(2, 41, 2)]
_COUNTS = list(range(7, 26))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(counts=st.lists(st.integers(0, 50), min_size=19, max_size=19).filter(any),
       lo=st.floats(0.0, 42.0), width=st.floats(0.01, 40.0),
       u_bin=st.sampled_from([0.0, 1 - 2**-53, 1 - 2**-52]), u_pos=st.floats(0.0, 0.999))
@example(counts=_COUNTS, lo=5.0, width=10.0, u_bin=1 - 2**-53, u_pos=0.5)
@example(counts=_COUNTS, lo=5.0, width=10.0, u_bin=1 - 2**-52, u_pos=0.5)
def test_empirical_dist_draw_stays_in_a_weighted_bin_of_its_range(counts, lo, width, u_bin, u_pos):
    # A u_bin at or past the rounded running sum takes the last bin with
    # weight, never a bin the range does not reach.
    d = EmpiricalDist(_V_EDGES, [c / sum(counts) for c in counts])
    hi = lo + width
    assume(d.mass_in_range(lo, hi) > 0.0)
    x = d.sample_in_range(lo, hi, u_bin, u_pos)
    assert lo <= x <= hi
    assert any(counts[j] > 0 and a <= x <= b
               for j, (a, b) in enumerate(zip(_V_EDGES, _V_EDGES[1:])))


def test_empirical_dist_validation():
    with pytest.raises(ValueError):
        EmpiricalDist([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        EmpiricalDist([0.0, 1.0, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        EmpiricalDist([0.0, 1.0, 2.0], [0.6, 0.6])
    with pytest.raises(ValueError):
        EmpiricalDist([0.0, 1.0, 2.0], [-0.1, 1.1])
    d = EmpiricalDist([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        d.sample_in_range(5.0, 6.0, 0.5, 0.5)


def test_lsq_surrogate_scales_with_the_law():
    # Scaling the law scales its surrogate mean.  The fit's grid is centred
    # on the law's mean and its Newton steps stop at a relative width, so
    # nothing in it depends on the law's absolute scale.
    s = 1e6
    p = TruncatedPareto(0.02, 0.0205, 1 / 75, 1 / 75, 10.0)
    scaled = TruncatedPareto(0.02, 0.0205 * s, s / 75, s / 75, 10.0 * s)
    assert lsq_exponential_of_pareto(scaled) == pytest.approx(
        s * lsq_exponential_of_pareto(p), rel=1e-7
    )


def test_lsq_surrogate_requires_interior_minimum():
    # A near-uniform law is fitted best by ever larger means: the objective
    # falls toward the grid's upper edge, and the search must refuse rather
    # than return the edge.
    p = TruncatedPareto(0.02, 1e3, 1 / 75, 1 / 75, 10.0)
    with pytest.raises(FitError):
        lsq_exponential_of_pareto(p)
