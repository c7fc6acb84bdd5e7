"""Distribution laws: normalization, round-trips, tilting, fitting.

Frozen oracle values were computed independently with 50-digit mpmath
from the closed-form survival function and are asserted at float
precision.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

import accel_eval
from accel_eval.distributions import (
    EmpiricalDist,
    FitError,
    TruncatedExponential,
    TruncatedPareto,
    _clip,
    _pow,
    exp_density_ratio,
    fit_exponential_mle,
    fit_pareto,
    lsq_exponential_of_pareto,
    tilt_exponential,
)

from test_ingest import _synthetic_rows, _write_csv

# Oracle point: k=0.5, sigma=0.02, theta=lo=1/75, hi=10, evaluated at x=0.05.
ORACLE_PARETO = dict(k=0.5, sigma=0.02, theta=1 / 75, lo=1 / 75, hi=10.0)
ORACLE_X = 0.05
ORACLE_PDF = 7.101288327317422
ORACLE_CDF = 0.7277998627129141

# Least-squares exponential mean for the default inverse-range law
# (k=0.02, sigma=0.0205, theta=lo=1/75, hi=10).
DEFAULT_SURROGATE_MEAN = 0.020602125081171926


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
    xs = np.linspace(p.lo, p.hi, 101)
    back = p.ppf(p.cdf(xs))
    assert np.max(np.abs(back - xs)) < 1e-9
    us = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(p.cdf(p.ppf(us)) - us)) < 1e-9


def test_pareto_pdf_at_theta_untruncated():
    # With lo = theta and no upper cut the density at theta is 1/sigma.
    p = TruncatedPareto(0.25, 0.04, 0.01, 0.01, math.inf)
    assert p.pdf(0.01) == pytest.approx(1.0 / 0.04, rel=1e-12)


def test_pareto_outside_support():
    p = TruncatedPareto(**ORACLE_PARETO)
    assert p.pdf(p.lo - 1e-3) == 0.0
    assert p.pdf(p.hi + 1e-3) == 0.0
    assert p.cdf(p.lo - 1e-3) == 0.0
    assert p.cdf(p.hi + 1e-3) == 1.0


def test_pareto_sampler_matches_cdf():
    p = TruncatedPareto(**ORACLE_PARETO)
    rng = np.random.Generator(np.random.PCG64(1234))
    xs = p.ppf(rng.random(4000))
    assert stats.kstest(xs, p.cdf).pvalue > 0.01


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
    p = TruncatedPareto(**ORACLE_PARETO)
    assert isinstance(p.pdf(0.05), float)
    out = p.pdf(np.array([0.05, 0.06]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)


@pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (0.0, 3.0), (1.5, 9.0)])
def test_exponential_pdf_normalizes(lo, hi):
    d = TruncatedExponential(0.7, lo, hi)
    top = hi if math.isfinite(hi) else lo + 60 * d.mean
    val, _ = integrate.quad(d.pdf, lo, top, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_exponential_cdf_ppf_roundtrip():
    d = TruncatedExponential(0.4, 0.2, 5.0)
    xs = np.linspace(d.lo, d.hi, 101)
    assert np.max(np.abs(d.ppf(d.cdf(xs)) - xs)) < 1e-9


def test_exponential_shift_is_exact():
    # Shifting the support shifts the quantiles by exactly lo.
    us = np.linspace(0.0, 0.999, 64)
    base = TruncatedExponential(1.3, 0.0, math.inf)
    shifted = TruncatedExponential(1.3, 2.5, math.inf)
    assert np.all(shifted.ppf(us) == 2.5 + base.ppf(us) - 0.0)


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
        xs = np.linspace(a, b, 100)
        assert np.max(np.abs(exp_density_ratio(n, d, xs) / (n.pdf(xs) / d.pdf(xs)) - 1)) < 1e-12


def test_density_ratio_constant_under_equal_means():
    # Equal means cancel the x dependence; the ratio is one float constant.
    orig = TruncatedExponential(1.0, 0.0, math.inf)
    prop = TruncatedExponential(1.0, 7.0, math.inf)
    xs = np.linspace(7.0, 40.0, 333)
    ratios = np.asarray(exp_density_ratio(orig, prop, xs))
    assert np.all(ratios == math.exp(-7.0))


def test_density_ratio_identity_is_exactly_one():
    d = TruncatedExponential(0.7, 0.2, 5.0)
    same = TruncatedExponential(0.7, 0.2, 5.0)
    xs = np.linspace(0.2, 5.0, 50)
    assert np.all(np.asarray(exp_density_ratio(d, same, xs)) == 1.0)


def test_density_ratio_outside_numer_support_is_zero():
    n = TruncatedExponential(1.0, 0.0, 5.0)
    d = TruncatedExponential(1.0, 0.0, math.inf)
    assert exp_density_ratio(n, d, 6.0) == 0.0


@pytest.mark.parametrize("numer,denom", [
    (TruncatedExponential(0.001, 1.0, math.inf), TruncatedExponential(1.0)),
    (TruncatedExponential(1.0), TruncatedExponential(0.001, 1.0, math.inf)),
])
def test_density_ratio_is_finite_where_its_constant_is_not(numer, denom):
    # The ratio's constant is exp(+-1006.9): no float holds it, but the ratio
    # itself is moderate near x = 1.
    xs = np.linspace(1.0, 1.2, 21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exp_density_ratio(numer, denom, xs)
        scalars = [exp_density_ratio(numer, denom, float(x)) for x in xs]
        want = numer.pdf(xs) / denom.pdf(xs)
    assert np.all(np.isfinite(got)) and np.all(want > 0)
    assert np.max(np.abs(got / want - 1)) < 1e-12
    assert np.max(np.abs(np.array(scalars) / want - 1)) < 1e-12


def _bitwise_same(f, arg):
    """``f`` on a Python or numpy float gives a float with the bits of ``f``
    on a 0-d array."""
    with np.errstate(all="ignore"):  # u = 1 at hi = inf divides by zero, on both paths
        ref = float(f(np.asarray(arg))).hex()
        for got in (f(arg), f(np.float64(arg))):
            assert type(got) is float
            assert got.hex() == ref, (arg, got, ref)


def _law_or_reject(make, *args):
    try:
        return make(*args)
    except ValueError:
        assume(False)


_probs = st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=40)
_points = st.lists(st.floats(-1.0, 50.0) | st.sampled_from([math.inf, math.nan]),
                   min_size=1, max_size=40)
_upper = st.just(math.inf) | st.floats(0.01, 40.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(k=st.floats(1e-3, 30.0), sigma=st.floats(1e-3, 5.0), theta=st.floats(-1.0, 1.0),
       lo_gap=st.floats(0.0, 1.0), width=_upper, us=_probs, xs=_points)
def test_pareto_scalar_path_is_bitwise_the_array_path(k, sigma, theta, lo_gap, width, us, xs):
    p = _law_or_reject(TruncatedPareto, k, sigma, theta, theta + lo_gap, theta + lo_gap + width)
    for u in us:
        _bitwise_same(p.ppf, u)
    for x in xs + [p.lo, p.hi]:
        _bitwise_same(p.pdf, x)
        _bitwise_same(p.cdf, x)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mean=st.floats(0.01, 5.0), lo=st.floats(0.0, 2.0), width=_upper,
       other=st.floats(0.01, 5.0), us=_probs, xs=_points)
def test_exponential_scalar_path_is_bitwise_the_array_path(mean, lo, width, other, us, xs):
    d = _law_or_reject(TruncatedExponential, mean, lo, lo + width)
    prop = TruncatedExponential(other, 0.0, math.inf)
    for u in us:
        _bitwise_same(d.ppf, u)
    for x in xs + [d.lo, d.hi]:
        _bitwise_same(d.pdf, x)
        _bitwise_same(d.cdf, x)
        _bitwise_same(lambda y: exp_density_ratio(d, prop, y), x)
        _bitwise_same(lambda y: exp_density_ratio(prop, d, y), x)


_edges = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(base=st.floats(0.0, 10.0) | st.floats(0.0, 1e300) | _edges,
       y=st.floats(-60.0, 60.0) | _edges,
       x=st.floats(-50.0, 50.0) | _edges, lo=st.floats(-10.0, 10.0) | _edges,
       width=st.just(0.0) | _upper)
def test_float_helpers_are_numpy_scalar_ops(base, y, x, lo, width):
    # The laws' float path relies on these two: its power is libm pow, which is
    # np.float64's ``**`` but not np.power (that differs on ~5% of inputs), and
    # its clamp keeps np.clip's NaN and signed-zero rules.
    assume(math.isfinite(lo))
    with np.errstate(all="ignore"):
        assert _pow(base, y).hex() == float(np.float64(base) ** y).hex()
    hi = lo + width
    assert _clip(x, lo, hi).hex() == float(np.clip(np.float64(x), lo, hi)).hex()


@pytest.mark.parametrize("u", [-1e-300, 1.0 + 2.0**-52, -math.inf])
def test_scalar_and_array_paths_reject_the_same_u(u):
    for law in (TruncatedPareto(**ORACLE_PARETO), TruncatedExponential(0.7, 0.2, math.inf)):
        msgs = []
        for arg in (u, np.asarray(u)):
            with pytest.raises(ValueError) as e:
                law.ppf(arg)
            msgs.append(str(e.value))
        assert msgs[0] == msgs[1] == "u must lie in [0, 1]"


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
    xs = truth.ppf(rng.random(4000))
    rep = fit_pareto(xs, theta=0.01)
    assert rep.params["theta"] == 0.01
    assert rep.params["k"] == pytest.approx(0.3, abs=0.08)
    assert rep.params["sigma"] == pytest.approx(0.02, rel=0.15)
    assert rep.n_params == 2
    assert rep.bic == 2 * math.log(4000) - 2.0 * rep.loglik


def test_fit_pareto_default_theta_is_sample_min():
    rng = np.random.Generator(np.random.PCG64(5))
    xs = TruncatedPareto(0.2, 1.0, 0.0, 0.0, math.inf).ppf(rng.random(200))
    rep = fit_pareto(xs)
    assert rep.params["theta"] == float(np.min(xs))


def test_fit_pareto_needs_enough_samples():
    with pytest.raises(ValueError):
        fit_pareto(np.ones(9))
    with pytest.raises(ValueError, match="all samples equal theta"):
        fit_pareto(np.full(20, 0.5))


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
    xs = TruncatedPareto(k, sigma, theta, theta, math.inf).ppf(
        np.random.default_rng(seed).random(n)
    )
    rep = fit_pareto(xs, theta=theta)
    oracle = _nelder_mead_pareto_loglik(xs, theta)
    assert rep.loglik >= oracle - 1e-9 * abs(oracle)


def test_lsq_surrogate_mean_frozen_and_locally_optimal():
    p = TruncatedPareto(0.02, 0.0205, 1 / 75, 1 / 75, 10.0)
    lam = lsq_exponential_of_pareto(p)
    assert lam == pytest.approx(DEFAULT_SURROGATE_MEAN, rel=1e-9)
    # Independent oracle: trapezoid-rule objective must rise on both sides.
    xs = np.linspace(p.lo, p.hi, 20001)
    pp = p.pdf(xs)

    def objective(m):
        g = TruncatedExponential(m, p.lo, p.hi)
        return float(np.trapezoid((g.pdf(xs) - pp) ** 2, xs))

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


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    k=st.floats(0.01, 0.5),
    sigma=st.floats(0.005, 0.2),
    hi=st.sampled_from([10.0, math.inf]),
)
def test_lsq_surrogate_beats_nearby_means(k, sigma, hi):
    p = TruncatedPareto(k, sigma, 1 / 75, 1 / 75, hi)
    lam = lsq_exponential_of_pareto(p)
    err = _squared_error_by_quad(p, lam)
    assert err < _squared_error_by_quad(p, lam * 0.99)
    assert err < _squared_error_by_quad(p, lam * 1.01)


def test_run_path_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: importing the CLI and parsing a
    # config, which `run`, `estimate`, `search` and `report` do, and the
    # `fit` subcommand must all run without loading it.
    config = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    data = tmp_path / "events.csv"
    _write_csv(data, _synthetic_rows(300, seed=41))
    cases = {
        "config": f"accel_eval.load_config({str(config)!r})",
        "fit": f"accel_eval.cli.main(['fit', {str(data)!r}, '--out', {str(tmp_path / 'm.yaml')!r}])",
    }
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(accel_eval.__file__))}
    for name, call in cases.items():
        code = (
            f"import sys, accel_eval.cli\n{call}\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip().splitlines()[-1] == "[]", name


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
    # Scaling the law scales its surrogate mean.  At 1e6 the float spacing
    # of the bracket exceeds the absolute stopping width, so this also
    # checks that the polish still stops there.
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
