"""Parametric laws for lane-change scenario variables.

Inverse range at the start of a cut-in follows a truncated Pareto law;
inverse time-to-collision follows a truncated exponential law.  Both
expose pdf/cdf/ppf so that sampling and importance weights share one set
of formulas.  Exponential tilting keeps proposal laws inside the
exponential family, which is what makes the likelihood ratios cheap and
numerically tame.

Exponential laws are parameterized by their MEAN, never by a rate.  A
tilt of ``vartheta`` moves the mean from ``lam`` to ``lam - vartheta``,
so negative tilts push mass toward larger values.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncatedPareto",
    "TruncatedExponential",
    "EmpiricalDist",
    "FitReport",
    "FitError",
    "tilt_exponential",
    "exp_density_ratio",
    "fit_exponential_mle",
    "fit_pareto",
    "lsq_exponential_of_pareto",
]


_LSQ_NODES = 128  # Gauss-Legendre nodes of the least-squares surrogate fit
_XTOL = 1e-12  # bracket width at which a golden-section polish stops, unless
# that is under 4 ulp of the bracket, where golden steps stop shrinking it
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section step


class FitError(ValueError):
    """A maximum-likelihood or least-squares fit found no usable optimum."""


# Each law formula below is written once, for floats (Python or numpy) and
# arrays alike; only these helpers treat the two differently.  On a float,
# or a 0-d array, whose arithmetic decays to floats, ``**`` is libm ``pow``
# (numpy's array ``**`` is not) and the exponential laws call the same numpy
# ufuncs, so a float and a 0-d array holding it give the same bits.
# ``_clip`` and ``_on_support`` keep np.clip's tie rules on floats.


def _pow(x, y):
    """``x ** y``; where Python raises on a float (a zero base under a negative
    power, or overflow), np.float64's ``**`` gives inf and warns, as numpy
    does on arrays."""
    try:
        return x ** y
    except ArithmeticError:
        return float(np.float64(x) ** y)


def _clip(x, lo: float, hi: float):
    """``np.clip(x, lo, hi)``, as a float for a float or a 0-d array.  On a
    float NaN passes, and a bound equal to ``x`` (a zero of the other sign)
    does not replace it."""
    if isinstance(x, float):
        x = lo if x < lo else x
        return float(hi if x > hi else x)
    out = np.clip(x, lo, hi)
    return out if out.ndim else float(out)


def _check_u(u):
    """``u`` as a float or an array, once every value lies in [0, 1]."""
    if isinstance(u, float):
        bad = u < 0.0 or u > 1.0
    else:
        u = np.asarray(u, dtype=float)
        bad = np.any((u < 0.0) | (u > 1.0))
    if bad:
        raise ValueError("u must lie in [0, 1]")
    return u


def _on_support(x, lo: float, hi: float, f):
    """``f(x)`` on [lo, hi] and 0.0 outside, as a float for a float or a 0-d
    array; on arrays ``f`` sees ``lo`` in place of the points outside."""
    if isinstance(x, float):
        return float(f(x)) if x >= lo and x <= hi else 0.0
    x = np.asarray(x, dtype=float)
    inside = (x >= lo) & (x <= hi)
    out = np.where(inside, f(np.where(inside, x, lo)), 0.0)
    return out if x.ndim else float(out)


class TruncatedPareto:
    """Generalized Pareto density restricted to [lo, hi] and renormalized.

    The base law has shape ``k > 0``, scale ``sigma > 0`` and location
    ``theta``; its survival function is ``(1 + k*(x-theta)/sigma)**(-1/k)``.
    ``hi`` may be ``inf``.
    """

    def __init__(self, k: float, sigma: float, theta: float, lo: float, hi: float):
        if not k > 0:
            raise ValueError(f"shape k must be > 0, got {k}")
        if not sigma > 0:
            raise ValueError(f"scale sigma must be > 0, got {sigma}")
        if not theta <= lo < hi:
            raise ValueError(f"need theta <= lo < hi, got theta={theta} lo={lo} hi={hi}")
        self.k = float(k)
        self.sigma = float(sigma)
        self.theta = float(theta)
        self.lo = float(lo)
        self.hi = float(hi)
        # Base survival at lo, and the mass of the base law kept by the
        # truncation.  At hi = inf the survival power is exactly 0.0.
        self._sf_lo = self._base_sf(self.lo)
        self._z = self._sf_lo - self._base_sf(self.hi)
        if not self._z > 0:
            raise ValueError("truncation range carries no probability mass")

    def _base_sf(self, x):
        return _pow(1.0 + self.k * (x - self.theta) / self.sigma, -1.0 / self.k)

    def pdf(self, x) -> np.ndarray | float:
        return _on_support(x, self.lo, self.hi, lambda x: (1.0 / self.sigma) * _pow(
            1.0 + self.k * (x - self.theta) / self.sigma, -1.0 - 1.0 / self.k
        ) / self._z)

    def cdf(self, x) -> np.ndarray | float:
        xs = _clip(x, self.lo, self.hi)
        return _clip((self._sf_lo - self._base_sf(xs)) / self._z, 0.0, 1.0)

    def ppf(self, u) -> np.ndarray | float:
        s = self._sf_lo - _check_u(u) * self._z
        x = self.theta + (self.sigma / self.k) * (_pow(s, -self.k) - 1.0)
        return _clip(x, self.lo, self.hi)


class TruncatedExponential:
    """Exponential law with mean ``mean``, restricted to [lo, hi].

    ``mean`` parameterizes the untruncated family; the density on the
    truncation range is ``exp(-(x-lo)/mean) / (mean * q)`` with
    ``q = 1 - exp(-(hi-lo)/mean)``.  ``hi`` may be ``inf``.
    """

    def __init__(self, mean: float, lo: float = 0.0, hi: float = math.inf):
        if not mean > 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        if not 0.0 <= lo < hi:
            raise ValueError(f"need 0 <= lo < hi, got lo={lo} hi={hi}")
        self.mean = float(mean)
        self.lo = float(lo)
        self.hi = float(hi)
        # Kept mass of the base law, in a form stable for large lo.
        self._q = float(-math.expm1(-(self.hi - self.lo) / self.mean)) if math.isfinite(hi) else 1.0
        if not self._q > 0:
            raise ValueError("truncation range carries no probability mass")

    def pdf(self, x) -> np.ndarray | float:
        return _on_support(x, self.lo, self.hi, lambda x: np.exp(
            -(x - self.lo) / self.mean) / (self.mean * self._q))

    def cdf(self, x) -> np.ndarray | float:
        xs = _clip(x, self.lo, self.hi)
        return _clip(-np.expm1(-(xs - self.lo) / self.mean) / self._q, 0.0, 1.0)

    def ppf(self, u) -> np.ndarray | float:
        # Never below lo; the upper clip is a no-op at hi = inf.
        x = self.lo - self.mean * np.log1p(-_check_u(u) * self._q)
        return _clip(x, self.lo, self.hi)


def tilt_exponential(base: TruncatedExponential, vartheta: float) -> TruncatedExponential:
    """Exponentially tilted version of ``base`` with mean ``base.mean - vartheta``.

    The tilted law stays in the truncated-exponential family on the same
    support, so importance weights never divide by zero.  ``vartheta``
    must stay strictly below ``base.mean``.
    """
    if not vartheta < base.mean:
        raise ValueError(
            f"tilt vartheta={vartheta} must be < mean {base.mean} to keep the mean positive"
        )
    return TruncatedExponential(base.mean - vartheta, base.lo, base.hi)


def exp_density_ratio(numer: TruncatedExponential, denom: TruncatedExponential, x):
    """pdf(numer, x) / pdf(denom, x) in closed form.

    Equals ``c * exp(-x * (1/numer.mean - 1/denom.mean))`` with a constant
    ``c`` fixed by the two normalizations, so equal means give the exact
    same float at every ``x``.  Where ``c`` overflows or rounds to 0, its
    log joins the exponent instead.  Points outside ``numer``'s support
    return 0; callers are expected to evaluate only at points drawn from
    ``denom``.
    """
    log_c = (
        math.log(denom.mean * denom._q)
        - math.log(numer.mean * numer._q)
        + numer.lo / numer.mean
        - denom.lo / denom.mean
    )
    rate_diff = 1.0 / numer.mean - 1.0 / denom.mean
    try:
        c = math.exp(log_c)
    except OverflowError:
        c = math.inf
    if 0.0 < c < math.inf:
        return _on_support(x, numer.lo, numer.hi, lambda x: c * np.exp(-x * rate_diff))
    return _on_support(x, numer.lo, numer.hi, lambda x: np.exp(log_c - x * rate_diff))


class EmpiricalDist:
    """Piecewise-uniform law over histogram bins.

    ``bin_edges`` has one more entry than ``bin_mass``; mass is taken as
    uniform within each bin.  Sampling restricted to a sub-range keeps
    each bin's contribution proportional to the overlapped fraction of
    its width, so restricting to the full support reproduces the
    unrestricted law.
    """

    def __init__(self, bin_edges, bin_mass):
        edges = np.asarray(bin_edges, dtype=float)
        mass = np.asarray(bin_mass, dtype=float)
        if edges.ndim != 1 or mass.ndim != 1 or len(edges) != len(mass) + 1:
            raise ValueError("need len(bin_edges) == len(bin_mass) + 1")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("bin_edges must be strictly increasing")
        if np.any(mass < 0):
            raise ValueError("bin masses must be nonnegative")
        total = float(mass.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"bin masses must sum to 1 within 1e-9, got {total}")
        self.bin_edges = edges
        self.bin_mass = mass / total
        self.lo = float(edges[0])
        self.hi = float(edges[-1])
        # (lo, hi) -> (left, overlap, total, cumsum) of sample_in_range,
        # as lists of the same floats; one entry per velocity bin sampled.
        self._samplers: dict[tuple[float, float], tuple] = {}

    def _range_weights(self, lo: float, hi: float):
        if not lo < hi:
            raise ValueError(f"need lo < hi, got {lo}, {hi}")
        left = np.maximum(self.bin_edges[:-1], lo)
        right = np.minimum(self.bin_edges[1:], hi)
        overlap = np.clip(right - left, 0.0, None)
        w = self.bin_mass * overlap / np.diff(self.bin_edges)
        return left, overlap, w

    def mass_in_range(self, lo: float, hi: float) -> float:
        """Probability carried by [lo, hi]."""
        _, _, w = self._range_weights(lo, hi)
        return float(w.sum())

    def sample_in_range(self, lo: float, hi: float, u_bin: float, u_pos: float) -> float:
        """One draw conditioned on [lo, hi], from two uniforms in [0, 1)."""
        sampler = self._samplers.get((lo, hi))
        if sampler is None:
            left, overlap, w = self._range_weights(lo, hi)
            total = float(w.sum())
            if total <= 0.0:
                raise ValueError(f"range ({lo}, {hi}) carries no probability mass")
            sampler = (left.tolist(), overlap.tolist(), total, np.cumsum(w).tolist())
            self._samplers[(lo, hi)] = sampler
        left, overlap, total, cum = sampler
        # bisect_right is np.searchsorted(side="right") on a sorted list.
        j = min(bisect_right(cum, u_bin * total), len(cum) - 1)
        return float(left[j] + u_pos * overlap[j])


@dataclass(frozen=True)
class FitReport:
    """Result of a maximum-likelihood fit.

    ``params`` holds everything needed to rebuild the law; ``n_params``
    counts only the parameters that were actually optimized, which is
    what enters the BIC.
    """

    params: dict[str, float]
    n_params: int
    loglik: float
    bic: float
    n: int


def fit_exponential_mle(samples) -> FitReport:
    """Fit an untruncated exponential by maximum likelihood (mean = sample mean)."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if np.any(x <= 0):
        raise ValueError("samples must be positive")
    lam = float(x.mean())
    n = int(x.size)
    loglik = -n * math.log(lam) - float(x.sum()) / lam
    bic = 1 * math.log(n) - 2.0 * loglik
    return FitReport(params={"mean": lam}, n_params=1, loglik=loglik, bic=bic, n=n)


def fit_pareto(samples, theta: float | None = None) -> FitReport:
    """Fit a generalized Pareto law (k, sigma) by maximum likelihood.

    The location ``theta`` is held fixed (defaulting to the sample
    minimum); only shape and scale are optimized, so ``n_params`` is 2.
    With ``t = k / sigma`` and excesses ``x = samples - theta`` the best
    shape is ``k(t) = mean(log1p(t x))``, which leaves the profile
    log-likelihood ``-n (log k(t) - log t + k(t) + 1)`` (Grimshaw 1993),
    maximized over ``log(t mean(x))`` on a grid from 1e-12 to 1e6.  A
    maximum at the low edge is the exponential limit k -> 0 (k ~ 1e-12,
    sigma ~ mean(x)); one at the high edge raises :class:`FitError`.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 10:
        raise ValueError("need at least 10 samples")
    if theta is None:
        theta = float(x.min())
    if np.any(x < theta):
        raise ValueError("samples must be >= theta")
    excess = x - theta
    m = float(excess.mean())
    if not m > 0:
        raise ValueError("all samples equal theta; the scale cannot be fitted")
    n = int(x.size)

    def shape(s: float) -> tuple[float, float]:
        t = math.exp(s) / m
        return float(np.log1p(t * excess).mean()), t

    def neg_profile(s: float) -> float:
        k, t = shape(s)
        return n * (math.log(k) - math.log(t) + k + 1.0)

    grid = np.linspace(math.log(1e-12), math.log(1e6), 41)
    s_hat, j = _grid_then_golden(neg_profile, grid)
    if j == len(grid) - 1:
        raise FitError("generalized Pareto likelihood grows without bound in k / sigma")
    k_hat, t_hat = shape(s_hat)
    loglik = -neg_profile(s_hat)
    return FitReport(
        params={"k": k_hat, "sigma": k_hat / t_hat, "theta": float(theta)},
        n_params=2, loglik=loglik, bic=2 * math.log(n) - 2.0 * loglik, n=n,
    )


def _grid_then_golden(f, grid) -> tuple[float, int]:
    """Golden-section minimum (Kiefer 1953) of ``f`` between the neighbours of
    its argmin ``j`` over ``grid``; returns it and ``j``, so that each caller
    decides which edge of the grid is an error."""
    j = int(np.argmin([f(g) for g in grid]))
    a, b = float(grid[max(j - 1, 0)]), float(grid[min(j + 1, len(grid) - 1)])
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > max(_XTOL, 4.0 * math.ulp(max(abs(a), abs(b)))):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b), j


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1], by Newton's
    method on the Legendre recurrence: unlike ``numpy.polynomial.legendre.leggauss``
    it calls no LAPACK routine, whose first use adds about 1 MB to the process."""
    t = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(4):  # enough for the nodes the weights are taken at to settle
        p_prev, p = np.ones(n), t
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * t * p - (k - 1) * p_prev) / k
        dp = n * (t * p - p_prev) / (t * t - 1.0)
        t = t - p / dp
    return 0.5 * (t + 1.0), 1.0 / ((1.0 - t * t) * dp * dp)


def lsq_exponential_of_pareto(p: TruncatedPareto) -> float:
    """Mean of the truncated exponential closest to ``p`` in squared density error.

    This is the anchor the tilted proposal family is built around: the
    heavy-tailed inverse-range law is replaced by the best exponential
    approximation on the same truncation range.  A 41-point log grid
    spanning 10^4 around p's mean above ``lo`` must bracket an interior
    minimum (hitting its boundary raises :class:`FitError`); a
    golden-section search then narrows that bracket to ``_XTOL``.

    The squared error is minimized as ``int g^2 - 2 E_p[g(X)]`` (the
    constant ``int p^2`` dropped): ``int g^2 = 1 / (2 lam tanh((hi-lo) / (2 lam)))``,
    and ``E_p[g]`` is one fixed Gauss-Legendre rule on p's probability
    scale, with the nodes ``p.ppf(u_i)`` computed once per fit.  The same
    rule gives the mean that centres the grid; its error on heavy tails
    is far smaller than the grid's span.
    """
    u, w = _gauss_legendre(_LSQ_NODES)
    x = p.ppf(u)

    def objective(lam: float) -> float:
        g = TruncatedExponential(lam, p.lo, p.hi)
        g_sq = 1.0 / (2.0 * lam * math.tanh((p.hi - p.lo) / (2.0 * lam)))
        return g_sq - 2.0 * float((w * g.pdf(x)).sum())

    m = float((w * x).sum()) - p.lo
    grid = np.exp(np.linspace(math.log(m / 100.0), math.log(m * 100.0), 41))
    lam, j = _grid_then_golden(objective, grid)
    if j == 0 or j == len(grid) - 1:
        raise FitError("no interior least-squares minimum bracketed")
    return lam
