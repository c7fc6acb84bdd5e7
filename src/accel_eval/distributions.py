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

from .fmath import exp, expm1, log, log1p

__all__ = [
    "TruncatedPareto",
    "TruncatedExponential",
    "EmpiricalDist",
    "FitError",
    "tilt_exponential",
    "exp_density_ratio",
    "lsq_exponential_of_pareto",
]


_LSQ_NODES = 128  # Gauss-Legendre nodes of the least-squares surrogate fit
_LSQ_GRID = 9  # points of the log grid that brackets the fit, 10^4 wide
_NEWTON_RTOL = 1e-13  # relative Newton step at which a fit stops
_NEWTON_MAX_STEPS = 50  # cap on a fit's Newton and bisection steps


class FitError(ValueError):
    """A maximum-likelihood or least-squares fit found no usable optimum."""


# Each law formula below takes one float at a time and computes with the
# functions of ``fmath``, which are built from correctly rounded operations
# only: a value has the same bits on any IEEE-754 machine and any
# supported Python.  ``_clip`` keeps np.clip's NaN and signed-zero rules;
# a density is 0.0 off its closed support, NaN included.


def _clip(x: float, lo: float, hi: float) -> float:
    """``np.clip(x, lo, hi)`` as a float: NaN passes, and a bound equal to
    ``x`` (a zero of the other sign) does not replace it."""
    x = lo if x < lo else x
    return float(hi if x > hi else x)


def _check_u(u: float) -> float:
    """``u``, once it lies in [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    return u


class TruncatedPareto:
    """Generalized Pareto density restricted to [lo, hi] and renormalized.

    The base law has shape ``k > 0``, scale ``sigma > 0`` and location
    ``theta``; with ``z = (x-theta)/sigma`` its survival function is
    ``exp(-log1p(k*z)/k)``, which stays accurate as k -> 0, where the law
    tends to the exponential of mean ``sigma``.  ``hi`` may be ``inf``.
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
        # truncation.  At hi = inf the survival is exp(-inf), exactly 0.0.
        self._sf_lo = self._base_sf(self.lo)
        self._z = self._sf_lo - self._base_sf(self.hi)
        if not self._z > 0:
            raise ValueError("truncation range carries no probability mass")

    def _base_sf(self, x: float) -> float:
        return exp(-log1p(self.k * (x - self.theta) / self.sigma) / self.k)

    def pdf(self, x: float) -> float:
        if not self.lo <= x <= self.hi:
            return 0.0
        return (1.0 / self.sigma) * exp(
            (-1.0 - 1.0 / self.k) * log1p(self.k * (x - self.theta) / self.sigma)
        ) / self._z

    def cdf(self, x: float) -> float:
        xs = _clip(x, self.lo, self.hi)
        return _clip((self._sf_lo - self._base_sf(xs)) / self._z, 0.0, 1.0)

    def ppf(self, u: float) -> float:
        s = self._sf_lo - _check_u(u) * self._z
        x = self.theta + (self.sigma / self.k) * expm1(-self.k * log(s))
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
        self._q = -expm1(-(self.hi - self.lo) / self.mean) if math.isfinite(hi) else 1.0
        if not self._q > 0:
            raise ValueError("truncation range carries no probability mass")

    def pdf(self, x: float) -> float:
        if not self.lo <= x <= self.hi:
            return 0.0
        return exp(-(x - self.lo) / self.mean) / (self.mean * self._q)

    def cdf(self, x: float) -> float:
        xs = _clip(x, self.lo, self.hi)
        return _clip(-expm1(-(xs - self.lo) / self.mean) / self._q, 0.0, 1.0)

    def ppf(self, u: float) -> float:
        # Never below lo; the upper clip is a no-op at hi = inf.
        x = self.lo - self.mean * log1p(-_check_u(u) * self._q)
        return _clip(x, self.lo, self.hi)


def tilt_exponential(base: TruncatedExponential, vartheta: float) -> TruncatedExponential:
    """Exponentially tilted version of ``base`` with mean ``base.mean - vartheta``.

    The tilted law stays in the truncated-exponential family on the same
    support, so importance weights never divide by zero.  ``vartheta``
    must stay strictly below ``base.mean``: for floats that is the
    constructor's own ``mean > 0`` test of ``base.mean - vartheta``.
    """
    return TruncatedExponential(base.mean - vartheta, base.lo, base.hi)


def exp_density_ratio(numer: TruncatedExponential, denom: TruncatedExponential, x: float) -> float:
    """pdf(numer, x) / pdf(denom, x) in closed form.

    Equals ``c * exp(-x * (1/numer.mean - 1/denom.mean))`` with a constant
    ``c`` fixed by the two normalizations, so equal means give the exact
    same float at every ``x``.  Where ``c`` overflows or rounds to 0, its
    log joins the exponent instead.  Points outside ``numer``'s support
    return 0; callers are expected to evaluate only at points drawn from
    ``denom``.
    """
    if not numer.lo <= x <= numer.hi:
        return 0.0
    log_c = (
        log(denom.mean * denom._q)
        - log(numer.mean * numer._q)
        + numer.lo / numer.mean
        - denom.lo / denom.mean
    )
    rate_diff = 1.0 / numer.mean - 1.0 / denom.mean
    c = exp(log_c)
    if 0.0 < c < math.inf:
        return c * exp(-x * rate_diff)
    return exp(log_c - x * rate_diff)


class EmpiricalDist:
    """Piecewise-uniform law over histogram bins.

    ``bin_edges`` has one more entry than ``bin_mass``; mass is taken as
    uniform within each bin.  Sampling restricted to a sub-range keeps
    each bin's contribution proportional to the overlapped fraction of
    its width, so restricting to the full support reproduces the
    unrestricted law.
    """

    def __init__(self, bin_edges, bin_mass):
        edges = [float(e) for e in bin_edges]
        mass = [float(m) for m in bin_mass]
        if len(edges) != len(mass) + 1:
            raise ValueError("need len(bin_edges) == len(bin_mass) + 1")
        if not all(b > a for a, b in zip(edges, edges[1:])):
            raise ValueError("bin_edges must be strictly increasing")
        if any(m < 0 for m in mass):
            raise ValueError("bin masses must be nonnegative")
        total = math.fsum(mass)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"bin masses must sum to 1 within 1e-9, got {total}")
        self.bin_edges = edges
        self.bin_mass = [m / total for m in mass]
        self.lo = edges[0]
        self.hi = edges[-1]
        # (lo, hi) -> (left, overlap, total, running sum) of sample_in_range;
        # one entry per velocity bin sampled.
        self._samplers: dict[tuple[float, float], tuple] = {}

    def _range_weights(self, lo: float, hi: float):
        if not lo < hi:
            raise ValueError(f"need lo < hi, got {lo}, {hi}")
        e = self.bin_edges
        left = [max(a, lo) for a in e[:-1]]
        overlap = [max(min(b, hi) - a, 0.0) for a, b in zip(left, e[1:])]
        w = [m * o / (b - a) for m, o, a, b in zip(self.bin_mass, overlap, e, e[1:])]
        return left, overlap, w

    def mass_in_range(self, lo: float, hi: float) -> float:
        """Probability carried by [lo, hi]."""
        return math.fsum(self._range_weights(lo, hi)[2])

    def sample_in_range(self, lo: float, hi: float, u_bin: float, u_pos: float) -> float:
        """One draw conditioned on [lo, hi], from two uniforms in [0, 1)."""
        sampler = self._samplers.get((lo, hi))
        if sampler is None:
            left, overlap, w = self._range_weights(lo, hi)
            total = math.fsum(w)
            if total <= 0.0:
                raise ValueError(f"range ({lo}, {hi}) carries no probability mass")
            cum, acc = [], 0.0
            for x in w:
                acc += x
                cum.append(acc)
            # Ends at the last bin with weight, the one a u_bin * total at or
            # past the rounded running sum must fall back to.
            cum = cum[: max(j for j, x in enumerate(w) if x > 0.0) + 1]
            sampler = (left, overlap, total, cum)
            self._samplers[(lo, hi)] = sampler
        left, overlap, total, cum = sampler
        j = min(bisect_right(cum, u_bin * total), len(cum) - 1)
        return left[j] + u_pos * overlap[j]


def _gauss_legendre(n: int) -> tuple[list[float], list[float]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1], for an even n.

    Each positive root of the Legendre polynomial P_n is found by Newton's
    method on its recurrence, from Tricomi's expansion to its n^-4 term
    (Lether 1978), ``(1 - (1 - 1/n) / (8 n^2) - (39 - 28 / sin^2 theta) /
    (384 n^4)) cos theta`` at ``theta = pi (i + 3/4) / (n + 1/2)``, with the
    cosine summed from its Taylor series.  A step under 1e-10 is the last:
    it leaves the root within an ulp for n up to a few hundred, and the
    weight takes P_n' at the root to first order in that step, with P_n''
    from Legendre's equation.  The negative roots mirror the positive ones.
    """
    rec = [(float(2 * k - 1), float(k - 1), float(k)) for k in range(2, n + 1)]
    inv_n2 = 1.0 / (n * n)
    roots, weights = [], []
    for i in range(n // 2):
        theta = math.pi * (i + 0.75) / (n + 0.5)
        c = term = 1.0
        for j in range(2, 26, 2):  # theta < pi / 2: the terms left out are under 1e-19
            term *= -theta * theta / ((j - 1) * j)
            c += term
        shrink = (1.0 - 1.0 / n) / 8.0 + inv_n2 * (39.0 - 28.0 / (1.0 - c * c)) / 384.0
        t = c * (1.0 - inv_n2 * shrink)
        for _ in range(10):
            p_prev, p = 1.0, t
            for a, b, k in rec:
                p_prev, p = p, (a * t * p - b * p_prev) / k
            dp = n * (t * p - p_prev) / (t * t - 1.0)
            step = p / dp
            t -= step
            if abs(step) <= 1e-10:
                break
        t0 = t + step
        dp -= step * (2.0 * t0 * dp - n * (n + 1) * p) / (1.0 - t0 * t0)
        roots.append(t)
        weights.append(1.0 / ((1.0 - t * t) * dp * dp))
    nodes = [0.5 * (1.0 - t) for t in roots] + [0.5 * (1.0 + t) for t in reversed(roots)]
    return nodes, weights + weights[::-1]


def lsq_exponential_of_pareto(p: TruncatedPareto) -> float:
    """Mean of the truncated exponential closest to ``p`` in squared density error.

    This is the anchor the tilted proposal family is built around: the
    heavy-tailed inverse-range law is replaced by the best exponential
    approximation on the same truncation range.

    In g's rate ``s = 1/lam``, with ``d = x - lo``, g's kept mass
    ``q = 1 - exp(-s (hi - lo))`` (1 at ``hi = inf``) and
    ``H(s) = E_p[exp(-s d)]``, the squared error less the constant
    ``int p^2`` is ``J(s) = int g^2 - 2 E_p[g] = (s / q) (1 - q/2 - 2 H)``.
    ``E_p`` is one fixed Gauss-Legendre rule on p's probability scale, at
    nodes ``p.ppf(u_i)`` computed once per fit, so one pass of exponentials
    gives ``J``, ``J'`` and ``J''``.  The same rule gives p's mean above
    ``lo``, which centres a 9-point log grid of rates spanning 10^4; its
    error on heavy tails is far smaller than that span.  The grid must
    bracket an interior minimum of ``J``, or :class:`FitError` is raised;
    :func:`_newton_on_grid` then polishes it with Newton steps on ``J' = 0``.
    """
    u, w = _gauss_legendre(_LSQ_NODES)
    d = [p.ppf(ui) - p.lo for ui in u]
    wd = [wi * di for wi, di in zip(w, d)]
    wdd = [wi * di for wi, di in zip(wd, d)]
    span = p.hi - p.lo

    def objective(s: float) -> tuple[float, float, float]:
        """``J(s)``, ``J'(s)`` and ``J''(s)``, from ``J = r (1 - 2 H) - s/2``, ``r = s / q``."""
        e = [exp(-s * di) for di in d]
        h = math.fsum([wi * ei for wi, ei in zip(w, e)])
        h1 = math.fsum([wi * ei for wi, ei in zip(wd, e)])  # -H'
        h2 = math.fsum([wi * ei for wi, ei in zip(wdd, e)])  # H''
        if math.isinf(span):
            r, r1, r2 = s, 1.0, 0.0
        else:
            q = -expm1(-s * span)
            dq = span * (1.0 - q)  # q', and q'' = -span q'
            r = s / q
            r1 = (q - s * dq) / (q * q)
            r2 = (s * span - 2.0) * dq / (q * q) + 2.0 * s * dq * dq / (q * q * q)
        return (
            r * (1.0 - 2.0 * h) - 0.5 * s,
            r1 * (1.0 - 2.0 * h) + 2.0 * r * h1 - 0.5,
            r2 * (1.0 - 2.0 * h) + 4.0 * r1 * h1 - 2.0 * r * h2,
        )

    m = math.fsum(wd)
    a = -log(m * 100.0)
    step = (-log(m / 100.0) - a) / (_LSQ_GRID - 1)
    s, j = _newton_on_grid(objective, [exp(a + i * step) for i in range(_LSQ_GRID)])
    if j == 0 or j == _LSQ_GRID - 1:
        raise FitError("no interior least-squares minimum bracketed")
    return 1.0 / s


def _newton_on_grid(objective, grid: list[float]) -> tuple[float, int]:
    """Minimum of ``objective`` next to ``grid[j]``, the best point of a
    positive, increasing grid; returns it and ``j``.

    ``objective(x)`` returns ``(f, f', f'')``.  At an edge ``j`` the minimum
    is ``grid[j]``, and the caller decides what that edge means.  Otherwise
    Newton's method on ``f' = 0`` runs from ``grid[j]``, bisecting the
    bracket that the signs of ``f'`` keep whenever a step would leave it or
    ``f''`` is not positive, and stops after a step of at most
    ``_NEWTON_RTOL`` relative, or after ``_NEWTON_MAX_STEPS`` steps.  It
    never compares two values of ``f``, which differ by less than their
    rounding near the minimum, so the minimum is as accurate as ``f'``.
    """
    values = [objective(x) for x in grid]
    j = min(range(len(grid)), key=lambda i: values[i][0])
    if j == 0 or j == len(grid) - 1:
        return grid[j], j
    lo, hi = grid[j - 1], grid[j + 1]
    x, (_, slope, curv) = grid[j], values[j]
    for _ in range(_NEWTON_MAX_STEPS):
        if slope < 0.0:
            lo = x
        else:
            hi = x
        if curv > 0.0 and lo < x - slope / curv < hi:
            nxt = x - slope / curv
        else:
            nxt = 0.5 * (lo + hi)
        done = abs(nxt - x) <= _NEWTON_RTOL * x
        x = nxt
        if done:
            break
        _, slope, curv = objective(x)
    return x, j
