"""Monte Carlo estimation, stopping rule, and rate accounting.

The same accumulator serves crude Monte Carlo and importance sampling:
each test contributes ``indicator * likelihood`` (likelihood 1 under the
original law).  Sums are held as integers scaled by 2**-1074 (every
finite float is such a dyadic rational), so accumulation and merging are
exact: any partition of a sample stream across batches merges into
bit-identical state, and merge is truly associative and commutative
rather than associative up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fmath import exp, normal_ppf

__all__ = [
    "MILE_M",
    "EstimatorAccumulator",
    "merge",
    "ConfidenceSpec",
    "InjuryModel",
    "relative_half_width",
    "required_n_cmc",
    "injury_probability",
]

MILE_M = 1609.344  # meters per statute mile, exact

_FIXED_BITS = 1074  # smallest float exponent; scaling by it makes floats integers


def _to_fixed(x: float) -> int:
    p, q = x.as_integer_ratio()
    # q is always a power of two for a float.
    return p << (_FIXED_BITS - (q.bit_length() - 1))


def _from_fixed(v: int) -> float:
    # int/int division is correctly rounded.
    return v / (1 << _FIXED_BITS)


@dataclass
class EstimatorAccumulator:
    """Streaming sums for the weighted-indicator estimator.

    Sums live in exact fixed point (see module docstring): the values at
    scale 2**-1074 and their squares, exact too, at scale 2**-2148.  The
    sample variance is then formed from exact integers with one rounding,
    so it is the correctly rounded variance of the stream, exactly zero
    for a constant one.
    """

    n: int = 0
    _sum_w: int = 0
    _sum_w2: int = 0
    _distance: int = 0

    @property
    def distance_m(self) -> float:
        return _from_fixed(self._distance)

    def update(self, indicator: float, likelihood: float, distance_m: float = 0.0) -> None:
        """Add one test: indicator in [0, 1], importance weight, meters driven."""
        if not 0.0 <= indicator <= 1.0:
            raise ValueError(f"indicator must lie in [0, 1], got {indicator}")
        if not (likelihood >= 0.0 and math.isfinite(likelihood)):
            raise ValueError(f"likelihood must be finite and >= 0, got {likelihood}")
        if not math.isfinite(distance_m):
            raise ValueError(f"distance_m must be finite, got {distance_m}")
        p, q = (indicator * likelihood).as_integer_ratio()
        shift = _FIXED_BITS - (q.bit_length() - 1)
        self.n += 1
        self._sum_w += p << shift
        self._sum_w2 += (p * p) << (2 * shift)
        self._distance += _to_fixed(distance_m)

    def mean(self) -> float:
        if self.n == 0:
            raise ValueError("no samples accumulated")
        return self._sum_w / (self.n << _FIXED_BITS)

    def sample_variance(self) -> float:
        """Unbiased variance of the contributed values, correctly rounded."""
        n, s1 = self.n, self._sum_w
        if n < 2:
            raise ValueError("need at least 2 samples")
        # Exact numerator, >= 0 by Cauchy-Schwarz; int/int division rounds once,
        # and a quotient past the float range rounds to inf.
        try:
            return (n * self._sum_w2 - s1 * s1) / ((n * (n - 1)) << (2 * _FIXED_BITS))
        except OverflowError:
            return math.inf


def merge(a: EstimatorAccumulator, b: EstimatorAccumulator) -> EstimatorAccumulator:
    """Combine two partial accumulators; exact, associative, commutative."""
    return EstimatorAccumulator(
        n=a.n + b.n,
        _sum_w=a._sum_w + b._sum_w,
        _sum_w2=a._sum_w2 + b._sum_w2,
        _distance=a._distance + b._distance,
    )


@dataclass(frozen=True)
class ConfidenceSpec:
    """Confidence level 100*(1-alpha)% and relative half-width target beta."""

    alpha: float = 0.2
    beta: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    @property
    def z_alpha(self) -> float:
        """Two-sided normal quantile for the confidence level."""
        return normal_ppf(1.0 - self.alpha / 2.0)


def relative_half_width(acc: EstimatorAccumulator, spec: ConfidenceSpec) -> float | None:
    """Half-width of the CI divided by the estimate; None while not estimable."""
    if acc.n < 2:
        return None
    m = acc.mean()
    if m <= 0.0:
        return None
    s = math.sqrt(acc.sample_variance())
    return spec.z_alpha * s / (m * math.sqrt(acc.n))


def required_n_cmc(gamma: float, spec: ConfidenceSpec) -> int:
    """Crude Monte Carlo sample size needed to hit the half-width target.

    Grows like 1/gamma, which is what makes direct testing of rare
    events impractical and acceleration worthwhile.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    z = spec.z_alpha
    return math.ceil(z * z / (spec.beta * spec.beta) * (1.0 - gamma) / gamma)


@dataclass(frozen=True)
class InjuryModel:
    """Logistic probability of a moderate-or-worse injury given impact delta-v.

    ``delta_v_unit`` declares the unit the coefficients expect;
    simulation speeds are m/s and are converted on the way in.
    """

    b0: float = -6.068
    b1: float = 0.1
    b2: float = -0.6234
    delta_v_unit: str = "m/s"

    def __post_init__(self):
        if self.delta_v_unit not in ("m/s", "km/h"):
            raise ValueError(f"delta_v_unit must be 'm/s' or 'km/h', got {self.delta_v_unit!r}")


def injury_probability(delta_v: float | None, m: InjuryModel) -> float:
    """Injury probability for a crash at closing speed ``delta_v`` m/s; 0 if no crash."""
    if delta_v is None:
        return 0.0
    dv = delta_v * 3.6 if m.delta_v_unit == "km/h" else delta_v
    # A logit below about -709.8 overflows exp to inf: probability 0.
    return 1.0 / (1.0 + exp(-(m.b0 + m.b1 * dv + m.b2)))

