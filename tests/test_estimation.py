"""Accumulator algebra, stopping rule, injury model, rate accounting."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accel_eval import fmath
from accel_eval.estimation import (
    ConfidenceSpec,
    EstimatorAccumulator,
    InjuryModel,
    injury_probability,
    merge,
    relative_half_width,
    required_n_cmc,
)

Z_80 = 1.2815515655446008  # two-sided 80% normal quantile, frozen
P_INJURY_AT_ZERO = 0.0012400038763055053


def test_update_arithmetic():
    acc = EstimatorAccumulator()
    acc.update(0.2, 1.0)
    acc.update(0.0, 1.0)
    assert acc.n == 2
    assert acc.mean() == pytest.approx(0.1, rel=1e-15)
    # Unbiased two-sample variance of {0.2, 0.0}.
    assert acc.sample_variance() == pytest.approx(0.02, rel=1e-12)


def test_update_validation():
    acc = EstimatorAccumulator()
    with pytest.raises(ValueError):
        acc.update(-0.1, 1.0)
    with pytest.raises(ValueError):
        acc.update(1.1, 1.0)
    with pytest.raises(ValueError):
        acc.update(0.5, -1.0)
    for distance in (math.inf, math.nan):
        with pytest.raises(ValueError, match="distance_m must be finite"):
            acc.update(0.5, 1.0, distance)
    with pytest.raises(ValueError):
        EstimatorAccumulator().mean()
    one = EstimatorAccumulator()
    one.update(1.0, 1.0)
    with pytest.raises(ValueError):
        one.sample_variance()


def _filled(values):
    acc = EstimatorAccumulator()
    for v in values:
        acc.update(1.0, v, distance_m=3.0)
    return acc


def test_merge_equals_sequential_exactly():
    xs = [0.3, 1.7, 0.0, 2.4, 0.9, 1.1, 0.5]
    whole = _filled(xs)
    parts = merge(_filled(xs[:3]), _filled(xs[3:]))
    assert parts == whole


def test_merge_associative_and_commutative():
    a, b, c = _filled([0.1, 0.2]), _filled([5.0]), _filled([0.0, 0.7, 0.7])
    assert merge(merge(a, b), c) == merge(a, merge(b, c))
    assert merge(a, b) == merge(b, a)
    empty = EstimatorAccumulator()
    assert merge(a, empty) == a


def test_constant_stream_reports_exactly_zero_variance():
    w = 0.1 + 0.2 / 3.0  # deliberately non-round float
    acc = EstimatorAccumulator()
    for _ in range(1000):
        acc.update(1.0, w)
    assert acc.sample_variance() == 0.0
    assert relative_half_width(acc, ConfidenceSpec()) == 0.0


def test_zero_variance_survives_merging():
    w = math.exp(-7.0)
    a, b = EstimatorAccumulator(), EstimatorAccumulator()
    for _ in range(10):
        a.update(1.0, w)
        b.update(1.0, w)
    assert merge(a, b).sample_variance() == 0.0


def _stepped_up(x: float, k: int) -> float:
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


# Weights up to 2**500 keep every variance within the float range.
_weight = st.floats(min_value=0.0, max_value=2.0**500)
_weights = st.one_of(
    st.lists(_weight, min_size=2, max_size=30),
    st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=30),
    # Near-constant: a few ulps above one base, subnormal bases included.
    st.builds(
        lambda base, ks: [_stepped_up(base, k) for k in ks],
        _weight, st.lists(st.integers(0, 3), min_size=2, max_size=30),
    ),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_weights)
@example([1.0, 1.0 - 2.0**-53, 1.0])  # exact variance 4.1e-33, not 0
@example([0.7, math.nextafter(0.7, 1.0)])
def test_sample_variance_is_the_exact_variance_correctly_rounded(ws):
    exact = [Fraction(w) for w in ws]
    m = sum(exact) / len(ws)
    want = float(sum((x - m) ** 2 for x in exact) / (len(ws) - 1))
    assert _filled(ws).sample_variance() == want
    assert merge(_filled(ws[::2]), _filled(ws[1::2])).sample_variance() == want


def test_sample_variance_past_the_float_range_rounds_to_inf():
    # The exact variance of {1e160, 0} is 5e319, which rounds to inf.
    assert _filled([1e160, 0.0]).sample_variance() == math.inf
    assert merge(_filled([1e160]), _filled([0.0])).sample_variance() == math.inf


def test_z_alpha_frozen():
    assert ConfidenceSpec(alpha=0.2).z_alpha == pytest.approx(Z_80, abs=1e-9)
    assert ConfidenceSpec(alpha=0.05).z_alpha == pytest.approx(1.959964, abs=1e-5)


def test_confidence_spec_validation():
    with pytest.raises(ValueError):
        ConfidenceSpec(alpha=0.0)
    with pytest.raises(ValueError):
        ConfidenceSpec(alpha=1.0)
    with pytest.raises(ValueError):
        ConfidenceSpec(beta=0.0)


def test_required_n_cmc_frozen_values():
    spec = ConfidenceSpec(alpha=0.2, beta=0.2)
    assert required_n_cmc(0.1, spec) == 370
    assert required_n_cmc(0.0964, spec) == 385
    assert required_n_cmc(math.exp(-7.0), spec) == 44986
    with pytest.raises(ValueError):
        required_n_cmc(0.0, spec)
    with pytest.raises(ValueError):
        required_n_cmc(1.0, spec)


def test_relative_half_width_bernoulli_identity():
    # k successes in n Bernoulli trials: l_r = z * s / (m * sqrt(n)).
    spec = ConfidenceSpec()
    acc = EstimatorAccumulator()
    k, n = 37, 400
    for i in range(n):
        acc.update(1.0 if i < k else 0.0, 1.0)
    m = k / n
    var = (k - n * m * m) / (n - 1)
    expect = spec.z_alpha * math.sqrt(var) / (m * math.sqrt(n))
    assert relative_half_width(acc, spec) == pytest.approx(expect, rel=1e-12)


def test_relative_half_width_none_cases():
    spec = ConfidenceSpec()
    acc = EstimatorAccumulator()
    assert relative_half_width(acc, spec) is None
    acc.update(0.0, 1.0)
    assert relative_half_width(acc, spec) is None
    acc.update(0.0, 1.0)
    assert relative_half_width(acc, spec) is None  # mean 0, not estimable


def test_injury_probability_frozen_points():
    m = InjuryModel()
    assert injury_probability(None, m) == 0.0
    assert injury_probability(0.0, m) == pytest.approx(P_INJURY_AT_ZERO, rel=1e-12)
    assert injury_probability(66.914, m) == pytest.approx(0.5, abs=1e-3)
    assert injury_probability(66.914, m) == pytest.approx(0.5, abs=1e-9)


def test_injury_probability_monotone():
    m = InjuryModel()
    probs = [injury_probability(dv, m) for dv in (0.0, 5.0, 20.0, 66.914, 200.0)]
    assert all(a < b for a, b in zip(probs, probs[1:]))
    assert 0.0 < probs[0] and probs[-1] < 1.0


def test_injury_probability_is_zero_where_the_logistic_overflows():
    m = InjuryModel(b1=-200.0)
    # Negated logit about 1006.7: exp overflows, the probability is below 1e-308.
    assert injury_probability(5.0, m) == 0.0
    # Negated logit about 606.7: exp is finite and the formula is unchanged.
    expected = 1.0 / (1.0 + fmath.exp(-(m.b0 + m.b1 * 3.0 + m.b2)))
    assert 0.0 < injury_probability(3.0, m) == expected


def test_injury_unit_tag_converts_input():
    ms = InjuryModel(delta_v_unit="m/s")
    kmh = InjuryModel(delta_v_unit="km/h")
    dv = 12.5  # m/s from the simulation
    assert injury_probability(dv, kmh) == injury_probability(dv * 3.6, ms)
    with pytest.raises(ValueError):
        InjuryModel(delta_v_unit="mph")


def test_distance_accumulates():
    acc = _filled([1.0, 1.0, 1.0])
    assert acc.distance_m == 9.0
