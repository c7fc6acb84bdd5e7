"""Scenario model: kinematics, streams, proposals, likelihood ratios."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accel_eval.distributions import EmpiricalDist, TruncatedPareto
from accel_eval.scenario import (
    ProposalParams,
    ScenarioModel,
    VelocityBin,
    derive_kinematics,
    scenario_stream,
    stream_namespace,
)

TTC_TABLE = [
    (5.0, 0.12),
    (10.0, 0.10),
    (15.0, 0.085),
    (20.0, 0.07),
    (25.0, 0.06),
    (30.0, 0.05),
    (35.0, 0.045),
]


def make_model(**kwargs):
    v_edges = [float(v) for v in range(2, 41, 2)]
    weights = [1, 2, 4, 7, 9, 8, 6, 4, 3, 3, 4, 6, 8, 9, 8, 6, 4, 2, 1]
    mass = [w / sum(weights) for w in weights]
    args = dict(
        v_dist=EmpiricalDist(v_edges, mass),
        r_inv_dist=TruncatedPareto(0.02, 0.0205, 1 / 75, 1 / 75, 10.0),
        ttc_lambda_table=TTC_TABLE,
        bins=[
            VelocityBin("low", 5.0, 15.0),
            VelocityBin("medium", 15.0, 25.0),
            VelocityBin("high", 25.0, 40.0),
        ],
        lambda_floor=0.01,
    )
    args.update(kwargs)
    return ScenarioModel(**args)


def test_kinematics_identities():
    v0, r0 = derive_kinematics(10.0, 0.25, 0.5)
    assert v0 == 12.0
    assert r0 == 4.0
    # Arbitrary values satisfy the defining relations to float precision.
    v0, r0 = derive_kinematics(17.3, 0.0314, 0.271)
    assert v0 - 17.3 == pytest.approx(0.271 / 0.0314, rel=1e-12)
    assert r0 == 1.0 / 0.0314


def test_kinematics_validation():
    with pytest.raises(ValueError):
        derive_kinematics(10.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        derive_kinematics(10.0, 0.25, -0.1)


def test_stream_namespace_is_stable():
    # Frozen sha256-derived ids; any change here breaks reproducibility
    # of stored reports.
    assert stream_namespace("ce/crash/low") == 2798692117
    assert stream_namespace("estimate/conflict/high/is") == 2358502908
    assert stream_namespace("ce/crash/low") < 1 << 32


def test_scenario_stream_determinism_and_disjointness():
    a = scenario_stream(7, 3, 5)
    assert type(a) is tuple and len(a) == 4 and all(type(x) is float for x in a)
    assert all(0.0 <= x < 1.0 for x in a)
    assert scenario_stream(7, 3, 5) == a
    assert scenario_stream(7, 4, 5) != a
    assert scenario_stream(7, 3, 6) != a
    assert scenario_stream(8, 3, 5) != a


def test_scenario_stream_rejects_out_of_range():
    with pytest.raises(ValueError, match="index"):
        scenario_stream(1, -1)
    with pytest.raises(ValueError, match="index"):
        scenario_stream(1, 1 << 32)
    with pytest.raises(ValueError, match="namespace"):
        scenario_stream(1, 0, 1 << 32)
    # A seed is an integer in [0, 2**64), the range the config enforces;
    # 1.5 and True must not silently become seed 1.
    for seed in (1.5, True, np.float64(1.0), np.True_, -1, 1 << 64, 1 << 128):
        with pytest.raises(ValueError, match="seed"):
            scenario_stream(seed, 0)
    # Index and namespace are held to the same rule: True is not 1.
    for bad in (True, False, np.True_, 1.0, 1.5, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="index"):
            scenario_stream(1, bad)
        with pytest.raises(ValueError, match="namespace"):
            scenario_stream(1, 0, bad)
    # numpy integers give the stream of the equal Python int; a uint32
    # namespace must not wrap when shifted into the counter word.
    assert scenario_stream(np.uint64(7), 3) == scenario_stream(7, 3)
    ns = (1 << 31) + 5
    want = scenario_stream(7, 3, ns)
    assert scenario_stream(7, np.uint32(3), np.uint32(ns)) == want
    assert scenario_stream(np.int64(7), np.int64(3), np.int64(ns)) == want


def _keyed_philox(seed, index, ns):
    """The first four doubles of numpy's Philox keyed by ``seed`` at the stream's counter."""
    keyed = np.random.Philox(key=int(seed), counter=((ns << 32) | index) << 64)
    return np.random.Generator(keyed).random(4)


def test_scenario_stream_is_the_keyed_philox():
    for seed in (0, 1, 1 << 63, (1 << 64) - 1):
        for index in (0, 1, (1 << 32) - 1):
            for ns in (0, (1 << 32) - 1):
                got = np.array(scenario_stream(seed, index, ns))
                assert got.tobytes() == _keyed_philox(seed, index, ns).tobytes(), (seed, index, ns)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1) | st.integers(0, (1 << 64) - 1).map(np.uint64),
       index=st.integers(0, (1 << 32) - 1),
       ns=st.integers(0, (1 << 32) - 1))
def test_scenario_stream_counter_words_are_the_integer_counter(seed, index, ns):
    # The counter words are the ones numpy splits the integer counter
    # into, and the uniforms agree with its keyed Philox bit for bit.
    got = np.array(scenario_stream(seed, index, ns))
    assert got.tobytes() == _keyed_philox(seed, index, ns).tobytes()


def test_lambda_ttc_interpolation_and_floor():
    m = make_model()
    assert m.lambda_ttc(5.0) == 0.12
    assert m.lambda_ttc(35.0) == 0.045
    assert m.lambda_ttc(7.5) == pytest.approx(0.11, rel=1e-12)
    # End-slope extrapolation on both sides.
    assert m.lambda_ttc(2.0) == pytest.approx(0.132, rel=1e-12)
    assert m.lambda_ttc(40.0) == pytest.approx(0.04, rel=1e-12)
    # Far extrapolation pins at the floor instead of going nonpositive.
    assert m.lambda_ttc(80.0) == 0.01
    # A one-entry table is constant, and floored too.
    assert [make_model(ttc_lambda_table=[(10.0, 0.1)]).lambda_ttc(v)
            for v in (2.0, 10.0, 80.0)] == [0.1] * 3
    assert make_model(ttc_lambda_table=[(10.0, 0.005)]).lambda_ttc(10.0) == 0.01


@settings(derandomize=True, max_examples=300, deadline=None)
@given(speeds=st.lists(st.floats(-50.0, 100.0), min_size=2, max_size=12, unique=True),
       means=st.lists(st.floats(1e-3, 5.0), min_size=12, max_size=12),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_lambda_ttc_interpolates_as_np_interp(speeds, means, fracs):
    xs = sorted(speeds)
    ys = means[:len(xs)]
    m = make_model(ttc_lambda_table=list(zip(xs, ys)))
    # At the end nodes and beyond them lambda_ttc extrapolates instead.
    for v in [v for v in [xs[0] + f * (xs[-1] - xs[0]) for f in fracs] + xs
              if xs[0] < v < xs[-1]]:
        want = max(m.lambda_floor, float(np.interp(v, xs, ys)))
        assert m.lambda_ttc(v).hex() == want.hex(), (v, xs, ys)


def test_min_lambda_over_bin_checks_interior_nodes():
    m = make_model()
    # Bin (25, 40): interior nodes 30 and 35, extrapolated edge 40.
    assert m.min_lambda_ttc_in(m.bin_named("high")) == pytest.approx(0.04, rel=1e-12)
    assert m.min_lambda_ttc_in(m.bin_named("low")) == 0.085
    assert m.min_lambda_ttc_in(m.bin_named("medium")) == 0.06


def test_model_validation():
    with pytest.raises(ValueError):
        make_model(bins=[VelocityBin("a", 5.0, 15.0), VelocityBin("b", 16.0, 25.0)])
    with pytest.raises(ValueError):
        make_model(bins=[VelocityBin("a", 5.0, 15.0), VelocityBin("a", 15.0, 25.0)])
    with pytest.raises(ValueError):
        make_model(ttc_lambda_table=[])
    with pytest.raises(ValueError):
        make_model(ttc_lambda_table=[(10.0, 0.1), (5.0, 0.12)])
    with pytest.raises(ValueError):
        make_model(ttc_lambda_table=[(5.0, -0.1)])
    with pytest.raises(ValueError):
        make_model(lambda_floor=0.0)
    with pytest.raises(KeyError):
        make_model().bin_named("nope")
    for lo in (15.0, 16.0):
        with pytest.raises(ValueError, match="need lo < hi"):
            VelocityBin("a", lo, 15.0)


def test_validate_proposal_bounds():
    m = make_model()
    high, low = m.bin_named("high"), m.bin_named("low")
    m.validate_proposal(ProposalParams(0.0, 0.0), high)
    m.validate_proposal(ProposalParams(-5.0, -5.0), high)
    with pytest.raises(ValueError):
        m.validate_proposal(ProposalParams(m.r_inv_surrogate.mean, 0.0), high)
    with pytest.raises(ValueError):
        m.validate_proposal(ProposalParams(0.0, 0.04), high)
    # The same tilt can be legal in a bin with a higher cap.
    m.validate_proposal(ProposalParams(0.0, 0.05), low)


def test_sampling_under_original_law():
    m = make_model()
    b = m.bin_named("medium")
    ns = stream_namespace("test/original")
    for i in range(200):
        s = m.sample_scenario(b, scenario_stream(5, i, ns))
        assert s.likelihood == 1.0
        assert b.lo <= s.v_l < b.hi
        assert m.r_inv_dist.lo <= s.r_inv <= m.r_inv_dist.hi
        assert s.ttc_inv >= 0.0
        assert s.r0 == 1.0 / s.r_inv
        assert s.v0 == s.v_l + s.ttc_inv / s.r_inv


def test_identity_proposal_weight_is_surrogate_ratio():
    # With zero tilts the TTC laws coincide (ratio exactly 1), so the
    # weight is purely original-Pareto over exponential-surrogate.
    m = make_model()
    b = m.bin_named("low")
    ns = stream_namespace("test/identity")
    prop = ProposalParams(0.0, 0.0)
    surrogate = m.r_inv_surrogate
    for i in range(100):
        s = m.sample_scenario(b, scenario_stream(11, i, ns), prop)
        expect = float(m.r_inv_dist.pdf(s.r_inv)) / float(surrogate.pdf(s.r_inv))
        assert s.likelihood == pytest.approx(expect, rel=1e-12)


def test_importance_weights_average_to_one():
    # E_proposal[L] = 1 for any valid tilt; checked at 3 standard errors.
    m = make_model()
    b = m.bin_named("high")
    prop = ProposalParams(-0.105, -0.01)
    ns = stream_namespace("test/el")
    n = 20000
    tot = tot2 = 0.0
    for i in range(n):
        s = m.sample_scenario(b, scenario_stream(123, i, ns), prop)
        tot += s.likelihood
        tot2 += s.likelihood * s.likelihood
    mean = tot / n
    se = math.sqrt((tot2 / n - mean * mean) / n)
    assert abs(mean - 1.0) < 3 * se


def test_proposal_tilts_shift_sampled_laws():
    # A negative range tilt should produce systematically larger r_inv.
    m = make_model()
    b = m.bin_named("high")
    ns = stream_namespace("test/shift")
    base = [m.sample_scenario(b, scenario_stream(9, i, ns), ProposalParams(0.0, 0.0)).r_inv
            for i in range(500)]
    tilted = [m.sample_scenario(b, scenario_stream(9, i, ns), ProposalParams(-0.08, 0.0)).r_inv
              for i in range(500)]
    assert np.mean(tilted) > 2.0 * np.mean(base)


def test_four_uniforms_per_scenario():
    # The sampler reads exactly the four uniforms it is given, and each
    # of them: the sample is a function of those four floats alone.
    m = make_model()
    b = m.bin_named("low")
    prop = ProposalParams(-0.05, -0.02)
    u = scenario_stream(17, 0, 0)
    for p in (None, prop):
        s = m.sample_scenario(b, u, p)
        assert m.sample_scenario(b, list(u), p) == s
        for short_or_long in (u[:3], u + (0.5,)):
            with pytest.raises(ValueError):
                m.sample_scenario(b, short_or_long, p)
        for k in range(4):
            moved = u[:k] + (u[k] * 0.5 + 0.25,) + u[k + 1:]
            assert m.sample_scenario(b, moved, p) != s, (p, k)
