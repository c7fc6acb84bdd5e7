"""Cross-entropy tilt search: closed-form updates, search loop, failed searches."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from accel_eval.cross_entropy import ce_search, weighted_tilt_update
from accel_eval.distributions import TruncatedPareto
from accel_eval.estimation import ConfidenceSpec, EstimatorAccumulator, relative_half_width
from accel_eval.plant import AvConfig, classify_events, simulate
from accel_eval.scenario import ProposalParams, scenario_stream, stream_namespace

from test_scenario import make_model


def test_single_sample_update_is_mean_minus_x():
    # One sample with any positive weight: the weighted mean collapses.
    assert weighted_tilt_update([0.3], 0.1, [2.5], lam_cap=1.0) == 0.1 - 0.3
    assert weighted_tilt_update([0.02], 0.12, [1e-9], lam_cap=1.0) == 0.12 - 0.02


def test_update_clamps_with_margin():
    # lam - x would exceed the cap; the clamp sits 1% inside it.
    out = weighted_tilt_update([0.001], 0.5, [1.0], lam_cap=0.06)
    assert out == 0.99 * 0.06


def test_update_accepts_per_sample_means():
    x = [0.02, 0.03]
    lam = [0.12, 0.08]
    w = [2.0, 1.0]
    want = (2.0 * (0.12 - 0.02) + 1.0 * (0.08 - 0.03)) / 3.0
    assert weighted_tilt_update(x, np.array(lam), w, lam_cap=1.0) == pytest.approx(
        want, rel=1e-12
    )


def test_update_rejects_bad_weights():
    with pytest.raises(ValueError):
        weighted_tilt_update([0.1, 0.2], 0.1, [1.0, -0.5], lam_cap=1.0)
    with pytest.raises(ValueError):
        weighted_tilt_update([0.1, 0.2], 0.1, [0.0, 0.0], lam_cap=1.0)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ENTRY = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0.0, 1e12))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(hits=st.lists(_ENTRY, min_size=1, max_size=20),
       misses=st.lists(st.tuples(st.integers(0, 20), _FINITE, _FINITE), max_size=20),
       scalar_lam=st.none() | st.floats(-1e6, 1e6))
# A miss whose lam - x overflows: 0 * inf would be NaN, so it is left out.
@example(hits=[(0.1, 0.2, 1.0)], misses=[(1, -1e308, 1e308)], scalar_lam=None)
def test_zero_weight_entries_leave_the_update_bit_identical(hits, misses, scalar_lam):
    # A search passes its hits only, where it once passed every draw with
    # weight 0 for a miss: entries of weight 0, at any place and with any
    # finite x and lam, must not move a bit of the result.
    assume(sum(w for _, _, w in hits) > 0)
    draws = list(hits)
    for pos, x, lam in misses:
        draws.insert(pos % (len(draws) + 1), (x, lam, 0.0))

    def update(rows):
        x, lam, w = zip(*rows)
        return weighted_tilt_update(x, list(lam) if scalar_lam is None else scalar_lam, w,
                                    lam_cap=1e9)

    assert update(draws).hex() == update(hits).hex()


def test_analytic_exponential_tail_update_converges():
    # Exp(mean 1) conditioned on {x > 7}: the KL-optimal tilted mean is
    # about 1 + 7 = 8, so vartheta should head toward -7.
    rng = np.random.Generator(np.random.PCG64(2024))
    vartheta = 0.0
    for _ in range(6):
        mean = 1.0 - vartheta
        x = rng.exponential(mean, size=2000)
        lr = mean * np.exp(-x * (1.0 - 1.0 / mean))
        w = np.where(x > 7.0, lr, 0.0)
        if not w.any():
            continue
        vartheta = weighted_tilt_update(x, 1.0, w, lam_cap=1.0)
    assert 6.5 < 1.0 - vartheta < 9.5


def test_search_history_and_final_state():
    model = make_model()
    state = ce_search(model, AvConfig(), "high", "conflict", 100, 3, seed=1)
    assert state.n_per_iter == 100
    assert len(state.history) == 3
    assert [h.iteration for h in state.history] == [1, 2, 3]
    assert all(0 <= h.hits <= h.n == 100 for h in state.history)
    assert state.event_hits == state.history[-1].hits
    last = state.history[-1]
    assert (state.vartheta_r, state.vartheta_ttc) == (last.vartheta_r, last.vartheta_ttc)
    assert state.lambda_r == model.r_inv_exp_mean
    assert state.lambda_ttc_cap == model.min_lambda_ttc_in(model.bin_named("high"))
    # Proximity events are driven by short ranges: the range tilt must be
    # negative and stay inside the validity region.
    assert state.vartheta_r < 0.0
    model.validate_proposal(ProposalParams(state.vartheta_r, state.vartheta_ttc, "high"))


def test_search_is_deterministic_in_seed():
    model = make_model()
    a = ce_search(model, AvConfig(), "high", "conflict", 200, 2, seed=9)
    b = ce_search(model, AvConfig(), "high", "conflict", 200, 2, seed=9)
    assert a == b
    c = ce_search(model, AvConfig(), "high", "conflict", 200, 2, seed=10)
    assert c.history != a.history


def test_search_zero_hit_iterations_keep_params():
    # Ranges of 70-75 m cannot close within a 0.2 s horizon, so no
    # iteration ever sees a hit: the proposal stays at the identity, and
    # event_hits == 0 marks the search failed.
    model = make_model(r_inv_dist=TruncatedPareto(0.02, 0.0205, 1 / 75, 1 / 75, 1 / 70))
    cfg = AvConfig(t_lc_max=0.2)
    state = ce_search(model, cfg, "high", "crash", 20, 2, seed=4)
    assert state.event_hits == 0
    assert (state.vartheta_r, state.vartheta_ttc) == (0.0, 0.0)
    assert all(h.hits == 0 for h in state.history)


def test_search_aborts_after_consecutive_zero_hits():
    # Past 3 empty iterations in a row the search no longer raises: it runs
    # all 8, keeps the identity proposal and reports the failure as
    # event_hits == 0.
    model = make_model(r_inv_dist=TruncatedPareto(0.02, 0.0205, 1 / 75, 1 / 75, 1 / 70))
    cfg = AvConfig(t_lc_max=0.2)
    state = ce_search(model, cfg, "high", "crash", 20, 8, seed=4)
    assert state.event_hits == 0
    assert (state.vartheta_r, state.vartheta_ttc) == (0.0, 0.0)
    assert [(h.iteration, h.hits) for h in state.history] == [(it, 0) for it in range(1, 9)]


def test_search_rejects_bad_arguments():
    model = make_model()
    with pytest.raises(ValueError, match="event"):
        ce_search(model, AvConfig(), "high", "injury", 10, 2, seed=1)
    with pytest.raises(ValueError):
        ce_search(model, AvConfig(), "high", "conflict", 0, 2, seed=1)
    with pytest.raises(ValueError):
        ce_search(model, AvConfig(), "high", "conflict", 10, 0, seed=1)


def test_search_tilt_shrinks_interval_half_width():
    # Same sample count, same event: the searched proposal must yield a
    # tighter relative interval than sampling from the original mix.
    model = make_model()
    cfg = AvConfig()
    b = model.bin_named("high")
    state = ce_search(model, cfg, "high", "conflict", 100, 3, seed=5)
    spec = ConfidenceSpec(0.2, 0.2)
    widths = {}
    for tag, params in [
        ("identity", ProposalParams(0.0, 0.0, "high")),
        ("tilted", ProposalParams(state.vartheta_r, state.vartheta_ttc, "high")),
    ]:
        acc = EstimatorAccumulator()
        ns = stream_namespace(f"test/halfwidth/{tag}")
        for i in range(2000):
            s = model.sample_scenario(b, scenario_stream(11, i, ns), params)
            rec = classify_events(simulate(s, cfg))
            acc.update(1.0 if rec.conflict else 0.0, s.likelihood)
        widths[tag] = relative_half_width(acc, spec)
    assert widths["identity"] is not None and widths["tilted"] is not None
    assert widths["tilted"] < widths["identity"]
