"""Vehicle plant: PI law, AEB trigger and ramp, actuator lag, outcomes."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accel_eval.plant import (
    ACC,
    AEB,
    AvConfig,
    EventRecord,
    SimState,
    SimTrace,
    acc_command,
    aeb_threshold,
    classify_events,
    instantaneous_ttc,
    _initial_state,
    simulate,
    step,
)
from accel_eval.scenario import ScenarioSample, derive_kinematics

from test_scenario import make_model
from accel_eval.scenario import ProposalParams, scenario_stream, stream_namespace


def mk(v_l, r_inv, ttc_inv):
    v0, r0 = derive_kinematics(v_l, r_inv, ttc_inv)
    return ScenarioSample(v_l, r_inv, ttc_inv, r0, v0, 1.0)


# Controllers forced inert: zero gains, AEB threshold zero never trips.
OFF = AvConfig(kp_acc=0.0, ki_acc=0.0, ttc_aeb_schedule=((5.0, 0.0), (40.0, 0.0)))


def test_config_validation():
    with pytest.raises(ValueError):
        AvConfig(ts=0.0)
    with pytest.raises(ValueError):
        AvConfig(tau_av=0.0)
    with pytest.raises(ValueError):
        AvConfig(t_lc_max=-1.0)
    with pytest.raises(ValueError):
        AvConfig(r_aeb=1.0)
    for name in ("a_acc_max", "a_aeb", "r_conflict"):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            AvConfig(**{name: -1.0})
    # At ts >= 2 * tau_av the explicit lag update diverges.
    with pytest.raises(ValueError, match="tau_av"):
        AvConfig(tau_av=0.05)
    # A horizon must round to at least one control period and at most
    # _MAX_TICKS; 5e-324 overflowed the tick count, 1e-9 asks for 8e9 ticks.
    for bad in ({"t_lc_max": 0.04}, {"t_lc_max": 0.05}, {"ts": 5e-324}, {"ts": 1e-9}):
        with pytest.raises(ValueError, match="t_lc_max / ts"):
            AvConfig(**bad)
    with pytest.raises(ValueError):
        AvConfig(ttc_aeb_schedule=())
    with pytest.raises(ValueError):
        AvConfig(ttc_aeb_schedule=((15.0, 1.0), (5.0, 1.3)))
    with pytest.raises(ValueError):
        AvConfig(ttc_aeb_schedule=((5.0, -1.0),))
    with pytest.raises(ValueError):
        AvConfig(ttc_aeb_schedule=((5.0, math.nan), (40.0, 1.0)))
    # Every non-finite float is refused by name.  A NaN schedule speed
    # passed the increasing check (a comparison with NaN is False), NaN
    # gains had no check, and infinities passed the one-sided range checks.
    for sched in (((math.nan, 1.0), (40.0, 1.3)), ((5.0, 1.0), (math.nan, 1.3)),
                  ((5.0, 1.0), (math.inf, 1.3)), ((-math.inf, 1.0), (40.0, 1.3)),
                  ((5.0, math.inf),)):
        with pytest.raises(ValueError, match="ttc_aeb_schedule"):
            AvConfig(ttc_aeb_schedule=sched)
    floats = [f.name for f in dataclasses.fields(AvConfig) if isinstance(f.default, float)]
    assert {"kp_acc", "ki_acc", "t_hw_desired", "r_conflict"} <= set(floats)
    for name in floats:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                AvConfig(**{name: bad})


def test_aeb_threshold_schedule():
    cfg = AvConfig()
    assert aeb_threshold(0.0, cfg) == 1.0
    assert aeb_threshold(5.0, cfg) == 1.0
    assert aeb_threshold(10.0, cfg) == pytest.approx(1.15, rel=1e-12)
    assert aeb_threshold(25.0, cfg) == 1.5
    assert aeb_threshold(100.0, cfg) == 1.5


def test_instantaneous_ttc():
    assert instantaneous_ttc(10.0, 5.0, 5.0) == math.inf
    assert instantaneous_ttc(10.0, 4.0, 5.0) == math.inf
    assert instantaneous_ttc(10.0, 7.0, 5.0) == 5.0


def test_pi_single_step_formula():
    cfg = AvConfig()
    a_d, err = acc_command(2.5, 0.1, -0.3, cfg)
    expect_err = -1.0 * (2.5 - 2.0)
    expect = -0.3 + cfg.kp_acc * (expect_err - 0.1) + cfg.ki_acc * (expect_err + 0.1) * cfg.ts / 2.0
    assert err == expect_err
    assert a_d == max(-5.0, min(5.0, expect))


def test_pi_zero_error_holds_command():
    cfg = AvConfig()
    a_d, err = acc_command(2.0, 0.0, 0.0, cfg)
    assert a_d == 0.0 and err == 0.0


def test_pi_saturation_both_sides():
    cfg = AvConfig()
    # A huge gap demands acceleration; a tiny gap demands braking.
    assert acc_command(5.0, 0.0, 0.0, cfg)[0] == 5.0
    assert acc_command(0.5, 0.0, 0.0, cfg)[0] == -5.0


def test_aeb_ramp_first_step():
    cfg = AvConfig()
    st = SimState(t=0.0, r=2.0, v=14.0, a=0.0, a_cmd=0.0, mode=AEB, prev_err=0.0)
    nxt = step(st, mk(10.0, 0.5, 2.0), cfg)
    assert nxt.a_cmd == cfg.r_aeb * cfg.ts == -1.6
    assert nxt.mode == AEB


def test_aeb_ramp_reaches_floor_and_latches():
    cfg = AvConfig()
    trace = simulate(mk(10.0, 0.5, 2.0), cfg, record=True)
    assert all(st.mode == AEB for st in trace.states)
    cmds = [st.a_cmd for st in trace.states]
    assert min(cmds) == -cfg.a_aeb
    for prev, cur in zip(cmds, cmds[1:]):
        if cur > -cfg.a_aeb:
            assert cur - prev == pytest.approx(cfg.r_aeb * cfg.ts, abs=1e-12)
        else:
            assert cur == -cfg.a_aeb


def test_mode_latches_after_trigger():
    # Starts in ACC (TTC above threshold), transitions once, never back.
    cfg = AvConfig()
    trace = simulate(mk(30.0, 1.0 / 15.5, 10.0 / 15.5), cfg, record=True)
    modes = [st.mode for st in trace.states]
    assert modes[0] == ACC
    assert AEB in modes
    flips = sum(1 for a, b in zip(modes, modes[1:]) if a != b)
    assert flips == 1


def test_initial_state_can_start_in_aeb():
    # TTC0 = 1 s is below every threshold at this speed.
    trace = simulate(mk(10.0, 0.25, 1.0), AvConfig(), record=True)
    assert trace.states[0].mode == AEB


def test_actuator_lag_closed_form():
    # Constant command c through a first-order lag from rest:
    # a_n = c * (1 - (1 - ts/tau)^n).
    cfg = AvConfig(tau_av=1.0, a_aeb=10.0, r_aeb=-1000.0,
                   ttc_aeb_schedule=((5.0, 1e9), (40.0, 1e9)))
    trace = simulate(mk(10.0, 0.25, 0.5), cfg, record=True)
    lam = cfg.ts / cfg.tau_av
    for n, st in enumerate(trace.states):
        if n == 0:
            continue
        assert st.a == pytest.approx(-10.0 * (1.0 - (1.0 - lam) ** n), rel=1e-12)


def test_disabled_controllers_crash_closed_form():
    # 4 m gap closing at 2 m/s with inert controllers: crash at 2.0 s.
    trace = simulate(mk(10.0, 0.25, 0.5), OFF)
    assert trace.outcome == "crash"
    assert abs(trace.t_end - 2.0) <= OFF.ts
    assert trace.delta_v == 2.0
    assert trace.distance_m == 24.0  # 20 periods at 12 m/s
    rec = classify_events(trace)
    assert rec.crash and rec.conflict and rec.delta_v == 2.0


def test_crash_implies_conflict():
    trace = simulate(mk(10.0, 0.5, 5.0), AvConfig())
    assert trace.outcome == "crash"
    rec = classify_events(trace)
    assert rec.conflict
    assert rec.delta_v is not None and rec.delta_v > 0.0


def test_no_event_far_and_not_closing():
    trace = simulate(mk(20.0, 0.01, 0.0), AvConfig())
    assert trace.outcome == "none"
    assert trace.delta_v is None
    assert trace.min_range > AvConfig().r_conflict


def test_speed_never_negative():
    # Full braking from low speed pins v at zero instead of reversing.
    cfg = AvConfig()
    trace = simulate(mk(0.5, 0.2, 1.5), cfg, record=True)
    assert all(st.v >= 0.0 for st in trace.states)
    assert any(st.v == 0.0 for st in trace.states)


def test_headway_regulation_converges():
    cfg = AvConfig(t_lc_max=60.0)
    trace = simulate(mk(20.0, 0.02, 0.0), cfg, record=True)
    assert trace.outcome == "none"
    last = trace.states[-1]
    assert last.r / last.v == pytest.approx(cfg.t_hw_desired, rel=0.05)
    assert last.v == pytest.approx(20.0, rel=0.01)


def test_horizon_step_count():
    trace = simulate(mk(20.0, 0.01, 0.0), AvConfig(), record=True)
    assert len(trace.states) == 81  # initial state + 8 s / 0.1 s steps
    assert trace.t_end == pytest.approx(8.0, abs=1e-9)


def _step_chain(s, cfg):
    """Reference run: step() from the initial state to crash or horizon."""
    states = [_initial_state(s, cfg)]
    for _ in range(round(cfg.t_lc_max / cfg.ts)):
        states.append(step(states[-1], s, cfg))
        if states[-1].r <= 0.0:
            break
    return states


def test_fast_and_recorded_paths_agree_exactly():
    # The inlined loop of simulate() is held to step(), state by state,
    # with and without recording.
    model = make_model()
    cfg = AvConfig()
    ns = stream_namespace("test/pathpair")
    cases = []
    for i in range(150):
        b = model.bins[i % 3]
        cases.append(model.sample_scenario(b, scenario_stream(21, i, ns)))
    for i in range(150, 300):
        b = model.bins[i % 3]
        prop = ProposalParams(-0.05, -0.01)
        cases.append(model.sample_scenario(b, scenario_stream(21, i, ns), prop))
    # The sampled draws hold no crash; these two end in one.
    cases += [mk(10.0, 0.5, 5.0), mk(10.0, 0.5, 2.0)]
    outcomes = set()
    for s in cases:
        ref = _step_chain(s, cfg)
        crashed = ref[-1].r <= 0.0
        recorded = simulate(s, cfg, record=True)
        assert list(recorded.states) == ref
        fast = simulate(s, cfg)
        assert fast.states == ()
        assert fast.min_range == recorded.min_range == min(st.r for st in ref)
        assert fast.delta_v == recorded.delta_v == (
            ref[-2].v - s.v_l if crashed else None
        )
        assert fast.distance_m == recorded.distance_m == sum(st.v for st in ref[:-1]) * cfg.ts
        assert fast.outcome == recorded.outcome
        assert fast.t_end == recorded.t_end == ref[-1].t
        outcomes.add(fast.outcome)
    assert outcomes == {"none", "conflict", "crash"}


def test_records_are_immutable():
    s = ScenarioSample(v_l=10.0, r_inv=0.5, ttc_inv=2.0, r0=2.0, v0=14.0,
                       likelihood=1.0)
    state = SimState(t=0.0, r=2.0, v=14.0, a=0.0, a_cmd=0.0, mode=AEB, prev_err=0.0)
    trace = SimTrace(states=(state,), outcome="none", t_end=0.0, min_range=2.0,
                     delta_v=None, distance_m=0.0)
    rec = EventRecord(conflict=True, crash=False, delta_v=None)
    assert (rec.conflict, rec.crash, trace.states[-1].mode) == (True, False, AEB)
    run = simulate(s, AvConfig())
    for obj in (s, state, trace, rec, run, classify_events(run)):
        for name in obj._fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))


def test_distance_is_rectangle_rule_on_period_start_speeds():
    trace = simulate(mk(20.0, 0.01, 0.0), AvConfig(), record=True)
    sums = sum(st.v for st in trace.states[:-1])
    assert trace.distance_m == sums * 0.1


_STATE_FLOATS = ("t", "r", "v", "a", "a_cmd", "prev_err")


def _zero_or(values):
    # Zeros of both signs first, so that the builtin max/min tie rules
    # decide the sign of a command or a speed.
    return st.sampled_from([0.0, -0.0]) | values


_av_configs = st.builds(
    dict,
    t_hw_desired=st.floats(0.5, 3.0),
    a_acc_max=st.just(0.0) | st.floats(0.0, 8.0),
    kp_acc=_zero_or(st.floats(-60.0, 10.0)),
    ki_acc=_zero_or(st.floats(-5.0, 5.0)),
    a_aeb=st.just(0.0) | st.floats(0.0, 15.0),
    r_aeb=_zero_or(st.floats(-40.0, 0.0)),
    tau_av=st.floats(0.02, 1.0),
    ts=st.sampled_from([0.05, 0.1, 0.2]) | st.floats(0.02, 0.5),
    t_lc_max=st.floats(0.02, 8.0),
    ttc_aeb_schedule=st.lists(
        st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 3.0)),
        min_size=1, max_size=4, unique_by=lambda p: p[0],
    ).map(lambda pts: tuple(sorted(pts))),
    r_conflict=st.floats(0.0, 20.0),
).filter(
    lambda d: d["ts"] < 2 * d["tau_av"] and 0.5 < d["t_lc_max"] / d["ts"]
).map(lambda d: AvConfig(**d))

_scenarios = st.builds(
    mk,
    v_l=st.just(0.0) | st.floats(0.0, 40.0),
    r_inv=st.floats(0.01, 2.0),
    ttc_inv=st.just(0.0) | st.floats(0.0, 5.0),  # 0 starts at v0 == v_l
)


def _bits(state):
    return tuple(getattr(state, f).hex() for f in _STATE_FLOATS) + (state.mode,)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(s=_scenarios, cfg=_av_configs)
@example(s=mk(10.0, 0.5, 5.0), cfg=AvConfig())  # crash under AEB
@example(s=mk(10.0, 0.25, 0.5), cfg=OFF)  # crash with controllers off
@example(s=mk(10.0, 0.5, 0.0), cfg=AvConfig(a_acc_max=0.0, a_aeb=0.0, r_aeb=0.0))
@example(s=mk(10.0, 0.5, 2.0), cfg=AvConfig(a_aeb=0.0, r_aeb=0.0,
                                             ttc_aeb_schedule=((8.0, 1.0),)))
# At this constant speed the interpolated threshold rounds to
# 2.9400000000000004, above the largest threshold 2.94, and the TTC after
# one step lies between the two: AEB latches at the second step.  The
# plant reads only v_l, r0 and v0, given here to the last bit.
@example(s=ScenarioSample(v_l=0.0, r_inv=1 / 93.63199999999999, ttc_inv=0.0,
                          r0=93.63199999999999, v0=30.799999999999997, likelihood=1.0),
         cfg=AvConfig(a_acc_max=0.0, a_aeb=0.0, r_aeb=0.0,
                      ttc_aeb_schedule=((7.4, 1.34), (30.8, 2.94))))
# One tick runs (round(0.06 / 0.1) == 1), and the cut-in starts in AEB.
@example(s=mk(10.0, 0.25, 1.0), cfg=AvConfig(t_lc_max=0.06))
# Five steps of exactly 1 m end the crash at r == 0.0, which with no
# conflict radius is a crash that is still a conflict.
@example(s=mk(10.0, 0.2, 2.0), cfg=dataclasses.replace(OFF, r_conflict=0.0))
def test_simulate_matches_step_chain_bit_for_bit(s, cfg):
    # float.hex, not ==: == takes -0.0 for 0.0, and the sign of a zero is
    # what a wrong tie rule in the inlined loop changes first.
    ref = _step_chain(s, cfg)
    crashed = ref[-1].r <= 0.0
    min_range = ref[0].r
    sum_v = 0.0
    for st_ in ref[1:]:
        min_range = st_.r if st_.r < min_range else min_range
    for st_ in ref[:-1]:
        sum_v += st_.v
    outcome = ("crash" if crashed else
               "conflict" if min_range < cfg.r_conflict else "none")
    recorded = simulate(s, cfg, record=True)
    assert [_bits(x) for x in recorded.states] == [_bits(x) for x in ref]
    for trace in (recorded, simulate(s, cfg)):
        assert trace.min_range.hex() == min_range.hex()
        assert trace.t_end.hex() == ref[-1].t.hex()
        assert trace.distance_m.hex() == (sum_v * cfg.ts).hex()
        assert trace.outcome == outcome
        if crashed:
            assert trace.delta_v.hex() == (ref[-2].v - s.v_l).hex()
        else:
            assert trace.delta_v is None
        assert classify_events(trace) == (
            crashed or min_range < cfg.r_conflict, crashed, trace.delta_v
        )
