"""Longitudinal model of the evaluated vehicle during a cut-in event.

The vehicle runs a velocity-form PI controller regulating time headway
(ACC).  A latching automatic emergency brake (AEB) takes over when the
instantaneous time-to-collision drops below a speed-dependent threshold;
once triggered it never hands back within the event.  Both controllers
command acceleration through a first-order actuator lag, integrated
explicitly at a fixed control period.

The lead vehicle holds its speed for the whole event, so only the
following vehicle's state evolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

from .scenario import ScenarioSample

__all__ = [
    "ACC",
    "AEB",
    "AvConfig",
    "SimState",
    "SimTrace",
    "EventRecord",
    "acc_command",
    "aeb_threshold",
    "instantaneous_ttc",
    "step",
    "simulate",
    "classify_events",
]

ACC = "acc"
AEB = "aeb"

_V_HEADWAY_EPS = 1e-6  # m/s, keeps time headway finite at standstill
_MAX_TICKS = 100_000  # control periods per event


@dataclass(frozen=True)
class AvConfig:
    """Controller and plant parameters.

    Defaults are the production-tuned set used throughout; the AEB
    trigger schedule is a plausible placeholder (threshold in seconds at
    reference speeds in m/s) and should be overridden when the real
    curve is available.
    """

    t_hw_desired: float = 2.0  # s, ACC time-headway setpoint
    a_acc_max: float = 5.0  # m/s^2, ACC command saturation (+/-)
    kp_acc: float = -38.6  # proportional gain on headway error
    ki_acc: float = -1.35  # integral gain on headway error
    a_aeb: float = 10.0  # m/s^2, AEB deceleration magnitude
    r_aeb: float = -16.0  # m/s^3, AEB command ramp rate
    tau_av: float = 0.0796  # s, actuator first-order lag
    ts: float = 0.1  # s, control period
    t_lc_max: float = 8.0  # s, event horizon
    ttc_aeb_schedule: tuple[tuple[float, float], ...] = (
        (5.0, 1.0),
        (15.0, 1.3),
        (25.0, 1.5),
        (40.0, 1.5),
    )
    r_conflict: float = 9.144  # m, proximity threshold (30 ft)

    def __post_init__(self):
        for f in fields(self):
            x = getattr(self, f.name)
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"{f.name} must be finite, got {x}")
        if not self.ts > 0:
            raise ValueError(f"ts must be > 0, got {self.ts}")
        # The explicit lag update scales the gap to the command by
        # 1 - ts/tau_av each period; at ts >= 2*tau_av that is <= -1: no decay.
        if not self.ts < 2 * self.tau_av:
            raise ValueError(f"ts must be < 2 * tau_av, got ts={self.ts}, tau_av={self.tau_av}")
        # The horizon runs at least one period, and at most _MAX_TICKS:
        # _loop_constants builds one tick time per period.
        if not 0.5 < self.t_lc_max / self.ts <= _MAX_TICKS:
            raise ValueError(f"t_lc_max / ts must lie in (0.5, {_MAX_TICKS}], "
                             f"got {self.t_lc_max} / {self.ts}")
        if not self.a_acc_max >= 0:
            raise ValueError(f"a_acc_max must be >= 0, got {self.a_acc_max}")
        if not self.a_aeb >= 0:
            raise ValueError(f"a_aeb must be >= 0, got {self.a_aeb}")
        if not self.r_aeb <= 0:
            raise ValueError(f"r_aeb must be <= 0, got {self.r_aeb}")
        if not self.r_conflict >= 0:
            raise ValueError(f"r_conflict must be >= 0, got {self.r_conflict}")
        if not self.ttc_aeb_schedule:
            raise ValueError("ttc_aeb_schedule must not be empty")
        if not all(math.isfinite(v) and math.isfinite(t) for v, t in self.ttc_aeb_schedule):
            raise ValueError(
                f"ttc_aeb_schedule speeds and thresholds must be finite, "
                f"got {self.ttc_aeb_schedule}"
            )
        speeds = [v for v, _ in self.ttc_aeb_schedule]
        if any(b >= a for a, b in zip(speeds[1:], speeds)):
            raise ValueError("ttc_aeb_schedule speeds must be strictly increasing")
        if not all(t >= 0 for _, t in self.ttc_aeb_schedule):
            raise ValueError("ttc_aeb_schedule thresholds must be >= 0")

    @cached_property
    def _loop_constants(self) -> tuple:
        """What :func:`simulate` derives from the config, once per config.

        Segments are ``(v0, t0, v1, t1 - t0, v1 - v0)`` for
        :func:`aeb_threshold`'s expression.  ``thr_cap`` lies above every
        threshold it returns: with thresholds >= 0 an interpolated one
        exceeds the largest only by its four roundings (2 ulps seen), and
        the cap adds 8 ulps.  ``ticks`` are the times after each step, each
        the previous plus ``ts``, as :func:`step` sums them.
        """
        ts = self.ts
        sched = self.ttc_aeb_schedule
        thr_max = max(t for _, t in sched)
        ticks = []
        t = 0.0
        for _ in range(round(self.t_lc_max / ts)):
            t = t + ts
            ticks.append(t)
        return (
            ts, ts / self.tau_av, self.a_acc_max, -self.a_acc_max, -self.a_aeb,
            self.r_aeb * ts, self.kp_acc, self.ki_acc, self.t_hw_desired,
            sched[0], sched[-1],
            tuple((v0, t0, v1, t1 - t0, v1 - v0) for (v0, t0), (v1, t1) in zip(sched, sched[1:])),
            thr_max + 8 * math.ulp(thr_max), tuple(ticks),
        )


class SimState(NamedTuple):
    """Following-vehicle state at one control tick.

    Under ACC the last command ``a_cmd`` is also the PI memory; once AEB
    latches the PI is never read again, so no second copy is kept.
    """

    t: float  # s
    r: float  # m, range to lead
    v: float  # m/s
    a: float  # m/s^2, realized acceleration
    a_cmd: float  # m/s^2, commanded acceleration
    mode: str  # ACC or AEB
    prev_err: float  # last headway error seen by the PI


class SimTrace(NamedTuple):
    """Outcome of one simulated event."""

    states: tuple[SimState, ...]  # empty unless recording was requested
    outcome: str  # "none", "conflict" or "crash"
    t_end: float  # s
    min_range: float  # m, over the whole trajectory
    delta_v: float | None  # m/s, closing speed at impact; None without a crash
    distance_m: float  # m traveled by the following vehicle


class EventRecord(NamedTuple):
    """Event flags of one simulated event."""

    conflict: bool
    crash: bool
    delta_v: float | None


def acc_command(t_hw: float, prev_err: float, a_cmd: float, cfg: AvConfig) -> tuple[float, float]:
    """One velocity-form PI update from the last command ``a_cmd``.

    Returns (saturated command, new error).
    """
    # Negated, not ``t_hw_desired - t_hw``: the two differ in the sign of a
    # zero error, and traces print that sign.
    err = -(t_hw - cfg.t_hw_desired)
    a_d = (
        a_cmd
        + cfg.kp_acc * (err - prev_err)
        + cfg.ki_acc * (err + prev_err) * cfg.ts / 2.0
    )
    a_d = min(cfg.a_acc_max, max(-cfg.a_acc_max, a_d))
    return a_d, err


def aeb_threshold(v: float, cfg: AvConfig) -> float:
    """TTC trigger threshold at speed ``v``, piecewise linear, clamped at the ends."""
    sched = cfg.ttc_aeb_schedule
    if v <= sched[0][0]:
        return sched[0][1]
    if v >= sched[-1][0]:
        return sched[-1][1]
    for (v0, t0), (v1, t1) in zip(sched, sched[1:]):
        if v <= v1:
            return t0 + (v - v0) * (t1 - t0) / (v1 - v0)
    return sched[-1][1]


def instantaneous_ttc(r: float, v: float, v_l: float) -> float:
    """Range over closing speed; infinite when not closing."""
    if v <= v_l:
        return math.inf
    return r / (v - v_l)


def step(state: SimState, scenario: ScenarioSample, cfg: AvConfig) -> SimState:
    """Advance one control period.

    Order matters: mode latch, command, actuator lag, then kinematics.
    The range update uses the speed from the start of the period, so a
    crash during the period is attributed to that period's closing
    speed.
    """
    mode = state.mode
    if mode == ACC and instantaneous_ttc(state.r, state.v, scenario.v_l) < aeb_threshold(
        state.v, cfg
    ):
        mode = AEB

    if mode == ACC:
        t_hw = state.r / max(state.v, _V_HEADWAY_EPS)
        a_cmd, prev_err = acc_command(t_hw, state.prev_err, state.a_cmd, cfg)
    else:
        a_cmd = max(-cfg.a_aeb, state.a_cmd + cfg.r_aeb * cfg.ts)
        prev_err = state.prev_err

    a = state.a + (cfg.ts / cfg.tau_av) * (a_cmd - state.a)
    v = max(0.0, state.v + a * cfg.ts)
    r = state.r + (scenario.v_l - state.v) * cfg.ts
    return SimState(
        t=state.t + cfg.ts, r=r, v=v, a=a, a_cmd=a_cmd, mode=mode, prev_err=prev_err,
    )


def _initial_state(scenario: ScenarioSample, cfg: AvConfig) -> SimState:
    ttc0 = instantaneous_ttc(scenario.r0, scenario.v0, scenario.v_l)
    mode = AEB if ttc0 < aeb_threshold(scenario.v0, cfg) else ACC
    return SimState(
        t=0.0, r=scenario.r0, v=scenario.v0, a=0.0, a_cmd=0.0, mode=mode, prev_err=0.0,
    )


def simulate(scenario: ScenarioSample, cfg: AvConfig, record: bool = False) -> SimTrace:
    """Run one event to crash or to the horizon.

    Distance uses the rectangle rule on the speed at each period start,
    which is also the integration scheme of the kinematics.  The loop is
    :func:`step` on local floats, as it is the hot loop of every
    estimator: the config's constants are derived once per ``AvConfig``
    (``AvConfig._loop_constants``), and each builtin ``max``/``min`` is a
    comparison that keeps the builtin's tie rule (``max(a, b)`` is ``a``
    unless ``b > a``), which decides the sign of a zero.  Two short cuts
    skip checks that cannot fire, and rely on these conditions:

    - thresholds are validated >= 0, so the AEB threshold is interpolated
      only when the TTC is below ``thr_cap``, the largest threshold plus
      the interpolation's rounding;
    - the range update uses the speed at the start of the step, so the
      range falls only on a closing step (that speed above ``v_l``); it
      starts every step above 0, so ``min_range`` and the crash test are
      updated only on closing steps.

    The initial mode is AEB when the TTC at cut-in is below the threshold
    at ``v0`` (:func:`_initial_state`).  The first tick's latch makes that
    same test on the same ``(r0, v0)``, and the horizon holds at least one
    tick, so the loop starts in ACC and only ``record`` builds the initial
    state.

    Tests hold it to :func:`step` bit for bit.  With ``record`` the trace
    also holds the state at every tick, the initial one included.
    """
    v_l = scenario.v_l
    (ts, lag, a_hi, a_lo, a_floor, ramp, kp, ki, t_hw_desired,
     (v_first, thr_first), (v_last, thr_last), segments, thr_cap, ticks) = cfg._loop_constants

    eps = _V_HEADWAY_EPS
    states = [_initial_state(scenario, cfg)] if record else []
    r = scenario.r0
    v = scenario.v0
    a = 0.0
    a_cmd = 0.0
    aeb = False
    prev_err = 0.0
    min_range = r
    sum_v = 0.0
    delta_v = None
    for t in ticks:
        closing = v > v_l
        if closing and not aeb:
            ttc = r / (v - v_l)
            if ttc < thr_cap:
                if v <= v_first:
                    thr = thr_first
                elif v >= v_last:
                    thr = thr_last
                else:
                    for v0, t0, v1, dt, dv in segments:
                        if v <= v1:
                            thr = t0 + (v - v0) * dt / dv
                            break
                aeb = ttc < thr
        if aeb:
            a_d = a_cmd + ramp
            a_cmd = a_d if a_d > a_floor else a_floor
        else:
            t_hw = r / (eps if eps > v else v)
            err = -(t_hw - t_hw_desired)
            a_d = a_cmd + kp * (err - prev_err) + ki * (err + prev_err) * ts / 2.0
            a_d = a_d if a_d > a_lo else a_lo
            a_cmd = a_d if a_d < a_hi else a_hi
            prev_err = err
        a = a + lag * (a_cmd - a)
        v_before = v
        v = v + a * ts
        v = v if v > 0.0 else 0.0
        r = r + (v_l - v_before) * ts
        sum_v += v_before
        if record:
            # Records are built by position, which takes half the time of keywords.
            states.append(SimState(t, r, v, a, a_cmd, AEB if aeb else ACC, prev_err))
        if closing:
            if r < min_range:
                min_range = r
            if r <= 0.0:
                delta_v = v_before - v_l
                break
    if r <= 0.0:
        outcome = "crash"
    elif min_range < cfg.r_conflict:
        outcome = "conflict"
    else:
        outcome = "none"
    return SimTrace(tuple(states), outcome, t, min_range, delta_v, sum_v * ts)


def classify_events(trace: SimTrace) -> EventRecord:
    """Event flags of the outcome :func:`simulate` decided; a crash is also a conflict."""
    return EventRecord(trace.outcome != "none", trace.outcome == "crash", trace.delta_v)
