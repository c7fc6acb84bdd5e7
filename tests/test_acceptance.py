"""Acceptance gate: one printed pass/fail line per primary behavior.

Run with ``-s`` (or ``-rA``) to see every line; each test also asserts,
so a plain pytest run still fails loudly.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from accel_eval.config import default_config_dict, parse_config
from accel_eval.cross_entropy import ce_search, weighted_tilt_update
from accel_eval.distributions import (
    TruncatedExponential,
    exp_density_ratio,
    tilt_exponential,
)
from accel_eval.estimation import (
    MILE_M,
    ConfidenceSpec,
    EstimatorAccumulator,
    InjuryModel,
    injury_probability,
    merge,
    relative_half_width,
    required_n_cmc,
)
from accel_eval.plant import AvConfig, classify_events, simulate
from accel_eval.runner import run_experiment, write_outputs
from accel_eval.scenario import (
    ProposalParams,
    ScenarioSample,
    derive_kinematics,
    scenario_stream,
    stream_namespace,
)

SPEC80 = ConfidenceSpec(0.2, 0.2)

RUN_CFG = {
    "seed": 42,
    "events": ["conflict"],
    "bins": ["high"],
    "modes": ["cmc", "is"],
    "n_cap": 6000,
    "stopping": {"check_every": 200, "min_samples": 400},
    "cross_entropy": {"iterations": 3, "n_per_iter": {"conflict": 100, "crash": 100}},
}

OFF = AvConfig(kp_acc=0.0, ki_acc=0.0, ttc_aeb_schedule=((5.0, 0.0), (40.0, 0.0)))


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def _mk_sample(v_l, r_inv, ttc_inv, likelihood=1.0):
    v0, r0 = derive_kinematics(v_l, r_inv, ttc_inv)
    return ScenarioSample(
        v_l=v_l, r_inv=r_inv, ttc_inv=ttc_inv, r0=r0, v0=v0,
        likelihood=likelihood,
    )


@pytest.fixture(scope="module")
def default_cfg():
    return parse_config({"seed": 1})


@pytest.fixture(scope="module")
def seed42_runs(tmp_path_factory):
    """The same experiment under 1 and 3 workers, with written artifacts."""
    outs = {}
    for w in (1, 3):
        cfg = parse_config({**RUN_CFG, "workers": w})
        d = run_experiment(cfg)
        out = tmp_path_factory.mktemp(f"workers{w}")
        write_outputs(d, str(out))
        outs[w] = (d, out)
    return outs


def test_a1_analytic_tail_acceleration():
    # Exp(mean 1), event {X > 7}, true rate e^-7. The searched tilt must
    # beat the crude-sampling budget by 10x and stay unbiased at n=1e4.
    t0 = time.perf_counter()
    gamma = math.exp(-7.0)
    n_pred = required_n_cmc(gamma, SPEC80)

    rng = np.random.default_rng(101)
    vartheta = 0.0
    for _ in range(6):
        mean = 1.0 - vartheta
        x = rng.exponential(mean, size=2000)
        lr = mean * np.exp(-x * (1.0 - 1.0 / mean))
        w = np.where(x > 7.0, lr, 0.0)
        if not w.any():
            continue
        vartheta = weighted_tilt_update(x, 1.0, w, lam_cap=1.0)

    base = TruncatedExponential(1.0)
    prop = tilt_exponential(base, vartheta)
    xs = [prop.ppf(u) for u in np.random.default_rng(202).random(10000)]
    ws = [exp_density_ratio(base, prop, x) for x in xs]
    acc = EstimatorAccumulator()
    n_converge = None
    for i in range(10000):
        acc.update(1.0 if xs[i] > 7.0 else 0.0, ws[i])
        if n_converge is None and acc.n % 50 == 0:
            lr_hw = relative_half_width(acc, SPEC80)
            if lr_hw is not None and lr_hw < SPEC80.beta:
                n_converge = acc.n
    est = acc.mean()
    se = math.sqrt(acc.sample_variance() / acc.n)
    elapsed = time.perf_counter() - t0

    ok = (
        n_converge is not None
        and n_converge * 10 <= n_pred
        and abs(est - gamma) <= 3.0 * se
        and elapsed < 10.0
    )
    _report(
        "A1 analytic-tail-acceleration",
        ok,
        f"tilted mean {1.0 - vartheta:.3g}, converged at n={n_converge} vs "
        f"{n_pred} crude, est {est:.4e} vs {gamma:.4e} (3se {3 * se:.1e}), "
        f"{elapsed:.2f}s",
    )


def test_a2_zero_variance_proposal():
    # Sampling the conditional law itself: every weighted draw IS the
    # answer, so the interval collapses.
    t0 = time.perf_counter()
    base = TruncatedExponential(1.0)
    prop = TruncatedExponential(1.0, lo=7.0)
    target = math.exp(-7.0)
    xs = [prop.ppf(u) for u in np.random.default_rng(7).random(1500)]
    ws = [exp_density_ratio(base, prop, x) for x in xs]
    acc = EstimatorAccumulator()
    for w in ws:
        acc.update(1.0, w)
    rel_err = max(abs(w / target - 1.0) for w in ws)
    lr_hw = relative_half_width(acc, SPEC80)
    elapsed = time.perf_counter() - t0
    ok = rel_err <= 1e-12 and lr_hw == 0.0 and elapsed < 1.0
    _report(
        "A2 zero-variance-proposal",
        ok,
        f"max weight error {rel_err:.1e} (tolerance 1e-12), half-width {lr_hw}, "
        f"{elapsed:.2f}s",
    )


def test_a3_crude_sample_size_formula():
    n = required_n_cmc(0.1, ConfidenceSpec(0.2, 0.2))
    _report("A3 crude-sample-size", n == 370, f"required_n_cmc(0.1)={n}, want 370")


def test_a4_crude_and_weighted_estimates_agree():
    # Five seeds, conflict in the high bin: the two estimators must give
    # overlapping 80% intervals every time.
    t0 = time.perf_counter()
    overlaps = []
    details = []
    for seed in (1, 2, 3, 4, 5):
        cfg = parse_config(
            {
                "seed": seed,
                "events": ["conflict"],
                "bins": ["high"],
                "modes": ["cmc", "is"],
                "n_cap": 50000,
                # A floor of 1000 keeps the sequential stop from freezing
                # an early fluke into either interval.
                "stopping": {"check_every": 500, "min_samples": 1000},
                "cross_entropy": {"iterations": 5, "n_per_iter": {"conflict": 100}},
            }
        )
        rows = {r["mode"]: r for r in run_experiment(cfg)["rows"]}
        c, i = rows["cmc"], rows["is"]
        overlaps.append(max(c["ci_lo"], i["ci_lo"]) <= min(c["ci_hi"], i["ci_hi"]))
        details.append(f"seed {seed}: cmc {c['estimate']:.4g} is {i['estimate']:.4g}")
    elapsed = time.perf_counter() - t0
    ok = all(overlaps) and elapsed < 60.0
    _report(
        "A4 crude-vs-weighted-agreement",
        ok,
        f"{sum(overlaps)}/5 interval overlaps, {elapsed:.1f}s; " + "; ".join(details),
    )


def test_a5_search_tilt_signs_and_dominance(default_cfg):
    # Proximity conflicts are driven by short initial ranges, crashes by
    # fast closing: the search must tilt the matching coordinate and
    # leave the other one near zero, for every seed.
    model, plant = default_cfg.model, default_cfg.plant
    lam_r = model.r_inv_surrogate.mean
    cap_high = model.min_lambda_ttc_in(model.bin_named("high"))
    cap_low = model.min_lambda_ttc_in(model.bin_named("low"))
    ok = True
    details = []
    for seed in (1, 2, 3):
        st = ce_search(model, plant, "high", "conflict", 100, 10, seed)
        ar, at = abs(st.vartheta_r) / lam_r, abs(st.vartheta_ttc) / cap_high
        ok &= st.vartheta_r < 0.0 and ar > 2.0 and at < 0.5 and ar > 2.0 * at
        details.append(f"conflict s{seed} vr={st.vartheta_r:.3g} vt={st.vartheta_ttc:.3g}")

        st = ce_search(model, plant, "low", "crash", 500, 10, seed)
        ar, at = abs(st.vartheta_r) / lam_r, abs(st.vartheta_ttc) / cap_low
        ok &= st.vartheta_ttc < 0.0 and at > 2.0 and ar < 0.5 and at > 2.0 * ar
        details.append(f"crash s{seed} vr={st.vartheta_r:.3g} vt={st.vartheta_ttc:.3g}")
    _report("A5 tilt-signs-and-dominance", ok, "; ".join(details))


def test_a6_disabled_plant_closed_form():
    # 4 m gap closing at 2 m/s with all control off: impact at 2 s with
    # the full closing speed.
    s = _mk_sample(10.0, 0.25, 0.5)  # r0=4 m, closing 2 m/s
    trace = simulate(s, OFF)
    ok = (
        trace.outcome == "crash"
        and abs(trace.t_end - 2.0) <= OFF.ts + 1e-9
        and trace.delta_v == 2.0
    )
    _report(
        "A6 plant-closed-form",
        ok,
        f"outcome {trace.outcome}, t_end {trace.t_end}, delta_v {trace.delta_v}",
    )


def test_a7_injury_probability_and_ordering(default_cfg):
    m = default_cfg.injury
    p_none = injury_probability(None, m)
    p_zero = injury_probability(0.0, m)
    p_half = injury_probability(66.914, m)
    kmh = InjuryModel(delta_v_unit="km/h")
    unit_ok = injury_probability(10.0, kmh) == injury_probability(36.0, m)

    # One shared stream in the low bin under a crash-seeking proposal:
    # the injury contribution of every sample is its crash contribution
    # scaled by a probability, so the estimates are ordered sample-wise.
    model, plant = default_cfg.model, default_cfg.plant
    b = model.bin_named("low")
    params = ProposalParams(0.0, -0.5)
    ns = stream_namespace("accept/shared-stream")
    inj, crash = EstimatorAccumulator(), EstimatorAccumulator()
    samplewise = True
    for i in range(500):
        s = model.sample_scenario(b, scenario_stream(3, i, ns), params)
        trace = simulate(s, plant)
        rec = classify_events(trace)
        w_crash = (1.0 if rec.crash else 0.0) * s.likelihood
        w_inj = injury_probability(rec.delta_v, m) * s.likelihood
        samplewise &= w_inj <= w_crash
        crash.update(1.0 if rec.crash else 0.0, s.likelihood)
        inj.update(injury_probability(rec.delta_v, m), s.likelihood)
    ok = (
        p_none == 0.0
        and p_zero == pytest.approx(1.24e-3, rel=1e-3)
        and p_half == pytest.approx(0.5, abs=1e-9)
        and unit_ok
        and samplewise
        and inj.mean() <= crash.mean()
        and crash.n == 500
    )
    _report(
        "A7 injury-model",
        ok,
        f"P(none)={p_none}, P(0)={p_zero:.6g}, P(66.914)={p_half:.12g}, "
        f"unit tag ok={unit_ok}, injury {inj.mean():.3e} <= crash {crash.mean():.3e}",
    )


def test_a8_exposure_accounting(seed42_runs):
    defaults_ok = (
        default_config_dict()["r_lc"] == 7.64
        and parse_config({"seed": 1}).r_lc == 7.64
    )

    # A quiet 8 s test at a constant 20 m/s adds exactly 160 m.
    s = ScenarioSample(
        v_l=20.0, r_inv=1.0 / 250.0, ttc_inv=1e-12, r0=250.0, v0=20.0,
        likelihood=1.0,
    )
    trace = simulate(s, OFF)
    distance_ok = (
        trace.outcome == "none"
        and trace.distance_m == 160.0
        and trace.distance_m / MILE_M == 0.09941939075797343
    )

    # Report rows must satisfy the exposure identities exactly.
    d, _ = seed42_runs[1]
    rows_ok = True
    r_lc = d["resolved_config"]["r_lc"]
    for r in d["rows"]:
        rows_ok &= r["d_acc_mi"] == r["distance_m"] / MILE_M
        if r["n_nature"] is not None:
            rows_ok &= r["d_nature_mi"] == r_lc * r["n_nature"]
            rows_ok &= r["r_acc"] == r["d_nature_mi"] / r["d_acc_mi"]
            rows_ok &= r["r_acc"] > 0.0
    ok = defaults_ok and distance_ok and rows_ok
    _report(
        "A8 exposure-accounting",
        ok,
        f"r_lc default ok={defaults_ok}, 8s@20m/s -> {trace.distance_m} m "
        f"({trace.distance_m / MILE_M!r} mi), report identities ok={rows_ok}",
    )


def test_a9_worker_count_byte_identity(seed42_runs):
    d1, out1 = seed42_runs[1]
    d3, out3 = seed42_runs[3]
    names1 = sorted(p.name for p in out1.iterdir() if p.is_file())
    names3 = sorted(p.name for p in out3.iterdir() if p.is_file())
    same_files = names1 == names3 and all(
        (out1 / n).read_bytes() == (out3 / n).read_bytes() for n in names1
    )
    ok = d1 == d3 and same_files and len(names1) >= 4
    _report(
        "A9 worker-determinism",
        ok,
        f"{len(names1)} files byte-identical across 1 vs 3 workers: {same_files}",
    )


def test_a10_module_invariants(default_cfg):
    model, plant = default_cfg.model, default_cfg.plant
    checks = {}

    pareto = model.r_inv_dist
    mass, _ = quad(pareto.pdf, pareto.lo, pareto.hi, limit=200)
    expo = TruncatedExponential(0.07, 1.0, 9.0)
    mass_e, _ = quad(expo.pdf, expo.lo, expo.hi, limit=200)
    checks["normalization"] = abs(mass - 1.0) <= 1e-6 and abs(mass_e - 1.0) <= 1e-6

    us = np.linspace(1e-3, 0.999, 101).tolist()
    checks["round-trip"] = all(
        abs(law.cdf(law.ppf(u)) - u) <= 1e-9 for law in (pareto, expo) for u in us
    )

    # Merging partial sums is exact regardless of grouping, and equals
    # accumulating the concatenated streams one by one.
    accs = [EstimatorAccumulator() for _ in range(3)]
    seq = EstimatorAccumulator()
    for i in range(90):
        accs[i % 3].update(1.0 if i % 4 else 0.0, math.exp(math.sin(i * 0.7)) * 1e-3, 0.1 * i)
    for j in range(3):
        for i in range(j, 90, 3):
            seq.update(1.0 if i % 4 else 0.0, math.exp(math.sin(i * 0.7)) * 1e-3, 0.1 * i)
    left = merge(merge(accs[0], accs[1]), accs[2])
    right = merge(accs[0], merge(accs[1], accs[2]))
    checks["merge-exact"] = left == right == seq

    rec = simulate(_mk_sample(30.0, 1.0 / 15.5, 10.0 / 15.5), plant, record=True)
    modes = [st.mode for st in rec.states]
    flips = sum(1 for a, b in zip(modes, modes[1:]) if a != b)
    checks["latching"] = flips == 1 and modes[0] == "acc" and modes[-1] == "aeb"

    crashy = simulate(_mk_sample(10.0, 0.5, 2.0), plant, record=True)
    cmds = [st.a_cmd for st in crashy.states]
    within = all(-plant.a_aeb - 1e-12 <= c <= plant.a_acc_max + 1e-12 for c in cmds)
    ramp_ok = all(
        plant.r_aeb * plant.ts - 1e-12 <= s1.a_cmd - s0.a_cmd <= 1e-12
        for s0, s1 in zip(crashy.states, crashy.states[1:])
        if s1.mode == "aeb"
    )
    checks["command-bounds"] = within and ramp_ok

    b = model.bin_named("high")
    ns = stream_namespace("accept/fast-vs-recorded")
    agree = True
    for i in range(50):
        params = None if i % 2 else ProposalParams(-0.05, -0.01)
        s = model.sample_scenario(b, scenario_stream(6, i, ns), params)
        fast = simulate(s, plant)
        slow = simulate(s, plant, record=True)
        agree &= (
            fast.outcome == slow.outcome
            and fast.t_end == slow.t_end
            and fast.min_range == slow.min_range
            and fast.delta_v == slow.delta_v
            and fast.distance_m == slow.distance_m
        )
    checks["fast-equals-recorded"] = agree

    ok = all(checks.values())
    _report(
        "A10 module-invariants",
        ok,
        ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()),
    )
