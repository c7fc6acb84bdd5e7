"""Experiment orchestration: row accounting, determinism, artifacts."""

import json
import math
import statistics
from pathlib import Path

import pytest

from accel_eval.config import parse_config
from accel_eval.cross_entropy import CeState, ce_search
from accel_eval.estimation import MILE_M, required_n_cmc
from accel_eval.plant import simulate
from accel_eval.runner import (
    render_summary,
    run_experiment,
    run_search,
    write_outputs,
)
from accel_eval.scenario import ProposalParams, scenario_stream, stream_namespace

FAST = {
    "seed": 42,
    "events": ["conflict"],
    "bins": ["high"],
    "modes": ["cmc", "is"],
    "n_cap": 6000,
    "stopping": {"check_every": 200, "min_samples": 400},
    "cross_entropy": {"iterations": 3, "n_per_iter": {"conflict": 100, "crash": 100}},
}


# Crude Monte Carlo rate of conflict/high under the default config's
# original law: 7305 conflicts in 600 000 draws.  Draw i was
# sample_scenario(high, scenario_stream(7, i, stream_namespace("reference/high")))
# under no proposal, counted where simulate(...).outcome != "none"
# (37-42 CPU-s on a 2-vCPU Xeon).
CONFLICT_HIGH_REF = 7305 / 600_000  # 0.012175
CONFLICT_HIGH_REF_SE = math.sqrt(CONFLICT_HIGH_REF * (1 - CONFLICT_HIGH_REF) / 600_000)  # relative 1.16%


def _rows_by_mode(report):
    return {r["mode"]: r for r in report["rows"]}


def test_importance_sampling_is_unbiased_against_the_crude_reference():
    # The tilts of one search, held fixed over 20 seeds: the mean of the
    # IS estimates must lie within 3 se of the CMC reference.  A single
    # row stops near 250 draws, so its own interval cannot show a bias.
    base = parse_config({"seed": 20260814})
    st = ce_search(base.model, base.plant, "high", "conflict", 100, 10, 20260814)
    warm = {"conflict": {"high": {"vartheta_r": st.vartheta_r, "vartheta_ttc": st.vartheta_ttc}}}
    estimates = []
    for seed in range(1, 21):
        cfg = parse_config({"seed": seed, "events": ["conflict"], "bins": ["high"],
                            "modes": ["is"], "warm_start": warm})
        estimates.append(run_experiment(cfg)["rows"][0]["estimate"])
    mean = statistics.fmean(estimates)
    se = math.hypot(statistics.stdev(estimates) / math.sqrt(len(estimates)),
                    CONFLICT_HIGH_REF_SE)
    assert abs(mean - CONFLICT_HIGH_REF) < 3 * se, (mean, CONFLICT_HIGH_REF, se)


def test_row_accounting_is_coherent():
    cfg = parse_config(dict(FAST))
    rep = run_experiment(cfg)
    rows = _rows_by_mode(rep)
    assert set(rows) == {"cmc", "is"}
    for r in rows.values():
        assert 0.0 <= r["ci_lo"] <= r["estimate"] <= r["ci_hi"]
        assert r["n"] >= cfg.min_samples
        assert r["converged"]
        assert r["d_acc_mi"] == r["distance_m"] / MILE_M
        assert r["n_nature_source"] == "actual-cmc"
        assert r["d_nature_mi"] == cfg.r_lc * r["n_nature"]
        assert r["r_acc"] == r["d_nature_mi"] / r["d_acc_mi"]
    # Both modes convert the same physical exposure: the cmc row's sample
    # count is what the is row reports as its natural-driving equivalent.
    assert rows["is"]["n_nature"] == rows["cmc"]["n"]
    assert rows["cmc"]["vartheta_r"] is None and rows["cmc"]["vartheta_ttc"] is None
    state = rep["ce"]["conflict/high"]
    assert rows["is"]["vartheta_r"] == state["vartheta_r"]
    assert rows["is"]["vartheta_ttc"] == state["vartheta_ttc"]
    # Acceleration requires fewer accelerated miles than natural ones.
    assert rows["is"]["r_acc"] > 1.0

    for key, conv in rep["convergence"].items():
        ns = [n for n, _, _, _ in conv]
        assert ns == [cfg.check_every * (i + 1) for i in range(len(ns))]
    assert rep["convergence"]["conflict/high/is"][-1][0] == rows["is"]["n"]
    assert rep["convergence"]["conflict/high/cmc"][-1][0] == rows["cmc"]["n"]


def test_a_batch_of_one_draw_is_merged_but_not_checked():
    # With a check after every draw, the first check waits for the second
    # draw, as a sample variance needs two; batch size changes no row.
    one = run_experiment(parse_config({**FAST, "modes": ["cmc"], "n_cap": 60,
                                       "stopping": {"check_every": 1, "min_samples": 2}}))
    conv = one["convergence"]["conflict/high/cmc"]
    assert [c[0] for c in conv] == list(range(2, 61))
    whole = run_experiment(parse_config({**FAST, "modes": ["cmc"], "n_cap": 60,
                                         "stopping": {"check_every": 60, "min_samples": 60}}))
    assert whole["convergence"]["conflict/high/cmc"] == [conv[-1]]
    assert whole["rows"] == one["rows"]


def test_is_listed_before_cmc_still_takes_the_cmc_count():
    # Every mode of an (event, bin) runs before its rows are built, so an
    # is row listed first still reads the converged cmc row's count.
    cfg = parse_config({**FAST, "modes": ["is", "cmc"]})
    rep = run_experiment(cfg)
    assert [r["mode"] for r in rep["rows"]] == ["is", "cmc"]
    rows = _rows_by_mode(rep)
    assert rows["cmc"]["converged"]
    assert rows["is"]["n_nature_source"] == "actual-cmc"
    assert rows["is"]["n_nature"] == rows["cmc"]["n"]
    # The order of the modes changes no row: each draws on its own stream.
    assert rep["rows"][::-1] == run_experiment(parse_config(dict(FAST)))["rows"]


def test_is_only_predicts_natural_sample_count():
    cfg = parse_config({**FAST, "modes": ["is"], "seed": 7})
    rep = run_experiment(cfg)
    (row,) = rep["rows"]
    assert row["mode"] == "is"
    assert row["n_nature_source"] == "predicted"
    assert row["n_nature"] == required_n_cmc(row["estimate"], cfg.confidence)
    assert row["r_acc"] == (cfg.r_lc * row["n_nature"]) / row["d_acc_mi"]


def test_zero_estimate_has_no_natural_equivalent():
    cfg = parse_config(
        {
            "seed": 3,
            "events": ["crash"],
            "bins": ["high"],
            "modes": ["is"],
            "n_cap": 400,
            "stopping": {"check_every": 200, "min_samples": 100},
            "warm_start": {"crash": {"high": {"vartheta_r": 0.0, "vartheta_ttc": 0.0}}},
        }
    )
    rep = run_experiment(cfg)  # untilted proposal: no crashes here
    (row,) = rep["rows"]
    assert row["estimate"] == 0.0
    assert not row["converged"]
    assert row["n"] == cfg.n_cap
    assert row["n_nature"] is None and row["n_nature_source"] == "unavailable"
    assert row["d_nature_mi"] is None and row["r_acc"] is None
    assert rep["ce"] == {}


def test_warm_start_skips_the_search():
    warm = {"conflict": {"high": {"vartheta_r": -0.11, "vartheta_ttc": -0.015}}}
    cfg = parse_config(
        {**FAST, "modes": ["is"], "warm_start": warm, "seed": 11}
    )
    rep = run_experiment(cfg)
    assert rep["ce"] == {}
    (row,) = rep["rows"]
    assert row["vartheta_r"] == -0.11
    assert row["vartheta_ttc"] == -0.015


def test_injury_estimation_reuses_crash_proposal():
    warm = {"crash": {"low": {"vartheta_r": 0.001, "vartheta_ttc": -0.55}}}
    cfg = parse_config(
        {
            "seed": 5,
            "events": ["injury"],
            "bins": ["low"],
            "modes": ["is"],
            "n_cap": 600,
            "stopping": {"check_every": 300, "min_samples": 100},
            "warm_start": warm,
        }
    )
    rep = run_experiment(cfg)
    assert rep["ce"] == {}
    (row,) = rep["rows"]
    assert row["vartheta_r"] == 0.001 and row["vartheta_ttc"] == -0.55
    # Injuries are severity-weighted crashes, so the rate cannot exceed
    # the crash rate under the same proposal and stream.
    crash_cfg = parse_config(
        {
            "seed": 5,
            "events": ["crash"],
            "bins": ["low"],
            "modes": ["is"],
            "n_cap": 600,
            "stopping": {"check_every": 300, "min_samples": 100},
            "warm_start": warm,
        }
    )
    crash_rep = run_experiment(crash_cfg)
    assert row["estimate"] <= crash_rep["rows"][0]["estimate"]


def test_search_deduplicates_injury_and_crash():
    cfg = parse_config(
        {
            "seed": 2,
            "events": ["crash", "injury"],
            "bins": ["low"],
            "modes": ["is"],
            "cross_entropy": {"iterations": 2, "n_per_iter": {"crash": 200}},
        }
    )
    d = run_search(cfg)
    assert d["provenance"]["seed"] == 2
    assert list(d["ce"]) == ["crash/low"]
    assert len(d["ce"]["crash/low"]["history"]) == 2


def test_a_search_entry_is_the_search_state():
    # A report's ce entry is the state ce_search returns, with no second form.
    cfg = parse_config({**FAST, "events": ["conflict", "injury"], "bins": ["high", "low"]})
    d = run_search(cfg)
    assert list(d["ce"]) == ["conflict/high", "conflict/low", "crash/high", "crash/low"]
    for key, entry in d["ce"].items():
        event, bin_name = key.split("/")
        st = ce_search(cfg.model, cfg.plant, bin_name, event, cfg.ce_n_per_iter[event],
                       cfg.ce_iterations, cfg.seed)
        assert set(entry) == set(CeState._fields)
        assert json.dumps(entry, sort_keys=True) == json.dumps(st._asdict(), sort_keys=True)


def test_outputs_are_reproducible_and_round_trip(tmp_path):
    # Two bins whose run order is not their sorted order: the fresh and the
    # re-rendered summary both list the tilts in sorted key order.
    cfg = parse_config({**FAST, "n_cap": 800, "seed": 21, "bins": ["medium", "high"]})
    d = run_experiment(cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    write_outputs(d, str(a))
    write_outputs(d, str(b))
    for p in a.iterdir():
        assert p.read_bytes() == (b / p.name).read_bytes()

    loaded = json.loads((a / "report.json").read_text(encoding="utf-8"))
    assert loaded == json.loads(json.dumps(d))  # JSON-safe content only
    # A summary regenerated from the stored report matches the stored one.
    assert render_summary(loaded) == (a / "summary.txt").read_text(encoding="utf-8")
    text = (a / "summary.txt").read_text(encoding="utf-8")
    assert "accelerated-evaluation run" in text
    assert "actual-cmc" in text
    csvs = [p.name for p in a.iterdir() if p.suffix == ".csv"]
    assert "convergence_conflict_high_is.csv" in csvs
    assert "ce_history_conflict_high.csv" in csvs
    history = (a / "ce_history_conflict_high.csv").read_text(encoding="utf-8")
    assert history.splitlines()[0] == "iteration,vartheta_r,vartheta_ttc,hits,n"
    assert len(history.splitlines()) == 1 + cfg.ce_iterations


def test_verbose_traces_write_scenario_artifacts(tmp_path):
    warm = {"conflict": {"high": {"vartheta_r": -0.11, "vartheta_ttc": -0.015}}}
    cfg = parse_config(
        {
            "seed": 13,
            "events": ["conflict"],
            "bins": ["high"],
            "modes": ["is"],
            "n_cap": 200,
            "stopping": {"check_every": 100, "min_samples": 100},
            "warm_start": warm,
        }
    )
    out = tmp_path / "out"
    out.mkdir()
    rep = run_experiment(cfg, str(out))
    write_outputs(rep, str(out))

    log = out / "scenarios_conflict_high_is.csv"
    lines = log.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "index,v_l,r_inv,ttc_inv,likelihood,outcome,min_range,delta_v"
    assert len(lines) == 1 + rep["rows"][0]["n"]
    # Each line is built at draw time; it must be the bytes rebuilt from that draw.
    b = cfg.model.bin_named("high")
    params = ProposalParams(-0.11, -0.015)
    ns = stream_namespace("estimate/conflict/high/is")
    for i, line in enumerate(lines[1:]):
        s = cfg.model.sample_scenario(b, scenario_stream(13, i, ns), params)
        tr = simulate(s, cfg.plant)
        assert line == ",".join([
            str(i), repr(s.v_l), repr(s.r_inv), repr(s.ttc_inv), repr(s.likelihood),
            tr.outcome, repr(tr.min_range), "" if tr.delta_v is None else repr(tr.delta_v),
        ])

    trace_dir = out / "traces" / "conflict_high_is"
    traces = sorted(trace_dir.iterdir())
    assert 1 <= len(traces) <= 20
    first = traces[0].read_text(encoding="utf-8").splitlines()
    assert first[0] == "t,r,v,a_cmd,a,mode"
    assert len(first) > 2
    # Trace files are named by scenario index, which the log must contain.
    idx = int(traces[0].stem)
    assert any(line.startswith(f"{idx},") for line in lines[1:])


def test_search_outputs_files(tmp_path):
    cfg = parse_config(
        {
            "seed": 8,
            "events": ["conflict"],
            "bins": ["high"],
            "modes": ["is"],
            "cross_entropy": {"iterations": 2, "n_per_iter": {"conflict": 150}},
        }
    )
    d = run_search(cfg)
    out = tmp_path / "search"
    write_outputs(d, str(out))
    assert (out / "report.json").exists()
    assert (out / "ce_history_conflict_high.csv").exists()
    text = (out / "summary.txt").read_text(encoding="utf-8")
    assert "cross-entropy tilts" in text
    assert "conflict/high" in text
    loaded = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert loaded == json.loads(json.dumps(d))
    assert loaded["rows"] == [] and loaded["convergence"] == {}


def test_json_outputs_refuse_non_finite_numbers(tmp_path):
    # report.json is strict JSON: a NaN or infinity is an error at write
    # time, not an "NaN"/"Infinity" token in the file.
    d = run_experiment(parse_config({**FAST, "modes": ["cmc"], "n_cap": 400}))
    d["resolved_config"]["r_lc"] = math.nan
    with pytest.raises(ValueError, match="JSON compliant"):
        write_outputs(d, str(tmp_path / "run"))
