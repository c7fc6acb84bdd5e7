"""Command-line interface: subcommands, exit codes, artifact layout."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from accel_eval import cli
from accel_eval.cli import main
from accel_eval.config import parse_config
from accel_eval.plant import simulate
from accel_eval.runner import SUMMARY_COLUMNS
from accel_eval.scenario import ProposalParams, scenario_stream, stream_namespace

from test_ingest import _synthetic_rows, _write_csv

WARM_HIGH = {"conflict": {"high": {"vartheta_r": -0.11, "vartheta_ttc": -0.015}}}


def _config_file(tmp_path, data, name="exp.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(p)


def _fast_config(tmp_path, **extra):
    data = {
        "seed": 31,
        "events": ["conflict"],
        "bins": ["high"],
        "modes": ["is"],
        "n_cap": 400,
        "stopping": {"check_every": 200, "min_samples": 200},
        "warm_start": WARM_HIGH,
        **extra,
    }
    return _config_file(tmp_path, data)


def test_run_succeeds_and_writes_outputs(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert (out / "summary.txt").exists()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["provenance"]["seed"] == 31
    assert report["rows"][0]["converged"] is True


@pytest.mark.parametrize("command", ["run", "search", "report"])
def test_non_empty_out_is_refused(tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    (out / "stale.csv").write_bytes(b"n,estimate\n")
    args = [str(tmp_path)] if command == "report" else ["--config", _fast_config(tmp_path)]
    assert main([command, *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --out {out} is not empty; give a new or empty directory\n"
    )
    assert [p.name for p in out.iterdir()] == ["stale.csv"]
    assert (out / "stale.csv").read_bytes() == b"n,estimate\n"


@pytest.mark.parametrize("command", ["run", "search", "report"])
def test_out_that_cannot_be_a_directory_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                              command):
    cfg = _fast_config(tmp_path)
    stored = tmp_path / "stored"
    if command == "report":
        assert main(["run", "--config", cfg, "--out", str(stored)]) == 0

    def never(*args, **kwargs):
        raise AssertionError("work began before --out was made")

    monkeypatch.setattr(cli, "run_experiment", never)
    monkeypatch.setattr(cli, "run_search", never)
    blocker = tmp_path / "file"
    blocker.write_bytes(b"x")
    args = [str(stored)] if command == "report" else ["--config", cfg]
    capsys.readouterr()
    for out in (blocker, blocker / "under"):
        assert main([command, *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
    assert blocker.read_bytes() == b"x"


def test_run_returns_2_when_not_converged(tmp_path, capsys):
    cfg = _config_file(
        tmp_path,
        {
            "seed": 3,
            "events": ["crash"],
            "bins": ["high"],
            "modes": ["is"],
            "n_cap": 400,
            "stopping": {"check_every": 200, "min_samples": 100},
            "warm_start": {"crash": {"high": {"vartheta_r": 0.0, "vartheta_ttc": 0.0}}},
        },
    )
    out = tmp_path / "out"
    # Zero tilts skip the search, and the untilted proposal sees no crashes.
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "not converged" in err
    assert (out / "report.json").exists()  # results are still written


def test_selection_and_seed_overrides(tmp_path):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", cfg, "--out", str(out), "--seed", "77",
         "--n-cap", "200", "--mode", "is", "--bin", "high"]
    )
    # Whether 200 samples converge is seed luck; the overrides are not.
    assert code in (0, 2)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["provenance"]["seed"] == 77
    assert report["resolved_config"]["n_cap"] == 200
    assert [r["bin"] for r in report["rows"]] == ["high"]


def test_config_errors_exit_1(tmp_path, capsys):
    out = str(tmp_path / "out")
    no_seed = _config_file(tmp_path, {"events": ["conflict"]}, "noseed.yaml")
    assert main(["run", "--config", no_seed, "--out", out]) == 1
    assert "seed" in capsys.readouterr().err

    typo = _config_file(tmp_path, {"seed": 1, "plnt": {}}, "typo.yaml")
    assert main(["run", "--config", typo, "--out", out]) == 1
    assert "plnt" in capsys.readouterr().err

    assert main(["run", "--config", str(tmp_path / "missing.yaml"), "--out", out]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.yaml"
    bad.write_text("events: [unterminated\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", out]) == 1
    assert "not valid YAML" in capsys.readouterr().err

    # A control period so short that the horizon's tick count overflows.
    tiny_ts = _config_file(tmp_path, {"seed": 1, "plant": {"ts": 5.0e-324}}, "tiny.yaml")
    assert main(["run", "--config", tiny_ts, "--out", out]) == 1
    assert "plant" in capsys.readouterr().err


def test_failed_surrogate_fit_exits_1(tmp_path, capsys):
    # A near-uniform inverse-range law has no interior least-squares
    # exponential; the fit's error is reported like any other model error.
    cfg = _config_file(
        tmp_path,
        {
            "seed": 1,
            "model": {
                "inverse_range": {
                    "k": 0.02, "sigma": 1000.0, "theta": 1 / 75, "lo": 1 / 75, "hi": 10.0,
                }
            },
        },
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: model: no interior least-squares minimum bracketed\n"
    )


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --config is required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "x.yaml", "--n-cap", "lots"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--config", "x.yaml"])  # folded into run
    assert exc.value.code == 1
    capsys.readouterr()


def test_search_writes_tilt_artifacts(tmp_path, capsys):
    cfg = _config_file(
        tmp_path,
        {
            "seed": 8,
            "events": ["conflict"],
            "bins": ["high"],
            "modes": ["is"],
            "cross_entropy": {"iterations": 2, "n_per_iter": {"conflict": 150}},
        },
    )
    out = tmp_path / "search"
    assert main(["search", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["rows"] == [] and report["convergence"] == {}
    assert list(report["ce"]) == ["conflict/high"]
    assert (out / "ce_history_conflict_high.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_search_abort_exits_2(tmp_path, capsys):
    # Ranges pinned to 70-75 m cannot close within a 0.2 s horizon, so
    # the crash search never sees a hit. It runs all its iterations and
    # is written like any other. Two empty iterations never made three
    # in a row, so that search once exited 0 with untilted tilts.
    for iterations in (2, 5):
        cfg = _config_file(
            tmp_path,
            {
                "seed": 4,
                "events": ["crash"],
                "bins": ["high"],
                "modes": ["is"],
                "model": {
                    "inverse_range": {
                        "k": 0.02, "sigma": 0.0205,
                        "theta": 1 / 75, "lo": 1 / 75, "hi": 1 / 70,
                    }
                },
                "plant": {"t_lc_max": 0.2},
                "cross_entropy": {"iterations": iterations, "n_per_iter": {"crash": 20}},
            },
        )
        out, again = tmp_path / f"out{iterations}", tmp_path / f"again{iterations}"
        assert main(["search", "--config", cfg, "--out", str(out)]) == 2
        assert "warning: crash/high cross-entropy search aborted" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        st = report["ce"]["crash/high"]
        assert st["event_hits"] == 0 and [h[3] for h in st["history"]] == [0] * iterations
        assert main(["report", str(out), "--out", str(again)]) == 0
        assert "aborted" not in capsys.readouterr().err
        files = sorted(p.name for p in out.iterdir())
        assert files == sorted(p.name for p in again.iterdir())
        for name in files:
            assert (again / name).read_bytes() == (out / name).read_bytes()


def test_search_recovers_after_three_empty_iterations(tmp_path, capsys):
    # conflict/high at seed 110 sees no hit in iterations 1-3, then finds
    # the event; a search that stopped after three empty iterations lost it.
    out = tmp_path / "out"
    default = str(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
    argv = ["search", "--config", default, "--event", "conflict",
            "--bin", "high", "--seed", "110", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    st = json.loads((out / "report.json").read_text(encoding="utf-8"))["ce"]["conflict/high"]
    assert [h[3] for h in st["history"][:3]] == [0, 0, 0]
    assert st["event_hits"] > 0


def test_a_failed_search_keeps_every_row_of_a_run(tmp_path, capsys):
    # At seed 17 and 3 iterations of 50 draws, the crash searches of low
    # and medium find crashes and that of high draws none.
    cfg = _config_file(tmp_path, {
        "seed": 17, "events": ["crash", "injury"], "bins": ["all"], "modes": ["cmc", "is"],
        "cross_entropy": {"iterations": 3, "n_per_iter": {"crash": 50}},
    })
    out, alone = tmp_path / "out", tmp_path / "alone"
    assert main(["run", "--config", cfg, "--n-cap", "200", "--out", str(out)]) == 2
    assert "crash/high cross-entropy search aborted" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [(r["event"], r["bin"], r["mode"]) for r in report["rows"]] == [
        (e, b, m) for e in ("crash", "injury") for b in ("low", "medium", "high")
        for m in ("cmc", "is")
    ]
    assert {k: st["event_hits"] > 0 for k, st in report["ce"].items()} == {
        "crash/low": True, "crash/medium": True, "crash/high": False,
    }
    # The IS rows of high run under the tilts the failed search ended with.
    assert all((r["vartheta_r"], r["vartheta_ttc"]) == (0.0, 0.0)
               for r in report["rows"] if r["bin"] == "high" and r["mode"] == "is")

    assert main(["run", "--config", cfg, "--n-cap", "200", "--bin", "low", "--bin", "medium",
                 "--out", str(alone)]) == 2
    capsys.readouterr()
    other = json.loads((alone / "report.json").read_text(encoding="utf-8"))

    def dump(x):
        return json.dumps(x, sort_keys=True)

    assert dump([r for r in report["rows"] if r["bin"] != "high"]) == dump(other["rows"])
    assert dump({k: st for k, st in report["ce"].items() if k != "crash/high"}) == dump(other["ce"])
    for key, conv in other["convergence"].items():
        assert dump(report["convergence"][key]) == dump(conv)


def test_run_with_warm_start_runs_no_search(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["ce"] == {}
    assert not [p for p in out.iterdir() if p.name.startswith("ce_history_")]
    assert report["rows"][0]["vartheta_r"] == -0.11


def test_fit_emits_usable_model_fragment(tmp_path, capsys):
    data = tmp_path / "events.csv"
    _write_csv(data, _synthetic_rows(1500, seed=41))
    out = tmp_path / "model.yaml"
    assert main(["fit", str(data), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "records" in stdout and "generalized Pareto" in stdout
    fragment = yaml.safe_load(out.read_text(encoding="utf-8"))
    assert set(fragment) == {"model"}
    cfg = parse_config({"seed": 12, **fragment})
    assert cfg.model.r_inv_dist.k == fragment["model"]["inverse_range"]["k"]


def test_fit_drops_non_finite_records(tmp_path, capsys):
    # -inf counts as closing (-inf < 0) and would put an infinity into
    # ttc_lambda.table, which run refuses; NaN must not reach the fit either.
    rows = _synthetic_rows(300, seed=41).tolist()
    clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
    _write_csv(clean, rows)
    _write_csv(dirty, rows + [[10.0, 12.0, 30.0, -math.inf], [10.0, 12.0, 30.0, math.nan]])
    assert main(["fit", str(clean), "--out", str(tmp_path / "clean.yaml")]) == 0
    capsys.readouterr()
    assert main(["fit", str(dirty), "--out", str(tmp_path / "dirty.yaml")]) == 0
    stdout = capsys.readouterr().out
    assert "302 total" in stdout and "not_finite=2" in stdout
    fragment = (tmp_path / "dirty.yaml").read_text(encoding="utf-8")
    assert fragment == (tmp_path / "clean.yaml").read_text(encoding="utf-8")
    parse_config({"seed": 1, **yaml.safe_load(fragment)})


def test_fit_errors_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["fit", str(missing), "--out", str(tmp_path / "m.yaml")]) == 1
    assert "error:" in capsys.readouterr().err

    short = tmp_path / "short.csv"
    _write_csv(short, [[10.0, 12.0, 30.0, -1.0]] * 3)
    assert main(["fit", str(short), "--out", str(tmp_path / "m.yaml")]) == 1
    assert "need >= 10" in capsys.readouterr().err

    # Near-ties at the 75 m envelope bound plus one closer cut-in: the
    # Pareto likelihood peaks beyond the fit's grid, and the fit fails cleanly.
    ties = tmp_path / "ties.csv"
    _write_csv(ties, [[10.0, 12.0, 74.99999999, -1.0]] * 19 + [[10.0, 12.0, 30.0, -1.0]])
    assert main(["fit", str(ties), "--out", str(tmp_path / "m.yaml")]) == 1
    assert "error: generalized Pareto likelihood grows without bound" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--v-bin-width", "0"), ("--v-bin-width", "-1"), ("--ttc-speed-bin-width", "0"),
     ("--min-bin-count", "0"), ("--v-bin-width", "1e-4"), ("--ttc-speed-bin-width", "1e-6")],
)
def test_fit_rejects_bad_bin_settings(tmp_path, capsys, flag, value):
    data = tmp_path / "events.csv"
    _write_csv(data, _synthetic_rows(50, seed=41))
    out = tmp_path / "m.yaml"
    assert main(["fit", str(data), "--out", str(out), flag, value]) == 1
    assert f"error: {flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
    assert not out.exists()


def test_report_rerenders_stored_results(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    first = tmp_path / "first"
    assert main(["run", "--config", cfg, "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert main(["report", str(first), "--out", str(second)]) == 0
    capsys.readouterr()
    for name in ("summary.txt", "report.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes()

    assert main(["report", str(tmp_path / "void"), "--out", str(tmp_path / "third")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content, missing", [
    ({"rows": 5}, "provenance"),
    ([1, 2], "provenance"),
], ids=["mapping-without-report-keys", "list"])
def test_report_rejects_a_file_that_is_not_a_run_report(tmp_path, capsys, content, missing):
    src = tmp_path / "src"
    src.mkdir()
    (src / "report.json").write_text(json.dumps(content), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(src / "report.json") in err
    assert f"no {missing!r} key" in err
    assert not out.exists()


# A valid stored search state.
_STATE = {"vartheta_r": 0.0, "vartheta_ttc": 0.0, "event_hits": 1, "n_per_iter": 2,
          "history": [[0, 0.0, 0.0, 1, 2]]}

# Every key of a stored row that the summary reads.
ROW_KEYS = [k for _, k, _ in SUMMARY_COLUMNS] + ["n_nature_source"]


def _without_row_key(key):
    def edit(text):
        d = json.loads(text)
        del d["rows"][0][key]
        return json.dumps(d)
    return edit


def _row_value(key, value):
    def edit(text):
        d = json.loads(text)
        d["rows"][0][key] = value
        return json.dumps(d)
    return edit


@pytest.mark.parametrize("change, where", [
    ({"resolved_config": {}}, "resolved_config has no 'confidence' key"),
    ({"convergence": 5}, "convergence is not a mapping"),
    ({"rows": [{"event": "conflict"}]}, "rows[0] has no 'bin' key"),
    ({"resolved_config": {"confidence": {"alpha": math.nan, "beta": 0.2}}}, "it holds NaN"),
    ({"resolved_config": {"confidence": {"alpha": 10**400, "beta": 0.2}}},
     "resolved_config.confidence.alpha is outside the float range"),
    # json reads 1e400 as infinity, which strict JSON cannot write back.
    (lambda text: re.sub(r'"r_acc": [^,\n]+', '"r_acc": 1e400', text, count=1),
     "it holds 1e400"),
    # Each part of a key names a file, so a NUL in one would fail mid-write.
    ({"convergence": {"conflict/a\u0000b/is": []}},
     r"convergence['conflict/a\x00b/is'] has a part that is not"),
    # Each key names one CSV; a second key naming it would overwrite the first's.
    ({"convergence": {"conflict/a_b/is": [[200, 0.5, 0.1, 0.25]], "conflict_a/b/is": []}},
     "convergence['conflict_a/b/is'] names convergence_conflict_a_b_is.csv, as another key does"),
    ({"ce": {"crash/a_b": _STATE, "crash_a/b": _STATE}},
     "ce['crash_a/b'] names ce_history_crash_a_b.csv, as another key does"),
    *((_without_row_key(k), f"rows[0] has no {k!r} key") for k in ROW_KEYS),
    ({"resolved_config": {"confidence": {"alpha": "0.2", "beta": 0.2}}},
     "resolved_config.confidence.alpha is not a number"),
    ({"rows": {}}, "rows is not a list"),
    (_row_value("event", 5), "rows[0].event is not a string"),
    ({"convergence": {"conflict/high/is": 5}}, "convergence['conflict/high/is'] is not a list"),
    ({"convergence": {"conflict/high/is": [5]}},
     "convergence['conflict/high/is'][0] is not a list"),
    ({"convergence": {"conflict/high/is": [[200, {}]]}},
     "convergence['conflict/high/is'][0][1] is not a number or a string"),
    # A bool is an int to Python, but a stored number never is a bool, and
    # converged is never anything else.
    (_row_value("n", True), "rows[0].n is not a number"),
    (_row_value("converged", 5), "rows[0].converged is not a bool"),
    ({"resolved_config": {"confidence": {"alpha": False, "beta": 0.2}}},
     "resolved_config.confidence.alpha is not a number"),
    ({"ce": {"conflict/high": {**_STATE, "vartheta_r": True}}},
     "ce['conflict/high'].vartheta_r is not a number"),
    ({"ce": {"conflict/high": {**_STATE, "event_hits": "1"}}},
     "ce['conflict/high'].event_hits is not a number"),
    ({"convergence": {"conflict/high/is": [[200, True, 0.1, 0.25]]}},
     "convergence['conflict/high/is'][0][1] is not a number or a string"),
    # Each table row has one cell per column of its CSV header.
    ({"ce": {"conflict/high": {**_STATE, "history": [[1, 0.5]]}}},
     "ce['conflict/high'].history[0] does not have 5 cells"),
    ({"convergence": {"conflict/high/is": [[100]]}},
     "convergence['conflict/high/is'][0] does not have 4 cells"),
], ids=["empty-resolved-config", "convergence-not-a-mapping", "row-without-keys", "nan",
        "int-past-float-range", "float-past-float-range", "nul-in-key",
        "two-convergence-keys-one-file", "two-ce-keys-one-file",
        *(f"row-without-{k}" for k in ROW_KEYS),
        "alpha-a-string", "rows-not-a-list", "row-text-not-a-string", "table-not-a-list",
        "table-row-not-a-list", "table-cell-a-mapping", "row-n-a-bool",
        "row-converged-a-number", "alpha-a-bool", "ce-tilt-a-bool", "ce-hits-a-string",
        "table-cell-a-bool",
        "ragged-history-row", "ragged-convergence-row"])
def test_report_checks_values_before_writing(tmp_path, capsys, change, where):
    """``change`` is merged into the stored report, or edits its text when callable."""
    stored = tmp_path / "stored"
    assert main(["run", "--config", _fast_config(tmp_path), "--out", str(stored)]) == 0
    path = stored / "report.json"
    text = path.read_text(encoding="utf-8")
    text = change(text) if callable(change) else json.dumps({**json.loads(text), **change})
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert main(["report", str(stored), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and where in err
    assert list(out.iterdir()) == []


def test_report_rerenders_a_run_that_drew_no_event(tmp_path, capsys):
    # 200 draws of crash/high see no crash: the row's relative half-width is
    # null, run exits 2, and report gives the same bytes back.
    default = str(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", "--config", default, "--event", "crash", "--bin", "high",
                 "--mode", "cmc", "--n-cap", "200", "--out", str(first)]) == 2
    (row,) = json.loads((first / "report.json").read_text(encoding="utf-8"))["rows"]
    assert row["rel_half_width"] is None and row["n"] == 200
    assert main(["report", str(first), "--out", str(second)]) == 0
    capsys.readouterr()
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    for name in files:
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_report_quotes_a_string_cell_that_needs_it(tmp_path, capsys):
    # A stored table may hold strings; one with a comma stays one CSV field.
    stored = tmp_path / "stored"
    assert main(["run", "--config", _fast_config(tmp_path), "--out", str(stored)]) == 0
    path = stored / "report.json"
    d = json.loads(path.read_text(encoding="utf-8"))
    d["ce"] = {"conflict/high": {**_STATE, "history": [[0, "a,b", 'say "hi"', 1, 2]]}}
    path.write_text(json.dumps(d), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", str(stored), "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "ce_history_conflict_high.csv", encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [["iteration", "vartheta_r", "vartheta_ttc", "hits", "n"],
                                        ["0", "a,b", 'say "hi"', "1", "2"]]


@pytest.mark.parametrize("command", ["run", "search"])
def test_report_rerenders_every_searched_tilt(tmp_path, capsys, command):
    # Bins given out of sorted order: every summary lists the tilts sorted.
    cfg = _config_file(tmp_path, {
        "seed": 8, "bins": ["low", "high"], "n_cap": 400,
        "stopping": {"check_every": 200, "min_samples": 200},
        "cross_entropy": {"iterations": 1, "n_per_iter": {"conflict": 50}},
    })
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([command, "--config", cfg, "--out", str(first)]) in (0, 2)
    assert main(["report", str(first), "--out", str(second)]) == 0
    capsys.readouterr()
    files = sorted(p.relative_to(first) for p in first.rglob("*"))
    assert files == sorted(p.relative_to(second) for p in second.rglob("*"))
    for name in files:
        assert (second / name).read_bytes() == (first / name).read_bytes()
    text = (first / "summary.txt").read_text(encoding="utf-8")
    assert text.index("conflict/high ") < text.index("conflict/low ")


def test_overflowing_injury_logistic_still_writes_a_report(tmp_path, capsys):
    # With b1 = -200 the negated logit of a crash above ~3.5 m/s overflows exp.
    cfg = _config_file(tmp_path, {
        "seed": 31, "events": ["injury"], "bins": ["low"], "modes": ["cmc"], "n_cap": 200,
        "stopping": {"check_every": 100, "min_samples": 100}, "injury": {"b1": -200.0},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) in (0, 2)
    capsys.readouterr()
    (row,) = json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"]
    assert row["event"] == "injury" and row["n"] == 200 and row["estimate"] == 0.0


def test_traces_are_the_drawn_scenarios(tmp_path, capsys):
    data = {
        "seed": 23,
        "events": ["conflict"],
        "bins": ["high"],
        "modes": ["cmc", "is"],
        "n_cap": 1000,
        "stopping": {"check_every": 500, "min_samples": 500},
        "warm_start": WARM_HIGH,
    }
    out = tmp_path / "out"
    assert main(["run", "--config", _config_file(tmp_path, data), "--out", str(out),
                 "--verbose-traces"]) in (0, 2)
    capsys.readouterr()
    cfg = parse_config(data)
    b = cfg.model.bin_named("high")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    counts = {}
    for row in report["rows"]:
        key = "conflict_high_" + row["mode"]
        with open(out / f"scenarios_{key}.csv", encoding="utf-8", newline="") as fh:
            picked = [r for r in csv.DictReader(fh) if r["outcome"] != "none"][:20]
        trace_dir = out / "traces" / key
        files = sorted(p.name for p in trace_dir.iterdir()) if trace_dir.exists() else []
        assert files == [f"{int(r['index']):06d}.csv" for r in picked]
        counts[row["mode"]] = len(files)

        params = None
        if row["vartheta_r"] is not None:
            params = ProposalParams(row["vartheta_r"], row["vartheta_ttc"])
        ns = stream_namespace(f"estimate/conflict/high/{row['mode']}")
        for r in picked:
            i = int(r["index"])
            s = cfg.model.sample_scenario(b, scenario_stream(cfg.seed, i, ns), params)
            drawn = (repr(s.v_l), repr(s.r_inv), repr(s.ttc_inv))
            assert drawn == (r["v_l"], r["r_inv"], r["ttc_inv"])
            states = simulate(s, cfg.plant, record=True).states
            with open(trace_dir / f"{i:06d}.csv", encoding="utf-8", newline="") as fh:
                lines = list(csv.reader(fh))
            assert lines[0] == ["t", "r", "v", "a_cmd", "a", "mode"]
            assert lines[1:] == [
                [repr(st.t), repr(st.r), repr(st.v), repr(st.a_cmd), repr(st.a), st.mode]
                for st in states
            ]
    # Both modes trace something, and the cap on trace files is reached.
    assert counts["cmc"] >= 1 and counts["is"] == 20


def test_verbose_traces_only_add_files(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    code = main(["run", "--config", cfg, "--out", str(plain)])
    assert main(["run", "--config", cfg, "--out", str(traced), "--verbose-traces"]) == code
    capsys.readouterr()

    def tree(root):
        # Directories map to None, files to their bytes.
        return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
                for p in root.rglob("*")}

    a, b = tree(plain), tree(traced)
    assert {k: b.get(k) for k in a} == a
    added = sorted(b.keys() - a.keys())
    assert "scenarios_conflict_high_is.csv" in added and "traces/conflict_high_is" in added
    for k in added:
        assert re.fullmatch(r"scenarios_\w+\.csv|traces(/\w+(/\d{6}\.csv)?)?", k), k


def test_empty_list_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("seed: 1\nevents:\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: events: expected a list")


def test_a_bin_name_that_cannot_name_a_file_fails_before_anything_runs(tmp_path, capsys):
    # The name would reach the file system only after every row was computed.
    bins = [{"name": "low", "lo": 5.0, "hi": 15.0}, {"name": "x" * 300, "lo": 15.0, "hi": 40.0}]
    cfg = _config_file(tmp_path, {"seed": 1, "modes": ["cmc"], "n_cap": 200,
                                  "model": {"velocity_bins": bins}})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: model.velocity_bins[1]: bin name")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--verbose-traces"], ["--mode", "is"], ["--n-cap", "5"]])
def test_search_rejects_estimation_flags(tmp_path, capsys, flags):
    cfg = _fast_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["search", "--config", cfg, "--out", str(tmp_path / "out"), *flags])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_search_takes_selection_flags(tmp_path, capsys):
    cfg = _config_file(
        tmp_path,
        {"seed": 8, "cross_entropy": {"iterations": 1, "n_per_iter": {"conflict": 50}}},
    )
    out = tmp_path / "out"
    assert main(["search", "--config", cfg, "--out", str(out), "--bin", "low",
                 "--event", "conflict", "--workers", "2"]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert list(report["ce"]) == ["conflict/low"]
    assert report["rows"] == [] and report["convergence"] == {}


def test_reports_are_strict_json_with_an_unbounded_range_law(tmp_path, capsys):
    cfg = _fast_config(
        tmp_path, model={"inverse_range": {"hi": float("inf")}},
        warm_start={"conflict": {"high": {"vartheta_r": 0.0, "vartheta_ttc": 0.0}}},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) in (0, 2)
    capsys.readouterr()

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    text = (out / "report.json").read_text(encoding="utf-8")
    report = json.loads(text, parse_constant=reject)
    assert report["resolved_config"]["model"]["inverse_range"]["hi"] is None


def test_fit_flags_default_to_the_fit_defaults(tmp_path, capsys):
    from accel_eval.ingest import build_model_section, load_events_csv

    data = tmp_path / "events.csv"
    _write_csv(data, _synthetic_rows(300, seed=41))
    out = tmp_path / "m.yaml"
    assert main(["fit", str(data), "--out", str(out)]) == 0
    capsys.readouterr()
    section, _ = build_model_section(load_events_csv(str(data)))
    assert out.read_text(encoding="utf-8") == yaml.safe_dump({"model": section}, sort_keys=False)


def _fresh_python(code, **env):
    """Run ``code`` in a new interpreter on this checkout's sources; its last line, as JSON."""
    base = dict(os.environ)
    base["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_package_root_loads_nothing_heavy():
    code = (
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import accel_eval\n"
        "state = ['numpy' in sys.modules, dict(os.environ) == before,\n"
        "         sorted(m for m in sys.modules if m.startswith('accel_eval'))]\n"
        "from accel_eval import load_config\n"
        "from accel_eval.config import load_config as direct\n"
        "try:\n"
        "    accel_eval.no_such_name\n"
        "    missing = None\n"
        "except AttributeError as e:\n"
        "    missing = str(e)\n"
        "print(json.dumps(state + [load_config is direct, missing]))"
    )
    numpy_loaded, env_kept, loaded, same, missing = _fresh_python(code)
    assert not numpy_loaded and env_kept
    assert loaded == ["accel_eval"]
    assert same
    assert missing == "module 'accel_eval' has no attribute 'no_such_name'"
