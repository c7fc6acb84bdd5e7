"""Command-line interface: subcommands, exit codes, artifact layout."""

import json

import pytest
import yaml

from accel_eval.cli import main
from accel_eval.config import parse_config

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
        },
    )
    out = tmp_path / "out"
    # estimate skips the search, so the identity proposal sees no crashes.
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "not converged" in err
    assert (out / "report.json").exists()  # results are still written


def test_selection_and_seed_overrides(tmp_path):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["estimate", "--config", cfg, "--out", str(out), "--seed", "77",
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
    assert (out / "search.json").exists()
    assert (out / "ce_history_conflict_high.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_search_abort_exits_2(tmp_path, capsys):
    # Ranges pinned to 70-75 m cannot close within a 0.2 s horizon, so
    # the crash search never sees a hit and gives up.
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
            "cross_entropy": {"iterations": 5, "n_per_iter": {"crash": 20}},
        },
    )
    assert main(["search", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "aborted" in capsys.readouterr().err


def test_estimate_with_warm_start_runs_no_search(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
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
    assert main(["estimate", "--config", cfg, "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert main(["report", str(first), "--out", str(second)]) == 0
    capsys.readouterr()
    for name in ("summary.txt", "report.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes()

    assert main(["report", str(tmp_path / "void"), "--out", str(second)]) == 1
    assert "error:" in capsys.readouterr().err
