"""Config schema: defaults, validation paths, hashing, YAML loading."""

import pytest

from accel_eval.config import (
    ConfigError,
    config_digest,
    default_config_dict,
    load_config,
    parse_config,
)
from accel_eval.estimation import ConfidenceSpec
from accel_eval.plant import AvConfig
from accel_eval.scenario import ProposalParams

# Least-squares exponential mean of the default inverse-range law; also
# frozen in test_distributions.py.
DEFAULT_SURROGATE_MEAN = 0.020602124882673677


def test_minimal_config_fills_defaults():
    cfg = parse_config({"seed": 7})
    assert cfg.seed == 7
    assert cfg.events == ("conflict",)
    assert cfg.modes == ("is",)
    assert cfg.bins == ("low", "medium", "high")
    assert cfg.n_cap == 200000
    assert cfg.plant == AvConfig()
    assert cfg.confidence == ConfidenceSpec(0.2, 0.2)
    assert cfg.injury.delta_v_unit == "m/s"
    assert cfg.r_lc == 7.64
    assert cfg.ce_iterations == 10
    assert cfg.ce_n_per_iter == {"conflict": 100, "crash": 500}
    assert cfg.check_every == 50 and cfg.min_samples == 100
    assert cfg.warm_start == {}
    # The surrogate mean is resolved into the hashed settings.
    assert cfg.resolved["model"]["exp_approx_mean"] == DEFAULT_SURROGATE_MEAN
    assert cfg.resolved["seed"] == 7


def test_seed_is_required_and_validated():
    with pytest.raises(ConfigError, match="seed: required"):
        parse_config({})
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"seed": -1})
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"seed": 1 << 64})
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"seed": True})
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"seed": 3.5})
    parse_config({"seed": (1 << 64) - 1})  # top of the range is legal


def test_unknown_keys_report_their_full_path():
    with pytest.raises(ConfigError, match="plnt: unknown key"):
        parse_config({"seed": 1, "plnt": {}})
    with pytest.raises(ConfigError, match=r"plant\.bogus: unknown key"):
        parse_config({"seed": 1, "plant": {"bogus": 1.0}})
    with pytest.raises(ConfigError, match=r"model\.inverse_range\.kk"):
        parse_config({"seed": 1, "model": {"inverse_range": {"kk": 0.5}}})
    # The surrogate mean is computed and the headway error's sign is fixed:
    # neither is an input.
    with pytest.raises(ConfigError, match=r"model\.exp_approx_mean: unknown key"):
        parse_config({"seed": 1, "model": {"exp_approx_mean": DEFAULT_SURROGATE_MEAN}})
    with pytest.raises(ConfigError, match=r"plant\.error_sign: unknown key"):
        parse_config({"seed": 1, "plant": {"error_sign": -1.0}})
    for b in ({"name": "a", "lo": 2.0}, {"name": "a", "lo": 2.0, "hi": 40.0, "x": 1}):
        with pytest.raises(ConfigError, match=r"^model\.velocity_bins\[0\]: expected the keys"):
            parse_config({"seed": 1, "model": {"velocity_bins": [b]}})


def test_events_and_modes_validation():
    cfg = parse_config({"seed": 1, "events": ["conflict", "crash", "injury"]})
    assert cfg.events == ("conflict", "crash", "injury")
    with pytest.raises(ConfigError, match="events"):
        parse_config({"seed": 1, "events": ["collision"]})
    with pytest.raises(ConfigError, match="events"):
        parse_config({"seed": 1, "events": ["conflict", "conflict"]})
    with pytest.raises(ConfigError, match="events"):
        parse_config({"seed": 1, "events": []})
    cfg = parse_config({"seed": 1, "modes": ["cmc", "is"]})
    assert cfg.modes == ("cmc", "is")
    with pytest.raises(ConfigError, match="modes"):
        parse_config({"seed": 1, "modes": ["mc"]})
    with pytest.raises(ConfigError, match="modes"):
        parse_config({"seed": 1, "modes": []})


def test_bins_expansion_and_validation():
    cfg = parse_config({"seed": 1, "bins": ["high", "low"]})
    assert cfg.bins == ("high", "low")  # caller order preserved
    with pytest.raises(ConfigError, match="bins"):
        parse_config({"seed": 1, "bins": ["urban"]})
    with pytest.raises(ConfigError, match="bins"):
        parse_config({"seed": 1, "bins": ["low", "low"]})
    with pytest.raises(ConfigError, match="bins"):
        parse_config({"seed": 1, "bins": []})
    # A bin past the top of the velocity support carries no mass.
    bins = [
        {"name": "low", "lo": 5.0, "hi": 15.0},
        {"name": "mid", "lo": 15.0, "hi": 40.0},
        {"name": "top", "lo": 40.0, "hi": 45.0},
    ]
    with pytest.raises(ConfigError, match="no probability mass"):
        parse_config({"seed": 1, "model": {"velocity_bins": bins}, "bins": ["top"]})


@pytest.mark.parametrize("name", ["", "a/b", "a\0b", "x" * 65, "all"],
                         ids=["empty", "slash", "nul", "65-chars", "all"])
def test_bin_names_must_be_able_to_name_output_files(name):
    bins = default_config_dict()["model"]["velocity_bins"]
    bins[1]["name"] = name
    with pytest.raises(ConfigError, match=r"^model\.velocity_bins\[1\]: bin name"):
        parse_config({"seed": 1, "model": {"velocity_bins": bins}})
    bins[1]["name"] = "Mid_2.5-" + "x" * 56
    assert parse_config({"seed": 1, "model": {"velocity_bins": bins}}).bins[1] == bins[1]["name"]


def test_warm_start_round_trip_and_defaults():
    data = {
        "seed": 1,
        "warm_start": {
            "conflict": {"high": {"vartheta_r": -0.1, "vartheta_ttc": -0.01}},
            "crash": {"low": {"vartheta_ttc": -0.5}},
        },
    }
    cfg = parse_config(data)
    assert cfg.warm_start["conflict"]["high"] == ProposalParams(-0.1, -0.01)
    # Omitted tilt defaults to zero.
    assert cfg.warm_start["crash"]["low"] == ProposalParams(0.0, -0.5)


def test_warm_start_violations_name_the_path():
    # A positive tilt at or above the bin's smallest inverse-TTC mean
    # would push a proposal mean to zero or below.
    with pytest.raises(ConfigError, match=r"warm_start\.conflict\.high"):
        parse_config(
            {"seed": 1, "warm_start": {"conflict": {"high": {"vartheta_ttc": 0.05}}}}
        )
    with pytest.raises(ConfigError, match=r"warm_start\.wreck"):
        parse_config({"seed": 1, "warm_start": {"wreck": {}}})
    with pytest.raises(ConfigError, match=r"warm_start\.crash\.urban"):
        parse_config({"seed": 1, "warm_start": {"crash": {"urban": {}}}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"seed": 1, "warm_start": {"crash": {"low": {"theta": 1.0}}}})
    with pytest.raises(ConfigError, match=r"^warm_start\.crash\.low\.1: unknown key"):
        parse_config({"seed": 1, "warm_start": {"crash": {"low": {1: 2, "theta": 1.0}}}})


def test_count_bounds():
    with pytest.raises(ConfigError, match="n_cap"):
        parse_config({"seed": 1, "n_cap": 50})  # below min_samples
    with pytest.raises(ConfigError, match="check_every"):
        parse_config({"seed": 1, "stopping": {"check_every": 0}})
    with pytest.raises(ConfigError, match="min_samples"):
        parse_config({"seed": 1, "stopping": {"min_samples": 1}})
    with pytest.raises(ConfigError, match="workers"):
        parse_config({"seed": 1, "workers": 0})
    with pytest.raises(ConfigError, match="iterations"):
        parse_config({"seed": 1, "cross_entropy": {"iterations": 0}})
    with pytest.raises(ConfigError, match=r"n_per_iter\.crash"):
        parse_config({"seed": 1, "cross_entropy": {"n_per_iter": {"crash": 0}}})
    with pytest.raises(ConfigError, match="n_per_iter"):
        parse_config({"seed": 1, "cross_entropy": {"n_per_iter": {"injury": 5}}})
    # Partial n_per_iter keeps the other default.
    cfg = parse_config({"seed": 1, "cross_entropy": {"n_per_iter": {"crash": 50}}})
    assert cfg.ce_n_per_iter == {"conflict": 100, "crash": 50}


def test_sample_counts_fit_the_stream_index_range():
    # scenario_stream indexes draws with 32 bits.
    cfg = parse_config({"seed": 1, "n_cap": 1 << 32})
    assert cfg.n_cap == 1 << 32
    with pytest.raises(ConfigError, match=r"^n_cap: must be <= 2\^32"):
        parse_config({"seed": 1, "n_cap": 4294967301})
    cfg = parse_config(
        {"seed": 1, "cross_entropy": {"iterations": 1 << 16, "n_per_iter": {"crash": 1 << 16}}}
    )
    assert cfg.ce_n_per_iter["crash"] == 1 << 16
    with pytest.raises(ConfigError, match=r"^cross_entropy\.n_per_iter\.crash: iterations"):
        parse_config(
            {"seed": 1,
             "cross_entropy": {"iterations": 1 << 16, "n_per_iter": {"crash": (1 << 16) + 1}}}
        )
    with pytest.raises(ConfigError, match=r"^cross_entropy\.n_per_iter\.conflict: iterations"):
        parse_config(
            {"seed": 1, "cross_entropy": {"iterations": 2, "n_per_iter": {"conflict": 1 << 31 | 1}}}
        )


def test_workers_excluded_from_resolved_settings():
    a = parse_config({"seed": 1, "workers": 1})
    b = parse_config({"seed": 1, "workers": 8})
    assert "workers" not in a.resolved
    assert a.resolved == b.resolved
    assert config_digest(a.resolved) == config_digest(b.resolved)


def test_component_errors_carry_section_prefix():
    with pytest.raises(ConfigError, match="plant"):
        parse_config({"seed": 1, "plant": {"ts": -0.1}})
    with pytest.raises(ConfigError, match="confidence"):
        parse_config({"seed": 1, "confidence": {"alpha": 1.5}})
    with pytest.raises(ConfigError, match="injury"):
        parse_config({"seed": 1, "injury": {"delta_v_unit": "mph"}})
    with pytest.raises(ConfigError, match="r_lc"):
        parse_config({"seed": 1, "r_lc": 0.0})
    with pytest.raises(ConfigError, match="inverse_range"):
        parse_config({"seed": 1, "model": {"inverse_range": {"sigma": -1.0}}})


def test_load_config_yaml_and_overrides(tmp_path):
    p = tmp_path / "exp.yaml"
    p.write_text("events: [conflict, crash]\nplant:\n  ts: 0.05\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="seed"):
        load_config(str(p))
    cfg = load_config(str(p), overrides={"seed": 99, "n_cap": None})
    assert cfg.seed == 99
    assert cfg.events == ("conflict", "crash")
    assert cfg.plant.ts == 0.05
    assert cfg.n_cap == 200000  # None overrides are skipped

    bad = tmp_path / "bad.yaml"
    bad.write_text("events: [unterminated\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(str(bad))

    seq = tmp_path / "seq.yaml"
    seq.write_text("- 1\n- 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="expected a mapping"):
        load_config(str(seq))

    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError, match="seed"):
        load_config(str(empty))


def test_config_digest_is_order_insensitive_and_value_sensitive():
    a = parse_config({"seed": 5, "n_cap": 1000, "events": ["crash"]})
    b = parse_config({"events": ["crash"], "n_cap": 1000, "seed": 5})
    assert config_digest(a.resolved) == config_digest(b.resolved)
    assert len(config_digest(a.resolved)) == 64
    c = parse_config({"seed": 5, "n_cap": 1001, "events": ["crash"]})
    assert config_digest(c.resolved) != config_digest(a.resolved)
    d = parse_config({"seed": 6, "n_cap": 1000, "events": ["crash"]})
    assert config_digest(d.resolved) != config_digest(a.resolved)


def test_default_dict_is_a_fresh_copy():
    d1 = default_config_dict()
    d1["plant"]["ts"] = 123.0
    assert default_config_dict()["plant"]["ts"] == 0.1


@pytest.mark.parametrize(
    "data, path",
    [
        ({"events": None}, "events"),
        ({"events": "conflict"}, "events"),
        ({"events": ["conflict", 5]}, "events"),
        ({"modes": "is"}, "modes"),
        ({"modes": [["is"]]}, "modes"),
        ({"bins": 5}, "bins"),
        ({"bins": "all"}, "bins"),
        ({"bins": [["low"]]}, "bins"),
        ({"model": {"velocity_bins": None}}, r"model\.velocity_bins"),
        ({"model": {"velocity": {"bin_edges": {"a": 1}}}}, r"model\.velocity\.bin_edges"),
        ({"model": {"velocity": {"bin_mass": None}}}, r"model\.velocity\.bin_mass"),
        ({"model": {"velocity": {"bin_mass": [[0.5], [0.5]]}}}, r"model\.velocity\.bin_mass"),
        ({"model": {"ttc_lambda": {"table": [[5.0, 0.1, 0.2]]}}}, r"model\.ttc_lambda\.table"),
        ({"plant": {"ttc_aeb_schedule": [5.0, 1.3]}}, r"plant\.ttc_aeb_schedule"),
    ],
)
def test_list_keys_reject_non_lists_by_name(data, path):
    # Each bad value is a ConfigError on its own key, never a TypeError.
    with pytest.raises(ConfigError, match=f"^{path}: expected a (list|number)"):
        parse_config({"seed": 1, **data})


def test_name_lists_accept_tuples_and_expand_all():
    cfg = parse_config({"seed": 1, "events": ("crash",), "bins": ("all",)})
    assert cfg.events == ("crash",)
    assert cfg.bins == ("low", "medium", "high")
    with pytest.raises(ConfigError, match=r"^bins: expected a list of 'all' or distinct"):
        parse_config({"seed": 1, "bins": ["all", "low"]})


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "data, path",
    [
        ({"r_lc": INF}, "r_lc"),
        ({"r_lc": 10**400}, "r_lc"),
        ({"plant": {"ts": INF}}, r"plant\.ts"),
        ({"injury": {"b1": NAN}}, r"injury\.b1"),
        ({"confidence": {"beta": NAN}}, r"confidence\.beta"),
        ({"model": {"inverse_range": {"k": NAN}}}, r"model\.inverse_range\.k"),
        ({"model": {"inverse_range": {"hi": NAN}}}, r"model\.inverse_range\.hi"),
        ({"model": {"inverse_range": {"hi": -INF}}}, r"model\.inverse_range\.hi"),
        ({"model": {"inverse_range": {"hi": -(10**400)}}}, r"model\.inverse_range\.hi"),
        ({"plant": {"t_lc_max": INF}}, r"plant\.t_lc_max"),
        ({"model": {"ttc_lambda": {"floor": INF}}}, r"model\.ttc_lambda\.floor"),
        ({"model": {"ttc_lambda": {"table": [[5.0, NAN]]}}}, r"model\.ttc_lambda\.table"),
        ({"model": {"velocity": {"bin_edges": [2.0, INF]}}}, r"model\.velocity\.bin_edges"),
        # The error names the bin's field; the case keeps its id from when it
        # named only the bin.
        pytest.param({"model": {"velocity_bins": [{"name": "all", "lo": 2.0, "hi": INF}]}},
                     r"model\.velocity_bins\[0\]\.hi", id=r"data13-model\.velocity_bins\[0\]"),
        ({"warm_start": {"conflict": {"low": {"vartheta_r": -INF}}}},
         r"warm_start\.conflict\.low\.vartheta_r"),
    ],
)
def test_non_finite_numbers_are_rejected_by_name(data, path):
    with pytest.raises(ConfigError, match=f"^{path}: expected a finite number"):
        parse_config({"seed": 1, **data})


def test_inverse_range_may_be_unbounded_above():
    # TruncatedPareto supports hi = inf; the resolved settings record it
    # as null, since strict JSON has no infinity.
    cfg = parse_config({"seed": 1, "model": {"inverse_range": {"hi": INF}}})
    assert cfg.model.r_inv_dist.hi == INF
    assert cfg.resolved["model"]["inverse_range"]["hi"] is None
    assert config_digest(cfg.resolved) != config_digest(parse_config({"seed": 1}).resolved)


def test_default_envelope_is_written_once():
    from accel_eval import config, ingest
    from accel_eval.config import R_RANGE, V_RANGE, speed_edges

    assert ingest.V_RANGE is V_RANGE and ingest.R_RANGE is R_RANGE
    assert ingest.speed_edges is config.speed_edges
    model = default_config_dict()["model"]
    edges = model["velocity"]["bin_edges"]
    assert (edges[0], edges[-1]) == V_RANGE
    assert edges == speed_edges(2.0)
    inv = model["inverse_range"]
    assert (inv["lo"], inv["hi"]) == (1.0 / R_RANGE[1], 1.0 / R_RANGE[0])
