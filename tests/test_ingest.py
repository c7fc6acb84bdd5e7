"""Naturalistic-event ingestion: CSV loading, envelope filters, model fits."""

import numpy as np
import pytest

from accel_eval.config import parse_config
from accel_eval.distributions import TruncatedPareto
from accel_eval.ingest import (
    apply_filters,
    build_model_section,
    load_events_csv,
    render_fit_summary,
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


def _lam(v):
    # Linear interpolation over TTC_TABLE with flat extrapolation; only
    # evaluated inside the table in these tests.
    vs, ls = zip(*TTC_TABLE)
    return float(np.interp(v, vs, ls))


def _write_csv(path, rows):
    lines = ["v,v_l,r_l,r_l_dot"]
    lines += [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _synthetic_rows(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(3.0, 39.0, n)
    v_l = rng.uniform(2.5, 39.5, n)
    pareto = TruncatedPareto(0.02, 0.0205, 1 / 75, 1 / 75, 10.0)
    r_l = 1.0 / np.array([pareto.ppf(u) for u in rng.random(n)])
    ttc_inv = np.array([rng.exponential(_lam(x)) for x in v_l])
    r_l_dot = -ttc_inv * r_l
    return np.column_stack([v, v_l, r_l, r_l_dot])


def test_load_events_csv_round_trip(tmp_path):
    p = tmp_path / "events.csv"
    _write_csv(p, [[10.0, 12.0, 30.0, -1.5], [8.0, 7.5, 12.0, -0.25]])
    data = load_events_csv(str(p))
    assert np.array_equal(data["v"], [10.0, 8.0])
    assert np.array_equal(data["v_l"], [12.0, 7.5])
    assert np.array_equal(data["r_l"], [30.0, 12.0])
    assert np.array_equal(data["r_l_dot"], [-1.5, -0.25])


def test_load_events_csv_accepts_a_byte_order_mark(tmp_path):
    # A spreadsheet's "CSV UTF-8" export starts with U+FEFF, which must
    # not become part of the first column's name.
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    _write_csv(plain, [[10.0, 12.0, 30.0, -1.5], [8.0, 7.5, 12.0, -0.25]])
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = load_events_csv(str(plain)), load_events_csv(str(bom))
    assert list(b) == list(a)
    assert all(np.array_equal(a[c], b[c]) for c in a)


def test_load_events_csv_requires_columns(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text("v,v_l,r_l\n10,12,30\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header must contain"):
        load_events_csv(str(p))


def test_load_events_csv_names_bad_row(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text(
        "v,v_l,r_l,r_l_dot\n10,12,30,-1.5\n10,12,oops,-1.5\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match=r":3: bad value for 'r_l'"):
        load_events_csv(str(p))


def test_apply_filters_counts_each_rule():
    data = {
        # row:        0     1     2      3     4
        "v": np.array([10.0, 1.0, 10.0, 10.0, 45.0]),
        "v_l": np.array([12.0, 12.0, 41.0, 12.0, 1.5]),
        "r_l": np.array([30.0, 30.0, 30.0, 80.0, 30.0]),
        "r_l_dot": np.array([-1.0, -1.0, -1.0, -1.0, 0.5]),
    }
    mask, dropped = apply_filters(data)
    assert list(mask) == [True, False, False, False, False]
    assert dropped == {
        "v_out_of_range": 2,
        "v_l_out_of_range": 2,  # row 4 violates several rules at once
        "r_l_out_of_range": 1,
        "not_closing": 1,
        "not_finite": 0,
    }


def test_synthetic_round_trip_recovers_model(tmp_path):
    p = tmp_path / "events.csv"
    _write_csv(p, _synthetic_rows(4000, seed=17))
    section, summary = build_model_section(load_events_csv(str(p)))

    assert summary.n_total == 4000
    assert summary.n_kept > 3900  # envelope filters only clip the edges
    inv = section["inverse_range"]
    assert inv["theta"] == 1.0 / 75.0
    assert inv["lo"] == 1.0 / 75.0 and inv["hi"] == 10.0
    assert abs(inv["k"] - 0.02) < 0.05
    assert inv["sigma"] == pytest.approx(0.0205, rel=0.2)
    # Per-interval inverse-TTC means sit near the generating law.
    for v_mid, lam in section["ttc_lambda"]["table"]:
        assert lam == pytest.approx(_lam(v_mid), rel=0.2)
    assert sum(section["velocity"]["bin_mass"]) == pytest.approx(1.0, abs=1e-12)

    # The fitted section is a valid config `model` section as-is.
    cfg = parse_config({"seed": 3, "model": section})
    assert cfg.model.r_inv_dist.k == inv["k"]
    assert cfg.model.lambda_ttc(1000.0) == 0.01  # extrapolation hits the floor


def test_fit_depends_only_on_the_set_of_records():
    # The fit sorts the excesses before its means, and the inverse-TTC table
    # sums each interval exactly, so shuffling the rows changes no bit.
    rows = _synthetic_rows(1500, seed=41)
    shuffled = np.random.default_rng(5).permutation(rows)
    sections = [
        build_model_section({c: r[:, i] for i, c in enumerate(("v", "v_l", "r_l", "r_l_dot"))})[0]
        for r in (rows, shuffled)
    ]
    assert sections[0] == sections[1]


def test_histogram_and_ttc_intervals_share_their_edges():
    # Adding 3.8 m/s up from 2 does not land on 40 but leaves a sliver just
    # below it, which a lead at the largest float under 40 fills; every
    # inverse-TTC speed must still be the midpoint of a histogram interval.
    top = [[10.0, np.nextafter(40.0, 0.0), 30.0, -1.0]]
    rows = np.vstack([_synthetic_rows(300, seed=8), top])
    data = {c: rows[:, i] for i, c in enumerate(("v", "v_l", "r_l", "r_l_dot"))}
    section, _ = build_model_section(data, v_bin_width=3.8, ttc_speed_bin_width=3.8,
                                     min_bin_count=1)
    edges = section["velocity"]["bin_edges"]
    assert len(edges) == 11 and edges[0] == 2.0 and edges[-1] == 40.0
    speeds = [v for v, _ in section["ttc_lambda"]["table"]]
    assert speeds == [(a + b) / 2.0 for a, b in zip(edges, edges[1:])]


def test_sparse_speed_intervals_are_dropped(tmp_path):
    # All leads near 10 m/s except a lone 30 m/s record: the interval
    # around 30 is short of min_bin_count and must vanish from the table.
    rows = [[10.0, 10.0 + 0.1 * i, 30.0, -1.0] for i in range(12)]
    rows.append([10.0, 30.0, 30.0, -1.0])
    p = tmp_path / "events.csv"
    _write_csv(p, rows)
    section, summary = build_model_section(load_events_csv(str(p)))
    centers = [v for v, _ in section["ttc_lambda"]["table"]]
    assert centers == [9.5]  # the (7, 12] interval midpoint
    assert summary.n_kept == 13

    with pytest.raises(ValueError, match="table would be empty"):
        build_model_section(load_events_csv(str(p)), min_bin_count=50)


def test_too_few_survivors_is_an_error(tmp_path):
    p = tmp_path / "events.csv"
    _write_csv(p, [[10.0, 12.0, 30.0, -1.0]] * 5)
    with pytest.raises(ValueError, match="need >= 10"):
        build_model_section(load_events_csv(str(p)))


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"v_bin_width": 0.0}, "v_bin_width must be > 0"),
        ({"v_bin_width": -2.0}, "v_bin_width must be > 0"),
        ({"ttc_speed_bin_width": 0.0}, "ttc_speed_bin_width must be > 0"),
        ({"ttc_speed_bin_width": -5.0}, "ttc_speed_bin_width must be > 0"),
        ({"min_bin_count": 0}, "min_bin_count must be >= 1"),
        ({"v_bin_width": 1e-4}, r"v_bin_width must be >= 0\.038, .* at most 1000 intervals"),
        ({"ttc_speed_bin_width": 1e-6}, r"ttc_speed_bin_width must be >= 0\.038, "),
    ],
)
def test_bin_settings_are_validated(kwargs, match):
    # A non-positive width has no edges to split V_RANGE by; a tiny width
    # would build one histogram bin or one masked pass per sliver.
    rows = _synthetic_rows(50, seed=3)
    data = {c: rows[:, i] for i, c in enumerate(("v", "v_l", "r_l", "r_l_dot"))}
    with pytest.raises(ValueError, match=match):
        build_model_section(data, **kwargs)


def test_render_fit_summary_reports_fits(tmp_path):
    p = tmp_path / "events.csv"
    _write_csv(p, _synthetic_rows(800, seed=23))
    _, summary = build_model_section(load_events_csv(str(p)))
    text = render_fit_summary(summary)
    assert f"{summary.n_total} total, {summary.n_kept} kept" in text
    assert "not_closing=" in text
    assert "generalized Pareto" in text
    assert "BIC" in text
    assert "mean by lead speed" in text
