"""Fit the scenario model from naturalistic lane-change event records.

Input is a CSV with a header row and columns ``v`` (following-vehicle
speed, m/s), ``v_l`` (lead speed, m/s), ``r_l`` (range at cut-in, m) and
``r_l_dot`` (range rate at cut-in, m/s).  Records outside the studied
envelope are dropped: speeds must lie in (2, 40) m/s, range in
(0.1, 75) m, and only closing events (negative range rate) count.  A
record with a non-finite value in any column is dropped too: an
infinite range rate would otherwise count as closing and put an
infinity into the fitted table.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .config import R_RANGE, V_RANGE, default_config_dict
from .distributions import FitReport, fit_exponential_mle, fit_pareto

__all__ = [
    "IngestSummary",
    "load_events_csv",
    "apply_filters",
    "build_model_section",
    "render_fit_summary",
]

MAX_V_INTERVALS = 1000  # most intervals a speed bin width may split V_RANGE into

_COLUMNS = ("v", "v_l", "r_l", "r_l_dot")


@dataclass(frozen=True)
class IngestSummary:
    n_total: int
    n_kept: int
    dropped: dict[str, int]  # per-rule counts; a record may violate several
    pareto: FitReport
    exponential: FitReport
    ttc_table: list[tuple[float, float]]


def load_events_csv(path: str) -> dict[str, np.ndarray]:
    """Read the four event columns; raise ValueError with the offending row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in _COLUMNS):
            raise ValueError(f"{path}: header must contain columns {_COLUMNS}")
        cols: dict[str, list[float]] = {c: [] for c in _COLUMNS}
        for lineno, row in enumerate(reader, start=2):
            for c in _COLUMNS:
                try:
                    cols[c].append(float(row[c]))
                except (TypeError, ValueError) as e:
                    raise ValueError(f"{path}:{lineno}: bad value for {c!r}: {row[c]!r}") from e
    return {c: np.asarray(v, dtype=float) for c, v in cols.items()}


def apply_filters(data: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, int]]:
    """Envelope mask plus per-rule violation counts."""
    rules = {
        "v_out_of_range": (data["v"] > V_RANGE[0]) & (data["v"] < V_RANGE[1]),
        "v_l_out_of_range": (data["v_l"] > V_RANGE[0]) & (data["v_l"] < V_RANGE[1]),
        "r_l_out_of_range": (data["r_l"] > R_RANGE[0]) & (data["r_l"] < R_RANGE[1]),
        "not_closing": data["r_l_dot"] < 0.0,
        "not_finite": np.logical_and.reduce([np.isfinite(data[c]) for c in _COLUMNS]),
    }
    mask = np.ones(len(data["v"]), dtype=bool)
    dropped = {}
    for name, ok in rules.items():
        dropped[name] = int(np.sum(~ok))
        mask &= ok
    return mask, dropped


def build_model_section(
    data: dict[str, np.ndarray],
    v_bin_width: float = 2.0,
    ttc_speed_bin_width: float = 5.0,
    min_bin_count: int = 10,
) -> tuple[dict, IngestSummary]:
    """Fit every piece of the scenario model; returns (config section, summary)."""
    min_width = (V_RANGE[1] - V_RANGE[0]) / MAX_V_INTERVALS
    for name, width in (("v_bin_width", v_bin_width), ("ttc_speed_bin_width", ttc_speed_bin_width)):
        if not width > 0:
            raise ValueError(f"{name} must be > 0, got {width}")
        if width < min_width:
            raise ValueError(
                f"{name} must be >= {min_width:g}, so that V_RANGE {V_RANGE} splits into "
                f"at most {MAX_V_INTERVALS} intervals, got {width}"
            )
    if min_bin_count < 1:
        raise ValueError(f"min_bin_count must be >= 1, got {min_bin_count}")
    mask, dropped = apply_filters(data)
    v_l = data["v_l"][mask]
    r_l = data["r_l"][mask]
    r_l_dot = data["r_l_dot"][mask]
    n_kept = int(mask.sum())
    if n_kept < 10:
        raise ValueError(f"only {n_kept} records survive the envelope filters; need >= 10")

    # Lead-speed histogram over the envelope.
    edges = list(np.arange(V_RANGE[0], V_RANGE[1], v_bin_width))
    if edges[-1] < V_RANGE[1]:
        edges.append(V_RANGE[1])
    counts, _ = np.histogram(v_l, bins=edges)
    mass = counts / counts.sum()

    # Inverse range: heavy-tailed fit anchored at the envelope bound, so
    # the fitted law and its truncation share a support.
    r_inv_lo = 1.0 / R_RANGE[1]
    r_inv_hi = 1.0 / R_RANGE[0]
    r_inv = 1.0 / r_l
    pareto = fit_pareto(r_inv, theta=r_inv_lo)
    exponential = fit_exponential_mle(r_inv - r_inv_lo)

    # Inverse TTC means per lead-speed interval.
    ttc_inv = -r_l_dot / r_l
    table: list[tuple[float, float]] = []
    lo = V_RANGE[0]
    while lo < V_RANGE[1]:
        hi = min(lo + ttc_speed_bin_width, V_RANGE[1])
        sel = (v_l >= lo) & (v_l < hi)
        if int(sel.sum()) >= min_bin_count:
            table.append(((lo + hi) / 2.0, float(ttc_inv[sel].mean())))
        lo = hi
    if not table:
        raise ValueError(
            f"no lead-speed interval holds >= {min_bin_count} records; "
            "ttc_lambda table would be empty"
        )

    defaults = default_config_dict()["model"]
    section = {
        "velocity": {
            "bin_edges": [float(e) for e in edges],
            "bin_mass": [float(m) for m in mass],
        },
        "inverse_range": {
            "k": pareto.params["k"],
            "sigma": pareto.params["sigma"],
            "theta": pareto.params["theta"],
            "lo": r_inv_lo,
            "hi": r_inv_hi,
        },
        "ttc_lambda": {
            "table": [[float(v), float(lam)] for v, lam in table],
            "floor": defaults["ttc_lambda"]["floor"],
        },
        "velocity_bins": defaults["velocity_bins"],
    }
    summary = IngestSummary(
        n_total=len(mask),
        n_kept=n_kept,
        dropped=dropped,
        pareto=pareto,
        exponential=exponential,
        ttc_table=table,
    )
    return section, summary


def render_fit_summary(s: IngestSummary) -> str:
    lines = [
        f"records        {s.n_total} total, {s.n_kept} kept",
        "dropped        "
        + ", ".join(f"{name}={count}" for name, count in s.dropped.items()),
        f"inverse range  generalized Pareto k={s.pareto.params['k']:.6g} "
        f"sigma={s.pareto.params['sigma']:.6g} theta={s.pareto.params['theta']:.6g} "
        f"(loglik={s.pareto.loglik:.6g}, BIC={s.pareto.bic:.6g})",
        f"               exponential alternative BIC={s.exponential.bic:.6g} "
        + (
            "(Pareto preferred)"
            if s.pareto.bic < s.exponential.bic
            else "(exponential preferred; inspect the tail before trusting it)"
        ),
        "inverse TTC    mean by lead speed: "
        + ", ".join(f"{v:g} m/s -> {lam:.6g}" for v, lam in s.ttc_table),
    ]
    return "\n".join(lines) + "\n"
