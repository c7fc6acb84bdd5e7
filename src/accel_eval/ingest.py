"""Fit the scenario model from naturalistic lane-change event records.

Input is a CSV with a header row and columns ``v`` (following-vehicle
speed, m/s), ``v_l`` (lead speed, m/s), ``r_l`` (range at cut-in, m) and
``r_l_dot`` (range rate at cut-in, m/s).  Records outside the studied
envelope are dropped: speeds must lie in (2, 40) m/s, range in
(0.1, 75) m, and only closing events (negative range rate) count.  A
record with a non-finite value in any column is dropped too: an
infinite range rate would otherwise count as closing and put an
infinity into the fitted table.

The maximum-likelihood fits of the inverse-range law live here too:
``fit`` is the one subcommand that loads numpy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import R_RANGE, V_RANGE, default_config_dict
from .distributions import FitError, _newton_on_grid

__all__ = [
    "FitReport",
    "fit_exponential_mle",
    "fit_pareto",
    "IngestSummary",
    "load_events_csv",
    "apply_filters",
    "build_model_section",
    "render_fit_summary",
]

MAX_V_INTERVALS = 1000  # most intervals a speed bin width may split V_RANGE into

_COLUMNS = ("v", "v_l", "r_l", "r_l_dot")


@dataclass(frozen=True)
class FitReport:
    """Result of a maximum-likelihood fit.

    ``params`` holds everything needed to rebuild the law; ``n_params``
    counts only the parameters that were actually optimized, which is
    what enters the BIC.
    """

    params: dict[str, float]
    n_params: int
    loglik: float
    bic: float
    n: int


def fit_exponential_mle(samples) -> FitReport:
    """Fit an untruncated exponential by maximum likelihood (mean = sample mean)."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if np.any(x <= 0):
        raise ValueError("samples must be positive")
    lam = float(x.mean())
    n = int(x.size)
    loglik = -n * math.log(lam) - float(x.sum()) / lam
    bic = 1 * math.log(n) - 2.0 * loglik
    return FitReport(params={"mean": lam}, n_params=1, loglik=loglik, bic=bic, n=n)


def fit_pareto(samples, theta: float | None = None) -> FitReport:
    """Fit a generalized Pareto law (k, sigma) by maximum likelihood.

    The location ``theta`` is held fixed (defaulting to the sample
    minimum); only shape and scale are optimized, so ``n_params`` is 2.
    With ``t = k / sigma`` and excesses ``x = samples - theta`` the best
    shape is ``k(t) = mean(log1p(t x))``, which leaves the profile
    log-likelihood ``-n (log k(t) - log t + k(t) + 1)`` (Grimshaw 1993).
    Its maximum over ``t`` is bracketed on a 41-point log grid from
    1e-12 to 1e6 over ``mean(x)`` and polished by :func:`_newton_on_grid`,
    with one numpy pass per point for ``k``, ``k' = mean(x / (1 + t x))``
    and ``k'' = -mean((x / (1 + t x))^2)``.  A maximum at the low edge is
    the exponential limit k -> 0 (k ~ 1e-12, sigma ~ mean(x)); one at the
    high edge raises :class:`FitError`.  The excesses are sorted once, so
    every mean sums in one order and the fit depends only on the set of
    samples, not on their order.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 10:
        raise ValueError("need at least 10 samples")
    if theta is None:
        theta = float(x.min())
    if np.any(x < theta):
        raise ValueError("samples must be >= theta")
    excess = np.sort(x - theta)
    m = float(excess.mean())
    if not m > 0:
        raise ValueError("all samples equal theta; the scale cannot be fitted")
    n = int(x.size)

    def neg_profile(t: float) -> tuple[float, float, float]:
        """``n (log k - log t + k + 1)`` and its first two derivatives in ``t``."""
        tx = t * excess
        r = excess / (1.0 + tx)
        k, k1, k2 = float(np.log1p(tx).mean()), float(r.mean()), -float((r * r).mean())
        return (
            n * (math.log(k) - math.log(t) + k + 1.0),
            n * (k1 / k - 1.0 / t + k1),
            n * (k2 / k - (k1 / k) ** 2 + 1.0 / (t * t) + k2),
        )

    grid = [math.exp(s) / m for s in np.linspace(math.log(1e-12), math.log(1e6), 41).tolist()]
    t_hat, j = _newton_on_grid(neg_profile, grid)
    if j == len(grid) - 1:
        raise FitError("generalized Pareto likelihood grows without bound in k / sigma")
    k_hat = float(np.log1p(t_hat * excess).mean())
    loglik = -neg_profile(t_hat)[0]
    return FitReport(
        params={"k": k_hat, "sigma": k_hat / t_hat, "theta": float(theta)},
        n_params=2, loglik=loglik, bic=2 * math.log(n) - 2.0 * loglik, n=n,
    )


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

    # The default model section; the fit puts its own values in place.
    section = default_config_dict()["model"]

    # Lead-speed histogram over the envelope.
    edges = list(np.arange(V_RANGE[0], V_RANGE[1], v_bin_width))
    if edges[-1] < V_RANGE[1]:
        edges.append(V_RANGE[1])
    counts, _ = np.histogram(v_l, bins=edges)
    section["velocity"] = {"bin_edges": [float(e) for e in edges],
                           "bin_mass": (counts / counts.sum()).tolist()}

    # Inverse range: heavy-tailed fit anchored at the default law's lower
    # bound, so the fitted law and its truncation share a support.
    inv = section["inverse_range"]
    r_inv = 1.0 / r_l
    pareto = fit_pareto(r_inv, theta=inv["lo"])
    exponential = fit_exponential_mle(r_inv - inv["lo"])
    inv.update(pareto.params)

    # Inverse TTC means per lead-speed interval, exactly summed.
    ttc_inv = -r_l_dot / r_l
    table: list[tuple[float, float]] = []
    lo = V_RANGE[0]
    while lo < V_RANGE[1]:
        hi = min(lo + ttc_speed_bin_width, V_RANGE[1])
        sel = (v_l >= lo) & (v_l < hi)
        count = int(sel.sum())
        if count >= min_bin_count:
            table.append(((lo + hi) / 2.0, math.fsum(ttc_inv[sel].tolist()) / count))
        lo = hi
    if not table:
        raise ValueError(
            f"no lead-speed interval holds >= {min_bin_count} records; "
            "ttc_lambda table would be empty"
        )

    section["ttc_lambda"]["table"] = [[float(v), float(lam)] for v, lam in table]
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
