"""Cross-entropy search for importance-sampling tilts.

Each iteration draws scenarios under the current proposal, simulates
them, and re-weights event hits by their likelihood ratio.  Because the
proposals are exponentially tilted exponentials, the KL-optimal update
has closed form: the new tilt is the weighted mean of (mean - sample)
over hits.  Tilts start at zero (the untilted surrogate family) and are
clamped to keep every proposal mean strictly positive.  A search always
runs all its iterations; one whose last iteration saw no hit has failed,
and says so by ``event_hits == 0``, never by raising.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

from .plant import AvConfig, classify_events, simulate
from .scenario import ProposalParams, ScenarioModel, ScenarioSample, scenario_stream, stream_namespace

__all__ = [
    "CeIterate",
    "CeState",
    "weighted_tilt_update",
    "ce_search",
]

CE_EVENTS = ("conflict", "crash")
_MARGIN = 0.01  # clamped tilts stay this fraction of their cap inside it


class CeIterate(NamedTuple):
    """Proposal after one iteration, with that iteration's hit count.

    The fields are the columns of a ``ce_history_*.csv``, in order.
    """

    iteration: int
    vartheta_r: float
    vartheta_ttc: float
    hits: int
    n: int


class CeState(NamedTuple):
    """Final search state, which ``_asdict()`` makes a report's ``ce`` entry.

    ``history`` has one entry per iteration; ``event_hits`` counts the
    last iteration's hits, and 0 marks a failed search.
    """

    vartheta_r: float
    vartheta_ttc: float
    event_hits: int
    n_per_iter: int
    history: tuple[CeIterate, ...]
    lambda_r: float
    lambda_ttc_cap: float


def weighted_tilt_update(x, lam, weights, lam_cap: float) -> float:
    """Closed-form tilt update: weighted mean of (lam - x), clamped below lam_cap.

    ``lam`` may be a float or a per-sample sequence (the inverse-TTC mean
    depends on each sample's lead speed).  An entry of weight 0 adds
    nothing, so a search passes its hits only.  Both sums are correctly
    rounded (``math.fsum``).  The clamp keeps a safety margin of
    ``_MARGIN * lam_cap`` inside the validity region.
    """
    if any(wi < 0 for wi in weights):
        raise ValueError("weights must be nonnegative")
    total = math.fsum(weights)
    if not total > 0:
        raise ValueError("all weights are zero; no information to update the tilt")
    lams = repeat(lam) if isinstance(lam, (int, float)) else lam
    vartheta = math.fsum([wi * (li - xi) for wi, li, xi in zip(weights, lams, x) if wi]) / total
    return min(vartheta, (1.0 - _MARGIN) * lam_cap)


def ce_search(
    model: ScenarioModel,
    plant_cfg: AvConfig,
    bin_name: str,
    event: str,
    n_per_iter: int,
    iterations: int,
    seed: int,
) -> CeState:
    """Iterate the closed-form update on simulated batches, ``iterations`` times.

    An iteration without hits leaves the proposal unchanged.  The search
    failed if its last iteration saw no hit (``event_hits == 0``).
    """
    if event not in CE_EVENTS:
        raise ValueError(f"event must be one of {CE_EVENTS}, got {event!r}")
    if n_per_iter < 1 or iterations < 1:
        raise ValueError("n_per_iter and iterations must be >= 1")
    b = model.bin_named(bin_name)
    lam_r = model.r_inv_exp_mean
    lam_cap = model.min_lambda_ttc_in(b)
    ns = stream_namespace(f"ce/{event}/{bin_name}")

    sample = model.sample_scenario
    params = ProposalParams(0.0, 0.0, bin_name)
    history: list[CeIterate] = []
    for it in range(1, iterations + 1):
        hits: list[ScenarioSample] = []
        for i in range((it - 1) * n_per_iter, it * n_per_iter):
            s = sample(b, scenario_stream(seed, i, ns), params)
            if getattr(classify_events(simulate(s, plant_cfg)), event):
                hits.append(s)
        if hits:
            w = [s.likelihood for s in hits]
            params = ProposalParams(
                weighted_tilt_update([s.r_inv for s in hits], lam_r, w, lam_r),
                weighted_tilt_update([s.ttc_inv for s in hits],
                                     [model.lambda_ttc(s.v_l) for s in hits], w, lam_cap),
                bin_name,
            )
            model.validate_proposal(params)
        history.append(CeIterate(it, params.vartheta_r, params.vartheta_ttc, len(hits), n_per_iter))
    return CeState(params.vartheta_r, params.vartheta_ttc, len(hits), n_per_iter,
                   tuple(history), lam_r, lam_cap)
