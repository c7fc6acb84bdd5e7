"""Stochastic cut-in scenario model and importance-sampling proposals.

A scenario is the triple (lead speed v_l, inverse range r_inv, inverse
TTC ttc_inv) drawn at the moment the lead vehicle crosses the lane line.
The lead speed keeps its empirical law under every proposal; only the
two inverse laws are tilted.  Likelihood ratios therefore reduce to the
product of the two single-variable density ratios.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .distributions import (
    EmpiricalDist,
    TruncatedExponential,
    TruncatedPareto,
    exp_density_ratio,
    lsq_exponential_of_pareto,
    tilt_exponential,
)

__all__ = [
    "STREAM_INDICES",
    "VelocityBin",
    "ProposalParams",
    "ScenarioSample",
    "ScenarioModel",
    "derive_kinematics",
    "scenario_stream",
    "stream_namespace",
]

STREAM_INDICES = 1 << 32  # scenario indices and namespaces per seed


@dataclass(frozen=True)
class VelocityBin:
    """Closed-open lead-speed interval [lo, hi) in m/s."""

    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"bin {self.name!r}: need lo < hi, got {self.lo}, {self.hi}")


@dataclass(frozen=True)
class ProposalParams:
    """Tilts applied to the two inverse laws within one velocity bin.

    ``vartheta_r`` shifts the exponential surrogate of the inverse-range
    law; ``vartheta_ttc`` shifts the inverse-TTC law.  Negative values
    push the proposal toward shorter ranges / shorter TTC.
    """

    vartheta_r: float
    vartheta_ttc: float
    bin_name: str


@dataclass(frozen=True)
class ScenarioSample:
    """One sampled cut-in with its derived kinematics and importance weight."""

    v_l: float  # lead speed, m/s
    r_inv: float  # 1/range at cut-in, 1/m
    ttc_inv: float  # 1/TTC at cut-in, 1/s
    r0: float  # initial range, m
    rdot: float  # initial range rate, m/s (<= 0)
    v0: float  # initial following-vehicle speed, m/s
    likelihood: float  # density ratio original/proposal (1.0 under the original law)


def derive_kinematics(v_l: float, r_inv: float, ttc_inv: float) -> tuple[float, float, float]:
    """Initial (rdot, v0, r0) implied by the sampled triple.

    TTC = range / closing speed gives rdot = -ttc_inv / r_inv, and the
    following vehicle starts at v0 = v_l - rdot >= v_l.
    """
    if not r_inv > 0:
        raise ValueError(f"r_inv must be > 0, got {r_inv}")
    if ttc_inv < 0:
        raise ValueError(f"ttc_inv must be >= 0, got {ttc_inv}")
    rdot = -ttc_inv / r_inv
    v0 = v_l - rdot
    r0 = 1.0 / r_inv
    return rdot, v0, r0


def stream_namespace(label: str) -> int:
    """Stable 32-bit namespace id for a stream label such as ``"ce/crash/low"``."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def scenario_stream(seed: int, index: int, namespace: int = 0) -> np.random.Generator:
    """Independent counter-based stream for scenario ``index``.

    Each (namespace, index) pair owns a disjoint counter block of the
    Philox cipher keyed by ``seed``, so draws do not depend on how many
    scenarios run concurrently or in what order.
    """
    if index < 0 or index >= STREAM_INDICES:
        raise ValueError(f"index out of range: {index}")
    if namespace < 0 or namespace >= STREAM_INDICES:
        raise ValueError(f"namespace out of range: {namespace}")
    counter = ((namespace << 32) | index) << 64
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


class ScenarioModel:
    """Fitted naturalistic statistics plus the tilted proposal family.

    Parameters
    ----------
    v_dist : EmpiricalDist
        Lead-speed law (m/s).
    r_inv_dist : TruncatedPareto
        Inverse-range law (1/m) on its truncation range.
    ttc_lambda_table : sequence of (speed, lam)
        Mean of the inverse-TTC exponential at reference lead speeds;
        interpolated linearly and extrapolated from the end slopes,
        floored at ``lambda_floor``.
    bins : sequence of VelocityBin
        Contiguous non-overlapping partition of the studied speed range.
    r_inv_exp_mean : float, optional
        Mean of the exponential surrogate for the inverse-range law.  If
        given it must match the least-squares recomputation to 1e-9;
        when omitted it is computed here.

    The untilted surrogate itself, a :class:`TruncatedExponential` on the
    inverse-range support, is built once and kept as ``r_inv_surrogate``;
    importance-sampling proposals tilt it.
    """

    def __init__(
        self,
        v_dist: EmpiricalDist,
        r_inv_dist: TruncatedPareto,
        ttc_lambda_table,
        bins,
        r_inv_exp_mean: float | None = None,
        lambda_floor: float = 0.01,
    ):
        self.v_dist = v_dist
        self.r_inv_dist = r_inv_dist
        table = [(float(v), float(lam)) for v, lam in ttc_lambda_table]
        self._ttc_speeds = speeds = [v for v, _ in table]
        self._ttc_means = [lam for _, lam in table]
        if not speeds:
            raise ValueError("ttc_lambda_table must not be empty")
        if any(b >= a for a, b in zip(speeds[1:], speeds)):
            raise ValueError("ttc_lambda_table speeds must be strictly increasing")
        if any(lam <= 0 for lam in self._ttc_means):
            raise ValueError("ttc_lambda_table means must be positive")
        if not lambda_floor > 0:
            raise ValueError(f"lambda_floor must be > 0, got {lambda_floor}")
        self.lambda_floor = float(lambda_floor)

        self.bins = tuple(bins)
        if not self.bins:
            raise ValueError("need at least one velocity bin")
        names = [b.name for b in self.bins]
        if len(set(names)) != len(names):
            raise ValueError("velocity bin names must be unique")
        for a, b in zip(self.bins, self.bins[1:]):
            if a.hi != b.lo:
                raise ValueError(
                    f"velocity bins must be contiguous: {a.name!r} ends at {a.hi}, "
                    f"{b.name!r} starts at {b.lo}"
                )

        recomputed = lsq_exponential_of_pareto(r_inv_dist)
        if r_inv_exp_mean is not None and abs(r_inv_exp_mean - recomputed) > 1e-9:
            raise ValueError(
                f"r_inv_exp_mean {r_inv_exp_mean} does not match the least-squares "
                f"recomputation {recomputed}"
            )
        self.r_inv_exp_mean = recomputed
        self.r_inv_surrogate = TruncatedExponential(recomputed, r_inv_dist.lo, r_inv_dist.hi)

    def lambda_ttc(self, v_l: float) -> float:
        """Inverse-TTC mean at lead speed ``v_l`` (interpolated, floored)."""
        xs, ys = self._ttc_speeds, self._ttc_means
        if len(xs) == 1:
            lam = ys[0]
        elif v_l <= xs[0]:
            lam = ys[0] + (v_l - xs[0]) * (ys[1] - ys[0]) / (xs[1] - xs[0])
        elif v_l >= xs[-1]:
            lam = ys[-1] + (v_l - xs[-1]) * (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        else:
            # np.interp's own expression, on the lists and on floats; at a
            # node it takes the node's mean, as a slope may overflow.
            j = bisect_right(xs, v_l) - 1
            slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
            lam = ys[j] if v_l == xs[j] else slope * (v_l - xs[j]) + ys[j]
        return max(self.lambda_floor, lam)

    def bin_named(self, name: str) -> VelocityBin:
        for b in self.bins:
            if b.name == name:
                return b
        raise KeyError(f"unknown velocity bin {name!r}")

    def min_lambda_ttc_in(self, b: VelocityBin) -> float:
        """Smallest inverse-TTC mean over a bin; tilts must stay below it.

        The interpolant is piecewise linear, so the minimum over the bin
        is attained at a bin edge or an interior table node.
        """
        cand = [b.lo, b.hi]
        cand += [v for v in self._ttc_speeds if b.lo < v < b.hi]
        return min(self.lambda_ttc(v) for v in cand)

    def validate_proposal(self, p: ProposalParams) -> None:
        """Raise ValueError unless both tilts keep positive proposal means bin-wide."""
        b = self.bin_named(p.bin_name)
        if not p.vartheta_r < self.r_inv_exp_mean:
            raise ValueError(
                f"vartheta_r={p.vartheta_r} must be < inverse-range surrogate mean "
                f"{self.r_inv_exp_mean}"
            )
        lam_min = self.min_lambda_ttc_in(b)
        if not p.vartheta_ttc < lam_min:
            raise ValueError(
                f"vartheta_ttc={p.vartheta_ttc} must be < min inverse-TTC mean "
                f"{lam_min} over bin {p.bin_name!r}"
            )

    def sample_scenario(
        self,
        bin_range: VelocityBin,
        rng: np.random.Generator,
        proposal: ProposalParams | None = None,
    ) -> ScenarioSample:
        """Draw one scenario, under the original law or a tilted proposal.

        Exactly four uniforms are consumed, in a fixed order, so a
        scenario is fully determined by its stream.
        """
        # Python floats, so that each law computes on floats.
        u_bin, u_pos, u_r, u_ttc = rng.random(4).tolist()
        v_l = self.v_dist.sample_in_range(bin_range.lo, bin_range.hi, u_bin, u_pos)
        ttc_law = TruncatedExponential(self.lambda_ttc(v_l), 0.0, math.inf)
        if proposal is None:
            r_inv = self.r_inv_dist.ppf(u_r)
            ttc_inv = ttc_law.ppf(u_ttc)
            likelihood = 1.0
        else:
            r_prop = tilt_exponential(self.r_inv_surrogate, proposal.vartheta_r)
            t_prop = tilt_exponential(ttc_law, proposal.vartheta_ttc)
            r_inv = r_prop.ppf(u_r)
            ttc_inv = t_prop.ppf(u_ttc)
            # Lead speed cancels: it is drawn from the same law either way.
            lr_r = self.r_inv_dist.pdf(r_inv) / r_prop.pdf(r_inv)
            lr_t = exp_density_ratio(ttc_law, t_prop, ttc_inv)
            likelihood = lr_r * lr_t
        rdot, v0, r0 = derive_kinematics(v_l, r_inv, ttc_inv)
        return ScenarioSample(
            v_l=v_l, r_inv=r_inv, ttc_inv=ttc_inv, r0=r0, rdot=rdot, v0=v0,
            likelihood=likelihood,
        )
