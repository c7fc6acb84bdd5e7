"""Stochastic cut-in scenario model and importance-sampling proposals.

A scenario is the triple (lead speed v_l, inverse range r_inv, inverse
TTC ttc_inv) drawn at the moment the lead vehicle crosses the lane line.
The lead speed keeps its empirical law under every proposal; only the
two inverse laws are tilted.  Likelihood ratios therefore reduce to the
product of the two single-variable density ratios.

Each scenario is drawn from four uniforms, one Philox4x64-10 block that
:func:`scenario_stream` computes with Python integers from (seed,
namespace, index); no numpy bit generator is involved.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .distributions import (
    EmpiricalDist,
    TruncatedExponential,
    TruncatedPareto,
    exp_density_ratio,
    lsq_exponential_of_pareto,
    tilt_exponential,
)

try:  # sha256 without loading OpenSSL, as random.py takes its sha512
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

__all__ = [
    "BIN_NAME",
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

# Bin names become parts of output file names; ``all`` is the ``bins: [all]`` keyword.
BIN_NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


@dataclass(frozen=True)
class VelocityBin:
    """Closed-open lead-speed interval [lo, hi) in m/s."""

    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.name == "all" or not BIN_NAME.fullmatch(self.name):
            raise ValueError(f"bin name {self.name!r}: expected 1 to 64 of [A-Za-z0-9_.-], not 'all'")
        if not self.lo < self.hi:
            raise ValueError(f"bin {self.name!r}: need lo < hi, got {self.lo}, {self.hi}")


@dataclass(frozen=True)
class ProposalParams:
    """Tilts applied to the two inverse laws, checked per bin by ``validate_proposal``.

    ``vartheta_r`` shifts the exponential surrogate of the inverse-range
    law; ``vartheta_ttc`` shifts the inverse-TTC law.  Negative values
    push the proposal toward shorter ranges / shorter TTC.  Zero tilts,
    the defaults, leave both laws untilted.
    """

    vartheta_r: float = 0.0
    vartheta_ttc: float = 0.0


class ScenarioSample(NamedTuple):
    """One sampled cut-in with its derived kinematics and importance weight."""

    v_l: float  # lead speed, m/s
    r_inv: float  # 1/range at cut-in, 1/m
    ttc_inv: float  # 1/TTC at cut-in, 1/s
    r0: float  # initial range, m
    v0: float  # initial following-vehicle speed, m/s
    likelihood: float  # density ratio original/proposal (1.0 under the original law)


def derive_kinematics(v_l: float, r_inv: float, ttc_inv: float) -> tuple[float, float]:
    """Initial (v0, r0) implied by the sampled triple.

    TTC = range / closing speed, so the following vehicle starts at
    v0 = v_l + ttc_inv / r_inv >= v_l, at range r0 = 1 / r_inv.
    """
    if not r_inv > 0:
        raise ValueError(f"r_inv must be > 0, got {r_inv}")
    if ttc_inv < 0:
        raise ValueError(f"ttc_inv must be >= 0, got {ttc_inv}")
    return v_l + ttc_inv / r_inv, 1.0 / r_inv


def stream_namespace(label: str) -> int:
    """Stable 32-bit namespace id for a stream label such as ``"ce/crash/low"``."""
    digest = sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key increments.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_U64 = (1 << 64) - 1
_TWO_M53 = 1.0 / (1 << 53)


@lru_cache(maxsize=16)
def _philox_round_keys(seed: int) -> tuple[tuple[int, int], ...]:
    """The ten round keys of the Philox key (seed, 0)."""
    return tuple(((seed + r * _PHILOX_W0) & _U64, (r * _PHILOX_W1) & _U64) for r in range(10))


def _checked_int(name: str, value, bits: int) -> int:
    """``value`` as an int in [0, 2**bits); bools and non-integers are refused."""
    try:
        v = -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        v = -1
    if not 0 <= v < 1 << bits:
        raise ValueError(f"{name} must be an integer in [0, 2**{bits}), got {value!r}")
    return v


def scenario_stream(seed: int, index: int, namespace: int = 0) -> tuple[float, float, float, float]:
    """The four uniforms of scenario ``index``: one Philox4x64-10 block.

    Each (namespace, index) pair owns a counter of the Philox cipher
    keyed by ``seed``, so draws do not depend on how many scenarios run
    concurrently or in what order.  The block is computed on Python
    integers and is, bit for bit, the first four doubles of numpy's
    ``Philox(key=seed, counter=((namespace << 32) | index) << 64)``,
    whose counter's low word is bumped to 1 before its first block.
    """
    seed = _checked_int("seed", seed, 64)
    index = _checked_int("index", index, 32)
    namespace = _checked_int("namespace", namespace, 32)
    c0, c1, c2, c3 = 1, (namespace << 32) | index, 0, 0
    for k0, k1 in _philox_round_keys(seed):
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _U64, (p0 >> 64) ^ c3 ^ k1, p0 & _U64
    # numpy's random(): the top 53 bits of each word, scaled to [0, 1).
    return (c0 >> 11) * _TWO_M53, (c1 >> 11) * _TWO_M53, (c2 >> 11) * _TWO_M53, (c3 >> 11) * _TWO_M53


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

    The least-squares exponential surrogate of the inverse-range law, a
    :class:`TruncatedExponential` on its support, is built here and kept
    as ``r_inv_surrogate``; importance-sampling proposals tilt it, and
    its ``mean`` bounds their ``vartheta_r``.
    """

    def __init__(
        self,
        v_dist: EmpiricalDist,
        r_inv_dist: TruncatedPareto,
        ttc_lambda_table,
        bins,
        lambda_floor: float,
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

        mean = lsq_exponential_of_pareto(r_inv_dist)
        self.r_inv_surrogate = TruncatedExponential(mean, r_inv_dist.lo, r_inv_dist.hi)

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

    def validate_proposal(self, p: ProposalParams, b: VelocityBin) -> None:
        """Raise ValueError unless both tilts keep positive proposal means over bin ``b``."""
        mean = self.r_inv_surrogate.mean
        if not p.vartheta_r < mean:
            raise ValueError(
                f"vartheta_r={p.vartheta_r} must be < inverse-range surrogate mean {mean}"
            )
        lam_min = self.min_lambda_ttc_in(b)
        if not p.vartheta_ttc < lam_min:
            raise ValueError(
                f"vartheta_ttc={p.vartheta_ttc} must be < min inverse-TTC mean "
                f"{lam_min} over bin {b.name!r}"
            )

    def sample_scenario(
        self,
        bin_range: VelocityBin,
        u: tuple[float, float, float, float],
        proposal: ProposalParams | None = None,
    ) -> ScenarioSample:
        """Draw one scenario, under the original law or a tilted proposal.

        ``u`` holds the four uniforms of the scenario's stream, as
        :func:`scenario_stream` returns them: lead-speed bin, position in
        that bin, inverse range and inverse TTC, in that order.  The
        scenario is fully determined by them.
        """
        # Python floats, so that each law computes on floats.
        u_bin, u_pos, u_r, u_ttc = u
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
        v0, r0 = derive_kinematics(v_l, r_inv, ttc_inv)
        return ScenarioSample(v_l, r_inv, ttc_inv, r0, v0, likelihood)
