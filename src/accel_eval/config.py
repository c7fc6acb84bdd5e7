"""Experiment configuration: YAML schema, defaults, validation, hashing.

A config file only needs the keys it wants to change; everything else
falls back to the defaults below (the plant, confidence and injury
sections are the field defaults of their dataclasses).  Unknown keys
are rejected with their full path so typos cannot silently disable a
setting.  The resolved (defaults-applied) mapping is what gets hashed
into the report, so two runs with the same effective settings carry the
same config digest.

The default scenario-model numbers are synthetic placeholders shaped to
look like naturalistic lane-change statistics (conflict probability on
the order of 1e-2 in the low-speed bin).  Fit real data with the ``fit``
subcommand before drawing conclusions about a real system.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any

import yaml

from .distributions import EmpiricalDist, TruncatedPareto
from .estimation import ConfidenceSpec, InjuryModel
from .plant import AvConfig
from .scenario import STREAM_INDICES, ProposalParams, ScenarioModel, VelocityBin, sha256

__all__ = [
    "EVENTS",
    "MODES",
    "R_RANGE",
    "V_RANGE",
    "ConfigError",
    "ExperimentConfig",
    "default_config_dict",
    "parse_config",
    "speed_edges",
    "load_config",
    "config_digest",
]

EVENTS = ("conflict", "crash", "injury")
MODES = ("cmc", "is")

# The studied cut-in envelope.  Past 75 m a lane change is no longer a
# cut-in ahead; under 0.1 m it is already contact.
V_RANGE = (2.0, 40.0)  # m/s, either vehicle
R_RANGE = (0.1, 75.0)  # m, range at cut-in


def speed_edges(width: float) -> list[float]:
    """Edges ``V_RANGE[0] + i*width`` of the speed envelope, ending exactly at
    ``V_RANGE[1]``; an edge closer to it than 1e-9 of a width is dropped."""
    lo, hi = V_RANGE
    n = max(1, math.ceil((hi - lo) / width - 1e-9))
    return [lo + i * width for i in range(n)] + [hi]


_V_EDGES = speed_edges(2.0)
_V_WEIGHTS = [1, 2, 4, 7, 9, 8, 6, 4, 3, 3, 4, 6, 8, 9, 8, 6, 4, 2, 1]
_V_MASS = [w / math.fsum(_V_WEIGHTS) for w in _V_WEIGHTS]

_R_INV_LO = 1.0 / R_RANGE[1]  # 1/m
_R_INV_HI = 1.0 / R_RANGE[0]  # 1/m


def _as_lists(value):
    return [_as_lists(v) for v in value] if isinstance(value, tuple) else value


def _field_defaults(cls) -> dict[str, Any]:
    """The dataclass's field defaults as a config section (tuples become lists)."""
    return {f.name: _as_lists(f.default) for f in dataclasses.fields(cls)}


def default_config_dict() -> dict[str, Any]:
    """Fresh copy of the full default configuration (seed intentionally absent)."""
    return {
        "seed": None,
        "events": ["conflict"],
        "modes": ["is"],
        "bins": ["all"],
        "n_cap": 200000,
        "workers": 1,
        "confidence": _field_defaults(ConfidenceSpec),
        "model": {
            "velocity": {"bin_edges": list(_V_EDGES), "bin_mass": list(_V_MASS)},
            "inverse_range": {
                "k": 0.02,
                "sigma": 0.0205,
                "theta": _R_INV_LO,
                "lo": _R_INV_LO,
                "hi": _R_INV_HI,
            },
            "ttc_lambda": {
                "table": [
                    [5.0, 0.12],
                    [10.0, 0.10],
                    [15.0, 0.085],
                    [20.0, 0.07],
                    [25.0, 0.06],
                    [30.0, 0.05],
                    [35.0, 0.045],
                ],
                "floor": 0.01,
            },
            "velocity_bins": [
                {"name": "low", "lo": 5.0, "hi": 15.0},
                {"name": "medium", "lo": 15.0, "hi": 25.0},
                {"name": "high", "lo": 25.0, "hi": 40.0},
            ],
        },
        "plant": _field_defaults(AvConfig),
        "injury": _field_defaults(InjuryModel),
        "r_lc": 7.64,
        "cross_entropy": {
            "iterations": 10,
            "n_per_iter": {"conflict": 100, "crash": 500},
        },
        "stopping": {"check_every": 50, "min_samples": 100},
        "warm_start": {},
    }


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key path."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully resolved experiment settings."""

    seed: int
    events: tuple[str, ...]
    modes: tuple[str, ...]
    bins: tuple[str, ...]
    n_cap: int
    model: ScenarioModel
    plant: AvConfig
    confidence: ConfidenceSpec
    injury: InjuryModel
    r_lc: float
    ce_iterations: int
    ce_n_per_iter: dict[str, int]
    check_every: int
    min_samples: int
    warm_start: dict[str, dict[str, ProposalParams]]
    resolved: dict[str, Any]


def _require_map(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _merge(base: dict, override: dict, path: str) -> dict:
    """Override defaults key by key; unknown keys are an error."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigError(f"{here}: unknown key")
        if isinstance(base[key], dict) and key != "warm_start":
            out[key] = _merge(base[key], _require_map(value, here), here)
        else:
            out[key] = copy.deepcopy(value)
    return out

def _number(value, path: str, allow_inf: bool = False) -> float:
    """A finite float; ``allow_inf`` also admits +inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past the float range
        x = math.inf if value > 0 else -math.inf
    if not (math.isfinite(x) or (allow_inf and x == math.inf)):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return x


def _integer(value, path: str, least: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{path}: must be >= {least}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    return list(value)


def _numbers(value, path: str) -> list[float]:
    return [_number(x, path) for x in _list(value, path)]


def _distinct_names(value, path: str, allowed, expand_all: bool = False) -> list[str]:
    """A non-empty list of distinct entries of ``allowed``; with
    ``expand_all``, ``[all]`` stands for every entry."""
    ok = isinstance(value, (list, tuple)) and all(isinstance(n, str) for n in value)
    if ok and expand_all and list(value) == ["all"]:
        return list(allowed)
    if not ok or not value or len(set(value)) != len(value) or any(n not in allowed for n in value):
        either = "'all' or " if expand_all else ""
        raise ConfigError(
            f"{path}: expected a list of {either}distinct entries from {list(allowed)}, "
            f"got {value!r}"
        )
    return list(value)


def _pairs(value, path: str) -> list[tuple[float, float]]:
    if not isinstance(value, (list, tuple)) or any(
        not isinstance(p, (list, tuple)) or len(p) != 2 for p in value
    ):
        raise ConfigError(f"{path}: expected a list of [x, y] pairs")
    return [(_number(p[0], path), _number(p[1], path)) for p in value]


@contextlib.contextmanager
def _prefixed(path: str):
    """Re-raise a component's ValueError as a ConfigError on ``path``."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _build_section(cls, section: str, values: dict):
    """Build dataclass ``cls`` field by field from ``values``.

    ``values`` must hold exactly the class's fields.  Each field's
    annotation fixes how its value is read: a tuple takes [x, y] pairs,
    a string a string, anything else a number.  A value the class itself
    rejects becomes a ConfigError prefixed with ``section``.
    """
    fields = dataclasses.fields(cls)
    if set(values) != {f.name for f in fields}:
        raise ConfigError(
            f"{section}: expected the keys {[f.name for f in fields]}, got {list(values)}"
        )
    kwargs = {}
    for f in fields:
        path = f"{section}.{f.name}"
        value = values[f.name]
        if f.type.startswith("tuple"):
            kwargs[f.name] = tuple(_pairs(value, path))
        elif f.type == "str":
            kwargs[f.name] = str(value)
        else:
            kwargs[f.name] = _number(value, path)
    with _prefixed(section):
        return cls(**kwargs)


def _build_model(section: dict, path: str) -> ScenarioModel:
    vel = section["velocity"]
    with _prefixed(f"{path}.velocity"):
        v_dist = EmpiricalDist(
            _numbers(vel["bin_edges"], f"{path}.velocity.bin_edges"),
            _numbers(vel["bin_mass"], f"{path}.velocity.bin_mass"),
        )
    inv = section["inverse_range"]
    with _prefixed(f"{path}.inverse_range"):
        r_inv_dist = TruncatedPareto(
            _number(inv["k"], f"{path}.inverse_range.k"),
            _number(inv["sigma"], f"{path}.inverse_range.sigma"),
            _number(inv["theta"], f"{path}.inverse_range.theta"),
            _number(inv["lo"], f"{path}.inverse_range.lo"),
            _number(inv["hi"], f"{path}.inverse_range.hi", allow_inf=True),
        )
    ttc = section["ttc_lambda"]
    bins = []
    for i, b in enumerate(_list(section["velocity_bins"], f"{path}.velocity_bins")):
        bpath = f"{path}.velocity_bins[{i}]"
        bins.append(_build_section(VelocityBin, bpath, _require_map(b, bpath)))
    with _prefixed(path):
        return ScenarioModel(
            v_dist=v_dist,
            r_inv_dist=r_inv_dist,
            ttc_lambda_table=_pairs(ttc["table"], f"{path}.ttc_lambda.table"),
            bins=bins,
            lambda_floor=_number(ttc["floor"], f"{path}.ttc_lambda.floor"),
        )


def parse_config(data: dict[str, Any]) -> ExperimentConfig:
    """Validate a raw mapping against the schema and build the runtime objects."""
    resolved = _merge(default_config_dict(), _require_map(data, ""), "")

    if resolved["seed"] is None:
        raise ConfigError("seed: required (explicit seeding keeps runs reproducible)")
    seed = _integer(resolved["seed"], "seed")
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed: must lie in [0, 2^64), got {seed}")

    model = _build_model(_require_map(resolved["model"], "model"), "model")
    # Computed, never set; recorded so that the hashed settings hold it.
    resolved["model"]["exp_approx_mean"] = model.r_inv_surrogate.mean
    if model.r_inv_dist.hi == math.inf:
        # Reports are strict JSON, which has no infinity: record an
        # unbounded inverse-range law as null.
        resolved["model"]["inverse_range"]["hi"] = None

    events = _distinct_names(resolved["events"], "events", EVENTS)
    modes = _distinct_names(resolved["modes"], "modes", MODES)
    bin_names = [b.name for b in model.bins]
    bins = _distinct_names(resolved["bins"], "bins", bin_names, expand_all=True)
    for name in bins:
        b = model.bin_named(name)
        if model.v_dist.mass_in_range(b.lo, b.hi) <= 0.0:
            raise ConfigError(f"bins: velocity bin {name!r} carries no probability mass")

    plant = _build_section(AvConfig, "plant", resolved["plant"])
    confidence = _build_section(ConfidenceSpec, "confidence", resolved["confidence"])
    injury = _build_section(InjuryModel, "injury", resolved["injury"])

    r_lc = _number(resolved["r_lc"], "r_lc")
    if not r_lc > 0:
        raise ConfigError(f"r_lc: must be > 0, got {r_lc}")

    ce = resolved["cross_entropy"]
    ce_iterations = _integer(ce["iterations"], "cross_entropy.iterations", 1)
    ce_n_per_iter = {}
    for ev, val in ce["n_per_iter"].items():
        val = _integer(val, f"cross_entropy.n_per_iter.{ev}", 1)
        if ce_iterations * val > STREAM_INDICES:
            raise ConfigError(
                f"cross_entropy.n_per_iter.{ev}: iterations x n_per_iter must be "
                f"<= 2^32 (scenario stream indices), got {ce_iterations} x {val}"
            )
        ce_n_per_iter[ev] = val

    check_every = _integer(resolved["stopping"]["check_every"], "stopping.check_every", 1)
    min_samples = _integer(resolved["stopping"]["min_samples"], "stopping.min_samples", 2)
    n_cap = _integer(resolved["n_cap"], "n_cap")
    if n_cap < min_samples:
        raise ConfigError(f"n_cap: must be >= stopping.min_samples ({min_samples}), got {n_cap}")
    if n_cap > STREAM_INDICES:
        raise ConfigError(f"n_cap: must be <= 2^32 (scenario stream indices), got {n_cap}")
    # Batches always run in one thread: ``workers`` is validated for
    # compatibility but kept out of the parsed config and the hashed settings.
    _integer(resolved.pop("workers"), "workers", 1)

    warm_start: dict[str, dict[str, ProposalParams]] = {}
    for ev, per_bin in _require_map(resolved["warm_start"], "warm_start").items():
        if ev not in EVENTS:
            raise ConfigError(f"warm_start.{ev}: unknown event")
        warm_start[ev] = {}
        for bname, tilts in _require_map(per_bin, f"warm_start.{ev}").items():
            wpath = f"warm_start.{ev}.{bname}"
            if bname not in bin_names:
                raise ConfigError(f"{wpath}: unknown velocity bin")
            tilts = _merge(_field_defaults(ProposalParams), _require_map(tilts, wpath), wpath)
            p = _build_section(ProposalParams, wpath, tilts)
            with _prefixed(wpath):
                model.validate_proposal(p, model.bin_named(bname))
            warm_start[ev][bname] = p

    return ExperimentConfig(
        seed=seed,
        events=tuple(events),
        modes=tuple(modes),
        bins=tuple(bins),
        n_cap=n_cap,
        model=model,
        plant=plant,
        confidence=confidence,
        injury=injury,
        r_lc=r_lc,
        ce_iterations=ce_iterations,
        ce_n_per_iter=ce_n_per_iter,
        check_every=check_every,
        min_samples=min_samples,
        warm_start=warm_start,
        resolved=resolved,
    )


def load_config(path: str, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Load a YAML config file, apply CLI overrides, validate."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise ConfigError(f"{path}: not valid YAML: {e}") from e
    if data is None:
        data = {}
    data = _require_map(data, path)
    if overrides:
        data = {**data, **{k: v for k, v in overrides.items() if v is not None}}
    return parse_config(data)


def config_digest(resolved: dict[str, Any]) -> str:
    """sha256 over the canonical JSON encoding of the resolved settings."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()
