"""End-to-end experiment orchestration, and writing and reading reports.

The estimation loop draws scenarios in fixed-size batches, each scenario
on its own counter-based stream.  Batches run one after another in one
thread, merge in index order, and the stopping rule is evaluated at
batch boundaries only.  The ``workers`` setting is accepted and
validated but selects nothing: a thread pool ran slower than one thread
under the GIL.

With a log directory (``--verbose-traces``), each combination writes
its per-scenario CSV line by line as it draws, and records and writes
the traces of its first event-positive draws on the spot.
:func:`write_outputs` then writes exactly what the report dict holds.

Report files carry no timestamps: rerunning the same config and seed
must reproduce them exactly.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext

from . import __version__
from .config import ExperimentConfig, config_digest
from .cross_entropy import CeIterate, CeState, ce_search
from .estimation import (
    MILE_M,
    EstimatorAccumulator,
    injury_probability,
    merge,
    relative_half_width,
    required_n_cmc,
)
from .plant import classify_events, simulate
from .scenario import BIN_NAME, ProposalParams, scenario_stream, stream_namespace

__all__ = [
    "SUMMARY_COLUMNS",
    "run_experiment",
    "run_search",
    "write_outputs",
    "render_summary",
    "read_report",
]

_MAX_TRACE_FILES = 20  # per (event, bin, mode) combination when tracing is on
_SCENARIO_HEADER = "index,v_l,r_inv,ttc_inv,likelihood,outcome,min_range,delta_v"
# The cells of a convergence row, one per stopping-rule check.
_CONVERGENCE_COLUMNS = ("n", "estimate", "rel_half_width", "sample_variance")


def _ce_event_for(event: str) -> str:
    # Injured-occupant rates reuse the crash tilts: injuries are crashes
    # weighted by severity, so the crash proposal already covers them.
    return "crash" if event == "injury" else event


def _warm_params(cfg: ExperimentConfig, event: str, bin_name: str) -> ProposalParams | None:
    p = cfg.warm_start.get(event, {}).get(bin_name)
    return p if p is not None else cfg.warm_start.get(_ce_event_for(event), {}).get(bin_name)


def _indicator(cfg: ExperimentConfig, event: str, trace) -> float:
    # Each event is the EventRecord flag of its name; injury weighs a crash by severity.
    rec = classify_events(trace)
    if event == "injury":
        return injury_probability(rec.delta_v, cfg.injury)
    return 1.0 if getattr(rec, event) else 0.0


def _estimate_combo(
    cfg: ExperimentConfig,
    event: str,
    bin_name: str,
    mode: str,
    params: ProposalParams | None,
    log_dir: str | None,
):
    """Batched estimation for one (event, bin, mode); see module docstring."""
    b = cfg.model.bin_named(bin_name)
    ns = stream_namespace(f"estimate/{event}/{bin_name}/{mode}")
    total = EstimatorAccumulator()
    conv: list[list] = []  # one row of _CONVERGENCE_COLUMNS per check
    seed, plant, sample = cfg.seed, cfg.plant, cfg.model.sample_scenario
    name = f"{event}_{bin_name}_{mode}"
    traced = 0
    with (nullcontext() if log_dir is None else
          _open_csv(os.path.join(log_dir, f"scenarios_{name}.csv"), _SCENARIO_HEADER)) as log:
        for start in range(0, cfg.n_cap, cfg.check_every):
            acc = EstimatorAccumulator()
            update = acc.update
            for i in range(start, min(start + cfg.check_every, cfg.n_cap)):
                s = sample(b, scenario_stream(seed, i, ns), params)
                trace = simulate(s, plant)
                update(_indicator(cfg, event, trace), s.likelihood, trace.distance_m)
                if log is not None:
                    log.writerow((i, s.v_l, s.r_inv, s.ttc_inv, s.likelihood, trace.outcome,
                                  trace.min_range, trace.delta_v))
                    if trace.outcome != "none" and traced < _MAX_TRACE_FILES:
                        # The drawn scenario again, with recording; one
                        # trace's states at a time are held.
                        traced += 1
                        _write_trace(os.path.join(log_dir, "traces", name), i,
                                     simulate(s, plant, record=True))
            total = merge(total, acc)
            if total.n < 2:
                continue
            lr = relative_half_width(total, cfg.confidence)
            conv.append([total.n, total.mean(), lr, total.sample_variance()])
            if total.n >= cfg.min_samples and lr is not None and lr < cfg.confidence.beta:
                return total, conv, True
    return total, conv, False


def _build_row(
    cfg: ExperimentConfig,
    event: str,
    bin_name: str,
    mode: str,
    acc: EstimatorAccumulator,
    converged: bool,
    params: ProposalParams | None,
    cmc_acc: EstimatorAccumulator | None,
) -> dict:
    """One report row: an estimate with its accounting."""
    m = acc.mean()
    s = math.sqrt(acc.sample_variance())
    hw = cfg.confidence.z_alpha * s / math.sqrt(acc.n)
    d_acc_mi = acc.distance_m / MILE_M

    if mode == "cmc":
        n_nature, source = acc.n, "actual-cmc"
    elif cmc_acc is not None:
        n_nature, source = cmc_acc.n, "actual-cmc"
    elif 0.0 < m < 1.0:
        n_nature, source = required_n_cmc(m, cfg.confidence), "predicted"
    else:
        n_nature, source = None, "unavailable"

    d_nature_mi = None if n_nature is None else cfg.r_lc * n_nature
    r_acc = None
    if d_nature_mi is not None and d_acc_mi > 0.0:
        r_acc = d_nature_mi / d_acc_mi

    return {
        "event": event,
        "bin": bin_name,
        "mode": mode,
        "estimate": m,
        "ci_lo": max(0.0, m - hw),
        "ci_hi": m + hw,
        "rel_half_width": relative_half_width(acc, cfg.confidence),
        "sample_variance": acc.sample_variance(),
        "n": acc.n,
        "converged": converged,
        "distance_m": acc.distance_m,
        "d_acc_mi": d_acc_mi,
        "n_nature": n_nature,
        "n_nature_source": source,  # "actual-cmc", "predicted" or "unavailable"
        "d_nature_mi": d_nature_mi,
        "r_acc": r_acc,
        # The tilts used; None for crude Monte Carlo.
        "vartheta_r": None if params is None else params.vartheta_r,
        "vartheta_ttc": None if params is None else params.vartheta_ttc,
    }


def _search(cfg: ExperimentConfig, skip_warm: bool) -> dict[str, CeState]:
    # One search per requested (event, bin), in config order. Injury shares
    # the crash search; with skip_warm a warm-started pair is not searched.
    results: dict[str, CeState] = {}
    for event in cfg.events:
        ce_ev = _ce_event_for(event)
        for bin_name in cfg.bins:
            key = f"{ce_ev}/{bin_name}"
            if key in results or (skip_warm and _warm_params(cfg, event, bin_name) is not None):
                continue
            results[key] = ce_search(
                cfg.model, cfg.plant, bin_name, ce_ev,
                cfg.ce_n_per_iter[ce_ev], cfg.ce_iterations, cfg.seed,
            )
    return results


def _report(cfg: ExperimentConfig, rows: list[dict], ce: dict[str, CeState],
            convergence: dict[str, list]) -> dict:
    return {
        "provenance": {
            "config_hash": config_digest(cfg.resolved),
            "seed": cfg.seed,
            "version": __version__,
        },
        "resolved_config": cfg.resolved,
        "rows": rows,
        "ce": {key: st._asdict() for key, st in ce.items()},
        "convergence": convergence,
    }


def run_search(cfg: ExperimentConfig) -> dict:
    """The report of one cross-entropy search per requested (event, bin),
    in config order; it has no rows. Injury shares the crash search."""
    return _report(cfg, [], _search(cfg, skip_warm=False), {})


def run_experiment(cfg: ExperimentConfig, log_dir: str | None = None) -> dict:
    """The report of a search (unless warm-started) and the estimation of
    every combination, rows in config order.

    With ``log_dir``, an existing directory, each combination writes its
    per-scenario CSV there as it draws, and the traces of its first
    event-positive draws under ``traces/``.
    """
    ce = _search(cfg, skip_warm=True) if "is" in cfg.modes else {}
    rows: list[dict] = []
    convergence: dict[str, list] = {}
    for event in cfg.events:
        for bin_name in cfg.bins:
            # Every mode runs before any row is built: an is row takes its
            # n_nature from the converged cmc row, whichever mode is listed first.
            done = {}
            for mode in cfg.modes:
                params = None
                if mode == "is":
                    params = _warm_params(cfg, event, bin_name)
                    if params is None:
                        st = ce[f"{_ce_event_for(event)}/{bin_name}"]
                        params = ProposalParams(st.vartheta_r, st.vartheta_ttc, bin_name)
                acc, conv, ok = _estimate_combo(cfg, event, bin_name, mode, params, log_dir)
                convergence[f"{event}/{bin_name}/{mode}"] = conv
                done[mode] = (acc, ok, params)
            cmc_acc, cmc_ok, _ = done.get("cmc", (None, False, None))
            rows += [_build_row(cfg, event, bin_name, mode, *done[mode],
                                cmc_acc if cmc_ok else None) for mode in cfg.modes]
    return _report(cfg, rows, ce, convergence)


def _fmt(x, width: int = 12) -> str:
    if x is None:
        return "-".rjust(width)
    if isinstance(x, bool):
        return ("yes" if x else "NO").rjust(width)
    if isinstance(x, int):
        return str(x).rjust(width)
    return f"{x:.6g}".rjust(width)


# The summary's columns: header, row key, and the width of a left-aligned
# text column (None for a number, right-aligned in 12).  Each row then
# ends with its n_nature_source.
SUMMARY_COLUMNS = (
    ("event", "event", 9), ("bin", "bin", 8), ("mode", "mode", 5),
    ("estimate", "estimate", None), ("ci_lo", "ci_lo", None), ("ci_hi", "ci_hi", None),
    ("rel_hw", "rel_half_width", None), ("n", "n", None), ("conv", "converged", None),
    ("D_nat_mi", "d_nature_mi", None), ("D_acc_mi", "d_acc_mi", None),
    ("r_acc", "r_acc", None), ("n_nature", "n_nature", None),
)


def render_summary(d: dict) -> str:
    """Human-readable summary from a report dictionary."""
    prov = d["provenance"]
    conf = d["resolved_config"]["confidence"]
    lines = [
        "accelerated-evaluation run",
        f"config   sha256:{prov['config_hash']}",
        f"seed     {prov['seed']}",
        f"version  {prov['version']}",
        "",
        f"estimates (confidence {(1.0 - conf['alpha']) * 100:.4g}%, "
        f"target relative half-width {conf['beta']:.4g}):",
        "".join(h.rjust(12) if w is None else h.ljust(w) for h, _, w in SUMMARY_COLUMNS)
        + "  source",
    ]
    for r in d["rows"]:
        lines.append(
            "".join(_fmt(r[k]) if w is None else r[k].ljust(w) for _, k, w in SUMMARY_COLUMNS)
            + f"  {r['n_nature_source']}"
        )
    if d["ce"]:
        # In sorted key order, the order report.json stores them in.
        lines += ["", "cross-entropy tilts:"] + [
            f"{key:<16} vartheta_r={st['vartheta_r']:.6g} "
            f"vartheta_ttc={st['vartheta_ttc']:.6g} "
            f"hits={st['event_hits']}/{st['n_per_iter']} "
            f"iterations={len(st['history'])}"
            for key, st in sorted(d["ce"].items())
        ]
    lines.append("")
    return "\n".join(lines)


def read_report(path: str) -> dict:
    """Load a stored report.json: strict JSON of the shape :func:`_check_report`
    asks for, else ValueError naming ``path``."""

    def reject(token):
        # Reports are strict JSON; a NaN, or a number such as 1e400
        # that reads as infinity, would fail only when rewritten.
        raise ValueError(f"{path} is not a run report: it holds {token}")

    def finite(token):
        x = float(token)
        return x if math.isfinite(x) else reject(token)

    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh, parse_constant=reject, parse_float=finite)
    _check_report(d, path)
    return d


def _check_report(d, source: str) -> None:
    """Raise ValueError, naming ``source`` and the key path, unless ``d`` has
    the shape that :func:`render_summary` and :func:`write_outputs` read, so
    that a malformed stored report fails before any file is written."""

    def bad(path: str, what: str):
        return ValueError(f"{source} is not a run report: {path} {what}")

    def mapping(x, path: str, keys=()) -> dict:
        if not isinstance(x, dict):
            raise bad(path, "is not a mapping")
        for k in keys:
            if k not in x:
                raise bad(path, f"has no {k!r} key")
        return x

    def number(x, path: str, none_ok: bool = False) -> None:
        if none_ok and x is None:
            return
        # A bool is an int, but the summary would print it as yes or NO.
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise bad(path, "is not a number")
        # An int past the float range fails when the summary formats it.
        if not -sys.float_info.max <= x <= sys.float_info.max:
            raise bad(path, "is outside the float range")

    def table(x, path: str, columns: tuple[str, ...]) -> None:
        if not isinstance(x, list):
            raise bad(path, "is not a list")
        for i, row in enumerate(x):
            if not isinstance(row, list):
                raise bad(f"{path}[{i}]", "is not a list")
            for j, cell in enumerate(row):
                if isinstance(cell, bool) or not isinstance(cell, (int, float, str, type(None))):
                    raise bad(f"{path}[{i}][{j}]", "is not a number or a string")
            if len(row) != len(columns):
                raise bad(f"{path}[{i}]", f"does not have {len(columns)} cells")

    mapping(d if isinstance(d, dict) else {}, "it",
            ("provenance", "resolved_config", "rows", "ce", "convergence"))
    mapping(d["provenance"], "provenance", ("config_hash", "seed", "version"))
    conf = mapping(mapping(d["resolved_config"], "resolved_config", ("confidence",))["confidence"],
                   "resolved_config.confidence", ("alpha", "beta"))
    for k in ("alpha", "beta"):
        number(conf[k], f"resolved_config.confidence.{k}")
    if not isinstance(d["rows"], list):
        raise bad("rows", "is not a list")
    text = [k for _, k, w in SUMMARY_COLUMNS if w is not None] + ["n_nature_source"]
    numbers = [k for _, k, w in SUMMARY_COLUMNS if w is None]
    for i, r in enumerate(d["rows"]):
        mapping(r, f"rows[{i}]", text + numbers)
        for k in text:
            if not isinstance(r[k], str):
                raise bad(f"rows[{i}].{k}", "is not a string")
        for k in numbers:
            if k != "converged":
                number(r[k], f"rows[{i}].{k}", none_ok=True)
            elif not isinstance(r[k], bool):
                raise bad(f"rows[{i}].{k}", "is not a bool")
    # Each ce or convergence key names one CSV, and each part of it names
    # output files, as a bin name does.
    taken = set()
    for section in ("ce", "convergence"):
        for key in mapping(d[section], section):
            if not all(BIN_NAME.fullmatch(part) for part in key.split("/")):
                raise bad(f"{section}[{key!r}]", "has a part that is not 1 to 64 of [A-Za-z0-9_.-]")
            name = _csv_name(section, key)
            if name in taken:
                raise bad(f"{section}[{key!r}]", f"names {name}, as another key does")
            taken.add(name)
    for key, st in d["ce"].items():
        path = f"ce[{key!r}]"
        scalars = ("vartheta_r", "vartheta_ttc", "event_hits", "n_per_iter")
        mapping(st, path, scalars + ("history",))
        for k in scalars:
            number(st[k], f"{path}.{k}")
        table(st["history"], f"{path}.history", CeIterate._fields)
    for key, rows in d["convergence"].items():
        table(rows, f"convergence[{key!r}]", _CONVERGENCE_COLUMNS)


def _csv_name(section: str, key: str) -> str:
    """The file that :func:`write_outputs` writes a ce or convergence key to."""
    prefix = "ce_history_" if section == "ce" else "convergence_"
    return prefix + key.replace("/", "_") + ".csv"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


@contextmanager
def _open_csv(path: str, header: str):
    """A csv writer on a new file at ``path`` whose first line is ``header``:
    None is an empty field, a float its repr, an int or a string its str."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        yield csv.writer(fh, lineterminator="\n")


def _write_csv(path: str, header: str, rows) -> None:
    # Row by row: no file is built as one string in memory.
    with _open_csv(path, header) as w:
        w.writerows(rows)


def _write_trace(trace_dir: str, i: int, trace) -> None:
    os.makedirs(trace_dir, exist_ok=True)
    _write_csv(os.path.join(trace_dir, f"{i:06d}.csv"), "t,r,v,a_cmd,a,mode",
               ((st.t, st.r, st.v, st.a_cmd, st.a, st.mode) for st in trace.states))


def _write_json(path: str, d: dict) -> None:
    # Strict JSON: a NaN or infinity raises instead of writing a non-standard token.
    _write(path, json.dumps(d, sort_keys=True, indent=2, allow_nan=False) + "\n")


def write_outputs(d: dict, out_dir: str) -> None:
    """Write the summary, report.json and the CSVs of report dict ``d`` into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, "summary.txt"), render_summary(d))
    _write_json(os.path.join(out_dir, "report.json"), d)
    for key, rows in d["convergence"].items():
        _write_csv(os.path.join(out_dir, _csv_name("convergence", key)),
                   ",".join(_CONVERGENCE_COLUMNS), rows)
    for key, st in d["ce"].items():
        _write_csv(os.path.join(out_dir, _csv_name("ce", key)),
                   ",".join(CeIterate._fields), st["history"])
