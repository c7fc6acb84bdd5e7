"""Command-line entry point.

Exit codes: 0 on success, 2 when a requested estimate did not converge
within its sample cap or the cross-entropy search aborted, 1 for
configuration, data or usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import yaml

from .config import ConfigError, load_config
from .cross_entropy import CeZeroHitError
from .ingest import fit_naturalistic, render_fit_summary
from .runner import (
    run_experiment,
    run_search,
    search_to_dict,
    write_outputs,
    write_search_outputs,
)

__all__ = ["main"]

_REPORT_KEYS = ("provenance", "resolved_config", "rows", "ce", "convergence")
_ROW_TEXT = ("event", "bin", "mode", "n_nature_source")
_ROW_NUMBERS = ("estimate", "ci_lo", "ci_hi", "rel_half_width", "n", "converged",
                "d_nature_mi", "d_acc_mi", "r_acc", "n_nature")


def _check_report(d, source: str) -> None:
    """Raise ValueError, naming ``source`` and the key path, unless ``d`` has
    the shape that ``runner.render_summary`` and ``runner.write_outputs``
    read, so that a malformed stored report fails before any file is written."""

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
        if not (isinstance(x, (int, float)) or (none_ok and x is None)):
            raise bad(path, "is not a number")

    def table(x, path: str) -> None:
        if not isinstance(x, list):
            raise bad(path, "is not a list")
        for i, row in enumerate(x):
            if not isinstance(row, list):
                raise bad(f"{path}[{i}]", "is not a list")
            for j, cell in enumerate(row):
                if not (cell is None or isinstance(cell, (int, float, str))):
                    raise bad(f"{path}[{i}][{j}]", "is not a number or a string")

    mapping(d if isinstance(d, dict) else {}, "it", _REPORT_KEYS)
    mapping(d["provenance"], "provenance", ("config_hash", "seed", "version"))
    conf = mapping(mapping(d["resolved_config"], "resolved_config", ("confidence",))["confidence"],
                   "resolved_config.confidence", ("alpha", "beta"))
    for k in ("alpha", "beta"):
        number(conf[k], f"resolved_config.confidence.{k}")
    if not isinstance(d["rows"], list):
        raise bad("rows", "is not a list")
    for i, r in enumerate(d["rows"]):
        mapping(r, f"rows[{i}]", _ROW_TEXT + _ROW_NUMBERS)
        for k in _ROW_TEXT:
            if not isinstance(r[k], str):
                raise bad(f"rows[{i}].{k}", "is not a string")
        for k in _ROW_NUMBERS:
            number(r[k], f"rows[{i}].{k}", none_ok=True)
    for key, st in mapping(d["ce"], "ce").items():
        path = f"ce[{key!r}]"
        mapping(st, path, ("vartheta_r", "vartheta_ttc", "event_hits", "n_per_iter", "history"))
        number(st["vartheta_r"], f"{path}.vartheta_r")
        number(st["vartheta_ttc"], f"{path}.vartheta_ttc")
        table(st["history"], f"{path}.history")
    for key, rows in mapping(d["convergence"], "convergence").items():
        table(rows, f"convergence[{key!r}]")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; keep 2 for "did not
    # converge" and report usage problems as ordinary errors instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="YAML experiment configuration")
    p.add_argument("--out", default="out", help="output directory (default: ./out)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument(
        "--event", action="append", choices=["conflict", "crash", "injury"],
        default=None, help="restrict to an event type (repeatable)",
    )
    p.add_argument(
        "--bin", action="append", default=None,
        help="restrict to a velocity bin name (repeatable)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="validated but selects nothing; batches run in one thread",
    )


def _add_estimation(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument(
        "--mode", action="append", choices=["cmc", "is"], default=None,
        help="restrict to an estimation mode (repeatable)",
    )
    p.add_argument("--n-cap", type=int, default=None, help="override the sample cap")
    p.add_argument(
        "--verbose-traces", action="store_true",
        help="also write per-scenario logs and event traces",
    )


def _overrides(args: argparse.Namespace) -> dict:
    return {
        "seed": args.seed,
        "events": args.event,
        "modes": getattr(args, "mode", None),  # search takes no --mode or --n-cap
        "bins": args.bin,
        "n_cap": getattr(args, "n_cap", None),
        "workers": args.workers,
    }


def _build_parser() -> _Parser:
    p = _Parser(
        prog="accel-eval",
        description="Accelerated rare-event evaluation of an automated vehicle "
        "against stochastic lane-change cut-ins.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    _add_estimation(sub.add_parser("run", help="cross-entropy search plus estimation, end to end"))
    _add_estimation(sub.add_parser(
        "estimate",
        help="estimation only; importance sampling uses warm-start tilts when given",
    ))
    _add_common(sub.add_parser("search", help="cross-entropy tilt search only"))

    # Bin settings left out keep the defaults of ingest.build_model_section.
    fitp = sub.add_parser("fit", help="fit the scenario model from an event CSV",
                          argument_default=argparse.SUPPRESS)
    fitp.add_argument("data", help="CSV with columns v, v_l, r_l, r_l_dot")
    fitp.add_argument("--out", default="model.yaml", help="where to write the model section")
    fitp.add_argument("--v-bin-width", type=float, help="lead-speed histogram bin width, m/s")
    fitp.add_argument("--ttc-speed-bin-width", type=float, help="speed interval width for inverse-TTC means, m/s")
    fitp.add_argument("--min-bin-count", type=int, help="records required before an interval contributes")

    repp = sub.add_parser("report", help="re-render a stored report.json")
    repp.add_argument("result_dir", help="directory holding report.json")
    repp.add_argument("--out", default="out", help="output directory")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("run", "estimate"):
            cfg = load_config(args.config, _overrides(args))
            report = run_experiment(
                cfg, do_ce=(args.command == "run"), verbose_traces=args.verbose_traces
            )
            write_outputs(report.to_dict(), args.out, report=report)
            bad = [r for r in report.rows if not r.converged]
            for r in bad:
                print(
                    f"warning: {r.event}/{r.bin_name}/{r.mode} not converged at "
                    f"n={r.n} (rel half-width "
                    f"{'-' if r.rel_half_width is None else f'{r.rel_half_width:.3g}'})",
                    file=sys.stderr,
                )
            print(f"wrote {os.path.join(args.out, 'summary.txt')}")
            return 2 if bad else 0
        if args.command == "search":
            cfg = load_config(args.config, _overrides(args))
            results = run_search(cfg)
            write_search_outputs(search_to_dict(cfg, results), args.out)
            print(f"wrote {os.path.join(args.out, 'summary.txt')}")
            return 0
        if args.command == "fit":
            bin_settings = {k: v for k, v in vars(args).items()
                            if k not in ("command", "data", "out")}
            fragment, summary = fit_naturalistic(args.data, **bin_settings)
            with open(args.out, "w", encoding="utf-8") as fh:
                yaml.safe_dump(fragment, fh, sort_keys=False)
            sys.stdout.write(render_fit_summary(summary))
            print(f"wrote {args.out} (add a seed to use it as a run config)")
            return 0
        if args.command == "report":
            path = os.path.join(args.result_dir, "report.json")

            def reject(token):
                # Reports are strict JSON; a NaN would fail only when rewritten.
                raise ValueError(f"{path} is not a run report: it holds {token}")

            with open(path, "r", encoding="utf-8") as fh:
                d = json.load(fh, parse_constant=reject)
            _check_report(d, path)
            write_outputs(d, args.out)
            print(f"wrote {os.path.join(args.out, 'summary.txt')}")
            return 0
        raise AssertionError(f"unhandled command {args.command!r}")
    except CeZeroHitError as e:
        print(f"cross-entropy search aborted: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
