"""Command-line entry point.

Exit codes: 0 on success; 2 when ``run`` or ``search`` wrote its report
but an estimate did not converge within its sample cap or a
cross-entropy search drew no hit in its last iteration; 1 for
configuration, data or usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import yaml

from .config import EVENTS, MODES, ConfigError, load_config
from .runner import read_report, run_experiment, run_search, write_outputs

__all__ = ["main"]


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
        "--event", action="append", choices=EVENTS,
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

    runp = sub.add_parser("run", help="cross-entropy search (unless warm-started) plus estimation")
    _add_common(runp)
    runp.add_argument(
        "--mode", action="append", choices=MODES, default=None,
        help="restrict to an estimation mode (repeatable)",
    )
    runp.add_argument("--n-cap", type=int, default=None, help="override the sample cap")
    runp.add_argument(
        "--verbose-traces", action="store_true",
        help="also write per-scenario logs and event traces",
    )
    _add_common(sub.add_parser("search", help="cross-entropy tilt search; writes a report with no rows"))

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
        if args.command == "fit":
            # The one subcommand that loads numpy.
            from .ingest import build_model_section, load_events_csv, render_fit_summary

            bin_settings = {k: v for k, v in vars(args).items()
                            if k not in ("command", "data", "out")}
            section, summary = build_model_section(load_events_csv(args.data), **bin_settings)
            with open(args.out, "w", encoding="utf-8") as fh:
                yaml.safe_dump({"model": section}, fh, sort_keys=False)
            sys.stdout.write(render_fit_summary(summary))
            print(f"wrote {args.out} (add a seed to use it as a run config)")
            return 0
        # Files of an earlier run would stay beside the new report, unlisted by it.
        if os.path.isdir(args.out) and os.listdir(args.out):
            raise ValueError(f"--out {args.out} is not empty; give a new or empty directory")
        if args.command == "report":
            d = read_report(os.path.join(args.result_dir, "report.json"))
        else:
            cfg = load_config(args.config, _overrides(args))
        # Made once the inputs are read and before any work: an --out that
        # cannot be a directory fails here, not after the whole run.
        os.makedirs(args.out, exist_ok=True)
        if args.command == "run":
            d = run_experiment(cfg, args.out if args.verbose_traces else None)
        elif args.command == "search":
            d = run_search(cfg)
        write_outputs(d, args.out)
        # A stored report re-renders with exit 0, whatever it holds.
        bad = []
        if args.command != "report":
            bad += [f"{key} cross-entropy search aborted: no hit in the last of its "
                    f"{len(st['history'])} iterations of {st['n_per_iter']} draws"
                    for key, st in d["ce"].items() if st["event_hits"] == 0]
            for r in d["rows"]:
                if not r["converged"]:
                    hw = r["rel_half_width"]
                    bad.append(f"{r['event']}/{r['bin']}/{r['mode']} not converged at n={r['n']} "
                               f"(rel half-width {'-' if hw is None else f'{hw:.3g}'})")
        for line in bad:
            print(f"warning: {line}", file=sys.stderr)
        print(f"wrote {os.path.join(args.out, 'summary.txt')}")
        return 2 if bad else 0
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
