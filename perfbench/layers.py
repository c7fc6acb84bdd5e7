"""Traced run of the accel-eval CLI, and the per-layer figures drawn from it.

Run as a script, this imports ``accel_eval.cli`` (timing the import),
wraps the public functions each layer calls through the names the
calling modules bound at import, drives ``accel_eval.cli.main`` with the
remaining arguments and, once the run has ended, writes every span to a
JSON file:

    python perfbench/layers.py SPANS.json run --config CFG --out DIR ...

Nothing under ``src/`` changes. A span is ``[name, start, end, parent,
info]``; ``parent`` indexes the same thread's span list (-1 for none).
Spans sit on a per-thread stack, because the estimator can run batches
on a thread pool and a shared stack would mix up self times.

``summarize`` (imported by ``run.py``) turns the spans into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

_SAMPLE = "scenario.sample"


class Tracer:
    """Collects spans per thread; ``wrap`` returns a recording stand-in."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self.threads: list[list[list]] = []

    def _state(self) -> tuple[list[int], list[list]]:
        tls = self._tls
        try:
            return tls.stack, tls.spans
        except AttributeError:
            tls.stack, tls.spans = [], []
            self.threads.append(tls.spans)  # list.append is atomic under the GIL
            return tls.stack, tls.spans

    def wrap(self, fn, name, info=None, only_under: str | None = None):
        """Record a span named ``name`` (or ``name(args, kwargs)``) per call.

        ``info(args, result)`` adds a small payload to the span. With
        ``only_under``, calls whose innermost open span has another name
        run untraced, so density evaluations inside the start-up fit do
        not count as sampling work.
        """
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = self._state()
            if only_under is not None and (not stack or spans[stack[-1]][0] != only_under):
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[2] = clock()
                span[4] = {"error": type(e).__name__}
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from accel_eval import cli, cross_entropy, distributions, estimation, runner, scenario

    def sim_name(args, kwargs):
        return "plant.record" if kwargs.get("record") else "plant.simulate"

    def steps(args, trace):
        return round(trace.t_end / args[1].ts)

    def ce_info(args, state):
        return {"hits": sum(h.hits for h in state.history),
                "n": sum(h.n for h in state.history)}

    cli.load_config = tracer.wrap(cli.load_config, "config.load")
    cli.run_experiment = tracer.wrap(cli.run_experiment, "runner.run_experiment")
    cli.write_outputs = tracer.wrap(cli.write_outputs, "runner.write")
    scenario.lsq_exponential_of_pareto = tracer.wrap(
        scenario.lsq_exponential_of_pareto, "distributions.lsq_fit"
    )
    scenario.exp_density_ratio = tracer.wrap(
        scenario.exp_density_ratio, "distributions.eval", only_under=_SAMPLE
    )
    for cls in (distributions.TruncatedPareto, distributions.TruncatedExponential):
        for meth in ("pdf", "cdf", "ppf"):
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), "distributions.eval",
                                           only_under=_SAMPLE))
    scenario.ScenarioModel.sample_scenario = tracer.wrap(
        scenario.ScenarioModel.sample_scenario, _SAMPLE
    )
    estimation.EstimatorAccumulator.update = tracer.wrap(
        estimation.EstimatorAccumulator.update, "estimation.update"
    )
    for mod in (runner, cross_entropy):
        mod.scenario_stream = tracer.wrap(mod.scenario_stream, "scenario.stream")
        mod.simulate = tracer.wrap(mod.simulate, sim_name, info=steps)
        mod.classify_events = tracer.wrap(mod.classify_events, "plant.classify")
    runner.merge = tracer.wrap(runner.merge, "estimation.merge")
    runner.relative_half_width = tracer.wrap(runner.relative_half_width, "estimation.check")
    runner.ce_search = tracer.wrap(runner.ce_search, "cross_entropy.search", info=ce_info)


def summarize(doc: dict, report: dict | None, out_dir_bytes: int, out_dir_files: int) -> dict:
    """Per-layer metrics from a spans document and the run's report.json."""
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    steps = 0
    ce_draws = 0
    ce_hits = 0
    ce_failed = 0
    for spans in doc["threads"]:
        child = [0.0] * len(spans)
        for name, start, end, parent, _info in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, info) in enumerate(spans):
            dur = end - start
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_t[name] = self_t.get(name, 0.0) + dur - child[i]
            if name == "plant.simulate":
                steps += info
            elif name == "cross_entropy.search":
                if "error" in info:
                    ce_failed += 1
                else:
                    ce_hits += info["hits"]
            elif name == "scenario.stream":
                p = parent
                while p >= 0 and spans[p][0] != "cross_entropy.search":
                    p = spans[p][3]
                ce_draws += p >= 0

    def n(name):
        return count.get(name, 0)

    def per(t, calls):
        return 1e6 * t / calls if calls else 0.0

    est_draws = n("scenario.stream") - ce_draws
    absorbed = sum(r["n"] for r in report["rows"]) if report else 0
    return {
        "scenario.stream_us": per(total.get("scenario.stream", 0.0), n("scenario.stream")),
        "scenario.stream_calls": n("scenario.stream"),
        "scenario.sample_us": per(self_t.get(_SAMPLE, 0.0), n(_SAMPLE)),
        "scenario.sample_calls": n(_SAMPLE),
        "distributions.eval_us": per(total.get("distributions.eval", 0.0), n(_SAMPLE)),
        "distributions.eval_calls": n("distributions.eval"),
        "distributions.lsq_fit_s": total.get("distributions.lsq_fit", 0.0),
        "config.load_s": total.get("config.load", 0.0),
        "cli.import_s": doc["import_s"],
        "plant.simulate_us": per(total.get("plant.simulate", 0.0), n("plant.simulate")),
        "plant.simulate_calls": n("plant.simulate"),
        "plant.steps_per_scenario": steps / n("plant.simulate") if n("plant.simulate") else 0.0,
        "plant.record_us": per(total.get("plant.record", 0.0), n("plant.record")),
        "plant.record_calls": n("plant.record"),
        "plant.classify_us": per(total.get("plant.classify", 0.0), n("plant.classify")),
        "estimation.update_us": per(total.get("estimation.update", 0.0), n("estimation.update")),
        "estimation.update_calls": n("estimation.update"),
        "estimation.check_us": per(total.get("estimation.check", 0.0), n("estimation.update")),
        "estimation.merge_calls": n("estimation.merge"),
        "cross_entropy.search_s": total.get("cross_entropy.search", 0.0),
        "cross_entropy.self_s": self_t.get("cross_entropy.search", 0.0),
        "cross_entropy.draws": ce_draws,
        "cross_entropy.hit_frac": ce_hits / ce_draws if ce_draws else 0.0,
        "cross_entropy.searches_failed": ce_failed,
        "runner.self_s": self_t.get("runner.run_experiment", 0.0),
        "runner.useful_frac": absorbed / est_draws if est_draws else 0.0,
        "runner.discarded_scenarios": est_draws - absorbed,
        "runner.write_s": self_t.get("runner.write", 0.0),
        "runner.bytes_written": out_dir_bytes,
        "runner.files_written": out_dir_files,
    }


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    from accel_eval import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    rc = cli.main(cli_argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "exit_code": rc, "threads": tracer.threads}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
