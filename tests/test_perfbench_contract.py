"""The per-layer tracer in perfbench/ still sees every layer of a run.

``perfbench/layers.py`` wraps each layer's functions under the names the
calling modules bound at import (``runner.simulate``,
``cross_entropy.scenario_stream``, ...). A refactor that stops calling
one of those names, or calls it more than once per draw, leaves the
untraced run correct but breaks the benchmark's traced run. This test
drives a small traced run in a fresh interpreter and checks the
invariants that ``perfbench/run.py --trace 1`` checks.
"""

import json
import os
import subprocess
import sys

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_TRACED_RUN = """
import json, os, sys
from collections import Counter
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers
from accel_eval import cli

tracer = layers.Tracer()
layers.install(tracer)
out = sys.argv[4]
rc = cli.main(["run", "--config", sys.argv[3], "--out", out, "--verbose-traces"])
with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
    report = json.load(fh)
files = [os.path.join(d, f) for d, _, fs in os.walk(out) for f in fs]
doc = {"import_s": 0.0, "threads": tracer.threads}
lay = layers.summarize(doc, report, sum(map(os.path.getsize, files)), len(files))
calls = Counter(span[0] for spans in tracer.threads for span in spans)
print(json.dumps({"rc": rc, "layers": lay, "calls": calls}))
"""


def test_traced_run_keeps_the_benchmark_invariants(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "seed": 20260814,
                "events": ["conflict"],
                "bins": ["low"],
                "modes": ["cmc", "is"],
                "n_cap": 400,
                "stopping": {"check_every": 100, "min_samples": 100},
                "cross_entropy": {"iterations": 3, "n_per_iter": {"conflict": 100}},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src"), str(cfg), str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] in (0, 2), proc.stderr
    lay, calls = result["layers"], result["calls"]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))

    streams = lay["scenario.stream_calls"]
    ce_n = sum(h[4] for st in report["ce"].values() for h in st["history"])
    assert ce_n == 300
    assert lay["cross_entropy.draws"] == ce_n
    assert lay["scenario.sample_calls"] == streams
    assert lay["plant.simulate_calls"] == streams
    assert calls["plant.classify"] == streams
    # Every rebound name is still reached: the surrogate fit once, the
    # closed-form density ratio under sampling, merge and the stopping
    # check per batch, the search once per (event, bin).
    assert calls["distributions.lsq_fit"] == 1
    assert calls["distributions.eval"] > 0
    assert calls["estimation.check"] >= calls["estimation.merge"] > 0
    assert calls["cross_entropy.search"] == 1
    assert lay["estimation.update_calls"] == streams - ce_n
    assert lay["estimation.update_calls"] == sum(r["n"] for r in report["rows"])
    assert lay["runner.discarded_scenarios"] == 0
    traces = sum(len(files) for _, _, files in os.walk(out / "traces"))
    assert traces > 0
    assert lay["plant.record_calls"] == traces
