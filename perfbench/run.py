"""End-to-end and per-layer benchmark of the accel-eval pipeline.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; nothing needs installing.
Each timed repeat is a fresh ``python -m accel_eval.cli run`` process
on the workload's config, with ``src/`` of this checkout on PYTHONPATH.
Repeats run one after another (a closed loop with one client) for about
``--seconds`` (by default ``run_seconds`` of BENCHMARK.json, the value
the benchmark command is given), and at least three times; after each
repeat, fresh processes time the set-up. With ``--trace 1`` a
traced run (perfbench/layers.py) follows the untraced repeats
and the per-layer metrics are reported instead of the end-to-end ones.

Every invocation also runs the correctness gate (see README.md). The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every check passed. Outputs, spans and a result file with
provenance go under ``.perfbench-out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from statistics import NormalDist

import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

DEFAULT_SEED = 20260814
MIN_REPEATS = 3
# Set-up samples are spread over the timed window, so that their median
# sees the same swings of the machine's speed as the repeats do.
SETUP_PER_REPEAT = 3
# Two-sided normal tail of 3.3 is a false-alarm rate of about 1e-3 per bin.
Z_LIMIT = 3.3
SETUP_CODE = "import sys, accel_eval; accel_eval.load_config(sys.argv[1])"


@dataclass(frozen=True)
class Workload:
    config: str
    flags: tuple[str, ...] = ()

    @property
    def config_path(self) -> str:
        return os.path.join(BENCH_DIR, "workloads", self.config)


WORKLOADS = {
    "cmc-conflict": Workload("cmc-conflict.yaml"),
    "default-2w-traces": Workload(
        "default-2w-traces.yaml", ("--workers", "2", "--verbose-traces")
    ),
}
# Not timed: run once per cmc-conflict invocation, for the IS-vs-CMC
# check and the crash probes (which use its config).
IS_CHECK = Workload("is-conflict.yaml")


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def spawn(argv: list[str], err_path: str) -> Proc:
    """Run ``python argv`` against this checkout's sources and wait for it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", "replace")
    return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, text)


def cli_argv(command: str, wl: Workload, seed: int, out: str, *extra: str) -> list[str]:
    return [command, "--config", wl.config_path, "--seed", str(seed), "--out", out, *extra]


def run_cli(argv: list[str], out: str) -> tuple[Proc, dict | None]:
    shutil.rmtree(out, ignore_errors=True)
    proc = spawn(["-m", "accel_eval.cli", *argv], out + ".stderr")
    return proc, load_report(out)


def load_report(out: str) -> dict | None:
    try:
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def tree(path: str) -> tuple[str, int, int]:
    """(digest of every relative path and its bytes, total bytes, file count)."""
    h = hashlib.sha256()
    size = files = 0
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(full, path).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
            size += len(data)
            files += 1
    return h.hexdigest(), size, files


def ce_draws(report: dict) -> int:
    return sum(h[4] for st in report["ce"].values() for h in st["history"])


def useful_scenarios(report: dict) -> int:
    """Estimation draws absorbed into rows plus cross-entropy draws."""
    return sum(r["n"] for r in report["rows"]) + ce_draws(report)


@dataclass
class Gate:
    """Operations attempted and failed, and the correctness checks that broke."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def run(self, what: str, proc: Proc, report: dict | None) -> None:
        """Count a run's rows and searches; a missing report is a failed check."""
        if report is None:
            self.attempted += 1
            self.check(False, f"{what}: exit {proc.code}, no report.json: "
                              f"{proc.stderr.strip()[-300:]}")
            return
        bad = [r for r in report["rows"] if not r["converged"]]
        self.attempted += len(report["rows"]) + len(report["ce"])
        self.failed += len(bad)
        self.notes += [f"{what}: {r['event']}/{r['bin']}/{r['mode']} not converged" for r in bad]
        want = 2 if bad else 0
        if proc.code != want:
            self.check(False, f"{what}: exit {proc.code}, expected {want}")


def z_test(gate: Gate, cmc: dict, imp: dict) -> list[str]:
    """Per (event, bin), IS and CMC estimates agree within Z_LIMIT standard errors.

    Each standard error is the row's confidence half-width (ci_hi minus
    the estimate, never clipped) over the two-sided normal quantile of
    its report's confidence level.
    """

    def rows(report: dict) -> dict:
        z_a = NormalDist().inv_cdf(1.0 - report["resolved_config"]["confidence"]["alpha"] / 2.0)
        return {
            (r["event"], r["bin"]): (r["estimate"], (r["ci_hi"] - r["estimate"]) / z_a)
            for r in report["rows"]
        }

    a, b = rows(cmc), rows(imp)
    lines = []
    for key in sorted(a.keys() & b.keys()):
        (m_c, se_c), (m_i, se_i) = a[key], b[key]
        se = math.hypot(se_c, se_i)
        z = (m_i - m_c) / se if se > 0.0 else (0.0 if m_i == m_c else math.inf)
        ok = abs(z) < Z_LIMIT
        line = f"{key[0]}/{key[1]}: cmc={m_c:.6g} is={m_i:.6g} z={z:+.2f}"
        gate.check(ok, f"IS vs CMC disagree, {line}")
        lines.append(line)
    gate.check(bool(lines), "IS vs CMC: no (event, bin) in common")
    return lines


def provenance(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "seed": seed,
    }


def measure(name: str, wl: Workload, seed: int, seconds: float, gate: Gate, work: str):
    """Timed repeats, each followed by set-up samples.

    Each repeat's output must match the first byte for byte.
    """
    samples, setup = [], []
    first = os.path.join(work, "rep0")
    ref = None
    start = time.perf_counter()
    # Stop when one more round would overshoot --seconds by more than half.
    while len(samples) < MIN_REPEATS or (
        (time.perf_counter() - start) * (1 + 0.5 / len(samples)) < seconds
    ):
        k = len(samples)
        out = first if k == 0 else os.path.join(work, "rep")
        proc, report = run_cli(cli_argv("run", wl, seed, out, *wl.flags), out)
        gate.run(f"{name} repeat {k}", proc, report)
        useful = useful_scenarios(report) if report else 0
        samples.append({
            "wall_s": proc.wall_s, "cpu_s": proc.cpu_s, "peak_rss_mb": proc.peak_rss_mb,
            "useful_scenarios": useful,
        })
        digest = tree(out)[0]
        if ref is None:
            ref = digest
        else:
            gate.check(digest == ref, f"{name} repeat {k}: output differs from repeat 0")
        # A fresh process importing accel_eval and loading the config; the
        # repeat before it has written the bytecode caches.
        for _ in range(SETUP_PER_REPEAT):
            proc = spawn(["-c", SETUP_CODE, wl.config_path], os.path.join(work, "setup.stderr"))
            gate.check(proc.code == 0, f"setup: exit {proc.code}: {proc.stderr.strip()[-300:]}")
            setup.append(proc.wall_s)
    return samples, setup, first, ref


def extra_checks(name: str, wl: Workload, seed: int, gate: Gate, work: str,
                 rep0: str, ref: str) -> list[str]:
    """Untimed, once per invocation: the cross-workload and cross-worker checks."""
    lines = []
    if name == "cmc-conflict":
        out = os.path.join(work, "is-check")
        proc, report = run_cli(cli_argv("run", IS_CHECK, seed, out), out)
        gate.run("is-conflict check run", proc, report)
        mine = load_report(rep0)
        if report and mine:
            lines = z_test(gate, mine, report)
        for b in sorted({r["bin"] for r in report["rows"]}) if report else []:
            out = os.path.join(work, f"probe-crash-{b}")
            shutil.rmtree(out, ignore_errors=True)
            proc = spawn(["-m", "accel_eval.cli",
                          *cli_argv("search", IS_CHECK, seed, out, "--event", "crash", "--bin", b)],
                         out + ".stderr")
            # An abort is the known defect, reported but not counted as an
            # operation: the probe is not part of the workload.
            aborted = proc.code == 2 and "search aborted" in proc.stderr
            gate.check(proc.code == 0 or aborted,
                       f"crash/{b} search: exit {proc.code}: {proc.stderr.strip()[-300:]}")
            lines.append(f"crash/{b} search: {'aborted' if aborted else f'exit {proc.code}'}")
    elif name == "default-2w-traces":
        out = os.path.join(work, "workers1")
        # The last --workers given wins.
        proc, report = run_cli(cli_argv("run", wl, seed, out, *wl.flags, "--workers", "1"), out)
        gate.run("workers=1 run", proc, report)
        same = tree(out)[0] == ref
        gate.check(same, "output at --workers 1 differs from --workers 2")
        lines.append(f"--workers 1 output identical: {same}")
    return lines


def traced(name: str, wl: Workload, seed: int, gate: Gate, work: str, ref: str) -> tuple[dict, float]:
    """One traced run; its output must match the untraced one and its counts the report."""
    out = os.path.join(work, "traced")
    spans_path = os.path.join(work, "spans.json")
    shutil.rmtree(out, ignore_errors=True)
    proc = spawn([os.path.join(BENCH_DIR, "layers.py"), spans_path,
                  *cli_argv("run", wl, seed, out, *wl.flags)], out + ".stderr")
    report = load_report(out)
    gate.run(f"{name} traced run", proc, report)
    digest, size, files = tree(out)
    gate.check(digest == ref, "traced output differs from the untraced output")
    try:
        with open(spans_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        gate.check(False, f"traced run wrote no spans: {proc.stderr.strip()[-300:]}")
        doc = {"import_s": 0.0, "threads": []}
    lay = layers.summarize(doc, report, size, files)
    if report:
        est_draws = lay["scenario.stream_calls"] - lay["cross_entropy.draws"]
        ce_n = ce_draws(report)
        gate.check(lay["cross_entropy.draws"] == ce_n,
                   f"traced CE draws {lay['cross_entropy.draws']} != report {ce_n}")
        for key in ("scenario.sample_calls", "plant.simulate_calls"):
            gate.check(lay[key] == lay["scenario.stream_calls"],
                       f"traced {key} {lay[key]} != stream calls")
        gate.check(lay["estimation.update_calls"] == est_draws,
                   f"traced updates {lay['estimation.update_calls']} != draws {est_draws}")
        gate.check(lay["runner.discarded_scenarios"] >= 0, "absorbed more than simulated")
        traces = sum(len(f) for _, _, f in os.walk(os.path.join(out, "traces")))
        gate.check(lay["plant.record_calls"] == traces,
                   f"traced re-simulations {lay['plant.record_calls']} != trace files {traces}")
        if "--workers" not in wl.flags:
            gate.check(lay["runner.discarded_scenarios"] == 0,
                       "scenarios discarded without a pool")
    return lay, proc.wall_s


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    ap.add_argument("--seconds", type=float,
                    help="timed-repeat budget (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "accel_eval", "cli.py")):
        print(f"error: no accel_eval sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    name, wl = args.workload, WORKLOADS[args.workload]
    work = os.path.join(OUT, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    gate = Gate()
    prov = provenance(args.seed)
    print(f"perfbench workload={name} seed={args.seed} seconds={seconds:g} trace={args.trace}")
    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))

    samples, setup, rep0, ref = measure(name, wl, args.seed, seconds, gate, work)
    checks = extra_checks(name, wl, args.seed, gate, work, rep0, ref)

    per_run = {
        "wall_s": [s["wall_s"] for s in samples],
        "cpu_s": [s["cpu_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "setup_s": setup,
    }
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    print(f"{'per process':<22}{'unit':<5}{'median':>12} {'min':>12} {'max':>12}   n")
    for key, v in per_run.items():
        print(f"{key:<22}{units[key]:<5}{statistics.median(v):12.6g} {min(v):12.6g} "
              f"{max(v):12.6g} {len(v):3d}")
    # Rates are taken over all repeats together (work over time), which
    # averages the machine's speed swings better than a median of a few.
    useful = sum(s["useful_scenarios"] for s in samples)
    values = {key: statistics.median(v) for key, v in per_run.items()}
    values["scenarios_per_s"] = useful / sum(per_run["wall_s"])
    values["cpu_us_per_scenario"] = 1e6 * sum(per_run["cpu_s"]) / useful if useful else 0.0
    print(f"over {len(samples)} repeats: {useful} useful scenarios, "
          f"scenarios_per_s={values['scenarios_per_s']:.6g} 1/s, "
          f"cpu_us_per_scenario={values['cpu_us_per_scenario']:.6g} us")

    kind = "end_to_end"
    if args.trace:
        kind = "per_layer"
        values, traced_wall = traced(name, wl, args.seed, gate, work, ref)
        values["tracing.overhead_s"] = traced_wall - statistics.median(per_run["wall_s"])
        for key, v in values.items():
            print(f"{key:<32}{v:14.6g}")
    print(f"failed_frac {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted:.4g}")
    for line in checks:
        print(f"check {line}")
    for line in gate.notes:
        print(f"failed operation: {line}")
    for line in gate.problems:
        print(f"FAILED CHECK: {line}")

    correct = not gate.problems
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    result = {"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": metrics}
    record = {
        "workload": name, "seconds": seconds, "trace": args.trace,
        "provenance": prov, "samples": samples, "setup_s": setup, "checks": checks,
        "failed_operations": gate.notes, "failed_checks": gate.problems, **result,
    }
    path = os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
