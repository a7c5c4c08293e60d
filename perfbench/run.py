"""npicheck benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cli-report, batch-certify, wide-presentations, oracle-scan, or all.
Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import probes
from hostspeed import HostClock
from inputs import Case, golden_samples, make_cases
from tracer import LAYERS, Tracer, merge_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# Workload -> the tail percentile its sample count supports at 20 s.  Fixing
# it keeps the tail comparable across runs whose pass counts differ; a
# shorter run falls back down the ladder instead.
WORKLOADS = {
    "cli-report": 75,
    "batch-certify": 99,
    "wide-presentations": 75,
    "oracle-scan": 50,
}
SETUP_REPEATS = 6  # fresh interpreters before the timed loop, and again after it
IMPORTTIME_REPEATS = 3
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10

# Set-up probe: time from process start to ``import npicheck`` returning,
# then through the warm-up report that in-process workloads run first.
SETUP_CODE = """
import sys, time
import npicheck
if len(sys.argv) > 1:
    from npicheck import orders, report, textio
    text = sys.argv[1]
    options = report.ReportOptions(target=orders.parse_target_spec("z"))
    report.report_json(report.full_report(textio.parse_presentation(text), options, input_text=text))
print(time.monotonic())
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class InProcess:
    """One report through the public API, the same path as ``report --json``."""

    def __init__(self) -> None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import npicheck.cli  # noqa: F401  (every layer is loaded before tracing)
        from npicheck import orders, report, textio

        self.orders, self.report, self.textio = orders, report, textio

    def __call__(self, case: Case) -> str:
        textio, report = self.textio, self.report
        text = case.text
        if textio.sniff_kind(text) == "log":
            source = textio.parse_log(text)
        else:
            source = textio.parse_presentation(text)
        options = report.ReportOptions(
            target=self.orders.parse_target_spec(case.target),
            phi_spec=case.phi,
            scan_bounds=case.scan,
        )
        return report.report_json(report.full_report(source, options, input_text=text))


class CliCall:
    """One fresh ``python -m npicheck.cli`` process per report."""

    def __init__(self, cases: list[Case], work: Path, traced: bool = False) -> None:
        self.work = work
        self.traced = traced
        self.env = child_env()
        self.paths = {}
        for i, case in enumerate(cases):
            path = work / f"input{i}.txt"
            path.write_text(case.text)
            self.paths[case.name] = str(path)
        self.peak_rss_kb = 0
        self.totals: list[dict] = []
        self.calls = 0

    def __call__(self, case: Case) -> str:
        args = case.cli_args(self.paths[case.name])
        if self.traced:
            totals_path = self.work / "totals.json"
            spans_path = self.work / f"spans-op{self.calls}.jsonl"
            argv = [sys.executable, str(HERE / "cli_traced.py"), str(totals_path), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "npicheck.cli"]
        self.calls += 1
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(argv + args, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {err_path.read_text()[-300:]}")
        if self.traced:
            self.totals.append(json.loads(totals_path.read_text()))
        return out_path.read_text()


@dataclass
class Run:
    spans: list[tuple[float, float]] = field(default_factory=list)  # perf_counter
    wall: list[float] = field(default_factory=list)  # span less the speed sampler's time
    latencies: list[float] = field(default_factory=list)  # at the reference speed
    first: dict = field(default_factory=dict)  # case index -> first output (None: raised)
    ops: list[int] = field(default_factory=list)
    bad: list[int] = field(default_factory=list)  # raised, or output differs from the first
    pass_rates: list[float] = field(default_factory=list)  # reports per second, per pass
    errors: list[str] = field(default_factory=list)

    def throughput(self) -> float:
        return statistics.median(self.pass_rates)


def measure(cases: list[Case], budget: float, op, clock: HostClock,
            tracer: Tracer | None = None) -> Run:
    """Closed loop, one caller: whole passes over the cases until ``budget``
    seconds have gone, so every pass has the same mix of inputs.

    Operation times are scaled to the reference host speed by ``clock``,
    which samples the speed while the loop runs (see hostspeed.py).
    Throughput is the median over passes of reports per second in a pass.
    """
    run = Run(ops=[0] * len(cases), bad=[0] * len(cases))
    perf = time.perf_counter
    start = perf()
    while True:
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.begin_op(len(run.spans))
            spent, t0 = clock.spent, perf()
            try:
                out = op(case)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                run.errors.append(f"{case.name}: {exc!r}"[:300])
            t1 = perf()
            run.spans.append((t0, t1))
            # The sampler's time is not the operation's: a CLI child shares
            # the one CPU with this process, so the sampler pauses it too.
            run.wall.append(t1 - t0 - (clock.spent - spent))
            if tracer is not None:
                tracer.end_op()
            run.ops[i] += 1
            if i not in run.first:
                run.first[i] = out
            if out is None or out != run.first[i]:
                run.bad[i] += 1
        if perf() - start >= budget:
            break
    run.latencies = [w * clock.speed(*span) for w, span in zip(run.wall, run.spans)]
    n = len(cases)
    run.pass_rates = [n / sum(run.latencies[j:j + n]) for j in range(0, len(run.spans), n)]
    return run


def check_outputs(cases: list[Case], run: Run, inproc: InProcess) -> dict[int, list[str]]:
    """Problems per case index, from the first output of each case."""
    problems = {}
    for i, case in enumerate(cases):
        out = run.first.get(i)
        if out is None:
            problems[i] = ["the operation raised"]
            continue
        try:
            twin = None
            if case.tree_twin is not None:
                twin = json.loads(inproc(Case(case.name + "-twin", case.tree_twin)))
            found = checks.check_report(case, out, twin)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"unreadable report: {exc!r}"]
        if found:
            problems[i] = found
    return problems


def failed_ops(run: Run, problems: dict[int, list[str]]) -> int:
    return sum(run.ops[i] if i in problems else run.bad[i] for i in range(len(run.ops)))


def tail(latencies: list[float], cap: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest ladder percentile
    up to ``cap`` with at least TAIL_BEYOND samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (p for p in TAIL_LADDER if p <= cap):
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND or p == TAIL_LADDER[-1]:
            return p, ordered[max(rank, 1) - 1], n - rank
    raise AssertionError("unreachable")


def measure_setup(warm_text: str | None) -> list[float]:
    """Start-to-ready wall seconds of fresh interpreters."""
    wall = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        argv = [sys.executable, "-c", SETUP_CODE] + ([warm_text] if warm_text else [])
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, check=True)
        wall.append(float(proc.stdout) - t0)
    return wall


def import_times() -> dict[str, float]:
    """Self times of numpy and npicheck modules from ``python -X importtime``."""
    numpy_ms, own_ms = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import npicheck"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              check=True)
        totals = {"numpy": 0, "npicheck": 0}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            top = parts[2].strip().split(".")[0]
            if top in totals:
                totals[top] += int(parts[0])
        numpy_ms.append(totals["numpy"] / 1000)
        own_ms.append(totals["npicheck"] / 1000)
    return {"import.numpy_ms": statistics.median(numpy_ms),
            "import.npicheck_ms": statistics.median(own_ms)}


def environment(seed: int) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    revision = None
    with contextlib.suppress(OSError):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "seed": seed,
    }


def input_sizes(cases: list[Case]) -> dict[str, int]:
    """Inputs per pass, grouped by the name stem (``lot12-3`` -> ``lot12``)."""
    sizes: dict[str, int] = {}
    for case in cases:
        stem = case.name.split("-")[0]
        sizes[stem] = sizes.get(stem, 0) + 1
    return sizes


def end_to_end(workload: str, cases: list[Case], seconds: float,
               clock: HostClock) -> tuple[dict, dict, int, int]:
    warm = None if workload == "cli-report" else golden_samples(ROOT)[0].text
    setup_start = time.perf_counter()
    setup_walls = measure_setup(warm)
    work = WORK / workload
    inproc = None
    if workload == "cli-report":
        op = CliCall(cases, work)
    else:
        inproc = op = InProcess()
        op(Case("warm-up", warm))
    run = measure(cases, seconds, op, clock)
    # Set-up is timed at both ends of the run, so that one slow stretch of
    # the host does not set it.  The samples taken while one interpreter
    # starts are too few to scale it, so the whole run's mean speed does.
    setup_walls += measure_setup(warm)
    setup_wall_s = statistics.median(setup_walls)
    setup_s = setup_wall_s * clock.speed(setup_start, time.perf_counter())
    if workload == "cli-report":
        peak_kb = op.peak_rss_kb
        inproc = InProcess()
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = check_outputs(cases, run, inproc)
    failed = failed_ops(run, problems)
    attempted = len(run.latencies)
    p, tail_value, beyond = tail(run.latencies, WORKLOADS[workload])
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (run.throughput(), "1/s"),
        "latency_ms.p50": (1000 * statistics.median(run.latencies), "ms"),
        "latency_ms.tail": (1000 * tail_value, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    summary = {
        "failed_share": failed / attempted,
        "samples": attempted,
        "passes": len(run.pass_rates),
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "host_speed": clock.speed(run.spans[0][0], run.spans[-1][1]),
        "wall": {
            "setup_s": setup_wall_s,
            "throughput_per_s": len(run.wall) / sum(run.wall),
            "latency_ms.p50": 1000 * statistics.median(run.wall),
            "latency_ms.tail": 1000 * tail(run.wall, WORKLOADS[workload])[1],
        },
        "problems": {cases[i].name: v for i, v in problems.items()},
        "errors": run.errors[:5],
    }
    return metrics, summary, attempted, failed


def per_layer(workload: str, cases: list[Case], seconds: float,
              clock: HostClock) -> tuple[dict, dict, int, int]:
    """Untraced then traced halves of the run; layer metrics from the traced one."""
    work = WORK / workload
    inproc = InProcess()
    if workload == "cli-report":
        untraced_op = CliCall(cases, work)
    else:
        untraced_op = inproc
        inproc(Case("warm-up", golden_samples(ROOT)[0].text))
    plain = measure(cases, seconds / 2, untraced_op, clock)

    tracer = Tracer()
    tracer.install()
    self_check = tracer.unbound_references()
    by_latency = sorted(range(len(cases)), key=lambda i: plain.latencies[i])
    probe_case = cases[by_latency[len(cases) // 2]]
    if workload == "cli-report":
        cli_mod = sys.modules["npicheck.cli"]
        buffer = io.StringIO()

        def probe() -> None:
            with contextlib.redirect_stdout(buffer):
                cli_mod.run(probe_case.cli_args(untraced_op.paths[probe_case.name]))
        self_check += tracer.missed_calls(probe)
        if buffer.getvalue() != plain.first[cases.index(probe_case)]:
            self_check.append("in-process CLI output differs from the CLI process")
        traced_op = CliCall(cases, work, traced=True)
        traced = measure(cases, seconds / 2, traced_op, clock)
        totals = merge_totals(traced_op.totals)
        for part in traced_op.totals:
            self_check += part["unbound"]
    else:
        self_check += tracer.missed_calls(lambda: inproc(probe_case))
        tracer.reset()
        traced = measure(cases, seconds / 2, inproc, clock, tracer)
        totals = tracer.totals()
        tracer.write(work / "spans.jsonl")
    for i in range(len(cases)):
        if traced.first.get(i) != plain.first.get(i):
            self_check.append(f"{cases[i].name}: traced report differs from untraced")
    problems = check_outputs(cases, plain, inproc)
    failed = failed_ops(plain, problems) + failed_ops(traced, problems)
    attempted = len(plain.latencies) + len(traced.latencies)
    ops = len(traced.latencies)
    metrics = layer_metrics(totals, ops, clock.speed(traced.spans[0][0], traced.spans[-1][1]))
    metrics.update({k: (v, "ms") for k, v in import_times().items()})
    ratio = plain.throughput() / traced.throughput()
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    layer_ms = {layer: metrics[f"{layer}.self_ms"][0] for layer in LAYERS}
    if workload == "cli-report":
        layer_ms["start-up"] = (metrics["import.numpy_ms"][0]
                                + metrics["import.npicheck_ms"][0])
    summary = {
        "traced_samples": ops,
        "spans": totals["spans"],
        "hot_layer": max(layer_ms, key=layer_ms.get),
        "self_ms_by_layer": {k: round(v, 4) for k, v in layer_ms.items()},
        "tracer_self_check": self_check or "ok",
        "problems": {cases[i].name: v for i, v in problems.items()},
        "errors": (plain.errors + traced.errors)[:5],
    }
    if self_check:
        failed = max(failed, 1)
    return metrics, summary, attempted, failed


def layer_metrics(totals: dict, ops: int, speed: float) -> dict:
    """Per-operation layer figures; self times at the reference host speed."""
    calls = dict(zip(totals["names"], totals["calls"]))
    self_s = dict(zip(totals["names"], totals["self_s"]))
    counters = totals["counters"]
    per_op = lambda x: x / ops  # noqa: E731
    out = {f"{layer}.self_ms": (1000 * speed * per_op(totals["layer_self_s"][layer]), "ms/op")
           for layer in LAYERS}
    count = lambda name: (per_op(calls[name]), "count/op")  # noqa: E731
    checks_run = calls["minima.check_presentation"]
    graphs = calls["complexes.canonical_graph"]
    out.update({
        "textio.calls": (per_op(sum(v for k, v in calls.items() if k.startswith("textio."))), "count/op"),
        "textio.bytes": (per_op(counters.get("textio.bytes", 0)), "bytes/op"),
        "words.validate.calls": count("words.validate"),
        "homology.smith.calls": count("homology.smith_normal_form"),
        "homology.weight_candidates": (per_op(counters.get("homology.weight_candidates", 0)), "count/op"),
        "orders.handle_reduce.calls": count("orders.handle_reduce"),
        "orders.handle_reduce.letters_in": (per_op(counters.get("orders.handle_reduce.letters_in", 0)), "count/op"),
        "minima.check.calls": count("minima.check_presentation"),
        "minima.concat.calls": count("minima.weak_concatenability"),
        "minima.concat.self_ms": (1000 * speed * per_op(self_s["minima.weak_concatenability"]),
                                  "ms/op"),
        "minima.concat.max_k": (counters.get("minima.concat.max_k", 0), "count"),
        "minima.useful_ratio": (counters.get("minima.check.concatenable", 0) / checks_run
                                if checks_run else 0.0, "ratio"),
        "logs.forest.calls": count("logs.is_forest"),
        "cover.verify.calls": count("cover.verify_weak_slim_certificate"),
        "cover.cells": (per_op(counters.get("cover.cells", 0)), "count/op"),
        "complexes.canonical_graph.calls": count("complexes.canonical_graph"),
        "complexes.canonical_graph.distinct_ratio": (totals["distinct_graphs"] / graphs
                                                     if graphs else 0.0, "ratio"),
        "complexes.canonical_complex.calls": count("complexes.canonical_complex"),
        "complexes.collapsible.calls": count("complexes.collapsible"),
        "complexes.candidates": (per_op(counters.get("complexes.candidates", 0)), "count/op"),
        "report.json_bytes": (per_op(counters.get("report.json_bytes", 0)), "bytes/op"),
    })
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cases = make_cases(workload, seed, ROOT)
    with HostClock() as clock:
        if trace:
            metrics, summary, attempted, failed = per_layer(workload, cases, seconds, clock)
        else:
            metrics, summary, attempted, failed = end_to_end(workload, cases, seconds, clock)
    summary.update(
        workload=workload,
        trace=int(trace),
        inputs_per_pass=len(cases),
        input_sizes=input_sizes(cases),
        environment=environment(seed),
        probes=probes.run_probes(ROOT, work, child_env()),
    )
    for name, (value, unit) in metrics.items():
        print(f"{workload:<20} {name:<42} {value:>14.6g} {unit}")
    if not trace:
        print(f"{workload:<20} {'failed_share':<42} {summary['failed_share']:>14.6g} ratio")
    print(json.dumps({"summary": summary}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in turn, each in its own process so peak RSS stays its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in (SRC / "npicheck", ROOT / "tests" / "golden") if not p.is_dir()]
    if missing:
        print(f"error: run from an npicheck checkout; missing {missing[0]}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
