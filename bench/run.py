"""Run a scatterset benchmark workload and print its metrics.

Usage, from the repository root (standard library only, no build step):

    python3 bench/run.py --workload dp-midwidth --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One client runs the workload's fixed request list as a closed loop: each
request is an in-process ``scatterset.cli.main([...])`` call on files that
set-up generated from the seed, and the next starts when it returns.
Passes repeat until ``--seconds`` have elapsed.  Every answer is checked
against the pinned results after its timing ends.

``--trace 0`` reports the end-to-end metrics: medians over passes of times
in reference seconds (wall time scaled by a calibration loop timed between
requests, see ``calibrate``), plus the peak resident memory of one more,
untimed pass in a fresh interpreter.  ``--trace 1`` counts work in one pass,
then alternates untraced passes with passes whose calls into the program's
modules are wrapped in spans, and reports per-layer self times (reference
seconds as well) and counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every answer was right, 1 when any was wrong, and 2 when the program
sources are missing.  A record with provenance (machine, nproc, Python,
commit, seed) and, for traced runs, every span is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

from tracing import SETUP_METRICS, Tracer  # noqa: E402
from workloads import COMMANDS, WORKLOADS, build_requests, check, load_pinned  # noqa: E402

PROGRAM_MODULES = ("cli", "graph_core", "decomp", "tw_exact", "tw_approx", "vc_fpt", "gadgets", "oracle")
SETUP_REPEATS = 5
CAL_LOOP = 6000  # iterations of the calibration loop: about 1 ms on an idle 2.1 GHz x86_64 vCPU
CAL_REFERENCE_S = 0.001

# End-to-end metrics of an untraced run, in print order, with units.
END_TO_END = {"setup_s": "s", "pass_s": "s", "solve_tw_s": "s", "peak_mib": "MiB"}


def _no_span(name: str):
    return nullcontext()


@dataclass
class PassResult:
    seconds: float = 0.0  # wall time of the requests
    ref_seconds: float = 0.0  # the same in reference seconds (see `calibrate`)
    ref_by_command: dict[str, float] = field(default_factory=dict)
    scales: list[float] = field(default_factory=list)  # reference seconds per second, per request
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def forget_program() -> None:
    """Drop the imported package, so that the next set-up pays for importing it."""
    for name in [m for m in sys.modules if m == "scatterset" or m.startswith("scatterset.")]:
        del sys.modules[name]


def import_program() -> SimpleNamespace:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(
        **{m: importlib.import_module(f"scatterset.{m}") for m in PROGRAM_MODULES}
    )


def setup(workload: str, profile: str, seed: int, workdir: Path, span=_no_span):
    program = import_program()
    requests = build_requests(workload, profile, seed, workdir, program, span, load_pinned())
    return program, requests


def run_request(main, req) -> tuple[float, str | None]:
    """Time one CLI call, then check its answer; returns (seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(req.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed request; the run goes on
            code, crash = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if crash is not None:
        return elapsed, crash
    report = None
    if code == 0:
        try:
            report = json.loads(out.getvalue())
        except ValueError:
            pass
    problem = check(req, code, report)
    if problem is not None and err.getvalue().strip():
        problem += f" ({err.getvalue().strip().splitlines()[-1]})"
    return elapsed, problem


def calibrate() -> float:
    """Fastest of three runs of a fixed interpreter-bound loop, in seconds.

    The speed of a shared machine can swing twofold within seconds, and a
    pure-Python loop of dict and tuple work slows with it much as the
    solvers do.  Timings divided by the loop's time and multiplied by
    ``CAL_REFERENCE_S`` are in reference seconds: seconds on a machine where
    the loop takes exactly that long.  The collector is paused so the size
    of the program's heap cannot change the loop's time.
    """
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            table: dict = {}
            for i in range(CAL_LOOP):
                key = (i & 255, i % 7)
                table[key] = table.get(key, 0) + i
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        gc.enable()


def run_pass(main, requests) -> PassResult:
    """One pass over the requests, each timed between two calibrations."""
    result = PassResult(ref_by_command={c: 0.0 for c in COMMANDS})
    cal = calibrate()
    for req in requests:
        elapsed, problem = run_request(main, req)
        cal_after = calibrate()
        scale = CAL_REFERENCE_S * 2 / (cal + cal_after)
        cal = cal_after
        ref = elapsed * scale
        result.scales.append(scale)
        result.seconds += elapsed
        result.ref_seconds += ref
        result.ref_by_command[req.command] += ref
        result.attempted += 1
        if problem is not None:
            result.failures.append(f"{req.command} {req.instance.name} d={req.d}: {problem}")
    return result


def peak_pass(workload: str, profile: str, seed: int, workdir: Path) -> tuple[float, PassResult]:
    """One untimed pass in a fresh interpreter; returns (its peak RSS in MiB, result).

    tracemalloc would be the direct measure, but it slows the DP about
    twelvefold, so the child's resident-set high-water mark is used instead.
    """
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
        "print(json.dumps(run.peak_child(*sys.argv[2:])))"
    )
    argv = [sys.executable, "-c", code, str(BENCH_DIR), workload, profile, str(seed), str(workdir)]
    child = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=170)
    peak, attempted, failures = json.loads(child.stdout.splitlines()[-1])
    return peak, PassResult(attempted=attempted, failures=failures)


def peak_child(workload: str, profile: str, seed: str, workdir: str) -> tuple[float, int, list[str]]:
    program, requests = setup(workload, profile, int(seed), Path(workdir))
    result = run_pass(program.cli.main, requests)
    return peak_rss_mib(), result.attempted, result.failures


def peak_rss_mib() -> float:
    """This process's resident-set high-water mark (VmHWM), in MiB."""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise OSError("VmHWM not reported")


def measure(workload: str, seed: int, seconds: float, workdir: Path, profile: str = "full") -> dict:
    """End-to-end metrics of an untraced run, as medians in reference seconds.

    Set-up is repeated between passes, so that its samples span the run as
    the passes do.  Medians of the raw wall times go into the record too.
    """
    setup_times: list[tuple[float, float]] = []  # (seconds, reference seconds)

    def timed_setup():
        forget_program()
        cal = calibrate()
        start = time.perf_counter()
        made = setup(workload, profile, seed, workdir)
        elapsed = time.perf_counter() - start
        setup_times.append((elapsed, elapsed * CAL_REFERENCE_S * 2 / (cal + calibrate())))
        return made

    program, requests = timed_setup()
    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()
        passes.append(run_pass(program.cli.main, requests))
        program, requests = timed_setup()
    while len(setup_times) < SETUP_REPEATS:
        timed_setup()
    peak_mib, peak_result = peak_pass(workload, profile, seed, workdir)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup_times),
        "pass_s": statistics.median(p.ref_seconds for p in passes),
    }
    for command in sorted({req.command for req in requests}):
        metrics[f"{command}_s"] = statistics.median(p.ref_by_command[command] for p in passes)
    metrics["peak_mib"] = peak_mib
    metrics["wall.setup_s"] = statistics.median(raw for raw, _ in setup_times)
    metrics["wall.pass_s"] = statistics.median(p.seconds for p in passes)
    units = {name: "MiB" if name == "peak_mib" else "s" for name in metrics}
    return {
        "metrics": metrics,
        "units": units,
        "samples": {"setups": len(setup_times), "passes": len(passes), "requests_per_pass": len(requests)},
        "runs": passes + [peak_result],
        "report": END_TO_END,
    }


def measure_traced(workload: str, seed: int, seconds: float, workdir: Path, profile: str = "full") -> dict:
    """Per-layer metrics: counts from one counting pass, times from span-only passes.

    Times are in reference seconds: each request's spans are scaled by the
    calibration taken around that request.
    The clearance-hook counters run millions of times and would distort self
    times, so they are installed for the first (counting) pass only; counts
    are deterministic, so one pass gives them.  Then untraced and span-only
    passes alternate until `seconds` have elapsed, so both see the same
    machine state; the difference of their medians is the tracing overhead.
    """
    tracer = Tracer()
    cal = calibrate()
    program, requests = setup(workload, profile, seed, workdir, tracer.span)
    scale = CAL_REFERENCE_S * 2 / (cal + calibrate())
    metrics = {
        metric: scale * sum(end - start for name, start, end, _ in tracer.spans if name == span)
        for metric, span in SETUP_METRICS.items()
    }
    modules = {m: getattr(program, m) for m in PROGRAM_MODULES}
    traced_main = tracer.wrap(program.cli.main, "cli.main")

    def traced_pass(hooks: bool) -> tuple[PassResult, dict]:
        gc.collect()
        tracer.install(modules, hooks)
        tracer.reset_pass()
        first, runs_before = len(tracer.spans), getattr(program.tw_exact, "ENGINE_RUNS", None)
        try:
            result = run_pass(traced_main, requests)
        finally:
            tracer.uninstall()
        runs_after = getattr(program.tw_exact, "ENGINE_RUNS", None)
        engine_runs = None if runs_before is None or runs_after is None else runs_after - runs_before
        values = tracer.pass_metrics(first, result.scales, engine_runs)
        tracer.reset_pass()  # let go of the nice forms kept for the counts
        return result, values

    counted, counts = traced_pass(hooks=True)
    metrics.update((k, v) for k, v in counts.items() if not k.endswith("_s"))
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    per_pass: list[dict] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # Take turns going first, so that an effect of order is not read as overhead.
        for with_spans in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not with_spans:
                gc.collect()
                untraced.append(run_pass(program.cli.main, requests))
                continue
            result, values = traced_pass(hooks=False)
            layers = sum(v for k, v in values.items() if k.endswith(".self_s"))
            values["trace.pass_s"] = result.ref_seconds
            values["trace.unattributed_s"] = result.ref_seconds - layers
            traced.append(result)
            per_pass.append(values)
    for name in per_pass[0]:
        if name.endswith("_s"):
            metrics[name] = statistics.median(p[name] for p in per_pass)
    metrics["trace.untraced_pass_s"] = statistics.median(r.ref_seconds for r in untraced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
    return {
        "metrics": metrics,
        "units": units,
        "samples": {"traced_passes": len(traced), "untraced_passes": len(untraced), "requests_per_pass": len(requests)},
        "runs": [counted] + untraced + traced,
        "report": units,
        "spans": tracer.spans,
        "missing": sorted(tracer.missing),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "system": platform.platform(),
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        measured = (measure_traced if trace else measure)(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runs = measured["runs"]
    measured["attempted"] = sum(r.attempted for r in runs)
    measured["failures"] = [f for r in runs for f in r.failures]
    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(seed),
        "samples": measured["samples"],
        "metrics": {k: {"value": v, "unit": measured["units"][k]} for k, v in measured["metrics"].items()},
        "attempted": measured["attempted"],
        "failures": measured["failures"],
    }
    if trace:
        record["missing_targets"] = measured["missing"]
    stem = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        spans = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in measured["spans"]]
        Path(f"{stem}.spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    return measured


def print_workload(workload: str, seed: int, measured: dict) -> None:
    prov = provenance(seed)
    print(f"# workload {workload}: " + ", ".join(f"{k}={v}" for k, v in measured["samples"].items()))
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for name, value in measured["metrics"].items():
        shown = f"{value:14.6f}" if measured["units"][name] != "count" else f"{value:14d}"
        print(f"{workload:14s} {name:28s} {shown} {measured['units'][name]}")
    print(f"{workload:14s} {'fail_ratio':28s} {len(measured['failures'])}/{measured['attempted']}")
    for failure in measured["failures"][:20]:
        print(f"# FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scatterset" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in workloads:
        measured = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print_workload(workload, args.seed, measured)
        attempted += measured["attempted"]
        failed += len(measured["failures"])
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, unit in measured["report"].items():
            if name in measured["metrics"]:
                metrics[prefix + name] = {"value": measured["metrics"][name], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
