#!/usr/bin/env python3
"""End-to-end benchmark of `mtlcheck check` on seeded traces.

Run from the repository root::

    python3 perfbench/run.py --workload wide --seed 1 --seconds 8 --trace 0

Workloads are defined in workloads.py.  One process runs one check at a
time (closed loop, batch): each check calls ``mtlcheck.cli.main`` in
process with the CLI defaults, from trace file path to ``VERDICT`` line.
A run of the benchmark does, in order:

1. set-up: writes the workload's trace files;
2. reference verdicts with ``semantics.eval_point``, outside every timed
   region;
3. with ``--trace 0``, untraced workload runs for ``--seconds``; between
   them, every check once under tracemalloc (the memory pass), one fresh
   child process that runs the workload once for ``maxrss_mb``, and
   SETUP_REPEATS - 1 more set-ups; with ``--trace 1``, untraced and traced
   workload runs alternate for ``--seconds``, with the memory pass between
   them.

Times are scaled to a reference machine speed (see SpeedScale): on a
shared 2-core virtual machine the CPU speed was measured to change by up
to half for seconds to minutes at a time, whatever ran on it.  The
measured median run goes to stderr beside it.

Every check's exit status and VERDICT line are compared with the
reference.  A summary table goes to stderr; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from tracing import MIB, ROOT_SPAN, SPAN_POINTS, MemoryProbe, Tracer, patched  # noqa: E402
from workloads import WORKLOADS, elements_per_run, write_traces  # noqa: E402

SETUP_REPEATS = 6
CAL_REF_S = 0.0105  # calibrate() in the fast state of the reference machine; see README.md
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "elements_per_s": "elem/s",
    "peak_traced_mb": "MiB",
    "maxrss_mb": "MiB",
    "peak_win_records": "records",
    "setup_s": "s",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "trace.parse_s": "s",
    "trace.elements": "count",
    "trace.word_mb": "MiB",
    "formula.parse_analyze_s": "s",
    "formula.keys": "count",
    "formula.height": "count",
    "transforms.plan_s": "s",
    "engine.atom_records_s": "s",
    "engine.shuffle_s": "s",
    "engine.markers": "count",
    "engine.markers_per_element": "ratio",
    "engine.sort_s": "s",
    "engine.sort_records": "count",
    "engine.dedup_s": "s",
    "engine.dedup_in": "count",
    "engine.dedup_dropped": "count",
    "engine.dedup_drop_ratio": "ratio",
    "engine.window_s": "s",
    "engine.window_records": "count",
    "engine.join_s": "s",
    "engine.join_records": "count",
    "engine.until_s": "s",
    "engine.until_records": "count",
    "engine.records_in": "count",
    "engine.records_out": "count",
    "engine.reducer_ms_max": "ms",
    "engine.pipeline_peak_mb": "MiB",
    "bench.count_s": "s",
    "bench.spans_s": "s",
    "bench.traced_wall_s": "s",
    "bench.wall_s": "s",
    "bench.cpu_s": "s",
    "bench.calibration_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


class Tally:
    """Checks attempted and checks failed over the whole benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def call_main(main: Callable, argv: list[str]) -> tuple[Optional[int], str]:
    """Run one check in process; returns (exit status, stdout).  Any
    exception, RecursionError included, reads as status None."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed check, not a dead run
        print(f"check {argv} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        status = None
    return status, out.getvalue()


def verdict_ok(status: Optional[int], stdout_last: str, expected: bool) -> bool:
    word = "true" if expected else "false"
    return status == (0 if expected else 1) and stdout_last == f"VERDICT: {word}"


def last_line(text: str) -> str:
    lines = text.splitlines()
    return lines[-1] if lines else ""


def calibrate() -> float:
    """Time one pass of a fixed pure-Python reference loop: integer
    arithmetic, a sort, dict updates, and string joins and splits, the
    kinds of work the checker does.  It never changes with the program."""
    start = time.perf_counter()
    xs = [(i * 2654435761) & 0xFFFFFFFF for i in range(30000)]
    xs.sort(reverse=True)
    counts: dict[int, int] = {}
    for x in xs:
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
    words = " ".join(map(str, xs[:8000])).split()
    elapsed = time.perf_counter() - start
    if len(words) != 8000 or len(counts) != 1024:
        raise BenchError("calibration loop computed a wrong result")
    return elapsed


class SpeedScale:
    """Scales measured times to the reference machine speed.  A time is
    divided by the mean of the calibration loop runs just before and just
    after it, and multiplied by CAL_REF_S, the loop's time at that speed."""

    def __init__(self) -> None:
        self.calibration: list[float] = []

    def start(self) -> None:
        """Run the loop once; call before the first time of a series."""
        self.calibration.append(calibrate())

    def scale(self, elapsed: float) -> float:
        """Run the loop again and scale a time measured since the last run."""
        self.calibration.append(calibrate())
        return elapsed / ((self.calibration[-2] + self.calibration[-1]) / 2) * CAL_REF_S


def run_workload(speed: SpeedScale, main, argvs, expected, tally: Tally,
                 around=contextlib.nullcontext) -> tuple[float, float, float]:
    """Run every check of the workload once; returns the summed wall time
    of the checks as measured and as scaled to the reference speed, and
    their CPU time.  The verification and calibration between checks are
    not timed."""
    measured = scaled = cpu = 0.0
    speed.start()
    for argv, want in zip(argvs, expected):
        with around():
            start, cpu_start = time.perf_counter(), time.process_time()
            status, out = call_main(main, argv)
            elapsed = time.perf_counter() - start
            cpu += time.process_time() - cpu_start
        measured += elapsed
        scaled += speed.scale(elapsed)
        tally.record(verdict_ok(status, last_line(out), want))
    return measured, scaled, cpu


def timed_setup(speed: SpeedScale, workload: str, seed: int, workdir: str, setups: list[float]) -> None:
    speed.start()
    start = time.perf_counter()
    write_traces(workload, seed, workdir)
    setups.append(speed.scale(time.perf_counter() - start))


def reference_verdicts(checks, workdir: str) -> list[bool]:
    from mtlcheck.formula import parse_formula
    from mtlcheck.semantics import eval_point
    from mtlcheck.trace import parse_trace

    words = {}
    verdicts = []
    for check in checks:
        if check.trace not in words:
            with open(os.path.join(workdir, check.trace), "rb") as fh:
                words[check.trace] = parse_trace(fh)
        verdicts.append(eval_point(words[check.trace], 0, parse_formula(check.formula)))
    return verdicts


def memory_check(cli, argv, want, probe: MemoryProbe, tally: Tally) -> int:
    """Run one check under tracemalloc; returns its peak traced bytes."""
    tracemalloc.start()
    try:
        with patched(probe.replacements(cli)):
            base = probe.start_check()
            status, out = call_main(cli.main, argv)
            peak = probe.check_peak() - base
    finally:
        tracemalloc.stop()
    tally.record(verdict_ok(status, last_line(out), want))
    return peak


def interleaved(seconds: float, step: Callable[[], float], interludes: list[Callable[[], None]]) -> None:
    """Call step, which returns the time it measured, until it has measured
    `seconds` and run at least MIN_RUNS times.  The untimed interludes run
    at evenly spaced points in between, so the timed samples spread over
    the whole benchmark run: the machine's speed drifts over seconds."""
    pending = list(interludes)
    slots = len(pending) + 1
    measured = 0.0
    steps = 0
    while pending or steps < MIN_RUNS or measured < seconds:
        if pending and measured >= seconds * (slots - len(pending)) / slots:
            pending.pop(0)()
        else:
            measured += step()
            steps += 1


def child_maxrss(workload: str, workdir: str, expected, tally: Tally) -> float:
    """ru_maxrss in MiB of a fresh process that runs the workload once."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--maxrss-child", workdir],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise BenchError(f"maxrss child failed ({proc.returncode}): {proc.stderr.strip()}")
    report = json.loads(last_line(proc.stdout))
    for (status, line), want in zip(report["results"], expected):
        tally.record(verdict_ok(status, line, want))
    return report["maxrss_kib"] / 1024.0


def child_main(workload: str, workdir: str) -> int:
    from mtlcheck import cli

    results = []
    for check in WORKLOADS[workload]:
        status, out = call_main(cli.main, check.argv(workdir))
        results.append([status, last_line(out)])
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kib": maxrss_kib, "results": results}))
    return 0


def memory_interludes(cli, argvs, expected, tally: Tally, probe: MemoryProbe, peaks: list[int]):
    return [
        lambda argv=argv, want=want: peaks.append(memory_check(cli, argv, want, probe, tally))
        for argv, want in zip(argvs, expected)
    ]


def end_to_end(cli, speed: SpeedScale, workload, seed, argvs, expected, workdir, seconds, tally,
               setups: list[float]) -> dict[str, float]:
    probe = MemoryProbe()
    peaks: list[int] = []
    maxrss: list[float] = []
    runs: list[tuple[float, float, float]] = []

    def step() -> float:
        runs.append(run_workload(speed, cli.main, argvs, expected, tally))
        return runs[-1][0]

    # The repeated set-ups write to their own directory, so the checks' files stay untouched.
    setup_dir = os.path.join(workdir, "setup")
    os.mkdir(setup_dir)
    interludes = memory_interludes(cli, argvs, expected, tally, probe, peaks)
    interludes.append(lambda: maxrss.append(child_maxrss(workload, workdir, expected, tally)))
    interludes += [lambda: timed_setup(speed, workload, seed, setup_dir, setups)] * (SETUP_REPEATS - 1)
    interleaved(seconds, step, interludes)
    wall = statistics.median(scaled for _, scaled, _ in runs)
    measured = [run[0] for run in runs]
    print(f"{len(runs)} workload runs, {len(setups)} set-ups; measured run: median "
          f"{statistics.median(measured)}, min {min(measured)}, max {max(measured)}; "
          f"calibration loop median {statistics.median(speed.calibration)}", file=sys.stderr)
    return {
        "wall_s": wall,
        "elements_per_s": elements_per_run(workload) / wall,
        "peak_traced_mb": max(peaks) / MIB,
        "maxrss_mb": maxrss[0],
        "peak_win_records": probe.peak_win_records,
        "setup_s": statistics.median(setups),
    }


def per_layer(cli, engine, speed: SpeedScale, workload, argvs, expected, seconds, tally, seed) -> dict[str, float]:
    tracer = Tracer()
    modules = {"cli": cli, "engine": engine}
    missing = [f"{mod}.{attr}" for mod, attr, _ in SPAN_POINTS if not hasattr(modules[mod], attr)]
    if missing:
        print(f"unavailable span points (their metrics read 0): {missing}", file=sys.stderr)
    probe = MemoryProbe()
    untraced: list[float] = []
    cpu: list[float] = []
    traced: list[float] = []

    def step() -> float:
        measured, _, cpu_s = run_workload(speed, cli.main, argvs, expected, tally)
        untraced.append(measured)
        cpu.append(cpu_s)
        tracer.run_id = len(traced)
        with patched(tracer.replacements(modules)):
            traced.append(run_workload(speed, cli.main, argvs, expected, tally,
                                       around=lambda: tracer.span(ROOT_SPAN))[0])
        return untraced[-1] + traced[-1]

    interleaved(seconds, step, memory_interludes(cli, argvs, expected, tally, probe, []))
    runs = [tracer.run_metrics(i) for i in range(len(traced))]
    metrics = {name: statistics.median(run.get(name, 0.0) for run in runs)
               for name in PER_LAYER_UNITS}
    for ratio, part, base in (("engine.markers_per_element", "engine.markers", "trace.elements"),
                              ("engine.dedup_drop_ratio", "engine.dedup_dropped", "engine.dedup_in")):
        metrics[ratio] = metrics[part] / metrics[base] if metrics[base] else 0.0
    metrics["trace.word_mb"] = probe.word_bytes / MIB
    metrics["engine.pipeline_peak_mb"] = probe.pipeline_peak_bytes / MIB
    metrics["bench.traced_wall_s"] = statistics.median(traced)
    metrics["bench.wall_s"] = statistics.median(untraced)
    metrics["bench.cpu_s"] = statistics.median(cpu)
    metrics["bench.calibration_s"] = statistics.median(speed.calibration)
    # Traced and untraced runs alternate, so each pair saw about the same machine speed.
    metrics["bench.trace_overhead_ratio"] = statistics.median(t / u for t, u in zip(traced, untraced))
    spans_path = WORK_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.dump(str(spans_path))
    print(f"{len(traced)} traced and {len(untraced)} untraced workload runs; spans in {spans_path}",
          file=sys.stderr)
    return metrics


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--maxrss-child", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mtlcheck" / "__init__.py").is_file():
        print(f"error: no mtlcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.maxrss_child:
        return child_main(args.workload, args.maxrss_child)

    from mtlcheck import cli, engine

    checks = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    tally = Tally()
    try:
        speed = SpeedScale()
        setups: list[float] = []
        timed_setup(speed, args.workload, args.seed, workdir, setups)
        expected = reference_verdicts(checks, workdir)
        argvs = [check.argv(workdir) for check in checks]
        if args.trace:
            metrics = per_layer(cli, engine, speed, args.workload, argvs, expected, args.seconds, tally,
                                args.seed)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(cli, speed, args.workload, args.seed, argvs, expected, workdir,
                                 args.seconds, tally, setups)
            metrics["ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, unit in units.items():
        print(f"{args.workload:14} {name:28} {metrics[name]!r:>24} {unit}", file=sys.stderr)
    print(f"{args.workload:14} {'failed_ratio':28} {tally.failed / tally.attempted!r:>24} ratio "
          f"({tally.failed} of {tally.attempted} checks)", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
