"""Spans and memory readings taken from outside the program.

The program is not instrumented.  For a traced or memory run the benchmark
temporarily replaces module attributes of ``mtlcheck.cli`` and
``mtlcheck.engine`` with wrappers, and ``patched`` puts the originals back
when the run ends, so untraced timings call the program unchanged.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Iterator

MIB = 1024 * 1024

# (module, attribute, span name).  cli holds its own references to the
# functions it calls, and so does engine, so each is replaced where it is
# looked up.  Everything else the program runs is self time of the nearest
# enclosing span.
SPAN_POINTS = (
    ("cli", "parse_formula", "formula.parse"),
    ("cli", "analyze", "formula.analyze"),
    ("cli", "input_read", "trace.input_read"),
    ("cli", "run_pipeline", "engine.run_pipeline"),
    ("engine", "parse_trace_lines", "trace.parse_lines"),
    ("engine", "atom_records", "engine.atom_records"),
    ("engine", "analyze", "formula.analyze"),
    ("engine", "pipeline_formula", "transforms.plan"),
    ("engine", "shuffle_sort", "engine.sort"),
    ("engine", "check_dup", "engine.dedup"),
    ("engine", "reduce_window", "engine.window"),
    ("engine", "reduce_until", "engine.until"),
    ("engine", "reduce_join", "engine.join"),
)

ROOT_SPAN = "cli.check"
COUNT_SPAN = "bench.count"

# Per-layer time metric -> the spans whose self time it sums.
SELF_TIME_METRICS = {
    "cli.self_s": (ROOT_SPAN,),
    "trace.parse_s": ("trace.input_read", "trace.parse_lines"),
    "formula.parse_analyze_s": ("formula.parse", "formula.analyze"),
    "transforms.plan_s": ("transforms.plan",),
    "engine.atom_records_s": ("engine.atom_records",),
    "engine.shuffle_s": ("engine.run_pipeline",),
    "engine.sort_s": ("engine.sort",),
    "engine.dedup_s": ("engine.dedup",),
    "engine.window_s": ("engine.window",),
    "engine.join_s": ("engine.join",),
    "engine.until_s": ("engine.until",),
    "bench.count_s": (COUNT_SPAN,),
}


@contextlib.contextmanager
def patched(replacements: dict[tuple[object, str], object]) -> Iterator[None]:
    """Set module attributes for the duration of the block, then restore."""
    saved = {(mod, attr): getattr(mod, attr) for mod, attr in replacements}
    try:
        for (mod, attr), value in replacements.items():
            setattr(mod, attr, value)
        yield
    finally:
        for (mod, attr), value in saved.items():
            setattr(mod, attr, value)


def _count_records(name: str, args: tuple, result, counts: dict) -> None:
    if name == "trace.input_read":
        counts["trace.elements"] += len(result[0])
    elif name == "engine.run_pipeline":
        stats = result.stats
        counts["formula.keys"] += result.table.size
        counts["formula.height"] += stats.iterations
        counts["engine.records_in"] += sum(row.records_in for row in stats.reducers)
        counts["engine.records_out"] += sum(row.records_out for row in stats.reducers)
        slowest = max((row.iteration_ms for row in stats.reducers), default=0.0)
        counts["engine.reducer_ms_max"] = max(counts["engine.reducer_ms_max"], slowest)
    elif name == "engine.sort":
        from mtlcheck.engine import CHILD_MASK

        records = args[0]
        real = sum(map(bool, map((CHILD_MASK << 3).__and__, records)))
        counts["engine.sort_records"] += len(records)
        counts["engine.markers"] += len(records) - real
    elif name == "engine.dedup":
        counts["engine.dedup_in"] += len(args[0])
        counts["engine.dedup_dropped"] += len(args[0]) - len(result)
    elif name in ("engine.window", "engine.join", "engine.until"):
        counts[name + "_records"] += len(args[0])


class Tracer:
    """Records spans (name, start, end, parent span index, run id) in memory
    and record counts per run id at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(int))

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            # Counting is the tracer's own work: its span keeps it out of
            # the enclosing layer's self time.
            with self.span(COUNT_SPAN):
                _count_records(name, args, result, self.counts[self.run_id])
            return result

        return traced

    def replacements(self, modules: dict[str, object]) -> dict[tuple[object, str], object]:
        """Wrappers for every span point the program still has."""
        return {
            (modules[mod], attr): self.wrap(name, getattr(modules[mod], attr))
            for mod, attr, name in SPAN_POINTS
            if hasattr(modules[mod], attr)
        }

    def run_metrics(self, run_id: int) -> dict[str, float]:
        """Self times by layer and record counts for one traced run."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent is not None:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid == run_id:
                self_time[name] += end - start - child_time[index]
        out = {metric: sum(self_time[s] for s in names) for metric, names in SELF_TIME_METRICS.items()}
        out["bench.spans_s"] = sum(self_time.values())
        out.update(self.counts[run_id])
        return out

    def dump(self, path: str) -> None:
        """Write the spans out, one JSON line each."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "run": rid,
                }) + "\n")


class MemoryProbe:
    """tracemalloc readings at the input_read and run_pipeline boundaries.

    ``run_pipeline`` resets the tracemalloc peak on entry so its own peak
    can be read; the peak seen before the reset is kept, so ``check_peak``
    is still the peak over the whole check.
    """

    def __init__(self) -> None:
        self.word_bytes = 0
        self.pipeline_peak_bytes = 0
        self.peak_win_records = 0
        self._peak_before = 0

    def start_check(self) -> int:
        tracemalloc.reset_peak()
        self._peak_before = 0
        return tracemalloc.get_traced_memory()[0]

    def check_peak(self) -> int:
        return max(self._peak_before, tracemalloc.get_traced_memory()[1])

    def replacements(self, cli) -> dict[tuple[object, str], object]:
        input_read, run_pipeline = cli.input_read, cli.run_pipeline

        def probed_input_read(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            result = input_read(*args, **kwargs)
            grown = tracemalloc.get_traced_memory()[0] - before
            self.word_bytes = max(self.word_bytes, grown)
            return result

        def probed_run_pipeline(*args, **kwargs):
            entry, peak = tracemalloc.get_traced_memory()
            self._peak_before = max(self._peak_before, peak)
            tracemalloc.reset_peak()
            result = run_pipeline(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
            self._peak_before = max(self._peak_before, peak)
            self.pipeline_peak_bytes = max(self.pipeline_peak_bytes, peak - entry)
            self.peak_win_records = max(self.peak_win_records, result.stats.peak_win_records)
            return result

        return {(cli, "input_read"): probed_input_read, (cli, "run_pipeline"): probed_run_pipeline}
