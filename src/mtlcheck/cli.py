"""Command-line interface for the trace checker.

Subcommands:

``check``
    Check a formula over a trace, either with the MapReduce-style pipeline
    (default) or with the reference evaluator (``--oracle``).  With ``--k``
    the formula is translated and decomposed so no reducer window has to
    span more than the budget.  Prints ``VERDICT: true`` or
    ``VERDICT: false``; the exit status is 0 for true, 1 for false and 2
    for configuration or input errors.

``translate``
    Print the lazy-semantics translation of a formula.

``decompose``
    Print a formula rewritten so every window is bounded by the budget.

``generate``
    Write a pseudo-random monitoring trace.

``bench``
    Run the window-size benchmark over generated traces and emit CSV.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from typing import Optional, Sequence

from .engine import EngineError, input_read, run_pipeline
from .formula import FormulaError, parse_formula, to_text
from .semantics import (
    ANCHOR_FIRST,
    ANCHOR_ZERO,
    LAZY,
    POINT,
    EvaluationError,
    eval_lazy,
    eval_point,
    eval_table,
)
from .trace import GeneratorConfig, TraceError, generate_trace, parse_trace
from .transforms import TransformError, decompose, lazy_translation

BENCH_CSV_COLUMNS = (
    "formula",
    "N",
    "K",
    "trace_n",
    "wall_ms",
    "peak_win_records",
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line like any other input error, as one
    ``error:`` line with exit status 2, instead of argparse's usage block."""

    def error(self, message: str):
        raise _UsageError(message)


def _read_trace_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _checked_formula_for_oracle(formula, semantics: str, budget: Optional[int]):
    """The formula the oracle route actually evaluates: the user formula in
    point semantics, its lazy translation in lazy semantics, and the
    decomposed translation when a window budget is given."""
    if budget is not None:
        return decompose(lazy_translation(formula), budget)
    if semantics == LAZY:
        return lazy_translation(formula)
    return formula


def cmd_check(args: argparse.Namespace) -> int:
    semantics = args.semantics
    anchor = args.anchor
    budget = args.k
    if budget is not None and budget < 1:
        return _fail("--k must be a positive integer")
    if anchor == ANCHOR_ZERO and semantics != LAZY:
        return _fail("--anchor zero requires --semantics lazy")
    if semantics == LAZY and not args.oracle and budget is None:
        return _fail("lazy pipeline checking requires --k (or use --oracle)")
    if args.stats and args.oracle:
        return _fail("--stats requires the pipeline route")

    try:
        formula = parse_formula(args.formula)
    except FormulaError as exc:
        return _fail(str(exc))

    try:
        word, first_instant = input_read(_read_trace_bytes(args.trace).splitlines())
    except (TraceError, OSError) as exc:
        return _fail(str(exc))

    anchor_instant = 0 if anchor == ANCHOR_ZERO else first_instant

    try:
        if args.oracle:
            target = _checked_formula_for_oracle(formula, semantics, budget)
            if budget is not None or semantics == LAZY:
                verdict_value = eval_lazy(word, anchor_instant, target)
            else:
                verdict_value = eval_point(word, 0, target)
            stats = None
        else:
            result = run_pipeline(
                word,
                formula,
                semantics=semantics,
                window_budget=budget,
                anchor=anchor,
            )
            verdict_value = result.verdict
            stats = result.stats
    except (TransformError, EvaluationError, EngineError) as exc:
        return _fail(str(exc))

    if args.table is not None:
        try:
            target = _checked_formula_for_oracle(formula, semantics, budget)
            table = eval_table(word, target, LAZY if (budget is not None or semantics == LAZY) else POINT)
            text = table.tsv_text()
        except (TransformError, EvaluationError) as exc:
            return _fail(str(exc))
        if args.table == "-":
            sys.stdout.write(text)
        else:
            try:
                with open(args.table, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                return _fail(str(exc))

    if args.stats and stats is not None:
        print(json.dumps(stats.to_json_dict(), indent=2))
    print(f"VERDICT: {'true' if verdict_value else 'false'}")
    return 0 if verdict_value else 1


def cmd_translate(args: argparse.Namespace) -> int:
    try:
        formula = parse_formula(args.formula)
        print(to_text(lazy_translation(formula)))
    except (FormulaError, TransformError) as exc:
        return _fail(str(exc))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    if args.k < 1:
        return _fail("--k must be a positive integer")
    try:
        formula = parse_formula(args.formula)
        print(to_text(decompose(formula, args.k)))
    except (FormulaError, TransformError) as exc:
        return _fail(str(exc))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.n < 1:
        return _fail("-n must be a positive integer")
    if args.m < 1:
        return _fail("-m must be a positive integer")
    cfg = GeneratorConfig(
        n=args.n,
        m=args.m,
        seed=args.seed,
        force_p=args.force_p,
        suppress_q=args.suppress_q,
    )
    try:
        if args.output == "-":
            count, nbytes = generate_trace(cfg, sys.stdout.buffer)
            sys.stdout.buffer.flush()
        else:
            with open(args.output, "wb") as fh:
                count, nbytes = generate_trace(cfg, fh)
    except (TraceError, OSError) as exc:
        return _fail(str(exc))
    print(f"generated {count} elements ({nbytes} bytes)", file=sys.stderr)
    return 0


def _bench_trace(n: int, m: int, seed: int, *, force_p: bool, suppress_q: bool):
    cfg = GeneratorConfig(n=n, m=m, seed=seed, force_p=force_p, suppress_q=suppress_q)
    buf = io.BytesIO()
    generate_trace(cfg, buf)
    buf.seek(0)
    return parse_trace(buf)


def cmd_bench(args: argparse.Namespace) -> int:
    if args.trace_n < 1 or args.m < 1:
        return _fail("trace sizes must be positive")
    windows = args.n
    budgets = args.k
    if any(n < 0 for n in windows) or any(k < 1 for k in budgets):
        return _fail("window sizes must be non-negative and budgets positive")

    templates = []
    if args.template in ("f", "both"):
        templates.append(("F[0,{N}] p", dict(force_p=True, suppress_q=False)))
    if args.template in ("g", "both"):
        templates.append(("G[0,{N}] q", dict(force_p=False, suppress_q=True)))

    try:
        out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        return _fail(str(exc))
    try:
        out.write(",".join(BENCH_CSV_COLUMNS) + "\n")
        out.flush()
        for template_text, trace_kwargs in templates:
            word = _bench_trace(args.trace_n, args.m, args.seed, **trace_kwargs)
            for window in windows:
                formula = parse_formula(template_text.format(N=window))
                for budget in [None] + list(budgets):
                    start = time.perf_counter()
                    result = run_pipeline(word, formula, semantics=POINT, window_budget=budget)
                    wall_ms = (time.perf_counter() - start) * 1000.0
                    row = (
                        to_text(result.table.root),
                        str(window),
                        "off" if budget is None else str(budget),
                        str(len(word)),
                        f"{wall_ms:.1f}",
                        str(result.stats.peak_win_records),
                    )
                    out.write(",".join(_csv_cell(c) for c in row) + "\n")
                    out.flush()
    except (FormulaError, TransformError, EngineError, TraceError, OSError) as exc:
        return _fail(str(exc))
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _csv_cell(value: str) -> str:
    if any(ch in value for ch in ",\"\n"):
        return '"' + value.replace('"', '""') + '"'
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mtlcheck",
        description="Check metric temporal logic formulas over timed traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check a formula over a trace")
    p_check.add_argument("trace", help="trace file path, or - for stdin")
    p_check.add_argument("-f", "--formula", required=True, help="formula text")
    p_check.add_argument(
        "--semantics", choices=(POINT, LAZY), default=POINT,
        help="interpretation to check (default: point)",
    )
    p_check.add_argument(
        "--anchor", choices=(ANCHOR_FIRST, ANCHOR_ZERO), default=ANCHOR_FIRST,
        help="instant the verdict is read at under lazy semantics",
    )
    p_check.add_argument(
        "--k", type=int, default=None, metavar="K",
        help="window budget: decompose so no window exceeds K",
    )
    p_check.add_argument(
        "--oracle", action="store_true",
        help="use the reference evaluator instead of the pipeline",
    )
    p_check.add_argument(
        "--stats", action="store_true",
        help="print the pipeline statistics envelope as JSON",
    )
    p_check.add_argument(
        "--table", metavar="FILE", default=None,
        help="also write the checked formula's full evaluation table (TSV; - for stdout)",
    )
    p_check.set_defaults(func=cmd_check)

    p_tr = sub.add_parser("translate", help="print the lazy-semantics translation")
    p_tr.add_argument("-f", "--formula", required=True, help="formula text")
    p_tr.set_defaults(func=cmd_translate)

    p_dec = sub.add_parser("decompose", help="bound every window by a budget")
    p_dec.add_argument("-f", "--formula", required=True, help="formula text")
    p_dec.add_argument("--k", type=int, required=True, metavar="K", help="window budget")
    p_dec.set_defaults(func=cmd_decompose)

    p_gen = sub.add_parser("generate", help="write a pseudo-random trace")
    p_gen.add_argument("-n", type=int, required=True, help="number of trace elements")
    p_gen.add_argument("-m", type=int, default=20, help="alphabet size (default 20)")
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p_gen.add_argument(
        "--force-p", action="store_true", help="make atom p hold at every element"
    )
    p_gen.add_argument(
        "--suppress-q", action="store_true", help="keep atom q out of the alphabet"
    )
    p_gen.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="window-size benchmark, CSV output")
    p_bench.add_argument(
        "--trace-n", type=int, default=100000, help="trace length (default 100000)"
    )
    p_bench.add_argument("-m", type=int, default=20, help="alphabet size (default 20)")
    p_bench.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p_bench.add_argument(
        "--n", type=_int_list, default=[10000, 50000], metavar="N[,N...]",
        help="window sizes to benchmark (default 10000,50000)",
    )
    p_bench.add_argument(
        "--k", type=_int_list, default=[1000, 5000], metavar="K[,K...]",
        help="window budgets; an undecomposed run is always included "
             "(default 1000,5000)",
    )
    p_bench.add_argument(
        "--template", choices=("f", "g", "both"), default="both",
        help="which formula templates to run (default both)",
    )
    p_bench.add_argument("-o", "--output", default="-", help="CSV file (default stdout)")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _fail(str(exc))
    try:
        return args.func(args)
    except Exception as exc:  # a defect, not a verdict: exit 1 would read as false
        message = " ".join(str(exc).split())
        return _fail(f"internal error: {type(exc).__name__}: {message}")


if __name__ == "__main__":
    sys.exit(main())
