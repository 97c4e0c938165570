"""Benchmark workloads: the seeded trace files and the checks run over them.

Every workload is a fixed list of ``mtlcheck check`` invocations over trace
files that ``write_traces`` produces from the workload seed.  The program
under test only ever sees those files.

``wide`` and ``decomposed`` run byte-identical traces and formulas and
differ only in ``--k``, so their memory figures compare the undecomposed
and decomposed pipelines like for like.  ``sparse-nested`` uses the engine
differently: timestamps have gaps, so marker seeding takes its
non-contiguous branch, and boolean joins and until dominate.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import BinaryIO, Optional

UNIT_ELEMENTS = 10_500   # > 10,001, so F[0,10000] fills its whole window
SPARSE_ELEMENTS = 4_000
ALPHABET = 20            # atoms p, p2..p20 and q, as in `mtlcheck generate -m 20`
DECOMPOSED_K = 1000
SPARSE_K = 100


@dataclass(frozen=True)
class Check:
    """One `mtlcheck check` run: formula, trace file name and window budget."""

    formula: str
    trace: str
    k: Optional[int]

    def argv(self, workdir: str) -> list[str]:
        argv = ["check", os.path.join(workdir, self.trace), "-f", self.formula]
        if self.k is not None:
            argv += ["--k", str(self.k)]
        return argv


# The undecomposed shapes of the paper plus a lower-bounded window, which
# takes the engine's fallback scan for window probes.  Verdicts: true,
# false (q never occurs), true (p occurs in about half the elements).
UNIT_CHECKS = (
    ("F[0,10000] p", "force_p.trace"),
    ("G[0,10000] q", "suppress_q.trace"),
    ("F[2000,4000] p", "plain.trace"),
)
UNIT_TRACES = {
    "force_p.trace": dict(force_p=True, suppress_q=False),
    "suppress_q.trace": dict(force_p=False, suppress_q=True),
    "plain.trace": dict(force_p=False, suppress_q=False),
}

# Verdicts: true, true, false for every seed; see write_sparse_trace.
SPARSE_FORMULAS = (
    "G[0,1000] (p2 -> F[0,50] p3)",
    "p2 U[0,200] p3",
    "G[0,300] (p4 -> F[0,3] p5)",
)

WORKLOADS: dict[str, tuple[Check, ...]] = {
    "wide": tuple(Check(f, t, None) for f, t in UNIT_CHECKS),
    "decomposed": tuple(Check(f, t, DECOMPOSED_K) for f, t in UNIT_CHECKS),
    "sparse-nested": tuple(Check(f, "sparse.trace", SPARSE_K) for f in SPARSE_FORMULAS),
}

TRACE_ELEMENTS = {**{name: UNIT_ELEMENTS for name in UNIT_TRACES}, "sparse.trace": SPARSE_ELEMENTS}


def elements_per_run(workload: str) -> int:
    """Trace elements checked by one run of the workload: all its checks."""
    return sum(TRACE_ELEMENTS[check.trace] for check in WORKLOADS[workload])


def write_sparse_trace(n: int, seed: int, out: BinaryIO) -> None:
    """Write n elements with timestamp gaps of 1 to 5.

    Atoms are drawn like ``mtlcheck generate -m 20``.  Three plants keep
    the sparse formulas' verdicts the same for every seed: p2 holds at
    elements 0-8 and p3 at every element whose index ends in 9, so
    ``p2 U[0,200] p3`` holds and every p2 sees a p3 at most 9 gaps of 5
    ahead (``G[0,1000] (p2 -> F[0,50] p3)`` holds); element 0 holds p4 but
    not p5 and element 1 comes 4 or 5 later, so
    ``G[0,300] (p4 -> F[0,3] p5)`` fails at element 0.
    """
    rng = random.Random(seed)
    pool = ["p"] + [f"p{i}" for i in range(2, ALPHABET + 1)] + ["q"]
    tau = 0
    for i in range(n):
        picks = {rng.choice(pool) for _ in range(rng.randint(1, ALPHABET))}
        if i < 9:
            picks.add("p2")
        if i % 10 == 9:
            picks.add("p3")
        if i == 0:
            picks.add("p4")
            picks.discard("p5")
        tau += rng.randint(4, 5) if i == 1 else rng.randint(1, 5)
        out.write(f"{tau} {' '.join(sorted(picks))}\n".encode("ascii"))


def write_traces(workload: str, seed: int, workdir: str) -> None:
    """Produce the workload's trace files in workdir from the seed."""
    from mtlcheck.trace import GeneratorConfig, generate_trace

    for name in sorted({check.trace for check in WORKLOADS[workload]}):
        with open(os.path.join(workdir, name), "wb") as fh:
            if name == "sparse.trace":
                write_sparse_trace(SPARSE_ELEMENTS, seed, fh)
            else:
                cfg = GeneratorConfig(n=UNIT_ELEMENTS, m=ALPHABET, seed=seed, **UNIT_TRACES[name])
                generate_trace(cfg, fh)
