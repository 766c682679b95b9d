"""What every workload shares: the run context, set-up repeats and the
timed closed loop."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Tuple

#: Set-up runs per benchmark run; ``setup_s`` reports their median.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Context:
    """Arguments of one benchmark run.

    Attributes:
        seed: Workload seed; drives every seed the program receives.
        seconds: Minimum time the timed loop runs.
        trace: Run the traced section and report per-layer metrics.
        tmp: Scratch directory inside the checkout, removed afterwards.
        import_s: Seconds spent importing numpy and the program.
    """

    seed: int
    seconds: float
    trace: bool
    tmp: Path
    import_s: float


def setup(ctx: Context, report, fn: Callable[[int], Any]) -> Any:
    """Run ``fn(k)`` ``SETUP_REPEATS`` times and record ``setup_s``
    (imports plus the median set-up); returns the last result."""
    times: List[float] = []
    value = None
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        value = fn(k)
        times.append(time.perf_counter() - start)
    report.end_to_end["setup_s"] = ctx.import_s + statistics.median(times)
    report.notes["setup.import_s"] = round(ctx.import_s, 4)
    report.notes["setup.repeats_s"] = [round(t, 4) for t in times]
    return value


def closed_loop(seconds: float, op: Callable[[], Any], min_ops: int = 1
                ) -> Tuple[List[Any], List[float]]:
    """Run ``op`` back to back until ``seconds`` have passed (and at
    least ``min_ops`` times); returns results and per-op wall times.

    Garbage left by the previous operation is collected, untimed, before
    each one, so neither its timing nor the peak RSS depends on when the
    cyclic collector happens to run.
    """
    results: List[Any] = []
    times: List[float] = []
    start = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - start < seconds:
        gc.collect()
        t0 = time.perf_counter()
        results.append(op())
        times.append(time.perf_counter() - t0)
    return results, times
