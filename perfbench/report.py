"""Result collection, correctness bookkeeping and the output format."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: The metric lists (names, units, bounds) every run must report.
SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical(obj: object) -> str:
    """Key-sorted compact JSON: equal documents give equal strings."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: object) -> str:
    """SHA-256 of the canonical JSON form."""
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def tail(samples: Sequence[float], beyond: int = 10) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that still has
    ``beyond`` samples above it (the sample count must exceed ``beyond``).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def _number(value: object):
    """A plain JSON number: numpy scalars become ``int`` or ``float``."""
    return int(value) if isinstance(value, numbers.Integral) \
        else float(value)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def environment() -> Dict[str, object]:
    """Machine and toolchain facts recorded beside every result."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


class Report:
    """What one run measured and whether its outputs were right.

    ``attempted``/``failed`` count the workload's operations and its
    correctness checks together; any failure makes the run fail.
    """

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.end_to_end: Dict[str, float] = {}
        #: Workload-specific end-to-end figures: (value, unit).
        self.details: Dict[str, Tuple[float, str]] = {}
        self.layers: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def ops(self, count: int) -> None:
        """Count ``count`` completed operations of the workload."""
        self.attempted += count

    def check(self, what: str, ok: bool) -> None:
        self.tally(what, int(not ok), 1)

    def tally(self, what: str, bad: int, total: int) -> None:
        """A check repeated ``total`` times; each of ``bad`` misses fails."""
        self.attempted += total
        self.failed += bad
        if bad:
            self.failures.append(f"{what}: {bad} of {total}")
        counts = f" ({total - bad} of {total})" if total > 1 else ""
        print(f"check {'FAIL' if bad else 'ok  '} {what}{counts}")

    def timing(self, name: str, samples: Sequence[float]) -> float:
        """A median; the samples it was taken over go into the notes."""
        value = statistics.median(samples)
        self.notes[f"{name}.samples"] = [round(t, 4) for t in samples]
        return value

    def emit(self) -> int:
        """Print every figure, then the one-line JSON result; exit code."""
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        print(f"workload {self.workload} seed {self.seed} "
              f"trace {int(self.trace)}")
        print("env " + json.dumps(environment(), sort_keys=True))
        for key, value in sorted(self.notes.items()):
            print(f"note {key} = {value}")
        for name, value in self.end_to_end.items():
            print(f"metric {name} = {value:.6g} {units[name]}")
        for name, (value, unit) in self.details.items():
            print(f"metric {name} = {value:.6g} {unit}")
        error_rate = self.failed / max(self.attempted, 1)
        print(f"metric error_rate = {error_rate:.6g} ratio "
              f"({self.failed} of {self.attempted})")
        layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name, value in self.layers.items():
            print(f"layer {name} = {value:.6g} {layer_units[name]}")
        got, unit_of = ((self.layers, layer_units) if self.trace
                        else (self.end_to_end, units))
        missing = sorted(set(unit_of) - set(got))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        metrics = {n: {"value": _number(got[n]), "unit": unit}
                   for n, unit in unit_of.items()}
        correct = self.failed == 0
        for what in self.failures:
            print(f"failed: {what}", file=sys.stderr)
        print(json.dumps({"correct": correct, "attempted": self.attempted,
                          "failed": self.failed, "metrics": metrics}))
        return 0 if correct else 1
