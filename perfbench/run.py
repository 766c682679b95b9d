"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload place-condor --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` repeats the workload, then runs it again with every
layer's entry points wrapped in timing spans and reports the per-layer
metrics.  The last line of standard output is one JSON object; the lines
before it list every figure with its unit, the correctness checks and
the machine.  The exit code is 0 only when every check passed.  The
metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload name -> module in this directory.
MODULES = {
    "place-condor": "place_condor",
    "evaluate-paper": "evaluate_paper",
    "service-eagle": "service_eagle",
}

#: Thread pools of the numeric libraries; pinned before numpy loads so
#: no workload uses more threads than the machine has cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def _isolate(tmp: Path) -> None:
    """No shared result cache, pinned thread pools, temp files in ``tmp``."""
    # A set REPRO_CACHE_DIR would turn a "cold" run into a cache hit.
    os.environ.pop("REPRO_CACHE_DIR", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(MODULES),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        _isolate(tmp)
        sys.path[:0] = [str(HERE), str(ROOT / "src")]
        from harness import Context
        from report import Report

        module = importlib.import_module(MODULES[args.workload])
        ctx = Context(seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), tmp=tmp,
                      import_s=time.perf_counter() - _STARTED)
        report = Report(args.workload, args.seed, ctx.trace)
        module.run(ctx, report)
        return report.emit()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still holds its own directory


if __name__ == "__main__":
    sys.exit(main())
