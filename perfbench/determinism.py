"""Two processes, one seed: the quality figures must be identical.

Usage, from the repository root::

    python3 perfbench/determinism.py --workload place-condor --seed 1

Runs ``perfbench/run.py`` twice, one process after the other, and
compares the ``quality_digest`` notes (hpwl, area, Ph, and for
``evaluate-paper`` the payload digest; for ``service-eagle`` also the map
rows and the ensemble curve).  Exit code 0 when they match.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def quality_digest(workload: str, seed: int) -> str:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "0"],
        capture_output=True, text=True, check=True).stdout
    lines = [line for line in out.splitlines()
             if line.startswith("note quality_digest = ")]
    if len(lines) != 1:
        raise RuntimeError(f"no quality digest in the output of {workload}")
    return lines[0].split(" = ", 1)[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    first = quality_digest(args.workload, args.seed)
    second = quality_digest(args.workload, args.seed)
    same = first == second
    print(f"{args.workload} seed {args.seed}: "
          f"{'identical' if same else 'DIFFERENT'}\n  {first}\n  {second}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
